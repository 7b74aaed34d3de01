"""The synthetic-scale benchmark reports are byte-pinned in tier-1.

``perfbench/digests.json`` holds the exit code and stdout sha256 of every
benchmark op.  This test writes the seed-0 synthetic families and
sequences with the benchmark's own input generator, runs the CLI in
process with each ``synthetic_scale`` op's arguments, and compares against
those digests, so the n = 20 / 40 / 80 report bytes (``check --lemmas``
included) are guarded without running the benchmark.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tropical_transient import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))["synthetic_scale"]
SEED = 0
LENGTH = 200


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", PERFBENCH / "bench_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Op name -> (command, family size, whether the sequence is passed, extra flags).
OPS = {
    "derive_n40": ("derive", 40, False, ()),
    "bound_n80": ("bound", 80, True, ()),
    "lemmas_n20": ("check", 20, True, ("--lemmas",)),
}


def test_every_synthetic_op_is_pinned():
    assert set(OPS) == set(DIGESTS)


@pytest.mark.parametrize("name", sorted(OPS))
def test_synthetic_report_matches_digest(name, tmp_path, capsys):
    command, n, with_sequence, flags = OPS[name]
    family, sequence = load_bench_inputs().write_synthetic(tmp_path, SEED, n, LENGTH)
    paths = (str(family), str(sequence)) if with_sequence else (str(family),)
    code = cli.main([command, *paths, *flags, "--format", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == (
        DIGESTS[name]["exit"], DIGESTS[name]["stdout_sha256"]
    )
