"""Every benchmark report is byte-pinned in tier-1.

``perfbench/digests.json`` holds the exit code and stdout sha256 of every
benchmark op.  This test reproduces each one in process:

* ``cli_fixture``: the CLI on the bundled fixtures, with each op's
  arguments, run from the repository root as the benchmark's child
  processes are (reports name the family path they read);
* ``scan_fixture``: ``estimate_transient`` on the five-node family, whose
  result the benchmark writes as one ``transient`` section of sorted JSON;
* ``synthetic_scale``: the CLI on the seed-0 synthetic families and
  sequences written by the benchmark's own input generator, so the
  n = 20 / 40 / 80 report bytes (``check --lemmas`` included) are guarded
  without running the benchmark.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from tropical_transient import cli, io, products

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))
SEED = 0
LENGTH = 200
FIXTURES = "src/tropical_transient/fixtures"
FAMILY5 = f"{FIXTURES}/five_node_family.json"
SEQ44 = f"{FIXTURES}/product_len44.json"
EXPECTED5 = f"{FIXTURES}/expected_five_node.json"


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location("bench_inputs", PERFBENCH / "bench_inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(code: int, out: str) -> dict:
    return {"exit": code, "stdout_sha256": hashlib.sha256(out.encode("utf-8")).hexdigest()}


# Op name -> CLI arguments, paths relative to the repository root.
FIXTURE_OPS = {
    "validate": ("validate", FAMILY5, "--format", "json"),
    "derive_expected": ("derive", FAMILY5, "--expected", EXPECTED5, "--format", "json"),
    "bound_seq": ("bound", FAMILY5, SEQ44, "--format", "json"),
    "check_lemmas": ("check", FAMILY5, SEQ44, "--lemmas", "--format", "json"),
    "derive_pretty": ("derive", FAMILY5, "--format", "pretty"),
    "transient": ("transient", FAMILY5, "--horizon", "12", "--samples", "50",
                  "--seed", str(SEED), "--format", "json"),
}

# Op name -> (scan mode, horizon, samples per length).
SCAN_OPS = {
    "scan_sampled": ("sampled", 40, 100),
    "scan_exhaustive": ("exhaustive", 8, None),
}

# Op name -> (command, family size, whether the sequence is passed, extra flags).
OPS = {
    "derive_n40": ("derive", 40, False, ()),
    "bound_n80": ("bound", 80, True, ()),
    "lemmas_n20": ("check", 20, True, ("--lemmas",)),
}

WORKLOADS = {"cli_fixture": FIXTURE_OPS, "scan_fixture": SCAN_OPS, "synthetic_scale": OPS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_benchmark_op_is_pinned(workload):
    assert set(WORKLOADS[workload]) == set(DIGESTS[workload])


@pytest.mark.parametrize("name", sorted(FIXTURE_OPS))
def test_fixture_report_matches_digest(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    code = cli.main(list(FIXTURE_OPS[name]))
    out, err = capsys.readouterr()
    assert err == ""
    assert digest(code, out) == DIGESTS["cli_fixture"][name]


@pytest.mark.parametrize("name", sorted(SCAN_OPS))
def test_scan_section_matches_digest(name):
    mode, horizon, samples = SCAN_OPS[name]
    kwargs = {"samples_per_length": samples, "seed": SEED} if mode == "sampled" else {}
    family, _ = io.load_family(ROOT / FAMILY5)
    est = products.estimate_transient(family, horizon=horizon, mode=mode, **kwargs)
    section = {
        "mode": est.mode,
        "horizon": est.horizon,
        "first_all_rank_one": est.first_all_rank_one,
        "examined": est.examined,
        "counterexample_count": len(est.counterexamples),
        "counterexamples": [{"length": k, "indices": list(idx)} for k, idx in est.counterexamples],
        "samples_per_length": est.samples_per_length,
        "seed": est.seed,
    }
    out = json.dumps({"transient": section}, sort_keys=True)
    assert digest(0, out) == DIGESTS["scan_fixture"][name]


@pytest.mark.parametrize("name", sorted(OPS))
def test_synthetic_report_matches_digest(name, tmp_path, capsys):
    command, n, with_sequence, flags = OPS[name]
    family, sequence = load_bench_inputs().write_synthetic(tmp_path, SEED, n, LENGTH)
    paths = (str(family), str(sequence)) if with_sequence else (str(family),)
    code = cli.main([command, *paths, *flags, "--format", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    assert digest(code, out) == DIGESTS["synthetic_scale"][name]
