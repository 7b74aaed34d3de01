"""Self-checks for the benchmark harness.

    python3 -m pytest -q perfbench

These cover the harness itself, not the package: that no MatrixFamily
outlives the op that built it, that tracing changes no output and leaves
nothing patched, that the reference fold agrees with the package, and
that BENCHMARK.json names exactly the metrics the harness prints.
"""

import gc
import json
import subprocess
import sys
import weakref

import pytest

import run
from bench_checks import fraction_fold, is_rank_one, load_members
from bench_inputs import write_synthetic
from bench_trace import Tracer

run.bootstrap()

from tropical_transient import family as tt_family  # noqa: E402
from tropical_transient import io as tt_io  # noqa: E402
from tropical_transient import products  # noqa: E402
from tropical_transient.semiring import Epsilon  # noqa: E402

FAMILY5 = str(run.ROOT / run.FAMILY5)
SEQ44 = str(run.ROOT / run.SEQ44)


@pytest.fixture()
def small_synthetic(tmp_path):
    return write_synthetic(tmp_path, seed=1, n=6, length=30)


def test_no_matrix_family_outlives_its_timed_op(monkeypatch, small_synthetic):
    created = []
    original_init = tt_family.MatrixFamily.__init__

    def recording_init(self, *args, **kwargs):
        created.append(weakref.ref(self))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(tt_family.MatrixFamily, "__init__", recording_init)
    family, sequence = map(str, small_synthetic)
    cases = [
        (run.WORKLOADS["scan_fixture"], run.Op("scan", ("sampled", 4, 5))),
        (run.WORKLOADS["scan_fixture"], run.Op("scan", ("exhaustive", 3, None))),
        (run.WORKLOADS["synthetic_scale"], run.Op("derive", ("derive", family, "--format", "json"))),
        (run.WORKLOADS["synthetic_scale"], run.Op("lemmas", ("check", family, sequence, "--lemmas"))),
        (run.WORKLOADS["synthetic_scale"], run.Op("derive", ("derive", family, "--format", "json"))),
    ]
    for workload, op in cases:
        before = len(created)
        result = workload.execute(op, seed=0)
        assert result.code == 0, result.out
        assert len(created) > before, f"{op.name} built no family of its own"
        gc.collect()
        alive = [ref for ref in created if ref() is not None]
        assert not alive, f"{len(alive)} families survive op {op.name}"


def _patchable_state():
    state = {}
    for name, mod in sys.modules.items():
        if name.startswith("tropical_transient"):
            state[name] = dict(vars(mod))
    for cls in (tt_family.MatrixFamily, sys.modules["tropical_transient.matrix"].TropicalMatrix):
        state[cls.__qualname__] = dict(cls.__dict__)
    return state


def test_tracer_restores_every_patch():
    before = _patchable_state()
    with Tracer() as tracer:
        assert sys.modules["tropical_transient._kernels"].ACTIVE is not before[
            "tropical_transient._kernels"]["ACTIVE"]
        family, _ = tt_io.load_family(FAMILY5)
        products.estimate_transient(family, horizon=3, samples_per_length=4)
    after = _patchable_state()
    assert before.keys() == after.keys()
    for key in before:
        changed = [a for a in before[key] if before[key][a] is not after[key].get(a)]
        assert not changed, f"{key}: {changed} not restored"
    assert tracer.counts["products.examined"] == 12
    assert tracer.counts["products.fold_calls"] == 12


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, "op"],
        ["inner", 1.0, 4.0, 0, "op"],
        ["leaf", 2.0, 3.0, 1, "op"],
        ["inner", 5.0, 6.0, 0, "op"],
    ]
    assert tracer.self_times() == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_traced_output_is_byte_identical_in_process():
    workload = run.WORKLOADS["synthetic_scale"]
    op = run.Op("check", ("check", FAMILY5, SEQ44, "--lemmas", "--format", "json"))
    plain = workload.execute(op, seed=0)
    with Tracer() as tracer:
        traced = workload.execute(op, seed=0)
    assert (plain.code, plain.out) == (traced.code, traced.out)
    assert tracer.counts["trellis.lemma_pairs_checked"] > 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "io.load_family", "trellis.check_lemma_bounds", "kernels.sweep"} <= names


def test_traced_output_is_byte_identical_in_a_child(tmp_path):
    op = run.Op("bound", ("bound", run.FAMILY5, run.SEQ44, "--format", "json"))
    plain = run.run_cli_child(op)
    spans_path = tmp_path / "spans.json"
    traced = run.run_cli_child(op, spans_path)
    assert (plain.code, plain.out) == (traced.code, traced.out)
    data = json.loads(spans_path.read_text())
    names = {span[0] for span in data["spans"]}
    assert {"cli.import", "cli.main", "bounds.compute_bound_report"} <= names
    assert data["counts"]["products.fold_calls"] == 1


def test_reference_fold_agrees_with_the_package():
    members = load_members(FAMILY5)
    family, _ = tt_io.load_family(FAMILY5)
    indices = json.loads(open(SEQ44).read())["indices"]
    for length in (1, 2, 5, 44):
        product = products.fold(family, indices[:length]).to_rows()
        expected = [[None if isinstance(w, Epsilon) else w for w in row] for row in product]
        assert fraction_fold(members, indices[:length]) == expected
    assert is_rank_one(fraction_fold(members, indices))
    assert not is_rank_one(fraction_fold(members, [1, 2]))


def test_synthetic_families_are_admissible(small_synthetic):
    family, _ = tt_io.load_family(small_synthetic[0])
    assert family.validate().passed
    assert family.member_count == 3


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_fails_without_the_package_source(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in run.HERE.iterdir():
        if path.is_file():
            (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((run.ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_fixture", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
        env={"PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
