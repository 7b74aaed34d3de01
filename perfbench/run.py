"""Benchmark harness for tropical-transient.

    python3 perfbench/run.py --workload cli_fixture --seed 0 --seconds 20 --trace 0

Runs one workload as a closed loop with a single caller: passes over the
workload's fixed op list, one op after another, until ``--seconds`` have
elapsed (at least one pass).  Every op output is checked.  The numpy
kernels run in this one process (or in one CLI child at a time) with
BLAS and OpenMP threads pinned to one.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics: self time and
work counts at each package module's public functions, recorded by
wrappers in this directory (see ``bench_trace.py``), plus kernel
micro-timings.  The human-readable table goes first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Inputs, traced spans and other working files go under
``.perfbench_work/`` at the repository root.
"""

from __future__ import annotations

import os

# One thread per process: set before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from bench_checks import Checker, sha256
from bench_inputs import write_synthetic
from bench_trace import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
SETUP_PROBES = 7
OP_TIMEOUT_S = 120
MICRO_SIZES = (5, 16, 64, 80)
MICRO_FOLD_LENGTH = 20
MICRO_BUDGET_S = 0.15

FIXTURES = Path("src/tropical_transient/fixtures")
FAMILY5 = str(FIXTURES / "five_node_family.json")
SEQ44 = str(FIXTURES / "product_len44.json")
EXPECTED5 = str(FIXTURES / "expected_five_node.json")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("products_per_s", "1/s"),
)

# Self-time metrics (ms per traced pass), keyed by span name.
SELF_TIME = (
    "cli.main",
    "io.load_family",
    "io.load_sequence",
    "report.sections",
    "report.render",
    "family.validate",
    "family.sup_derived",
    "family.inf_vectors",
    "digraph.max_cycle_mean",
    "digraph.paths",
    "matrix.walk_closure",
    "matrix.from_rows",
    "bounds.compute_bound_report",
    "matrix.rank_one_factor",
    "products.fold",
    "products.estimate_transient",
    "trellis.check_lemma_bounds",
    "trellis.walk_summary",
    "kernels.matmul",
    "kernels.fold",
    "kernels.sweep",
)
COUNTS = (
    ("report.bytes", "bytes"),
    ("family.inf_vector_calls", "count"),
    ("digraph.max_cycle_mean_calls", "count"),
    ("matrix.matmul_calls", "count"),
    ("products.fold_calls", "count"),
    ("products.examined", "count"),
    ("trellis.lemma_pairs_checked", "count"),
    ("kernels.matmul_calls", "count"),
    ("kernels.matmul_ops", "count"),
    ("kernels.sweep_calls", "count"),
    ("kernels.sweep_layers", "count"),
)
PER_LAYER = (
    (("cli.import_ms", "ms"),)
    + tuple((f"{name}_ms", "ms") for name in SELF_TIME)
    + COUNTS
    + (("trace.overhead_s", "s"),)
    + tuple(
        (f"kernels.micro.{kernel}_n{n}_ms", "ms")
        for kernel in ("matmul", f"fold_k{MICRO_FOLD_LENGTH}")
        for n in MICRO_SIZES
    )
)


class SetupError(Exception):
    pass


def bootstrap() -> float:
    """Put the checkout's src/ first on the path and import the package.

    Returns the import time in seconds.
    """
    if not (SRC / "tropical_transient" / "__init__.py").is_file():
        raise SetupError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import tropical_transient.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    loaded = Path(sys.modules["tropical_transient"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise SetupError(f"imported tropical_transient from {loaded}, not from {SRC}")
    return elapsed


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# -- ops and workloads ------------------------------------------------------

@dataclass(frozen=True)
class Op:
    name: str
    args: tuple
    seeded: bool = False
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    op: Op
    code: int
    out: bytes
    wall: float
    cpu: float


REPORT = {"json": True, "schema": True, "validation_passed": True}


def cli_fixture_ops(seed: int, workdir: Path) -> list[Op]:
    transient = {"examined": 12 * 50, "family": FAMILY5, "sample_seed": f"{seed}-transient"}
    return [
        Op("validate", ("validate", FAMILY5, "--format", "json"), expect=REPORT),
        Op(
            "derive_expected",
            ("derive", FAMILY5, "--expected", EXPECTED5, "--format", "json"),
            expect=REPORT,
        ),
        Op(
            "bound_seq",
            ("bound", FAMILY5, SEQ44, "--format", "json"),
            expect={**REPORT, "bounds": {"explicit": 34, "implicit": "55/2"}},
        ),
        Op(
            "check_lemmas",
            ("check", FAMILY5, SEQ44, "--lemmas", "--format", "json"),
            expect={**REPORT, "rank_one": True, "lemmas": True},
        ),
        Op("derive_pretty", ("derive", FAMILY5, "--format", "pretty")),
        Op(
            "transient",
            ("transient", FAMILY5, "--horizon", "12", "--samples", "50",
             "--seed", str(seed), "--format", "json"),
            seeded=True,
            expect={**REPORT, "transient": transient},
        ),
    ]


def scan_fixture_ops(seed: int, workdir: Path) -> list[Op]:
    def scan(name, mode, horizon, samples, examined, seeded):
        expect = {
            "json": True,
            "transient": {"examined": examined, "family": FAMILY5, "sample_seed": f"{seed}-{name}"},
        }
        return Op(name, (mode, horizon, samples), seeded=seeded, expect=expect)

    return [
        scan("scan_sampled", "sampled", 40, 100, 40 * 100, True),
        scan("scan_exhaustive", "exhaustive", 8, None, sum(3**k for k in range(1, 9)), False),
    ]


def synthetic_ops(seed: int, workdir: Path) -> list[Op]:
    f40, _ = write_synthetic(workdir, seed, 40, 200)
    f80, s80 = write_synthetic(workdir, seed, 80, 200)
    f20, s20 = write_synthetic(workdir, seed, 20, 200)
    rel = lambda p: str(p.relative_to(ROOT))
    return [
        Op("derive_n40", ("derive", rel(f40), "--format", "json"), True, REPORT),
        Op(
            "bound_n80",
            ("bound", rel(f80), rel(s80), "--format", "json"),
            True,
            {**REPORT, "implicit_le_explicit": True},
        ),
        Op(
            "lemmas_n20",
            ("check", rel(f20), rel(s20), "--lemmas", "--format", "json"),
            True,
            {**REPORT, "rank_one": True, "lemmas": True},
        ),
    ]


def run_cli_child(op: Op, spans_path: Path | None = None) -> Result:
    if spans_path is None:
        cmd = [sys.executable, "-m", "tropical_transient.cli", *op.args]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *op.args]
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S, check=False,
        )
        code, out = proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        code, out = -1, b""
    wall = time.perf_counter() - start
    return Result(op, code, out, wall, cpu_seconds() - cpu0)


def run_cli_inprocess(op: Op) -> Result:
    cli = sys.modules["tropical_transient.cli"]
    out, err = io.StringIO(), io.StringIO()
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(op.args))
    except Exception:  # an op that crashes is a failed op; keep measuring
        code, out = -1, io.StringIO(traceback.format_exc())
    wall = time.perf_counter() - start
    return Result(op, code, out.getvalue().encode("utf-8"), wall, cpu_seconds() - cpu0)


def run_scan(op: Op, seed: int) -> Result:
    tt_io = sys.modules["tropical_transient.io"]
    products = sys.modules["tropical_transient.products"]
    mode, horizon, samples = op.args
    kwargs = {"samples_per_length": samples, "seed": seed} if mode == "sampled" else {}
    cpu0 = cpu_seconds()
    start = time.perf_counter()
    try:
        family, _ = tt_io.load_family(ROOT / FAMILY5)
        est = products.estimate_transient(family, horizon=horizon, mode=mode, **kwargs)
    except Exception:  # an op that crashes is a failed op; keep measuring
        wall = time.perf_counter() - start
        return Result(op, -1, traceback.format_exc().encode(), wall, cpu_seconds() - cpu0)
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu0
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
    out = json.dumps({"transient": section}, sort_keys=True).encode()
    return Result(op, 0, out, wall, cpu)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_ops: Callable[[int, Path], list[Op]]
    in_process: bool
    products_per_pass: int

    def execute(self, op: Op, seed: int, spans_path: Path | None = None) -> Result:
        if not self.in_process:
            return run_cli_child(op, spans_path)
        if self.name == "scan_fixture":
            return run_scan(op, seed)
        return run_cli_inprocess(op)

    def warm_up(self, ops: list[Op], seed: int) -> None:
        """One untimed call that touches the workload's code paths."""
        if not self.in_process:
            run_cli_child(Op("warm_up", ("validate", FAMILY5, "--format", "json")))
        elif self.name == "scan_fixture":
            run_scan(Op("warm_up", ("sampled", 3, 5)), seed)
        else:
            smallest = ops[-1].args[1]  # the n = 20 family of the lemma op
            run_cli_inprocess(Op("warm_up", ("validate", smallest, "--format", "json")))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_fixture",
            "fresh CLI processes on the bundled 5-node family: interpreter start, "
            "import, parsing and report rendering dominate",
            cli_fixture_ops,
            in_process=False,
            # transient examines 12 x 50 products; bound and check fold one each.
            products_per_pass=12 * 50 + 2,
        ),
        Workload(
            "scan_fixture",
            "in-process transient scans on the bundled family (4,000 sampled and "
            "9,840 exhaustive products): per-fold dispatch cost at n = 5",
            scan_fixture_ops,
            in_process=True,
            products_per_pass=40 * 100 + sum(3**k for k in range(1, 9)),
        ),
        Workload(
            "synthetic_scale",
            "in-process CLI on seeded admissible families (derive n = 40, bound "
            "n = 80, lemma checks n = 20, k = 200): O(n^3-n^4) derivations and sweeps",
            synthetic_ops,
            in_process=True,
            # bound and check fold one length-200 product each.
            products_per_pass=2,
        ),
    )
}


# -- measurement --------------------------------------------------------------

def run_pass(workload: Workload, ops: list[Op], seed: int, spans_dir: Path | None = None):
    results = []
    for idx, op in enumerate(ops):
        gc.collect()
        spans = spans_dir / f"op{idx}.json" if spans_dir is not None else None
        results.append(workload.execute(op, seed, spans))
    return results


def warm_bytecode() -> None:
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "tropical_transient"), str(HERE)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S, check=True,
    )


def setup_probe(workload: Workload, seed: int) -> float:
    """Wall time of one fresh process that does the workload's set-up."""
    if workload.in_process:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
               "--seed", str(seed), "--setup-only"]
    else:
        cmd = [sys.executable, "-c", "import tropical_transient"]
    start = time.perf_counter()
    # Pipes, not DEVNULL: with a timeout and no pipes, the wait polls in 50 ms steps.
    subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def peak_rss_mb(workload: Workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def load_digests(workload: Workload) -> dict:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload.name, {})


def record_digests(workload: Workload, results: list[Result]) -> None:
    data = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    data[workload.name] = {
        r.op.name: {"exit": r.code, "stdout_sha256": sha256(r.out)} for r in results
    }
    DIGESTS.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, result: Result, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.messages.append(f"{result.op.name}: {'; '.join(errors)}")


def check_passes(checker: Checker, passes: list[list[Result]], tally: Tally) -> None:
    """Check every op of every pass; an op must also repeat its first output."""
    first = {r.op.name: r.out for r in passes[0]}
    for results in passes:
        for r in results:
            errors = list(checker.errors(r.op, r.code, r.out))
            if r.out != first[r.op.name]:
                errors.append("stdout differs from the first pass")
            tally.add(r, errors)


def end_to_end(workload, ops, seed, seconds, checker, tally):
    # Set-up probes run between passes, so both see the same machine load.
    setups, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setups.append(setup_probe(workload, seed))
        passes.append(run_pass(workload, ops, seed))
        if len(passes) == 1:
            rss = peak_rss_mb(workload)  # before any check has run in this process
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(workload, seed))
    check_passes(checker, passes, tally)

    wall_s = statistics.median(sum(r.wall for r in p) for p in passes)
    # Each op's latency is its median over the passes; the percentiles run
    # across the op list, so one slow sample cannot set op_p90_ms.
    per_op = {op.name: statistics.median(p[i].wall for p in passes) for i, op in enumerate(ops)}
    op_ms = [t * 1e3 for t in per_op.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall_s,
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": rss,
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "products_per_s": workload.products_per_pass / wall_s,
    }
    samples = f"{len(ops)} ops x {len(passes)} passes"
    notes = {
        "setup_s": f"median of {len(setups)} fresh processes",
        "wall_s": f"median of {len(passes)} passes",
        "cpu_s": "user + system, this process and its children",
        "op_p50_ms": samples,
        "op_p90_ms": samples,
        "products_per_s": f"{workload.products_per_pass} products per pass",
    }
    return metrics, notes, per_op, passes


def kernel_micro(seed: int) -> dict:
    """Median times of the numpy matmul and fold kernels on random inputs."""
    path = ROOT / "benchmarks" / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", path)
    bench_kernels = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_kernels)
    import numpy as np

    backend = sys.modules["tropical_transient._kernels"].NUMPY_BACKEND
    rng = np.random.default_rng(seed)
    out = {}
    for n in MICRO_SIZES:
        num, fin, seq = bench_kernels.random_inputs(rng, 3, n, MICRO_FOLD_LENGTH)
        cases = {
            "matmul": lambda: backend.matmul(num[0], fin[0], num[1], fin[1]),
            f"fold_k{MICRO_FOLD_LENGTH}": lambda: backend.fold(num, fin, seq),
        }
        for kernel, call in cases.items():
            call()
            times = []
            budget_end = time.perf_counter() + MICRO_BUDGET_S
            while len(times) < 5 or (time.perf_counter() < budget_end and len(times) < 200):
                start = time.perf_counter()
                call()
                times.append(time.perf_counter() - start)
            out[f"kernels.micro.{kernel}_n{n}_ms"] = statistics.median(times) * 1e3
    return out


def traced(workload, ops, seed, seconds, import_s, checker, tally, workdir):
    """Alternate untraced and traced passes; return per-layer metrics."""
    tracer = Tracer()
    plain, traced_passes = [], []
    deadline = time.perf_counter() + seconds
    while not traced_passes or time.perf_counter() < deadline:
        plain.append(run_pass(workload, ops, seed))
        if workload.in_process:
            with tracer:
                traced_passes.append(_traced_inprocess(workload, ops, seed, tracer, len(traced_passes)))
        else:
            traced_passes.append(_traced_children(workload, ops, seed, tracer, workdir, len(traced_passes)))
    check_passes(checker, plain + traced_passes, tally)

    passes = len(traced_passes)
    self_times = tracer.self_times()
    metrics = {
        "cli.import_ms": (self_times["cli.import"] / passes if not workload.in_process else import_s) * 1e3,
    }
    for name in SELF_TIME:
        metrics[f"{name}_ms"] = self_times[name] / passes * 1e3
    for name, _ in COUNTS:
        metrics[name] = tracer.counts[name] / passes
    metrics["trace.overhead_s"] = statistics.median(
        sum(r.wall for r in p) for p in traced_passes
    ) - statistics.median(sum(r.wall for r in p) for p in plain)
    metrics.update(kernel_micro(seed))

    with open(workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    notes = {"trace.overhead_s": f"{passes} traced and {len(plain)} untraced passes"}
    return metrics, notes


def _traced_inprocess(workload, ops, seed, tracer, pass_no):
    results = []
    for op in ops:
        gc.collect()
        tracer.op = f"pass{pass_no}:{op.name}"
        results.append(workload.execute(op, seed))
    tracer.op = None
    return results


def _traced_children(workload, ops, seed, tracer, workdir, pass_no):
    spans_dir = workdir / f"spans_pass{pass_no}"
    spans_dir.mkdir(exist_ok=True)
    results = run_pass(workload, ops, seed, spans_dir)
    for idx, op in enumerate(ops):
        path = spans_dir / f"op{idx}.json"
        if path.is_file():
            data = json.loads(path.read_text(encoding="utf-8"))
            tracer.merge(data["spans"], data["counts"], f"pass{pass_no}:{op.name}")
    shutil.rmtree(spans_dir)
    return results


# -- entry point --------------------------------------------------------------

def machine() -> dict:
    import numpy as np

    kernels = sys.modules["tropical_transient._kernels"]
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": kernels.ACTIVE.name,
        "numba": "present" if kernels.NUMBA_BACKEND is not None else "absent",
    }


def print_table(title, rows) -> None:
    print(title)
    for name, value, unit, note in rows:
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<34} {shown:>14} {unit:<6} {note}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, write inputs and make the warm-up call, then exit")
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's first-pass digests in digests.json "
                        "(default seed, --trace 0 only)")
    args = parser.parse_args(argv)
    if args.record_digests and (args.seed != DEFAULT_SEED or args.trace):
        parser.error("--record-digests needs the default seed and --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        import_s = bootstrap()
    except (SetupError, ImportError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workdir = WORK / f"{workload.name}-seed{args.seed}"
    if args.setup_only:
        workdir = workdir / "probe"
    else:
        warm_bytecode()
    workdir.mkdir(parents=True, exist_ok=True)
    ops = workload.make_ops(args.seed, workdir)
    workload.warm_up(ops, args.seed)
    if args.setup_only:
        return 0

    from tropical_transient.report import schema_text

    checker = Checker(
        schema_text(),
        None if args.record_digests else load_digests(workload),
        default_seed=args.seed == DEFAULT_SEED,
    )
    tally = Tally()
    seconds = max(args.seconds, 0.0)
    if args.trace:
        metrics, notes = traced(workload, ops, args.seed, seconds, import_s, checker, tally, workdir)
        units = dict(PER_LAYER)
        per_op = {}
    else:
        metrics, notes, per_op, passes = end_to_end(workload, ops, args.seed, seconds, checker, tally)
        units = dict(END_TO_END)
        if args.record_digests:
            record_digests(workload, passes[0])

    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in machine().items()))
    print(f"  why: {workload.why}")
    rows = [(name, metrics[name], units[name], notes.get(name, "")) for name in units]
    ratio = tally.failed / tally.attempted
    rows.append(("failed_ratio", ratio, "ratio", f"{tally.failed} of {tally.attempted} ops"))
    rows.extend((f"{name}_s", t, "s", "median op wall time") for name, t in per_op.items())
    print_table("metrics:", rows)
    for message in tally.messages[:20]:
        print(f"  FAILED {message}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
