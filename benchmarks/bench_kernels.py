"""Timing of the max-plus kernels.

Runs the hot kernels (matrix product, sequence fold and the trellis
sweeps, the start-indexed ones with every node as a start; the all-starts
avoiding sweep with rank-one absorption that the lemma checks run, the
through sweep on the 2n-node lifted members, and the through table that
the lemma checks join from the arrivals and departures of two avoiding
sweeps) on
random scaled-integer inputs and prints the best wall time per call.  At
sizes up to 40 it also times one exhaustive level step of the transient
scan's level kernel ``extend``, from the m^4 products of length 4 to the
m^5 of length 5, each one planned product step on the members' plan
(``level_plan``, made once outside the timing, as the scans make it),
with their rank-one verdicts.

A second table times one planned product step (``_step``) on the
padded-column plan of admissible-style members at n = 5, 20, 40, 80 and
prints the plan's depth D: of a vector, of a node-first matrix state (one
column per start) and of a level of 300 products through ``extend`` (on
the members' ``level_plan``, as the scans step them), whose
``verdict`` row is the rank-one test of that level alone, so its
share of the level step can be read off.

A third table times the single fold at k = 200 and n = 20, 40, 80 on
two sequences: one over admissible-style members, whose prefix turns
rank-one early so the fold finishes as a vector sweep, and one over
weighted permutation matrices, which never turn rank-one, so the fold
pays for every rank-one probe on top of every matrix product.

A fourth table times the transient scan's own work, all of whose matrix
products the level kernel ``extend`` forms, from the empty product on,
in depth-first groups of at most 2^18 // n^2 products; the ``formed``
column counts them and the ``width`` column names the integer width
their levels step in (int16 below 2^13, int32 below 2^29, int64 past
it).  It folds 100 draws of length 20 and 40 at n = 5 and 16, over the
same two kinds of members encoded in the width a scan of that length
picks, as the sampled scan's tree of distinct prefixes (the onset
members have finite (1, 1) entries, so rank-one prefixes leave the
tree).  Then it runs the sampled scan of the
bundled five-node family (horizon 40, 100 draws per length, seed 0), the
same scan with member 1's (1, 1) entry set to -inf, which turns pruning
off so every distinct prefix is formed, the exhaustive scan up to
horizons 8 and 12, whose groups extend only their failing products, a
fresh ``load_family`` of the bundled family followed by a horizon-1
scan, sampled with one draw and exhaustive (the fixed cost of one scan
op, apart from its per-depth work), and the exhaustive scan of the
benchmark's seed-0 admissible family at n = 20 up to horizon 8, none of
whose 9,840 products is rank-one.  Last
comes one sampled scan (horizon 40, 100 draws per length, seed 0) of the
benchmark's seed-0 synthetic family at each ``--sizes`` value
(``--sizes 20,40,80`` gives the sampled-scan row of ROADMAP's layer
table).

A fifth table times the text boundary, the implicit bound and the lemma
checks on the benchmark's seed-0 synthetic inputs
(``perfbench/bench_inputs.py``) at n = 20, 40, 80 and k = 200:
``load_family``, ``matrix_tokens`` of gamma, ``json_text`` of the
``bound FAM SEQ`` report as the CLI builds it (each grid written from its
distinct-value table), ``render_json`` of the same report read back from
its text (plain lists with no token grid, so ``json.dumps`` writes it all),
``implicit_sequence_bound`` (two vector sweeps),
``implicit_bound`` of the folded product (the path it replaces) and
``check_lemma_bounds``.

A sixth table times the family side on the seed-0 synthetic inputs at
n = 20, 40, 80: a fresh ``load_family`` followed by validation,
``sup_derived`` and the A_inf vectors w and v (the closure, fixpoints and
Karp runs of ``bound FAM SEQ``), one ``closure`` kernel call on A_sup
without its node-1 loop (validation's closure), the graph structure of
one member (``is_irreducible`` and ``strongly_connected_components``),
the A_inf vectors alone (their cache cleared before each call) and
``lambda_star`` of A_sup (Karp's table and the critical-cycle
potentials).

A seventh table times the fifth table's text boundary where tokens and
values do not repeat: families of m = 3 and 12 dense members whose
entries are nearly all distinct rationals.  The synthetic inputs repeat
heavily (about 40 distinct tokens over 3 n^2 entries), which the token
table and the writer's per-value formatting exploit; these rows show the
cost without that.  ``matrix_tokens`` runs on one member, ``family_to_dict`` on the
whole family, and ``render_json`` writes the dict it returns.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --sizes 5,16,64 --length 500
"""

import argparse
import contextlib
import importlib.util
import io
import json
import random
import tempfile
import time
from importlib import resources
from pathlib import Path

import numpy as np

from tropical_transient import _kernels
from tropical_transient._kernels import (ACTIVE, FLOOR, MASKED, PROBE_STRIDE, _mirror, _plan,
                                          _step, _through_table, avoiding_sweep, closure,
                                          encode, extend, level_plan, rank_one)
from tropical_transient.bounds import implicit_bound, implicit_sequence_bound
from tropical_transient.cli import _run as cli_run
from tropical_transient.cli import build_parser
from tropical_transient.cli import main as cli_main
from tropical_transient.digraph import is_irreducible, lambda_star, strongly_connected_components
from tropical_transient.family import MatrixFamily
from tropical_transient.io import (family_to_dict, json_text, load_family, load_sequence,
                                   matrix_tokens)
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import _tree_verdicts, estimate_transient, fold
from tropical_transient.report import render_json
from tropical_transient.trellis import build_trellis, check_lemma_bounds

STACK_ROWS = 100
STACK_MAX_SIZE = 40
LEVEL_LENGTH = 4
STEP_SIZES = (5, 20, 40, 80)
STEP_LEVEL = 300
ONSET_SIZES = (20, 40, 80)
ONSET_LENGTH = 200
SCAN_SIZES = (5, 16)
SCAN_LENGTHS = (20, 40)
SCAN_HORIZONS = (8, 12)
SYNTHETIC_SCAN = (20, 8)
SAMPLED_HORIZON = 40
SAMPLED_DRAWS = 100
IO_SIZES = (20, 40, 80)
IO_LENGTH = 200
FAMILY_SIZES = (20, 40, 80)
DISTINCT_SIZES = (20, 40, 80)
DISTINCT_MEMBERS = (3, 12)


def random_inputs(rng, m, n, k, density=0.7):
    num = rng.integers(-1000, 1001, size=(m, n, n)).astype(np.int64)
    fin = rng.random(size=(m, n, n)) < density
    seq = rng.integers(0, m, size=k).astype(np.int64)
    return num, fin, seq


def onset_inputs(rng, m, n):
    """Members on one support: the cycle 0 -> 1 -> ... -> 0, a weight-0 loop
    at node 0 and 0.1 n^2 extra edges, every other weight negative."""
    fin = rng.random(size=(n, n)) < 0.1
    fin[np.arange(n), (np.arange(n) + 1) % n] = True
    fin[0, 0] = True
    num = -rng.integers(1, 13, size=(m, n, n)).astype(np.int64)
    num[:, 0, 0] = 0
    return num, np.broadcast_to(fin, (m, n, n)).copy()


def permutation_inputs(rng, m, n):
    """Weighted permutation matrices: their products are never rank-one."""
    num = rng.integers(-1000, 1001, size=(m, n, n)).astype(np.int64)
    fin = np.zeros((m, n, n), dtype=bool)
    for j in range(m):
        fin[j, np.arange(n), rng.permutation(n)] = True
    return num, fin


def onset_layer(num, fin, seq):
    """The first layer the single fold probes and finds rank-one, or None."""
    mem = encode(num, fin)
    plan = _plan(mem)
    cur = mem[seq[0]].T
    for l in range(1, len(seq)):
        if l % PROBE_STRIDE == 0 and rank_one(cur, cur > FLOOR):
            return l
        cur = _step(cur, plan, seq[l])
    return None


def as_level(stack):
    """An encoded (B, n, n) stack of matrices as the (n, n, B) level that
    ``extend`` takes."""
    return np.ascontiguousarray(stack.transpose(2, 1, 0))


def level_step(level, plan):
    """The exhaustive scan's level step on the members' plan: product p
    times member j in product p * m + j.  Its rank-one verdicts are
    formed, as in the scan, and dropped."""
    m = len(plan[1])
    keys = np.arange(level.shape[-1] * m)
    level, _ = extend(level, plan, keys // m, keys % m)
    return level


def step_rows(rng, n, members, repeats):
    """(kind, D, ms) rows of the planned-step table at size n."""
    mem = encode(*onset_inputs(rng, members, n))
    plan, levels = _plan(mem), level_plan(mem)
    vector, matrix = mem[0, 0].copy(), np.ascontiguousarray(mem[0].T)
    parents = rng.integers(0, members, size=STEP_LEVEL)
    choice = rng.integers(0, members, size=STEP_LEVEL)
    level = as_level(mem)
    product = extend(level, levels, parents, choice)[0]
    return [
        ("vector step", len(plan[0]), best_time(lambda: _step(vector, plan, 1), repeats)),
        ("matrix step", len(plan[0]), best_time(lambda: _step(matrix, plan, 1), repeats)),
        (f"level x{STEP_LEVEL}", len(plan[0]),
         best_time(lambda: extend(level, levels, parents, choice), repeats)),
        ("verdict", len(plan[0]), best_time(lambda: rank_one(product, product > FLOOR), repeats)),
    ]


def prefix_tree(mem, draws):
    """Which of one length's 1-based int32 draws, a (samples, k) array, are
    rank-one, folded as a tree of their distinct prefixes on encoded
    members (in the width the scan would pick), planned as the scan plans
    them and read in place as the scan reads them: one flat array of
    0-based members."""
    prune = bool((mem[:, 0, 0] > FLOOR).all())
    samples, k = draws.shape
    return _tree_verdicts(level_plan(mem), (draws - 1).ravel(), k, k, samples, prune)[0]


def formed(call):
    """(count, widths): the number of matrix products ``extend`` forms in
    one call, and the names of the dtypes its levels step in."""
    count, widths = 0, set()
    kernel = _kernels.extend

    def counting(level, plan, parents, members):
        nonlocal count
        count += len(parents)
        widths.add(level.dtype.name)
        return kernel(level, plan, parents, members)

    _kernels.extend = counting
    try:
        call()
    finally:
        _kernels.extend = kernel
    return count, widths


def pivot_removed(family):
    """The family with member 1's (1, 1) entry set to -inf."""
    first = family.members[0]
    fin = first._fin.copy()
    fin[0, 0] = False
    num = np.where(fin, first._num, 0)
    return MatrixFamily([TropicalMatrix(num, fin, first._den)] + list(family.members[1:]))


def synthetic_files(workdir, n):
    """The benchmark's seed-0 family and sequence files (k = IO_LENGTH) at size n."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "bench_inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    bench_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_inputs)
    return bench_inputs.write_synthetic(Path(workdir), 0, n, IO_LENGTH)


def io_rows(n, fam, seq, repeats):
    """(name, k, ms) rows of the text-boundary and lemma table at size n."""
    family = load_family(fam)[0]
    sequence = load_sequence(seq)
    gamma = family.sup_derived.gamma
    argv = ["bound", str(fam), str(seq), "--format", "json"]
    built = cli_run(build_parser().parse_args(argv))[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(argv)
    report = json.loads(out.getvalue())
    return [
        ("load_family", "", best_time(lambda: load_family(fam), repeats)),
        ("matrix_tokens", "", best_time(lambda: matrix_tokens(gamma), repeats)),
        ("json_text", "", best_time(lambda: json_text(built), repeats)),
        ("render_json", "", best_time(lambda: render_json(report), repeats)),
        ("implicit sweeps", IO_LENGTH,
         best_time(lambda: implicit_sequence_bound(family, sequence), repeats)),
        ("implicit of fold", IO_LENGTH,
         best_time(lambda: implicit_bound(family, fold(family, sequence)), repeats)),
        ("check_lemma_bounds", IO_LENGTH,
         best_time(lambda: check_lemma_bounds(build_trellis(family, sequence)), repeats)),
    ]


def family_rows(fam, repeats):
    """(name, ms) rows of the family-side table for one family file."""
    def derive():
        family = load_family(fam)[0]
        assert family.validation.passed
        family.sup_derived
        family.inf_walk_to_one()
        family.inf_walk_from_one()

    family = load_family(fam)[0]
    member = family.members[0]
    a_sup = encode(family.a_sup._num, family.a_sup._fin)
    a_sup[0, 0] = MASKED

    def structure():
        is_irreducible(member)
        strongly_connected_components(member._fin)

    def inf_vectors():
        family.__dict__.pop("_inf_vectors", None)
        family.inf_walk_to_one()

    return [
        ("load and derive", best_time(derive, repeats)),
        ("closure", best_time(lambda: closure(a_sup), repeats)),
        ("graph structure", best_time(structure, repeats)),
        ("inf vectors", best_time(inf_vectors, repeats)),
        ("lambda star", best_time(lambda: lambda_star(family.a_sup), repeats)),
    ]


def distinct_family(rng, n, m):
    """A family file's contents with nearly all tokens distinct: every entry
    is -p/q, p uniform in 1..10^9 and q in 1..4 (the lcm stays 12)."""
    members = []
    for t in range(m):
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                p, q = -rng.randint(1, 10**9), rng.randint(1, 4)
                row.append(p if q == 1 else f"{p}/{q}")
            rows.append(row)
        members.append({"name": f"A{t + 1}", "rows": rows})
    return {"n": n, "members": members}


def distinct_rows(fam, repeats):
    """(name, ms) rows of the distinct-token table for one family file."""
    family = load_family(fam)[0]
    member = family.members[0]
    contents = family_to_dict(family)
    return [
        ("load_family", best_time(lambda: load_family(fam), repeats)),
        ("matrix_tokens", best_time(lambda: matrix_tokens(member), repeats)),
        ("family_to_dict", best_time(lambda: family_to_dict(family), repeats)),
        ("render_json", best_time(lambda: render_json(contents), repeats)),
    ]


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="5,16,40,64", help="matrix sizes, comma separated")
    parser.add_argument("--length", type=int, default=200, help="sequence length")
    parser.add_argument("--members", type=int, default=3, help="family size")
    parser.add_argument("--repeats", type=int, default=7, help="timing repeats (best wins)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rng = np.random.default_rng(args.seed)

    header = f"{'kernel':<18}{'n':>5}{'k':>6}{'starts':>8}{ACTIVE.name + ' (ms)':>14}"
    print(header)
    print("-" * len(header))

    for n in sizes:
        num, fin, seq = random_inputs(rng, args.members, n, args.length)
        every = np.arange(n)
        other = 1 % args.members
        cases = [
            ("matmul", lambda: ACTIVE.matmul(num[0], fin[0], num[other], fin[other]), 1, 1),
            ("fold", lambda: ACTIVE.fold(num, fin, seq), args.length, 1),
            ("initial_to_anchor", lambda: ACTIVE.initial_to_anchor(num, fin, seq),
             args.length, n),
            ("final_from_anchor", lambda: ACTIVE.final_from_anchor(num, fin, seq),
             args.length, n),
        ]
        for name in ("forward_full", "forward_avoid", "backward_avoid"):
            sweep = getattr(ACTIVE, name)
            cases.append((name, lambda sweep=sweep: sweep(num, fin, seq, every), args.length, n))
        # The lemma checks' avoiding sweep, the through sweep, and the
        # through table given the arrivals and departures the avoiding
        # sweep returns (not timed with them).
        mem = encode(num, fin)
        into = avoiding_sweep(mem, seq)[0]
        departures = avoiding_sweep(*_mirror(mem, seq))[0]
        cases += [
            ("avoiding_sweep", lambda: avoiding_sweep(mem, seq), args.length, n),
            ("through_anchor", lambda: ACTIVE.through_anchor(num, fin, seq, every),
             args.length, n),
            ("through_table", lambda: _through_table(into, departures), args.length, n),
        ]
        if n <= STACK_MAX_SIZE:
            plan = level_plan(mem)
            level = as_level(mem)
            for _ in range(LEVEL_LENGTH - 1):
                level = level_step(level, plan)
            cases.append((f"extend x{level.shape[-1]}", lambda: level_step(level, plan),
                          LEVEL_LENGTH + 1, 1))
        for name, call, k, starts in cases:
            t = best_time(call, args.repeats)
            print(f"{name:<18}{n:>5}{k:>6}{starts:>8}{t * 1e3:>14.3f}")

    header = f"{'planned step':<18}{'n':>5}{'D':>6}{'':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(args.seed)
    for n in STEP_SIZES:
        for name, depth, t in step_rows(rng, n, args.members, args.repeats):
            print(f"{name:<18}{n:>5}{depth:>6}{'':>8}{t * 1e3:>14.3f}")

    header = f"{'single fold':<18}{'n':>5}{'k':>6}{'onset':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    # A generator of its own keeps these inputs independent of --sizes.
    rng = np.random.default_rng(args.seed)
    for n in ONSET_SIZES:
        seq = rng.integers(0, args.members, size=ONSET_LENGTH).astype(np.int64)
        for name, make in (("rank-one onset", onset_inputs), ("never rank-one", permutation_inputs)):
            num, fin = make(rng, args.members, n)
            onset = onset_layer(num, fin, seq)
            t = best_time(lambda: ACTIVE.fold(num, fin, seq), args.repeats)
            print(f"{name:<18}{n:>5}{ONSET_LENGTH:>6}{str(onset):>8}{t * 1e3:>14.3f}")

    header = (f"{'scan':<18}{'n':>5}{'k':>6}{'formed':>8}{'width':>7}"
              f"{ACTIVE.name + ' (ms)':>14}")
    print()
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(args.seed)
    scans = []
    for n in SCAN_SIZES:
        for k in SCAN_LENGTHS:
            draws = rng.integers(1, args.members + 1, size=(STACK_ROWS, k)).astype(np.int32)
            for name, make in (("onset", onset_inputs), ("never", permutation_inputs)):
                num, fin = make(rng, args.members, n)
                # The width a scan of length k picks for these members.
                mem = encode(num, fin, _kernels.width(int(np.abs(num[fin]).max(initial=0)) * k))
                scans.append((f"tree x{STACK_ROWS} {name}", n, k,
                              lambda mem=mem, draws=draws: prefix_tree(mem, draws)))
    path = resources.files("tropical_transient").joinpath("fixtures/five_node_family.json")
    family = load_family(str(path))[0]
    for label, fam in ((f"sampled x{SAMPLED_DRAWS}", family),
                       (f"unpruned x{SAMPLED_DRAWS}", pivot_removed(family))):
        scans.append((label, fam.size, SAMPLED_HORIZON,
                      lambda fam=fam: estimate_transient(fam, SAMPLED_HORIZON,
                                                         samples_per_length=SAMPLED_DRAWS)))
    for horizon in SCAN_HORIZONS:
        scans.append(("exhaustive", family.size, horizon,
                      lambda horizon=horizon: estimate_transient(family, horizon, "exhaustive")))
    # The fixed cost of one scan op: a fresh load and a horizon-1 scan.
    scans += [
        ("load+sampled x1", family.size, 1,
         lambda: estimate_transient(load_family(str(path))[0], 1, samples_per_length=1)),
        ("load+exhaustive", family.size, 1,
         lambda: estimate_transient(load_family(str(path))[0], 1, "exhaustive")),
    ]
    n, horizon = SYNTHETIC_SCAN
    with tempfile.TemporaryDirectory() as workdir:
        synthetic = load_family(str(synthetic_files(workdir, n)[0]))[0]
    scans.append(("exhaustive", n, horizon, lambda fam=synthetic, horizon=horizon:
                  estimate_transient(fam, horizon, "exhaustive")))
    with tempfile.TemporaryDirectory() as workdir:
        for n in sizes:
            synthetic = load_family(str(synthetic_files(workdir, n)[0]))[0]
            scans.append(("synthetic", n, SAMPLED_HORIZON, lambda fam=synthetic: estimate_transient(
                fam, SAMPLED_HORIZON, samples_per_length=SAMPLED_DRAWS)))
    for label, n, k, call in scans:
        count, widths = formed(call)
        t = best_time(call, args.repeats)
        print(f"{label:<18}{n:>5}{k:>6}{count:>8}{'/'.join(sorted(widths)):>7}{t * 1e3:>14.3f}")

    header = f"{'io and lemmas':<18}{'n':>5}{'k':>6}{'':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as workdir:
        for n in IO_SIZES:
            fam, seq = synthetic_files(workdir, n)
            for name, k, t in io_rows(n, fam, seq, args.repeats):
                print(f"{name:<18}{n:>5}{k:>6}{'':>8}{t * 1e3:>14.3f}")

    header = f"{'family side':<18}{'n':>5}{'':>6}{'':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    with tempfile.TemporaryDirectory() as workdir:
        for n in FAMILY_SIZES:
            fam, _ = synthetic_files(workdir, n)
            for name, t in family_rows(fam, args.repeats):
                print(f"{name:<18}{n:>5}{'':>6}{'':>8}{t * 1e3:>14.3f}")

    header = f"{'distinct tokens':<18}{'n':>5}{'m':>6}{'':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        for m in DISTINCT_MEMBERS:
            for n in DISTINCT_SIZES:
                fam = Path(workdir) / f"distinct_n{n}_m{m}.json"
                fam.write_text(json.dumps(distinct_family(rng, n, m)), encoding="utf-8")
                for name, t in distinct_rows(fam, args.repeats):
                    print(f"{name:<18}{n:>5}{m:>6}{'':>8}{t * 1e3:>14.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
