"""Timing of the max-plus kernels.

Runs the hot kernels (matrix product, sequence fold and the trellis
sweeps, the start-indexed ones with every node as a start) on random
scaled-integer inputs and prints the best wall time per call.  At sizes
up to 16 it also times the transient scan's stacked kernels: one fold of
100 sequences of length 20, and one exhaustive level step from the m^4
products of length 4 to the m^5 of length 5.

A second table times the single fold at k = 200 and n = 20, 40, 80 on
two sequences: one over admissible-style members, whose prefix turns
rank-one early so the fold finishes as a vector sweep, and one over
weighted permutation matrices, which never turn rank-one, so the fold
pays for every rank-one probe on top of every matrix product.

A third table times the transient scan's own work: one stacked fold of
100 sequences of length 20 and 40 at n = 5 and 16, over the same two kinds
of members (the onset column counts the rows that leave the matrix fold
for a vector sweep), and the exhaustive scan of the bundled five-node
family up to horizons 8 and 12, whose levels extend only their failing
products.

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --sizes 5,16,64 --length 500
"""

import argparse
import time
from importlib import resources

import numpy as np

from tropical_transient._kernels import (ACTIVE, FLOOR, PROBE_STRIDE, _product, encode, extend,
                                          rank_one)
from tropical_transient.io import load_family
from tropical_transient.products import estimate_transient

STACK_ROWS = 100
STACK_LENGTH = 20
STACK_MAX_SIZE = 16
LEVEL_LENGTH = 4
ONSET_SIZES = (20, 40, 80)
ONSET_LENGTH = 200
SCAN_SIZES = (5, 16)
SCAN_LENGTHS = (20, 40)
SCAN_HORIZONS = (8, 12)


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
    cur = mem[seq[0]]
    for l in range(1, len(seq)):
        if l % PROBE_STRIDE == 0 and rank_one(cur, cur > FLOOR):
            return l
        cur = _product(cur, mem[seq[l]])
    return None


def best_time(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="5,16,64", help="matrix sizes, comma separated")
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
        for name in ("forward_full", "forward_avoid", "backward_avoid", "through_anchor"):
            sweep = getattr(ACTIVE, name)
            cases.append((name, lambda sweep=sweep: sweep(num, fin, seq, every), args.length, n))
        if n <= STACK_MAX_SIZE:
            stack = rng.integers(0, args.members, size=(STACK_ROWS, STACK_LENGTH))
            mem = encode(num, fin)
            level = mem
            for _ in range(LEVEL_LENGTH - 1):
                level = extend(level, mem)
            cases += [
                (f"fold x{STACK_ROWS}", lambda: ACTIVE.fold(num, fin, stack), STACK_LENGTH, 1),
                (f"extend x{len(level)}", lambda: extend(level, mem), LEVEL_LENGTH + 1, 1),
            ]
        for name, call, k, starts in cases:
            t = best_time(call, args.repeats)
            print(f"{name:<18}{n:>5}{k:>6}{starts:>8}{t * 1e3:>14.3f}")

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

    header = f"{'scan':<18}{'n':>5}{'k':>6}{'onset':>8}{ACTIVE.name + ' (ms)':>14}"
    print()
    print(header)
    print("-" * len(header))
    rng = np.random.default_rng(args.seed)
    for n in SCAN_SIZES:
        for k in SCAN_LENGTHS:
            stack = rng.integers(0, args.members, size=(STACK_ROWS, k)).astype(np.int64)
            for name, make in (("onset", onset_inputs), ("never", permutation_inputs)):
                num, fin = make(rng, args.members, n)
                onsets = sum(onset_layer(num, fin, seq) is not None for seq in stack)
                t = best_time(lambda: ACTIVE.fold(num, fin, stack), args.repeats)
                label = f"fold x{STACK_ROWS} {name}"
                print(f"{label:<18}{n:>5}{k:>6}{onsets:>8}{t * 1e3:>14.3f}")
    path = resources.files("tropical_transient").joinpath("fixtures/five_node_family.json")
    family = load_family(str(path))[0]
    for horizon in SCAN_HORIZONS:
        t = best_time(lambda: estimate_transient(family, horizon, "exhaustive"), args.repeats)
        print(f"{'exhaustive':<18}{family.size:>5}{horizon:>6}{'':>8}{t * 1e3:>14.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
