"""In-process A/B timing of the transient scans of two source trees.

Imports two copies of the ``tropical_transient`` package, each under a
name of its own, and runs the two ops of perfbench's ``scan_fixture``
workload on each: a fresh ``load_family`` of the bundled five-node
family followed by the sampled scan (horizon 40, 100 draws per length)
or by the exhaustive scan (horizon 8).  Each round runs every op once on
each side, in turn, with ``gc.collect()`` before each call, and the side
that goes first alternates from round to round, so both sides see the
same machine load.  Both sides must find the same counterexamples.

It prints, for each op and for the whole pass (both ops), each side's
median and quartiles in milliseconds and the share of rounds each side
won (ties count for neither).  Best-of-N timings and short perfbench runs
drift by more than a small change on a shared machine; alternating calls
in one interpreter do not.

    python3 benchmarks/ab_scans.py PARENT_SRC [CHANGE_SRC] [--rounds 300] [--seed 0]

A source tree is a directory holding ``tropical_transient/`` (a
checkout's ``src``) or a checkout holding ``src/tropical_transient/``;
CHANGE_SRC defaults to this checkout's ``src``.
"""

import argparse
import gc
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FAMILY = "fixtures/five_node_family.json"
OPS = (
    ("scan_sampled", dict(horizon=40, mode="sampled", samples_per_length=100)),
    ("scan_exhaustive", dict(horizon=8, mode="exhaustive")),
)


def package_dir(tree: Path) -> Path:
    """The ``tropical_transient`` directory of a source tree or a checkout."""
    for pkg in (tree / "tropical_transient", tree / "src" / "tropical_transient"):
        if (pkg / "__init__.py").is_file():
            return pkg
    raise SystemExit(f"{tree}: no tropical_transient package here or under src/")


def load_package(pkg: Path, name: str):
    """(io, products) of the package in pkg, imported as ``name``: its
    relative imports resolve inside that copy."""
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.io"), importlib.import_module(f"{name}.products")


def scan_op(package, path: str, seed: int, kwargs: dict):
    """The op as perfbench times it: load the family, then scan it."""
    io, products = package

    def op():
        family = io.load_family(path)[0]
        if kwargs["mode"] == "sampled":
            return products.estimate_transient(family, seed=seed, **kwargs)
        return products.estimate_transient(family, **kwargs)
    return op


def timed(op):
    gc.collect()
    start = time.perf_counter()
    est = op()
    return time.perf_counter() - start, est


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT / "src",
                        help="source tree of the change (default: this checkout's src)")
    parser.add_argument("--rounds", type=int, default=300, help="alternating rounds")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sampled scan")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2")

    sides = ("parent", "change")
    pkgs = [package_dir(tree) for tree in (args.parent, args.change)]
    packages = [load_package(pkg, f"ab_{side}") for pkg, side in zip(pkgs, sides)]
    path = str(pkgs[1] / FAMILY)
    ops = [[scan_op(package, path, args.seed, kwargs) for package in packages]
           for _, kwargs in OPS]
    for pair in ops:
        # One untimed call each, which also checks the outputs agree.
        got = [list(op().counterexamples) for op in pair]
        if got[0] != got[1]:
            raise SystemExit("the two trees find different counterexamples")

    times = [[[], []] for _ in ops]
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for pair, spent in zip(ops, times):
            found = [None, None]
            for side in order:
                t, est = timed(pair[side])
                spent[side].append(t)
                found[side] = list(est.counterexamples)
            if found[0] != found[1]:
                raise SystemExit(f"round {r}: the two trees find different counterexamples")
    passes = [[sum(t) for t in zip(*(spent[side] for spent in times))] for side in (0, 1)]

    print(f"{args.rounds} alternating rounds, seed {args.seed}")
    print(f"  parent {pkgs[0]}")
    print(f"  change {pkgs[1]}")
    header = f"{'op':<16}{'side':<8}{'median':>9}{'q1':>9}{'q3':>9}{'won':>7}  (ms)"
    print(header)
    print("-" * len(header))
    rows = [(name, spent) for (name, _), spent in zip(OPS, times)] + [("pass", passes)]
    for name, spent in rows:
        wins = [sum(a < b for a, b in zip(spent[s], spent[1 - s])) for s in (0, 1)]
        for s, side in enumerate(sides):
            median, q1, q3 = (t * 1e3 for t in quartiles(spent[s]))
            share = wins[s] / args.rounds
            print(f"{name:<16}{side:<8}{median:>9.3f}{q1:>9.3f}{q3:>9.3f}{share:>7.0%}")
        change = statistics.median(spent[1]) / statistics.median(spent[0]) - 1
        print(f"{'':<16}{'change':<8}{change:>+9.1%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
