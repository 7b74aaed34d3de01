"""Seeded inputs for the benchmark workloads.

Synthetic families are admissible by construction: m members on a shared
support that contains a Hamiltonian cycle 1 -> 2 -> ... -> n -> 1 (so the
digraph is strongly connected) plus 0.1 n^2 seeded extra edges, a weight-0
loop at node 1, and every other weight a strictly negative rational with
denominator 1, 2 or 3 (so every other cycle has negative mean).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

MEMBERS = 3
EXTRA_EDGE_SHARE = 0.1
WEIGHT_NUMERATORS = range(1, 13)
WEIGHT_DENOMINATORS = (1, 2, 3)


def token(w: Fraction):
    return w.numerator if w.denominator == 1 else f"{w.numerator}/{w.denominator}"


def synthetic_family(rng: random.Random, n: int, m: int = MEMBERS) -> dict:
    """A family file's contents (see the module docstring)."""
    support = {(0, 0)} | {(i, (i + 1) % n) for i in range(n)}
    # A fixed number of extra edges keeps the work per op the same on every seed.
    spare = [(i, j) for i in range(n) for j in range(n) if (i, j) not in support]
    support |= set(rng.sample(spare, round(EXTRA_EDGE_SHARE * n * n)))
    members = []
    for t in range(m):
        rows = [["-inf"] * n for _ in range(n)]
        for i, j in sorted(support):
            if (i, j) == (0, 0):
                rows[i][j] = 0
            else:
                num = rng.choice(WEIGHT_NUMERATORS)
                rows[i][j] = token(-Fraction(num, rng.choice(WEIGHT_DENOMINATORS)))
        members.append({"name": f"A{t + 1}", "rows": rows})
    return {"n": n, "members": members}


def synthetic_sequence(rng: random.Random, length: int, m: int = MEMBERS) -> dict:
    return {"indices": [rng.randint(1, m) for _ in range(length)]}


def write_synthetic(workdir: Path, seed: int, n: int, length: int) -> tuple[Path, Path]:
    """Write family and sequence files for size n; returns their paths.

    Each size draws from its own generator, so the inputs of one size do
    not depend on which other sizes are generated.
    """
    rng = random.Random(f"perfbench-{seed}-n{n}")
    family = workdir / f"family_n{n}.json"
    sequence = workdir / f"sequence_n{n}_k{length}.json"
    family.write_text(json.dumps(synthetic_family(rng, n)), encoding="utf-8")
    sequence.write_text(json.dumps(synthetic_sequence(rng, length)), encoding="utf-8")
    return family, sequence
