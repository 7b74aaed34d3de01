import random
from fractions import Fraction
from importlib import resources

import pytest

from tropical_transient import _kernels
from tropical_transient.family import MatrixFamily
from tropical_transient.io import load_expected, load_family, load_sequence
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import fold
from tropical_transient.trellis import (
    best_avoiding_full_weight,
    best_through_one_weight,
    build_trellis,
    final_weights_all,
    initial_weights_all,
    optimal_full_walk,
)


def fixture_path(name: str) -> str:
    return str(resources.files("tropical_transient").joinpath(f"fixtures/{name}"))


@pytest.fixture(scope="session")
def family5_loaded():
    return load_family(fixture_path("five_node_family.json"))


@pytest.fixture
def family5(family5_loaded) -> MatrixFamily:
    return family5_loaded[0]


@pytest.fixture
def names5(family5_loaded):
    return family5_loaded[1]


@pytest.fixture(scope="session")
def seq44():
    return load_sequence(fixture_path("product_len44.json"))


@pytest.fixture(scope="session")
def expected5():
    return load_expected(fixture_path("expected_five_node.json"))


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run every kernel once, so first-call costs stay out of timed tests."""
    rows = [
        [Fraction(0), Fraction(-1)],
        [Fraction(-1), Fraction(-2)],
    ]
    family = MatrixFamily([TropicalMatrix.from_rows(rows)] * 2)
    assert family.validate().passed
    seq = [1, 2, 1]
    fold(family, seq)
    trellis = build_trellis(family, seq)
    optimal_full_walk(trellis, 1, 2)
    initial_weights_all(trellis)
    final_weights_all(trellis)
    best_avoiding_full_weight(trellis, 2, 2)
    best_through_one_weight(trellis, 2, 2)
    family.boundaries()


def random_valid_family(rng: random.Random, n: int | None = None,
                        m: int | None = None) -> MatrixFamily:
    """A random admissible family: cycle backbone through node 1 plus a few
    strictly negative extra edges, integer weights in [-6, 0].

    Every cycle avoiding node 1 must use an extra edge, so side-cycle means
    are automatically strictly negative and validation passes by
    construction (still asserted, cheaply).
    """
    if n is None:
        n = rng.randint(2, 4)
    if m is None:
        m = rng.randint(1, 3)
    backbone = {(0, 0)} | {(i, (i + 1) % n) for i in range(n)}
    extras = set()
    for _ in range(rng.randint(0, 3)):
        edge = (rng.randrange(n), rng.randrange(n))
        if edge not in backbone:
            extras.add(edge)

    def member() -> TropicalMatrix:
        rows = [[None] * n for _ in range(n)]
        for i, j in backbone:
            rows[i][j] = Fraction(0 if (i, j) == (0, 0) else rng.randint(-6, 0))
        # every non-loop cycle must be strictly negative, including the
        # backbone cycle through node 1: make its re-entry edge negative
        # (for n = 1 that edge is the loop at node 1 itself, which stays 0)
        if n > 1:
            rows[n - 1][0] = Fraction(rng.randint(-6, -1))
        for i, j in extras:
            rows[i][j] = Fraction(rng.randint(-6, -1))
        return TropicalMatrix.from_rows(rows)

    family = MatrixFamily([member() for _ in range(m)])
    assert family.validate().passed
    return family


def late_arrival_family(rng: random.Random, n: int) -> MatrixFamily:
    """An admissible family of two members on one dense support whose walks
    arrive at node 1 late: every node has a loop of weight -1, its edge
    into node 1 weighs -20 in member 1 and -1 in member 2, and every other
    edge weighs -30..-25, the same in both members for edges out of node 1.

    Over member 1 alone, every start arrives at node 1 best at layer 1, so
    the walks through node 1 soon form a rank-one state.  A later member 2
    at layer l lets each start loop until l - 1 and arrive with weight -l,
    above the -20 of its first arrival: the state stops being rank-one.
    """
    top = [0] + [rng.randint(-30, -25) for _ in range(n - 1)]
    rest = [[-1 if i == j else rng.randint(-30, -25) for j in range(n)] for i in range(1, n)]

    def member(into_one: int) -> TropicalMatrix:
        return TropicalMatrix.from_rows([top] + [[into_one] + row[1:] for row in rest])

    family = MatrixFamily([member(-20), member(-1)])
    assert family.validate().passed
    return family


@pytest.fixture
def make_family():
    return random_valid_family


class BranchSpy:
    """Counts the absorptions of ``_kernels._absorbing_sweep``.

    Within one call, every layer pushes either the matrix state (a 2-d
    array) or, once the state is absorbed as x (x) y^T, the vector y (1-d)
    through ``_product``.  A matrix step followed by a vector step is an
    absorption.  Calls without a tap are folds: ``folds`` holds the
    absorption count of each.  Calls with one are the lemma checks'
    avoiding sweeps: ``sweeps`` and ``absorbs`` count them and their
    absorptions.
    """

    def __init__(self, monkeypatch):
        self.absorbs = self.sweeps = 0
        self.folds = []
        self._steps = None
        product = _kernels._product

        def spied_product(x, a, out=None):
            if self._steps is not None:
                self._steps.append(str(x.ndim))
            return product(x, a, out)

        sweep = _kernels._absorbing_sweep

        def spied_sweep(layers, seq, tap=None):
            self._steps = []
            try:
                return sweep(layers, seq, tap)
            finally:
                absorbs = "".join(self._steps).count("21")
                self._steps = None
                if tap is None:
                    self.folds.append(absorbs)
                else:
                    self.sweeps += 1
                    self.absorbs += absorbs

        monkeypatch.setattr(_kernels, "_product", spied_product)
        monkeypatch.setattr(_kernels, "_absorbing_sweep", spied_sweep)


@pytest.fixture
def branch_spy(monkeypatch):
    return BranchSpy(monkeypatch)
