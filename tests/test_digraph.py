import random
from fractions import Fraction

import numpy as np
import pytest

import oracles
from tropical_transient.digraph import (
    CycleMeanResult,
    _karp_component,
    avoiding_walk_weights,
    best_paths_from_one,
    best_paths_to_one,
    geometrically_equivalent,
    is_irreducible,
    lambda_star,
    max_cycle_mean,
    strongly_connected_components,
    validation_witness,
)
from tropical_transient.errors import AssumptionError, DimensionError
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.semiring import EPSILON, Epsilon


def random_grid(rng, n, density=0.5, fractional=False):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if rng.random() < density:
                if fractional:
                    row.append(Fraction(rng.randint(-12, 12), rng.randint(1, 4)))
                else:
                    row.append(Fraction(rng.randint(-9, 9)))
            else:
                row.append(None)
        rows.append(row)
    return rows


def canonical(cycle):
    """Rotate a cycle tuple to start at its smallest node."""
    k = cycle.index(min(cycle))
    return cycle[k:] + cycle[:k]


class TestSupport:
    def test_geometric_equivalence(self):
        a = TropicalMatrix.from_rows([[0, None], [1, 2]])
        b = TropicalMatrix.from_rows([[-9, None], ["1/2", 0]])
        c = TropicalMatrix.from_rows([[-9, 0], ["1/2", 0]])
        assert geometrically_equivalent(a, b)
        assert not geometrically_equivalent(a, c)
        with pytest.raises(DimensionError):
            geometrically_equivalent(a, TropicalMatrix.eps(3, 3))


class TestConnectivity:
    def test_irreducible_cases(self):
        cycle = TropicalMatrix.from_rows([[None, 0], [0, None]])
        assert is_irreducible(cycle)
        lower = TropicalMatrix.from_rows([[0, None], [0, 0]])
        assert not is_irreducible(lower)
        assert is_irreducible(TropicalMatrix.from_rows([[None]]))

    def test_scc_matches_reachability_oracle(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 6)
            g = random_grid(rng, n, density=0.35)
            fin = np.array([[x is not None for x in row] for row in g], dtype=bool)
            comps = strongly_connected_components(fin)
            # partition property
            flat = sorted(v for comp in comps for v in comp)
            assert flat == list(range(n))
            # each component sorted, components ordered by smallest node
            assert all(comp == sorted(comp) for comp in comps)
            assert [comp[0] for comp in comps] == sorted(comp[0] for comp in comps)
            # mutual reachability oracle
            reach = [[i == j for j in range(n)] for i in range(n)]
            for i in range(n):
                stack = [i]
                while stack:
                    u = stack.pop()
                    for v2 in range(n):
                        if fin[u, v2] and not reach[i][v2]:
                            reach[i][v2] = True
                            stack.append(v2)
            label = {}
            for ci, comp in enumerate(comps):
                for v in comp:
                    label[v] = ci
            for i in range(n):
                for j in range(n):
                    same = reach[i][j] and reach[j][i]
                    assert same == (label[i] == label[j])

    def test_irreducible_matches_scc(self):
        rng = random.Random(6)
        for _ in range(40):
            n = rng.randint(1, 5)
            g = random_grid(rng, n, density=0.4)
            m = TropicalMatrix.from_rows(g)
            comps = strongly_connected_components(m._fin)
            assert is_irreducible(m) == (len(comps) == 1)


class TestCycleMean:
    def test_acyclic(self):
        m = TropicalMatrix.from_rows([[None, 3], [None, None]])
        res = max_cycle_mean(m)
        assert isinstance(res.mean, Epsilon)
        assert res.witness is None

    def test_self_loop(self):
        m = TropicalMatrix.from_rows([[Fraction(-7, 2)]])
        res = max_cycle_mean(m)
        assert res.mean == Fraction(-7, 2)
        assert res.witness == (1,)

    def test_matches_enumeration(self):
        rng = random.Random(7)
        seen_cyclic = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            g = random_grid(rng, n, density=0.45, fractional=rng.random() < 0.4)
            m = TropicalMatrix.from_rows(g)
            res = max_cycle_mean(m)
            want, attaining = oracles.max_cycle_mean(oracles.grid(m))
            if want is None:
                assert isinstance(res.mean, Epsilon) and res.witness is None
                continue
            seen_cyclic += 1
            assert res.mean == want
            # witness is a real cycle attaining the mean (1-based labels)
            cyc = tuple(v - 1 for v in res.witness)
            total = Fraction(0)
            for t, u in enumerate(cyc):
                v2 = cyc[(t + 1) % len(cyc)]
                w = g[u][v2]
                assert w is not None
                total += w
            assert Fraction(total, len(cyc)) == want
            assert canonical(cyc) in attaining
        assert seen_cyclic > 60

    def test_karp_handles_mixed_denominators(self):
        m = TropicalMatrix.from_rows([
            [None, Fraction(1, 3), None],
            [None, None, Fraction(-1, 2)],
            [Fraction(-1, 6), None, None],
        ])
        res = max_cycle_mean(m)
        assert res.mean == Fraction(-1, 9)
        assert res.witness == (1, 2, 3)


def block_grid(rng, n):
    """A digraph of several strongly connected blocks, some of them single
    nodes without a loop, joined by edges that only run forward between
    blocks; weights have mixed denominators, node labels are shuffled."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.randint(1, 3), n - sum(sizes)))
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    label = list(range(n))
    rng.shuffle(label)
    rows = [[None] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            same = block[u] == block[v]
            if (same and rng.random() < 0.6) or (block[u] < block[v] and rng.random() < 0.3):
                if same and sizes[block[u]] == 1 and rng.random() < 0.5:
                    continue  # an edgeless single-node component
                rows[label[u]][label[v]] = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 5, 7)))
    return rows


def assert_witness_attains(g, witness, mean):
    cyc = tuple(v - 1 for v in witness)
    total = Fraction(0)
    for t, u in enumerate(cyc):
        w = g[u][cyc[(t + 1) % len(cyc)]]
        assert w is not None
        total += w
    assert Fraction(total, len(cyc)) == mean


class TestKarpComponents:
    def test_several_components_match_enumeration(self):
        rng = random.Random(17)
        multi = 0
        for _ in range(150):
            n = rng.randint(1, 7)
            g = block_grid(rng, n)
            m = TropicalMatrix.from_rows(g)
            multi += len(strongly_connected_components(m._fin)) > 1
            res = max_cycle_mean(m)
            want, attaining = oracles.max_cycle_mean(g)
            if want is None:
                assert isinstance(res.mean, Epsilon) and res.witness is None
                continue
            assert res.mean == want
            assert_witness_attains(g, res.witness, want)
            assert canonical(tuple(v - 1 for v in res.witness)) in attaining
        assert multi > 100

    def test_tournament_matches_the_loop_over_k(self):
        # Karp's min over k and max over v run as tournaments of
        # cross-multiplied comparisons; the loop over k with Fraction
        # quotients gives the same mean on every strongly connected
        # component of 3,000 seeded random digraphs with n <= 11.
        rng = np.random.default_rng(29)
        seen = with_mean = large = 0
        while seen < 3000:
            n = int(rng.integers(1, 12))
            fin = rng.random((n, n)) < rng.uniform(0.05, 0.6)
            num = np.where(fin, rng.integers(-40, 41, (n, n)), 0).astype(np.int64)
            den = int(rng.integers(1, 7))
            for comp in strongly_connected_components(fin):
                got = _karp_component(num, fin, den, comp)
                assert got == oracles.karp_loop_component(num, fin, den, comp)
                seen += 1
                with_mean += got is not None
                large += len(comp) >= 4
        assert with_mean > 1000 and large > 400

    @pytest.mark.parametrize("n", [20, 40])
    def test_lambda_star_against_policy_iteration(self, n):
        # Hamiltonian cycle through node 1 plus 0.1 n^2 extra edges, the
        # (1,1) loop at 0 and every other weight -p/q.
        rng = random.Random(n)
        rows = [[None] * n for _ in range(n)]
        edges = {(i, (i + 1) % n) for i in range(n)}
        while len(edges) < n + n * n // 10:
            edges.add((rng.randrange(n), rng.randrange(n)))
        for i, j in edges:
            rows[i][j] = Fraction(-rng.randint(1, 12), rng.randint(1, 3))
        rows[0][0] = Fraction(0)
        m = TropicalMatrix.from_rows(rows)
        res = lambda_star(m)
        want, cycle = oracles.howard_max_cycle_mean(rows, forbidden={0})
        assert res.mean == want
        assert_witness_attains(rows, res.witness, want)
        assert 1 not in res.witness
        assert_witness_attains(rows, tuple(v + 1 for v in cycle), want)


class TestGuards:
    """Each derivation checks the largest integer it can form against the
    guard: the largest admissible input gives the exact answer, one more
    unit raises OverflowError."""

    GUARD = 1 << 61

    @pytest.mark.parametrize("n", [2, 3])
    def test_closure_boundary(self, n):
        # Largest magnitude formed: 2 n times the largest entry.
        big = (self.GUARD - 1) // (2 * n)
        for weight, ok in ((big, True), (big + 1, False)):
            rows = [[-weight] * n for _ in range(n)]
            rows[0][0] = 0
            m = TropicalMatrix.from_rows(rows)
            if not ok:
                for derive in (best_paths_to_one, best_paths_from_one, avoiding_walk_weights):
                    with pytest.raises(OverflowError):
                        derive(m)
                continue
            g = oracles.grid(m)
            alpha, beta, gamma = best_paths_to_one(m), best_paths_from_one(m), avoiding_walk_weights(m)
            for i in range(1, n):
                assert alpha.entry(i, 0) == oracles.best_simple_path(g, i, 0)
                assert beta.entry(i, 0) == oracles.best_simple_path(g, 0, i)
                assert gamma.entry(i, i) == -weight
                for j in range(1, n):
                    if i != j:
                        assert gamma.entry(i, j) == oracles.best_simple_path(g, i, j, forbidden={0})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_karp_boundary(self, n):
        # A cycle through every node; Karp's quotients reach
        # (2n - 1) n times the largest entry, which is guard - 1 at n = 1.
        big = (self.GUARD - 1) // ((2 * n - 1) * n)
        for weight, ok in ((big, True), (big + 1, False)):
            rows = [[None] * n for _ in range(n)]
            for i in range(n):
                rows[i][(i + 1) % n] = -weight
            m = TropicalMatrix.from_rows(rows)
            if ok:
                assert max_cycle_mean(m) == CycleMeanResult(Fraction(-weight), tuple(range(1, n + 1)))
            else:
                with pytest.raises(OverflowError):
                    max_cycle_mean(m)

    def test_critical_cycle_boundary(self):
        # The loop at node 1 (mean -1) is the only cycle, so Karp sees no
        # large entry, and the potentials cover only its component: the
        # edge a_12 leaving it does not count, however large.
        big = (self.GUARD - 1) // 2 + 1
        for weight in (big, big + 1):
            m = TropicalMatrix.from_rows([[-1, -weight], [None, None]])
            assert max_cycle_mean(m) == CycleMeanResult(Fraction(-1), (1,))

    def test_critical_cycle_boundary_inside_the_component(self):
        # Critical cycle 1 -> 2 -> 1 of mean big - 1/2, so the potentials
        # run on the grid 1/2, where the loop at node 2 becomes
        # 2 (-big) - (2 big - 1).  Over the two critical nodes they reach
        # 2 (4 big - 1), which binds before Karp's 6 big; node 3, outside
        # the critical component, does not count.
        big = (self.GUARD + 1) // 8
        for weight, ok in ((big, True), (big + 1, False)):
            rows = [[None, weight, None], [weight - 1, -weight, 0], [None, None, None]]
            m = TropicalMatrix.from_rows(rows)
            if ok:
                want, attaining = oracles.max_cycle_mean(oracles.grid(m))
                assert attaining == [(0, 1)]
                assert max_cycle_mean(m) == CycleMeanResult(want, (1, 2))
            else:
                with pytest.raises(OverflowError, match="critical cycle"):
                    max_cycle_mean(m)


class TestLambdaStar:
    @staticmethod
    def cut_vertex_grid(rng, n):
        # Two blocks that share only node 1: every cycle avoiding node 1
        # lies inside one block.
        split = rng.randint(1, n - 1)
        blocks = (range(0, split + 1), [0, *range(split + 1, n)])
        rows = [[None] * n for _ in range(n)]
        for block in blocks:
            for i in block:
                for j in block:
                    if rng.random() < 0.6:
                        rows[i][j] = Fraction(rng.randint(-9, 9))
        return rows

    @staticmethod
    def through_one_grid(rng, n):
        # Nodes 2..n carry only forward edges, so every cycle uses node 1.
        rows = random_grid(rng, n, density=0.6)
        for i in range(1, n):
            for j in range(1, i + 1):
                rows[i][j] = None
        return rows

    @staticmethod
    def isolated_one_grid(rng, n):
        rows = random_grid(rng, n, density=0.5)
        for i in range(n):
            rows[0][i] = rows[i][0] = None
        return rows

    def test_excludes_node_one(self):
        rng = random.Random(8)
        cases = []
        for _ in range(80):
            n = rng.randint(2, 8)
            cases.append(random_grid(rng, n, density=rng.choice((0.3, 0.5))))
            cases.append(self.cut_vertex_grid(rng, n))
            cases.append(self.isolated_one_grid(rng, n))
        through = [self.through_one_grid(rng, rng.randint(2, 8)) for _ in range(40)]
        defined = 0
        for g in cases + through:
            m = TropicalMatrix.from_rows(g)
            res = lambda_star(m)
            want, attaining = oracles.max_cycle_mean(oracles.grid(m), forbidden={0})
            if want is None:
                assert res == CycleMeanResult(EPSILON, None)
            else:
                defined += 1
                assert res.mean == want
                cyc0 = tuple(v - 1 for v in res.witness)
                assert 0 not in cyc0
                assert canonical(cyc0) in attaining
        for g in through:
            assert lambda_star(TropicalMatrix.from_rows(g)) == CycleMeanResult(EPSILON, None)
        assert defined >= len(cases) // 2

    def test_single_node(self):
        assert lambda_star(TropicalMatrix.from_rows([[0]])) == CycleMeanResult(
            EPSILON, None
        )


class TestOneAnchoredPaths:
    def _valid_sup(self, rng, n):
        # cycle through node 0 plus strictly negative extras: lambda* < 0
        rows = [[None] * n for _ in range(n)]
        rows[0][0] = Fraction(0)
        for i in range(n):
            rows[i][(i + 1) % n] = Fraction(rng.randint(-6, 0))
        for _ in range(rng.randint(0, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            if rows[i][j] is None:
                rows[i][j] = Fraction(rng.randint(-6, -1))
        return TropicalMatrix.from_rows(rows)

    def test_against_simple_path_oracle(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = self._valid_sup(rng, n)
            g = oracles.grid(m)
            alpha = best_paths_to_one(m)
            beta = best_paths_from_one(m)
            assert alpha.entry(0, 0) == 0 and beta.entry(0, 0) == 0
            for i in range(1, n):
                want = oracles.best_simple_path(g, i, 0)
                got = alpha.entry(i, 0)
                assert (want is None) == isinstance(got, Epsilon)
                if want is not None:
                    assert got == want
                want = oracles.best_simple_path(g, 0, i)
                got = beta.entry(i, 0)
                assert (want is None) == isinstance(got, Epsilon)
                if want is not None:
                    assert got == want

    def test_avoiding_weights_against_oracle(self):
        rng = random.Random(10)
        for _ in range(60):
            n = rng.randint(2, 5)
            m = self._valid_sup(rng, n)
            g = oracles.grid(m)
            gamma = avoiding_walk_weights(m)
            for j in range(n):
                assert isinstance(gamma.entry(0, j), Epsilon)
                assert isinstance(gamma.entry(j, 0), Epsilon)
            for i in range(1, n):
                for j in range(1, n):
                    if i == j:
                        cycles = [
                            w for nodes, w in oracles.simple_cycles(g, forbidden={0})
                            if i in nodes
                        ]
                        want = max(cycles) if cycles else None
                    else:
                        want = oracles.best_simple_path(g, i, j, forbidden={0})
                    got = gamma.entry(i, j)
                    assert (want is None) == isinstance(got, Epsilon)
                    if want is not None:
                        assert got == want

    def test_refuses_nonnegative_side_cycles(self):
        m = TropicalMatrix.from_rows([[0, -1], [-1, 0]])
        with pytest.raises(AssumptionError):
            best_paths_to_one(m)
        with pytest.raises(AssumptionError):
            avoiding_walk_weights(m)

    def test_single_node_conventions(self):
        one = TropicalMatrix.from_rows([[0]])
        assert best_paths_to_one(one).to_rows() == [[Fraction(0)]]
        assert best_paths_from_one(one).to_rows() == [[Fraction(0)]]
        assert isinstance(avoiding_walk_weights(one).entry(0, 0), Epsilon)


def test_validation_witness_shape():
    w = validation_witness("support_mismatch", edge=(1, 2), matrix="member 2")
    assert dict(w) == {"kind": "support_mismatch", "edge": (1, 2), "matrix": "member 2"}
