import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tropical_transient.errors import DimensionError, PivotError
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import (
    TropicalMatrix,
    node_one_closure,
    rank_one_factor,
    walk_closure,
)
from tropical_transient.products import fold
from tropical_transient.semiring import EPSILON, Epsilon

finite = st.fractions(min_value=-20, max_value=20, max_denominator=8)
cell = st.one_of(st.just(None), finite)


def square(n, max_denominator=8):
    return st.lists(
        st.lists(
            st.one_of(
                st.just(None),
                st.fractions(min_value=-20, max_value=20, max_denominator=max_denominator),
            ),
            min_size=n, max_size=n,
        ),
        min_size=n, max_size=n,
    )


def matrices(n):
    return square(n).map(TropicalMatrix.from_rows)


class TestConstruction:
    def test_from_rows_and_entry(self):
        m = TropicalMatrix.from_rows([[0, None], ["-1/2", "-inf"]])
        assert m.shape == (2, 2)
        assert m.entry(0, 0) == Fraction(0)
        assert isinstance(m.entry(0, 1), Epsilon)
        assert m.entry(1, 0) == Fraction(-1, 2)
        assert isinstance(m.entry(1, 1), Epsilon)

    def test_from_rows_rejects_ragged(self):
        with pytest.raises(DimensionError):
            TropicalMatrix.from_rows([[0, 1], [2]])

    def test_from_rows_rejects_empty(self):
        with pytest.raises(DimensionError):
            TropicalMatrix.from_rows([])

    def test_eps_and_identity(self):
        z = TropicalMatrix.eps(2, 3)
        assert all(isinstance(x, Epsilon) for row in z.to_rows() for x in row)
        e = TropicalMatrix.identity(3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    assert e.entry(i, j) == 0
                else:
                    assert isinstance(e.entry(i, j), Epsilon)

    def test_common_denominator_normalized_by_gcd(self):
        m = TropicalMatrix.from_rows([[Fraction(2, 4), Fraction(6, 4)]])
        assert m.denominator == 2
        m2 = TropicalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]])
        assert m2.denominator == 6

    def test_equality_independent_of_input_form(self):
        a = TropicalMatrix.from_rows([["1/2", None], [0, 3]])
        b = TropicalMatrix.from_rows([[Fraction(2, 4), "-inf"], [0.0, Fraction(3)]])
        assert a == b
        assert a != oracles.transpose(a)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(TropicalMatrix.identity(2))

    def test_scaled_requires_compatible_denominator(self):
        m = TropicalMatrix.from_rows([[Fraction(1, 2)]])
        num, fin = m.scaled(4)
        assert num[0, 0] == 2 and fin[0, 0]
        with pytest.raises(ValueError):
            m.scaled(3)


class TestArithmetic:
    @settings(max_examples=60, deadline=None)
    @given(square(3), square(3))
    def test_matmul_matches_oracle(self, a_rows, b_rows):
        a = TropicalMatrix.from_rows(a_rows)
        b = TropicalMatrix.from_rows(b_rows)
        got = oracles.grid(a @ b)
        want = oracles.naive_matmul(oracles.grid(a), oracles.grid(b))
        assert got == want

    def test_matmul_shape_check(self):
        with pytest.raises(DimensionError):
            TropicalMatrix.identity(2) @ TropicalMatrix.identity(3)

    def test_matmul_identity(self):
        m = TropicalMatrix.from_rows([[1, None], ["2/3", -5]])
        e = TropicalMatrix.identity(2)
        assert e @ m == m
        assert m @ e == m

    @settings(max_examples=40, deadline=None)
    @given(square(3), square(3))
    def test_oplus_emin_entrywise(self, a_rows, b_rows):
        a = TropicalMatrix.from_rows(a_rows)
        b = TropicalMatrix.from_rows(b_rows)
        ga, gb = oracles.grid(a), oracles.grid(b)
        assert oracles.grid(a.oplus(b)) == [
            [oracles.mp_max([x, y]) for x, y in zip(ra, rb)] for ra, rb in zip(ga, gb)
        ]
        # entrywise min keeps an entry only where both are finite
        assert oracles.grid(a.emin(b)) == [
            [min(x, y) if x is not None and y is not None else None
             for x, y in zip(ra, rb)]
            for ra, rb in zip(ga, gb)
        ]

    def test_magnitude_guard(self):
        big = TropicalMatrix.from_rows([[2**61, 0], [0, 2**61]])
        with pytest.raises(OverflowError):
            big @ big


class TestEditing:
    def test_with_entry(self):
        m = TropicalMatrix.identity(2).with_entry(0, 1, Fraction(1, 2))
        assert m.entry(0, 1) == Fraction(1, 2)
        assert m.entry(0, 0) == 0
        m2 = m.with_entry(0, 0, None)
        assert isinstance(m2.entry(0, 0), Epsilon)

    def test_row_and_col_blanking(self):
        m = TropicalMatrix.from_rows([[1, 2], [3, 4]])
        assert oracles.grid(m.with_row_eps(0)) == [[None, None], [3, 4]]
        assert m.with_col_eps(1).column_weights(1) == (EPSILON, EPSILON)

    def test_delete_node(self):
        m = TropicalMatrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        d = m.delete_node(1)
        assert d.to_rows() == [[Fraction(1), Fraction(3)], [Fraction(7), Fraction(9)]]


class TestRankOne:
    @settings(max_examples=60, deadline=None)
    @given(
        finite, st.lists(cell, min_size=3, max_size=3),
        finite, st.lists(cell, min_size=3, max_size=3),
    )
    def test_factor_round_trip(self, x0, xs, y0, ys):
        x = oracles.from_column([x0] + xs)
        y = oracles.from_column([y0] + ys)
        m = oracles.outer_product(x, y)
        factors = rank_one_factor(m)
        assert factors is not None
        c, r = factors
        assert oracles.outer_product(c, r) == m
        # normalization: the row factor starts at 0
        assert r.entry(0, 0) == 0

    def test_not_rank_one(self):
        m = TropicalMatrix.from_rows([[0, 0], [0, 1]])
        assert rank_one_factor(m) is None
        m2 = TropicalMatrix.from_rows([[0, None], [0, 1]])
        assert rank_one_factor(m2) is None

    def test_pivot_error(self):
        m = TropicalMatrix.from_rows([[None, 0], [0, 0]])
        with pytest.raises(PivotError):
            rank_one_factor(m)

    def test_row_factor_just_below_the_storage_limit(self):
        # y_2 = m_12 - m_11 = 2**62 - 1 is stored exactly, with pivot 0;
        # with pivot -2**61 the same y_2 is the difference of two entries
        # of opposite sign.  The outer product rebuilds m in both cases.
        top = (1 << 62) - 1
        m = TropicalMatrix.from_rows([[0, top, None], [0, top, None], [None, None, None]])
        x, y = rank_one_factor(m)
        assert oracles.column(y) == [0, top, None]
        assert oracles.outer_product(x, y) == m
        half = 1 << 61
        m = TropicalMatrix.from_rows([[-half, half - 1], [0, top]])
        x, y = rank_one_factor(m)
        assert oracles.column(x) == [-half, 0] and oracles.column(y) == [0, top]
        assert oracles.is_rank_one(oracles.grid(m))
        assert oracles.outer_product(x, y) == m

    def test_row_factor_at_the_storage_limit_raises(self):
        half = 1 << 61
        m = TropicalMatrix.from_rows([[-half, half], [-half, half]])
        assert oracles.is_rank_one(oracles.grid(m))
        with pytest.raises(OverflowError, match=f"^rank-one factor: scaled integer magnitude "
                                                f"{1 << 62} exceeds"):
            rank_one_factor(m)
        # On the denominator 2 the same difference reduces to 2**61.
        m = TropicalMatrix.from_rows([[Fraction(1 - half, 2), Fraction(1 + half, 2)]] * 2)
        x, y = rank_one_factor(m)
        assert oracles.column(y) == [0, half]

    def test_product_past_a_third_of_the_storage_limit_factors(self):
        # A (x) A has entries down to -2 w, inside the fold guard, with
        # 3 * 2 w >= 2**62; it factors exactly.
        w = int(0.7 * 2**60)
        assert 2 * w < 1 << 61 and 3 * 2 * w >= 1 << 62
        product = fold(MatrixFamily([TropicalMatrix.from_rows([[0, -w], [-w, -w]])]), [1, 1])
        g = oracles.grid(product)
        assert g == [[0, -w], [-w, -2 * w]] and oracles.is_rank_one(g)
        x, y = rank_one_factor(product)
        assert oracles.column(x) == [0, -w] and oracles.column(y) == [0, -w]
        assert oracles.outer_product(x, y) == product

    @settings(max_examples=60, deadline=None)
    @given(square(3))
    def test_agrees_with_definition_oracle(self, rows):
        m = TropicalMatrix.from_rows(rows)
        g = oracles.grid(m)
        if g[0][0] is None:
            with pytest.raises(PivotError):
                rank_one_factor(m)
        else:
            assert (rank_one_factor(m) is not None) == oracles.is_rank_one(g)


class TestWalkClosure:
    @settings(max_examples=30, deadline=None)
    @given(square(3), st.integers(min_value=1, max_value=5))
    def test_matches_power_fold(self, rows, cap):
        m = TropicalMatrix.from_rows(rows)
        got = walk_closure(m, cap)
        want = m
        acc = m
        for _ in range(cap - 1):
            acc = acc @ m
            want = want.oplus(acc)
        assert got == want

    def test_random_integer_weights(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 4)
            rows = [
                [rng.choice([None, Fraction(rng.randint(-9, 9))]) for _ in range(n)]
                for _ in range(n)
            ]
            m = TropicalMatrix.from_rows(rows)
            cap = rng.randint(1, 4)
            got = oracles.grid(walk_closure(m, cap))
            g = oracles.grid(m)
            best = None
            for k in range(1, cap + 1):
                pk = oracles.naive_power(g, k)
                best = pk if best is None else [
                    [oracles.mp_max([x, y]) for x, y in zip(ra, rb)]
                    for ra, rb in zip(best, pk)
                ]
            assert got == best


class TestNodeOneClosure:
    """The closure never pivots on node 1, so its entries range over walks
    touching node 1 only at their ends.  Oracle: the walk closure of the
    digraph with node 1 split into a sink, which keeps its in-edges, and
    a source, which keeps its out-edges."""

    @staticmethod
    def split_closure(rows):
        n = len(rows)
        # node 0 of the split digraph is the sink, node n the source
        split = [[None] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            split[n if i == 0 else i][:n] = rows[i]
        closed = oracles.grid(walk_closure(TropicalMatrix.from_rows(split), n + 1))
        return [closed[n if i == 0 else i][:n] for i in range(n)]

    def test_negative_cycles_match_split_oracle(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = [
                [rng.choice([None, Fraction(-rng.randint(1, 9), rng.randint(1, 2))])
                 for _ in range(n)]
                for _ in range(n)
            ]
            got = node_one_closure(TropicalMatrix.from_rows(rows))
            assert oracles.grid(got) == self.split_closure(rows)

    def test_none_exactly_on_a_nonnegative_cycle(self):
        rng = random.Random(22)
        seen = 0
        for _ in range(80):
            n = rng.randint(1, 4)
            rows = [
                [rng.choice([None, Fraction(rng.randint(-9, 3))]) for _ in range(n)]
                for _ in range(n)
            ]
            mean, _ = oracles.max_cycle_mean(rows)
            got = node_one_closure(TropicalMatrix.from_rows(rows))
            cyclic = mean is not None and mean >= 0
            seen += cyclic
            assert (got is None) == cyclic
            if not cyclic:
                assert oracles.grid(got) == self.split_closure(rows)
        assert seen > 10

    @staticmethod
    def near_guard_rows(rng, n, w):
        """Weights of magnitude up to w with every cycle negative.  In a hub
        case every edge into a hub weighs -w and every edge out of one just
        under w; in a DAG case every edge runs forward in a random order
        and weighs just under w, so long positive walks meet masked
        entries."""
        rows = [[None] * n for _ in range(n)]
        if rng.random() < 0.5:
            hubs = set(rng.sample(range(n), rng.randint(1, n)))
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.4:
                        continue
                    if j in hubs:
                        rows[i][j] = Fraction(-w)
                    elif i in hubs:
                        rows[i][j] = Fraction(w - rng.randint(1, 3))
                    else:
                        rows[i][j] = Fraction(-rng.randint(1, w))
        else:
            order = rng.sample(range(n), n)
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.random() < 0.7:
                        rows[order[a]][order[b]] = Fraction(w - rng.randint(0, 3))
        return rows

    def test_entries_near_the_guard(self):
        # 2 n w just below 2**61: the pass never resets masked entries
        # before its end, and sums of a masked term and long positive walks
        # lift them by up to about 0.4 * 2**61 here.
        rng = random.Random(23)
        for _ in range(80):
            n = rng.randint(2, 8)
            rows = self.near_guard_rows(rng, n, ((1 << 61) - 1) // (2 * n))
            got = node_one_closure(TropicalMatrix.from_rows(rows))
            assert oracles.grid(got) == self.split_closure(rows)

    def test_single_node(self):
        assert node_one_closure(TropicalMatrix.from_rows([[0]])) is None
        assert node_one_closure(TropicalMatrix.from_rows([[-1]])) == TropicalMatrix.from_rows([[-1]])
        assert node_one_closure(TropicalMatrix.from_rows([[None]])) == TropicalMatrix.eps(1, 1)

    def test_cycle_through_node_one_only(self):
        # The only cycle, 1 -> 2 -> 1, has weight 0: node 1 is never a
        # pivot, yet the diagonal still sees it.
        assert node_one_closure(TropicalMatrix.from_rows([[None, 1], [-1, None]])) is None
        closed = node_one_closure(TropicalMatrix.from_rows([[None, 1], [-2, None]]))
        assert oracles.grid(closed) == [[-1, 1], [-2, None]]
