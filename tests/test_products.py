import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import oracles
from conftest import random_valid_family
from tropical_transient import _kernels, products
from tropical_transient.bounds import implicit_sequence_bound
from tropical_transient.errors import BudgetExceededError
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import (
    DEFAULT_PRODUCT_BUDGET,
    ProductSequence,
    TransientEstimate,
    estimate_transient,
    fold,
)
from tropical_transient.trellis import build_trellis


class TestProductSequence:
    def test_coercion_and_protocols(self):
        seq = ProductSequence([1, 2, 3])
        assert seq.indices == (1, 2, 3)
        assert len(seq) == 3
        assert list(seq) == [1, 2, 3]

    def test_numpy_ints_become_plain_ints(self):
        seq = ProductSequence(np.array([2, 1], dtype=np.int64))
        assert all(type(x) is int for x in seq.indices)


class TestMemberIndicesAreIntegers:
    """Member indices are checked with ``operator.index`` where every
    sequence is staged: a float or a string is refused, never truncated,
    and a bool is refused although ``operator.index(True)`` is 1."""

    ENTRY_POINTS = {
        "fold": fold,
        "implicit_sequence_bound": implicit_sequence_bound,
        "build_trellis": build_trellis,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("seq, pos, token", [
        ([1.7], 1, "1.7"),
        ([2, 2.5], 2, "2.5"),
        ([1, 2, 2.0], 3, "2.0"),
        (["1"], 1, "'1'"),
        ([True, 2], 1, "True"),
    ])
    def test_non_integers_are_refused(self, family5, entry, seq, pos, token):
        with pytest.raises(TypeError, match=f"^factor {pos} is not an integer member "
                                            f"index: {re.escape(token)}$"):
            self.ENTRY_POINTS[entry](family5, seq)

    def test_integer_arrays_are_accepted(self, family5):
        seq = np.array([2, 1, 3], dtype=np.int32)
        assert fold(family5, seq) == fold(family5, [2, 1, 3])
        t = build_trellis(family5, seq)
        assert t.indices == (2, 1, 3) and all(type(x) is int for x in t.indices)
        assert implicit_sequence_bound(family5, seq) == implicit_sequence_bound(family5, [2, 1, 3])

    def test_product_sequence_refuses_non_integers(self):
        with pytest.raises(TypeError):
            ProductSequence((1.9, 2.2))
        with pytest.raises(TypeError):
            ProductSequence(("1",))
        with pytest.raises(TypeError, match=r"^factor 2 is not an integer member index: False$"):
            ProductSequence((1, False))


class TestFold:
    def test_matches_oracle_on_fixture(self, family5, seq44):
        short = seq44.indices[:5]
        got = oracles.grid(fold(family5, short))
        want = oracles.naive_fold([oracles.grid(family5.members[s - 1]) for s in short])
        assert got == want

    def test_matches_oracle_on_random_families(self):
        rng = random.Random(41)
        for _ in range(40):
            fam = random_valid_family(rng)
            k = rng.randint(1, 7)
            seq = [rng.randint(1, fam.member_count) for _ in range(k)]
            got = oracles.grid(fold(fam, seq))
            want = oracles.naive_fold([oracles.grid(fam.members[s - 1]) for s in seq])
            assert got == want

    def test_single_factor(self, family5):
        assert fold(family5, [2]) == family5.members[1]

    def test_accepts_sequence_object(self, family5, seq44):
        assert fold(family5, seq44) == fold(family5, list(seq44.indices))

    def test_rejects_empty(self, family5):
        with pytest.raises(ValueError):
            fold(family5, [])

    def test_rejects_bad_indices(self, family5):
        with pytest.raises(IndexError):
            fold(family5, [1, 0])
        with pytest.raises(IndexError):
            fold(family5, [4])

    def test_magnitude_guard(self):
        big = MatrixFamily([TropicalMatrix.from_rows([[2**61]])])
        with pytest.raises(OverflowError):
            fold(big, [1, 1])


class TestRandomSequence:
    def test_deterministic_and_in_range(self, family5):
        a = oracles.random_sequence(family5, 50, seed=123)
        b = oracles.random_sequence(family5, 50, seed=123)
        assert a.indices == b.indices
        assert all(1 <= x <= 3 for x in a.indices)
        assert oracles.random_sequence(family5, 50, seed=124).indices != a.indices

    def test_rejects_zero_length(self, family5):
        with pytest.raises(ValueError):
            oracles.random_sequence(family5, 0, seed=1)


class TestEstimateTransient:
    def _tiny_family(self):
        # two members, n = 2; small enough to brute-force every sequence
        a = TropicalMatrix.from_rows([[0, -1], [-2, -3]])
        b = TropicalMatrix.from_rows([[0, -3], [-1, -2]])
        return MatrixFamily([a, b])

    def test_exhaustive_matches_brute_force(self):
        fam = self._tiny_family()
        horizon = 6
        est = estimate_transient(fam, horizon=horizon, mode="exhaustive")
        assert est.mode == "exhaustive"
        assert est.samples_per_length is None and est.seed is None
        assert est.examined == sum(2**k for k in range(1, horizon + 1))
        want_cex = []
        for k in range(1, horizon + 1):
            for idx in itertools.product((1, 2), repeat=k):
                grids = [oracles.grid(fam.members[s - 1]) for s in idx]
                if not oracles.is_rank_one(oracles.naive_fold(grids)):
                    want_cex.append((k, idx))
        assert list(est.counterexamples) == want_cex
        failed = {k for k, _ in want_cex}
        first = None
        for k in range(horizon, 0, -1):
            if k in failed:
                break
            first = k
        assert est.first_all_rank_one == first

    def test_first_all_rank_one_none_when_top_length_fails(self):
        fam = self._tiny_family()
        # find a horizon whose top length still has a counterexample
        est = estimate_transient(fam, horizon=1, mode="exhaustive")
        if est.counterexamples:
            assert est.first_all_rank_one is None

    def test_sampled_deterministic(self, family5):
        kw = dict(horizon=10, mode="sampled", samples_per_length=8, seed=5)
        a = estimate_transient(family5, **kw)
        b = estimate_transient(family5, **kw)
        assert a == b
        c = estimate_transient(family5, **{**kw, "seed": 6})
        assert c != a

    def test_exhaustive_budget(self, family5):
        with pytest.raises(BudgetExceededError):
            estimate_transient(family5, horizon=20, mode="exhaustive")
        # explicit budget override
        with pytest.raises(BudgetExceededError):
            estimate_transient(
                family5, horizon=3, mode="exhaustive", max_products=10
            )

    def test_sampled_budget(self, family5):
        with pytest.raises(BudgetExceededError):
            estimate_transient(
                family5, horizon=10, samples_per_length=10, max_products=99
            )
        assert DEFAULT_PRODUCT_BUDGET >= 10 * 10

    def test_argument_validation(self, family5):
        with pytest.raises(ValueError):
            estimate_transient(family5, horizon=0)
        with pytest.raises(ValueError):
            estimate_transient(family5, horizon=1, mode="both")
        with pytest.raises(ValueError):
            estimate_transient(family5, horizon=1, samples_per_length=0)

    def test_counterexamples_in_scan_order(self, family5):
        est = estimate_transient(
            family5, horizon=8, mode="sampled", samples_per_length=10, seed=2
        )
        lengths = [k for k, _ in est.counterexamples]
        assert lengths == sorted(lengths)
        for k, idx in est.counterexamples:
            assert len(idx) == k


def _scan_family(rng: random.Random, n: int, m: int) -> MatrixFamily:
    """Members with -inf entries (the pivot included) and weights on the
    denominators 1, 2 and 3; no admissibility assumed."""
    def member():
        return TropicalMatrix.from_rows([
            [None if rng.random() < 0.25 else Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
             for _ in range(n)]
            for _ in range(n)
        ])
    return MatrixFamily([member() for _ in range(m)])


def _outcome(scan, *args, **kwargs):
    """The estimate, or the type and message of the exception raised."""
    try:
        return scan(*args, **kwargs)
    except (OverflowError, BudgetExceededError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_matches_oracle(*args, **kwargs):
    got = _outcome(estimate_transient, *args, **kwargs)
    assert got == _outcome(oracles.per_sequence_estimate, *args, **kwargs)
    return got


class TestStackedScanOracle:
    """The stacked scan against the earlier per-sequence scan."""

    @pytest.mark.parametrize("seed", [0, 1, 9173])
    def test_fixture_sampled(self, family5, seed):
        est = _assert_matches_oracle(family5, horizon=40, samples_per_length=100, seed=seed)
        assert est.examined == 4000

    def test_fixture_exhaustive(self, family5):
        est = _assert_matches_oracle(family5, horizon=8, mode="exhaustive")
        assert est.examined == sum(3**k for k in range(1, 9))

    def test_random_families(self):
        rng = random.Random(2024)
        pivots_inf = 0
        for _ in range(240):
            n, m = rng.randint(1, 6), rng.randint(1, 4)
            fam = _scan_family(rng, n, m)
            pivots_inf += sum(not x._fin[0, 0] for x in fam.members)
            horizon = max(h for h in range(1, 9) if sum(m**k for k in range(1, h + 1)) <= 90)
            _assert_matches_oracle(fam, horizon=horizon, mode="exhaustive")
            _assert_matches_oracle(fam, horizon=rng.randint(1, 6),
                                   samples_per_length=rng.randint(1, 8),
                                   seed=rng.randrange(1 << 32))
        assert pivots_inf > 50

    def test_levels_span_several_chunks(self, monkeypatch):
        # Level 6 (4,096 products) spans several kernel chunks at n = 5,
        # and so do the sampled scan's widest levels of distinct prefixes:
        # the members' plan has 25 entries, so a chunk holds
        # 2**16 // (5 * 25) = 524 rows.
        fam = _scan_family(random.Random(5), 5, 4)
        terms = 5 * len(_kernels._plan(_kernels.encode(*fam.stacked[:2]))[0])
        rows = _kernels._chunks(4**6, terms)[0].stop
        assert rows == 524 and 4**6 > 4 * rows
        _assert_matches_oracle(fam, horizon=6, mode="exhaustive")
        spy = _spied_scan(monkeypatch, fam, horizon=6, samples_per_length=rows + 1, seed=3)[1]
        assert max(spy.sizes) > rows


class _ExtendSpy:
    """Records the calls of ``_kernels.extend``, through which both scans
    form every matrix product: ``sizes`` holds the number of products of
    each call and ``levels`` the number of rows of its input level."""

    def __init__(self, monkeypatch):
        self.sizes = []
        self.levels = []
        extend = _kernels.extend

        def spied_extend(level, plan, parents, members):
            self.sizes.append(len(parents))
            self.levels.append(len(level))
            return extend(level, plan, parents, members)

        monkeypatch.setattr(_kernels, "extend", spied_extend)

    @property
    def products(self) -> int:
        return sum(self.sizes)


class _TreeSpy:
    """Records the draws of every prefix tree the sampled scan folds, as
    1-based tuples, shortest first."""

    def __init__(self, monkeypatch):
        self.trees = []
        fold_tree = products._prefix_tree_verdicts

        def spied_tree(plan, block, prune):
            self.trees.append([tuple(int(x) for x in row) for draws in block for row in draws])
            return fold_tree(plan, block, prune)

        monkeypatch.setattr(products, "_prefix_tree_verdicts", spied_tree)


def _spied_scan(monkeypatch, *args, **kwargs):
    """The sampled scan, checked against the per-sequence scan, and a spy
    on the scan alone."""
    want = _outcome(oracles.per_sequence_estimate, *args, **kwargs)
    spy = _ExtendSpy(monkeypatch)
    got = _outcome(estimate_transient, *args, **kwargs)
    assert got == want
    return got, spy


def _draw_trees(family, horizon, samples, seed):
    """The sampled scan's draws as 1-based tuples, grouped into its prefix
    trees.  A block of consecutive lengths takes the next length while its
    draws, counted at max(k, n^2, m) elements each, fit
    ``products._BLOCK_ELEMENTS``; a block folds as one tree, or, when one
    length alone passes the budget, as one tree per slice of as many draws
    as fit it (at least one)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n, m = family.size, family.member_count
    blocks = []
    for k in range(1, horizon + 1):
        if not blocks or samples * (len(blocks[-1]) + 1) * max(k, n * n, m) > products._BLOCK_ELEMENTS:
            blocks.append([])
        draws = rng.integers(1, m + 1, size=(samples, k))
        blocks[-1].append([tuple(int(x) for x in row) for row in draws])
    trees = []
    for block in blocks:
        width = max(1, products._BLOCK_ELEMENTS // (len(block) * max(len(block[-1][0]), n * n, m)))
        for s in range(0, samples, width):
            trees.append([draw for length in block for draw in length[s:s + width]])
    return trees


def _live_prefixes(family, horizon, samples, seed):
    """The products a prefix-tree scan must form, tree by tree: every
    distinct prefix of a tree's draws, from the empty product on (length
    1 included), except, when the scan prunes, those whose parent prefix
    is rank-one (its extensions are rank-one and need no product)."""
    prune = products._absorbing(family)
    rank_one = {}
    formed = set()
    for b, tree in enumerate(_draw_trees(family, horizon, samples, seed)):
        for draw in tree:
            for l in range(len(draw)):
                parent = draw[:l]
                if prune and l:
                    if parent not in rank_one:
                        rank_one[parent] = oracles._is_rank_one(family, parent)
                    if rank_one[parent]:
                        break
                formed.add((b, draw[:l + 1]))
    return len(formed)


def _pruned_off_family(rng: random.Random, n: int) -> MatrixFamily:
    """Two admissible members, the second with its (1, 1) entry set to
    -inf, so pruning is off and every distinct prefix is formed."""
    fam = random_valid_family(rng, n, 2)
    rows = oracles.grid(fam.members[1])
    rows[0][0] = None
    return MatrixFamily([fam.members[0], TropicalMatrix.from_rows(rows)])


class TestRaggedSampledScan:
    """The sampled scan folds a block of draws of several lengths as a tree
    of their distinct prefixes and decides each draw at its own last layer;
    the per-sequence scan is the reference, and a spy on
    ``_kernels.extend`` checks that exactly one product is formed per
    distinct live prefix."""

    def test_absorbed_rows_are_dropped_when_pruning(self, family5, monkeypatch):
        # Every pivot of the fixture is finite, so a rank-one prefix is
        # dropped with every draw under it.  Its 4,000 draws (one block)
        # need 2,904 products, where folding each draw on its own takes
        # 78,000.
        assert products._absorbing(family5)
        est, spy = _spied_scan(monkeypatch, family5, horizon=40, samples_per_length=100, seed=0)
        assert est.first_all_rank_one is not None and est.counterexamples
        assert len(_draw_trees(family5, 40, 100, 0)) == 1
        assert spy.products == _live_prefixes(family5, 40, 100, 0) == 2904

    def test_benchmark_transient_op_work(self, family5, monkeypatch):
        # The CLI benchmark's transient op scans horizon 12 with 50 draws
        # per length, seed 0: one tree of 600 draws.
        spy = _spied_scan(monkeypatch, family5, horizon=12, samples_per_length=50, seed=0)[1]
        assert len(_draw_trees(family5, 12, 50, 0)) == 1
        assert spy.products == _live_prefixes(family5, 12, 50, 0) == 769

    def test_every_row_is_decided_without_pruning(self, monkeypatch):
        # A -inf pivot turns pruning off: every distinct prefix is formed,
        # rank-one or not, and shared prefixes only once.
        rng = random.Random(8)
        for case in range(6):
            fam = _pruned_off_family(rng, rng.randint(2, 5))
            assert not products._absorbing(fam)
            spy = _spied_scan(monkeypatch, fam, horizon=20, samples_per_length=15, seed=case)[1]
            assert spy.products == _live_prefixes(fam, 20, 15, case)
            assert spy.products < 15 * sum(k - 1 for k in range(1, 21))

    def test_near_guard_magnitudes_keep_pruning(self):
        # Finite pivots, and three times the walk magnitude at the horizon
        # reaches the storage limit: rows are dropped once rank-one,
        # and every verdict is the exact one.  The fold guard passes at
        # every length.
        rng = random.Random(12)
        horizon = 8
        big = (1 << 62) // (3 * horizon) + 1
        assert horizon * big < 1 << 61
        for case in range(4):
            fam = random_valid_family(rng, 4, 3)
            rows = oracles.grid(fam.members[2])
            rows[1][1] = -big
            fam = MatrixFamily([*fam.members[:2], TropicalMatrix.from_rows(rows)])
            assert products._absorbing(fam)
            assert 3 * fam.layer_magnitude * horizon >= 1 << 62
            est = _assert_matches_oracle(fam, horizon=horizon, samples_per_length=40, seed=case)
            assert isinstance(est, TransientEstimate)

    def test_prune_gate_keeps_the_rank_one_guard(self, monkeypatch):
        # A is rank-one and all finite, so every draw with a factor A is
        # rank-one and only the draws C^k fail.  A^5 has the magnitude 5 w,
        # with three times it past the storage limit; such prefixes leave
        # the tree once rank-one like any other.
        store = 1 << 62
        w = 5 << 56
        assert 3 * 4 * w < store <= 3 * 5 * w and 5 * w < 1 << 61
        a = TropicalMatrix.from_rows([[-w, -w], [-w, -w]])
        c = TropicalMatrix.from_rows([[0, -1], [-2, 0]])
        fam = MatrixFamily([a, c])
        assert products._absorbing(fam)
        est, spy = _spied_scan(monkeypatch, fam, horizon=5, samples_per_length=100, seed=0)
        assert isinstance(est, TransientEstimate) and est.examined == 500
        assert est.counterexamples and all(set(idx) == {2} for _, idx in est.counterexamples)
        # Only the empty prefix and prefixes C^l are extended: two
        # products per layer.
        assert spy.products == _live_prefixes(fam, 5, 100, 0) == 2 * 5

    @pytest.mark.parametrize("rows, block, trees, splits", [
        pytest.param(7, 300, 32, True, id="7-300"),
        pytest.param(64, 1200, 8, False, id="64-1200"),
    ])
    def test_several_chunks_and_blocks(self, family5, monkeypatch, rows, block, trees, splits):
        # Small chunks and blocks: at n = 5 a chunk holds rows rows (a row
        # gathers 5 terms per entry of the members' plan) and a tree's
        # level at most block // 25.  With 20 draws per length, a block of
        # 300 elements holds one length, which passes it alone and folds as
        # two trees of 12 and 8 draws, whose levels span several 7-row
        # chunks; a block of 1200 holds two lengths and folds as one tree,
        # whose levels of at most 48 fit one 64-row chunk.
        monkeypatch.setattr(products, "_BLOCK_ELEMENTS", block)
        rng = random.Random(100 * rows)
        cases = [family5, _pruned_off_family(rng, 5), _scan_family(rng, 5, 3)]
        for seed, fam in enumerate(cases):
            terms = 5 * len(_kernels._plan(_kernels.encode(*fam.stacked[:2]))[0])
            monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", rows * terms)
            tree_spy = _TreeSpy(monkeypatch)
            spy = _spied_scan(monkeypatch, fam, horizon=16, samples_per_length=20, seed=seed)[1]
            assert tree_spy.trees == _draw_trees(fam, 16, 20, seed)
            assert len(tree_spy.trees) == trees
            assert spy.products == _live_prefixes(fam, 16, 20, seed)
            assert (max(spy.sizes) > rows) == splits
            assert max(spy.levels) <= block // 25

    def test_large_lengths_fold_in_slices_within_the_budget(self, monkeypatch):
        # At n = 20 one length of 2,000 draws passes the budget alone
        # (2,000 x 400 > 2^18 elements), so it folds as four trees of at
        # most 655 draws: no level, input or output of the level kernel,
        # holds more than _BLOCK_ELEMENTS // n^2 products.  With 30 members
        # the 900 prefixes of length 2 can fill a tree's level, and a -inf
        # pivot keeps every one of them in the tree.
        fam = _scan_family(random.Random(20), 20, 30)
        assert not products._absorbing(fam)
        samples, cap = 2000, products._BLOCK_ELEMENTS // 400
        assert samples * 400 > products._BLOCK_ELEMENTS and cap == 655
        tree_spy = _TreeSpy(monkeypatch)
        spy = _ExtendSpy(monkeypatch)
        est = estimate_transient(fam, horizon=3, samples_per_length=samples, seed=1)
        assert est.examined == 3 * samples
        assert tree_spy.trees == _draw_trees(fam, 3, samples, 1) and len(tree_spy.trees) == 3 * 4
        assert max(spy.levels) <= cap and cap // 2 < max(spy.sizes) <= cap
        assert spy.products == _live_prefixes(fam, 3, samples, 1)

    @pytest.mark.parametrize("horizon, samples", [(1, 1), (1, 50), (30, 1), (5, 1)])
    def test_smallest_scans(self, family5, horizon, samples):
        rng = random.Random(horizon * samples)
        for fam in (family5, _pruned_off_family(rng, 3), _scan_family(rng, 4, 2)):
            est = _assert_matches_oracle(fam, horizon=horizon, samples_per_length=samples, seed=7)
            assert est.examined == horizon * samples

    def test_member_indices_past_one_byte(self):
        # 300 members store their draws as uint16; 1-based indices up to
        # 300 come back unchanged.
        rng = random.Random(3)
        fam = MatrixFamily([_scan_family(rng, 2, 1).members[0] for _ in range(300)])
        est = _assert_matches_oracle(fam, horizon=3, samples_per_length=40, seed=1)
        assert max(max(idx) for _, idx in est.counterexamples) > 255


class TestScanOverflow:
    """The fold guard raises where the per-sequence scan raised, with the
    same message, and nowhere else.  The rank-one test has no guard:
    products with three times their magnitude past the storage limit get
    the exact verdicts of the per-sequence scan, which decides in Python
    ints."""

    STORE = 1 << 62
    GUARD = 1 << 61

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_fold_guard_at_the_same_length(self, mode):
        # One layer adds at most big, so lengths 1 and 2 are scanned and
        # length 3 reaches 3 big >= 2**61.
        big = self.GUARD // 3 + 1
        a = TropicalMatrix.from_rows([[0, -big], [-1, -1]])
        b = TropicalMatrix.from_rows([[0, -1], [-2, -1]])
        fam = MatrixFamily([a, b])
        _assert_matches_oracle(fam, horizon=2, mode=mode, samples_per_length=5)
        got = _assert_matches_oracle(fam, horizon=3, mode=mode, samples_per_length=5)
        assert got == (OverflowError, f"sequence fold: scaled integer magnitude {3 * big} "
                                      "exceeds the int64 budget")

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_rank_one_guard_on_reduced_numerators(self, mode):
        # The common denominator is 2, and members 2 to 4 have scaled
        # numerators in [ceil(2**62 / 3), 2**61): member 2's are even (it
        # reduces to w), members 3 and 4 have the odd ones 2 w + 1 and
        # 2 w + 3.  Only member 3 is rank-one, whatever its magnitude.
        w = 3 << 58
        half = TropicalMatrix.from_rows([[0, Fraction(1, 2)], [-1, 0]])
        even = TropicalMatrix.from_rows([[0, -w], [-1, -1]])
        odd_rank_one = TropicalMatrix.from_rows(
            [[0, Fraction(-2 * w - 1, 2)], [-1, Fraction(-2 * w - 3, 2)]])
        odd = TropicalMatrix.from_rows([[0, Fraction(-2 * w - 3, 2)], [-1, -1]])
        assert 3 * 2 * w >= self.STORE and 2 * w + 3 < self.GUARD
        fam = MatrixFamily([half, even, odd_rank_one, odd])
        est = _assert_matches_oracle(fam, horizon=1, mode=mode, samples_per_length=30)
        assert isinstance(est, TransientEstimate) and est.first_all_rank_one is None
        assert {idx for _, idx in est.counterexamples} == {(1,), (2,), (4,)}
        assert est.examined == (4 if mode == "exhaustive" else 30)

    @pytest.mark.parametrize("chunk", [None, 48])
    def test_rank_one_guard_at_the_shortest_length_first(self, monkeypatch, chunk):
        # D_c = diag(0, -w - c): a product of three or four factors D
        # reaches 3 w or more, with three times it past the storage limit,
        # and is diagonal, so not rank-one; 4 w stays below the fold guard.
        # Lengths 1 to 4 fold as one tree; the members' plan has 4 entries,
        # so in the second case a row gathers 8 terms and the levels run in
        # chunks of 6 rows.  Every draw gets its exact verdict, in scan order.
        if chunk:
            monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", chunk)
        w = 15 << 55
        assert 3 * 2 * (w + 10) < self.STORE <= 3 * 3 * w and 4 * (w + 10) < self.GUARD
        d0, d1 = (TropicalMatrix.from_rows([[0, None], [None, -w - c]]) for c in (0, 10))
        x = TropicalMatrix.from_rows([[0, -1], [-2, -1]])
        fam = MatrixFamily([d0, d1, x])
        if chunk:
            terms = 2 * len(_kernels._plan(_kernels.encode(*fam.stacked[:2]))[0])
            assert _kernels._chunks(60, terms)[0].stop == 6
        est = _assert_matches_oracle(fam, horizon=4, samples_per_length=60, seed=0)
        assert isinstance(est, TransientEstimate) and est.examined == 240
        for k in (3, 4):
            assert any(len(idx) == k and 3 not in idx for _, idx in est.counterexamples)

    def test_minus_inf_pivot_is_not_rank_one(self):
        big = -(-self.STORE // 3)
        fam = MatrixFamily([TropicalMatrix.from_rows([[None, -big], [-big, -big]])])
        for mode in ("exhaustive", "sampled"):
            est = _assert_matches_oracle(fam, horizon=1, mode=mode, samples_per_length=2)
            assert est.first_all_rank_one is None
            assert est.counterexamples[0] == (1, (1,))


class TestPrunedExhaustive:
    """Exhaustive levels extend only their failing products when every
    member has a finite (1, 1) entry; the scan over full levels is the
    reference."""

    STORE = 1 << 62

    def test_exact_transient_of_the_fixture(self, family5):
        est = estimate_transient(family5, 15, "exhaustive", max_products=22_000_000)
        counts = [sum(1 for k, _ in est.counterexamples if k == length)
                  for length in range(1, 16)]
        assert counts == [3, 9, 27, 81, 174, 291, 599, 759, 1025, 1299, 784, 732, 576, 0, 0]
        assert est.first_all_rank_one == 14
        assert est.examined == 21_523_359

    @pytest.mark.parametrize("horizon", [1, 2, 5, 10])
    def test_fixture_matches_full_levels(self, family5, horizon):
        got = estimate_transient(family5, horizon, "exhaustive")
        assert got == oracles.full_level_estimate(family5, horizon)

    def test_random_families_match_full_levels(self):
        # The families of TestStackedScanOracle, -inf pivots included, so
        # the full extension runs too, and admissible ones, which prune.
        rng = random.Random(2024)
        pivots_inf = 0
        for case in range(160):
            n, m = rng.randint(2, 6), rng.randint(1, 4)
            fam = _scan_family(rng, n, m) if case % 2 else random_valid_family(rng, n, m)
            pivots_inf += any(not x._fin[0, 0] for x in fam.members)
            horizon = max(h for h in range(1, 11) if sum(m**k for k in range(1, h + 1)) <= 3000)
            assert (_outcome(estimate_transient, fam, horizon, "exhaustive")
                    == _outcome(oracles.full_level_estimate, fam, horizon))
        assert pivots_inf > 20

    def test_benchmark_scan_work(self, family5, monkeypatch):
        # The benchmark's exhaustive scan (horizon 8, 9,840 sequences)
        # forms m products from the empty product and m per failing
        # product of lengths 1 to 7.
        spy = _ExtendSpy(monkeypatch)
        est = estimate_transient(family5, 8, "exhaustive")
        failing = [sum(1 for k, _ in est.counterexamples if k == length) for length in range(1, 8)]
        assert est.examined == 9840
        assert spy.products == 3 * (1 + sum(failing)) == 3555

    def test_prune_gate_keeps_the_rank_one_guard(self):
        # Every pivot is finite and A is rank-one, so the level-2 products
        # with a factor A are not extended from level 1, although A (x) A
        # has the magnitude 2 w with 3 * 2 w >= 2**62 (below the fold
        # guard's 2**61).  Only C and C (x) C fail.
        w = self.STORE // 5
        a = TropicalMatrix.from_rows([[-w, -w], [-w, -w]])
        c = TropicalMatrix.from_rows([[0, -1], [-2, 0]])
        fam = MatrixFamily([a, c])
        assert products._absorbing(fam) and 2 * w < 1 << 61 <= 3 * 2 * w
        est = _assert_matches_oracle(fam, horizon=2, mode="exhaustive")
        assert est == oracles.full_level_estimate(fam, 2)
        assert est.counterexamples == ((1, (2,)), (2, (2, 2)))
        assert est.first_all_rank_one is None and est.examined == 6

    def test_level_indices_beyond_int64(self):
        # R is rank-one and D is diagonal, so the only failing product of
        # length k is D^k, whose level index 2^k - 1 leaves int64 at k = 63.
        r = TropicalMatrix.from_rows([[0, 0], [0, 0]])
        d = TropicalMatrix.from_rows([[0, None], [None, -1]])
        horizon = 70
        est = estimate_transient(MatrixFamily([r, d]), horizon, "exhaustive",
                                 max_products=1 << 71)
        assert est.counterexamples == tuple((k, (2,) * k) for k in range(1, horizon + 1))
        assert est.examined == (1 << horizon + 1) - 2
        assert est.first_all_rank_one is None
