import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_transient import _kernels, products
from tropical_transient._kernels import FLOOR, MASKED, NUMPY_BACKEND, PROBE_STRIDE, decode, encode
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import fold
from tropical_transient.semiring import EPSILON
from tropical_transient.trellis import build_trellis, optimal_full_walk

from conftest import late_arrival_family, random_valid_family
from oracles import (
    grid,
    is_rank_one,
    masked_backward_avoid,
    masked_final_from_anchor,
    masked_fold,
    masked_forward_avoid,
    masked_forward_full,
    masked_initial_to_anchor,
    masked_matmul,
    masked_through_anchor,
    naive_fold,
    naive_matmul,
)


def random_members(rng, m, n, density=0.6):
    num = rng.integers(-50, 51, size=(m, n, n))
    fin = rng.random(size=(m, n, n)) < density
    return num.astype(np.int64), fin


def random_seq(rng, m, k):
    return rng.integers(0, m, size=k).astype(np.int64)


def assert_masked_equal(a, b):
    a_num, a_fin = a
    b_num, b_fin = b
    assert np.array_equal(a_fin, b_fin)
    assert np.array_equal(a_num[a_fin], b_num[b_fin])


def oracle_cases():
    """Seeded member stacks over n <= 8, three densities and the edge case
    of members whose only edges touch node 0."""
    rng = np.random.default_rng(77)
    for n in range(1, 9):
        for density in (0.0, 0.3, 1.0):
            m = int(rng.integers(1, 4))
            yield random_members(rng, m, n, density)
        num, fin = random_members(rng, 2, n, 0.7)
        fin[:, 1:, 1:] = False
        yield num, fin


def admissible_members(rng, m, n):
    """m members on one support: the cycle 0 -> 1 -> ... -> n-1 -> 0, a
    weight-0 loop at node 0 and about 0.1 n^2 extra edges, every other
    weight in -12..-1.  Every other cycle is negative, so long products
    over them become rank-one."""
    fin = rng.random(size=(n, n)) < 0.1
    fin[np.arange(n), (np.arange(n) + 1) % n] = True
    fin[0, 0] = True
    num = -rng.integers(1, 13, size=(m, n, n))
    num[:, 0, 0] = 0
    return num.astype(np.int64), np.broadcast_to(fin, (m, n, n)).copy()


def onset_layer(mem_num, mem_fin, seq):
    """The first layer below len(seq) that the single fold probes and whose
    prefix is rank-one by the oracle's definition, or None."""
    for l in range(PROBE_STRIDE, len(seq), PROBE_STRIDE):
        num, fin = masked_fold(mem_num, mem_fin, seq[:l])
        rows = np.where(fin, num, None).tolist()
        if is_rank_one(rows):
            return l
    return None


def as_level(stack):
    """A (B, n, n) stack of matrices as an (n, n, B) level: entry [c, r, b]
    is entry (r, c) of matrix b."""
    return np.ascontiguousarray(stack.transpose(2, 1, 0))


def from_level(level):
    """The (B, n, n) stack of matrices of an (n, n, B) level, a view."""
    return level.transpose(2, 1, 0)


def stacked_fold(mem_num, mem_fin, seqs):
    """Products of a (B, k) stack of sequences as (B, n, n) (numerator,
    mask) arrays, grown one layer at a time by ``extend``: at layer l
    product b times member seqs[b, l]."""
    mem = encode(mem_num, mem_fin)
    plan = _kernels._plan(mem)
    level, rows = as_level(mem[seqs[:, 0]]), np.arange(len(seqs))
    for column in seqs.T[1:]:
        level, _ = _kernels.extend(level, plan, rows, column)
    return decode(from_level(level))


def stage_members(n):
    """Members for prefixes with a chosen rank-one onset: D is diagonal, so
    its powers are not rank-one, and R is rank-one, so D^t (x) R is."""
    d = np.diag(np.arange(1, n + 1))
    r = np.add.outer(np.arange(n), -np.arange(n))
    num = np.stack([d, r]).astype(np.int64)
    fin = np.stack([np.eye(n, dtype=bool), np.ones((n, n), dtype=bool)])
    return num, fin


@st.composite
def rank_one_stacks(draw, limit, masked):
    """A (B, n, n) stack of numerators with finite |num| < limit and
    ``masked`` in masked slots, and its mask.  Each matrix is an outer sum
    x_i + y_j on an outer pattern, or one with an entry moved by one or a
    slot's finiteness flipped, or arbitrary; -inf pivots come from the
    patterns.  Extreme values are drawn on purpose."""
    def values(bound, size):
        extreme = st.sampled_from([-(bound - 1), bound - 1, 0])
        return np.array(draw(st.lists(st.one_of(st.integers(-(bound - 1), bound - 1), extreme),
                                      min_size=size, max_size=size)), dtype=np.int64)

    def flags(size):
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))

    n = draw(st.integers(1, 4))
    nums, fins = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["outer", "moved", "flipped", "arbitrary"]))
        if kind == "arbitrary":
            num, fin = values(limit, n * n).reshape(n, n), flags(n * n).reshape(n, n)
        else:
            num = values(limit // 2, n)[:, None] + values(limit // 2, n)[None, :]
            fin = flags(n)[:, None] & flags(n)[None, :]
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if kind == "moved":
                num[i, j] += 1 if num[i, j] < limit - 1 else -1
            elif kind == "flipped":
                fin[i, j] = not fin[i, j]
        nums.append(np.where(fin, num, np.int64(masked)))
        fins.append(fin)
    return np.stack(nums), np.stack(fins)


class TestRankOneWithoutGuard:
    """``_kernels.rank_one`` forms only differences of two stored values,
    so it decides every stack its callers pass exactly, at any magnitude:
    decoded ones (|num| < 2**62, 0 in masked slots) and encoded ones
    (|num| < 2**61, MASKED slots).  The definition oracle decides in
    Python ints."""

    @pytest.mark.parametrize("limit, masked", [(1 << 62, 0), (1 << 61, MASKED)],
                             ids=["decoded", "encoded"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_the_definition(self, limit, masked, data):
        num, fin = data.draw(rank_one_stacks(limit, masked))
        if masked:
            assert np.array_equal(num > FLOOR, fin)
        want = [is_rank_one([[int(v) if ok else None for v, ok in zip(row, oks)]
                             for row, oks in zip(a, f)]) for a, f in zip(num, fin)]
        # The (n, n, B) stack of the matrices, and of their transposes.
        assert _kernels.rank_one(as_level(num), as_level(fin)).tolist() == want
        assert _kernels.rank_one(num.transpose(1, 2, 0), fin.transpose(1, 2, 0)).tolist() == want
        for one, one_fin, verdict in zip(num, fin, want):
            assert _kernels.rank_one(one, one_fin) == verdict
            assert _kernels.rank_one(one.T, one_fin.T) == verdict


INT16 = np.dtype(np.int16)
MASKED16, FLOOR16 = _kernels._SENTINELS[INT16]
# The largest finite magnitude an int16 scan forms: just below the guard.
EDGE16 = (1 << 13) - 1


def python_grid(num, fin):
    """An (r, c) numerator grid with its mask as rows of Python ints, None
    for -inf, for the oracles."""
    return [[int(v) if ok else None for v, ok in zip(row, oks)] for row, oks in zip(num, fin)]


@st.composite
def sixteen_bit_steps(draw):
    """m members with weights in [-2**12, 2**12] and a state of r rows with
    finite entries in [-(2**12 - 1), 2**12 - 1], each with its mask and
    its extremes drawn on purpose, so every finite sum of the step lies in
    [-(2**13 - 1), 2**13 - 1], inside int16's guard; masked entries of a
    member inside the union and masked state entries meet in sums of
    MASKED + MASKED = -2**15."""
    def grid(shape, bound):
        size = int(np.prod(shape))
        value = st.one_of(st.integers(-bound, bound), st.sampled_from([-bound, bound, 0]))
        num = np.array(draw(st.lists(value, min_size=size, max_size=size)), dtype=np.int64)
        fin = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)))
        return num.reshape(shape), fin.reshape(shape)

    n, m, r = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    return grid((m, n, n), 1 << 12), grid((r, n), (1 << 12) - 1)


class TestSixteenBits:
    """The kernels at int16, the width the scans pick below 2**13: MASKED =
    -2**14, FLOOR = -2**13 and the guard 2**13.  A sum of finite terms lies
    in (-2**13, 2**13), one with a masked term below FLOOR, and MASKED +
    MASKED = -2**15 still fits, so every step and verdict is exact; the
    oracles decide in Python ints."""

    def test_sentinels_and_widths(self):
        assert MASKED16.dtype == INT16 and (int(MASKED16), FLOOR16) == (-(1 << 14), -(1 << 13))
        assert int(MASKED16 + MASKED16) == -(1 << 15)
        widths = [_kernels.width(x) for x in (0, 240, EDGE16, 1 << 13, (1 << 29) - 1, 1 << 29,
                                              (1 << 61) - 1)]
        assert widths == [INT16] * 3 + [np.dtype(np.int32)] * 2 + [np.dtype(np.int64)] * 2

    @pytest.mark.parametrize("limit, masked", [(1 << 14, 0), (1 << 13, int(MASKED16))],
                             ids=["decoded", "encoded"])
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_rank_one_agrees_with_the_definition(self, limit, masked, data):
        # Each side of the value test is a difference of two values in
        # [-2**14, 2**14), inside int16.
        num, fin = data.draw(rank_one_stacks(limit, masked))
        num = num.astype(INT16)
        want = [is_rank_one(python_grid(a, f)) for a, f in zip(num, fin)]
        assert _kernels.rank_one(as_level(num), as_level(fin)).tolist() == want
        for one, one_fin, verdict in zip(num, fin, want):
            assert _kernels.rank_one(one, one_fin) == verdict

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=sixteen_bit_steps(), data=st.data())
    def test_step_matches_the_oracle(self, case, data):
        (mem_num, mem_fin), (x_num, x_fin) = case
        plan = _kernels._plan(encode(mem_num, mem_fin, INT16))
        assert plan[1].dtype == INT16
        x = encode(x_num, x_fin, INT16)
        grids = [python_grid(a, f) for a, f in zip(mem_num, mem_fin)]
        rows = python_grid(x_num, x_fin)
        for s in range(len(grids)):
            want = naive_matmul(rows, grids[s])
            got = _kernels._step(x.T, plan, s)
            assert got.dtype == INT16 and (got >= MASKED16).all()
            assert python_grid(got.T, got.T > FLOOR16) == want
            vector = _kernels._step(x[0], plan, s)
            assert python_grid(vector[None], vector[None] > FLOOR16) == want[:1]
        # A level of the rows as (1, n) products, each times its own member.
        members = np.array(data.draw(st.lists(st.integers(0, len(grids) - 1), min_size=len(rows),
                                              max_size=len(rows))))
        level = np.ascontiguousarray(x.T[:, None, :])
        out, ok = _kernels.extend(level, plan, np.arange(len(rows)), members)
        assert out.dtype == INT16 and (out >= MASKED16).all()
        for b, j in enumerate(members):
            want = naive_matmul(rows[b:b + 1], grids[j])
            assert python_grid(out[:, :, b].T, out[:, :, b].T > FLOOR16) == want

    def test_extremes_and_masked_sums(self):
        # x = (2**13 - 1, -inf, -(2**13 - 1)) times D = diag(0, 0, 0), whose
        # off-diagonal entries are masked inside the union with the all-0
        # member Z: the step forms -2**15 at x's masked entry and the
        # extremes at the others, and keeps both exact.
        mem_num = np.zeros((2, 3, 3), dtype=np.int64)
        mem_fin = np.stack([np.eye(3, dtype=bool), np.ones((3, 3), dtype=bool)])
        plan = _kernels._plan(encode(mem_num, mem_fin, INT16))
        x = encode(np.array([EDGE16, 0, -EDGE16]), np.array([True, False, True]), INT16)
        terms = x.take(plan[0], axis=0) + plan[1][0]
        assert terms.dtype == INT16 and int(terms.min()) == -(1 << 15)
        rows = python_grid([[EDGE16, 0, -EDGE16]], [[True, False, True]])
        for s, want in ((0, [[EDGE16, None, -EDGE16]]), (1, [[EDGE16] * 3])):
            assert naive_matmul(rows, python_grid(mem_num[s], mem_fin[s])) == want
            got = _kernels._step(x, plan, s)
            assert python_grid(got[None], got[None] > FLOOR16) == want
        # A matrix S with entries at the extremes, not rank-one, times D
        # (itself) and times Z (every entry 2**13 - 1, rank-one).
        square = encode(np.array([[EDGE16, 0, -EDGE16], [0, EDGE16, 0], [-EDGE16, 0, EDGE16]]),
                        np.ones((3, 3), dtype=bool), INT16)
        out, ok = _kernels.extend(square.T[..., None].copy(), plan, np.zeros(2, dtype=np.intp),
                                  np.arange(2))
        for b in range(2):
            want = naive_matmul(python_grid(square, square > FLOOR16),
                                python_grid(mem_num[b], mem_fin[b]))
            assert python_grid(out[:, :, b].T, out[:, :, b].T > FLOOR16) == want
            assert ok[b] == is_rank_one(want)
        assert ok.tolist() == [False, True]


class TestOracleAgreement:
    """The sentinel kernels against the earlier masked numpy kernels, which
    follow one start at a time; masked numerators are excluded."""

    def test_matmul(self):
        for mem_num, mem_fin in oracle_cases():
            args = (mem_num[0], mem_fin[0], mem_num[-1], mem_fin[-1])
            assert_masked_equal(NUMPY_BACKEND.matmul(*args), masked_matmul(*args))

    def test_fold(self):
        rng = np.random.default_rng(5)
        for mem_num, mem_fin in oracle_cases():
            for k in (1, 2, 17):
                seq = random_seq(rng, mem_num.shape[0], k)
                assert_masked_equal(
                    NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                    masked_fold(mem_num, mem_fin, seq),
                )

    def test_factored_fold_on_synthetic_sequences(self, branch_spy):
        # Long sequences over admissible members turn rank-one early, so
        # most of each fold is the vector sweep: each fold absorbs once.
        for seed, n in enumerate((5, 12, 24, 5, 12, 24)):
            rng = np.random.default_rng(100 + seed)
            mem_num, mem_fin = admissible_members(rng, 3, n)
            seq = random_seq(rng, 3, 200)
            assert onset_layer(mem_num, mem_fin, seq) is not None
            assert_masked_equal(
                NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                masked_fold(mem_num, mem_fin, seq),
            )
        assert branch_spy.folds == [1] * 6

    def test_fold_of_one_to_five_factors(self):
        rng = np.random.default_rng(9)
        cases = list(oracle_cases()) + [admissible_members(rng, 2, n) for n in (1, 3, 6)]
        cases.append(stage_members(4))
        for mem_num, mem_fin in cases:
            for k in range(1, 6):
                for _ in range(3):
                    seq = random_seq(rng, mem_num.shape[0], k)
                    assert_masked_equal(
                        NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                        masked_fold(mem_num, mem_fin, seq),
                    )

    @pytest.mark.parametrize("onset", [PROBE_STRIDE, PROBE_STRIDE + 1,
                                       2 * PROBE_STRIDE, 2 * PROBE_STRIDE + 1])
    def test_prefix_rank_one_on_and_after_a_probe_layer(self, onset):
        # D^(onset - 1) (x) R is the first rank-one prefix; random members
        # follow, with and without a -inf (1, 1) entry.
        rng = np.random.default_rng(onset)
        n = 5
        stage_num, stage_fin = stage_members(n)
        rand_num, rand_fin = random_members(rng, 3, n, 0.6)
        rand_fin[0, 0, 0] = False
        mem_num = np.concatenate([stage_num, rand_num])
        mem_fin = np.concatenate([stage_fin, rand_fin])
        for tail in (0, 1, 2, 7):
            seq = np.concatenate([np.zeros(onset - 1, np.int64), [1],
                                  rng.integers(0, 5, size=tail)])
            want = -(-onset // PROBE_STRIDE) * PROBE_STRIDE
            assert onset_layer(mem_num, mem_fin, seq) == (want if want < len(seq) else None)
            assert_masked_equal(
                NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                masked_fold(mem_num, mem_fin, seq),
            )

    def test_fold_that_never_turns_rank_one(self):
        rng = np.random.default_rng(12)
        n = 6
        # Non-admissible members: the diagonal of stage_members, and
        # weighted permutation matrices, whose products stay permutations.
        diag_num, diag_fin = stage_members(n)
        perm_num = rng.integers(-9, 10, size=(3, n, n)).astype(np.int64)
        perm_fin = np.zeros((3, n, n), dtype=bool)
        for j in range(3):
            perm_fin[j, np.arange(n), rng.permutation(n)] = True
        # A -inf pivot: row 0 of member 0 is masked, so every product that
        # starts with it keeps a masked row 0.
        pivot_num, pivot_fin = admissible_members(rng, 2, n)
        pivot_fin[0, 0, :] = False
        for (mem_num, mem_fin), first in (((diag_num[:1], diag_fin[:1]), None),
                                          ((perm_num, perm_fin), None),
                                          ((pivot_num, pivot_fin), 0)):
            for k in (4, 9, 16, 33):
                seq = random_seq(rng, mem_num.shape[0], k)
                if first is not None:
                    seq[0] = first
                assert onset_layer(mem_num, mem_fin, seq) is None
                assert_masked_equal(
                    NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                    masked_fold(mem_num, mem_fin, seq),
                )

    def test_masked_pivot_member_after_a_rank_one_prefix(self):
        rng = np.random.default_rng(13)
        for n in (3, 8):
            mem_num, mem_fin = admissible_members(rng, 3, n)
            mem_fin[2, 0, 0] = False
            prefix = random_seq(rng, 2, 40)
            onset = onset_layer(mem_num, mem_fin, prefix)
            assert onset is not None
            for position in (onset, onset + 1, 39):
                seq = prefix.copy()
                seq[position:position + 2] = 2
                assert onset_layer(mem_num, mem_fin, seq) == onset
                assert_masked_equal(
                    NUMPY_BACKEND.fold(mem_num, mem_fin, seq),
                    masked_fold(mem_num, mem_fin, seq),
                )

    def test_fold_probe_is_the_rank_one_mask_test(self):
        # The fold probe and the scans read encoded products;
        # rank_one_factor decides decoded ones.  Both must decide every
        # matrix the same way.
        rng = np.random.default_rng(14)
        for n in (1, 2, 3, 6):
            x_num, x_fin = random_members(rng, 200, n, 0.8)
            y_num, y_fin = random_members(rng, 200, n, 0.8)
            outer = x_num[:, :, :1] + y_num[:, :1, :]
            outer_fin = x_fin[:, :, :1] & y_fin[:, :1, :]
            num = np.concatenate([outer, random_members(rng, 200, n, 0.9)[0]])
            fin = np.concatenate([outer_fin, rng.random(size=(200, n, n)) < 0.9])
            fin[::5, rng.integers(0, n), :] = False
            fin[1::5, :, rng.integers(0, n)] = False
            num[2::7] += 1 - 2 * (rng.random(size=num[2::7].shape) < 0.1)
            enc = _kernels.encode(num, fin)
            level = as_level(enc)
            probe = _kernels.rank_one(level, level > FLOOR)
            mask = _kernels.rank_one(*decode(level))
            assert np.array_equal(probe, mask)
            want = [is_rank_one(np.where(f, a, None).tolist()) for a, f in zip(num, fin)]
            assert probe.tolist() == want
            # A single matrix, alone or as a stack of one, stops early on a
            # failed pivot or pattern; the verdict is the same.
            for one, verdict in zip(enc, want):
                assert _kernels.rank_one(one, one > FLOOR) == verdict
                alone = one[..., None]
                assert _kernels.rank_one(alone, alone > FLOOR).tolist() == [verdict]
            assert 0 < probe.sum() < len(probe)

    def test_stacked_fold_and_level_step(self):
        # A (B, k) stack folds product by product through extend, and one
        # level step of the exhaustive scan extends product p by member j
        # in product p * m + j.  A chunk holds 2**16 // (n * D * n)
        # products for the members' plan padded to depth D: 128 for dense
        # members at n = 8, so B = 300 spans three chunks, and 400
        # arbitrary pairs four.
        rng = np.random.default_rng(8)
        chunked = []
        for mem_num, mem_fin in oracle_cases():
            m, n, _ = mem_num.shape
            plan = _kernels._plan(_kernels.encode(mem_num, mem_fin))
            chunked.append(len(_kernels._chunks(300, n * plan[0].size)))
            seqs = rng.integers(0, m, size=(300, 3))
            num, fin = stacked_fold(mem_num, mem_fin, seqs)
            assert num.shape == fin.shape == (300, n, n)
            keys = np.arange(300 * m)
            level, _ = _kernels.extend(as_level(encode(num, fin)), plan, keys // m, keys % m)
            assert level.shape == (n, n, 300 * m)
            level = from_level(level)
            for b in range(0, 300, 7):
                assert_masked_equal((num[b], fin[b]), masked_fold(mem_num, mem_fin, seqs[b]))
                for j in range(m):
                    want = masked_fold(mem_num, mem_fin, np.append(seqs[b], j))
                    assert_masked_equal(decode(level[b * m + j]), want)
            # The sampled scan's pairs repeat parents in any order.
            parents, members = rng.integers(0, 300, size=400), rng.integers(0, m, size=400)
            level, _ = _kernels.extend(as_level(encode(num, fin)), plan, parents, members)
            level = from_level(level)
            for i in range(0, 400, 9):
                want = masked_fold(mem_num, mem_fin, np.append(seqs[parents[i]], members[i]))
                assert_masked_equal(decode(level[i]), want)
        assert max(chunked) == 3 and min(chunked) == 1

    def test_stacked_rows_turn_rank_one_at_different_probes(self):
        # Row t of the stack has the first rank-one prefix D^(t-1) (x) R,
        # so rows turn rank-one at different probe layers; the tail
        # mixes every member, member 2 with a -inf (1, 1) entry included.
        # The last row is D^k, which never turns rank-one.
        rng = np.random.default_rng(21)
        n, k = 5, 24
        stage_num, stage_fin = stage_members(n)
        rand_num, rand_fin = random_members(rng, 3, n, 0.6)
        rand_fin[0, 0, 0] = False
        mem_num = np.concatenate([stage_num, rand_num])
        mem_fin = np.concatenate([stage_fin, rand_fin])
        onsets = (1, 4, 5, 8, 9, 12, 13, 20, 23)
        rows = []
        for onset in onsets:
            tail = rng.integers(0, 5, size=k - onset)
            tail[:2] = 2
            rows.append(np.concatenate([np.zeros(onset - 1, np.int64), [1], tail]))
        seqs = np.stack(rows + [np.zeros(k, np.int64)])
        for seq, onset in zip(seqs, onsets + (None,)):
            want = None if onset is None else max(PROBE_STRIDE, -(-onset // PROBE_STRIDE) * PROBE_STRIDE)
            assert onset_layer(mem_num, mem_fin, seq) == (want if want and want < k else None)
        num, fin = stacked_fold(mem_num, mem_fin, seqs)
        for b, seq in enumerate(seqs):
            assert_masked_equal((num[b], fin[b]), masked_fold(mem_num, mem_fin, seq))

    def test_stacked_factored_fold_across_chunks(self, monkeypatch):
        # The six members' plan pads 8 columns to depth 4, so at n = 8 a
        # product gathers 256 terms and a chunk holds 256 products, pinned
        # here: 300 products span two chunks.  Two rows in three draw
        # admissible members and turn rank-one; the others draw weighted
        # permutations and never do.  Member 3 has a -inf (1, 1) entry and
        # appears after the onset.
        rng = np.random.default_rng(22)
        n, k = 8, 24
        adm_num, adm_fin = admissible_members(rng, 4, n)
        adm_fin[3, 0, 0] = False
        perm_num = rng.integers(-9, 10, size=(2, n, n)).astype(np.int64)
        perm_fin = np.zeros((2, n, n), dtype=bool)
        for j in range(2):
            perm_fin[j, np.arange(n), rng.permutation(n)] = True
        mem_num = np.concatenate([adm_num, perm_num])
        mem_fin = np.concatenate([adm_fin, perm_fin])
        seqs = rng.integers(0, 3, size=(300, k))
        seqs[:, k - 3] = 3
        seqs[::3] = rng.integers(4, 6, size=(100, k))
        terms = n * _kernels._plan(encode(mem_num, mem_fin))[0].size
        assert terms == 256 and _kernels.CHUNK_ELEMENTS // terms == 256
        monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", 256 * terms)
        assert [part.stop for part in _kernels._chunks(300, terms)] == [256, 512]
        num, fin = stacked_fold(mem_num, mem_fin, seqs)
        for b in range(300):
            assert_masked_equal((num[b], fin[b]), masked_fold(mem_num, mem_fin, seqs[b]))
        for b in (0, 1, 255, 256, 299):
            onset = onset_layer(mem_num, mem_fin, seqs[b])
            assert (onset is None) == (b % 3 == 0)

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("chunk", [None, 1296])
    def test_ragged_stack_ends_each_row_at_its_own_length(self, monkeypatch, drop, chunk):
        # The sampled scan's prefix tree over 9 draws of each
        # length 1..23, over admissible members (whose prefixes turn
        # rank-one) and, in every third draw, weighted permutations (which
        # never do).  Each draw gets the verdict of its own full product,
        # read at its own last layer.  With drop every pivot is finite, so
        # rank-one prefixes leave the tree; without it member 3 has a -inf
        # (1, 1) entry.  The members' plan pads 6 columns to depth 4, so in
        # the second case a product gathers 144 terms and a chunk holds 9.
        if chunk:
            monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", chunk)
        rng = np.random.default_rng(31)
        n, k, samples = 6, 23, 9
        adm_num, adm_fin = admissible_members(rng, 3, n)
        adm_fin[2, 0, 0] = drop
        perm_num = rng.integers(-9, 10, size=(2, n, n)).astype(np.int64)
        perm_fin = np.zeros((2, n, n), dtype=bool)
        for j in range(2):
            perm_fin[j, np.arange(n), np.concatenate([[0], 1 + rng.permutation(n - 1)])] = True
        mem_num = np.concatenate([adm_num, perm_num])
        mem_fin = np.concatenate([adm_fin, perm_fin])
        block = []
        for length in range(1, k + 1):
            draws = rng.integers(1, 4, size=(samples, length)).astype(np.uint8)
            draws[::3] = rng.integers(4, 6, size=(len(draws[::3]), length))
            block.append(draws)
        plan = _kernels.level_plan(encode(mem_num, mem_fin))
        if chunk:
            assert _kernels.CHUNK_ELEMENTS // (n * plan[0].size) == 9
        # The tree's draws as the scan holds them: one flat array of
        # 0-based members, length by length.
        flat = np.concatenate([draws.ravel() for draws in block]).astype(np.int32) - 1
        rank_one = products._tree_verdicts(plan, flat, 1, k, samples, drop)
        assert rank_one.shape == (k, samples)
        verdicts = [(samples, draws[~ok]) for draws, ok in zip(block, rank_one)]
        assert len(verdicts) == k
        absorbed = 0
        for draws, (count, failed) in zip(block, verdicts):
            want = []
            for draw in draws:
                seq = draw.astype(np.int64) - 1
                absorbed += bool(onset_layer(mem_num, mem_fin, seq))
                num, fin = masked_fold(mem_num, mem_fin, seq)
                if not is_rank_one(np.where(fin, num, None).tolist()):
                    want.append(draw.tolist())
            assert count == samples and failed.tolist() == want
        assert 30 < absorbed < k * samples - 30

    def test_one_row_stack_is_the_single_fold(self):
        rng = np.random.default_rng(23)
        cases = [admissible_members(rng, 3, n) for n in (1, 4, 9)] + list(oracle_cases())[::5]
        for mem_num, mem_fin in cases:
            for k in (1, 4, 5, 30):
                seq = random_seq(rng, mem_num.shape[0], k)
                num, fin = stacked_fold(mem_num, mem_fin, seq[None])
                assert num.shape == fin.shape == (1,) + mem_num.shape[1:]
                want = masked_fold(mem_num, mem_fin, seq)
                assert_masked_equal((num[0], fin[0]), want)
                assert_masked_equal(NUMPY_BACKEND.fold(mem_num, mem_fin, seq), want)

    def test_sweeps_serve_every_start_in_one_pass(self):
        rng = np.random.default_rng(6)
        per_start = {
            "forward_full": masked_forward_full,
            "forward_avoid": masked_forward_avoid,
            "backward_avoid": masked_backward_avoid,
        }
        for mem_num, mem_fin in oracle_cases():
            n = mem_num.shape[1]
            starts = np.arange(n)
            for k in (0, 1, 2, 17):
                seq = random_seq(rng, mem_num.shape[0], k)
                for name, oracle in per_start.items():
                    tab = getattr(NUMPY_BACKEND, name)(mem_num, mem_fin, seq, starts)
                    assert tab.shape == (k + 1, n, n)
                    for s in starts:
                        want = oracle(mem_num, mem_fin, seq, s)
                        assert_masked_equal(decode(tab[:, s]), want)
                through = NUMPY_BACKEND.through_anchor(mem_num, mem_fin, seq, starts)
                for s in starts:
                    want = masked_through_anchor(mem_num, mem_fin, seq, s)
                    assert_masked_equal(decode(through[s]), want)
                assert_masked_equal(
                    decode(NUMPY_BACKEND.initial_to_anchor(mem_num, mem_fin, seq)),
                    masked_initial_to_anchor(mem_num, mem_fin, seq),
                )
                assert_masked_equal(
                    decode(NUMPY_BACKEND.final_from_anchor(mem_num, mem_fin, seq)),
                    masked_final_from_anchor(mem_num, mem_fin, seq),
                )


def level_members(rng, n):
    """Four members: admissible ones, member 2 with an all -inf column and
    member 3 with a -inf pivot (for n = 1 both are the one entry)."""
    num, fin = admissible_members(rng, 4, n)
    fin[1, :, n - 1] = False
    fin[2, 0, 0] = False
    return num, fin


def level_stack(rng, rows, n):
    """A stack of rows matrices: outer sums on outer patterns, rank-one
    unless a -inf lands on the pivot, and in every third row arbitrary
    matrices."""
    col, row = rng.integers(-30, 31, size=(2, rows, n))
    col_fin, row_fin = rng.random(size=(2, rows, n)) < 0.8
    num = col[:, :, None] + row[:, None, :]
    fin = col_fin[:, :, None] & row_fin[:, None, :]
    num[::3], fin[::3] = random_members(rng, len(num[::3]), n, 0.7)
    return num.astype(np.int64), fin


class TestLevelKernel:
    """``extend`` forms each product of an (n, n, B) level as one planned
    step of its parent, adding its own member's weights, in chunks of
    products that gather at most ``CHUNK_ELEMENTS`` terms, and returns it
    with its rank-one verdict; ``_step`` multiplies a vector or a
    node-first stack of rows by one member.  The masked products and the
    rank-one definition of the oracles are the reference.  At n = 1 the
    plan holds one entry."""

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_extend_against_masked_products(self, monkeypatch, n, chunk):
        # Levels of 1, 2, 15, 16 and 17 products, and one past the first
        # chunk; with chunk, chunks hold 7 products, so the levels of 15 to
        # 17 span three.  A product gathers n terms per padded plan entry.
        rng = np.random.default_rng(40 + n)
        mem_num, mem_fin = level_members(rng, n)
        mem = encode(mem_num, mem_fin)
        plan = _kernels._plan(mem)
        terms = n * plan[0].size
        if chunk:
            monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", terms * chunk)
        # No chunk holds more rows than CHUNK_ELEMENTS.
        rows = _kernels._chunks(_kernels.CHUNK_ELEMENTS + 1, terms)[0].stop
        assert rows == (chunk or max(1, (1 << 16) // terms))
        verdicts = []
        for size in (1, 2, 15, 16, 17, rows + 1):
            lev_num, lev_fin = level_stack(rng, size, n)
            parents = rng.permutation(size)
            members = np.arange(size) % 4
            out, ok = _kernels.extend(as_level(encode(lev_num, lev_fin)), plan, parents, members)
            assert out.shape == (n, n, size) and ok.shape == (size,)
            out = from_level(out)
            # Every row of a small stack; a sample and the rows at the
            # chunk boundary of the largest.
            check = set(range(0, size, -(-size // 40))) | {size - 1}
            for i in sorted(check | ({rows - 1, rows} & set(range(size)))):
                p, j = parents[i], members[i]
                want = masked_matmul(lev_num[p], lev_fin[p], mem_num[j], mem_fin[j])
                assert_masked_equal(decode(out[i]), want)
                assert ok[i] == is_rank_one(np.where(want[1], want[0], None).tolist())
                verdicts.append(bool(ok[i]))
        assert any(verdicts) and not all(verdicts)

    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_identity_level_extends_to_the_members(self, n):
        rng = np.random.default_rng(50 + n)
        mem_num, mem_fin = level_members(rng, n)
        plan = _kernels._plan(encode(mem_num, mem_fin))
        out, ok = _kernels.extend(_kernels.identity_level(n), plan,
                                  np.zeros(4, dtype=np.intp), np.arange(4))
        out = from_level(out)
        for j in range(4):
            assert_masked_equal(decode(out[j]), (mem_num[j], mem_fin[j]))
            assert ok[j] == is_rank_one(np.where(mem_fin[j], mem_num[j], None).tolist())

    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_product_of_a_vector_and_of_rows(self, n):
        rng = np.random.default_rng(60 + n)
        mem_num, mem_fin = level_members(rng, n)
        plan = _kernels._plan(encode(mem_num, mem_fin))
        for rows in (1, 4):
            x_num = rng.integers(-50, 51, size=(rows, n)).astype(np.int64)
            x_fin = rng.random(size=(rows, n)) < 0.7
            for j in range(4):
                want = masked_matmul(x_num, x_fin, mem_num[j], mem_fin[j])
                got = _kernels._step(encode(x_num, x_fin).T, plan, j)
                assert got.shape == (n, rows)
                assert_masked_equal(decode(got.T), want)
                vector = _kernels._step(encode(x_num[0], x_fin[0]), plan, j)
                assert vector.shape == (n,)
                assert_masked_equal(decode(vector), (want[0][0], want[1][0]))


def masked_taps(tab_num, tab_fin, tap_num, tap_fin):
    """Row l of a single-start masked table (l < k) plus the tap vector of
    layer l + 1, maximised over nodes, as a (numerator, mask) pair."""
    ok = tab_fin & tap_fin
    big = np.where(ok, tab_num + tap_num, np.iinfo(np.int64).min)
    return np.where(ok.any(axis=1), big.max(axis=1), 0), ok.any(axis=1)


def absorption_cases():
    """Member stacks for the absorbing sweeps: the oracle cases (random
    members, none of them rank-one prone, and members whose only edges
    touch node 0, so the cut block is empty), admissible members, which
    turn rank-one, admissible members whose node 1 leaves only to node 0,
    so the cut block's pivot is -inf at every layer, weighted permutations
    that fix node 0, whose cut block never turns rank-one, and the members
    of ``late_arrival_family``."""
    rng = np.random.default_rng(41)
    yield from (("random", case) for case in oracle_cases())
    for n in (1, 2, 3, 5, 8):
        yield "admissible", admissible_members(rng, 3, n)
    for n in (3, 6):
        num, fin = admissible_members(rng, 3, n)
        fin[:, 1, 1:] = False
        yield "masked pivot", (num, fin)
    for n in (3, 5):
        # Permutations that fix node 0: the cut block stays a permutation.
        num = rng.integers(-9, 10, size=(2, n, n)).astype(np.int64)
        fin = np.zeros((2, n, n), dtype=bool)
        for j in range(2):
            fin[j, np.arange(n), np.append(0, 1 + rng.permutation(n - 1))] = True
        yield "permutation", (num, fin)
    for n in (2, 4, 7):
        num, fin, _ = late_arrival_family(random.Random(n), n).stacked
        yield "late arrival", (num, fin)


def planned_stacks(family5):
    """Encoded layer stacks for the planned product step: members whose
    columns have no in-edge in any member, members with differing
    patterns (as ``--force`` and ``transient`` pass them), the cut, sink
    and lifted edits of admissible members and of the five-node fixture,
    whose members share one pattern, and fully dense members."""
    rng = np.random.default_rng(80)
    for n in (1, 2, 4, 7):
        num, fin = random_members(rng, 3, n, 0.6)
        fin[:, :, rng.permutation(n)[:max(1, n // 2)]] = False
        yield "empty columns", encode(num, fin)
    for n in (2, 5, 8):
        yield "differing patterns", encode(*random_members(rng, 3, n, 0.4))
    edits = (("cut", _kernels._cut), ("sink", _kernels._sink), ("lifted", _kernels._lifted))
    fixture = encode(*family5.stacked[:2])
    for mem in [encode(*admissible_members(rng, 3, n)) for n in (1, 3, 6)] + [fixture]:
        for name, edit in edits:
            yield name, edit(mem)
    yield "fixture", fixture
    yield "dense", encode(*random_members(rng, 2, 6, 1.0))


class TestPlannedStep:
    """The planned product step, and every kernel that runs on it, against
    the masked oracles on the stacks of ``planned_stacks``."""

    def test_plan_pads_every_column_of_the_union_pattern(self, family5):
        # Column c lists its in-neighbours on the union in ascending order,
        # with each layer's weights, then node 0 at weight MASKED down to
        # the largest in-degree, at least 1.
        for _, layers in planned_stacks(family5):
            src, weights = _kernels._plan(layers)
            union = (layers > FLOOR).any(axis=0)
            count = union.sum(axis=0)
            assert src.shape == (max(1, count.max()), layers.shape[2])
            assert weights.shape == (len(layers),) + src.shape
            for c in range(layers.shape[2]):
                inner = src[:count[c], c]
                assert inner.tolist() == np.flatnonzero(union[:, c]).tolist()
                assert (weights[:, :count[c], c] == layers[:, inner, c]).all()
                assert (src[count[c]:, c] == 0).all()
                assert (weights[:, count[c]:, c] == MASKED).all()

    def test_step_matches_the_masked_product(self, family5):
        rng = np.random.default_rng(81)
        for kind, layers in planned_stacks(family5):
            n, (mem_num, mem_fin) = layers.shape[1], decode(layers)
            plan = _kernels._plan(layers)
            for rows in (1, 3):
                x_num = rng.integers(-50, 51, size=(rows, n)).astype(np.int64)
                x_fin = rng.random(size=(rows, n)) < 0.7
                x = encode(x_num, x_fin)
                for s in range(len(layers)):
                    want = masked_matmul(x_num, x_fin, mem_num[s], mem_fin[s])
                    got = _kernels._step(x.T, plan, s)
                    assert (got >= MASKED).all()
                    assert_masked_equal(decode(got.T), want)
                    assert_masked_equal(decode(_kernels._step(x[0], plan, s)),
                                        (want[0][0], want[1][0]))
                    # The plan of the layer alone, as matmul makes it.
                    alone = _kernels._plan(layers[s:s + 1])
                    assert_masked_equal(decode(_kernels._step(x.T, alone, 0).T), want)

    def test_sweep_matches_the_masked_oracle(self, family5):
        rng = np.random.default_rng(82)
        for _, layers in planned_stacks(family5):
            n, (mem_num, mem_fin) = layers.shape[1], decode(layers)
            for k in (0, 1, 2, 9):
                seq = random_seq(rng, len(layers), k)
                tab = _kernels._sweep(layers, seq, _kernels._units(n, np.arange(n)))
                last = _kernels._sweep(layers, seq, _kernels._units(n, np.arange(n)), table=False)
                assert tab.shape == (k + 1, n, n) and np.array_equal(tab[-1], last)
                for r in range(n):
                    assert_masked_equal(decode(tab[:, :, r]),
                                        masked_forward_full(mem_num, mem_fin, seq, r))

    def test_absorbing_sweep_matches_the_masked_oracles(self, family5, seq44):
        rng = np.random.default_rng(83)
        fixture = np.array(seq44.indices, dtype=np.int64) - 1
        for kind, layers in planned_stacks(family5):
            n, (mem_num, mem_fin) = layers.shape[1], decode(layers)
            tap_num = rng.integers(-50, 51, size=(len(layers), n)).astype(np.int64)
            tap_fin = rng.random(size=(len(layers), n)) < 0.7
            seqs = [random_seq(rng, len(layers), k) for k in (1, 2, 5, 9, 30)]
            if kind == "fixture":
                seqs.append(fixture)
            for seq in seqs:
                _, product = _kernels._absorbing_sweep(layers, seq)
                assert_masked_equal(product, masked_fold(mem_num, mem_fin, seq))
                out, product = _kernels._absorbing_sweep(layers, seq, encode(tap_num, tap_fin))
                assert_masked_equal(product, masked_fold(mem_num, mem_fin, seq))
                assert (out[0] == MASKED).all()
                for l in range(1, len(seq) + 1):
                    tap = (tap_num[seq[l - 1]][:, None], tap_fin[seq[l - 1]][:, None])
                    if l == 1:
                        want = tap
                    else:
                        want = masked_matmul(*masked_fold(mem_num, mem_fin, seq[:l - 1]), *tap)
                    assert_masked_equal(decode(out[l]), (want[0][:, 0], want[1][:, 0]))

    def test_walk_table_matches_the_masked_oracle(self, family5):
        for _, layers in planned_stacks(family5):
            n = layers.shape[1]
            for s in range(len(layers)):
                mem_num, mem_fin = (x[s:s + 1] for x in decode(layers))
                for start in range(n):
                    state = _kernels._units(n, start)
                    tab = _kernels.walk_table(layers[s], state, n)
                    assert_masked_equal(decode(tab), masked_forward_full(
                        mem_num, mem_fin, np.zeros(n, dtype=np.int64), start))

    def test_fixpoint_is_the_best_walk_of_any_length(self, family5):
        # With every cycle of weight <= 0 the fixpoint is the running max
        # of the walk table up to n - 1 steps; the anchor paths are the
        # closure's column and row 0 (entry 0 the empty walk).
        rng = random.Random(84)
        for _ in range(40):
            fam = random_valid_family(rng, rng.randint(1, 7), rng.randint(1, 3))
            a = encode(fam.a_inf._num, fam.a_inf._fin)
            n = len(a)
            cut = _kernels._cut(a[None])[0]
            base = np.where(np.arange(n) > 0, a[:, 0], MASKED)
            want = _kernels.walk_table(cut.T, base, n).max(axis=0)
            assert np.array_equal(_kernels.fixpoint(cut.T, base), want)
            into, out_of = _kernels.anchor_paths(a)
            loopless = a.copy()
            loopless[0, 0] = MASKED
            closed = _kernels.closure(loopless)
            for line, want in ((into, closed[:, 0]), (out_of, closed[0])):
                assert line[0] == 0
                assert_masked_equal(decode(line[1:]), decode(want[1:]))

    def test_fixpoint_raises_past_n_steps(self):
        # A positive cycle never settles.
        a = encode(np.array([[0, 1], [1, 0]]), np.array([[False, True], [True, False]]))
        with pytest.raises(RuntimeError, match="did not converge"):
            _kernels.fixpoint(a, _kernels._units(2, 0))

    def test_through_table_blocks_agree(self, family5, seq44, monkeypatch):
        seq = np.array(seq44.indices, dtype=np.int64) - 1
        mem = encode(*family5.stacked[:2])
        into, _ = _kernels.avoiding_sweep(mem, seq)
        departures, _ = _kernels.avoiding_sweep(*_kernels._mirror(mem, seq))
        whole = _kernels._through_table(into, departures)
        # A start gathers one term per padded entry of the departures'
        # plan, so chunks of 2 of the 5 starts.
        terms = _kernels._plan(departures[None, ::-1])[0].size
        monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", 2 * terms)
        assert len(_kernels._chunks(len(whole), terms)) == 3
        assert np.array_equal(_kernels._through_table(into, departures), whole)


@st.composite
def level_steps(draw):
    """A level step for ``extend``: an encoded (B, n, n) stack of the
    level's products (``as_level`` makes it the level), m members as
    a (numerator, mask) pair, parent and member indices, and the rows of
    a chunk, or None for the default chunks.  n runs from 1; every member
    draws its own finite pattern; one column may be masked in every
    member, so the plan gets its masked entry; level rows are outer sums
    on outer patterns (rank-one unless the pivot is -inf) or arbitrary;
    and with chunks of 1 to 3 rows, every step forms more products than
    one chunk holds."""
    def values(shape):
        size = int(np.prod(shape))
        value = st.one_of(st.integers(-50, 50), st.sampled_from([-(1 << 59), 1 << 59]))
        return np.array(draw(st.lists(value, min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)

    def flags(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)

    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    mem_num, mem_fin = values((m, n, n)), flags((m, n, n))
    if draw(st.booleans()):
        mem_fin[:, :, draw(st.integers(0, n - 1))] = False
    size = draw(st.integers(1, 6))
    lev_num = np.empty((size, n, n), dtype=np.int64)
    lev_fin = np.empty((size, n, n), dtype=bool)
    for b in range(size):
        if draw(st.booleans()):
            lev_num[b] = values((n, 1)) + values((1, n))
            lev_fin[b] = flags((n, 1)) & flags((1, n))
        else:
            lev_num[b], lev_fin[b] = values((n, n)), flags((n, n))
    chunk = draw(st.one_of(st.none(), st.integers(1, 3)))
    rows = draw(st.integers(1, 12) if chunk is None else st.integers(chunk + 1, 3 * chunk + 1))
    parents = np.array(draw(st.lists(st.integers(0, size - 1), min_size=rows, max_size=rows)))
    members = np.array(draw(st.lists(st.integers(0, m - 1), min_size=rows, max_size=rows)))
    return encode(lev_num, lev_fin), (mem_num, mem_fin), parents, members, chunk


class TestPlannedLevelStep:
    """``extend`` on the members' plan and ``matmul`` on the plan of its
    right factor, against the masked product and the rank-one definition
    of the oracles."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=level_steps())
    def test_extend_matches_the_masked_products(self, case):
        level, (mem_num, mem_fin), parents, members, chunk = case
        n = level.shape[-1]
        plan = _kernels._plan(encode(mem_num, mem_fin))
        terms = n * plan[0].size
        limit = terms * chunk if chunk else _kernels.CHUNK_ELEMENTS
        with mock.patch.object(_kernels, "CHUNK_ELEMENTS", limit):
            if chunk:
                assert len(_kernels._chunks(len(parents), terms)) == -(-len(parents) // chunk) > 1
            out, ok = _kernels.extend(as_level(level), plan, parents, members)
        assert out.shape == (n, n, len(parents)) and ok.shape == (len(parents),)
        assert (out >= MASKED).all()
        out = from_level(out)
        lev_num, lev_fin = decode(level)
        for i, (p, j) in enumerate(zip(parents, members)):
            want = masked_matmul(lev_num[p], lev_fin[p], mem_num[j], mem_fin[j])
            assert_masked_equal(decode(out[i]), want)
            assert ok[i] == is_rank_one(np.where(want[1], want[0], None).tolist())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matmul_of_rectangular_factors(self, data):
        # (r, n) times (n, c), one column of b masked throughout.
        r, n, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        entries = st.integers(-(1 << 59), 1 << 59)

        def grid(rows, cols):
            num = data.draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols))
            fin = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
            return (np.array(num, dtype=np.int64).reshape(rows, cols),
                    np.array(fin).reshape(rows, cols))

        a_num, a_fin = grid(r, n)
        b_num, b_fin = grid(n, c)
        b_fin[:, data.draw(st.integers(0, c - 1))] = False
        got = NUMPY_BACKEND.matmul(a_num, a_fin, b_num, b_fin)
        assert got[0].shape == got[1].shape == (r, c)
        assert_masked_equal(got, masked_matmul(a_num, a_fin, b_num, b_fin))


@st.composite
def node_first_steps(draw):
    """Members as a (numerator, mask) pair whose union pattern has one of
    three shapes: arbitrary, one column with no in-edge in any member, or
    one column of in-degree n beside columns of in-degree 1 (the largest
    padding); n runs from 1.  Values are small or near the guard."""
    def values(shape):
        size = int(np.prod(shape))
        value = st.one_of(st.integers(-50, 50), st.sampled_from([-(1 << 59), 1 << 59]))
        return np.array(draw(st.lists(value, min_size=size, max_size=size)),
                        dtype=np.int64).reshape(shape)

    def flags(shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)

    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    fin = flags((m, n, n))
    shape = draw(st.sampled_from(["arbitrary", "empty column", "padded"]))
    column = draw(st.integers(0, n - 1))
    if shape == "empty column":
        fin[:, :, column] = False
    elif shape == "padded":
        # Each other column keeps one source, in some member.
        fin[:, :, :] = False
        fin[0, :, column] = True
        for c in range(n):
            if c != column:
                fin[draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1)), c] = True
    return values((m, n, n)), fin, shape


class TestNodeFirstStep:
    """The planned product step on the padded plan, for every node-first
    state, against the masked product of the oracles: through ``_step``, a
    vector x gives x (x) A and a state X^T of r starts gives
    (X (x) A)^T; through ``extend``, a level of B products gives each
    product times its own member, in one chunk and in chunks of 1 to 3
    products."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(case=node_first_steps(), data=st.data())
    def test_step_matches_the_masked_product(self, case, data):
        mem_num, mem_fin, shape = case
        m, n, _ = mem_num.shape
        plan = _kernels._plan(encode(mem_num, mem_fin))
        union = mem_fin.any(axis=0).sum(axis=0)
        if shape == "padded":
            assert plan[0].shape == (n, n) and sorted(union) == [1] * (n - 1) + [n]
        elif shape == "empty column":
            assert plan[0].shape[0] == max(1, union.max())

        def state(*shape):
            num = data.draw(st.lists(st.integers(-(1 << 59), 1 << 59), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))
            fin = data.draw(st.lists(st.booleans(), min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape))))
            return np.array(num, dtype=np.int64).reshape(shape), np.array(fin).reshape(shape)

        s = data.draw(st.integers(0, m - 1))
        x_num, x_fin = state(n)
        got = _kernels._step(encode(x_num, x_fin), plan, s)
        want = masked_matmul(x_num[None], x_fin[None], mem_num[s], mem_fin[s])
        assert got.shape == (n,) and (got >= MASKED).all()
        assert_masked_equal(decode(got), (want[0][0], want[1][0]))

        r = data.draw(st.integers(1, 4))
        x_num, x_fin = state(r, n)
        got = _kernels._step(encode(x_num, x_fin).T, plan, s)
        assert got.shape == (n, r) and (got >= MASKED).all()
        assert_masked_equal(decode(got.T), masked_matmul(x_num, x_fin, mem_num[s], mem_fin[s]))

        size = data.draw(st.integers(1, 8))
        lev_num, lev_fin = state(size, n, n)
        level = as_level(encode(lev_num, lev_fin))
        members = np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=size,
                                              max_size=size)))
        got, _ = _kernels.extend(level, plan, np.arange(size), members)
        assert got.shape == (n, n, size) and (got >= MASKED).all()
        chunk = data.draw(st.integers(1, 3))
        terms = n * plan[0].size
        with mock.patch.object(_kernels, "CHUNK_ELEMENTS", terms * chunk):
            assert len(_kernels._chunks(size, terms)) == -(-size // chunk)
            chunked, ok = _kernels.extend(level, plan, np.arange(size), members)
        assert np.array_equal(chunked, got)
        for b, j in enumerate(members):
            want = masked_matmul(lev_num[b], lev_fin[b], mem_num[j], mem_fin[j])
            assert_masked_equal(decode(from_level(got)[b]), want)
            assert ok[b] == is_rank_one(np.where(want[1], want[0], None).tolist())


class TestRankOneAbsorption:
    """The absorbing sweeps and the through sweep and table against the
    single-start masked oracles, with absorptions counted."""

    LENGTHS = (0, 1, 2, 4, 5, 8, 9, 17, 40, 60)

    def test_avoiding_sweeps_match_masked_oracles(self, branch_spy):
        rng = np.random.default_rng(42)
        absorbs = {}
        for kind, (mem_num, mem_fin) in absorption_cases():
            n = mem_num.shape[1]
            mem = encode(mem_num, mem_fin)
            before = branch_spy.absorbs
            for k in self.LENGTHS:
                seq = random_seq(rng, mem_num.shape[0], k)
                into, final = _kernels.avoiding_sweep(mem, seq)
                departures, _ = _kernels.avoiding_sweep(mem.transpose(0, 2, 1), seq[::-1])
                assert into.shape == departures.shape == (k + 1, n)
                assert (into[0] <= FLOOR).all() and (departures[0] <= FLOOR).all()
                for r in range(n):
                    tab = masked_forward_avoid(mem_num, mem_fin, seq, r)
                    assert_masked_equal(decode(final[r]), (tab[0][k], tab[1][k]))
                    want = masked_taps(tab[0][:-1], tab[1][:-1],
                                       mem_num[seq, :, 0], mem_fin[seq, :, 0])
                    assert_masked_equal(decode(into[1:, r]), want)
                    tab = masked_backward_avoid(mem_num, mem_fin, seq, r)
                    want = masked_taps(tab[0][1:], tab[1][1:],
                                       mem_num[seq, 0, :], mem_fin[seq, 0, :])
                    assert_masked_equal(decode(departures[:0:-1, r]), want)
            absorbs[kind] = absorbs.get(kind, 0) + branch_spy.absorbs - before
        assert absorbs["admissible"] > 0
        assert absorbs["masked pivot"] == absorbs["permutation"] == 0

    def test_through_sweep_matches_masked_oracle(self, branch_spy):
        rng = np.random.default_rng(43)
        for kind, (mem_num, mem_fin) in absorption_cases():
            n = mem_num.shape[1]
            starts = np.arange(n)
            mem = encode(mem_num, mem_fin)
            for k in self.LENGTHS:
                seq = random_seq(rng, mem_num.shape[0], k)
                if kind == "late arrival":
                    # Member 1 until layer 9, then member 2 lets every
                    # start arrive above its first arrival.
                    seq[:9] = 0
                    seq[9:10] = 1
                through = NUMPY_BACKEND.through_anchor(mem_num, mem_fin, seq, starts)
                for s in starts:
                    want = masked_through_anchor(mem_num, mem_fin, seq, s)
                    assert_masked_equal(decode(through[s]), want)
                # One start at a time.
                s = int(rng.integers(0, n))
                one = NUMPY_BACKEND.through_anchor(mem_num, mem_fin, seq, [s])
                assert_masked_equal(decode(one[0]), decode(through[s]))
                # The absorbing sweep's first arrivals at node 0, kept up to
                # each layer, are column 0 of the sink sweep, for any family.
                into, _ = _kernels.avoiding_sweep(mem, seq)
                sink = _kernels._sweep(_kernels._sink(mem), seq, _kernels._units(n, starts))
                assert_masked_equal(decode(np.maximum.accumulate(into, axis=0)[:, 1:]),
                                    decode(sink[:, 0, 1:]))
        assert branch_spy.absorbs > 0

    def test_through_table_matches_masked_oracle(self, family5, seq44):
        # For admissible members node 0's weight-0 loop is the only
        # critical cycle, so the table joined from the two avoiding sweeps
        # is the best walk through node 0 from every start.  The late
        # arrivals (member 1 until layer 9, then member 2) rise above the
        # first arrival of every start.
        rng = np.random.default_rng(46)
        cases = [(kind, stack) for kind, stack in absorption_cases()
                 if kind in ("admissible", "masked pivot", "late arrival")]
        cases.append(("fixture", family5.stacked[:2]))
        for kind, (mem_num, mem_fin) in cases:
            n = mem_num.shape[1]
            mem = encode(mem_num, mem_fin)
            seqs = [random_seq(rng, mem_num.shape[0], k) for k in self.LENGTHS]
            if kind == "late arrival":
                for seq in seqs[-3:]:
                    seq[:9] = 0
                    seq[9] = 1
            if kind == "fixture":
                seqs.append(np.array(seq44.indices, dtype=np.int64) - 1)
            for seq in seqs:
                into, _ = _kernels.avoiding_sweep(mem, seq)
                departures, _ = _kernels.avoiding_sweep(*_kernels._mirror(mem, seq))
                through = _kernels._through_table(into, departures)
                assert through.shape == (n, n) and (through >= MASKED).all()
                for s in range(n):
                    want = masked_through_anchor(mem_num, mem_fin, seq, s)
                    assert_masked_equal(decode(through[s]), want)

    def test_anchor_vectors_are_the_table_maxima(self):
        # check_lemma_bounds reads w* and v* off the two avoiding sweeps:
        # the best arrival at node 0 over all layers, and the best
        # departure from it, with node 0's empty walk (weight 0) in entry
        # 0.  This holds for any members, admissible or not.
        rng = np.random.default_rng(47)
        minus_inf_pivot = 0
        for _, (mem_num, mem_fin) in absorption_cases():
            if mem_num.shape[1] > 6:
                continue
            minus_inf_pivot += not mem_fin[:, 0, 0].all()
            mem = encode(mem_num, mem_fin)
            for k in (0, 1, 2, 3, 4, 5, 8, 9, 17, 40):
                seq = random_seq(rng, mem_num.shape[0], k)
                into, _ = _kernels.avoiding_sweep(mem, seq)
                departures, _ = _kernels.avoiding_sweep(*_kernels._mirror(mem, seq))
                for table, kernel in ((into, NUMPY_BACKEND.initial_to_anchor),
                                      (departures, NUMPY_BACKEND.final_from_anchor)):
                    best = table.max(axis=0)
                    best[0] = 0
                    assert_masked_equal(decode(best), decode(kernel(mem_num, mem_fin, seq)))
        assert minus_inf_pivot > 0

    def test_tap_tables_are_clamped_to_masked(self, family5, seq44):
        # Every tap reduction is clamped back up to MASKED, so two of these
        # tables can be added without leaving int64.
        rng = np.random.default_rng(48)
        fixture = np.array(seq44.indices, dtype=np.int64) - 1
        cases = [(stack, []) for _, stack in absorption_cases()]
        cases.append((family5.stacked[:2], [fixture]))
        for (mem_num, mem_fin), extra in cases:
            n = mem_num.shape[1]
            mem = encode(mem_num, mem_fin)
            for seq in [random_seq(rng, mem_num.shape[0], k) for k in self.LENGTHS] + extra:
                tables = (*_kernels.avoiding_sweep(mem, seq),
                          *_kernels.avoiding_sweep(mem.transpose(0, 2, 1), seq[::-1]))
                for table in tables:
                    assert (table >= MASKED).all()

    def test_anchor_walks_are_column_and_row_one_of_the_fold(self, family5):
        # For admissible members node 0's weight-0 loop is the only
        # critical cycle: a walk into node 0 can wait there on the loop,
        # and every other closed walk at node 0 weighs at most 0.  So
        # column 0 of a product is w* and row 0 is v*, which is what the
        # implicit bound reads.
        rng = np.random.default_rng(44)
        cases = [family5.stacked[:2]] + [admissible_members(rng, 3, n) for n in (1, 2, 6)]
        for mem_num, mem_fin in cases:
            for k in range(1, 61):
                seq = random_seq(rng, mem_num.shape[0], k)
                num, fin = masked_fold(mem_num, mem_fin, seq)
                col = decode(NUMPY_BACKEND.initial_to_anchor(mem_num, mem_fin, seq))
                row = decode(NUMPY_BACKEND.final_from_anchor(mem_num, mem_fin, seq))
                assert_masked_equal(col, (num[:, 0], fin[:, 0]))
                assert_masked_equal(row, (num[0], fin[0]))

    def test_absorbed_state_near_the_guard_keeps_masked_slots(self):
        # Layer magnitude p with 5 layers sits just under 2**61.  At the
        # probe after layer 4 the avoiding block is rank-one with column
        # (-4p, 4p) around the pivot, so x reaches 8p and x + MASKED lies
        # above FLOOR: only explicit masks keep the masked slots masked.
        p = JUST_UNDER // 5
        assert 8 * p + int(MASKED) > FLOOR
        node = [[0, None, None], [None, -p, None], [None, None, p]]
        spread = [[0, None, None], [p, -p, -p], [p, p, p]]
        last = [[0, p, p], [-p, -p, None], [-p, None, None]]
        mem_num = np.array([[[0 if x is None else x for x in row] for row in m]
                            for m in (node, spread, last)], dtype=np.int64)
        mem_fin = np.array([[[x is not None for x in row] for row in m]
                            for m in (node, spread, last)])
        seq = np.array([0, 0, 0, 1, 2], dtype=np.int64)
        mem = encode(mem_num, mem_fin)
        into, final = _kernels.avoiding_sweep(mem, seq)
        for r in range(3):
            tab = masked_forward_avoid(mem_num, mem_fin, seq, r)
            assert_masked_equal(decode(final[r]), (tab[0][5], tab[1][5]))
            want = masked_taps(tab[0][:-1], tab[1][:-1], mem_num[seq, :, 0], mem_fin[seq, :, 0])
            assert_masked_equal(decode(into[1:, r]), want)
        block = _kernels._sweep(np.ascontiguousarray(mem[:, 1:, 1:]), seq[:4],
                                _kernels._units(2, [0, 1]), table=False)
        assert _kernels.rank_one(block, block > FLOOR)
        assert not decode(final)[1][1:, 2].any()


class TestNumpyBackendSemantics:
    """Pin down the kernels against a tiny hand model."""

    def test_matmul_all_masked_row(self):
        a_num = np.array([[0, 0], [0, 0]], dtype=np.int64)
        a_fin = np.array([[False, False], [True, True]])
        b_num = np.array([[5, -1], [2, 3]], dtype=np.int64)
        b_fin = np.array([[True, True], [True, False]])
        num, fin = NUMPY_BACKEND.matmul(a_num, a_fin, b_num, b_fin)
        assert not fin[0].any()
        assert fin[1, 0] and num[1, 0] == 5
        assert fin[1, 1] and num[1, 1] == -1

    def test_fold_is_left_to_right(self):
        rng = np.random.default_rng(3)
        mem_num, mem_fin = random_members(rng, 3, 4)
        seq = np.array([2, 0, 1], dtype=np.int64)
        num, fin = NUMPY_BACKEND.fold(mem_num, mem_fin, seq)
        step1 = NUMPY_BACKEND.matmul(mem_num[2], mem_fin[2], mem_num[0], mem_fin[0])
        want = NUMPY_BACKEND.matmul(*step1, mem_num[1], mem_fin[1])
        assert_masked_equal((num, fin), want)

    def test_forward_avoid_blocks_node_zero(self):
        # single edge layer: anything through node 0 must vanish
        mem_num = np.zeros((1, 3, 3), dtype=np.int64)
        mem_fin = np.ones((1, 3, 3), dtype=bool)
        seq = np.array([0], dtype=np.int64)
        num, fin = decode(NUMPY_BACKEND.forward_avoid(mem_num, mem_fin, seq, 1))
        assert not fin[0, 0] and fin[0, 1] and not fin[0, 2]
        assert not fin[1, 0]
        assert fin[1, 1] and fin[1, 2]


def test_active_backend_selection():
    assert _kernels.ACTIVE is NUMPY_BACKEND
    assert _kernels.NUMBA_BACKEND is None


def test_results_identical_across_backends_via_public_api(family5, seq44):
    """End-to-end: the fold over the fixture must not depend on the backend."""
    from tropical_transient.matrix import TropicalMatrix
    from tropical_transient.products import fold

    product = fold(family5, seq44)
    mem_num, mem_fin, den = family5.stacked
    seq0 = np.array([i - 1 for i in seq44.indices], dtype=np.int64)
    num, fin = NUMPY_BACKEND.fold(mem_num, mem_fin, seq0)
    assert TropicalMatrix(num, fin, den) == product


# -- the 2^61 guard ------------------------------------------------------------

JUST_UNDER = (1 << 61) - 1
REJECTED = (1 << 61, (1 << 62) - 1)


def boundary_pair(total, seed):
    """3x3 operands whose guarded magnitude sum is exactly ``total``: the
    left holds +-(total - 1) beside masked entries, the right +-1."""
    rng = np.random.default_rng(seed)
    big = total - 1
    left = [[rng.choice([big, -big, 0, None]) for _ in range(3)] for _ in range(3)]
    right = [[rng.choice([1, -1, 0, None]) for _ in range(3)] for _ in range(3)]
    left[0][0], left[1][1], right[0][0], right[2][2] = big, -big, 1, -1
    to_int = lambda row: [None if x is None else int(x) for x in row]
    return (TropicalMatrix.from_rows([to_int(r) for r in left]),
            TropicalMatrix.from_rows([to_int(r) for r in right]))


def boundary_family(total, length):
    """Two 2x2 members of largest magnitude total // length, so folds of
    ``length`` factors are guarded at just that total."""
    p = total // length
    return MatrixFamily([
        TropicalMatrix.from_rows([[p, -p], [None, -p]]),
        TropicalMatrix.from_rows([[-p, None], [p, 0]]),
    ])


SEQUENCES = [[a, b, c] for a in (1, 2) for b in (1, 2) for c in (1, 2)]


class TestGuardBoundary:
    """Magnitudes just under 2^61 compute exactly; 2^61 and above raise."""

    def test_matmul_just_under_matches_fraction_oracle(self):
        for seed in range(20):
            a, b = boundary_pair(JUST_UNDER, seed)
            assert grid(a @ b) == naive_matmul(grid(a), grid(b))

    def test_fold_just_under_matches_fraction_oracle(self):
        family = boundary_family(JUST_UNDER, 3)
        grids = [grid(m) for m in family.members]
        for seq in SEQUENCES:
            product = fold(family, seq)
            assert grid(product) == naive_fold([grids[i - 1] for i in seq])
        # the extremes are reached: +-3p sits just inside +-2^61
        cube = grid(fold(family, [1, 1, 1]))
        assert cube[0][0] == 3 * (JUST_UNDER // 3)
        assert cube[1][1] == -3 * (JUST_UNDER // 3)

    def test_sweep_just_under_matches_fraction_oracle(self):
        family = boundary_family(JUST_UNDER, 3)
        grids = [grid(m) for m in family.members]
        for seq in SEQUENCES:
            want = naive_fold([grids[i - 1] for i in seq])
            trellis = build_trellis(family, seq)
            for i in (1, 2):
                for j in (1, 2):
                    walk = optimal_full_walk(trellis, i, j)
                    got = None if walk.weight is EPSILON else walk.weight
                    assert got == want[i - 1][j - 1]

    def test_factored_fold_just_under_matches_fraction_oracle(self):
        # D^3 (x) R is rank-one at the first probe layer, with column
        # (-3p, 4p, -4p), so x = (0, 7p, -p) and y = (-3p, -3p, -3p).  E
        # then masks column 2.  Five layers of magnitude p reach the guard,
        # and 7p + MASKED lies above FLOOR: only explicit masks keep the
        # masked column masked.
        k = 5
        p = JUST_UNDER // k
        assert 7 * p + int(MASKED) > FLOOR
        d = TropicalMatrix.from_rows([[-p, None, None], [None, p, None], [None, None, -p]])
        r = TropicalMatrix.from_rows([[0, 0, 0], [p, p, p], [-p, -p, -p]])
        e = TropicalMatrix.from_rows([[p, None, 0], [-p, None, None], [0, None, p]])
        family = MatrixFamily([d, r, e])
        assert family.layer_magnitude * k <= JUST_UNDER
        grids = [grid(m) for m in family.members]
        seq = [1, 1, 1, 2, 3]
        assert PROBE_STRIDE == 4
        assert is_rank_one(naive_fold([grids[i - 1] for i in seq[:4]]))
        assert not is_rank_one(naive_fold([grids[i - 1] for i in seq[:3]]))
        got = grid(fold(family, seq))
        assert got == naive_fold([grids[i - 1] for i in seq])
        assert [row[0] for row in got] == [-2 * p, 5 * p, -3 * p]
        assert [row[1] for row in got] == [None] * 3

    @pytest.mark.parametrize("total", REJECTED)
    def test_matmul_rejects(self, total):
        a, b = boundary_pair(total, 0)
        with pytest.raises(OverflowError):
            a @ b

    @pytest.mark.parametrize("total", REJECTED)
    def test_fold_and_sweep_reject(self, total):
        length = 2 if total == 1 << 61 else 3
        family = boundary_family(total, length)
        assert (total // length) * length == total
        seq = [1] * length
        with pytest.raises(OverflowError):
            fold(family, seq)
        with pytest.raises(OverflowError):
            optimal_full_walk(build_trellis(family, seq), 1, 1)

    def test_entries_below_the_storage_limit_are_kept_exactly(self):
        big = (1 << 62) - 1
        m = TropicalMatrix.from_rows([[big, None], [-big, 0]])
        assert m.entry(0, 0) == Fraction(big)
        assert m.entry(1, 0) == Fraction(-big)
