import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropical_transient import _kernels, products
from tropical_transient._kernels import FLOOR, MASKED, NUMPY_BACKEND, PROBE_STRIDE, decode, encode
from tropical_transient.family import MatrixFamily
from tropical_transient.matrix import TropicalMatrix
from tropical_transient.products import fold
from tropical_transient.trellis import build_trellis, optimal_full_walk

from conftest import late_arrival_family
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


def stacked_fold(mem_num, mem_fin, seqs):
    """Products of a (B, k) stack of sequences as (B, n, n) (numerator,
    mask) arrays, grown one layer at a time by ``extend``: at layer l row b
    times member seqs[b, l]."""
    mem = encode(mem_num, mem_fin)
    level, rows = mem[seqs[:, 0]], np.arange(len(seqs))
    for column in seqs.T[1:]:
        level, _ = _kernels.extend(level, mem, rows, column)
    return decode(level)


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
        assert _kernels.rank_one(num, fin).tolist() == want
        for one, one_fin, verdict in zip(num, fin, want):
            assert _kernels.rank_one(one, one_fin) == verdict


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
            probe = _kernels.rank_one(enc, enc > FLOOR)
            mask = _kernels.rank_one(*decode(enc))
            assert np.array_equal(probe, mask)
            want = [is_rank_one(np.where(f, a, None).tolist()) for a, f in zip(num, fin)]
            assert probe.tolist() == want
            # A single matrix, alone or as a one-row stack, stops early on a
            # failed pivot or pattern; the verdict is the same.
            for one, verdict in zip(enc, want):
                assert _kernels.rank_one(one, one > FLOOR) == verdict
                assert _kernels.rank_one(one[None], one[None] > FLOOR).tolist() == [verdict]
            assert 0 < probe.sum() < len(probe)

    def test_stacked_fold_and_level_step(self):
        # A (B, k) stack folds row by row through extend, and one level
        # step of the exhaustive scan extends product p by member j in row
        # p * m + j.  At n = 8 a chunk holds 2**16 // (4 * 8**2) = 256 rows,
        # so B = 300 spans two chunks, and so do 400 arbitrary pairs.
        rng = np.random.default_rng(8)
        for mem_num, mem_fin in oracle_cases():
            m, n, _ = mem_num.shape
            seqs = rng.integers(0, m, size=(300, 3))
            num, fin = stacked_fold(mem_num, mem_fin, seqs)
            assert num.shape == fin.shape == (300, n, n)
            keys = np.arange(300 * m)
            level, _ = _kernels.extend(_kernels.encode(num, fin), _kernels.encode(mem_num, mem_fin),
                                       keys // m, keys % m)
            assert level.shape == (300 * m, n, n)
            for b in range(0, 300, 7):
                assert_masked_equal((num[b], fin[b]), masked_fold(mem_num, mem_fin, seqs[b]))
                for j in range(m):
                    want = masked_fold(mem_num, mem_fin, np.append(seqs[b], j))
                    assert_masked_equal(decode(level[b * m + j]), want)
            # The sampled scan's pairs repeat parents in any order.
            parents, members = rng.integers(0, 300, size=400), rng.integers(0, m, size=400)
            level, _ = _kernels.extend(_kernels.encode(num, fin), _kernels.encode(mem_num, mem_fin),
                                       parents, members)
            for i in range(0, 400, 9):
                want = masked_fold(mem_num, mem_fin, np.append(seqs[parents[i]], members[i]))
                assert_masked_equal(decode(level[i]), want)

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

    def test_stacked_factored_fold_across_chunks(self):
        # At n = 8 a chunk holds 256 rows, so 300 rows span two chunks.
        # Two rows in three draw admissible members and turn rank-one; the
        # others draw weighted permutations and never do.  Member 3 has a
        # -inf (1, 1) entry and appears after the onset.
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
        num, fin = stacked_fold(mem_num, mem_fin, seqs)
        for b in range(300):
            assert_masked_equal((num[b], fin[b]), masked_fold(mem_num, mem_fin, seqs[b]))
        assert _kernels._chunk_rows(n) == 256
        for b in (0, 1, 255, 256, 299):
            onset = onset_layer(mem_num, mem_fin, seqs[b])
            assert (onset is None) == (b % 3 == 0)

    @pytest.mark.parametrize("drop", [False, True])
    @pytest.mark.parametrize("chunk", [None, 4 * 6 * 6 * 9])
    def test_ragged_stack_ends_each_row_at_its_own_length(self, monkeypatch, drop, chunk):
        # The sampled scan's prefix tree over a block of 9 draws of each
        # length 1..23, over admissible members (whose prefixes turn
        # rank-one) and, in every third draw, weighted permutations (which
        # never do).  Each draw gets the verdict of its own full product,
        # read at its own last layer.  With drop every pivot is finite, so
        # rank-one prefixes leave the tree; without it member 3 has a -inf
        # (1, 1) entry.  The second case runs in chunks of 9 rows.
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
        rank_one = products._prefix_tree_verdicts(encode(mem_num, mem_fin), block, drop)
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
    """``extend`` forms each level product by n rank-1 max updates, in
    chunks of ``_chunk_rows`` rows, and returns it with its rank-one
    verdict; ``_product`` multiplies one state by one matrix as a
    broadcast.  The masked products and the rank-one definition of the
    oracles are the reference.  At n = 1 extend runs no rank-1 update past
    the first sum."""

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_extend_against_masked_products(self, monkeypatch, n, chunk):
        # Stacks of 1, 2, 15, 16 and 17 rows, and one row past the first
        # chunk; with chunk, chunks hold 7 rows, so the stacks of 15 to 17
        # rows span three.
        if chunk:
            monkeypatch.setattr(_kernels, "CHUNK_ELEMENTS", 4 * n * n * chunk)
        rows = _kernels._chunk_rows(n)
        assert rows == (chunk or max(1, (1 << 16) // (4 * n * n)))
        rng = np.random.default_rng(40 + n)
        mem_num, mem_fin = level_members(rng, n)
        mem = encode(mem_num, mem_fin)
        verdicts = []
        for size in (1, 2, 15, 16, 17, rows + 1):
            lev_num, lev_fin = level_stack(rng, size, n)
            parents = rng.permutation(size)
            members = np.arange(size) % 4
            out, ok = _kernels.extend(encode(lev_num, lev_fin), mem, parents, members)
            assert out.shape == (size, n, n) and ok.shape == (size,)
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
        out, ok = _kernels.extend(_kernels.identity_level(n), encode(mem_num, mem_fin),
                                  np.zeros(4, dtype=np.intp), np.arange(4))
        for j in range(4):
            assert_masked_equal(decode(out[j]), (mem_num[j], mem_fin[j]))
            assert ok[j] == is_rank_one(np.where(mem_fin[j], mem_num[j], None).tolist())

    @pytest.mark.parametrize("n", [1, 3, 5, 16])
    def test_product_of_a_vector_and_of_rows(self, n):
        rng = np.random.default_rng(60 + n)
        mem_num, mem_fin = level_members(rng, n)
        for rows in (1, 4):
            x_num = rng.integers(-50, 51, size=(rows, n)).astype(np.int64)
            x_fin = rng.random(size=(rows, n)) < 0.7
            for j in range(4):
                a = encode(mem_num[j], mem_fin[j])
                want = masked_matmul(x_num, x_fin, mem_num[j], mem_fin[j])
                got = _kernels._product(encode(x_num, x_fin), a)
                assert_masked_equal(decode(got), want)
                vector = _kernels._product(encode(x_num[0], x_fin[0]), a)
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
                                    decode(sink[:, 1:, 0]))
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
                    got = walk.weight if walk.exists else None
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
