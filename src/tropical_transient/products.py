"""Folding factor sequences into products and scanning for rank-one onset.

Sequences index family members 1-based, in product order: the sequence
(2, 1, 3) folds to A2 (x) A1 (x) A3.  The transient scan looks for the
first length at which every examined product of that length is rank-one,
either exhaustively (all m^k sequences, budget-guarded) or by seeded
sampling with a named, portable generator (numpy PCG64), so runs are
reproducible across platforms.

Both scans walk a tree of prefixes depth-first from the empty product
(``_walk``): each product of length l, length 1 included, is a product of
length l - 1 times one member, so it costs one matrix product instead of
l - 1.  The level kernel ``_kernels.extend`` forms a group of children of
one length from their parents and returns which of them are rank-one.  A
group of B products is one (n, n, B) array, node-first as the kernels'
states are (entry [c, r, b] is entry (r, c) of product b), so the walk
selects and counts products along its last axis.  The two modes differ
only in the children they name: exhaustive mode extends every product by
every member, and sampled mode extends each distinct prefix of its draws
by the distinct members that follow it, so a tree costs one matrix
product per distinct prefix, not one per draw and layer, and each draw
reads its verdict at its own last layer.

Both scans step their levels in the narrowest of int16, int32 and int64
whose guard, 2^13, 2^29 or 2^61, exceeds every finite value they can
form, ``layer_magnitude * horizon`` (``_kernels.width``); the width
changes no result.

One byte budget (``_BYTE_BUDGET``, 2 MB) bounds what the walk holds.  A
group holds at most 2^18 entries, so 2^18 // n^2 products (one when
n > 512), and the groups waiting to be formed sit on an explicit stack:
the walk holds one formed group per length of its current path.  Each
scan plans its members once (``_kernels.level_plan``), with the weights
batch-last as ``extend`` reads them.

Exhaustive mode names child start + t of a group's children by
position alone: parent row (start + t) // m, member (start + t) % m + 1.
A group holds the member sequences of its parents and the start of its
slice, and forms the sequences of the products it keeps only: the
failing ones, which are also the next length's parents, or every one
when nothing prunes.  The sampled scan draws the lengths in order from
one generator, one call of int32 draws per tree of consecutive lengths
whose draws, at 8 bytes each, fit the budget; a length is never split.
A tree reads each draw's members in place from that flat array, through
the position where the draw starts; starts grow in length order, so the
draws that end at a depth are a prefix of those still live there, and
its per-draw bookkeeping is int32.  Only the lengths with a failing
draw form rows.  The failing sequences stay arrays, one per length
(:class:`Counterexamples`), and become tuples only when read.

A single fold uses rank-one absorption: once a prefix P = x (x) y^T is
rank-one, the rest of the fold only changes y, so it finishes as a vector
sweep; that rests on associativity alone and gives the exact product.
The scans fold every product in full unless every member has a finite
(1, 1) entry, so that every extension of a rank-one product is rank-one
(``_absorbing``).  Then a product that turns rank-one needs no more
work: exhaustive mode extends only the failing products, and sampled
mode drops a rank-one prefix from its tree and counts every draw under it
as rank-one.  Both still report every product as examined, in the same
order: length by length, in itertools.product order or in draw order.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import index
from typing import Optional

import numpy as np

from . import _kernels
from .errors import BudgetExceededError
from .family import MatrixFamily, member_index
from .matrix import _GUARD, TropicalMatrix, _check_magnitude

DEFAULT_PRODUCT_BUDGET = 2_000_000
# Bytes that one piece of scan work may hold: a group of products formed
# by one _kernels.extend call (2^18 entries at 8 bytes), and the draws of
# one sampled prefix tree at 8 bytes each.
_BYTE_BUDGET = 1 << 21


@dataclass(frozen=True)
class ProductSequence:
    """An ordered selection of member indices (1-based) to multiply."""

    indices: tuple[int, ...]

    def __post_init__(self):
        indices = tuple(member_index(pos, x) for pos, x in enumerate(self.indices, start=1))
        object.__setattr__(self, "indices", indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


def fold(family: MatrixFamily, sequence) -> TropicalMatrix:
    """Multiply the selected members left to right.

    The sequence must be nonempty; member indices are validated against
    the family.
    """
    seq0 = _staged_sequence(family, sequence)
    mem_num, mem_fin, den = family.stacked
    num, fin = _kernels.ACTIVE.fold(mem_num, mem_fin, seq0)
    return TropicalMatrix(num, fin, den)


def _staged_sequence(family: MatrixFamily, sequence) -> np.ndarray:
    """The 0-based member indices of a nonempty sequence, checked as
    :func:`fold` checks them (see :meth:`MatrixFamily.stage`)."""
    indices = tuple(getattr(sequence, "indices", sequence))
    if not indices:
        raise ValueError("cannot fold an empty sequence")
    return family.stage(indices, "sequence fold")


class Counterexamples(Sequence):
    """The failing sequences of a scan, in scan order, as a read-only
    sequence of (length, sequence) pairs: an int and a tuple of 1-based
    member indices, as a tuple of such pairs would hold them.

    The scan keeps one (count, k) array of member indices per failing
    length k, and a pair is formed only when it is read (by index, slice
    or iteration).  A slice is a tuple of pairs.  It equals a tuple of the
    same pairs, and another such sequence with the same arrays, but no
    list, as a tuple would.
    """

    def __init__(self, failed: list[list[np.ndarray]]):
        # failed[k - 1] holds arrays of the failing sequences of length k,
        # rows in scan order.
        self._parts = [(k, rows[0] if len(rows) == 1 else np.concatenate(rows))
                       for k, rows in enumerate(failed, start=1)
                       if rows and any(len(r) for r in rows)]
        self._ends = list(accumulate(len(rows) for _, rows in self._parts))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def _entries(self, start: int, stop: int) -> list:
        # The pairs of entries start..stop - 1, for 0 <= start <= stop <= len.
        out = []
        p = bisect_right(self._ends, start)
        while start < stop:
            k, rows = self._parts[p]
            base, top = self._ends[p] - len(rows), min(stop, self._ends[p])
            out.extend(zip(repeat(k), map(tuple, rows[start - base:top - base].tolist())))
            start, p = top, p + 1
        return out

    def __getitem__(self, i):
        if isinstance(i, slice):
            start, stop, step = i.indices(len(self))
            if step == 1:
                return tuple(self._entries(start, max(start, stop)))
            return tuple(self[j] for j in range(start, stop, step))
        i = index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError("counterexample index out of range")
        return self._entries(i, i + 1)[0]

    def __iter__(self):
        for k, rows in self._parts:
            yield from zip(repeat(k), map(tuple, rows.tolist()))

    def __eq__(self, other):
        if isinstance(other, Counterexamples):
            return len(self._parts) == len(other._parts) and all(
                k == l and np.array_equal(a, b)
                for (k, a), (l, b) in zip(self._parts, other._parts))
        if isinstance(other, tuple):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Counterexamples({tuple(self)!r})"


@dataclass(frozen=True)
class TransientEstimate:
    """Result of scanning product lengths for rank-one factorization.

    ``first_all_rank_one`` is the smallest scanned length from which
    every examined product (of that and every larger scanned length) was
    rank-one, or None if the largest length still had a counterexample.
    ``counterexamples`` lists (length, sequence) pairs that failed, in
    scan order: a :class:`Counterexamples` from a scan, or any sequence of
    such pairs, a tuple for one.
    """

    mode: str
    horizon: int
    first_all_rank_one: Optional[int]
    counterexamples: Sequence[tuple[int, tuple[int, ...]]]
    examined: int
    samples_per_length: Optional[int]
    seed: Optional[int]


def _absorbing(family: MatrixFamily) -> bool:
    """Whether every extension of a rank-one product is rank-one: every
    member has a finite (1, 1) entry.

    If P = x (x) y^T and A_11 is finite, then P (x) A = x (x) (y^T (x) A)
    is rank-one, with a pivot of at least P_11 + A_11.  Skipping such a
    product loses nothing else: the rank-one test (``_kernels.rank_one``)
    forms no value that can leave the scan's width, so it raises for no
    product.
    """
    return bool(family.stacked[1][:, 0, 0].all())


def _walk(plan, grow, root) -> None:
    # Depth-first over a prefix tree, from the empty product at depth 0;
    # plan is the members' _kernels.level_plan.  grow(depth, ok, state, s)
    # takes a formed group of products of length depth, their rank-one
    # verdicts, the state its parent group returned for its children and
    # the slice s of those children the group holds, and returns None or
    # the group's children as (parents, members, state): child i is
    # product parents[i] of the group times member members[i] (0-based),
    # in order.  The children are formed in groups of at most cap
    # products, one _kernels.extend call each, whose parents index the
    # formed group as it is.  The stack is explicit, as a tree can pass
    # Python's recursion limit; groups pop in order, so each length is
    # formed in prefix order.
    n = plan[0].shape[1]
    cap = max(1, _BYTE_BUDGET // (8 * n * n))
    level, ok = _kernels.identity_level(n, plan[1].dtype), np.zeros(1, dtype=bool)
    depth, state, s = 0, root, slice(0, 1)
    stack = []
    while True:
        children = grow(depth, ok, state, s)
        if children is not None:
            parents, members, state = children
            stack.extend((depth + 1, level, parents, members, state, slice(s, s + cap))
                         for s in reversed(range(0, len(parents), cap)))
        if not stack:
            return
        depth, level, parents, members, state, s = stack.pop()
        level, ok = _kernels.extend(level, plan, parents[s], members[s])


def _exhaustive_scan(plan, horizon: int, prune: bool, failed: list) -> None:
    # Every product is extended by every member, so child start + t of a
    # group's children has parent row (start + t) // m and member
    # (start + t) % m + 1.  The state of a group is the 1-based sequences
    # of the products extended (the parents' rows), and a group forms the
    # rows of the products it keeps: with prune (_absorbing) only the
    # failing ones, the only ones extended, as the extensions of a rank-one
    # product are rank-one; without, every one.  At the horizon it keeps
    # the failing ones alone.
    m = len(plan[1])
    each = np.arange(m)[None]

    def grow(depth, ok, rows, s):
        fail = (~ok).nonzero()[0]
        live = fail if prune or depth == horizon else np.arange(len(ok))
        if depth:
            parent, member = np.divmod(live + s.start if s.start else live, m)
            rows = np.concatenate((rows.take(parent, axis=0), member[:, None] + 1), axis=1,
                                  dtype=rows.dtype, casting="unsafe")
            failed[depth - 1].append(rows if live is fail else rows[fail])
        if depth == horizon or not len(live):
            return None
        return live.repeat(m), each.repeat(len(live), axis=0).ravel(), rows

    _walk(plan, grow, np.zeros((1, 0), dtype=np.min_scalar_type(m)))


def _sampled_scan(plan, horizon: int, samples: int, seed: int, prune: bool, failed: list) -> None:
    # Lengths are drawn in order from one generator, the draws of a tree
    # of consecutive lengths in one call: a tree takes the next length
    # while its samples * (sum of lengths) draws fit _BYTE_BUDGET at 8
    # bytes a draw, and holds at least one length.  One call of the draws
    # of several lengths reads the same stream as one call per length,
    # each draw of length k being k consecutive values; int32 output reads
    # the same stream as int64 for any m < 2^31 (not so int16 or uint8),
    # and integers(0, m) the same as integers(1, m + 1), each value one
    # less.  Only the lengths with a failing draw form their rows.
    m = len(plan[1])
    rng = np.random.Generator(np.random.PCG64(seed))
    dtype = np.min_scalar_type(m)
    first = 1
    while first <= horizon:
        last, total = first, first
        while last < horizon and 8 * samples * (total + last + 1) <= _BYTE_BUDGET:
            last += 1
            total += last
        draws = rng.integers(0, m, size=samples * total, dtype=np.int32)
        fail = ~_tree_verdicts(plan, draws, first, last, samples, prune)
        for i in fail.any(axis=1).nonzero()[0].tolist():
            k = first + i
            start = samples * (k * (k - 1) - first * (first - 1)) // 2
            rows = draws[start:start + samples * k].reshape(samples, k)[fail[i]]
            failed[k - 1].append(np.add(rows, 1, dtype=dtype, casting="unsafe"))
        first = last + 1


def _tree_verdicts(plan, draws: np.ndarray, first: int, last: int, samples: int,
                   prune: bool) -> np.ndarray:
    # draws holds the 0-based members of samples draws of each length
    # first..last, length by length, each draw's members consecutive, and
    # the result says which draws are rank-one, one row per length.  They
    # fold as the tree of their distinct prefixes.  A draw is known by its
    # start, the position of its first member in draws, so its member at
    # depth d is draws[start + d], read in place.  The state of a group's
    # children is (live, count): live is (2, L), the starts of the draws
    # still live under them and m times the child each one is under, the
    # first key of that child's children, and count is the number of
    # children.  Starts stay increasing, and the draws that end at depth d
    # are those that start before position samples * (first + ... + d), so
    # the live draws that end at a depth, and read their verdicts there,
    # are a prefix of live, found by one searchsorted.  With prune
    # (_absorbing), a rank-one node is dropped and every draw under it is
    # rank-one.  The children of a group are the distinct keys
    # m * node + next member, found with a mark array in key order; no
    # sort, which would add numpy's sorting code to the resident size of a
    # process that never sorts otherwise.
    m = len(plan[1])
    # Starts and keys fit int32 below 2^31 draw values and while a group's
    # keys do (a group holds at most _BYTE_BUDGET // 8 products); they
    # index through take, which reads int32 indices faster than [] does.
    # The mark is set through [], which reads intp ones faster.
    itype = np.int32 if max(len(draws), (_BYTE_BUDGET // 8 + 1) * m) < 1 << 31 else np.intp
    # The root state: every draw, under the empty product.  Its starts
    # row is never written, and reads the verdicts back at the end.
    root = np.zeros((2, samples * (last - first + 1)), dtype=itype)
    lengths = np.arange(first, last + 1, dtype=itype).repeat(samples)
    starts = np.subtract(lengths.cumsum(dtype=itype), lengths, out=root[0])
    del lengths
    rank_one = np.ones(len(draws), dtype=bool)
    base = first * (first - 1)

    def grow(depth, ok, state, s):
        live, count = state
        if s.start or s.stop < count:
            live = live.compress((live[1] >= m * s.start) & (live[1] < m * s.stop), axis=1)
            live[1] -= m * s.start
        # The first start past the draws of length at most depth.
        k = min(depth, last)
        done = live[0].searchsorted(itype(samples * max(0, k * (k + 1) - base) // 2))
        if prune and depth:
            # One verdict per live draw: those that end here keep it, the
            # others go on only under a failing node.
            verdict = ok.repeat(m).take(live[1])
            rank_one[live[0, :done]] = verdict[:done]
            live = live[:, done:].compress(~verdict[done:], axis=1)
        elif done:
            rank_one[live[0, :done]] = ok.take(live[1, :done] // m)
            live = live[:, done:]
        if not live.shape[1]:
            return None
        start, first_key = live
        key = np.add(first_key, draws[depth:].take(start), dtype=np.intp)
        # m at each key that occurs: key k is child cumsum(mark)[k] / m - 1,
        # whose first key is cumsum(mark)[k] - m.
        mark = np.zeros(len(ok) * m, dtype=itype)
        mark[key] = m
        parents, members = mark.reshape(-1, m).nonzero()
        child = mark.cumsum(dtype=itype)
        child -= m
        # In place: no other group reads this draw state again.
        child.take(key, out=first_key, mode="clip")
        return parents, members, (live, len(parents))

    _walk(plan, grow, (root, 1))
    return rank_one.take(starts).reshape(-1, samples)


def estimate_transient(
    family: MatrixFamily,
    horizon: int,
    mode: str = "sampled",
    samples_per_length: int = 100,
    seed: int = 0,
    max_products: int = DEFAULT_PRODUCT_BUDGET,
) -> TransientEstimate:
    """Scan lengths 1..horizon and report where rank-one sets in.

    Exhaustive mode decides all m^k sequences per length and raises
    :class:`BudgetExceededError` up front when the total exceeds
    ``max_products``.  Sampled mode draws ``samples_per_length`` seeded
    sequences per length, all from one generator in a fixed order.  Both
    walk the products depth-first, in groups of at most 2^18 // n^2
    products, in int16 when ``layer_magnitude * horizon`` is below 2^13,
    in int32 when it is below 2^29 and in int64 otherwise.  When every
    member has a finite (1, 1) entry, exhaustive mode extends only the
    products that are not rank-one, their extensions being the only
    candidates, and sampled mode counts a draw whose prefix turns
    rank-one as rank-one without folding it to its end.  Otherwise every
    product is formed.  Before the scan the int64
    guard of :func:`fold` is checked, and raises at the first length it
    fails.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    m = family.member_count

    if mode == "exhaustive":
        examined = 0
        for k in range(1, horizon + 1):
            examined += m**k
            if examined > max_products:
                raise BudgetExceededError(
                    f"exhaustive scan needs {examined}+ products, budget is {max_products}"
                )
    else:
        if samples_per_length < 1:
            raise ValueError("samples_per_length must be at least 1")
        examined = horizon * samples_per_length
        if examined > max_products:
            raise BudgetExceededError(
                f"sampled scan needs {examined} products, budget is {max_products}"
            )
    magnitude = family.layer_magnitude * horizon
    if magnitude >= _GUARD:
        # The guard grows with the length, so the first length that fails
        # it is the smallest k with layer_magnitude * k >= _GUARD.
        _check_magnitude(family.layer_magnitude * -(-_GUARD // family.layer_magnitude),
                         "sequence fold")

    # failed[k - 1] collects the 1-based sequences of the failing products
    # of length k, as arrays of rows in scan order.
    failed: list[list[np.ndarray]] = [[] for _ in range(horizon)]
    members = _kernels.encode(*family.stacked[:2], _kernels.width(magnitude))
    plan, prune = _kernels.level_plan(members), _absorbing(family)
    if mode == "exhaustive":
        _exhaustive_scan(plan, horizon, prune, failed)
    else:
        _sampled_scan(plan, horizon, samples_per_length, seed, prune, failed)
    counterexamples = Counterexamples(failed)
    # Every length from the one after the last failing length up to the
    # horizon is all rank-one.
    last_failed = counterexamples[-1][0] if counterexamples else 0
    return TransientEstimate(
        mode=mode,
        horizon=horizon,
        first_all_rank_one=last_failed + 1 if last_failed < horizon else None,
        counterexamples=counterexamples,
        examined=examined,
        samples_per_length=samples_per_length if mode == "sampled" else None,
        seed=seed if mode == "sampled" else None,
    )
