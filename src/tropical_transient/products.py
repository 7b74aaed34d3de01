"""Folding factor sequences into products and scanning for rank-one onset.

Sequences index family members 1-based, in product order: the sequence
(2, 1, 3) folds to A2 (x) A1 (x) A3.  The transient scan looks for the
first length at which every examined product of that length is rank-one,
either exhaustively (all m^k sequences, budget-guarded) or by seeded
sampling with a named, portable generator (numpy PCG64), so runs are
reproducible across platforms.

Both scans work level by level from the empty product: each product of
length l, length 1 included, is a product of length l - 1 times one
member, so it costs one matrix product instead of l - 1.  The level
kernel ``_kernels.extend`` forms every level and returns which of its
products are rank-one.  Exhaustive mode builds level l as level l - 1
times every member.  Sampled mode folds the draws of consecutive
lengths as a tree of their distinct prefixes: level l holds one product
per distinct prefix of length l, and each draw reads its verdict at its
own last layer.  Draws that share a prefix share its products, so a tree
costs one matrix product per distinct prefix, not one per draw and layer.
A tree is kept within a fixed element budget (``_BLOCK_ELEMENTS``), so
large lengths fold as several trees of fewer draws.

A single fold uses rank-one absorption: once a prefix P = x (x) y^T is
rank-one, the rest of the fold only changes y, so it finishes as a vector
sweep; that rests on associativity alone and gives the exact product.
The scans fold every product in full unless every member has a finite
(1, 1) entry, so that every extension of a rank-one product is rank-one
(``_absorbing``).  Then a product that turns rank-one needs no more
work: exhaustive mode extends only the failing products of each level,
and sampled mode drops a rank-one prefix from its tree and counts every
draw under it as rank-one.  Both still report every product as examined,
in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _kernels
from .errors import BudgetExceededError
from .family import MatrixFamily, member_index
from .matrix import TropicalMatrix, _check_magnitude

DEFAULT_PRODUCT_BUDGET = 2_000_000
# Elements held by one prefix tree of the sampled scan, counting
# max(k, n^2, m) per draw of length k: its padded draw, its product and
# its m child marks.  A level of int64 products stays within 2 MB unless
# one draw alone passes the budget (n > 512).
_BLOCK_ELEMENTS = 1 << 18


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


@dataclass(frozen=True)
class TransientEstimate:
    """Result of scanning product lengths for rank-one factorization.

    ``first_all_rank_one`` is the smallest scanned length from which
    every examined product (of that and every larger scanned length) was
    rank-one, or None if the largest length still had a counterexample.
    ``counterexamples`` lists (length, sequence) pairs that failed, in
    scan order.
    """

    mode: str
    horizon: int
    first_all_rank_one: Optional[int]
    counterexamples: tuple[tuple[int, tuple[int, ...]], ...]
    examined: int
    samples_per_length: Optional[int]
    seed: Optional[int]


# Each scan yields, per length, the number of products examined and the
# 1-based sequences of those that are not rank-one, as a (failed, k) array.

def _absorbing(family: MatrixFamily) -> bool:
    """Whether every extension of a rank-one product is rank-one: every
    member has a finite (1, 1) entry.

    If P = x (x) y^T and A_11 is finite, then P (x) A = x (x) (y^T (x) A)
    is rank-one, with a pivot of at least P_11 + A_11.  Skipping such a
    product loses nothing else: the rank-one test (``_kernels.rank_one``)
    forms no value that can leave int64, so it raises for no product.
    """
    return bool(family.stacked[1][:, 0, 0].all())


def _sampled_scan(family: MatrixFamily, horizon: int, samples: int,
                  seed: int) -> Iterator[tuple[int, np.ndarray]]:
    # Lengths are drawn in order from one generator and folded in blocks
    # of consecutive lengths, counting max(k, n^2, m) elements per draw of
    # length k.  A block takes the next length while its draws fit
    # _BLOCK_ELEMENTS, and folds as prefix trees within it: one tree, or
    # for a length that does not fit alone, one tree per slice of its
    # draws (at least one draw each).
    m, n = family.member_count, family.size
    rng = np.random.Generator(np.random.PCG64(seed))
    dtype = np.min_scalar_type(m)
    plan = _kernels._plan(_kernels.encode(*family.stacked[:2]))
    prune = _absorbing(family)
    block: list[np.ndarray] = []
    for k in range(1, horizon + 2):
        # A block is cut before the first length that does not fit it,
        # and after the last length.
        size = samples * (len(block) + 1) * max(k, n * n, m)
        if block and (k > horizon or size > _BLOCK_ELEMENTS):
            width = max(1, _BLOCK_ELEMENTS // (len(block) * max(k - 1, n * n, m)))
            rank_one = np.concatenate([
                _prefix_tree_verdicts(plan, [draws[s:s + width] for draws in block], prune)
                for s in range(0, samples, width)], axis=1)
            for draws, ok in zip(block, rank_one):
                yield samples, draws[~ok]
            block = []
        if k <= horizon:
            _check_magnitude(family.layer_magnitude * k, "sequence fold")
            block.append(rng.integers(1, m + 1, size=(samples, k)).astype(dtype))


def _prefix_tree_verdicts(plan, block: list[np.ndarray], prune: bool) -> np.ndarray:
    # block holds the 1-based draws of consecutive lengths, shortest first,
    # and the result says which are rank-one, one row per length; plan is
    # the members' _kernels._plan.  They fold as a tree of their distinct
    # prefixes: layer l holds one encoded product per distinct prefix of
    # length l still being folded, and node[d] is the product of draw
    # live[d].  A draw of length l reads its verdict from its node.  With
    # prune (_absorbing), a rank-one node is dropped and every draw under
    # it is rank-one.  The children of a layer are the distinct keys
    # node * m + next member, found with a mark array in key order; no
    # sort, which would add numpy's sorting code to the resident size of a
    # process that never sorts otherwise.
    _, starts, weights = plan
    m = len(weights)
    samples, top = block[-1].shape
    # Draws run longest first, so the draws longer than l are the first
    # longer[l] of the stack.
    stack = np.zeros((samples * len(block), top), dtype=block[-1].dtype)
    for i, draws in enumerate(reversed(block)):
        stack[i * samples:(i + 1) * samples, :draws.shape[1]] = draws - 1
    longer = [samples * min(len(block), top - l) for l in range(top + 1)]
    rank_one = np.ones(len(stack), dtype=bool)
    live = np.arange(len(stack))
    # Layer 0 is the empty prefix, one node.
    node = np.zeros(len(stack), dtype=np.intp)
    level = _kernels.identity_level(len(starts))
    for l in range(1, top + 1):
        key = node * m + stack[live, l - 1]
        mark = np.zeros(len(level) * m, dtype=bool)
        mark[key] = True
        children = np.flatnonzero(mark)
        node = np.cumsum(mark)[key] - 1
        level, ok = _kernels.extend(level, plan, children // m, children % m)
        # live is ascending, so the draws that end here are its tail.
        end = int((live < longer[l]).sum())
        rank_one[live[end:]] = ok[node[end:]]
        live, node = live[:end], node[:end]
        if prune:
            keep = ~ok[node]
            live, node = live[keep], node[keep]
        if not len(live):
            break
    return rank_one.reshape(len(block), samples)[::-1]


def _exhaustive_scan(family: MatrixFamily, horizon: int) -> Iterator[tuple[int, np.ndarray]]:
    plan = _kernels._plan(_kernels.encode(*family.stacked[:2]))
    m = family.member_count
    # With _absorbing, only the failing products of a level need
    # extending: the extensions of a rank-one product are rank-one.
    prune = _absorbing(family)
    # Level row r is the product of the 1-based sequence seqs[r]; rows run
    # in itertools.product order, from the empty product.
    level = _kernels.identity_level(family.size)
    seqs = np.zeros((1, 0), dtype=np.min_scalar_type(m))
    for k in range(1, horizon + 1):
        _check_magnitude(family.layer_magnitude * k, "sequence fold")
        # Row p * m + j extends product p by member j.
        parents, members = np.divmod(np.arange(len(level) * m), m)
        level, ok = _kernels.extend(level, plan, parents, members)
        seqs = np.column_stack((seqs[parents], (members + 1).astype(seqs.dtype)))
        bad = seqs[~ok]
        if prune:
            level, seqs = level[~ok], bad
        yield m**k, bad


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
    ``max_products``; it holds at most two lengths of products at once.
    When every member has a finite (1, 1) entry, it extends only the
    products that are not rank-one: their extensions are the only
    candidates.  Otherwise it extends every product.  Sampled mode draws
    ``samples_per_length`` seeded sequences per length, all from one
    generator in a fixed order; when every pivot is finite, a draw whose
    prefix turns rank-one is counted as rank-one without folding it to its
    end.  Before each length the int64 guard of :func:`fold` is checked,
    and raises at the first length it fails.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    m = family.member_count

    if mode == "exhaustive":
        total = 0
        for k in range(1, horizon + 1):
            total += m**k
            if total > max_products:
                raise BudgetExceededError(
                    f"exhaustive scan needs {total}+ products, budget is {max_products}"
                )
        levels = _exhaustive_scan(family, horizon)
        samples_recorded = None
    else:
        if samples_per_length < 1:
            raise ValueError("samples_per_length must be at least 1")
        if horizon * samples_per_length > max_products:
            raise BudgetExceededError(
                f"sampled scan needs {horizon * samples_per_length} products, "
                f"budget is {max_products}"
            )
        levels = _sampled_scan(family, horizon, samples_per_length, seed)
        samples_recorded = samples_per_length

    examined = 0
    counterexamples: list[tuple[int, tuple[int, ...]]] = []
    for k, (count, failed) in enumerate(levels, start=1):
        examined += count
        counterexamples.extend((k, tuple(idx)) for idx in failed.tolist())

    failed_lengths = {k for k, _ in counterexamples}
    first: Optional[int] = None
    for k in range(horizon, 0, -1):
        if k in failed_lengths:
            break
        first = k
    return TransientEstimate(
        mode=mode,
        horizon=horizon,
        first_all_rank_one=first,
        counterexamples=tuple(counterexamples),
        examined=examined,
        samples_per_length=samples_recorded,
        seed=seed if mode == "sampled" else None,
    )
