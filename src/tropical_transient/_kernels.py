"""Exact integer max-plus kernels on one sentinel encoding, at three widths.

Callers scale exact rational matrices onto a common denominator and pass
a numerator grid with a boolean finiteness mask (False is -inf).  They
also check that every finite magnitude a kernel can form, inputs and
sums alike, stays below the guard of the width they run at.

Inside, a masked entry is stored as a sentinel, MASKED, and a max-plus
product is plain integer arithmetic, add then max.  A signed width of b
bits has MASKED = -2**(b - 2), FLOOR = -2**(b - 3) and the guard
2**(b - 3) (``_SENTINELS``): int64 has -2**62, -2**61 and 2**61
(``MASKED``, ``FLOOR`` and ``matrix._GUARD``), int32 has -2**30, -2**29
and 2**29, and int16 has -2**14, -2**13 and 2**13.  That is exact for
every guarded input:

* a sum of finite entries lies in (-2**(b - 3), 2**(b - 3));
* a sum with a masked term lies below MASKED + 2**(b - 3) = FLOOR;
* ``MASKED + MASKED = -2**(b - 1)`` still fits in b bits: -2**15, the
  least int16, at b = 16.

So an encoded entry is finite exactly when it exceeds FLOOR, and clamping
every reduction back up to MASKED keeps the next sum in range.  Every
kernel runs on whichever width its inputs have; only the transient scans
narrow, to the narrowest width whose guard exceeds the largest magnitude
they can form (``width``): int16 below 2**13, int32 below 2**29.
``matmul`` and ``fold`` return (numerator, mask) pairs with 0 in masked
slots; the trellis sweeps return encoded tables, which their callers
reduce further.

A max-plus product here multiplies a state by one layer of a
stack, and the members of an admissible family share one finite pattern
(geometric equivalence); the benchmark's synthetic families keep 11-15%
of the n^2 entries.  So a call plans its stack once (``_plan``) in
padded columns (ELLPACK; Bell and Garland, SC 2009): src[d, c] is the
d-th in-neighbour of column c on the union of its layers' patterns, and
a column with fewer in-edges than the largest, D, is padded with node 0
at weight MASKED.  States are node-first: the node axis leads and any
batch trails, so a vector is (n,), the state of r start nodes is (n, r)
(the transpose of one row per start) and a level of B products is
(n, n, B).  A product step (``_step``; ``extend`` for a level) is then
one gather of the state along its node axis, one add of the layer's
padded weights (for a level, each product's own, gathered batch-last)
and one max over the D padded terms, each a reduction along whole
contiguous rows:
the semiring SpMV of the GraphBLAS (Kepner et al., IEEE HPEC 2016).
Every matrix product runs on it: every sweep, fold and fixpoint steps
through the plan of its layers, ``matmul`` through the plan of its right
factor, and the through table through the plan of its reversed
departures.  Only the taps of ``_absorbing_sweep`` (one max-plus inner
product per layer) and the rank-1 updates of ``closure`` reduce without
it.

A level of products grows by one factor each through ``extend``:
product i is a chosen product of the level times a chosen member, and it
comes back with its rank-one verdicts (``rank_one``, which reduces over
the two leading axes of the level).  The products form one step of a
level state, each adding its own member's weights, which it reads
batch-last.  Both transient scans plan their members once that way
(``level_plan``) and grow every level through it, one length at a time
from the empty product (``identity_level``).  ``extend`` and the
through table step in chunks of products or starts that gather at most
``CHUNK_ELEMENTS`` terms (``_chunks``).

A single fold tests its running product for rank-one every
``PROBE_STRIDE`` layers, and once a prefix passes it finishes as one
vector sweep (rank-one absorption, ``_absorbing_sweep``).

A sweep pushes a state through the layer matrices of a sequence.  The
state has one column per start node, so one pass serves every start; the
``Backend`` wrappers hand their tables back transposed, as views indexed
[layer, start, node].  Each
trellis DP is one forward sweep (``_sweep``) over the members as they are
or edited around node 0, the distinguished node (node 1 in the 1-based
labels of the public API), each edit built in one place from the encoded
members:

* cut (``_cut``): every edge at node 0 removed, for walks that avoid it;
* sink (``_sink``): node 0 keeps its in-edges and gets a weight-0 loop as
  its only out-edge, so a walk that arrives there waits; node 0's entry
  of the sweep is the best arrival by each layer (initial walks), and the
  other nodes' entries avoid node 0;
* lifted (``_lifted``): 2n nodes, a cut copy before the first visit to
  node 0 and an unchanged copy after it, joined by the edges into node 0:
  the trellis times a two-state automaton that records a visit to node 0,
  for walks through it.

A quantity of walks that end somewhere fixed (final walks out of node 0,
walks backward from a target) is the forward quantity of the mirrored
trellis, members transposed and sequence reversed (``_mirror``), so no
DP sweeps backward on its own: the sink of the mirror makes node 0 a
source.  The single-start DPs keep every layer's state, which their
witnesses are traced back through.  The lemma checks run
``avoiding_sweep`` on the trellis and on its mirror; each keeps only the
arrivals at node 0 and the final state, and runs through the fold's
absorption loop: once a probed state is x (x) y^T, only y moves on.  In
an admissible family node 0's weight-0 loop is the only critical cycle,
so a best walk through node 0 is a best arrival, the loop and a best
departure, joined from those two tables (``_through_table``).

The family-side derivations use the same encoding: ``walk_table`` is a
sweep through one matrix (Karp's table); ``fixpoint`` repeats
x <- base (+) x (x) a until x stops changing (the cycle-mean potentials,
and through ``anchor_paths`` the best walks of A_inf into node 0 and out
of it); and ``closure`` is a Floyd-Warshall pass that never pivots on
node 0, so one table holds the best walks into node 0, out of it and
around it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

MASKED = np.int64(-(1 << 62))
FLOOR = -(1 << 61)
# (MASKED, FLOOR) of each width, narrowest first: -2**(b - 2) and
# -2**(b - 3) for b bits.
_SENTINELS = {
    np.dtype(np.int16): (np.int16(-(1 << 14)), -(1 << 13)),
    np.dtype(np.int32): (np.int32(-(1 << 30)), -(1 << 29)),
    np.dtype(np.int64): (MASKED, FLOOR),
}
CHUNK_ELEMENTS = 1 << 16
# A fold tests its running products for rank-one every this many layers;
# testing every layer costs more than it saves at small n.
PROBE_STRIDE = 4


def width(magnitude: int) -> np.dtype:
    """The width a scan whose finite values stay below magnitude runs at:
    the narrowest of int16, int32 and int64 whose guard, 2**13, 2**29 or
    2**61, exceeds it (int64 past that too; callers check its guard)."""
    return next((dtype for dtype, (_, floor) in _SENTINELS.items() if magnitude < -floor),
                np.dtype(np.int64))


def encode(num: np.ndarray, fin: np.ndarray, dtype=np.int64) -> np.ndarray:
    """Numerators in the given width, with its MASKED in every -inf slot."""
    dtype = np.dtype(dtype)
    return np.where(fin, num, _SENTINELS[dtype][0]).astype(dtype, copy=False)


def decode(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, mask) pair of an encoded array, 0 in masked slots."""
    fin = x > FLOOR
    return np.where(fin, x, np.int64(0)), fin


def _plan(layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(src, weights): a stack of encoded (m, r, c) layers on the union of
    their finite patterns, in padded columns.

    src[d, c] is the d-th in-neighbour of column c on the union, and
    weights[s, d, c] the weight of that edge in layer s, both (D, c) per
    layer for the largest in-degree D.  A column with fewer in-edges,
    none included, is padded with node 0 at weight MASKED, so every
    column reduces over D terms and the padding never wins a max.
    """
    masked, floor = _SENTINELS[layers.dtype]
    fin = (layers > floor).any(axis=0)
    # Entry (r, c) of the union is in-edge depth[r, c] - 1 of column c.
    depth = fin.cumsum(axis=0)
    rows, cols = fin.nonzero()
    depth = depth[rows, cols] - 1
    src = np.zeros((max(1, depth.max(initial=0) + 1), fin.shape[1]), dtype=np.intp)
    src[depth, cols] = rows
    weights = np.full((len(layers),) + src.shape, masked, dtype=layers.dtype)
    weights[:, depth, cols] = layers[:, rows, cols]
    return src, weights


def _step(state: np.ndarray, plan, s, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The product of a node-first encoded state and layers[s], on the
    ``_plan`` of the layers: one gather of the state along its node axis,
    one add of the layer's padded weights and one max over the padded
    axis, clamped up to MASKED inside the reduction.  The state and the
    weights share one width.

    The node axis leads and any batch trails: a vector x is (r,) and
    gives x (x) layers[s], and a matrix state X^T is (r, b) and gives
    (X (x) layers[s])^T.  Every reduction runs over the leading padded
    axis, so along whole contiguous rows of terms.  (A level of products,
    each times its own layer, steps in ``extend``.)

    A layer's own masked entries inside the union weigh MASKED, so every
    sum of finite terms is formed and every other one is at most FLOOR:
    the result is finite exactly where the max-plus product is, and
    equal to it there.
    """
    src, weights = plan
    if state.ndim == 1:
        terms = state[src]
        terms += weights[s]
    else:
        terms = state.take(src, axis=0)
        terms += weights[s][..., None]
    return np.maximum.reduce(terms, axis=0, out=out, initial=_SENTINELS[terms.dtype][0])


def _chunks(count: int, terms: int) -> list[slice]:
    """Consecutive slices of a batch of count states (the products of a
    level, the starts of a matrix) that each gather terms values in a
    ``_step``: as many as hold at most CHUNK_ELEMENTS gathered values, and
    at least one."""
    size = max(1, CHUNK_ELEMENTS // terms)
    return [slice(s, s + size) for s in range(0, count, size)]


def _sweep(layers: np.ndarray, seq: np.ndarray, state: np.ndarray,
           table: bool = True) -> np.ndarray:
    """Push a node-first state through layers[seq[0]], layers[seq[1]], ...

    Returns every intermediate state stacked as (k + 1, *state.shape), or
    only the last one when ``table`` is False.
    """
    return _planned_sweep(_plan(layers), seq, state, table)


def _planned_sweep(plan, seq, state: np.ndarray, table: bool) -> np.ndarray:
    # _sweep on the plan of its layers.
    if not table:
        for s in seq:
            state = _step(state, plan, s)
        return state
    tab = np.empty((len(seq) + 1,) + state.shape, dtype=np.int64)
    tab[0] = state
    for l, s in enumerate(seq, start=1):
        _step(tab[l - 1], plan, s, out=tab[l])
    return tab


def walk_table(a: np.ndarray, state: np.ndarray, k: int) -> np.ndarray:
    """state, state (x) a, ..., state (x) a^k stacked as (k + 1, *state.shape).

    Callers keep the magnitude of state plus k times that of a below
    ``2**61``.
    """
    return _sweep(a[None], np.zeros(k, dtype=np.intp), state)


def fixpoint(a: np.ndarray, base: np.ndarray) -> np.ndarray:
    """The least x >= base with x = base (+) x (x) a, for an encoded square
    matrix a and an encoded vector base: entry j is the best weight of
    base[i] plus a walk of length >= 0 from i to j.

    Iterates x <- base (+) x (x) a from x = base and stops at the first
    step that changes nothing.  With every cycle of a of weight at most 0,
    best walks are paths, so at most n steps run, the last one only
    confirming; x and each step stay within the largest magnitude of base
    plus n times that of a, which callers keep below ``2**61``.
    Raises RuntimeError if x still changes at step n, which only a
    positive cycle can cause.
    """
    plan = _plan(a[None])
    x = base
    for _ in range(len(a)):
        nxt = np.maximum(base, _step(x, plan, 0))
        if np.array_equal(nxt, x):
            return x
        x = nxt
    raise RuntimeError("walk fixpoint did not converge within n steps")


def anchor_paths(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(into, out_of) for an encoded square matrix whose cycles that avoid
    node 0 are all negative: into[i] is the best walk from i into node 0
    and out_of[j] the best walk from node 0 to j, each touching node 0
    only at an end, with entry 0 the empty walk, 0.

    Each is one vector ``fixpoint`` over a with node 0's row and column
    masked, from the edges into node 0 (walks read backwards, on a^T) or
    out of it.
    """
    cut = _cut(a[None])[0]
    lines = []
    for layer, base in ((cut.T, a[:, 0]), (cut, a[0])):
        base = base.copy()
        base[0] = MASKED
        line = fixpoint(layer, base)
        line[0] = 0
        lines.append(line)
    return tuple(lines)


def closure(a: np.ndarray) -> Optional[np.ndarray]:
    """Best weights of walks of length >= 1 whose inner nodes avoid node 0,
    for an encoded square matrix.

    Step k = 1, ..., n - 1 lets walks pass through node k, as one rank-1
    max update; node 0 is never a pivot, so walks touch it only at their
    ends.  The pass stops with None once a diagonal entry is nonnegative,
    which happens exactly when some cycle has weight >= 0: a cycle through
    node 0 splits at its visits there into walks from node 0 back to
    itself, one of which has weight >= 0.  Until then every finite entry
    is the weight of a simple path (of a simple cycle on the diagonal), so
    it lies within n times the largest input magnitude, which callers keep
    below ``2**60`` (2n times it below ``2**61``).

    A sum with a masked term can lift a masked entry above MASKED, but
    not past FLOOR, so the pass resets masked entries to MASKED only once,
    at the end.  Entries only grow from MASKED, and only one masked term
    can win a max, so a masked entry d[i, j] is at most MASKED plus the
    weights of a walk out of i and a walk into j: with every cycle
    negative, at most 2 (n - 1) times the largest positive input, below
    ``2**61``.  A step that closes a nonnegative cycle can lift it
    further, but the diagonal check ends the pass before any later use.
    """
    d = a.copy()
    for k in range(1, d.shape[0]):
        if (d.diagonal() >= 0).any():
            return None
        np.maximum(d, d[:, k, None] + d[k], out=d)
    if (d.diagonal() >= 0).any():
        return None
    d[d <= FLOOR] = MASKED
    return d


def _units(n: int, starts, dtype=np.int64) -> np.ndarray:
    """Node-first encoded state whose column r is 0 at node starts[r] and
    masked elsewhere: one vector for a single start."""
    eye = np.full((n, n), _SENTINELS[np.dtype(dtype)][0], dtype=dtype)
    eye.reshape(-1)[::n + 1] = 0
    return eye.take(starts, axis=1)


def _cut(mem: np.ndarray) -> np.ndarray:
    """Encoded members with every edge at node 0 removed."""
    out = mem.copy()
    out[:, 0, :] = MASKED
    out[:, :, 0] = MASKED
    return out


def _sink(mem: np.ndarray) -> np.ndarray:
    """The cut members with node 0's in-edges kept and a weight-0 loop at
    node 0, its only out-edge: a walk that arrives at node 0 waits there.
    In a sweep, node 0's entry is then the best arrival at node 0 by each
    layer, which never decreases, and every other node's entry the walks
    that avoid node 0."""
    out = mem.copy()
    out[:, 0, :] = MASKED
    out[:, 0, 0] = 0
    return out


def _lifted(mem: np.ndarray) -> np.ndarray:
    """Members on 2n nodes for walks through node 0.  Copy 0, nodes (0, p)
    = p, has not visited node 0 and holds the cut members; copy 1, nodes
    (1, p) = n + p, has, and holds the members unchanged.  Each edge p -> 0
    with p != 0 leads from (0, p) to (1, 0)."""
    m, n = mem.shape[:2]
    out = np.full((m, 2 * n, 2 * n), MASKED)
    out[:, :n, :n] = _cut(mem)
    out[:, 1:n, n] = mem[:, 1:, 0]
    out[:, n:, n:] = mem
    return out


def _matmul(a_num, a_fin, b_num, b_fin):
    # a (x) b is the transpose of the product of the node-first state a^T.
    return decode(_step(encode(a_num, a_fin).T, _plan(encode(b_num, b_fin)[None]), 0).T)


def identity_level(n: int, dtype=np.int64) -> np.ndarray:
    """The empty product as an encoded level of one product in the given
    width: the identity, (n, n, 1)."""
    return _units(n, np.arange(n), dtype)[..., None]


def level_plan(layers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_plan`` of encoded (m, r, c) layers with its weights batch-last
    in memory: a (D, c, m) array seen as (m, D, c), which ``extend`` reads
    as it is.  The transient scans make it once per scan."""
    src, weights = _plan(layers)
    return src, np.ascontiguousarray(weights.transpose(1, 2, 0)).transpose(2, 0, 1)


def extend(level: np.ndarray, plan, parents: np.ndarray,
           members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, ok): product i of out is product parents[i] of level times
    mem[members[i]], for an encoded node-first (n, n, B) level (entry
    [c, r, b] is entry (r, c) of product b), the ``_plan`` of the encoded
    members mem and index arrays of one length; ok[i] says whether
    product i is rank-one (``rank_one``).

    The transient scans grow their levels with it from ``identity_level``:
    the exhaustive scan pairs products with every member, the sampled
    scan only the distinct prefixes of its draws with the members that
    follow them.  Products step in chunks that each gather at most
    CHUNK_ELEMENTS terms (``_chunks``): one gather of the chunk's parents
    along the node axis, one add of each product's own member's (D, c)
    weights, gathered batch-last as (D, c, 1, B) so that the add runs
    along the batch axis of both operands, and one max over the padded
    axis.  The weights are read batch-last from the plan, which is copied
    so first unless it already is (``level_plan``).  A single chunk's
    result is out itself; with several, each is reduced into a contiguous
    array that is then copied into out, since reducing straight into the
    strided slice of out is slower at large n.  The level and the plan
    share one width, and out has it too.
    """
    n = level.shape[0]
    src = plan[0]
    weights = np.ascontiguousarray(plan[1].transpose(1, 2, 0))
    masked, floor = _SENTINELS[level.dtype]
    # The chunk size of _chunks, without its list of slices.
    size = max(1, CHUNK_ELEMENTS // (n * src.size))
    whole = 0 < len(parents) <= size
    out = None if whole else np.empty((n, n, len(parents)), dtype=level.dtype)
    for s in range(0, len(parents), size):
        terms = level.take(parents[s:s + size], axis=-1).take(src, axis=0)
        terms += weights.take(members[s:s + size], axis=-1)[:, :, None]
        part = np.maximum.reduce(terms, axis=0, initial=masked)
        if whole:
            out = part
        else:
            out[..., s:s + size] = part
    return out, rank_one(out, out > floor)


def rank_one(num: np.ndarray, fin: np.ndarray) -> np.ndarray:
    """Which matrices of an (n, n, ...) stack are rank-one, pivoting on
    (1, 1): the first two axes index the entries, any others the matrices.

    A matrix passes when its pivot is finite, its finiteness pattern is
    the outer pattern of column 1 and row 1, and m_ij - m_1j = m_i1 - m_11
    wherever finite, so that m = x (x) y^T with x = m_:1 - m_11 and
    y = m_1:.  Each condition holds for m exactly when it holds for m^T,
    so a node-first state, the transpose of its product, gets the
    product's verdict.  In a width of b bits, masked slots of num hold 0
    with finite |num| < 2**(b - 2) (a decoded stack) or MASKED with finite
    |num| < 2**(b - 3) (an encoded one, of any width); either way each
    side of the value test is a difference of two values in
    [-2**(b - 2), 2**(b - 2)), which lies in (-2**(b - 1), 2**(b - 1)),
    strictly inside the width: values in [-2**62, 2**62) for int64, in
    [-2**30, 2**30) for int32 and in [-2**14, 2**14) for int16, whose
    differences lie in (-2**15, 2**15).  So the test needs no magnitude
    guard, and masked slots are left out of it.
    """
    pivot = fin[0, 0]
    pattern = fin == (fin[:, :1] & fin[:1])
    if pivot.size == 1 and not (pivot.all() and pattern.all()):
        # One matrix (alone or a stack of one) that fails on its pivot or
        # its pattern skips the value test.
        return np.zeros(pivot.shape, dtype=np.bool_)
    values = (num - num[:1] == num[:, :1] - num[:1, :1]) | ~fin
    return pivot & (pattern & values).all(axis=(0, 1))


def _outer(col, y):
    # Decoded x (x) y^T for x = col - col[0] and an encoded row y.  The
    # masks are explicit, since x can reach twice the prefix magnitude and
    # x + MASKED could then pass FLOOR.
    xfin = col > FLOOR
    x = np.where(xfin, col - col[0], np.int64(0))
    y, yfin = decode(y)
    both = xfin[:, None] & yfin
    return np.where(both, x[:, None] + y, np.int64(0)), both


def _fold(mem_num, mem_fin, seq):
    return _absorbing_sweep(encode(mem_num, mem_fin), seq)[1]


def _mirror(*trellis):
    """The mirrored trellis of member stacks and a sequence (the last
    argument): every member transposed, the sequence reversed.  A walk from
    p at layer l to q at layer l' of a k-layer trellis is, reversed, a walk
    of the same weight from q at layer k - l' to p at layer k - l of its
    mirror, so a final-walk quantity is the initial-walk quantity of the
    mirror."""
    *mems, seq = trellis
    return (*(np.ascontiguousarray(m.transpose(0, 2, 1)) for m in mems), seq[::-1])


def _forward_full(mem_num, mem_fin, seq, starts):
    # tab[l, r, j]: best walk from starts[r] at layer 0 to j at layer l,
    # the node-first sweep transposed back as a view (tab[l, j] for one
    # start given as a scalar).
    tab = _sweep(encode(mem_num, mem_fin), seq, _units(mem_num.shape[1], starts))
    return tab.swapaxes(1, -1)


def _forward_avoid(mem_num, mem_fin, seq, starts):
    # As _forward_full over walks that never visit node 0.
    state = _units(mem_num.shape[1], starts)
    state[0] = MASKED
    return _sweep(_cut(encode(mem_num, mem_fin)), seq, state).swapaxes(1, -1)


def _initial_to_anchor(mem_num, mem_fin, seq):
    # out[i]: best walk from i at layer 0 that visits node 0 exactly once,
    # at its end, arriving at any layer.  Reversed, these are the walks out
    # of node 0 in the mirror of the sink members, where node 0 is a source
    # with a weight-0 loop, so one vector from node 0 reads every i at once.
    layers, seq = _mirror(_sink(encode(mem_num, mem_fin)), seq)
    return _sweep(layers, seq, _units(mem_num.shape[1], 0), table=False)


def _final_from_anchor(mem_num, mem_fin, seq):
    # out[j]: best walk to j at the last layer that visits node 0 exactly
    # once, at its start, departing at any layer: the mirror's initial walks.
    return _initial_to_anchor(*_mirror(mem_num, mem_fin, seq))


def _through_anchor(mem_num, mem_fin, seq, starts):
    # out[r, j]: best full walk from starts[r] to j that visits node 0 at
    # least once (endpoints count), for any family: the walk on the lifted
    # members from (0, starts[r]), or from (1, 0) for start 0, to (1, j).
    n = mem_num.shape[1]
    rows = np.where(np.asarray(starts) == 0, n, starts)
    return _sweep(_lifted(encode(mem_num, mem_fin)), seq, _units(2 * n, rows), table=False)[n:].T


def _absorbing_sweep(layers, seq, tap=None):
    # The product P of layers[seq[0]], layers[seq[1]], ... for a nonempty
    # sequence of encoded square layers, returned as (out, P) with P
    # decoded.  With a tap, out[l] = max_p(S[:, p] + tap[seq[l - 1], p])
    # for the product S of the first l - 1 layers (the identity for
    # l = 1), and out[0] is masked; without one, out is None.
    #
    # Every PROBE_STRIDE factors the running product S is tested with
    # rank_one.  Once it passes, S = x (x) y^T with x = S_:1 - S_11 and
    # y = S_1:, and by associativity only y moves on: the rest is one
    # vector sweep, out[l] is x + max_p(y_p + tap_p) for each later y, and
    # P is x (x) y^T, both rebuilt by _outer.  The state is the node-first
    # S^T, so y is its column 0 and S_:1 its row 0.
    plan = _plan(layers)
    state = layers[seq[0]].T
    out = None
    if tap is not None:
        out = np.full((len(seq) + 1, len(state)), MASKED)
        out[1] = tap[seq[0]]
    for l, s in enumerate(seq[1:], start=1):
        if l % PROBE_STRIDE == 0 and rank_one(state, state > FLOOR):
            ys = _planned_sweep(plan, seq[l:], state[:, 0], tap is not None)
            if tap is not None:
                best = np.maximum((ys[:-1] + tap[seq[l:]]).max(axis=1), MASKED)
                out[l + 1:] = encode(*_outer(state[0], best)).T
                ys = ys[-1]
            return out, _outer(state[0], ys)
        if tap is not None:
            np.maximum((state + tap[s][:, None]).max(axis=0), MASKED, out=out[l + 1])
        state = _step(state, plan, s)
    return out, decode(state.T)


def avoiding_sweep(mem, seq):
    """(into, final) for walks that avoid node 0 from every start, on
    encoded members.

    into[l, r] is the best weight of a walk from node r that avoids node 0
    until it arrives there at layer l (layer 0 and start 0 masked: such a
    walk has not arrived); its running maximum over layers is column 0 of
    a sweep over the ``_sink`` members.  final[r, j] is the best
    node-0-avoiding full walk from r to j.
    The sweep runs on the block of nodes 1..n-1 with rank-one absorption
    (``_absorbing_sweep``), pivoting on node 1.  On the mirror
    (``_mirror``), into read backwards is the departure table: row t is the
    best walk out of node 0 at layer k - t to each target.
    """
    n = mem.shape[1]
    into = np.full((len(seq) + 1, n), MASKED)
    # With no layer, every node but 0 has its empty walk.
    final = _units(n, np.arange(n))
    final[0, 0] = MASKED
    if n > 1 and len(seq):
        into[:, 1:], block = _absorbing_sweep(
            np.ascontiguousarray(mem[:, 1:, 1:]), seq, np.ascontiguousarray(mem[:, 1:, 0]))
        final[1:, 1:] = encode(*block)
    return into, final


def _through_table(into, departures):
    """through[i, j]: best full walk from i to j that visits node 0 (end
    points count), for an admissible family, from the ``avoiding_sweep``
    arrivals ``into`` and the departures of the same sweep on the mirror.

    Node 0's weight-0 loop is then its only critical cycle, so every
    closed walk at node 0 weighs at most 0 and the loop weighs exactly 0.
    A walk through node 0 that first arrives there at layer a and last
    departs at layer b >= a is therefore best as the best arrival, the
    loop and the best departure:

        through[i, j] = max_b (max_{a <= b} into[a, i]) + departures[k - b, j].

    Start 0 arrives at layer 0 and target 0 departs at layer k, each with
    weight 0.  The max over b is one max-plus product of the transposed
    arrivals and the reversed departures, (n, k + 1) times (k + 1, n),
    whose node-first state is the arrivals themselves: a ``_step``
    through the plan of the departures, in chunks of starts
    (``_chunks``).  The table comes back as the transpose of that step's
    result, a view.
    """
    arrived = np.maximum.accumulate(into, axis=0)
    arrived[:, 0] = 0
    plan = _plan(departures[None, ::-1])
    out = np.empty((arrived.shape[1],) * 2, dtype=np.int64)
    for part in _chunks(arrived.shape[1], plan[0].size):
        out[:, part] = _step(arrived[:, part], plan, 0)
    out[0] = arrived[-1]
    return out.T


class Backend(NamedTuple):
    """Kernel entry points, each taking members as (numerator, mask)
    stacks.  ``fold`` takes a (k,) sequence of 0-based member indices and
    returns its (n, n) product; the transient scans build stacks of
    products level by level through ``extend``."""

    name: str
    matmul: Callable
    fold: Callable
    forward_full: Callable
    forward_avoid: Callable
    backward_avoid: Callable
    initial_to_anchor: Callable
    final_from_anchor: Callable
    through_anchor: Callable


NUMPY_BACKEND = Backend(
    name="numpy",
    matmul=_matmul,
    fold=_fold,
    forward_full=_forward_full,
    forward_avoid=_forward_avoid,
    # tab[l, r, p]: best node-0-avoiding walk from p at layer l to
    # targets[r] at the last layer, the mirror's forward table read back.
    backward_avoid=lambda mem_num, mem_fin, seq, targets: _forward_avoid(
        *_mirror(mem_num, mem_fin, seq), targets)[::-1],
    initial_to_anchor=_initial_to_anchor,
    final_from_anchor=_final_from_anchor,
    through_anchor=_through_anchor,
)

# There is no compiled backend; the name stays for callers that report
# whether one is present.
NUMBA_BACKEND: Optional[Backend] = None

ACTIVE: Backend = NUMPY_BACKEND
