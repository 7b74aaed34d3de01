"""Exact integer max-plus kernels on one sentinel encoding.

Callers scale exact rational matrices onto a common denominator and pass
an ``int64`` numerator grid with a boolean finiteness mask (False is
-inf).  They also check that every finite magnitude a kernel can form,
inputs and sums alike, stays below ``2**61`` (``matrix._GUARD``).

Inside, a masked entry is stored as the sentinel ``MASKED = -2**62`` and
a max-plus product is plain integer arithmetic, add then max.  That is
exact for every guarded input:

* a sum of finite entries lies in (-2**61, 2**61);
* a sum with a masked term is at most -2**62 + 2**61 < -2**61;
* ``MASKED + MASKED = -2**63`` still fits in int64.

So an encoded entry is finite exactly when it exceeds ``FLOOR = -2**61``,
and clamping every reduction back up to ``MASKED`` keeps the next sum in
range.  ``matmul`` and ``fold`` return (numerator, mask) pairs with 0 in
masked slots; the trellis sweeps return encoded tables, which their
callers reduce further.

A max-plus product here multiplies a state by one layer of a
stack, and the members of an admissible family share one finite pattern
(geometric equivalence); the benchmark's synthetic families keep 11-15%
of the n^2 entries.  So a call plans its stack once (``_plan``): the
entries of the union of its layers' patterns, grouped by target column,
with one masked entry for a column that has no in-edge.  A product step
(``_step``) of a vector, a matrix or a stack of matrices is then one
gather of the state's columns, one add of the layer's weights and one
segmented max (``np.maximum.reduceat``): the semiring SpMV of the
GraphBLAS (Kepner et al., IEEE HPEC 2016).  Every matrix product runs
on it: every sweep, fold and fixpoint steps through the plan of its
layers, ``matmul`` through the plan of its right factor, and the through
table through the plan of its reversed departures.  Only the taps of
``_absorbing_sweep`` (one max-plus inner product per layer) and the
rank-1 updates of ``closure`` reduce without it.

A level of products grows by one factor each through ``extend``: row i
is a chosen product of the level times a chosen member, and it comes
back with its rank-one verdicts.  The rows form one step of a stack of
matrix states, each row adding its own member's weights.  Both
transient scans plan their members once and grow every level that way,
one length at a time from the empty product (``identity_level``).
``extend`` and the through table step in chunks of rows that gather at
most ``CHUNK_ELEMENTS`` terms (``_chunks``).

A single fold tests its running product for rank-one every
``PROBE_STRIDE`` layers, and once a prefix passes it finishes as one
vector sweep (rank-one absorption, ``_absorbing_sweep``).

A sweep pushes a state through the layer matrices of a sequence.  The
state has one row per start node, so one pass serves every start.  Each
trellis DP is one forward sweep (``_sweep``) over the members as they are
or edited around node 0, the distinguished node (node 1 in the 1-based
labels of the public API), each edit built in one place from the encoded
members:

* cut (``_cut``): every edge at node 0 removed, for walks that avoid it;
* sink (``_sink``): node 0 keeps its in-edges and gets a weight-0 loop as
  its only out-edge, so a walk that arrives there waits; column 0 of the
  sweep is the best arrival by each layer (initial walks), and the other
  columns avoid node 0;
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
CHUNK_ELEMENTS = 1 << 16
# A fold tests its running products for rank-one every this many layers;
# testing every layer costs more than it saves at small n.
PROBE_STRIDE = 4


def encode(num: np.ndarray, fin: np.ndarray) -> np.ndarray:
    """Numerators with MASKED in every -inf slot."""
    return np.where(fin, num, MASKED)


def decode(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, mask) pair of an encoded array, 0 in masked slots."""
    fin = x > FLOOR
    return np.where(fin, x, np.int64(0)), fin


def _plan(layers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, starts, weights): a stack of encoded (m, r, c) layers on the
    union of their finite patterns, grouped by target column.

    Column c owns the entries starts[c]:starts[c + 1] of rows (their
    source nodes) and of each layer's weights[s].  A column with no
    in-edge in any layer gets one entry from row 0 with weight MASKED,
    since ``np.maximum.reduceat`` returns the first element of an empty
    segment rather than an identity.
    """
    fin = (layers > FLOOR).any(axis=0)
    fin[0, ~fin.any(axis=0)] = True
    cols, rows = np.nonzero(fin.T)
    starts = np.zeros(fin.shape[1], dtype=np.intp)
    np.cumsum(fin.sum(axis=0)[:-1], out=starts[1:])
    return rows, starts, layers[:, rows, cols]


def _step(state: np.ndarray, plan, s, out: Optional[np.ndarray] = None) -> np.ndarray:
    """state (x) layers[s] for an encoded (r,) or (..., r) state, on the
    ``_plan`` of the layers: one gather, one add and one segmented max.
    s is one layer index, or an array of them that broadcasts against the
    state's leading axes with a trailing axis of 1 (``extend`` gives each
    matrix of a stack its own layer).

    A layer's own masked entries inside the union weigh MASKED, so every
    sum of finite terms is formed and every other one is at most FLOOR:
    the result is finite exactly where the max-plus product is, and
    equal to it there.
    """
    rows, starts, weights = plan
    terms = state.take(rows, axis=-1)
    terms += weights[s]
    out = np.maximum.reduceat(terms, starts, axis=-1, out=out)
    return np.maximum(out, MASKED, out=out)


def _chunks(count: int, terms: int) -> list[slice]:
    """Consecutive slices of count rows that each gather terms values in a
    ``_step``: as many rows as hold at most CHUNK_ELEMENTS gathered values,
    and at least one."""
    rows = max(1, CHUNK_ELEMENTS // terms)
    return [slice(s, s + rows) for s in range(0, count, rows)]


def _sweep(layers: np.ndarray, seq: np.ndarray, state: np.ndarray,
           table: bool = True) -> np.ndarray:
    """Push state through layers[seq[0]], layers[seq[1]], ...

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


def _units(n: int, rows) -> np.ndarray:
    """Encoded state whose row r is 0 at node rows[r] and masked elsewhere."""
    eye = np.full((n, n), MASKED, dtype=np.int64)
    np.fill_diagonal(eye, 0)
    return eye[rows]


def _cut(mem: np.ndarray) -> np.ndarray:
    """Encoded members with every edge at node 0 removed."""
    out = mem.copy()
    out[:, 0, :] = MASKED
    out[:, :, 0] = MASKED
    return out


def _sink(mem: np.ndarray) -> np.ndarray:
    """The cut members with node 0's in-edges kept and a weight-0 loop at
    node 0, its only out-edge: a walk that arrives at node 0 waits there.
    In a sweep, column 0 is then the best arrival at node 0 by each layer,
    which never decreases, and every other column the walks that avoid
    node 0."""
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
    return decode(_step(encode(a_num, a_fin), _plan(encode(b_num, b_fin)[None]), 0))


def identity_level(n: int) -> np.ndarray:
    """The empty product as a one-row encoded level: the (n, n) identity."""
    return _units(n, np.arange(n))[None]


def extend(level: np.ndarray, plan, parents: np.ndarray,
           members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(out, ok): out[i] is level[parents[i]] (x) mem[members[i]], for an
    encoded (B, n, n) level, the ``_plan`` of the encoded members mem and
    index arrays of one length, and ok[i] says whether out[i] is rank-one
    (``rank_one``).

    The transient scans grow their levels with it from ``identity_level``:
    the exhaustive scan pairs every product with every member (row
    p * m + j), the sampled scan only the distinct prefixes of its draws.
    Each chunk of rows (``_chunks``) is one ``_step`` of the stack of its
    parents, each parent's n rows adding its own member's weights.
    """
    n = level.shape[-1]
    out = np.empty((len(parents), n, n), dtype=np.int64)
    for part in _chunks(len(parents), n * len(plan[0])):
        _step(level[parents[part]], plan, members[part, None], out=out[part])
    return out, rank_one(out, out > FLOOR)


def rank_one(num: np.ndarray, fin: np.ndarray) -> np.ndarray:
    """Which matrices of a (..., n, n) stack are rank-one, pivoting on (1, 1).

    A matrix passes when its pivot is finite, its finiteness pattern is
    the outer pattern of column 1 and row 1, and m_ij - m_1j = m_i1 - m_11
    wherever finite, so that m = x (x) y^T with x = m_:1 - m_11 and
    y = m_1:.  Masked slots of num hold 0 with finite |num| < 2**62 (a
    decoded stack) or MASKED with finite |num| < 2**61 (an encoded one);
    either way each side of the value test is a difference of two values
    in [-2**62, 2**62), which lies strictly inside int64.  So the test
    needs no magnitude guard, and masked slots are left out of it.
    """
    pivot = fin[..., 0, 0]
    pattern = fin == (fin[..., :, :1] & fin[..., :1, :])
    if pivot.size == 1 and not (pivot.all() and pattern.all()):
        # One matrix (alone or a one-row stack) that fails on its pivot or
        # its pattern skips the value test.
        return np.zeros(pivot.shape, dtype=np.bool_)
    values = (num - num[..., :1, :] == num[..., :, :1] - num[..., :1, :1]) | ~fin
    return pivot & (pattern & values).all(axis=(-2, -1))


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
    # tab[l, r, j]: best walk from starts[r] at layer 0 to j at layer l.
    return _sweep(encode(mem_num, mem_fin), seq, _units(mem_num.shape[1], starts))


def _forward_avoid(mem_num, mem_fin, seq, starts):
    # As _forward_full over walks that never visit node 0.
    state = _units(mem_num.shape[1], starts)
    state[..., 0] = MASKED
    return _sweep(_cut(encode(mem_num, mem_fin)), seq, state)


def _initial_to_anchor(mem_num, mem_fin, seq):
    # out[i]: best walk from i at layer 0 that visits node 0 exactly once,
    # at its end, arriving at any layer.  Reversed, these are the walks out
    # of node 0 in the mirror of the sink members, where node 0 is a source
    # with a weight-0 loop, so one row from node 0 reads every i at once.
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
    return _sweep(_lifted(encode(mem_num, mem_fin)), seq, _units(2 * n, rows), table=False)[:, n:]


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
    # P is x (x) y^T, both rebuilt by _outer.
    plan = _plan(layers)
    state = layers[seq[0]]
    out = None
    if tap is not None:
        out = np.full((len(seq) + 1, len(state)), MASKED)
        out[1] = tap[seq[0]]
    for l, s in enumerate(seq[1:], start=1):
        if l % PROBE_STRIDE == 0 and rank_one(state, state > FLOOR):
            ys = _planned_sweep(plan, seq[l:], state[0], tap is not None)
            if tap is not None:
                best = np.maximum((ys[:-1] + tap[seq[l:]]).max(axis=1), MASKED)
                out[l + 1:] = encode(*_outer(state[:, 0], best)).T
                ys = ys[-1]
            return out, _outer(state[:, 0], ys)
        if tap is not None:
            np.maximum((state + tap[s]).max(axis=1), MASKED, out=out[l + 1])
        state = _step(state, plan, s)
    return out, decode(state)


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
    arrivals and the reversed departures, (n, k + 1) times (k + 1, n): a
    ``_step`` through the plan of the departures, in chunks of rows
    (``_chunks``).
    """
    arrived = np.maximum.accumulate(into, axis=0)
    arrived[:, 0] = 0
    arrived = np.ascontiguousarray(arrived.T)
    plan = _plan(departures[None, ::-1])
    out = np.empty((len(arrived),) * 2, dtype=np.int64)
    for part in _chunks(len(out), len(plan[0])):
        _step(arrived[part], plan, 0, out=out[part])
    out[:, 0] = arrived[:, -1]
    return out


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
