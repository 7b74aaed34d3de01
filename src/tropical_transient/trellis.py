"""Trellis digraph of a factor sequence and optimal-walk dynamic programs.

A sequence (i_1, ..., i_k) over a family unrolls into a trellis with
k + 1 layers of n nodes; edges between layers l - 1 and l carry the
weights of member i_l.  Walks here are node sequences across consecutive
layers; the weight of a full walk from layer 0 to layer k from node i to
node j folds into entry (i, j) of the product.

Three walk classes around the distinguished node 1 drive the rank-one
analysis:

* full walks: span all layers;
* initial walks into node 1: touch node 1 exactly once, at their final
  position, arriving at any layer (from node 1 itself: the empty walk);
* final walks out of node 1: the mirror image, departing at any layer.

The DP operations return a :class:`WalkSummary` carrying the optimal
weight, a witness, and the minimum length among optimal walks.

Each single-start DP is one sweep from its start over the members as
they are or edited around node 1: cut off (walks that avoid node 1),
made a sink that a walk waits in once it arrives (initial walks), or
lifted to two copies of the nodes, before and after the first visit to
node 1 (walks through it).  A final walk out of node 1 is an initial walk
of the mirrored trellis (members transposed, sequence reversed) read
backwards, so both classes run through one body.

:func:`check_lemma_bounds` verifies the walk facts behind the transient
bound.  All four of its thresholds come from one bound report of
:mod:`bounds`, evaluated with the trellis vectors w*, v* (the optimal
initial- and final-walk weights) in place of A_inf's w, v: the two
walk-length checks read the parts of term2, the two pair checks term2 and
term1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import _kernels
from .bounds import family_bound_report
from .family import MatrixFamily
from .matrix import TropicalMatrix
from .semiring import EPSILON, Weight, ZERO, weight_token


class TrellisDigraph:
    """The layered digraph of one factor sequence over a family."""

    def __init__(self, family: MatrixFamily, indices: Sequence[int]):
        self._seq0 = family.stage(tuple(indices), "trellis construction")
        self._family = family
        self._indices = tuple((self._seq0 + 1).tolist())

    @property
    def family(self) -> MatrixFamily:
        return self._family

    @property
    def indices(self) -> tuple[int, ...]:
        return self._indices

    @property
    def layer_count(self) -> int:
        """k: the number of edge layers."""
        return len(self._indices)

    @property
    def node_size(self) -> int:
        """n: nodes per layer."""
        return self._family.size

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        mem_num, mem_fin, den = self._family.stacked
        return mem_num, mem_fin, self._seq0, den

    def __repr__(self) -> str:
        return f"TrellisDigraph(n={self.node_size}, layers={self.layer_count})"


def build_trellis(family: MatrixFamily, sequence) -> TrellisDigraph:
    """Unroll a factor sequence (1-based member indices) into a trellis."""
    indices = getattr(sequence, "indices", sequence)
    return TrellisDigraph(family, indices)


@dataclass(frozen=True)
class WalkSummary:
    """Optimal weight of a walk class, with one optimal witness.

    ``witness`` lists 1-based node labels from layer ``start_layer``
    onward; ``length`` is its edge count.  The witness returned by the
    DPs has minimum length among optimal walks, so ``length`` equals
    ``min_length_among_optima``.  For an empty walk class every optional
    field is None and the weight is -inf.
    """

    weight: Weight
    length: Optional[int]
    min_length_among_optima: Optional[int]
    witness: Optional[tuple[int, ...]]
    start_layer: Optional[int]


_EMPTY_SUMMARY = WalkSummary(EPSILON, None, None, None, None)


def _frac(num: int, den: int) -> Fraction:
    return Fraction(int(num), den)


def _weight(x: np.int64, den: int) -> Weight:
    """The exact weight of one encoded kernel entry."""
    return _frac(x, den) if x > _kernels.FLOOR else EPSILON


def optimal_full_walk(t: TrellisDigraph, i: int, j: int) -> WalkSummary:
    """Best full walk from node i (layer 0) to node j (layer k), 1-based.

    Its weight is entry (i, j) of the folded product; the witness takes
    the smallest predecessor at each step among optimal choices.
    """
    k = t.layer_count
    mem_num, mem_fin, seq0, den = _staged(t, i, j)
    tab = _kernels.ACTIVE.forward_full(mem_num, mem_fin, seq0, [i - 1])[:, 0]
    best = tab[k, j - 1]
    if best <= _kernels.FLOOR:
        return _EMPTY_SUMMARY
    nodes = _trace_back(_kernels.encode(mem_num, mem_fin), seq0, tab, k, j - 1, best)
    return _summary(best, den, nodes, 0)


def optimal_initial_walk(t: TrellisDigraph, i: int) -> WalkSummary:
    """Best initial walk from node i into node 1, over all arrival layers.

    The summary's walk has the earliest arrival layer among optima, so
    its length is minimal; among those it traces back the smallest
    predecessor at each step.  From node 1 the class holds exactly the
    empty walk of weight 0.
    """
    return _anchored_walk(t, i, mirrored=False)


def optimal_final_walk(t: TrellisDigraph, j: int) -> WalkSummary:
    """Best final walk from node 1 to node j, over all departure layers.

    This is the initial walk from j of the mirrored trellis (members
    transposed, sequence reversed), read backwards: the summary's walk has
    the latest departure layer among optima, so its length is minimal;
    among those it takes the smallest successor at each step.  Into node
    1 the class holds exactly the empty walk of weight 0, positioned at
    the last layer.
    """
    return _anchored_walk(t, j, mirrored=True)


def initial_weights_all(t: TrellisDigraph) -> TropicalMatrix:
    """Column vector of optimal initial-walk weights w* for every node."""
    mem_num, mem_fin, seq0, den = t._arrays()
    return _column(_kernels.ACTIVE.initial_to_anchor(mem_num, mem_fin, seq0), den)


def final_weights_all(t: TrellisDigraph) -> TropicalMatrix:
    """Column vector of optimal final-walk weights v* for every node."""
    mem_num, mem_fin, seq0, den = t._arrays()
    return _column(_kernels.ACTIVE.final_from_anchor(mem_num, mem_fin, seq0), den)


def best_avoiding_full_weight(t: TrellisDigraph, i: int, j: int) -> Weight:
    """Best weight of a full walk i -> j that never touches node 1.

    The class is empty when i or j is node 1 itself.
    """
    mem_num, mem_fin, seq0, den = _staged(t, i, j)
    if i == 1 or j == 1:
        return EPSILON
    tab = _kernels.ACTIVE.forward_avoid(mem_num, mem_fin, seq0, [i - 1])
    return _weight(tab[t.layer_count, 0, j - 1], den)


def best_through_one_weight(t: TrellisDigraph, i: int, j: int) -> Weight:
    """Best weight of a full walk i -> j that touches node 1 at least once
    (endpoints count)."""
    mem_num, mem_fin, seq0, den = _staged(t, i, j)
    through = _kernels.ACTIVE.through_anchor(mem_num, mem_fin, seq0, [i - 1])
    return _weight(through[0, j - 1], den)


def _check_node(n: int, label) -> None:
    """Refuse a node label that is not an integer in 1..n.

    As for member indices (:func:`~tropical_transient.family.member_index`),
    ``operator.index`` refuses a float or a string, and a bool is refused
    too, as ``True`` is no name for node 1.
    """
    try:
        index = operator.index(label)
    except TypeError:
        index = None
    if index is None or isinstance(label, bool):
        raise TypeError(f"node label {label!r} is not an integer")
    if not 1 <= index <= n:
        raise IndexError(f"node label {label} out of range 1..{n}")


def _staged(t: TrellisDigraph, *labels: int):
    """The staged (mem_num, mem_fin, seq0, den) of ``t``, once every
    1-based node label is checked."""
    for label in labels:
        _check_node(t.node_size, label)
    return t._arrays()


def _column(x: np.ndarray, den: int) -> TropicalMatrix:
    num, fin = _kernels.decode(x)
    return TropicalMatrix(num[:, None], fin[:, None], den)


def _summary(best, den: int, nodes: list[int], start_layer: int) -> WalkSummary:
    """The summary of a traced optimal walk of encoded weight ``best``;
    the trace has minimum length among optima."""
    length = len(nodes) - 1
    return WalkSummary(_frac(best, den), length, length, tuple(x + 1 for x in nodes), start_layer)


def _anchored_walk(t: TrellisDigraph, node: int, mirrored: bool) -> WalkSummary:
    """The best initial walk from ``node`` into node 1 or, mirrored, the
    best final walk from node 1 to ``node``: the initial walk of the
    mirrored trellis read backwards.  The arrival is the earliest among
    optima, so the walk is a shortest optimal one.

    One sweep runs over the sink members, where column 0 is the best
    arrival at node 1 by each layer and never decreases, so the earliest
    optimal arrival is its first maximum.  Node 1's only out-edge is its
    loop, and its column is below the optimum before that layer, so the
    trace back never passes through node 1."""
    k = t.layer_count
    *trellis, den = _staged(t, node)
    if node == 1:
        return WalkSummary(ZERO, 0, 0, (1,), k if mirrored else 0)
    mem_num, mem_fin, seq0 = _kernels._mirror(*trellis) if mirrored else trellis
    sink = _kernels._sink(_kernels.encode(mem_num, mem_fin))
    tab = _kernels._sweep(sink, seq0, _kernels._units(t.node_size, node - 1))
    best, layer = int(tab[k, 0]), int(tab[:, 0].argmax())
    if best <= _kernels.FLOOR:
        return _EMPTY_SUMMARY
    nodes = _trace_back(sink, seq0, tab, layer, 0, best)
    if mirrored:
        nodes.reverse()
    return _summary(best, den, nodes, k - layer if mirrored else 0)


def _trace_back(mem, seq0, row, layer: int, node: int, target) -> list[int]:
    """Nodes of one walk of weight ``target`` ending at (layer, node), where
    row[l, p] is the best weight of a walk reaching p at layer l; takes the
    smallest predecessor at each step."""
    nodes = [node]
    for l in range(layer, 0, -1):
        hits = row[l - 1] + mem[seq0[l - 1], :, node] == target
        if not hits.any():
            raise RuntimeError("walk backtracking lost the optimum")
        node = int(hits.argmax())
        target = row[l - 1, node]
        nodes.append(node)
    nodes.reverse()
    return nodes


# ---------------------------------------------------------------------------
# Walk-length and decomposition checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LemmaCheck:
    """Outcome of one structural check across applicable node pairs."""

    name: str
    holds: bool
    checked: int
    skipped: int
    failures: tuple[dict, ...]


@dataclass(frozen=True)
class LemmaReport:
    initial_length: LemmaCheck
    final_length: LemmaCheck
    through_one_decomposition: LemmaCheck
    avoiding_strictly_below: LemmaCheck

    @property
    def all_hold(self) -> bool:
        return (
            self.initial_length.holds
            and self.final_length.holds
            and self.through_one_decomposition.holds
            and self.avoiding_strictly_below.holds
        )


def check_lemma_bounds(t: TrellisDigraph) -> LemmaReport:
    """Verify the walk-structure facts behind the transient bounds.

    On the trellis of an admissible family:

    * initial_length: some optimal initial walk into node 1 has length at
      most (w*_i - alpha_i) / lambda* + (n - 1), the initial part of
      term2;
    * final_length: the mirror statement for final walks, against the
      final part (v*_j - beta_j) / lambda* + (n - 1);
    * through_one_decomposition: once k exceeds term2(i, j), the best full
      walk through node 1 has weight exactly w*_i + v*_j;
    * avoiding_strictly_below: once k exceeds term1(i, j) (met at every
      length when gamma_ij is -inf), every node-1-avoiding full walk
      weighs strictly less than w*_i + v*_j.

    All four thresholds are read off one bound report of :mod:`bounds`,
    evaluated with the trellis vectors w*, v* in place of w, v: term1,
    term2 and term2's two parts, for every node and pair at once.  Nodes
    and pairs whose walk classes are empty are counted as skipped.

    The walk facts come from two sweeps over the sequence, each serving
    every start at once: walks avoiding node 1 (with their arrivals at
    node 1) on the trellis and on its mirror (whose arrivals are the
    departures from node 1).  Each finishes as a vector sweep once its
    state is rank-one, which is exact for any family.  w* and v* are the
    best arrivals and departures over all layers, read off the same two
    tables as the walk lengths.  Node 1's loop is the only critical cycle
    of an admissible family, so the best walk through node 1 is a best
    arrival, the loop and a best departure, and its table is joined from
    the two sweeps without a third.
    """
    family = t.family
    family.require_valid("walk-structure checks")
    k = t.layer_count
    # Two all-starts avoiding sweeps with rank-one absorption; every pair
    # reads its answer from these.  The departures are the arrivals of
    # the mirror, read backwards, so the latest departure is the first
    # maximum.  w* and v* are the best arrival and departure of each node
    # over all layers; node 1 has the empty initial and final walk.
    mem_num, mem_fin, seq0, den = t._arrays()
    mem = _kernels.encode(mem_num, mem_fin)
    into, avoiding = _kernels.avoiding_sweep(mem, seq0)
    departures, _ = _kernels.avoiding_sweep(*_kernels._mirror(mem, seq0))
    through = _kernels._through_table(into, departures)
    initial_len, final_len = into.argmax(axis=0), departures.argmax(axis=0)
    initial_len[0] = final_len[0] = 0
    w, v = into.max(axis=0), departures.max(axis=0)
    w[0] = v[0] = 0
    terms = family_bound_report(family, _column(w, den), _column(v, den), "trellis")

    w_num, w_fin = _kernels.decode(w)
    v_num, v_fin = _kernels.decode(v)
    pairs = w_fin[:, None] & v_fin
    target = w_num[:, None] + v_num
    through_on = pairs & _exceeded(terms.term2, k)
    through_bad = through_on & ~((through > _kernels.FLOOR) & (through == target))
    avoiding_on = pairs & _exceeded(terms.term1, k)
    avoiding_bad = avoiding_on & (avoiding > _kernels.FLOOR) & (avoiding >= target)

    return LemmaReport(
        initial_length=_length_check("initial_length", "i", terms.initial_lengths, initial_len),
        final_length=_length_check("final_length", "j", terms.final_lengths, final_len),
        through_one_decomposition=_pair_check(
            "through_one_decomposition", through_on, through_bad,
            ("through", "expected"), through, target, den,
        ),
        avoiding_strictly_below=_pair_check(
            "avoiding_strictly_below", avoiding_on, avoiding_bad,
            ("avoiding", "target"), avoiding, target, den,
        ),
    )


def _exceeded(term: TropicalMatrix, k) -> np.ndarray:
    """Where k > term, true where the term is -inf; k is an integer or an
    integer array that broadcasts against the term.  For integer k and a
    positive denominator d, k > x / d exactly when x // d < k."""
    num, fin = term.scaled(term.denominator)
    return ~fin | (num // term.denominator < k)


def _length_check(name: str, key: str, bounds: TropicalMatrix,
                  lengths: np.ndarray) -> LemmaCheck:
    """Per node with a finite length bound (an n x 1 part of term2): its
    minimum optimal walk length is at most that bound."""
    on = bounds._fin[:, 0]
    bad = on & _exceeded(bounds, lengths[:, None])[:, 0]
    failures = tuple(
        {key: x + 1, "min_length": int(lengths[x]), "bound": weight_token(bounds.entry(x, 0))}
        for x in np.flatnonzero(bad).tolist()
    )
    checked = int(on.sum())
    return LemmaCheck(name, not failures, checked, on.size - checked, failures)


def _pair_check(name: str, on: np.ndarray, bad: np.ndarray, keys: tuple[str, str],
                walks: np.ndarray, target: np.ndarray, den: int) -> LemmaCheck:
    """A check over the pairs where ``on`` holds, failing where ``bad``
    holds; each failure reports the encoded walk weight and the target
    under ``keys``, in row-major order."""
    walk_key, target_key = keys
    failures = tuple(
        {"i": i + 1, "j": j + 1, walk_key: weight_token(_weight(walks[i, j], den)),
         target_key: weight_token(_frac(target[i, j], den))}
        for i, j in np.argwhere(bad).tolist()
    )
    checked = int(on.sum())
    return LemmaCheck(name, not failures, checked, on.size - checked, failures)
