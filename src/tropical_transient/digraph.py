"""Digraph structure of max-plus matrices and cycle-mean machinery.

A square matrix A induces a weighted digraph D_A on nodes 1..n with an
edge (i, j) of weight a_ij exactly when a_ij is finite.  This module
computes geometric equivalence (equal supports), irreducibility, maximum
cycle means (Karp's algorithm, exact rationals) with a canonical
critical-cycle witness, and the classical path quantities around the
distinguished node 1: best path weights into and out of it and best
weights of walks avoiding it.

Graph structure comes from one boolean reachability closure: a digraph
is irreducible when every node reaches every other, and its strongly
connected components are the classes of mutual reachability.  The path
quantities are three views of one weighted closure that never pivots on
node 1 (:func:`node_one_paths`), so a single closure of a matrix gives
all of them.

Node labels in public inputs and outputs are 1-based, matching the usual
matrix convention; array indices are 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

import numpy as np

from . import _kernels
from .errors import AssumptionError, DimensionError
from .matrix import TropicalMatrix, _check_magnitude, node_one_closure
from .semiring import EPSILON, Epsilon, Weight


def geometrically_equivalent(a: TropicalMatrix, b: TropicalMatrix) -> bool:
    """True when both matrices have the same support."""
    if a.shape != b.shape:
        raise DimensionError("geometric comparison needs equal shapes")
    return bool(np.array_equal(a._fin, b._fin))


def _reachability(fin: np.ndarray) -> np.ndarray:
    """r[i, j]: node j is reachable from node i by a walk of length >= 0.

    A boolean Floyd-Warshall pass: step k lets walks pass through node k.
    """
    r = fin | np.eye(fin.shape[0], dtype=bool)
    for k in range(len(r)):
        r |= r[:, k, None] & r[k]
    return r


def is_irreducible(m: TropicalMatrix) -> bool:
    """True when D_m is strongly connected (trivially so for n = 1)."""
    if not m.is_square:
        raise DimensionError("irreducibility is defined for square matrices")
    return bool(_reachability(m._fin).all())


def strongly_connected_components(fin: np.ndarray) -> list[list[int]]:
    """The classes of mutual reachability, each sorted, ordered by their
    smallest node."""
    r = _reachability(fin)
    mutual = r & r.T
    # Row v of mutual starts at the smallest node of v's class.
    roots = np.flatnonzero(mutual.argmax(axis=1) == np.arange(len(r)))
    return [np.flatnonzero(mutual[v]).tolist() for v in roots]


@dataclass(frozen=True)
class CycleMeanResult:
    """Maximum cycle mean and one critical cycle attaining it.

    The witness is a tuple of 1-based node labels listing the cycle once,
    starting from its smallest node, without repeating the start at the
    end.  It is None exactly when the digraph is acyclic (mean -inf).
    """

    mean: Weight
    witness: Optional[tuple[int, ...]]


def _karp_component(num: np.ndarray, fin: np.ndarray, den: int,
                    comp: list[int]) -> Optional[Fraction]:
    idx = np.asarray(comp)
    sub_num = num[np.ix_(idx, idx)]
    sub_fin = fin[np.ix_(idx, idx)]
    if not sub_fin.any():
        return None
    ns = len(comp)
    # Table entries stay within ns * big; the cross-multiplied quotients
    # below reach (2 ns - 1) * ns * big.
    big = int(np.abs(sub_num).max())
    _check_magnitude((2 * ns - 1) * ns * big, "cycle mean")
    # F[k, v] = best weight of a length-k walk from the source comp[0] to v
    # inside the component.
    source = np.full(ns, _kernels.MASKED)
    source[0] = 0
    F = _kernels.walk_table(_kernels.encode(sub_num, sub_fin), source, ns)
    walked = F > _kernels.FLOOR
    top = F[ns]
    # Per node v, the smallest (top - F[k]) / (ns - k) as a numerator and
    # denominator pair; a denominator of 0 means no quotient yet.
    q_num = np.zeros(ns, dtype=np.int64)
    q_den = np.zeros(ns, dtype=np.int64)
    for k in range(ns):
        ok = walked[k] & walked[ns]
        c_num = np.where(ok, top - F[k], 0)
        c_den = ns - k
        better = ok & ((q_den == 0) | (c_num * q_den < q_num * c_den))
        q_num[better] = c_num[better]
        q_den[better] = c_den
    best: Optional[tuple[int, int]] = None
    has = q_den > 0
    for p, q in zip(q_num[has].tolist(), q_den[has].tolist()):
        if best is None or p * best[1] > best[0] * q:
            best = (p, q)
    if best is None:
        return None
    return Fraction(best[0], den * best[1])


def _critical_cycle(num: np.ndarray, fin: np.ndarray, den: int,
                    lam: Fraction, comps: list[list[int]]) -> tuple[int, ...]:
    """A canonical cycle of mean lam: the one that is lexicographically
    smallest among critical cycles written from their smallest node.

    comps are the strongly connected components whose maximum cycle mean
    is lam.  Every cycle lies inside one component, so the search runs on
    their nodes alone, with the edges between components dropped.
    """
    nodes = np.array(sorted(v for comp in comps for v in comp))
    label = np.empty(fin.shape[0], dtype=np.intp)
    for c, comp in enumerate(comps):
        label[comp] = c
    sub = np.ix_(nodes, nodes)
    fin = fin[sub] & (label[nodes][:, None] == label[nodes][None, :])
    num = np.where(fin, num[sub], 0)
    n = len(nodes)
    # Edge weights a_uv - lam, scaled to integers by lcm(den, q) for
    # lam = p / q.
    g = math.gcd(den, lam.denominator)
    scale, shift = lam.denominator // g, lam.numerator * (den // g)
    _check_magnitude(max(int(np.abs(num).max()) * scale, abs(shift)), "critical cycle")
    w = np.where(fin, num * scale - shift, 0)
    top = int(np.abs(w).max())
    _check_magnitude(n * top, "critical cycle")
    # Longest-path potentials from a virtual source: after normalization no
    # cycle is positive, so best walks are paths of at most n - 1 edges.
    # Every critical cycle is tight under any such potential, and every
    # tight cycle is critical.
    d = _kernels.walk_table(_kernels.encode(w, fin), np.zeros(n, dtype=np.int64), n - 1)
    d = d.max(axis=0)
    tight = [row.tolist() for row in map(np.flatnonzero, fin & (d[:, None] + w == d))]

    def reaches(target: int, frontier: int, banned: set[int]) -> bool:
        seen = {frontier}
        stack = [frontier]
        while stack:
            x = stack.pop()
            for y in tight[x]:
                if y == target:
                    return True
                if y not in seen and y not in banned:
                    seen.add(y)
                    stack.append(y)
        return False

    start = next(u for u in range(n) if tight[u] and reaches(u, u, set()))
    # Greedy lexicographic walk through the tight subgraph; every tight
    # cycle has mean lam, so any simple cycle found here is critical.
    # Nodes below start cannot lie on a cycle through start (start is the
    # smallest node on any tight cycle), and a candidate is viable only if
    # start stays reachable without reentering the partial path.
    cycle = [start]
    used: set[int] = set()
    cur = start
    while True:
        nxt = None
        for v in tight[cur]:
            if v < start or v in used:
                continue
            if v == start or reaches(start, v, used):
                nxt = v
                break
        if nxt is None:
            raise RuntimeError("critical cycle reconstruction failed")
        if nxt == start:
            break
        cycle.append(nxt)
        used.add(nxt)
        cur = nxt
    return tuple(int(nodes[v]) + 1 for v in cycle)


def max_cycle_mean(m: TropicalMatrix) -> CycleMeanResult:
    """The maximum mean weight over all cycles of D_m, with a witness.

    Runs Karp's algorithm on each strongly connected component and keeps
    the best value; acyclic digraphs give (-inf, None).  All arithmetic is
    exact: walk weights stay on the integer grid and the final divisions
    produce Fractions.
    """
    if not m.is_square:
        raise DimensionError("cycle means are defined for square matrices")
    num, fin, den = m._num, m._fin, m._den
    comps = strongly_connected_components(fin)
    means = [_karp_component(num, fin, den, comp) for comp in comps]
    best = max((mean for mean in means if mean is not None), default=None)
    if best is None:
        return CycleMeanResult(EPSILON, None)
    critical = [comp for comp, mean in zip(comps, means) if mean == best]
    return CycleMeanResult(best, _critical_cycle(num, fin, den, best, critical))


def lambda_star(a_sup: TropicalMatrix) -> CycleMeanResult:
    """Maximum cycle mean of D_{a_sup} with node 1 removed.

    The witness keeps the original 1-based labels.  When every cycle goes
    through node 1 the result is (-inf, None).
    """
    if not a_sup.is_square:
        raise DimensionError("lambda* needs a square matrix")
    if a_sup.rows == 1:
        return CycleMeanResult(EPSILON, None)
    sub = a_sup.delete_node(0)
    res = max_cycle_mean(sub)
    if res.witness is None:
        return res
    return CycleMeanResult(res.mean, tuple(v + 1 for v in res.witness))


def node_one_paths(a: TropicalMatrix, closed: Optional[TropicalMatrix], what: str
                   ) -> tuple[TropicalMatrix, TropicalMatrix, TropicalMatrix]:
    """Path data around node 1 read off ``closed``, the
    :func:`~tropical_transient.matrix.node_one_closure` of a with some of
    its edges at node 1 removed.

    Returns column 1 (best paths into node 1) and row 1 as a column (best
    paths out of it), both with entry 1 set to 0 for the empty path, and
    the table with row and column 1 masked (best walks avoiding node 1).
    closed is None when some cycle has weight >= 0; Karp then names the
    maximum off-1 cycle mean of a in the error.
    """
    if closed is None:
        lam = lambda_star(a).mean
        if not isinstance(lam, Epsilon) and lam >= 0:
            raise AssumptionError(
                f"{what} needs every node-1-avoiding cycle strictly negative; "
                f"the maximum off-1 cycle mean is {lam}"
            )
        raise RuntimeError("closure and cycle mean disagree on an off-1 cycle")
    num, fin, den = closed._num, closed._fin, closed.denominator

    def anchored(num_line, fin_line):
        num_line, fin_line = num_line[:, None].copy(), fin_line[:, None].copy()
        num_line[0] = 0
        fin_line[0] = True
        return TropicalMatrix(num_line, fin_line, den)

    avoiding = fin.copy()
    avoiding[0] = False
    avoiding[:, 0] = False
    return (anchored(num[:, 0], fin[:, 0]), anchored(num[0], fin[0]),
            TropicalMatrix(num, avoiding, den))


def best_paths_to_one(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Column vector of best path weights from each node into node 1.

    Entry i is the maximum weight of a path i -> 1 in D_{a_sup} touching
    node 1 only at its end; entry 1 is 0 (the empty path).  Requires the
    off-1 maximum cycle mean to be negative (else suprema need not be
    attained by paths).
    """
    absorbed = a_sup.with_row_eps(0)
    return node_one_paths(a_sup, node_one_closure(absorbed), "best paths into node 1")[0]


def best_paths_from_one(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Column vector of best path weights from node 1 to each node.

    Entry j is the maximum weight of a path 1 -> j touching node 1 only at
    its start; entry 1 is 0.  Same precondition as
    :func:`best_paths_to_one`.
    """
    absorbed = a_sup.with_col_eps(0)
    return node_one_paths(a_sup, node_one_closure(absorbed), "best paths out of node 1")[1]


def avoiding_walk_weights(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Best weights of node-1-avoiding walks between every pair of nodes.

    Entry (i, j) is the maximum weight over walks i -> j of length at
    least one that never touch node 1; row 1 and column 1 are -inf, and
    the diagonal ranges over cycles.  Computed as the closure of a_sup
    with every edge at node 1 removed, which requires all avoiding cycles
    to be negative.
    """
    cut = a_sup.with_row_eps(0).with_col_eps(0)
    return node_one_paths(a_sup, node_one_closure(cut), "avoiding walk weights")[2]


def validation_witness(kind: str, **fields) -> Mapping[str, object]:
    """A small JSON-ready mapping describing a failed check."""
    out: dict[str, object] = {"kind": kind}
    out.update(fields)
    return out
