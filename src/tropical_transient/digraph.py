"""Digraph structure of max-plus matrices and cycle-mean machinery.

A square matrix A induces a weighted digraph D_A on nodes 1..n with an
edge (i, j) of weight a_ij exactly when a_ij is finite.  This module
computes supports, geometric equivalence, irreducibility, maximum cycle
means (Karp's algorithm, exact rationals) with a canonical critical-cycle
witness, and the classical path quantities around the distinguished
node 1: best path weights into and out of it and best weights of walks
avoiding it.

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
from .matrix import TropicalMatrix, _check_magnitude, kleene_plus
from .semiring import EPSILON, Epsilon, Weight


@dataclass(frozen=True)
class EdgeSet:
    """The support of a square matrix: 1-based ordered pairs (i, j)."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return edge in self.edges

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def support(m: TropicalMatrix) -> EdgeSet:
    """Edges (i, j), 1-based, where the entry is finite."""
    if not m.is_square:
        raise DimensionError("support is defined for square matrices")
    fin = m._fin
    pairs = frozenset(
        (int(i) + 1, int(j) + 1) for i, j in zip(*np.nonzero(fin))
    )
    return EdgeSet(m.rows, pairs)


def geometrically_equivalent(a: TropicalMatrix, b: TropicalMatrix) -> bool:
    """True when both matrices have the same support."""
    if a.shape != b.shape:
        raise DimensionError("geometric comparison needs equal shapes")
    return bool(np.array_equal(a._fin, b._fin))


def _reachable(fin: np.ndarray, start: int) -> np.ndarray:
    n = fin.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[start] = True
    stack = [start]
    while stack:
        u = stack.pop()
        for v in np.nonzero(fin[u])[0]:
            if not seen[v]:
                seen[v] = True
                stack.append(int(v))
    return seen


def is_irreducible(m: TropicalMatrix) -> bool:
    """True when D_m is strongly connected (trivially so for n = 1)."""
    if not m.is_square:
        raise DimensionError("irreducibility is defined for square matrices")
    fin = m._fin
    if m.rows == 1:
        return True
    return bool(_reachable(fin, 0).all() and _reachable(fin.T, 0).all())


def strongly_connected_components(fin: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components in a deterministic order."""
    n = fin.shape[0]
    succ = [list(map(int, np.nonzero(fin[u])[0])) for u in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            u, pi = work[-1]
            if pi == 0:
                index[u] = low[u] = counter
                counter += 1
                stack.append(u)
                on_stack[u] = True
            advanced = False
            for k in range(pi, len(succ[u])):
                v = succ[u][k]
                if index[v] == -1:
                    work[-1] = (u, k + 1)
                    work.append((v, 0))
                    advanced = True
                    break
                if on_stack[v]:
                    low[u] = min(low[u], index[v])
            if advanced:
                continue
            if low[u] == index[u]:
                comp = []
                while True:
                    v = stack.pop()
                    on_stack[v] = False
                    comp.append(v)
                    if v == u:
                        break
                comps.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[u])
    return comps


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


def _require_negative_lambda(a_sup: TropicalMatrix, what: str) -> None:
    lam = lambda_star(a_sup).mean
    if not isinstance(lam, Epsilon) and lam >= 0:
        raise AssumptionError(
            f"{what} needs every node-1-avoiding cycle strictly negative; "
            f"the maximum off-1 cycle mean is {lam}"
        )


def _avoiding_closure(m: TropicalMatrix, what: str) -> TropicalMatrix:
    """Kleene-plus closure of m, none of whose cycles touches node 1.

    The closure itself notices a cycle of weight >= 0; only then does Karp
    run, to name the maximum off-1 cycle mean in the error.
    """
    closed = kleene_plus(m)
    if closed is None:
        _require_negative_lambda(m, what)
        raise RuntimeError("closure and cycle mean disagree on an off-1 cycle")
    return closed


def one_anchored_paths(m: TropicalMatrix, to_one: bool, what: str) -> TropicalMatrix:
    """Column vector of best path weights on D_m into node 1 (to_one) or
    out of it, touching node 1 only at that end; entry 1 is 0.

    Node 1 is made absorbing (no edge leaves it, or none enters it), so
    the remaining cycles are the off-1 ones, which must be negative.
    """
    absorbed = m.with_row_eps(0) if to_one else m.with_col_eps(0)
    closed = _avoiding_closure(absorbed, what)
    if not to_one:
        closed = closed.transpose()
    num, fin = closed._num[:, :1].copy(), closed._fin[:, :1].copy()
    num[0] = 0
    fin[0] = True
    return TropicalMatrix(num, fin, closed.denominator)


def best_paths_to_one(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Column vector of best path weights from each node into node 1.

    Entry i is the maximum weight of a path i -> 1 in D_{a_sup} touching
    node 1 only at its end; entry 1 is 0 (the empty path).  Requires the
    off-1 maximum cycle mean to be negative (else suprema need not be
    attained by paths).
    """
    return one_anchored_paths(a_sup, True, "best paths into node 1")


def best_paths_from_one(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Column vector of best path weights from node 1 to each node.

    Entry j is the maximum weight of a path 1 -> j touching node 1 only at
    its start; entry 1 is 0.  Same precondition as
    :func:`best_paths_to_one`.
    """
    return one_anchored_paths(a_sup, False, "best paths out of node 1")


def avoiding_walk_weights(a_sup: TropicalMatrix) -> TropicalMatrix:
    """Best weights of node-1-avoiding walks between every pair of nodes.

    Entry (i, j) is the maximum weight over walks i -> j of length at
    least one that never touch node 1; row 1 and column 1 are -inf, and
    the diagonal ranges over cycles.  Computed as the closure of a_sup
    with every edge at node 1 removed, which requires all avoiding cycles
    to be negative.
    """
    cut = a_sup.with_row_eps(0).with_col_eps(0)
    return _avoiding_closure(cut, "avoiding walk weights")


def validation_witness(kind: str, **fields) -> Mapping[str, object]:
    """A small JSON-ready mapping describing a failed check."""
    out: dict[str, object] = {"kind": kind}
    out.update(fields)
    return out
