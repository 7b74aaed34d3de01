"""Independent brute-force reference implementations for the test suite.

The first sections work on plain ``list[list]`` grids of ``Fraction``
with ``None`` for the absent entry, use no numpy, and favor obviousness
over speed.  Conversions from the package types go
through ``grid()`` so test comparisons never reuse the code under test.

The later sections keep code the package has replaced: masked numpy
products and trellis DPs that follow one start node at a time with
explicit finiteness masks (the reference for the sentinel kernels in
``tropical_transient._kernels``), the bound terms and the walk-structure
checks in ``Fraction`` arithmetic, the transient scan one sequence at a
time, the exhaustive scan that extends every product of each level, the
loader that converts one entry at a time, validation's loop check by
Karp's cycle mean, and validation deciding every member on its own.

Small helpers the tests share live here as well: matrices built from
grids (columns, transposes, outer products), the scalar semiring
operations, seeded sequences, family files, and validation checks by
name.
"""

import itertools
import math
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from tropical_transient import digraph, io
from tropical_transient.bounds import BoundReport
from tropical_transient.errors import (
    BudgetExceededError,
    DimensionError,
    FamilyFileError,
)
from tropical_transient.family import (
    AssumptionCheck,
    MatrixFamily,
    ValidationReport,
    max_walk_magnitude,
)
from tropical_transient.matrix import (
    _STORE_LIMIT,
    TropicalMatrix,
    _check_magnitude,
    node_one_closure,
)
from tropical_transient.products import (
    DEFAULT_PRODUCT_BUDGET,
    ProductSequence,
    TransientEstimate,
    fold,
)
from tropical_transient.semiring import (
    EPSILON,
    Epsilon,
    Weight,
    as_weight,
    weight_from_token,
    weight_token,
)
from tropical_transient.trellis import (
    LemmaCheck,
    LemmaReport,
    best_avoiding_full_weight,
    best_through_one_weight,
    final_weights_all,
    initial_weights_all,
    optimal_final_walk,
    optimal_initial_walk,
)


def grid(matrix):
    """TropicalMatrix -> list of lists with None for -inf."""
    return [
        [None if isinstance(x, Epsilon) else x for x in row]
        for row in matrix.to_rows()
    ]


def ungrid(rows):
    return [[EPSILON if x is None else x for x in row] for row in rows]


def column(matrix):
    return [row[0] for row in grid(matrix)]


def from_column(values) -> TropicalMatrix:
    """The n x 1 matrix of the given weights."""
    return TropicalMatrix.from_rows([[w] for w in values])


def transpose(matrix) -> TropicalMatrix:
    return TropicalMatrix.from_rows([list(col) for col in zip(*matrix.to_rows())])


def outer_product(x, y) -> TropicalMatrix:
    """The rank-one matrix x (x) y^T of two column vectors, entry by entry."""
    return TropicalMatrix.from_rows([[mp_mul(a, b) for b in column(y)] for a in column(x)])


def grid_le(a, b):
    """Entrywise a <= b of two equal-shape grids; None is below every weight."""
    assert len(a) == len(b) and all(len(ra) == len(rb) for ra, rb in zip(a, b))
    return all(x is None or (y is not None and x <= y)
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_eps(w: Weight) -> bool:
    return isinstance(w, Epsilon)


def oplus(a: Weight, b: Weight) -> Weight:
    """Semiring addition: max(a, b), with EPSILON as neutral element."""
    if isinstance(a, Epsilon):
        return b
    if isinstance(b, Epsilon):
        return a
    return a if a >= b else b


def otimes(a: Weight, b: Weight) -> Weight:
    """Semiring multiplication: a + b, with EPSILON as absorbing element."""
    if isinstance(a, Epsilon) or isinstance(b, Epsilon):
        return EPSILON
    return a + b


def random_sequence(family, length: int, seed: int) -> ProductSequence:
    """A seeded uniform sequence of the given length (PCG64)."""
    if length < 1:
        raise ValueError("sequence length must be at least 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = rng.integers(1, family.member_count + 1, size=length)
    return ProductSequence(tuple(int(x) for x in draws))


def save_family(family, path, names=None) -> None:
    """Write a family file in the layout ``load_family`` reads."""
    Path(path).write_text(io.json_text(io.family_to_dict(family, names)) + "\n",
                          encoding="utf-8")


def check(report, name: str) -> AssumptionCheck:
    """The check of a validation report with the given name."""
    return next(c for c in report.checks if c.name == name)


def mp_mul(a, b):
    if a is None or b is None:
        return None
    return a + b


def mp_max(values):
    finite = [v for v in values if v is not None]
    return max(finite) if finite else None


def naive_matmul(a, b):
    n, mid, m = len(a), len(b), len(b[0])
    assert all(len(row) == mid for row in a)
    return [
        [mp_max([mp_mul(a[i][k], b[k][j]) for k in range(mid)]) for j in range(m)]
        for i in range(n)
    ]


def naive_fold(grids):
    out = grids[0]
    for g in grids[1:]:
        out = naive_matmul(out, g)
    return out


def naive_power(g, k):
    n = len(g)
    out = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = naive_matmul(out, g)
    return out


def is_rank_one(g):
    """Definition check: every entry equals column-1 + row-1 - corner."""
    if g[0][0] is None:
        return False
    for i in range(len(g)):
        for j in range(len(g)):
            want = mp_mul(g[i][0], mp_mul(g[0][j], -g[0][0]))
            if (g[i][j] is None) != (want is None):
                return False
            if want is not None and g[i][j] != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Simple paths and cycles (node indices are 0-based here)
# ---------------------------------------------------------------------------

def edges(g):
    n = len(g)
    return [(i, j) for i in range(n) for j in range(n) if g[i][j] is not None]


def best_simple_path(g, start, end, forbidden=()):
    """Best total weight over simple paths start -> end.

    Intermediate nodes are distinct, never in ``forbidden`` and never equal
    to ``end``; start == end gives the empty path of weight 0.  Returns None
    when no such path exists.
    """
    if start == end:
        return Fraction(0)
    n = len(g)
    blocked = set(forbidden)
    best = [None]

    def walk(node, seen, weight):
        for succ in range(n):
            w = g[node][succ]
            if w is None:
                continue
            if succ == end:
                total = weight + w
                if best[0] is None or total > best[0]:
                    best[0] = total
            elif succ not in seen and succ not in blocked:
                walk(succ, seen | {succ}, weight + w)

    if start in blocked:
        return None
    walk(start, {start}, Fraction(0))
    return best[0]


def simple_cycles(g, forbidden=()):
    """All simple cycles as (nodes, weight), nodes starting at their minimum.

    ``forbidden`` nodes are excluded entirely.
    """
    n = len(g)
    blocked = set(forbidden)
    out = []

    def walk(start, node, seen, weight, path):
        for succ in range(n):
            w = g[node][succ]
            if w is None or succ in blocked:
                continue
            if succ == start:
                out.append((tuple(path), weight + w))
            elif succ > start and succ not in seen:
                walk(start, succ, seen | {succ}, weight + w, path + [succ])

    for start in range(n):
        if start not in blocked:
            walk(start, start, {start}, Fraction(0), [start])
    return out


def max_cycle_mean(g, forbidden=()):
    """(best mean, cycles attaining it) or (None, []) when acyclic."""
    cycles = simple_cycles(g, forbidden)
    if not cycles:
        return None, []
    best = max(Fraction(w, len(nodes)) for nodes, w in cycles)
    attaining = [nodes for nodes, w in cycles if Fraction(w, len(nodes)) == best]
    return best, attaining


# ---------------------------------------------------------------------------
# Trellis walks by exhaustive tuple enumeration (tiny sizes only)
# ---------------------------------------------------------------------------

def trellis_walks(grids, i, j):
    """All full walks i -> j as (node tuple, weight); k = len(grids) layers.

    Depth-first over the edges present, so absent edges prune whole
    subtrees instead of being found one node tuple at a time.
    """
    k = len(grids)
    out = []

    def extend(nodes, weight):
        if len(nodes) == k + 1:
            if nodes[-1] == j:
                out.append((tuple(nodes), weight))
            return
        for succ, w in enumerate(grids[len(nodes) - 1][nodes[-1]]):
            if w is not None:
                nodes.append(succ)
                extend(nodes, weight + w)
                nodes.pop()

    extend([i], Fraction(0))
    return out


def _touches(nodes, node):
    return [t for t, v in enumerate(nodes) if v == node]


def best_walk(walks, key=None):
    """(weight, min length among optima) with walk length = len(nodes) - 1."""
    if key is not None:
        walks = [wk for wk in walks if key(wk)]
    if not walks:
        return None, None
    weight = max(w for _, w in walks)
    length = min(len(nodes) - 1 for nodes, w in walks if w == weight)
    return weight, length


def trellis_best_full(grids, i, j):
    return best_walk(trellis_walks(grids, i, j))


def trellis_best_avoiding(grids, i, j, node=0):
    return best_walk(
        trellis_walks(grids, i, j), key=lambda wk: not _touches(wk[0], node)
    )


def trellis_best_through(grids, i, j, node=0):
    return best_walk(
        trellis_walks(grids, i, j), key=lambda wk: bool(_touches(wk[0], node))
    )


def trellis_best_initial(grids, i, node=0):
    """Walks i -> node touching it exactly once, at the end; any arrival layer.

    Returns (weight, min walk length among optima).  The empty walk counts
    for i == node.
    """
    if i == node:
        return Fraction(0), 0
    best = (None, None)
    for arrive in range(1, len(grids) + 1):
        for nodes, w in trellis_walks(grids[:arrive], i, node):
            if _touches(nodes, node) != [len(nodes) - 1]:
                continue
            if best[0] is None or w > best[0] or (w == best[0] and len(nodes) - 1 < best[1]):
                best = (w, len(nodes) - 1)
    return best


def trellis_best_final(grids, j, node=0):
    """Walks node -> j touching it only at the start, departing at any layer."""
    if j == node:
        return Fraction(0), 0
    best = (None, None)
    for depart in range(len(grids)):
        for nodes, w in trellis_walks(grids[depart:], node, j):
            if _touches(nodes, node) != [0]:
                continue
            if best[0] is None or w > best[0] or (w == best[0] and len(nodes) - 1 < best[1]):
                best = (w, len(nodes) - 1)
    return best


# ---------------------------------------------------------------------------
# Earlier masked numpy kernels (node 0 is the distinguished node)
# ---------------------------------------------------------------------------
#
# Each takes an int64 numerator grid and a boolean finiteness mask and
# returns the same pair; masked numerators are unspecified filler.  _NEG is
# a reduction identity only: sums are formed first, then masked slots are
# replaced, so it never takes part in an addition.

_NEG = np.int64(np.iinfo(np.int64).min // 4)


def masked_matmul(a_num, a_fin, b_num, b_fin):
    s = a_num[:, :, None] + b_num[None, :, :]
    ok = a_fin[:, :, None] & b_fin[None, :, :]
    s = np.where(ok, s, _NEG)
    fin = ok.any(axis=1)
    num = s.max(axis=1, initial=_NEG)
    return np.where(fin, num, np.int64(0)), fin


def _step(vec_num, vec_fin, a_num, a_fin):
    # One layer of a forward DP: vec (x) A.
    s = vec_num[:, None] + a_num
    ok = vec_fin[:, None] & a_fin
    s = np.where(ok, s, _NEG)
    fin = ok.any(axis=0)
    num = s.max(axis=0, initial=_NEG)
    return np.where(fin, num, np.int64(0)), fin


def _step_back(a_num, a_fin, vec_num, vec_fin):
    # One layer of a backward DP: A (x) vec.
    s = a_num + vec_num[None, :]
    ok = a_fin & vec_fin[None, :]
    s = np.where(ok, s, _NEG)
    fin = ok.any(axis=1)
    num = s.max(axis=1, initial=_NEG)
    return np.where(fin, num, np.int64(0)), fin


def masked_fold(mem_num, mem_fin, seq):
    cur_num = mem_num[seq[0]].copy()
    cur_fin = mem_fin[seq[0]].copy()
    for t in range(1, seq.shape[0]):
        cur_num, cur_fin = masked_matmul(cur_num, cur_fin, mem_num[seq[t]], mem_fin[seq[t]])
    return cur_num, cur_fin


def masked_forward_full(mem_num, mem_fin, seq, start):
    k = seq.shape[0]
    n = mem_num.shape[1]
    tab_num = np.zeros((k + 1, n), dtype=np.int64)
    tab_fin = np.zeros((k + 1, n), dtype=np.bool_)
    tab_fin[0, start] = True
    for l in range(1, k + 1):
        tab_num[l], tab_fin[l] = _step(
            tab_num[l - 1], tab_fin[l - 1], mem_num[seq[l - 1]], mem_fin[seq[l - 1]]
        )
    return tab_num, tab_fin


def masked_forward_avoid(mem_num, mem_fin, seq, start):
    k = seq.shape[0]
    n = mem_num.shape[1]
    tab_num = np.zeros((k + 1, n), dtype=np.int64)
    tab_fin = np.zeros((k + 1, n), dtype=np.bool_)
    if start != 0:
        tab_fin[0, start] = True
    blocked = np.zeros(n, dtype=np.bool_)
    blocked[0] = True
    for l in range(1, k + 1):
        a_fin = mem_fin[seq[l - 1]] & ~blocked[:, None] & ~blocked[None, :]
        num, fin = _step(tab_num[l - 1], tab_fin[l - 1], mem_num[seq[l - 1]], a_fin)
        tab_num[l], tab_fin[l] = num, fin
    return tab_num, tab_fin


def masked_backward_avoid(mem_num, mem_fin, seq, target):
    k = seq.shape[0]
    n = mem_num.shape[1]
    tab_num = np.zeros((k + 1, n), dtype=np.int64)
    tab_fin = np.zeros((k + 1, n), dtype=np.bool_)
    if target != 0:
        tab_fin[k, target] = True
    blocked = np.zeros(n, dtype=np.bool_)
    blocked[0] = True
    for l in range(k - 1, -1, -1):
        a_fin = mem_fin[seq[l]] & ~blocked[:, None] & ~blocked[None, :]
        num, fin = _step_back(mem_num[seq[l]], a_fin, tab_num[l + 1], tab_fin[l + 1])
        tab_num[l], tab_fin[l] = num, fin
    return tab_num, tab_fin


def masked_initial_to_anchor(mem_num, mem_fin, seq):
    k = seq.shape[0]
    n = mem_num.shape[1]
    cur_num = np.zeros(n, dtype=np.int64)
    cur_fin = np.zeros(n, dtype=np.bool_)
    blocked = np.zeros(n, dtype=np.bool_)
    blocked[0] = True
    for l in range(k - 1, -1, -1):
        a_num = mem_num[seq[l]]
        a_fin = mem_fin[seq[l]]
        inner_fin = a_fin & ~blocked[:, None] & ~blocked[None, :]
        num, fin = _step_back(a_num, inner_fin, cur_num, cur_fin)
        arr_num = a_num[:, 0]
        arr_fin = a_fin[:, 0] & ~blocked
        take_arr = arr_fin & (~fin | (arr_num > num))
        num = np.where(take_arr, arr_num, num)
        fin = fin | arr_fin
        num = np.where(fin, num, np.int64(0))
        cur_num, cur_fin = num, fin
    cur_num = cur_num.copy()
    cur_fin = cur_fin.copy()
    cur_num[0] = 0
    cur_fin[0] = True
    return cur_num, cur_fin


def masked_final_from_anchor(mem_num, mem_fin, seq):
    k = seq.shape[0]
    n = mem_num.shape[1]
    cur_num = np.zeros(n, dtype=np.int64)
    cur_fin = np.zeros(n, dtype=np.bool_)
    blocked = np.zeros(n, dtype=np.bool_)
    blocked[0] = True
    for l in range(1, k + 1):
        a_num = mem_num[seq[l - 1]]
        a_fin = mem_fin[seq[l - 1]]
        inner_fin = a_fin & ~blocked[:, None] & ~blocked[None, :]
        num, fin = _step(cur_num, cur_fin, a_num, inner_fin)
        dep_num = a_num[0, :]
        dep_fin = a_fin[0, :] & ~blocked
        take_dep = dep_fin & (~fin | (dep_num > num))
        num = np.where(take_dep, dep_num, num)
        fin = fin | dep_fin
        num = np.where(fin, num, np.int64(0))
        cur_num, cur_fin = num, fin
    cur_num = cur_num.copy()
    cur_fin = cur_fin.copy()
    cur_num[0] = 0
    cur_fin[0] = True
    return cur_num, cur_fin


def masked_through_anchor(mem_num, mem_fin, seq, start):
    k = seq.shape[0]
    n = mem_num.shape[1]
    nt_num = np.zeros(n, dtype=np.int64)
    nt_fin = np.zeros(n, dtype=np.bool_)
    t_num = np.zeros(n, dtype=np.int64)
    t_fin = np.zeros(n, dtype=np.bool_)
    if start == 0:
        t_fin[0] = True
    else:
        nt_fin[start] = True
    blocked = np.zeros(n, dtype=np.bool_)
    blocked[0] = True
    for l in range(1, k + 1):
        a_num = mem_num[seq[l - 1]]
        a_fin = mem_fin[seq[l - 1]]
        new_t_num, new_t_fin = _step(t_num, t_fin, a_num, a_fin)
        # nt walks arriving at node 0 become touched.
        arr_num = nt_num + a_num[:, 0]
        arr_fin = nt_fin & a_fin[:, 0] & ~blocked
        arr = np.where(arr_fin, arr_num, _NEG)
        best_arr = arr.max(initial=_NEG)
        if arr_fin.any() and (not new_t_fin[0] or best_arr > new_t_num[0]):
            new_t_num[0] = best_arr
            new_t_fin[0] = True
        inner_fin = a_fin & ~blocked[:, None] & ~blocked[None, :]
        new_nt_num, new_nt_fin = _step(nt_num, nt_fin, a_num, inner_fin)
        nt_num, nt_fin = new_nt_num, new_nt_fin
        t_num, t_fin = new_t_num, new_t_fin
    return t_num, t_fin


# ---------------------------------------------------------------------------
# Bound terms one entry pair at a time, in Fraction arithmetic (the package's
# earlier compute_bound_report, kept as the reference for the integer grid)
# ---------------------------------------------------------------------------

def _quotient(numerator: Weight, lam: Weight) -> Weight:
    """numerator / lam with the conventions used by the bound terms."""
    if isinstance(numerator, Epsilon):
        return EPSILON
    if isinstance(lam, Epsilon):
        return Fraction(0)
    return numerator / lam


def fraction_bound_report(
    w: TropicalMatrix,
    v: TropicalMatrix,
    alpha: TropicalMatrix,
    beta: TropicalMatrix,
    gamma: TropicalMatrix,
    lam: Weight,
    mode: str,
) -> BoundReport:
    """Evaluate both bound terms from already derived vectors.

    w, v, alpha and beta are n x 1 column vectors, gamma is n x n, and lam
    is the off-1 maximum cycle mean.  The argmax is the first entry pair
    in row-major order attaining the overall bound, preferring term1 when
    both terms attain it at that entry.
    """
    n = w.rows
    for vec in (v, alpha, beta):
        if vec.shape != (n, 1):
            raise DimensionError("bound vectors must be matching n x 1 columns")
    if gamma.shape != (n, n):
        raise DimensionError("gamma must be n x n")
    if not isinstance(lam, Epsilon) and lam >= 0:
        raise DimensionError("bound terms need a negative or -inf cycle mean")

    const1 = Fraction(n - 1)
    const2 = Fraction(2 * (n - 1))
    t1_rows: list[list[Weight]] = []
    t2_rows: list[list[Weight]] = []
    per_rows: list[list[Weight]] = []
    # term2's parts, each on its own: the walk-length bounds from w, alpha
    # and from v, beta.
    initial = [_shift(_quotient(_sub(w.entry(i, 0), alpha.entry(i, 0)), lam), const1)
               for i in range(n)]
    final = [_shift(_quotient(_sub(v.entry(j, 0), beta.entry(j, 0)), lam), const1)
             for j in range(n)]
    overall: Optional[Fraction] = None
    argmax: Optional[tuple[int, int, str]] = None
    for i in range(n):
        w_i = w.entry(i, 0)
        r_i = _sub(w_i, alpha.entry(i, 0))
        t1_row: list[Weight] = []
        t2_row: list[Weight] = []
        per_row: list[Weight] = []
        for j in range(n):
            v_j = v.entry(j, 0)
            t1_num = _sub(otimes(w_i, v_j), gamma.entry(i, j))
            t1 = _shift(_quotient(t1_num, lam), const1)
            t2_num = otimes(r_i, _sub(v_j, beta.entry(j, 0)))
            t2 = _shift(_quotient(t2_num, lam), const2)
            entry = oplus(t1, t2)
            t1_row.append(t1)
            t2_row.append(t2)
            per_row.append(entry)
            if not isinstance(entry, Epsilon):
                if overall is None or entry > overall:
                    overall = entry
                    from_t1 = not isinstance(t1, Epsilon) and entry == t1
                    argmax = (i + 1, j + 1, "term1" if from_t1 else "term2")
        t1_rows.append(t1_row)
        t2_rows.append(t2_row)
        per_rows.append(per_row)
    if overall is None:
        raise DimensionError("no entry pair yields a finite bound")
    return BoundReport(
        mode=mode,
        term1=TropicalMatrix.from_rows(t1_rows),
        term2=TropicalMatrix.from_rows(t2_rows),
        initial_lengths=from_column(initial),
        final_lengths=from_column(final),
        per_entry=TropicalMatrix.from_rows(per_rows),
        overall=overall,
        argmax=argmax,
        min_sufficient_length=math.floor(overall) + 1,
        lambda_star=lam,
        lambda_star_undefined=isinstance(lam, Epsilon),
    )


def _sub(a: Weight, b: Weight) -> Weight:
    # a - b where b = -inf makes the combined term unconstrained: the
    # callers only subtract path weights that are finite whenever a is.
    if isinstance(a, Epsilon):
        return EPSILON
    if isinstance(b, Epsilon):
        return EPSILON
    return a - b


def _shift(q: Weight, c: Fraction) -> Weight:
    if isinstance(q, Epsilon):
        return EPSILON
    return q + c


# ---------------------------------------------------------------------------
# Walk-structure checks one pair at a time, in Fraction arithmetic (the
# package's earlier check_lemma_bounds, kept as the reference for the
# thresholds read off the bound terms)
# ---------------------------------------------------------------------------

def fraction_lemma_report(trellis) -> LemmaReport:
    """The four walk-structure checks of ``trellis.check_lemma_bounds``,
    each threshold evaluated per node or pair from w*, v*, alpha, beta,
    gamma and lambda*, each walk fact read from a single-start DP."""
    family = trellis.family
    family.require_valid("walk-structure checks")
    n = trellis.node_size
    k = trellis.layer_count
    derived = family.sup_derived
    lam = derived.lambda_star.mean
    wstar = initial_weights_all(trellis)
    vstar = final_weights_all(trellis)

    def q(x: Weight) -> Weight:
        if isinstance(x, Epsilon):
            return EPSILON
        if isinstance(lam, Epsilon):
            return Fraction(0)
        return x / lam

    def length_check(name, key, weights, anchor, walk):
        failures = []
        checked = skipped = 0
        for x in range(1, n + 1):
            w_x = weights.entry(x - 1, 0)
            if isinstance(w_x, Epsilon):
                skipped += 1
                continue
            bound = q(_finite_sub(w_x, anchor.entry(x - 1, 0))) + Fraction(n - 1)
            length = walk(trellis, x).min_length_among_optima
            checked += 1
            if Fraction(length) > bound:
                failures.append(
                    {key: x, "min_length": length, "bound": weight_token(bound)}
                )
        return LemmaCheck(name, not failures, checked, skipped, tuple(failures))

    thr_fail = []
    thr_checked = thr_skipped = 0
    avd_fail = []
    avd_checked = avd_skipped = 0
    for i in range(1, n + 1):
        w_i = wstar.entry(i - 1, 0)
        a_i = derived.alpha.entry(i - 1, 0)
        for j in range(1, n + 1):
            v_j = vstar.entry(j - 1, 0)
            if isinstance(w_i, Epsilon) or isinstance(v_j, Epsilon):
                thr_skipped += 1
                avd_skipped += 1
                continue
            target = w_i + v_j
            b_j = derived.beta.entry(j - 1, 0)
            t2 = q(_finite_sub(w_i, a_i) + _finite_sub(v_j, b_j)) + Fraction(2 * (n - 1))
            if Fraction(k) > t2:
                thr_checked += 1
                through_ij = best_through_one_weight(trellis, i, j)
                if through_ij != target:
                    thr_fail.append(
                        {"i": i, "j": j, "through": weight_token(through_ij),
                         "expected": weight_token(target)}
                    )
            else:
                thr_skipped += 1
            g_ij = derived.gamma.entry(i - 1, j - 1)
            if isinstance(g_ij, Epsilon):
                t1_met = True
            else:
                t1 = q(w_i + v_j - g_ij) + Fraction(n - 1)
                t1_met = Fraction(k) > t1
            if t1_met:
                avd_checked += 1
                avoiding = best_avoiding_full_weight(trellis, i, j)
                if not (isinstance(avoiding, Epsilon) or avoiding < target):
                    avd_fail.append(
                        {"i": i, "j": j, "avoiding": weight_token(avoiding),
                         "target": weight_token(target)}
                    )
            else:
                avd_skipped += 1

    return LemmaReport(
        initial_length=length_check(
            "initial_length", "i", wstar, derived.alpha, optimal_initial_walk
        ),
        final_length=length_check(
            "final_length", "j", vstar, derived.beta, optimal_final_walk
        ),
        through_one_decomposition=LemmaCheck(
            "through_one_decomposition", not thr_fail, thr_checked, thr_skipped,
            tuple(thr_fail),
        ),
        avoiding_strictly_below=LemmaCheck(
            "avoiding_strictly_below", not avd_fail, avd_checked, avd_skipped,
            tuple(avd_fail),
        ),
    )


def _finite_sub(a: Fraction, b: Weight) -> Fraction:
    # Validated families have finite alpha and beta everywhere, so a -inf
    # here means the caller is off the supported path.
    if isinstance(b, Epsilon):
        raise DimensionError("subtracting -inf in a length bound")
    return a - b


# ---------------------------------------------------------------------------
# Maximum cycle mean by Howard policy iteration (Cochet-Terrasson, Cohen,
# Gaubert, McGettrick and Quadrat, 1998), independent of Karp's algorithm
# ---------------------------------------------------------------------------

def _policy_values(g, policy, old_bias):
    """Cycle mean reached (eta) and bias of every node under a policy.

    On each policy cycle the smallest node keeps its previous bias (0 the
    first time), the normalisation under which policy iteration settles.
    """
    eta, bias = {}, {}
    for root in policy:
        path, node = [], root
        while node not in eta and node not in path:
            path.append(node)
            node = policy[node]
        if node not in eta:
            # path ends in a new cycle starting at node.
            cycle = path[path.index(node):]
            mean = Fraction(sum(g[u][policy[u]] for u in cycle), len(cycle))
            k = cycle.index(min(cycle))
            anchor = cycle[k]
            eta[anchor] = mean
            bias[anchor] = old_bias.get(anchor, Fraction(0))
            path = path[:path.index(node)] + cycle[k + 1:] + cycle[:k]
        for u in reversed(path):
            nxt = policy[u]
            eta[u] = eta[nxt]
            bias[u] = g[u][nxt] - eta[u] + bias[nxt]
    return eta, bias


def howard_max_cycle_mean(g, forbidden=()):
    """(best mean, one cycle attaining it) or (None, None) when acyclic.

    The cycle is a tuple of 0-based nodes starting at its smallest one.
    Before returning, the final policy's values are checked as a
    certificate: no edge leads to a larger reached mean, and within a
    mean class no edge improves the bias, so no cycle beats the returned
    one.
    """
    n = len(g)
    alive = {v for v in range(n) if v not in forbidden}
    while True:
        # Nodes without a successor lie on no cycle.
        succ = {v: [u for u in range(n) if u in alive and g[v][u] is not None]
                for v in alive}
        dead = {v for v, out in succ.items() if not out}
        if not dead:
            break
        alive -= dead
    if not alive:
        return None, None
    policy = {v: max(succ[v], key=lambda u: (g[v][u], -u)) for v in sorted(alive)}
    bias = {}
    for _ in range(100 * n):
        eta, bias = _policy_values(g, policy, bias)
        new = dict(policy)
        for v in policy:
            best = max(succ[v], key=lambda u: eta[u])
            if eta[best] > eta[v]:
                new[v] = best
        if new == policy:
            for v in policy:
                same = [u for u in succ[v] if eta[u] == eta[v]]
                best = max(same, key=lambda u: g[v][u] + bias[u])
                if g[v][best] - eta[v] + bias[best] > bias[v]:
                    new[v] = best
        if new == policy:
            break
        policy = new
    else:
        raise RuntimeError("policy iteration did not settle")
    for v in policy:
        for u in succ[v]:
            assert eta[u] <= eta[v]
            assert eta[u] < eta[v] or g[v][u] - eta[v] + bias[u] <= bias[v]
    lam = max(eta.values())
    node = min(v for v in policy if eta[v] == lam)
    seen = []
    while node not in seen:
        seen.append(node)
        node = policy[node]
    cycle = seen[seen.index(node):]
    k = cycle.index(min(cycle))
    return lam, tuple(cycle[k:] + cycle[:k])


# ---------------------------------------------------------------------------
# The rank-one definition in Python ints, the transient scan one sequence
# at a time (the package's earlier estimate_transient, kept as the
# reference for the stacked scan), and the exhaustive scan over full
# levels (the reference for the pruned one)
# ---------------------------------------------------------------------------

def exact_rank_one(num: np.ndarray, fin: np.ndarray) -> np.ndarray:
    """Which matrices of a decoded (B, n, n) stack are rank-one: a finite
    pivot, the outer finiteness pattern of column 1 and row 1, and
    m_ij = m_i1 + m_1j - m_11 wherever finite.  The sums are Python ints
    (an object array), so no magnitude needs headroom."""
    num = num.astype(object)
    expect_fin = fin[:, :, :1] & fin[:, :1, :]
    expect_num = num[:, :, :1] + num[:, :1, :] - num[:, :1, :1]
    same = (fin == expect_fin) & ((num == expect_num) | ~fin)
    return fin[:, 0, 0] & same.all(axis=(1, 2))


def _is_rank_one(family, indices: tuple[int, ...]) -> bool:
    product = fold(family, indices)
    return bool(exact_rank_one(product._num[None], product._fin[None])[0])


def per_sequence_estimate(
    family,
    horizon: int,
    mode: str = "sampled",
    samples_per_length: int = 100,
    seed: int = 0,
    max_products: int = DEFAULT_PRODUCT_BUDGET,
) -> TransientEstimate:
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    m = family.member_count

    per_length: list[list[tuple[int, ...]]] = []
    if mode == "exhaustive":
        total = 0
        for k in range(1, horizon + 1):
            total += m**k
            if total > max_products:
                raise BudgetExceededError(
                    f"exhaustive scan needs {total}+ products, budget is {max_products}"
                )
        for k in range(1, horizon + 1):
            per_length.append(
                [tuple(p) for p in itertools.product(range(1, m + 1), repeat=k)]
            )
        samples_recorded = None
    else:
        if samples_per_length < 1:
            raise ValueError("samples_per_length must be at least 1")
        if horizon * samples_per_length > max_products:
            raise BudgetExceededError(
                f"sampled scan needs {horizon * samples_per_length} products, "
                f"budget is {max_products}"
            )
        rng = np.random.Generator(np.random.PCG64(seed))
        for k in range(1, horizon + 1):
            draws = rng.integers(1, m + 1, size=(samples_per_length, k))
            per_length.append([tuple(int(x) for x in row) for row in draws])
        samples_recorded = samples_per_length

    return _estimate(
        mode, horizon,
        ((len(batch), [idx for idx in batch if not _is_rank_one(family, idx)])
         for batch in per_length),
        samples_recorded, seed,
    )


def _estimate(mode, horizon, levels, samples_recorded, seed) -> TransientEstimate:
    # levels yields, per length, the number of products examined and the
    # sequences of those that are not rank-one.
    examined = 0
    counterexamples: list[tuple[int, tuple[int, ...]]] = []
    for k, (count, failed) in enumerate(levels, start=1):
        examined += count
        counterexamples.extend((k, tuple(idx)) for idx in failed)

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


def _level_products(num, fin, mem_num, mem_fin):
    # Every product of a (B, n, n) level times every member, as (B m, n, n)
    # (numerator, mask) arrays with row p m + j = level[p] (x) member j:
    # the masked_matmul broadcast over a stack, a few hundred rows at a time.
    b, (m, n, _) = len(num), mem_num.shape
    out_num = np.empty((b, m, n, n), dtype=np.int64)
    out_fin = np.empty((b, m, n, n), dtype=bool)
    for s in range(0, b, 256):
        x_num, x_fin = num[s:s + 256, :, :, None], fin[s:s + 256, :, :, None]
        for j in range(m):
            ok = x_fin & mem_fin[j]
            out_fin[s:s + 256, j] = ok.any(axis=2)
            best = np.where(ok, x_num + mem_num[j], _NEG).max(axis=2)
            out_num[s:s + 256, j] = np.where(out_fin[s:s + 256, j], best, np.int64(0))
    return out_num.reshape(b * m, n, n), out_fin.reshape(b * m, n, n)


def _full_levels(family, horizon):
    mem_num, mem_fin, _ = family.stacked
    m = len(mem_num)
    num, fin = mem_num, mem_fin
    for k in range(1, horizon + 1):
        _check_magnitude(max_walk_magnitude(family, k), "sequence fold")
        if k > 1:
            num, fin = _level_products(num, fin, mem_num, mem_fin)
        failed = np.flatnonzero(~exact_rank_one(num, fin))
        # Row r is the sequence whose 0-based indices are the k base-m
        # digits of r, most significant first: itertools.product order.
        yield len(num), (failed[:, None] // m ** np.arange(k - 1, -1, -1) % m + 1).tolist()


def full_level_estimate(family, horizon: int,
                        max_products: int = DEFAULT_PRODUCT_BUDGET) -> TransientEstimate:
    """Exhaustive ``estimate_transient`` that extends every product of each
    level, rank-one or not, and tests all of them."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    m = family.member_count
    total = 0
    for k in range(1, horizon + 1):
        total += m**k
        if total > max_products:
            raise BudgetExceededError(
                f"exhaustive scan needs {total}+ products, budget is {max_products}"
            )
    return _estimate("exhaustive", horizon, _full_levels(family, horizon), None, 0)


# ---------------------------------------------------------------------------
# The per-entry Fraction loader and from_rows (the package's earlier
# construction path, kept as the reference for the token table), and
# validation with its support and connectivity checks read off ``grid`` and
# its loop check deciding the side-cycle sign with Karp
# ---------------------------------------------------------------------------

def fraction_from_rows(rows) -> TropicalMatrix:
    """``TropicalMatrix.from_rows``, converting and checking one entry at a
    time."""
    weights = [[as_weight(v) for v in row] for row in rows]
    r = len(weights)
    if r == 0:
        raise DimensionError("matrix needs at least one row")
    c = len(weights[0])
    if c == 0 or any(len(row) != c for row in weights):
        raise DimensionError("rows must be nonempty and of equal length")
    den = 1
    for row in weights:
        for w in row:
            if not isinstance(w, Epsilon):
                den = den * w.denominator // math.gcd(den, w.denominator)
    num = np.zeros((r, c), dtype=np.int64)
    fin = np.zeros((r, c), dtype=np.bool_)
    for i, row in enumerate(weights):
        for j, w in enumerate(row):
            if not isinstance(w, Epsilon):
                scaled = w.numerator * (den // w.denominator)
                _check_magnitude(abs(scaled), "matrix construction", _STORE_LIMIT)
                num[i, j] = scaled
                fin[i, j] = True
    return TropicalMatrix(num, fin, den)


def fraction_load_family(path):
    """``io.load_family``, parsing every token with ``weight_from_token``
    and building each member with :func:`fraction_from_rows`."""
    data = io._load_json(path)
    if not isinstance(data, dict) or "members" not in data:
        raise FamilyFileError(f"{path}: expected an object with a 'members' list")
    raw_members = data["members"]
    if not isinstance(raw_members, list) or not raw_members:
        raise FamilyFileError(f"{path}: 'members' must be a nonempty list")
    n = data.get("n")
    members = []
    names = []
    for mi, raw in enumerate(raw_members, start=1):
        if not isinstance(raw, dict) or "rows" not in raw:
            raise FamilyFileError(f"{path}: member {mi} must be an object with 'rows'")
        name = raw.get("name", f"A{mi}")
        rows = raw["rows"]
        if not isinstance(rows, list) or not rows:
            raise FamilyFileError(f"{path}: member {name}: 'rows' must be a nonempty list")
        if n is None:
            n = len(rows)
        if len(rows) != n:
            raise FamilyFileError(f"{path}: member {name} has {len(rows)} rows, expected {n}")
        weights = []
        for ri, row in enumerate(rows, start=1):
            if not isinstance(row, list) or len(row) != n:
                raise FamilyFileError(f"{path}: member {name} row {ri} must have {n} entries")
            parsed = []
            try:
                for tok in row:
                    parsed.append(weight_from_token(tok))
            except ValueError as exc:
                where = f"{path}: member {name} row {ri} column {len(parsed) + 1}"
                raise FamilyFileError(f"{exc}", position=where) from exc
            weights.append(parsed)
        members.append(fraction_from_rows(weights))
        names.append(str(name))
    return MatrixFamily(members), tuple(names)


def matrix_token_rows(m: TropicalMatrix) -> list:
    """``io.matrix_tokens``, one ``weight_token`` per entry."""
    return [[weight_token(w) for w in row] for row in m.to_rows()]


def karp_loop_check(m: TropicalMatrix, label: str):
    """``MatrixFamily._loop_check`` with the side-cycle sign read off
    ``max_cycle_mean``."""
    loop = m.entry(0, 0)
    if isinstance(loop, Epsilon) or loop != 0:
        return digraph.validation_witness(
            "node1_loop_weight", matrix=label, entry=[1, 1], value=weight_token(loop)
        )
    other = digraph.max_cycle_mean(m.with_entry(0, 0, EPSILON))
    if not isinstance(other.mean, Epsilon) and other.mean >= 0:
        return digraph.validation_witness(
            "nonnegative_side_cycle",
            matrix=label,
            cycle=list(other.witness),
            mean=weight_token(other.mean),
        )
    return None


def support_check(family: MatrixFamily) -> AssumptionCheck:
    """The geometric-equivalence check, comparing the -inf entries of each
    member with member 1's one entry at a time; the witness is the first
    differing entry of the first differing member, in row-major order."""
    grids = [grid(m) for m in family.members]
    n = family.size
    for idx, g in enumerate(grids[1:], start=2):
        for i, j in itertools.product(range(n), repeat=2):
            if (grids[0][i][j] is None) != (g[i][j] is None):
                label = f"member {idx}"
                return AssumptionCheck("geometric_equivalence", False, digraph.validation_witness(
                    "support_mismatch",
                    matrix=label,
                    edge=[i + 1, j + 1],
                    present_in="member 1" if g[i][j] is None else label,
                ))
    return AssumptionCheck("geometric_equivalence", True)


def _reaches_all(n: int, edge) -> bool:
    """Whether a depth-first search from node 0 along ``edge(u, v)`` visits
    all n nodes."""
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for v in range(n):
            if v not in seen and edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == n


def connectivity_check(family: MatrixFamily) -> AssumptionCheck:
    """The irreducibility check: a member is strongly connected when node
    0 reaches every node and every node reaches node 0; the witness names
    the first member that is not."""
    n = family.size
    for idx, m in enumerate(family.members, start=1):
        g = grid(m)
        if not (_reaches_all(n, lambda u, v: g[u][v] is not None)
                and _reaches_all(n, lambda u, v: g[v][u] is not None)):
            return AssumptionCheck("irreducibility", False, digraph.validation_witness(
                "not_strongly_connected", member=idx
            ))
    return AssumptionCheck("irreducibility", True)


def karp_validation(family: MatrixFamily) -> ValidationReport:
    """``family.validation`` from the checks of this section: the support
    and connectivity checks above, and both loop checks run by
    :func:`karp_loop_check`."""
    def loops(name, labeled):
        for label, m in labeled:
            witness = karp_loop_check(m, label)
            if witness is not None:
                return AssumptionCheck(name, False, witness)
        return AssumptionCheck(name, True)

    members = [(f"member {i}", m) for i, m in enumerate(family.members, start=1)]
    return ValidationReport((
        support_check(family),
        connectivity_check(family),
        loops("members_node1_critical_loop", members),
        loops("sup_node1_critical_loop", [("A_sup", family.a_sup)]),
    ))


def per_member_validation(family: MatrixFamily) -> ValidationReport:
    """``family.validation`` deciding every member on its own: each
    member's side cycles by its own node-1 closure (Karp for the witness,
    or in place of the closure past its guard), and each member's
    irreducibility by its own reachability closure."""
    def loop_check(m, label):
        loop = m.entry(0, 0)
        if not isinstance(loop, Epsilon) and loop == 0:
            try:
                if node_one_closure(m.with_entry(0, 0, EPSILON)) is not None:
                    return None
            except OverflowError:
                pass
        return karp_loop_check(m, label)

    def loops(name, labeled):
        for label, m in labeled:
            witness = loop_check(m, label)
            if witness is not None:
                return AssumptionCheck(name, False, witness)
        return AssumptionCheck(name, True)

    def irreducibility():
        for idx, m in enumerate(family.members, start=1):
            if not digraph.is_irreducible(m):
                return AssumptionCheck("irreducibility", False, digraph.validation_witness(
                    "not_strongly_connected", member=idx
                ))
        return AssumptionCheck("irreducibility", True)

    members = [(f"member {i}", m) for i, m in enumerate(family.members, start=1)]
    return ValidationReport((
        support_check(family),
        irreducibility(),
        loops("members_node1_critical_loop", members),
        loops("sup_node1_critical_loop", [("A_sup", family.a_sup)]),
    ))
