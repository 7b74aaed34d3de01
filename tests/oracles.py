"""Independent brute-force reference implementations for the test suite.

Everything here except the last section works on plain ``list[list]``
grids of ``Fraction`` with ``None`` for the absent entry, uses no numpy,
and favors obviousness over speed.  Conversions from the package types go
through ``grid()`` so test comparisons never reuse the code under test.

The last section keeps the package's earlier numpy kernels: masked
products and trellis DPs that follow one start node at a time with
explicit finiteness masks.  They are the reference for the sentinel
kernels in ``tropical_transient._kernels``.
"""

from fractions import Fraction

import numpy as np

from tropical_transient.semiring import EPSILON, Epsilon


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
