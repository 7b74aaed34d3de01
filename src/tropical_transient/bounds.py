"""Transient length bounds for rank-one factorization of long products.

For an admissible family, any product of more than B factors is tropically
rank-one, where B is the maximum over entry pairs (i, j) of two terms:

    term1(i, j) = (w_i + v_j - gamma_ij) / lambda* + (n - 1)
    term2(i, j) = L_i + L'_j

and the per-entry bound is max(term1, term2).  term2 is the sum of two
walk-length bounds, L_i = (w_i - alpha_i) / lambda* + (n - 1) for the
optimal initial walk from i and L'_j = (v_j - beta_j) / lambda* + (n - 1)
for the final walk into j; the report keeps both parts.  There are two
modes:

* explicit: w and v are the best walk weights on A_inf into and out of
  node 1, computable from the family alone;
* implicit: w and v are replaced by the first column and first row of an
  already computed product, giving a sharper a-posteriori bound for that
  product's factor sequence.

lambda* is the maximum cycle mean of A_sup off node 1 and is negative for
admissible families.  When it is -inf (every cycle passes through node 1)
the quotients are taken as 0 and the report flags it: the terms and
both parts then degenerate to the constants n - 1 and 2(n - 1).

A term with numerator -inf contributes -inf: its condition is met at
every length (for gamma_ij = -inf there is no avoiding walk to beat).
Entry pairs where both terms are -inf never constrain the product and
are skipped.  The overall bound is the maximum of the per-entry bounds,
and any integer length strictly above it is sufficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import DimensionError
from .family import MatrixFamily
from .matrix import TropicalMatrix, _check_magnitude, common_grid
from .products import _staged_sequence
from .semiring import Epsilon, Weight


@dataclass(frozen=True)
class BoundReport:
    """Per-entry and overall transient bounds for one mode.

    ``initial_lengths`` and ``final_lengths`` are the n x 1 parts of
    term2: term2(i, j) is entry i of the first plus entry j of the second.
    """

    mode: str
    term1: TropicalMatrix
    term2: TropicalMatrix
    initial_lengths: TropicalMatrix
    final_lengths: TropicalMatrix
    per_entry: TropicalMatrix
    overall: Fraction
    argmax: tuple[int, int, str]
    min_sufficient_length: int
    lambda_star: Weight
    lambda_star_undefined: bool


def compute_bound_report(
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

    # Vectors stay n x 1 columns; a transposed one spans the n x n grid.
    w_fin, v_fin, a_fin, b_fin = (m._fin for m in (w, v, alpha, beta))
    fin1 = w_fin & v_fin.T & gamma._fin
    init_fin, final_fin = w_fin & a_fin, v_fin & b_fin
    fin2 = init_fin & final_fin.T
    const = n - 1
    if isinstance(lam, Epsilon):
        # Every quotient is 0: the terms are the bare constants.
        scale = 1
        t1 = np.full((n, n), const, dtype=np.int64)
        initial = final = np.full((n, 1), const, dtype=np.int64)
    else:
        # With lam = -p / q, a numerator N on the grid 1 / den gives
        # N / lam + c = (c den p - q N) / (den p).
        den, grid = common_grid(w, v, alpha, beta, gamma)
        nums = [num for num, _ in grid]
        w_num, v_num, a_num, b_num, g_num = nums
        p, q = -lam.numerator, lam.denominator
        scale = den * p
        mw, mv, ma, mb, mg = (int(np.abs(x).max()) for x in nums)
        _check_magnitude(
            max(q * (mw + mv + mg) + const * scale, q * (mw + ma + mv + mb) + 2 * const * scale),
            "bound terms",
        )
        t1 = const * scale - q * (w_num + v_num.T - g_num)
        initial = const * scale - q * (w_num - a_num)
        final = const * scale - q * (v_num - b_num)
    t2 = initial + final.T
    both = fin1 & fin2
    per_fin = fin1 | fin2
    if not per_fin.any():
        raise DimensionError("no entry pair yields a finite bound")
    per = np.where(both, np.maximum(t1, t2), np.where(fin1, t1, t2))
    # The first row-major entry attaining the maximum; term1 wins ties.
    i, j = divmod(int(np.argmax(np.where(per_fin, per, _kernels.MASKED))), n)
    overall = Fraction(int(per[i, j]), scale)
    from_t1 = bool(fin1[i, j]) and t1[i, j] == per[i, j]
    return BoundReport(
        mode=mode,
        term1=TropicalMatrix(t1, fin1, scale),
        term2=TropicalMatrix(t2, fin2, scale),
        initial_lengths=TropicalMatrix(initial, init_fin, scale),
        final_lengths=TropicalMatrix(final, final_fin, scale),
        per_entry=TropicalMatrix(per, per_fin, scale),
        overall=overall,
        argmax=(i + 1, j + 1, "term1" if from_t1 else "term2"),
        min_sufficient_length=math.floor(overall) + 1,
        lambda_star=lam,
        lambda_star_undefined=isinstance(lam, Epsilon),
    )


def family_bound_report(family: MatrixFamily, w: TropicalMatrix, v: TropicalMatrix,
                        mode: str) -> BoundReport:
    """:func:`compute_bound_report` for the n x 1 vectors w, v against the
    family's A_sup data (alpha, beta, gamma and lambda*)."""
    derived = family.sup_derived
    return compute_bound_report(
        w, v, derived.alpha, derived.beta, derived.gamma, derived.lambda_star.mean, mode
    )


def explicit_bound(family: MatrixFamily) -> BoundReport:
    """The a-priori bound from the family alone (w, v on A_inf)."""
    family.require_valid("explicit transient bound")
    return family_bound_report(
        family, family.inf_walk_to_one(), family.inf_walk_from_one(), "explicit"
    )


def implicit_bound(family: MatrixFamily, product: TropicalMatrix) -> BoundReport:
    """The a-posteriori bound for one computed product.

    Column 1 and row 1 of the product play the roles of w and v: they are
    the best initial-walk and final-walk weights of its factor sequence
    once the product is long enough to be rank-one, and in general they
    bound those weights from above.  For a factor sequence,
    :func:`implicit_sequence_bound` gives the same report without forming
    the product.
    """
    family.require_valid("implicit transient bound")
    if product.shape != (family.size, family.size):
        raise DimensionError("product must match the family dimension")
    num, fin = product.scaled(product.denominator)
    w = TropicalMatrix(num[:, :1], fin[:, :1], product.denominator)
    v = TropicalMatrix(num[:1].T, fin[:1].T, product.denominator)
    return family_bound_report(family, w, v, "implicit")


def implicit_sequence_bound(family: MatrixFamily, sequence) -> BoundReport:
    """``implicit_bound(family, fold(family, sequence))``, from two vector
    sweeps in place of the fold.

    The bound reads only column 1 and row 1 of the product.  In an
    admissible family they are the best initial-walk and final-walk
    weights w* and v* of the sequence (1-based member indices): a walk
    into node 1 can wait there on the weight-0 loop, and every other
    closed walk at node 1 weighs at most 0.  Each is one sweep of
    O(k D n) on the members' padded plan, D being the largest in-degree
    of their common support: the kernel behind
    ``trellis.initial_weights_all`` and ``final_weights_all``.  Index
    and int64 errors are those of the fold.
    """
    seq0 = _staged_sequence(family, sequence)
    family.require_valid("implicit transient bound")
    mem_num, mem_fin, den = family.stacked
    w_num, w_fin = _kernels.decode(_kernels.ACTIVE.initial_to_anchor(mem_num, mem_fin, seq0))
    v_num, v_fin = _kernels.decode(_kernels.ACTIVE.final_from_anchor(mem_num, mem_fin, seq0))
    w = TropicalMatrix(w_num[:, None], w_fin[:, None], den)
    v = TropicalMatrix(v_num[:, None], v_fin[:, None], den)
    return family_bound_report(family, w, v, "implicit")


def check_length_sufficient(report: BoundReport, k: int) -> bool:
    """True when a product of k factors is guaranteed rank-one."""
    return Fraction(k) > report.overall
