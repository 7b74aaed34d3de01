"""Dense max-plus matrices over exact rationals.

A :class:`TropicalMatrix` stores its finite entries as int64 numerators on
a single common denominator, plus a boolean finiteness mask for -inf
entries.  Max-plus arithmetic only adds and compares entries, so products
of matrices on a common grid stay on that grid and every operation here is
exact.  Results are reduced to the smallest denominator, which makes
equality a plain array comparison.  Every operation that combines matrices
takes its operands from :func:`common_grid`, which puts them on their least
common denominator.

Instances are immutable; all operations return new matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import _kernels
from .errors import DimensionError, PivotError
from .semiring import EPSILON, Epsilon, Weight, as_weight, weight_token

# Headroom bounds for int64 numerators.  Stored numerators, and sums formed
# by plain numpy arithmetic here, stay below _STORE_LIMIT.  Every magnitude
# a kernel can form stays below _GUARD, which keeps finite sums apart from
# the masked sentinel of ``_kernels``.  Operations check the largest
# possible magnitude before running.
_STORE_LIMIT = 1 << 62
_GUARD = 1 << 61


def _check_magnitude(total: int, context: str, limit: int = _GUARD) -> None:
    if total >= limit:
        raise OverflowError(
            f"{context}: scaled integer magnitude {total} exceeds the int64 budget"
        )


class TokenTable:
    """Weight tokens, each parsed once, and matrices written as grids of
    their ids.

    A string token is its own key, as a string only equals strings; any
    other token is keyed by its type and value, so ``True`` never shares
    an id with ``1``.  Each id keeps the weight's numerator, denominator
    and finiteness.  A matrix reads only the ids it uses, so parsing costs
    one step per distinct token and scaling one per distinct token of the
    matrix, not per entry.
    """

    __slots__ = ("_parse", "_ids", "_num", "_den", "_fin")

    def __init__(self, parse: Callable[[object], Weight]):
        self._parse = parse
        self._ids: dict = {}
        # -inf is kept as 0/1 and not finite.
        self._num: list[int] = []
        self._den: list[int] = []
        self._fin: list[bool] = []

    def _id(self, tok) -> int:
        key = tok if type(tok) is str else (type(tok), tok)
        try:
            i = self._ids.get(key)
        except TypeError:  # unhashable: parsed, nearly always to an error
            key = None
            i = None
        if i is None:
            w = self._parse(tok)
            finite = not isinstance(w, Epsilon)
            self._num.append(w.numerator if finite else 0)
            self._den.append(w.denominator if finite else 1)
            self._fin.append(finite)
            i = len(self._fin) - 1
            if key is not None:
                self._ids[key] = i
        return i

    def ids(self, row: Iterable) -> list[int]:
        """The ids of one row's tokens, in order.  A token not seen before
        is parsed; the first one that fails raises the parser's error."""
        return [self._id(tok) for tok in row]

    def matrix(self, grid: list[list[int]]) -> "TropicalMatrix":
        """The matrix whose entry (i, j) is the weight of token grid[i][j].

        Its denominator is the lcm over the distinct finite weights.  A
        scaled magnitude at or past ``_STORE_LIMIT`` raises OverflowError
        for the first such entry in row-major order.
        """
        r = len(grid)
        if r == 0:
            raise DimensionError("matrix needs at least one row")
        c = len(grid[0])
        if c == 0 or any(len(row) != c for row in grid):
            raise DimensionError("rows must be nonempty and of equal length")
        ids = np.array(grid, dtype=np.intp)
        # Renumber the ids this matrix uses into a compact table, so its
        # lcm, scaling and checks see only its own tokens, however many
        # the table holds for the rest of the family.
        used = np.zeros(len(self._fin), dtype=np.bool_)
        used[ids] = True
        keep = np.flatnonzero(used)
        local = np.zeros(len(self._fin), dtype=np.intp)
        local[keep] = np.arange(len(keep))
        ids = local[ids]
        keep = keep.tolist()
        den = math.lcm(*(self._den[i] for i in keep))
        scaled = [self._num[i] * (den // self._den[i]) for i in keep]
        if max(map(abs, scaled)) >= _STORE_LIMIT:
            too_big = np.array([abs(s) >= _STORE_LIMIT for s in scaled])
            first = ids.flat[too_big[ids].argmax()]  # in row-major order
            _check_magnitude(abs(scaled[first]), "matrix construction", _STORE_LIMIT)
        num = np.array(scaled, dtype=np.int64)
        fin = np.array([self._fin[i] for i in keep], dtype=np.bool_)
        return TropicalMatrix(num[ids], fin[ids], den)


class TropicalMatrix:
    """An r x c max-plus matrix with exact rational entries."""

    __slots__ = ("_num", "_fin", "_den")

    def __init__(self, num: np.ndarray, fin: np.ndarray, den: int = 1):
        num = np.ascontiguousarray(num, dtype=np.int64)
        fin = np.ascontiguousarray(fin, dtype=np.bool_)
        if num.ndim != 2 or num.shape != fin.shape:
            raise DimensionError("numerator and mask must be matching 2-d arrays")
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        num = np.where(fin, num, np.int64(0))
        if fin.any():
            g = int(np.gcd.reduce(np.abs(num[fin])))
            g = math.gcd(g, den)
            if g > 1:
                num = num // g
                den = den // g
        else:
            den = 1
        num.setflags(write=False)
        fin.setflags(write=False)
        self._num = num
        self._fin = fin
        self._den = den

    # -- construction -------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "TropicalMatrix":
        """Build from nested values accepted by :func:`semiring.as_weight`,
        through a :class:`TokenTable` of their own."""
        table = TokenTable(as_weight)
        return table.matrix([table.ids(row) for row in rows])

    @classmethod
    def eps(cls, rows: int, cols: int) -> "TropicalMatrix":
        """The all -inf matrix (additive identity)."""
        return cls(np.zeros((rows, cols), np.int64), np.zeros((rows, cols), np.bool_))

    @classmethod
    def identity(cls, n: int) -> "TropicalMatrix":
        """The max-plus identity: 0 on the diagonal, -inf elsewhere."""
        num = np.zeros((n, n), dtype=np.int64)
        fin = np.eye(n, dtype=np.bool_)
        return cls(num, fin)

    # -- basic queries ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._num.shape

    @property
    def rows(self) -> int:
        return self._num.shape[0]

    @property
    def cols(self) -> int:
        return self._num.shape[1]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Weight:
        """The (i, j) entry, 0-based indices."""
        if not self._fin[i, j]:
            return EPSILON
        return Fraction(int(self._num[i, j]), self._den)

    def to_rows(self) -> list[list[Weight]]:
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    @property
    def max_abs_numerator(self) -> int:
        if not self._fin.any():
            return 0
        return int(np.abs(self._num[self._fin]).max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._den == other._den
            and np.array_equal(self._fin, other._fin)
            and np.array_equal(self._num, other._num)
        )

    __hash__ = None

    def __repr__(self) -> str:
        body = "; ".join(
            " ".join(str(weight_token(self.entry(i, j))) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"TropicalMatrix[{body}]"

    # -- scaled access for kernels -----------------------------------------

    @property
    def denominator(self) -> int:
        return self._den

    def scaled(self, den: int) -> tuple[np.ndarray, np.ndarray]:
        """Numerator grid and mask rescaled to the given denominator."""
        if den % self._den:
            raise ValueError("target denominator must be a multiple")
        factor = den // self._den
        if factor == 1:
            return self._num, self._fin
        _check_magnitude(self.max_abs_numerator * factor, "rescaling", _STORE_LIMIT)
        return self._num * np.int64(factor), self._fin

    # -- algebra ------------------------------------------------------------

    def __matmul__(self, other: "TropicalMatrix") -> "TropicalMatrix":
        if not isinstance(other, TropicalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        den, ((a_num, a_fin), (b_num, b_fin)) = common_grid(self, other)
        _check_magnitude(
            self.max_abs_numerator * (den // self._den)
            + other.max_abs_numerator * (den // other._den),
            "matrix product",
        )
        num, fin = _kernels.ACTIVE.matmul(a_num, a_fin, b_num, b_fin)
        return TropicalMatrix(num, fin, den)

    def _entrywise(self, other: "TropicalMatrix", what: str):
        """:func:`common_grid` of two matrices of equal shape."""
        if self.shape != other.shape:
            raise DimensionError(f"entrywise {what} needs equal shapes")
        return common_grid(self, other)

    def oplus(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise max."""
        den, ((a_num, a_fin), (b_num, b_fin)) = self._entrywise(other, "max")
        take_b = b_fin & (~a_fin | (b_num > a_num))
        return TropicalMatrix(np.where(take_b, b_num, a_num), a_fin | b_fin, den)

    def emin(self, other: "TropicalMatrix") -> "TropicalMatrix":
        """Entrywise min (-inf absorbs)."""
        den, ((a_num, a_fin), (b_num, b_fin)) = self._entrywise(other, "min")
        return TropicalMatrix(np.minimum(a_num, b_num), a_fin & b_fin, den)

    # -- structural edits (returning new instances) -------------------------

    def _masked(self, where) -> "TropicalMatrix":
        """This matrix with the entries at index ``where`` set to -inf."""
        fin = self._fin.copy()
        fin[where] = False
        return TropicalMatrix(self._num, fin, self._den)

    def with_entry(self, i: int, j: int, value) -> "TropicalMatrix":
        w = as_weight(value)
        if isinstance(w, Epsilon):
            return self._masked((i, j))
        den = math.lcm(self._den, w.denominator)
        num, fin = (a.copy() for a in self.scaled(den))
        scaled = w.numerator * (den // w.denominator)
        _check_magnitude(abs(scaled), "entry update", _STORE_LIMIT)
        num[i, j] = scaled
        fin[i, j] = True
        return TropicalMatrix(num, fin, den)

    def with_row_eps(self, i: int) -> "TropicalMatrix":
        return self._masked(np.s_[i, :])

    def with_col_eps(self, j: int) -> "TropicalMatrix":
        return self._masked(np.s_[:, j])


def common_grid(*matrices: TropicalMatrix) -> tuple[int, list[tuple[np.ndarray, np.ndarray]]]:
    """The least common denominator of the matrices, and each one's
    numerator grid and mask rescaled to it (see :meth:`TropicalMatrix.scaled`)."""
    den = math.lcm(*(m._den for m in matrices))
    return den, [m.scaled(den) for m in matrices]


def rank_one_factor(m: TropicalMatrix) -> Optional[tuple[TropicalMatrix, TropicalMatrix]]:
    """Factor m as x (x) y^T pivoting on entry (1,1), or None.

    Returns column vectors (x, y) with x_1 = m_{1,1} and y_1 = 0, so that
    m_ij = x_i + y_j wherever finite and the finiteness patterns agree.
    The test is ``_kernels.rank_one``, which forms only differences of two
    stored numerators and so cannot leave int64.  The row factor
    y = row 1 - m_11 is the one value formed here: it fits in int64, and
    in lowest terms it must stay below ``_STORE_LIMIT`` like any stored
    matrix, or OverflowError is raised.  A product of a guarded fold
    (every |entry| < 2**61) always passes, as then |y| < 2**62.  A general
    search over other pivots is out of scope.

    Raises :class:`PivotError` when the pivot m_{1,1} is -inf.
    """
    if not m.is_square:
        raise DimensionError("rank-one factorization needs a square matrix")
    num, fin, den = m._num, m._fin, m._den
    if not fin[0, 0]:
        raise PivotError("rank-one pivot (1,1) is -inf")
    if not _kernels.rank_one(num, fin):
        return None
    x = TropicalMatrix(num[:, 0][:, None].copy(), fin[:, 0][:, None].copy(), den)
    y = TropicalMatrix((num[0, :] - num[0, 0])[:, None], fin[0, :][:, None].copy(), den)
    _check_magnitude(y.max_abs_numerator, "rank-one factor", _STORE_LIMIT)
    return x, y


def walk_closure(m: TropicalMatrix, max_len: int) -> TropicalMatrix:
    """The sum m (+) m^2 (+) ... (+) m^max_len of positive-length powers.

    Entry (i, j) is the best weight of a walk from i to j using at most
    max_len edges (at least one).  max_len = 0 gives the all -inf matrix.
    """
    if not m.is_square:
        raise DimensionError("walk closure needs a square matrix")
    acc = TropicalMatrix.eps(m.rows, m.cols)
    cur = TropicalMatrix.identity(m.rows)
    for _ in range(max_len):
        cur = cur @ m
        acc = acc.oplus(cur)
    return acc


def node_one_closure(m: TropicalMatrix) -> Optional[TropicalMatrix]:
    """Best weights of walks of length >= 1 whose inner nodes avoid node 1,
    or None when some cycle of D_m has weight >= 0.

    Entry (i, j) ranges over walks that touch node 1 at most at their
    ends: column 1 holds the best walks into node 1, row 1 those out of
    it, and the rest the walks avoiding it.  With every cycle negative,
    best walks are simple paths and simple cycles, so n - 1 Floyd-Warshall
    steps (none on node 1) give the exact table.
    """
    if not m.is_square:
        raise DimensionError("walk closure needs a square matrix")
    _check_magnitude(2 * m.rows * m.max_abs_numerator, "walk closure")
    closed = _kernels.closure(_kernels.encode(m._num, m._fin))
    if closed is None:
        return None
    return TropicalMatrix(*_kernels.decode(closed), m.denominator)
