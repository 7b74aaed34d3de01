"""Finite families of max-plus matrices and their standing assumptions.

A family holds m square matrices of a common size.  Products drawn from
it are bracketed by two boundary matrices: the entrywise maximum A_sup
and minimum A_inf.  The transient analysis requires the family to be
*admissible*:

  1. all members share one support (geometric equivalence), which is then
     A_inf's as well: its support is the intersection of theirs;
  2. every member is irreducible;
  3. node 1 carries a loop of weight 0 in every member (hence in A_sup),
     and every other cycle of every member and of A_sup has negative
     weight, so that loop is the unique critical cycle.

Check 3 is decided by two exact tests per matrix: entry (1,1) equals 0,
and after deleting the (1,1) edge no cycle has weight >= 0, which the
closure around node 1 decides; the maximum cycle mean is computed only
for the witness of a failure.  Every member lies below A_sup entrywise,
so A_sup's closure decides the second test for all members at once.

A_sup is closed once: its closure without its loop decides check 3 for
A_sup and the members, and then gives alpha (column 1), beta (row 1) and
gamma (the rest).  w and v are two vector fixpoints over A_inf with node
1's row and column masked, each stopping at the first step that changes
nothing.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import _kernels
from .digraph import (
    CycleMeanResult,
    geometrically_equivalent,
    is_irreducible,
    lambda_star,
    max_cycle_mean,
    node_one_paths,
    validation_witness,
)
from .errors import AssumptionError, DimensionError
from .matrix import TropicalMatrix, _check_magnitude, common_grid, node_one_closure
from .semiring import EPSILON, Epsilon, weight_token


@dataclass(frozen=True)
class AssumptionCheck:
    """Outcome of one validation check with an optional failure witness."""

    name: str
    passed: bool
    witness: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> tuple[AssumptionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)


@dataclass(frozen=True)
class SupDerived:
    """Quantities read off D_{A_sup}: the off-1 cycle mean and the best
    path weights into node 1 (alpha), out of it (beta), and avoiding it
    (gamma)."""

    lambda_star: CycleMeanResult
    alpha: TropicalMatrix
    beta: TropicalMatrix
    gamma: TropicalMatrix


class MatrixFamily:
    """An immutable finite family of same-size square max-plus matrices."""

    def __init__(self, members: Iterable[TropicalMatrix]):
        members = tuple(members)
        if not members:
            raise DimensionError("a family needs at least one member")
        n = members[0].rows
        for m in members:
            if not m.is_square or m.rows != n:
                raise DimensionError("family members must be square and same size")
        self._members = members
        self._n = n

    @property
    def members(self) -> tuple[TropicalMatrix, ...]:
        return self._members

    @property
    def size(self) -> int:
        """Matrix dimension n."""
        return self._n

    @property
    def member_count(self) -> int:
        return len(self._members)

    # -- boundary matrices --------------------------------------------------

    @cached_property
    def a_sup(self) -> TropicalMatrix:
        out = self._members[0]
        for m in self._members[1:]:
            out = out.oplus(m)
        return out

    @cached_property
    def a_inf(self) -> TropicalMatrix:
        out = self._members[0]
        for m in self._members[1:]:
            out = out.emin(m)
        return out

    # -- validation ---------------------------------------------------------

    @cached_property
    def validation(self) -> ValidationReport:
        """The four checks, each with the witness of its first failure.

        A member is at most A_sup entrywise, so each of its cycles
        weighs at most the same cycle of A_sup (cycle weights are
        monotone in the entries).  When the closure of A_sup without its
        loop exists, every off-1 cycle of A_sup is negative, hence every
        member's, and each member only needs its (1,1) entry checked.
        When that closure finds a nonnegative cycle, or its int64 guard
        trips (A_sup sits on the members' common grid, so it can trip
        where no member's does), each member is closed, or runs Karp, on
        its own.  Once the members share one support, one reachability
        closure decides irreducibility for all of them.
        """
        equivalence = self._check_equivalence()
        checks = (
            equivalence,
            self._check_irreducibility(equivalence.passed),
            self._check_member_loops(),
            self._check_sup_loop(),
        )
        return ValidationReport(checks)

    def validate(self) -> ValidationReport:
        return self.validation

    def require_valid(self, what: str) -> None:
        report = self.validation
        if not report.passed:
            names = ", ".join(c.name for c in report.failing())
            raise AssumptionError(
                f"{what} requires an admissible family; failing checks: {names}",
                report=report,
            )

    def _check_equivalence(self) -> AssumptionCheck:
        base = self._members[0]
        for idx, m in enumerate(self._members[1:], start=2):
            if not geometrically_equivalent(base, m):
                label = f"member {idx}"
                diff = np.nonzero(base._fin != m._fin)
                i, j = int(diff[0][0]), int(diff[1][0])
                return AssumptionCheck(
                    "geometric_equivalence",
                    False,
                    validation_witness(
                        "support_mismatch",
                        matrix=label,
                        edge=[i + 1, j + 1],
                        present_in=label if m._fin[i, j] else "member 1",
                    ),
                )
        return AssumptionCheck("geometric_equivalence", True)

    def _check_irreducibility(self, shared_support: bool) -> AssumptionCheck:
        # Members of one support are irreducible together; otherwise
        # report per member.
        members = self._members[:1] if shared_support else self._members
        for idx, m in enumerate(members, start=1):
            if not is_irreducible(m):
                return AssumptionCheck(
                    "irreducibility",
                    False,
                    validation_witness("not_strongly_connected", member=idx),
                )
        return AssumptionCheck("irreducibility", True)

    @staticmethod
    def _loop_check(m: TropicalMatrix, label: str,
                    negative: Callable[[], bool]) -> Optional[Mapping[str, object]]:
        """negative() tells whether every cycle of m without its loop is
        negative, or raises OverflowError past the closure's guard."""
        loop = m.entry(0, 0)
        if isinstance(loop, Epsilon) or loop != 0:
            return validation_witness(
                "node1_loop_weight",
                matrix=label,
                entry=[1, 1],
                value=weight_token(loop),
            )
        # The closure decides the sign; Karp runs only for the witness, or
        # in place of the closure past its guard.
        try:
            if negative():
                return None
        except OverflowError:
            pass
        other = max_cycle_mean(_without_loop(m))
        if not isinstance(other.mean, Epsilon) and other.mean >= 0:
            return validation_witness(
                "nonnegative_side_cycle",
                matrix=label,
                cycle=list(other.witness),
                mean=weight_token(other.mean),
            )
        return None

    def _check_member_loops(self) -> AssumptionCheck:
        try:
            dominated = self._sup_closure is not None
        except OverflowError:
            dominated = False
        for idx, m in enumerate(self._members, start=1):
            witness = self._loop_check(
                m, f"member {idx}",
                lambda: dominated or node_one_closure(_without_loop(m)) is not None,
            )
            if witness is not None:
                return AssumptionCheck("members_node1_critical_loop", False, witness)
        return AssumptionCheck("members_node1_critical_loop", True)

    def _check_sup_loop(self) -> AssumptionCheck:
        witness = self._loop_check(self.a_sup, "A_sup", lambda: self._sup_closure is not None)
        if witness is not None:
            return AssumptionCheck("sup_node1_critical_loop", False, witness)
        return AssumptionCheck("sup_node1_critical_loop", True)

    # -- derived data -------------------------------------------------------

    @cached_property
    def _sup_closure(self) -> Optional[TropicalMatrix]:
        """Node-1 closure of A_sup without its loop, shared by validation
        and ``sup_derived``."""
        return node_one_closure(_without_loop(self.a_sup))

    @cached_property
    def sup_derived(self) -> SupDerived:
        """Path data on D_{A_sup}; requires a validated family."""
        self.require_valid("derivation on A_sup")
        lam = lambda_star(self.a_sup)
        alpha, beta, gamma = node_one_paths(self.a_sup, self._sup_closure, "derivation on A_sup")
        return SupDerived(lam, alpha, beta, gamma)

    def inf_walk_to_one(self) -> TropicalMatrix:
        """Column vector w: entry i is the best weight of a walk i -> 1 in
        D_{A_inf} touching node 1 only at its end (entry 1 is 0).

        Off-1 cycles are negative, so best walks are paths and the vector
        fixpoint over all lengths is exact.  Computed once per family.
        """
        return self._inf_vectors[0]

    def inf_walk_from_one(self) -> TropicalMatrix:
        """Column vector v: entry j is the best weight of a walk 1 -> j in
        D_{A_inf} touching node 1 only at its start (entry 1 is 0).
        Computed once per family."""
        return self._inf_vectors[1]

    @cached_property
    def _inf_vectors(self) -> tuple[TropicalMatrix, TropicalMatrix]:
        # Two vector fixpoints over A_inf with node 1's row and column
        # masked; A_inf lies below every member on their shared support, so
        # its off-1 cycles are negative and each stops within n steps.
        self.require_valid("walk weights on A_inf")
        a = self.a_inf
        _check_magnitude(2 * a.rows * a.max_abs_numerator, "walk closure")
        lines = _kernels.anchor_paths(_kernels.encode(a._num, a._fin))
        return tuple(TropicalMatrix(num[:, None], fin[:, None], a.denominator)
                     for num, fin in map(_kernels.decode, lines))

    # -- kernel staging -----------------------------------------------------

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Members stacked as (m, n, n) scaled arrays on a common denominator."""
        den, grid = common_grid(*self._members)
        mem_num, mem_fin = (np.stack(arrays) for arrays in zip(*grid))
        mem_num.setflags(write=False)
        mem_fin.setflags(write=False)
        return mem_num, mem_fin, den

    def stage(self, indices: Sequence[int], context: str) -> np.ndarray:
        """The 0-based int64 member indices of a 1-based product sequence.

        Checks that every index is an integer (see :func:`member_index`: a
        bool, a float or a string raises TypeError) within the family,
        and that walks of the sequence's length stay within the int64
        guard; ``context`` names the caller in the ``OverflowError``.
        """
        m = len(self._members)
        seq0 = []
        for pos, idx in enumerate(indices, start=1):
            idx = member_index(pos, idx)
            if not 1 <= idx <= m:
                raise IndexError(
                    f"factor {pos} references member {idx}, valid range is 1..{m}"
                )
            seq0.append(idx - 1)
        _check_magnitude(self.layer_magnitude * max(len(indices), 1), context)
        return np.array(seq0, dtype=np.int64)

    @cached_property
    def layer_magnitude(self) -> int:
        """Largest scaled |entry| over all members: the most one layer of
        a walk can add to its weight on the ``stacked`` grid."""
        return int(np.abs(self.stacked[0]).max())

    def __repr__(self) -> str:
        return f"MatrixFamily(n={self._n}, members={len(self._members)})"


def member_index(pos: int, idx) -> int:
    """Factor ``pos`` of a sequence as an int member index.

    ``operator.index`` refuses a float or a string, never truncating; a
    Python bool is refused too, as ``True`` is no name for member 1.
    """
    if not isinstance(idx, bool):
        try:
            return operator.index(idx)
        except TypeError:
            pass
    raise TypeError(f"factor {pos} is not an integer member index: {idx!r}")


def _without_loop(m: TropicalMatrix) -> TropicalMatrix:
    return m.with_entry(0, 0, EPSILON)
