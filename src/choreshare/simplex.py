"""Exact Bland simplex over integers (fraction-free pivoting).

Phase 1 (artificial-variable) simplex with Bland's anti-cycling rule is a
feasibility engine returning basic feasible points (vertices); phase 2 pivots
out zero artificials and minimizes an objective for the threshold diagnostic.
Each phase ends with its reduced cost row, whose last entry, ``-d`` times the
cost, is phase 1's verdict (nonzero: infeasible) and phase 2's optimum.
Callers give integer constraint rows and an integer objective, and the
simplex solves exactly that program: phase 1 costs 1 per artificial column.
The tableau holds integer rows, each over its own positive denominator; an
integer-preserving (Edmonds/Bareiss) pivot rewrites only the rows with a
nonzero entry in its column, and every division is exact.  Constraints hold
with zero residual at returned points, and identical inputs produce
identical vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import index
from typing import Sequence

from .errors import Unbounded


@dataclass
class StandardForm:
    """Integer constraints over nonnegative variables: rows are (coeffs, rhs, sense).

    ``sense`` is "eq" or "ge"; coefficient vectors have length ``num_vars``,
    and ``add`` refuses a non-integer entry (TypeError).  Slack and
    artificial augmentation happen inside the solver and are invisible to
    callers.
    """

    num_vars: int
    rows: list[tuple[tuple[int, ...], int, str]] = field(default_factory=list)

    def add(self, coeffs: Sequence[int], rhs: int, sense: str) -> None:
        if len(coeffs) != self.num_vars:
            raise ValueError(f"expected {self.num_vars} coefficients, got {len(coeffs)}")
        if sense not in ("eq", "ge"):
            raise ValueError(f"unknown sense {sense!r}")
        self.rows.append((tuple(map(index, coeffs)), index(rhs), sense))


class _Tableau:
    """Integer rows, right-hand side last, each over its own positive denominator.

    ``rows[r] / den[r]`` is row r of the textbook tableau for the given
    integer program, with a surplus column per ">=" row and an artificial
    column per row that does not start with its surplus basic; each
    artificial costs 1 in phase 1 and may end it basic at zero.  ``den[r]``
    is ``d`` as of row r's last rewrite; ``rows[r] * d // den[r]`` is exact.
    """

    def __init__(self, sf: StandardForm):
        self.n_struct = sf.num_vars
        ge = sum(sense == "ge" for _, _, sense in sf.rows)
        flipped = sum(sense == "ge" and b < 0 for _, b, sense in sf.rows)
        self.artificial_start = sf.num_vars + ge
        self.width = self.artificial_start + len(sf.rows) - flipped
        self.d = 1
        self.rows: list[list[int]] = []
        self.den = [1] * len(sf.rows)
        self.basis: list[int] = []
        surplus, artificial = sf.num_vars, self.artificial_start
        for coeffs, b, sense in sf.rows:
            sign = -1 if b < 0 else 1
            row = [sign * a for a in coeffs] + [0] * (self.width - sf.num_vars) + [sign * b]
            if sense == "ge":
                row[surplus] = -sign
                surplus += 1
            # A sign-flipped >= row leaves its surplus with coefficient +1,
            # which serves as the initial basic variable; every other row
            # gets an artificial.
            if sense == "ge" and sign < 0:
                self.basis.append(surplus - 1)
            else:
                row[artificial] = 1
                self.basis.append(artificial)
                artificial += 1
            self.rows.append(row)

    def _scaled(self, r: int) -> list[int]:
        """Row r over the current denominator ``d``."""
        row, dr, d = self.rows[r], self.den[r], self.d
        return row if dr == d else [a * d // dr for a in row]

    def _pivot(self, r: int, c: int, reduced: list[int] | None = None) -> list[int] | None:
        """Pivot on row r, column c; returns ``reduced`` (over ``d``) eliminated too.

        Row i, ``R / den[i]``, with ``f = R[c] != 0`` becomes ``(R * p - f *
        B) // den[i]`` over ``p`` for the pivot row ``B / d``: the integers
        one common denominator would give.  Other rows are left as they are,
        and ``reduced`` takes the same update with ``d`` for ``den[i]``.
        The pivot entry ``p`` is positive, so every denominator stays
        positive: the ratio test enters only a positive entry, and phase 2's
        clean-up negates a row before pivoting on a negative one.
        """
        rows, den, d = self.rows, self.den, self.d
        pivot_row = self._scaled(r)
        p = pivot_row[c]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i] = [(a * p - f * b) // den[i] for a, b in zip(row, pivot_row)]
                den[i] = p
        rows[r], den[r] = pivot_row, p
        self.d = p
        self.basis[r] = c
        if reduced is None:
            return None
        f = reduced[c]
        return [(a * p - f * b) // d for a, b in zip(reduced, pivot_row)]

    def _optimize(self, costs: list[int], limit: int) -> list[int]:
        """Bland-rule simplex: minimize costs over columns below ``limit``.

        Returns the final reduced cost row, over ``d``; its last entry is
        ``-d`` times the optimal cost.
        """
        rows, basis = self.rows, self.basis
        reduced = [c * self.d for c in costs] + [0]
        for r, b in enumerate(basis):
            cb = costs[b]
            if cb != 0:
                reduced = [x - cb * a for x, a in zip(reduced, self._scaled(r))]
        while True:
            entering = next((j for j in range(limit) if reduced[j] < 0), -1)
            if entering < 0:
                return reduced
            leaving = -1
            for r, row in enumerate(rows):
                a = row[entering]
                if a > 0:
                    if leaving < 0:
                        leaving, num, lead = r, row[-1], a
                        continue
                    lhs, rhs = row[-1] * lead, num * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                        leaving, num, lead = r, row[-1], a
            if leaving < 0:
                raise Unbounded("objective unbounded below")
            reduced = self._pivot(leaving, entering, reduced)

    def phase1(self) -> bool:
        """Drive artificials to zero; False means the constraints are infeasible.

        The verdict is the final reduced row's last entry: ``-d`` times the
        sum of the artificials, nonzero when one stays positive.  Artificials
        basic at zero stay basic, for phase 2 to pivot out.
        """
        costs = [0] * self.artificial_start + [1] * (self.width - self.artificial_start)
        return not self._optimize(costs, self.width)[-1]

    def phase2(self, objective: Sequence[int]) -> Fraction:
        """Minimize ``objective`` from phase 1's vertex; returns the optimum,
        ``-reduced[-1] / d`` of the final reduced row.

        First, rows in reversed order, each artificial basic at zero is
        pivoted out on its row's first nonzero non-artificial column, the
        row (right-hand side 0) negated if that entry is negative; these
        pivots are degenerate.  A row with no such column is never rewritten
        in phase 2, so its artificial stays basic at zero.
        """
        for r in reversed(range(len(self.rows))):
            if self.basis[r] < self.artificial_start:
                continue
            row = self.rows[r]
            col = next((j for j in range(self.artificial_start) if row[j] != 0), -1)
            if col >= 0:
                if row[col] < 0:
                    self.rows[r] = [-a for a in row]
                self._pivot(r, col)
        costs = [*objective] + [0] * (self.width - len(objective))
        return Fraction(-self._optimize(costs, self.artificial_start)[-1], self.d)

    def point(self) -> list[Fraction]:
        x = [Fraction(0)] * self.n_struct
        for row, dr, b in zip(self.rows, self.den, self.basis):
            if b < self.n_struct:
                x[b] = Fraction(row[-1], dr)
        return x


def feasible_basic_point(sf: StandardForm) -> list[Fraction] | None:
    """A vertex of the feasible region, or None when the constraints conflict."""
    tableau = _Tableau(sf)
    if not tableau.phase1():
        return None
    return tableau.point()


def minimize(
    sf: StandardForm, objective: Sequence[int]
) -> tuple[Fraction, list[Fraction]] | None:
    """Minimize an integer objective; returns (optimal value, optimal vertex).

    The value is phase 2's optimum, read off its final reduced row.  Returns
    None when infeasible; raises Unbounded when no minimum exists, and
    TypeError for an objective entry that is not an integer.
    """
    if len(objective) != sf.num_vars:
        raise ValueError(f"expected {sf.num_vars} objective coefficients")
    objective = list(map(index, objective))
    tableau = _Tableau(sf)
    if not tableau.phase1():
        return None
    return tableau.phase2(objective), tableau.point()
