"""Exact revised Bland simplex over integers (fraction-free pivoting).

Phase 1 (artificial-variable) simplex with Bland's anti-cycling rule is a
feasibility engine returning basic feasible points (vertices); phase 2 pivots
out zero artificials and minimizes an objective for the threshold diagnostic.
Each phase ends with its reduced cost row, whose last entry, ``-d`` times the
cost, is phase 1's verdict (nonzero: infeasible) and phase 2's optimum.
Callers give integer rows and an integer objective, and the simplex solves
exactly that program: phase 1 costs 1 per artificial column.  Every row
starts with a unit basic column; the tableau keeps each row only there
(``d·B⁻¹``) and at its right-hand side, as integers over the row's own
denominator, and prices and reads columns from the program's sparse columns.
An integer-preserving (Edmonds/Bareiss) pivot rewrites only the rows with a
nonzero entry in its column, and every division is exact.  Returned points
satisfy the constraints exactly, and identical inputs give identical vertices.
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
    """Each row at the starting unit basis, right-hand side last, over its own denominator.

    The program is the caller's, each row sign-flipped to a nonnegative
    right-hand side, with a surplus column per ">=" row.  A flipped ">=" row
    starts with its surplus (+1) basic, every other row with an artificial
    that costs 1 in phase 1 and may end it basic at zero: row r's home column
    ``home[r]``.  ``cols[j]`` lists column j's nonzeros as ``(row, entry)``.
    ``rows[r] / den[r]`` is tableau row r at the home columns, ``M_r``, then
    the right-hand side; ``M / den`` is ``B⁻¹``, so row r's entry in column j
    is ``M_r · A'_j / den[r]``.  ``den[r]`` is ``d`` as of row r's last
    rewrite; ``rows[r] * d // den[r]`` is exact.
    """

    def __init__(self, sf: StandardForm):
        self.n_struct, n = sf.num_vars, len(sf.rows)
        self.artificial_start = sf.num_vars + sum(sense == "ge" for _, _, sense in sf.rows)
        self.cols: list[list[tuple[int, int]]] = [[] for _ in range(self.artificial_start)]
        self.rows = [[int(k == r) for k in range(n)] + [abs(b)] for r, (_, b, _) in enumerate(sf.rows)]
        self.den, self.d, self.basis = [1] * n, 1, []
        surplus = sf.num_vars
        for r, (coeffs, b, sense) in enumerate(sf.rows):
            sign = -1 if b < 0 else 1
            for j, a in enumerate(coeffs):
                if a:
                    self.cols[j].append((r, sign * a))
            if sense == "ge":
                self.cols[surplus].append((r, -sign))
                surplus += 1
            if sense == "ge" and sign < 0:
                self.basis.append(surplus - 1)
            else:
                self.basis.append(len(self.cols))
                self.cols.append([(r, 1)])
        self.width, self.home = len(self.cols), tuple(self.basis)

    def _column(self, j: int) -> list[int]:
        """Column j's entry in every row, each over its row's denominator."""
        column = [0] * len(self.rows)
        for k, a in self.cols[j]:
            column = [x + row[k] * a for x, row in zip(column, self.rows)]
        return column

    def _pivot(self, r: int, c: int, column: list[int]) -> list[int]:
        """Pivot on row r, column c of entries ``column``; returns the pivot row, over the new ``d``.

        Row i, ``R / den[i]``, with ``f = column[i] != 0`` becomes ``(R * p - f *
        B) // den[i]`` over ``p`` for the pivot row ``B / d``, the integers one
        common denominator would give; other rows stay as they are.  ``p > 0``:
        the ratio test enters only a positive entry, and phase 2's clean-up
        negates a row before pivoting on a negative one.
        """
        rows, den, d = self.rows, self.den, self.d
        pivot_row = rows[r] if den[r] == d else [a * d // den[r] for a in rows[r]]
        p = column[r] * d // den[r]
        for i, row in enumerate(rows):
            f = column[i]
            if f and i != r:
                rows[i] = [(a * p - f * b) // den[i] for a, b in zip(row, pivot_row)]
                den[i] = p
        rows[r], den[r] = pivot_row, p
        self.d = p
        self.basis[r] = c
        return pivot_row

    def _optimize(self, costs: list[int], limit: int) -> list[int]:
        """Bland-rule simplex: minimize costs over columns below ``limit``.

        Returns the final reduced cost row at the home columns and the
        right-hand side, over ``d``; its last entry is ``-d`` times the
        optimal cost.  Column j prices at ``costs[j] * d - y · A'_j``, where
        ``y = d·π`` has ``y[r] = costs[home[r]] * d - reduced[r]``.
        """
        rows, basis, cols, d = self.rows, self.basis, self.cols, self.d
        home_costs = [costs[h] for h in self.home]
        reduced = [c * d for c in home_costs] + [0]
        for r, b in enumerate(basis):
            cb = costs[b]
            if cb != 0:
                reduced = [x - cb * a * d // self.den[r] for x, a in zip(reduced, rows[r])]
        while True:
            d = self.d
            y = [c * d - x for c, x in zip(home_costs, reduced)]
            for entering in range(limit):
                f = costs[entering] * d
                for k, a in cols[entering]:
                    f -= y[k] * a
                if f < 0:
                    break
            else:
                return reduced
            column = self._column(entering)
            leaving = -1
            for r, (a, row) in enumerate(zip(column, rows)):
                if a > 0:
                    if leaving < 0:
                        leaving, num, lead = r, row[-1], a
                        continue
                    lhs, rhs = row[-1] * lead, num * a
                    if lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                        leaving, num, lead = r, row[-1], a
            if leaving < 0:
                raise Unbounded("objective unbounded below")
            pivot_row = self._pivot(leaving, entering, column)
            reduced = [(x * self.d - f * b) // d for x, b in zip(reduced, pivot_row)]

    def phase1(self) -> bool:
        """Drive artificials to zero; False means the constraints are infeasible.

        The verdict is the final reduced row's last entry, ``-d`` times the sum
        of the artificials.  Artificials basic at zero stay basic, for phase 2.
        """
        costs = [0] * self.artificial_start + [1] * (self.width - self.artificial_start)
        return not self._optimize(costs, self.width)[-1]

    def phase2(self, objective: Sequence[int]) -> Fraction:
        """Minimize ``objective`` from phase 1's vertex; returns the optimum, ``-reduced[-1] / d``.

        First, rows in reversed order, each artificial basic at zero is
        pivoted out on its row's first nonzero non-artificial entry ``M_r ·
        A'_j``, the row (right-hand side 0) negated if that entry is negative;
        these pivots are degenerate.  A row with no such entry is never
        rewritten in phase 2, so its artificial stays basic at zero.
        """
        for r in reversed(range(len(self.rows))):
            if self.basis[r] < self.artificial_start:
                continue
            row = self.rows[r]
            entries = ((j, sum(row[k] * a for k, a in self.cols[j])) for j in range(self.artificial_start))
            col, entry = next(((j, a) for j, a in entries if a), (-1, 0))
            if col >= 0:
                if entry < 0:
                    self.rows[r] = [-a for a in row]
                self._pivot(r, col, self._column(col))
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
    return tableau.point() if tableau.phase1() else None


def minimize(sf: StandardForm, objective: Sequence[int]) -> tuple[Fraction, list[Fraction]] | None:
    """Minimize an integer objective; returns (optimal value, optimal vertex).

    The value is phase 2's optimum, read off its final reduced row.  Returns
    None when infeasible; raises Unbounded when no minimum exists, and
    TypeError for an objective entry that is not an integer.
    """
    if len(objective) != sf.num_vars:
        raise ValueError(f"expected {sf.num_vars} objective coefficients")
    objective = list(map(index, objective))
    tableau = _Tableau(sf)
    return (tableau.phase2(objective), tableau.point()) if tableau.phase1() else None
