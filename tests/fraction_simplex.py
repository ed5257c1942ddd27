"""Test-only reference: the dense ``Fraction`` Bland simplex.

This is the tableau ``choreshare.simplex`` used before it moved to
fraction-free integer pivoting.  Every row is normalized so its pivot is 1,
so it is slow but obviously exact; the property tests require the integer
tableau to return the same vertex, infeasibility verdict, optimum or
``Unbounded`` on every form.  Entries may be ints or Fractions; each is
read as a Fraction.  Phase 1 ends at its verdict; phase 2 first pivots out
the artificials basic at zero, rows in reversed order, and deletes no row:
a redundant row keeps its artificial basic at zero.

``standard_form`` is the Fraction program ``lp._standard_form`` built
before it moved to integer rows: each agent's floor with the instance's
values as coefficients and its threshold as right-hand side.

``StandardForm`` rows hold nonzero ``(var, coeff)`` pairs; ``sparse_rows``
turns dense rows into such rows, and this tableau expands each row back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from choreshare.errors import Unbounded
from choreshare.lp import LPProgram
from choreshare.simplex import StandardForm

_ZERO = Fraction(0)
_ONE = Fraction(1)


def sparse_rows(rows):
    """Dense ``(coeffs, rhs, sense)`` rows as ``StandardForm`` rows of nonzero ``(var, coeff)`` pairs."""
    return [(tuple((k, a) for k, a in enumerate(coeffs) if a), rhs, sense) for coeffs, rhs, sense in rows]


class _Tableau:
    def __init__(self, sf: StandardForm):
        self.n_struct = sf.num_vars
        ge_rows = [r for r, (_, _, sense) in enumerate(sf.rows) if sense == "ge"]
        surplus_of = {r: sf.num_vars + k for k, r in enumerate(ge_rows)}
        self.artificial_start = sf.num_vars + len(ge_rows)

        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        needs_artificial: list[bool] = []
        for r, (coeffs, b, sense) in enumerate(sf.rows):
            row = [_ZERO] * self.artificial_start
            for k, a in coeffs:
                row[k] = Fraction(a)
            b = Fraction(b)
            if sense == "ge":
                row[surplus_of[r]] = -_ONE
            if b < 0:
                row = [-c for c in row]
                b = -b
            rows.append(row)
            rhs.append(b)
            # A sign-flipped >= row leaves its surplus with coefficient +1,
            # which serves as the initial basic variable; every other row
            # gets an artificial.
            needs_artificial.append(not (sense == "ge" and row[surplus_of[r]] == 1))

        self.width = self.artificial_start + sum(needs_artificial)
        self.basis: list[int] = []
        next_artificial = self.artificial_start
        for r in range(len(rows)):
            rows[r].extend([_ZERO] * (self.width - len(rows[r])))
            if needs_artificial[r]:
                rows[r][next_artificial] = _ONE
                self.basis.append(next_artificial)
                next_artificial += 1
            else:
                self.basis.append(surplus_of[r])
        self.rows = rows
        self.rhs = rhs

    def _pivot(self, r: int, c: int) -> None:
        piv = self.rows[r][c]
        inv = _ONE / piv
        self.rows[r] = [a * inv for a in self.rows[r]]
        self.rhs[r] *= inv
        for rr in range(len(self.rows)):
            if rr == r:
                continue
            factor = self.rows[rr][c]
            if factor == 0:
                continue
            pivot_row = self.rows[r]
            self.rows[rr] = [a - factor * p for a, p in zip(self.rows[rr], pivot_row)]
            self.rhs[rr] -= factor * self.rhs[r]
        self.basis[r] = c

    def _optimize(self, costs: list[Fraction], allowed: list[bool]) -> None:
        """Bland-rule simplex: minimize costs over the current basis."""
        reduced = list(costs)
        for r, b in enumerate(self.basis):
            cb = costs[b]
            if cb != 0:
                row = self.rows[r]
                reduced = [d - cb * a for d, a in zip(reduced, row)]
        while True:
            entering = -1
            for j in range(self.width):
                if allowed[j] and reduced[j] < 0:
                    entering = j
                    break
            if entering < 0:
                return
            leaving = -1
            best_ratio = None
            for r in range(len(self.rows)):
                a = self.rows[r][entering]
                if a > 0:
                    ratio = self.rhs[r] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[r] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = r
            if leaving < 0:
                raise Unbounded("objective unbounded below")
            factor = reduced[entering]
            self._pivot(leaving, entering)
            pivot_row = self.rows[leaving]
            reduced = [d - factor * a for d, a in zip(reduced, pivot_row)]

    def phase1(self) -> bool:
        """Drive artificials to zero; False means the constraints are infeasible."""
        costs = [_ZERO] * self.width
        for j in range(self.artificial_start, self.width):
            costs[j] = _ONE
        self._optimize(costs, allowed=[True] * self.width)
        return not any(
            self.rhs[r] != 0
            for r in range(len(self.rows))
            if self.basis[r] >= self.artificial_start
        )

    def phase2(self, objective: Sequence[Fraction]) -> Fraction:
        # Pivot out artificials basic at zero; a row with no structural
        # coefficient left is redundant and keeps its artificial.
        for r in reversed(range(len(self.rows))):
            if self.basis[r] < self.artificial_start:
                continue
            col = next(
                (
                    j
                    for j in range(self.artificial_start)
                    if self.rows[r][j] != 0
                ),
                -1,
            )
            if col >= 0:
                self._pivot(r, col)
        costs = [Fraction(c) for c in objective]
        costs += [_ZERO] * (self.width - len(costs))
        allowed = [j < self.artificial_start for j in range(self.width)]
        self._optimize(costs, allowed)
        return sum(
            (costs[self.basis[r]] * self.rhs[r] for r in range(len(self.rows))), _ZERO
        )

    def point(self) -> list[Fraction]:
        x = [_ZERO] * self.n_struct
        for r, b in enumerate(self.basis):
            if b < self.n_struct:
                x[b] = self.rhs[r]
        return x


def feasible_basic_point(sf: StandardForm) -> list[Fraction] | None:
    tableau = _Tableau(sf)
    if not tableau.phase1():
        return None
    return tableau.point()


def minimize(
    sf: StandardForm, objective: Sequence[Fraction]
) -> tuple[Fraction, list[Fraction]] | None:
    tableau = _Tableau(sf)
    if not tableau.phase1():
        return None
    value = tableau.phase2(objective)
    return value, tableau.point()


def standard_form(prog: LPProgram) -> StandardForm:
    """The program as Fraction rows: each agent's floor, then each chore's cover."""
    agent_rows = [[_ZERO] * len(prog.variables) for _ in range(prog.inst.n)]
    chore_rows = [[_ZERO] * len(prog.variables) for _ in range(prog.inst.m)]
    for k, (i, j) in enumerate(prog.variables):
        agent_rows[i][k] = prog.inst.values[i][j]
        chore_rows[j][k] = _ONE
    rows = [(coeffs, t, "ge") for coeffs, t in zip(agent_rows, prog.thresholds)]
    rows += [(coeffs, _ONE, "eq") for coeffs in chore_rows]
    # Built directly: StandardForm.add takes integer entries only.
    return StandardForm(num_vars=len(prog.variables), rows=sparse_rows(rows))
