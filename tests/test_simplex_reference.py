"""Differential tests: the revised integer simplex against the Fraction reference.

Both tableaus run Bland's rule from the same starting basis on the same
integer program, so on every form they must agree on the vertex, the
infeasibility verdict, the optimum and unboundedness, not merely on
feasibility.  The revised tableau keeps each row only at its home columns
and its right-hand side; its entry in column j is ``M_r . A'_j`` over the
row's denominator, which must be the reference's entry.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_simplex as reference
from choreshare import Unbounded, paper_table, random_instance, wmms_prime
from choreshare import lp, simplex
from choreshare.model import integer_row
from choreshare.simplex import StandardForm

F = Fraction

# Small values with many zeros make degenerate vertices, where the ratio
# test ties and Bland's tie-break decides the path.
coeff = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(1, 2), F(-1, 3)])
rhs_values = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(3, 2), F(-2, 5)])


@st.composite
def forms(draw):
    num_vars = draw(st.integers(min_value=1, max_value=5))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(["new", "new", "redundant", "contradictory"]))
        if kind == "new" or not rows:
            coeffs = tuple(draw(st.lists(coeff, min_size=num_vars, max_size=num_vars)))
            rows.append((coeffs, draw(rhs_values), draw(st.sampled_from(["eq", "ge"]))))
            continue
        coeffs, rhs, sense = draw(st.sampled_from(rows))
        factor = draw(st.sampled_from([F(1), F(2), F(-1, 3)]))
        coeffs = tuple(factor * c for c in coeffs)
        rhs = factor * rhs
        if kind == "contradictory":
            rhs += draw(st.sampled_from([F(1), F(-1, 2)]))
        rows.append((coeffs, rhs, "eq"))
    # Each row and the objective scaled to integers: one integer program
    # for both solvers.
    sf = StandardForm(num_vars=num_vars)
    for coeffs, rhs, sense in rows:
        ints, _ = integer_row((*coeffs, rhs))
        sf.add(ints[:-1], ints[-1], sense)
    objective, _ = integer_row(draw(st.lists(coeff, min_size=num_vars, max_size=num_vars)))
    return sf, objective


def _minimize(solver, sf, objective):
    try:
        return solver.minimize(sf, objective)
    except Unbounded:
        return "unbounded"


# A degenerate form on which reversing the ratio-test tie-break changes the
# phase-1 vertex.
TIE_BREAK_FORM = StandardForm(
    num_vars=3,
    rows=[
        ((1, 0, 0), 3, "eq"),
        ((-1, 3, 0), -3, "ge"),
        ((1, 0, 0), 3, "eq"),
        ((0, 0, 0), 0, "eq"),
        ((0, 1, 1), 1, "eq"),
    ],
)

# Fed ints, a reference that divided rhs / a without turning either into a
# Fraction took a float ratio here and left basis [1, 0], not [0, 1].
FLOAT_RATIO_FORM = StandardForm(
    num_vars=4,
    rows=[((0, -5, 0, 0), -6, "eq"), ((-15, -5, 0, 0), -6, "eq")],
)


# Phase 1 ends with x's artificial basic at zero and an entry of -1 for x:
# the clean-up pivot on a negative entry.
NEGATIVE_CLEANUP_FORM = StandardForm(num_vars=1, rows=[((-1,), 0, "ge")])

# The third row is redundant and keeps its artificial through phase 2; the
# second row's clean-up pivots on a negative entry.
REDUNDANT_ROW_FORM = StandardForm(
    num_vars=3,
    rows=[((-1, 1, 2), 0, "eq"), ((0, -1, 0), 0, "eq"), ((0, 0, 0), 0, "eq")],
)


@settings(max_examples=400, deadline=None)
@given(forms())
@example((TIE_BREAK_FORM, [0, 0, 0]))
@example((NEGATIVE_CLEANUP_FORM, [-1]))
@example((REDUNDANT_ROW_FORM, [1, -1, 1]))
def test_same_vertex_and_optimum_as_reference(case):
    sf, objective = case
    assert simplex.feasible_basic_point(sf) == reference.feasible_basic_point(sf)
    ours = _minimize(simplex, sf, objective)
    assert ours == _minimize(reference, sf, objective)
    if isinstance(ours, tuple):
        value, x = ours
        assert value == sum(a * v for a, v in zip(objective, x))


@settings(max_examples=400, deadline=None)
@given(forms())
@example((FLOAT_RATIO_FORM, [0, 0, 0, 0]))
@example((NEGATIVE_CLEANUP_FORM, [-1]))
@example((REDUNDANT_ROW_FORM, [1, -1, 1]))
def test_same_bases_as_reference(case):
    # Equal bases after each phase mean both took the same Bland path, which
    # degenerate forms expose more often than the vertex they end at.
    sf, objective = case
    ours, theirs = simplex._Tableau(sf), reference._Tableau(sf)
    feasible = theirs.phase1()
    assert ours.phase1() == feasible
    assert ours.basis == theirs.basis
    if not feasible:
        return
    try:
        theirs.phase2(objective)
    except Unbounded:
        with pytest.raises(Unbounded):
            ours.phase2(objective)
    else:
        ours.phase2(objective)
    assert ours.basis == theirs.basis


def _paper_probe(k, c):
    inst = paper_table(k)
    return lp._standard_form(lp.build_program(inst, c, wmms_prime(inst)))


@settings(max_examples=400, deadline=None)
@given(forms())
@example((_paper_probe(1, F(9, 10)), None))
@example((_paper_probe(2, F(6, 5)), None))
def test_final_phase1_row_is_a_certificate(case):
    # The final phase-1 reduced row, over d, at the home columns and the
    # right-hand side, holds the verdict in its last entry and, on an
    # infeasible form, a Farkas vector y for the caller's rows: y.A <= 0 on
    # every variable, y >= 0 on each ">=" row, y.b > 0.
    sf, _ = case
    tableau = simplex._Tableau(sf)
    costs = [0] * tableau.artificial_start + [1] * (tableau.width - tableau.artificial_start)
    reduced = tableau._optimize(costs, tableau.width)
    assert len(reduced) == len(sf.rows) + 1
    feasible = simplex._Tableau(sf).phase1()
    assert (reduced[-1] == 0) == feasible
    if feasible:
        return
    d = tableau.d
    y = []  # y_k * d
    for (_, rhs, _), home, red in zip(sf.rows, tableau.home, reduced):
        yd = costs[home] * d - red
        y.append(-yd if rhs < 0 else yd)
    for j in range(sf.num_vars):
        assert sum(yk * coeffs[j] for yk, (coeffs, _, _) in zip(y, sf.rows)) <= 0
    assert all(yk >= 0 for yk, (_, _, sense) in zip(y, sf.rows) if sense == "ge")
    assert sum(yk * rhs for yk, (_, rhs, _) in zip(y, sf.rows)) > 0


@settings(max_examples=300, deadline=None)
@given(forms())
@example((NEGATIVE_CLEANUP_FORM, [-1]))
def test_phase1_stops_at_its_optimum(case):
    # Phase 1 is the phase-1 optimization and its verdict: it leaves the
    # tableau where Bland's rule stops, artificials basic at zero included.
    sf, _ = case
    tableau, optimized = simplex._Tableau(sf), simplex._Tableau(sf)
    costs = [0] * optimized.artificial_start + [1] * (optimized.width - optimized.artificial_start)
    reduced = optimized._optimize(costs, optimized.width)
    assert tableau.phase1() == (not reduced[-1])
    assert (tableau.rows, tableau.den, tableau.d, tableau.basis) == (
        optimized.rows, optimized.den, optimized.d, optimized.basis)


def test_same_vertex_on_linpro_probes():
    for seed in range(4):
        inst = random_instance(3, 6, seed)
        refs = wmms_prime(inst)
        for c in (F(1), F(5, 4), F(3, 2), F(2), F(3)):
            prog = lp.build_program(inst, c, refs)
            if prog.trivially_infeasible:
                continue
            ours = simplex.feasible_basic_point(lp._standard_form(prog))
            assert ours == reference.feasible_basic_point(reference.standard_form(prog))


def _linpro_forms(n, m, seed, cs):
    inst = random_instance(n, m, seed)
    refs = wmms_prime(inst)
    for c in cs:
        prog = lp.build_program(inst, c, refs)
        if not prog.trivially_infeasible:
            yield lp._standard_form(prog)


def _assert_same_phase1(sf):
    ours, theirs = simplex._Tableau(sf), reference._Tableau(sf)
    feasible = theirs.phase1()
    assert ours.phase1() == feasible
    assert ours.basis == theirs.basis
    if feasible:
        assert ours.point() == theirs.point()


def test_same_vertex_and_basis_at_linpro_scale():
    # Thresholds from 1 to 3/2, where a random instance's search ends, and
    # each seed's c_final: the programs linpro-solve's probes solve.
    probes = 0
    for seed in range(6):
        inst = random_instance(4, 8, seed)
        c_final = lp.linpro(inst, F(1, 100)).c_final
        for sf in _linpro_forms(4, 8, seed, (F(1), F(9, 8), F(5, 4), F(3, 2), c_final)):
            _assert_same_phase1(sf)
            probes += 1
    assert probes >= 20


def test_same_vertex_and_basis_on_an_8x40_final_program():
    # linpro's final threshold on this instance; its program takes a few
    # hundred pivots, a few seconds in the Fraction reference.
    (sf,) = _linpro_forms(8, 40, 0, (F(4103, 4096),))
    _assert_same_phase1(sf)


def _assert_rows_match(ours, theirs):
    assert len(ours.rows) == len(ours.den) == len(theirs.rows)
    for row, den, ref_row, ref_rhs in zip(ours.rows, ours.den, theirs.rows, theirs.rhs):
        entries = [sum(row[k] * a for k, a in col) for col in ours.cols]
        assert [F(a, den) for a in entries + row[-1:]] == ref_row + [ref_rhs]


@settings(max_examples=300, deadline=None)
@given(forms())
@example((TIE_BREAK_FORM, [0, 0, 0]))
@example((NEGATIVE_CLEANUP_FORM, [-1]))
@example((REDUNDANT_ROW_FORM, [1, -1, 1]))
def test_rows_over_their_denominators_are_the_reference_rows(case):
    # M_r . A'_j / den[r] is the reference's (pivot-normalized) entry in
    # every column, and the right-hand side over den[r] its right-hand
    # side, after each phase; a pivot leaves a row with a zero entering
    # entry as the same list.
    sf, objective = case
    ours, theirs = simplex._Tableau(sf), reference._Tableau(sf)
    pivot = ours._pivot

    def pivot_keeping_zero_rows(r, c, column):
        assert column == [sum(row[k] * a for k, a in ours.cols[c]) for row in ours.rows]
        kept = [(i, row, ours.den[i]) for i, row in enumerate(ours.rows) if i != r and column[i] == 0]
        out = pivot(r, c, column)
        assert all(ours.rows[i] is row and ours.den[i] == den for i, row, den in kept)
        return out

    ours._pivot = pivot_keeping_zero_rows
    if not theirs.phase1():
        assert not ours.phase1()
        return
    assert ours.phase1()
    _assert_rows_match(ours, theirs)
    try:
        theirs.phase2(objective)
    except Unbounded:
        return
    ours.phase2(objective)
    _assert_rows_match(ours, theirs)
