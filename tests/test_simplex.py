from fractions import Fraction

import pytest

from choreshare import Unbounded
from choreshare.model import integer_row
from choreshare.simplex import StandardForm, feasible_basic_point, minimize

F = Fraction


def _form(num_vars, rows):
    """The rational rows, each scaled to integers as the simplex takes them."""
    sf = StandardForm(num_vars=num_vars)
    for coeffs, rhs, sense in rows:
        ints, _ = integer_row([*map(F, coeffs), F(rhs)])
        sf.add(ints[:-1], ints[-1], sense)
    return sf


def test_segment_vertex():
    sf = _form(2, [((1, 1), 1, "eq")])
    point = feasible_basic_point(sf)
    assert point == [F(1), F(0)]  # a vertex, never the midpoint


def test_contradictory_equalities():
    sf = _form(1, [((1,), 1, "eq"), ((1,), 2, "eq")])
    assert feasible_basic_point(sf) is None


def test_redundant_rows_ok():
    sf = _form(2, [((1, 1), 1, "eq"), ((1, 1), 1, "eq")])
    point = feasible_basic_point(sf)
    assert point is not None
    assert sum(point) == 1


def test_ge_with_negative_rhs():
    # x1 >= -2 alone: feasible at the origin vertex
    sf = _form(1, [((1,), -2, "ge")])
    assert feasible_basic_point(sf) == [F(0)]


def test_exact_satisfaction_and_basic_support():
    rows = [
        ((F(1, 3), F(1, 7), 0), 1, "eq"),
        ((0, F(2, 5), F(1, 2)), F(1, 5), "ge"),
    ]
    sf = _form(3, rows)
    point = feasible_basic_point(sf)
    assert point is not None
    assert point[0] / 3 + point[1] / 7 == 1
    assert 2 * point[1] / 5 + point[2] / 2 >= F(1, 5)
    assert sum(1 for v in point if v != 0) <= len(rows)
    assert all(v >= 0 for v in point)


def test_minimize_simple():
    sf = _form(2, [((1, 1), 1, "eq")])
    value, point = minimize(sf, [0, 1])
    assert value == 0
    assert point == [F(1), F(0)]
    value, point = minimize(sf, [3, 1])
    assert value == 1
    assert point == [F(0), F(1)]


def test_minimize_infeasible_reported():
    sf = _form(1, [((1,), 1, "eq"), ((1,), 2, "eq")])
    assert minimize(sf, [1]) is None


def test_minimize_unbounded_raises():
    sf = _form(1, [((1,), 0, "ge")])
    with pytest.raises(Unbounded):
        minimize(sf, [-1])


def test_beale_cycling_example_terminates_at_optimum():
    # classic degenerate program that cycles under naive pivoting; Bland's
    # rule must terminate and reach the optimum -1/20 at x = (1/25, 0, 1, 0)
    sf = _form(
        4,
        [
            ((F(-1, 4), 60, F(1, 25), -9), 0, "ge"),
            ((F(-1, 2), 90, F(1, 50), -3), 0, "ge"),
            ((0, 0, -1, 0), -1, "ge"),
        ],
    )
    objective, scale = integer_row([F(-3, 4), F(150), F(-1, 50), F(6)])
    value, point = minimize(sf, objective)
    assert value / scale == F(-1, 20)
    assert point == [F(1, 25), F(0), F(1), F(0)]


def test_determinism():
    sf = _form(3, [((1, 1, 1), 1, "eq"), ((1, 0, -1), 0, "ge")])
    assert feasible_basic_point(sf) == feasible_basic_point(sf)


def test_rejects_bad_rows():
    sf = StandardForm(num_vars=2)
    with pytest.raises(ValueError):
        sf.add([1], 0, "eq")
    with pytest.raises(ValueError):
        sf.add([1, 1], 0, "le")
    with pytest.raises(ValueError):
        minimize(_form(2, []), [1])
    # A rational entry would be floored by the integer pivots: refused.
    with pytest.raises(TypeError):
        sf.add([F(1, 2), 1], 0, "eq")
    with pytest.raises(TypeError):
        sf.add([1, 1], F(1, 2), "eq")
    with pytest.raises(TypeError):
        minimize(_form(2, []), [F(1, 2), 1])
    assert sf.rows == []
