import dataclasses
import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import choreshare as cs
from choreshare import lp
from choreshare.model import integer_row
from conftest import quick_instances

F = Fraction
HALF = F(1, 2)


def test_validate_paper_fixtures_ok(table1, table2):
    assert cs.validate_instance(table1) == []
    assert cs.validate_instance(table2) == []


def test_validate_share_sum():
    inst = cs.Instance((HALF, F(1, 3)), ((F(-1),), (F(-1),)))
    violations = cs.validate_instance(inst)
    assert any("5/6" in v for v in violations)


def test_validate_positive_value():
    inst = cs.Instance((HALF, HALF), ((F(1, 4),), (F(-1),)))
    violations = cs.validate_instance(inst)
    assert any("positive value" in v and "agent 0" in v for v in violations)


def test_validate_share_range():
    inst = cs.Instance((F(0), F(1)), ((F(-1),), (F(-1),)))
    assert any("outside (0, 1]" in v for v in cs.validate_instance(inst))


def test_validate_ragged_rows():
    inst = cs.Instance((HALF, HALF), ((F(-1), F(0)), (F(-1),)))
    assert any("unequal lengths" in v for v in cs.validate_instance(inst))


def test_validate_empty_chores_is_legal():
    inst = cs.Instance((F(1),), ((),))
    assert cs.validate_instance(inst) == []


def test_integer_values_is_the_field_and_values_a_cached_view():
    assert [f.name for f in dataclasses.fields(cs.Instance)] == ["shares", "integer_values"]
    inst = cs.Instance((F(1, 2), F(1, 2)), ((F(-1, 2), "-1/3"), (0, F(-4, 2))))
    assert inst.integer_values == (((-3, -2), 6), ((0, -2), 1))
    assert "values" not in inst.__dict__
    assert inst.values == ((F(-1, 2), F(-1, 3)), (F(0), F(-2)))
    assert inst.values is inst.values
    fresh = cs.Instance(inst.shares, inst.values)
    assert inst == fresh and hash(inst) == hash(fresh) and repr(inst) == repr(fresh)
    assert "Fraction(-1, 3)" not in repr(inst) and repr(inst).count("values=") == 1


def test_preferences_are_a_cached_order_outside_equality():
    inst = cs.Instance((F(1, 2), F(1, 2)), ((F(-1, 2), 0, F(-1, 3), 0), (F(-2), F(-1), F(-2), F(-1))))
    fresh = cs.Instance(inst.shares, inst.values)
    before = repr(inst), hash(inst)
    assert "_preferences" not in inst.__dict__
    assert inst._preferences == ((1, 3, 2, 0), (1, 3, 0, 2))
    assert inst._preferences is inst._preferences
    assert inst == fresh and "_preferences" not in fresh.__dict__
    assert (repr(inst), hash(inst)) == before == (repr(fresh), hash(fresh))
    assert "_preferences" not in repr(inst)


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-12, 12).filter(bool)), max_size=6))
@example([])
@example([(2, 4), (-6, 9), (0, 7), (7, 14)])
@example([(0, 3), (0, -5)])
@example([(3, -6), (-1, 2)])
def test_from_pairs_is_the_instance_of_the_same_fractions(pairs):
    inst = cs.Instance.from_pairs((1,), [([num for num, _ in pairs], [den for _, den in pairs])])
    same = cs.Instance((1,), [[F(num, den) for num, den in pairs]])
    assert inst == same and hash(inst) == hash(same)
    assert inst.integer_values == same.integer_values
    (ints, denom), = inst.integer_values
    assert denom > 0 and gcd(denom, *ints) == 1
    assert [F(a, denom) for a in ints] == [F(num, den) for num, den in pairs]


def test_from_pairs_refuses_a_zero_denominator():
    for pairs in ([(1, 0)], [(0, 0)], [(-1, 2), (1, 0)]):
        with pytest.raises(ZeroDivisionError):
            cs.Instance.from_pairs((1,), [([num for num, _ in pairs], [den for _, den in pairs])])


@given(st.lists(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=60))))
@example([])
@example([F(-1, 3), F(-2, 9), F(-1, 3), 0])
def test_integer_row_is_the_row_over_the_lcm(row):
    ints, denom = integer_row(row)
    assert denom == lcm(*(F(v).denominator for v in row))
    assert all(type(a) is int for a in ints)
    assert [F(a, denom) for a in ints] == row  # the empty row gives ([], 1)


def test_bundle_value_examples(table1, table2):
    assert cs.bundle_value(table1, 1, [1, 2, 3]) == F(-5, 8)
    assert cs.bundle_value(table1, 0, []) == 0
    assert cs.bundle_value(table2, 0, [0, 1]) == F(-1)


def test_bundle_value_additive():
    for inst in quick_instances(seeds=2):
        left = [j for j in range(inst.m) if j % 2 == 0]
        right = [j for j in range(inst.m) if j % 2 == 1]
        for i in range(inst.n):
            assert cs.bundle_value(inst, i, left) + cs.bundle_value(
                inst, i, right
            ) == cs.bundle_value(inst, i, range(inst.m))


def test_fairness_report_table2(table2):
    report = cs.fairness_report(
        table2, cs.Allocation(2, (0, 0)), (F(-3, 4), F(-1, 3))
    )
    assert report.agents[0].ratio == F(4, 3)
    assert report.agents[1].ratio == F(0)
    assert report.worst_ratio() == F(4, 3)


def test_fairness_report_table1(table1):
    report = cs.fairness_report(
        table1, cs.Allocation(2, (0, 1, 1, 1)), (F(-1, 4), F(-3, 4))
    )
    assert [a.ratio for a in report.agents] == [F(1), F(5, 6)]
    assert report.worst_ratio() == F(1)


def test_fairness_report_empty_instance():
    inst = cs.Instance((HALF, HALF), ((), ()))
    report = cs.fairness_report(inst, cs.Allocation(2, ()), (F(0), F(0)))
    assert all(a.unbounded_satisfied for a in report.agents)
    assert report.worst_ratio() == F(0)


def test_fairness_report_zero_reference_policy():
    inst = cs.Instance((HALF, HALF), ((F(-1),), (F(0),)))
    taken = cs.fairness_report(inst, cs.Allocation(2, (1,)), (F(-1), F(0)))
    assert taken.agents[1].ratio is None
    assert taken.agents[1].unbounded_satisfied
    assert taken.worst_ratio() == F(0)
    shirked = cs.fairness_report(inst, cs.Allocation(2, (0,)), (F(0), F(0)))
    assert not shirked.agents[0].unbounded_satisfied
    assert shirked.worst_ratio() is None


def test_fairness_report_rejects_bad_refs(table1):
    alloc = cs.Allocation(2, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        cs.fairness_report(table1, alloc, (F(-1),))
    with pytest.raises(ValueError):
        cs.fairness_report(table1, alloc, (F(1), F(-1)))


@pytest.mark.parametrize(
    "alloc, message",
    [
        (cs.Allocation(1, (0, 0, 0, 0)), "allocation is over 1 agents, instance has 2"),
        (cs.Allocation(2, (0, 0)), "allocation covers 2 chores, instance has 4"),
        (cs.Allocation(3, (0, 1, 2, 2)), "allocation is over 3 agents, instance has 2"),
    ],
    ids=["too-few-agents", "too-few-chores", "too-many-agents"],
)
def test_fairness_report_rejects_misshaped_allocations(table1, alloc, message):
    refs = (F(-1, 4), F(-3, 4))
    with pytest.raises(ValueError) as excinfo:
        cs.fairness_report(table1, alloc, refs)
    assert str(excinfo.value) == message


# Every caller that takes per-agent references checks them through
# model.check_references, so each rejects a bad vector with one message.
REFERENCE_CALLERS = {
    "fairness_report": lambda inst, refs: cs.fairness_report(
        inst, cs.Allocation(inst.n, (0,) * inst.m), refs
    ),
    "build_program": lambda inst, refs: lp.build_program(inst, F(1), refs),
    "min_feasible_c": lp.min_feasible_c,
    "exact_owmms": cs.exact_owmms,
}


@pytest.mark.parametrize("caller", REFERENCE_CALLERS)
@pytest.mark.parametrize(
    "refs, message",
    [
        ((F(-1, 4),), "expected 2 references, got 1"),
        ((F(-1, 4), F(1, 3)), "reference 1/3 of agent 1 is positive"),
        ((F(1, 3),), "expected 2 references, got 1"),  # the count comes first
    ],
    ids=["too-few", "positive", "too-few-and-positive"],
)
def test_reference_checks_agree(table1, caller, refs, message):
    with pytest.raises(ValueError) as excinfo:
        REFERENCE_CALLERS[caller](table1, refs)
    assert str(excinfo.value) == message


def test_owmms_checks_reference_signs_before_the_budget(table1):
    with pytest.raises(ValueError, match="is positive"):
        cs.exact_owmms(table1, (F(1), F(-1)), budget=1)
    with pytest.raises(cs.BudgetExceeded):
        cs.exact_owmms(table1, (F(-1), F(-1)), budget=1)


def test_validate_allocation(table1):
    assert cs.validate_allocation(table1, cs.Allocation(2, (0, 1, 0, 1))) == []
    bad = cs.validate_allocation(table1, cs.Allocation(2, (0, 1, 5, 1)))
    assert any("out of range" in v for v in bad)
    short = cs.validate_allocation(table1, cs.Allocation(2, (0,)))
    assert any("covers 1 chores" in v for v in short)
    wide = cs.validate_allocation(table1, cs.Allocation(3, (0, 1, 1, 0)))
    assert wide == ["allocation is over 3 agents, instance has 2"]


@pytest.mark.parametrize(
    "owner",
    [(0.9, 1.7, F(3, 2), "1"), (0, 1.0), (F(1),), ("1",), (0, 1.7)],
)
def test_allocation_refuses_owners_that_are_not_integers(owner):
    with pytest.raises(TypeError):
        cs.Allocation(2, owner)


def test_allocation_keeps_int_and_bool_owners_as_ints():
    alloc = cs.Allocation(2, [0, 1, True, False])
    assert alloc.owner == (0, 1, 1, 0)
    assert all(type(i) is int for i in alloc.owner)
    assert repr(alloc) == "Allocation(n=2, owner=(0, 1, 1, 0))"


def test_validate_refuses_rows_whose_sums_cannot_be_printed():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter prints ints of any length")
    half = F(-5 * 10 ** (limit - 2))  # two of them sum to -10^(limit-1): `limit` digits
    assert cs.validate_instance(cs.Instance((F(1),), ((half, half),))) == []
    over = F(-(10 ** (limit - 1)))  # the sum has limit + 1 digits
    for row in ((over,) * 10, (F(-1, 10 ** (limit - 1)), F(-1, 10 ** (limit - 1) + 1))):
        inst = cs.Instance((HALF, HALF), ((F(-1),) * len(row), row))
        assert cs.validate_instance(inst) == [f"sums of agent 1's values can exceed {limit} digits"]


def test_validate_agent_and_row_counts():
    assert cs.validate_instance(cs.Instance((), ())) == ["instance has no agents; need n >= 1"]
    extra_row = cs.Instance((F(1),), ((F(-1),), (F(-1),)))
    assert cs.validate_instance(extra_row) == ["value matrix has 2 rows for 1 agents"]
