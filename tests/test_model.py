import sys
from fractions import Fraction
from math import lcm

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


def test_normalize_scales_rows():
    inst = cs.Instance((HALF, HALF), ((F(-2), F(-2)), (F(-3), F(-1))))
    norm = cs.normalize_instance(inst)
    assert norm.values[0] == (F(-1, 2), F(-1, 2))
    assert norm.values[1] == (F(-3, 4), F(-1, 4))
    assert norm.shares == inst.shares


def test_normalize_fixed_point_on_table1(table1):
    assert cs.normalize_instance(table1) == table1


def test_normalize_zero_row_raises():
    inst = cs.Instance((F(1),), ((F(0), F(0)),))
    with pytest.raises(cs.NormalizationImpossible):
        cs.normalize_instance(inst)


def test_normalize_idempotent_and_order_preserving():
    for inst in quick_instances():
        norm = cs.normalize_instance(inst)
        assert cs.normalize_instance(norm) == norm
        assert all(norm.row_total(i) == -1 for i in range(norm.n))
        # scaling preserves the ordering of bundle values within a row
        bundles = ([0], [1, 2], [3], list(range(inst.m)))
        for i in range(inst.n):
            before = [cs.bundle_value(inst, i, b) for b in bundles]
            after = [cs.bundle_value(norm, i, b) for b in bundles]
            for a in range(len(bundles)):
                for b in range(len(bundles)):
                    assert (before[a] < before[b]) == (after[a] < after[b])
                    assert (before[a] == 0) == (after[a] == 0)


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


def test_unfairness_degree_examples(table2):
    split = cs.Allocation(2, (0, 1))
    assert cs.unfairness_degree(table2, 0, split) == F(-1)
    all_to_first = cs.Allocation(2, (0, 0))
    assert cs.unfairness_degree(table2, 1, all_to_first) == F(-4, 3)


def test_unfairness_degree_single_agent():
    inst = cs.Instance((F(1),), ((F(-1, 3), F(-2, 3)),))
    assert cs.unfairness_degree(inst, 0, cs.Allocation(1, (0, 0))) == F(-1)


def test_unfairness_degree_weighted_mean_bound():
    # The share-weighted mean of the per-share bundle values telescopes to the
    # row total, so on normalized instances the minimum is at most -1.
    for inst in quick_instances(seeds=2):
        for owners in [(0,) * inst.m, tuple(j % inst.n for j in range(inst.m))]:
            alloc = cs.Allocation(inst.n, owners)
            for i in range(inst.n):
                mean = sum(
                    inst.shares[k] * (cs.bundle_value(inst, i, b) / inst.shares[k])
                    for k, b in enumerate(alloc.bundles())
                )
                assert mean == inst.row_total(i) == F(-1)
                assert cs.unfairness_degree(inst, i, alloc) <= F(-1)


def test_fairness_report_table2(table2):
    report = cs.fairness_report(
        table2, cs.Allocation(2, (0, 0)), (F(-3, 4), F(-1, 3))
    )
    assert report.agents[0].ratio == F(4, 3)
    assert report.agents[1].ratio == F(0)
    assert report.worst_ratio() == F(4, 3)
    assert report.satisfied_at(F(4, 3))
    assert not report.satisfied_at(F(5, 4))


def test_fairness_report_table1(table1):
    report = cs.fairness_report(
        table1, cs.Allocation(2, (0, 1, 1, 1)), (F(-1, 4), F(-3, 4))
    )
    assert [a.ratio for a in report.agents] == [F(1), F(5, 6)]
    assert report.satisfied_at(F(1))


def test_fairness_report_empty_instance():
    inst = cs.Instance((HALF, HALF), ((), ()))
    report = cs.fairness_report(inst, cs.Allocation(2, ()), (F(0), F(0)))
    assert all(a.unbounded_satisfied for a in report.agents)
    assert report.worst_ratio() == F(0)
    assert report.satisfied_at(F(100))


def test_fairness_report_zero_reference_policy():
    inst = cs.Instance((HALF, HALF), ((F(-1),), (F(0),)))
    taken = cs.fairness_report(inst, cs.Allocation(2, (1,)), (F(-1), F(0)))
    assert taken.agents[1].ratio is None
    assert taken.agents[1].unbounded_satisfied
    assert taken.worst_ratio() == F(0)
    shirked = cs.fairness_report(inst, cs.Allocation(2, (0,)), (F(0), F(0)))
    assert not shirked.agents[0].unbounded_satisfied
    assert shirked.worst_ratio() is None
    assert not shirked.satisfied_at(F(10))


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
    with pytest.raises(ValueError, match=message):
        cs.verify_alpha(table1, alloc, refs, F(100))


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
