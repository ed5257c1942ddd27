from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import choreshare as cs
from choreshare import oracle
import enumeration_oracle as reference
from fraction_balance import unfairness_degree
from conftest import oracle_alpha, oracle_wmms, quick_instances

F = Fraction
HALF = F(1, 2)


def test_table1_wmms(table1):
    res = cs.exact_wmms(table1)
    assert res.wmms == (F(-1, 4), F(-3, 4))
    assert res.w == (F(-1), F(-1))


def test_table2_wmms(table2):
    res = cs.exact_wmms(table2)
    assert res.wmms == (F(-3, 4), F(-1, 3))
    assert res.w == (F(-1), F(-4, 3))


def test_witnesses_attain_w():
    for inst in [cs.paper_table(1), cs.paper_table(2)] + quick_instances(seeds=2):
        res = cs.exact_wmms(inst)
        for i in range(inst.n):
            assert unfairness_degree(inst, i, res.witness_partitions[i]) == res.w[i]
            assert res.wmms[i] == inst.shares[i] * res.w[i]


@st.composite
def wmms_instances(draw):
    # two-agent rows within the bit bound take the subset-sum kernel, n = 3
    # rows the search; no enumeration runs, so both go past its sizes
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 9 if n == 3 else 60))
    raw = [draw(st.integers(1, 9)) for _ in range(n)]
    denoms = st.sampled_from([1, 2, 3, 4, 6])
    values = [tuple(-F(draw(st.integers(0, 9)), draw(denoms)) for _ in range(m)) for _ in range(n)]
    return cs.Instance([F(r, sum(raw)) for r in raw], values)


@settings(max_examples=150, deadline=None)
@given(wmms_instances())
@example(cs.Instance((F(2, 5), F(3, 5)), ((F(0),) * 4, (F(-1, 2),) * 4)))
@example(cs.Instance((F(1, 3), F(2, 3)), ((), ())))
def test_values_are_those_of_the_witnesses(inst):
    res = cs.exact_wmms(inst, budget=inst.n**inst.m)
    for i in range(inst.n):
        assert res.w[i] == unfairness_degree(inst, i, res.witness_partitions[i])
        assert res.wmms[i] == inst.shares[i] * res.w[i]


def test_single_agent_wmms():
    inst = cs.Instance((F(1),), ((F(-1, 3), F(-2, 3)),))
    res = cs.exact_wmms(inst)
    assert res.wmms == (F(-1),)
    assert res.witness_partitions[0].owner == (0, 0)


def test_empty_chore_set():
    inst = cs.Instance((HALF, HALF), ((), ()))
    res = cs.exact_wmms(inst)
    assert res.wmms == (F(0), F(0))
    assert cs.exact_owmms(inst, res.wmms).alpha_star == 1


def test_table1_owmms(table1):
    res = cs.exact_wmms(table1)
    assert cs.exact_owmms(table1, res.wmms).alpha_star == 1


def test_table2_owmms(table2):
    res = cs.exact_owmms(table2, cs.exact_wmms(table2).wmms)
    assert res.alpha_star == F(4, 3)
    assert res.witness.owner == (0, 0)  # everything to the share-3/4 agent


def test_single_agent_owmms():
    inst = cs.Instance((F(1),), ((F(-1),),))
    res = cs.exact_owmms(inst, cs.exact_wmms(inst).wmms)
    assert res.alpha_star == 1
    assert res.witness.owner == (0,)


def test_owmms_witness_tight(table2):
    wmms = cs.exact_wmms(table2).wmms
    res = cs.exact_owmms(table2, wmms)
    assert cs.fairness_report(table2, res.witness, wmms).worst_ratio() == res.alpha_star
    # just below alpha*, not even the witness (nor anything else) passes
    probe = res.alpha_star - F(1, 1000)
    for owners in product(range(2), repeat=2):
        assert cs.fairness_report(table2, cs.Allocation(2, owners), wmms).worst_ratio() > probe


def test_satisfied_at_examples(table2):
    # An allocation is fair at alpha >= 0 exactly when its worst ratio is not
    # None and at most alpha.
    wmms = (F(-3, 4), F(-1, 3))
    report = cs.fairness_report(table2, cs.Allocation(2, (0, 0)), wmms)
    assert F(5, 4) < report.worst_ratio() <= F(4, 3)
    empty = cs.Instance((HALF, HALF), ((), ()))
    assert cs.fairness_report(empty, cs.Allocation(2, ()), (F(0), F(0))).worst_ratio() <= F(100)


def test_table4_wmms_matches_printed_values():
    eps = F(1, 10)
    res = cs.exact_wmms(cs.paper_table(4, eps))
    assert res.wmms == (-eps, -eps, -1 + 2 * eps)


# The makespan form of the maxmin computation: with disutility D = -V
# (Q||Cmax with speeds = shares), agent i's least largest per-share bundle
# disutility is -w[i].
def test_makespan_table1(table1):
    assert [-w for w in cs.exact_wmms(table1).w] == [F(1), F(1)]


def test_makespan_uniform_balanced_split():
    # three chores at -1/3 between two speed-1/2 agents: best split is 2+1,
    # so the bottleneck bundle carries (2/3)/(1/2) = 4/3
    inst = cs.Instance((HALF, HALF), ((F(-1, 3),) * 3,) * 2)
    assert -cs.exact_wmms(inst).w[0] == F(4, 3)


def test_makespan_negates_w():
    for inst in quick_instances(seeds=2) + quick_instances("binary", seeds=2):
        res = cs.exact_wmms(inst)
        partitions = [
            cs.Allocation(inst.n, owners).bundles()
            for owners in product(range(inst.n), repeat=inst.m)
        ]
        for i in range(inst.n):
            makespan = min(
                max(-cs.bundle_value(inst, i, b) / s for b, s in zip(bundles, inst.shares))
                for bundles in partitions
            )
            assert makespan == -res.w[i]


def test_weighted_mean_bound_on_normalized():
    for inst in quick_instances():
        res = cs.exact_wmms(inst)
        for i in range(inst.n):
            assert res.w[i] <= F(-1)
            assert res.wmms[i] <= -inst.shares[i]


def test_identical_rows_share_witness():
    row = (F(-1, 2), F(-1, 4), F(-1, 4))
    inst = cs.Instance((F(1, 3), F(2, 3)), (row, row))
    res = cs.exact_wmms(inst)
    assert res.witness_partitions[0] == res.witness_partitions[1]
    assert res.w[0] == res.w[1]


def test_zero_row_reference_policy():
    inst = cs.Instance((HALF, HALF), ((F(0), F(0)), (F(-1), F(-1))))
    res = cs.exact_wmms(inst)
    assert res.wmms[0] == 0
    owmms = cs.exact_owmms(inst, res.wmms)
    assert owmms.alpha_star == 1
    assert cs.bundle_value(inst, 0, owmms.witness.bundles()[0]) == 0


def test_budget_guard():
    assert cs.check_budget(3, 8) == 3**8
    inst = cs.random_instance(5, 30, seed=1)
    with pytest.raises(cs.BudgetExceeded, match=r"5\^30"):
        cs.exact_wmms(inst)
    small = cs.random_instance(2, 4, seed=1)
    with pytest.raises(cs.BudgetExceeded):
        cs.exact_wmms(small, budget=10)
    with pytest.raises(cs.BudgetExceeded):
        cs.exact_owmms(small, cs.exact_wmms(small).wmms, budget=10)
    # 10^5000 and 2^14000 have more digits than Python prints by default
    for n, m in (10, 5000), (2, 14000):
        message = rf"^{n}\^{m} owner vectors exceeds enumeration budget 100000000$"
        with pytest.raises(cs.BudgetExceeded, match=message):
            cs.check_budget(n, m)


def _spy_on_search(monkeypatch):
    """The lengths of the rows ``oracle._uniform_split`` sends to the branch and bound."""
    rows = []
    search = oracle._lex_min_max

    def spy(loads):
        rows.append(len(loads))
        return search(loads)

    monkeypatch.setattr(oracle, "_lex_min_max", spy)
    return rows


@pytest.mark.parametrize("over", [0, 1])
def test_two_agent_rows_go_to_the_search_only_past_the_bit_bound(monkeypatch, over):
    m = 4
    # m * (total + 1) is the bound itself, or m past it
    total = oracle._TWO_AGENT_BITS // m - 1 + over
    xs = [1, 2, 3, total - 6]
    shares = (F(1, 3), F(2, 3))
    # agent 0's share is half of agent 1's, so her load is twice as heavy
    expected = oracle._lex_min_max([[2 * x, x] for x in xs])[1]
    searched = _spy_on_search(monkeypatch)
    res = cs.exact_wmms(cs.Instance(shares, (tuple(-F(x) for x in xs),) * 2))
    assert res.witness_partitions[0].owner == expected == (0, 0, 0, 1)
    assert searched == ([m] if over else [])


@pytest.mark.parametrize("solver", ["exact_wmms", "divide_and_choose"])
def test_two_agent_row_of_4300_digit_values_goes_to_the_search(monkeypatch, solver):
    # a bitset of 10^4300 bits cannot be built: 1 << 10**4300 raises OverflowError
    row = (F(-1, 10**4300), F(-1), F(-1))
    # the chooser's share is above 1/3, so divide_and_choose splits the row
    inst = cs.Instance((F(2, 5), F(3, 5)), (row, row))
    # agent 0's share is 2/3 of agent 1's, so her load is 3/2 times as heavy
    expected = oracle._lex_min_max([[3 * x, 2 * x] for x in (1, 10**4300, 10**4300)])[1]
    searched = _spy_on_search(monkeypatch)
    if solver == "exact_wmms":
        assert cs.exact_wmms(inst).witness_partitions[0].owner == expected == (1, 0, 1)
    else:
        trace = []
        assert (cs.divide_and_choose(inst, trace=trace), trace) == reference.divide_and_choose(inst)
    assert searched == [3]


def test_owmms_zero_references_admit_only_chores_valued_at_zero():
    inst = cs.Instance((HALF, HALF), ((F(-1), F(0)), (F(-1), F(0))))
    # chore 0 costs both agents, and neither may take it
    with pytest.raises(
        cs.NoFeasibleAllocation, match="^no allocation gives every zero-reference agent value 0$"
    ):
        cs.exact_owmms(inst, (F(0), F(0)))
    # agent 1 takes chore 0 at exactly her reference; chore 1 goes to agent 0
    res = cs.exact_owmms(inst, (F(0), F(-1)))
    assert res.alpha_star == 1
    assert res.witness.owner == (1, 0)


def test_owmms_rejects_positive_refs(table2):
    with pytest.raises(ValueError):
        cs.exact_owmms(table2, (F(1), F(-1)))


@pytest.mark.parametrize("refs", [(F(-1, 4),), (F(-1, 4), F(-3, 4), F(-1))])
def test_owmms_rejects_wrong_reference_count(table1, refs):
    # one too few once ended in an IndexError, one too many was ignored
    with pytest.raises(ValueError, match=f"expected 2 references, got {len(refs)}"):
        cs.exact_owmms(table1, refs)


def test_oracle_determinism():
    inst = cs.random_instance(3, 6, seed=11)
    first = cs.exact_wmms(inst)
    second = cs.exact_wmms(inst)
    assert first == second
    assert cs.exact_owmms(inst, first.wmms) == cs.exact_owmms(inst, second.wmms)


def test_cached_helpers_agree(table2):
    assert oracle_wmms(table2).wmms == cs.exact_wmms(table2).wmms
    assert oracle_alpha(table2).alpha_star == F(4, 3)


@pytest.mark.parametrize(
    "inst",
    [
        cs.Instance((HALF, HALF), ((F(1, 2), F(-1)), (F(-1), F(-1)))),
        cs.Instance((F(3, 2), F(-1, 2)), ((F(-1), F(-1)), (F(-1), F(-1)))),
        # goods: normalizing would flip every sign, so the check precedes it
        cs.Instance((HALF, HALF), ((F(1), F(1)), (F(1), F(2)))),
    ],
    ids=["positive-value", "negative-share", "goods"],
)
def test_oracles_reject_unsound_signs(inst):
    # pruning assumes bundle sums only fall and shares are positive; the
    # divide-and-choose split runs the same search
    with pytest.raises(ValueError):
        cs.exact_wmms(inst)
    with pytest.raises(ValueError):
        cs.exact_owmms(inst, (F(-1), F(-1)))
    with pytest.raises(ValueError):
        cs.divide_and_choose(inst)
