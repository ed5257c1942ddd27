from fractions import Fraction

import pytest

import choreshare as cs
from conftest import agent_values, oracle_wmms, quick_instances

F = Fraction
HALF = F(1, 2)
EPS = F(1, 10)


# ---------------------------------------------------------------- naive


def test_naive_table2(table2):
    alloc = cs.naive(table2)
    assert alloc.owner == (0, 0)
    # the receiving agent keeps at least n times her maxmin benchmark
    assert cs.bundle_value(table2, 0, alloc.bundles()[0]) >= 2 * F(-3, 4)


def test_naive_tie_and_empty():
    inst = cs.Instance((HALF, HALF), ((F(-1),), (F(-1),)))
    assert cs.naive(inst).owner == (0,)
    empty = cs.Instance((F(1),), ((),))
    assert cs.naive(empty).owner == ()


def test_naive_n_wmms_guarantee():
    for inst in quick_instances(seeds=2):
        alloc = cs.naive(inst)
        wmms = oracle_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= inst.n * wmms[i]


# ---------------------------------------------------------------- egal greedy


def test_egal_greedy_uniform_example():
    alloc = cs.egal_greedy((F(1, 4), F(3, 4)), [F(-1, 4)] * 4)
    assert alloc.bundles() == ((3,), (0, 1, 2))
    uniform = cs.Instance((F(1, 4), F(3, 4)), ((F(-1, 4),) * 4,) * 2)
    assert oracle_wmms(uniform).wmms == (F(-1, 4), F(-3, 4))
    assert agent_values(uniform, alloc) == [F(-1, 4), F(-3, 4)]


def test_egal_greedy_single_agent():
    alloc = cs.egal_greedy((F(1),), [F(-1, 2), F(-1, 2)])
    assert alloc.owner == (0, 0)


def test_egal_greedy_tie_order():
    def decisions(shares, row):
        trace: list[cs.TraceEvent] = []
        alloc = cs.egal_greedy(shares, row, trace=trace)
        return alloc.owner, [(e.step, e.chore, e.agent, e.quantity) for e in trace]

    # equal shares and repeated values: the lower index wins every tie
    third = F(1, 3)
    assert decisions((third,) * 3, [F(-1)] * 4) == (
        (0, 1, 2, 0), [(0, 0, 0, F(-3)), (1, 1, 1, F(-3)), (2, 2, 2, F(-3)), (3, 3, 0, F(-6))]
    )
    # a binary row: the larger share wins the tie at -4, then the lower index at 0
    quarter = F(1, 4)
    assert decisions((quarter, HALF, quarter), [F(0), F(-1), F(0), F(-1)]) == (
        (0, 1, 0, 1), [(0, 1, 1, F(-2)), (1, 3, 1, F(-4)), (2, 0, 0, F(0)), (3, 2, 0, F(0))]
    )


def test_egal_greedy_rejects_chores_without_agents():
    with pytest.raises(ValueError, match="^need at least one agent$"):
        cs.egal_greedy((), (F(-1),))
    assert cs.egal_greedy((), ()) == cs.Allocation(0, ())
    assert cs.egal_greedy((F(0), F(1)), ()) == cs.Allocation(2, ())  # no chores: shares unread


SHARED_ROW = (F(-1), F(-2))


@pytest.mark.parametrize("shares", [(F(0), F(1)), (F(-1), F(2))])
@pytest.mark.parametrize(
    "call",
    [
        lambda shares: cs.egal_greedy(shares, SHARED_ROW),
        lambda shares: cs.wmms_prime(cs.Instance(shares, (SHARED_ROW,) * 2)),
        lambda shares: cs.multiplicative_greedy(cs.Instance(shares, (SHARED_ROW,) * 2)),
        lambda shares: cs.multiplicative_greedy(
            cs.Instance(shares, (SHARED_ROW,) * 2), tie_rule="smallest-share"
        ),
    ],
    ids=["egal_greedy", "wmms_prime", "mult-greedy", "mult-greedy-smallest-share"],
)
def test_dividing_by_a_share_refuses_a_nonpositive_one(call, shares):
    # a zero share used to raise ZeroDivisionError, and egal_greedy gave a
    # negative one every chore without complaint
    with pytest.raises(ValueError, match=f"^share {shares[0]} of agent 0 is not positive$"):
        call(shares)


def test_egal_greedy_scale_invariant():
    shares = (F(2, 7), F(5, 7))
    row = [F(-1, 3), F(-1, 6), F(-1, 4), F(-1, 4)]
    trace_a: list[cs.TraceEvent] = []
    trace_b: list[cs.TraceEvent] = []
    a = cs.egal_greedy(shares, row, trace=trace_a)
    b = cs.egal_greedy(shares, [F(7, 3) * v for v in row], trace=trace_b)
    assert a == b
    assert [(e.chore, e.agent) for e in trace_a] == [(e.chore, e.agent) for e in trace_b]


def test_egal_greedy_factor_two_on_identical_rows():
    for base in quick_instances(seeds=2):
        inst = cs.Instance(base.shares, (base.values[0],) * base.n)
        alloc = cs.egal_greedy(inst.shares, inst.values[0])
        wmms = oracle_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= 2 * wmms[i]


def test_egal_greedy_exact_on_uniform_rows():
    for base in quick_instances(seeds=2):
        inst = cs.Instance(base.shares, ((F(-1, base.m),) * base.m,) * base.n)
        alloc = cs.egal_greedy(inst.shares, inst.values[0])
        wmms = oracle_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= wmms[i]


def test_egal_greedy_on_failure_family_shared_row():
    # run with agent 0's row as the shared row: the factor-2 bound applies
    family = cs.egal_greedy_failure_family(F(4), F(2), 3)
    inst = cs.Instance(family.shares, (family.values[0],) * family.n)
    alloc = cs.egal_greedy(inst.shares, inst.values[0])
    wmms = oracle_wmms(inst).wmms
    for i, value in enumerate(agent_values(inst, alloc)):
        assert value >= 2 * wmms[i]


# ---------------------------------------------------------------- wmms_prime


def test_wmms_prime_table1(table1):
    assert cs.wmms_prime(table1) == (F(-1, 4), F(-3, 4))


def test_wmms_prime_single_agent():
    inst = cs.Instance((F(1),), ((F(-1, 3), F(-2, 3)),))
    assert cs.wmms_prime(inst) == (F(-1),)


def test_wmms_prime_bracket_on_seeded_3x6():
    for seed in range(100):
        inst = cs.random_instance(3, 6, seed)
        wmms = oracle_wmms(inst).wmms
        for prime, exact in zip(cs.wmms_prime(inst), wmms):
            assert 2 * exact <= prime <= exact


# ---------------------------------------------------------------- divide and choose


def test_divcho_table2(table2):
    alloc = cs.divide_and_choose(table2)
    assert alloc.owner == (0, 0)
    wmms = oracle_wmms(table2).wmms
    report = cs.fairness_report(table2, alloc, wmms)
    assert report.worst_ratio() == F(4, 3) <= F(3, 2)


def test_divcho_equal_shares_identical_rows():
    inst = cs.Instance((HALF, HALF), ((F(-1, 2), F(-1, 4), F(-1, 4)),) * 2)
    alloc = cs.divide_and_choose(inst)
    assert alloc.bundles() == ((0,), (1, 2))
    wmms = oracle_wmms(inst).wmms
    assert wmms == (F(-1, 2), F(-1, 2))
    for i, value in enumerate(agent_values(inst, alloc)):
        assert value >= F(3, 2) * wmms[i]


def test_divcho_empty():
    inst = cs.Instance((HALF, HALF), ((), ()))
    assert cs.divide_and_choose(inst).owner == ()


def test_divcho_preconditions():
    three = cs.Instance((F(1, 3),) * 3, ((F(-1),),) * 3)
    with pytest.raises(ValueError, match="2 agents"):
        cs.divide_and_choose(three)
    # with equal shares agent 1 divides; a positive value in her row is refused
    positive = cs.Instance((HALF, HALF), ((F(-1), F(-1)), (F(1), F(-3))))
    with pytest.raises(ValueError, match="nonpositive values"):
        cs.divide_and_choose(positive)
    # the oracle's budget (2^m <= 10^8, so m <= 26) only matters once the
    # chooser's share exceeds 1/3 and the divider actually searches for a split
    wide = cs.Instance((HALF, HALF), ((F(-1, 27),) * 27,) * 2)
    message = r"2\^27 = 134217728 owner vectors exceeds enumeration budget 100000000$"
    with pytest.raises(cs.BudgetExceeded, match=message):
        cs.divide_and_choose(wide)
    small_share = cs.Instance((F(1, 4), F(3, 4)), ((F(-1, 27),) * 27,) * 2)
    assert cs.divide_and_choose(small_share).owner == (1,) * 27
    # 25 chores are within it: the divider (agent 1) keeps the heavy last
    # chore and the chooser takes the 24 light ones
    row = (F(-1, 48),) * 24 + (F(-1, 2),)
    assert cs.divide_and_choose(cs.Instance((HALF, HALF), (row, row))).owner == (0,) * 24 + (1,)


# Both orders of the shares, the chooser above 1/3 and at most 1/3: the
# zero-row check runs before the divider takes everything.
@pytest.mark.parametrize("shares", [(F(2, 5), F(3, 5)), (F(3, 5), F(2, 5)), (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))])
@pytest.mark.parametrize("zero_rows", [(0,), (1,), (0, 1)])
def test_divcho_refuses_a_zero_row(shares, zero_rows):
    rows = [(F(0),) * 3 if i in zero_rows else (F(-1, 2), F(0), F(-1, 3)) for i in range(2)]
    trace: list[cs.TraceEvent] = []
    message = f"^agent {zero_rows[0]} values every chore at 0$"
    with pytest.raises(cs.NormalizationImpossible, match=message):
        cs.divide_and_choose(cs.Instance(shares, rows), trace=trace)
    assert trace == []


def test_divcho_bound_on_seeded_instances():
    for inst in quick_instances(seeds=3):
        if inst.n != 2:
            continue
        alloc = cs.divide_and_choose(inst)
        wmms = oracle_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= F(3, 2) * wmms[i]


@pytest.mark.parametrize("style", ["normalized", "binary"])
@pytest.mark.parametrize("m", [24, 25, 26])
def test_divcho_bound_at_the_budget_edge(m, style):
    # 2^26 owner vectors is the most the default budget admits; on two
    # agents the oracle solves these rows as subset sums
    for seed in range(3):
        inst = cs.random_instance(2, m, seed, style)
        alloc = cs.divide_and_choose(inst)
        wmms = cs.exact_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= F(3, 2) * wmms[i]


# ---------------------------------------------------------------- binary


def test_binary_example():
    inst = cs.Instance(
        (HALF, HALF),
        ((F(-1), F(0), F(-1)), (F(-1), F(-1), F(-1))),
    )
    alloc = cs.binary_wmms(inst)
    assert alloc.bundles() == ((0, 1), (2,))
    assert agent_values(inst, alloc) == [F(-1), F(-1)]
    assert oracle_wmms(inst).wmms == (F(-1), F(-2))


def test_binary_all_zero():
    inst = cs.Instance((HALF, HALF), ((F(0), F(0)), (F(0), F(0))))
    alloc = cs.binary_wmms(inst)
    assert agent_values(inst, alloc) == [F(0), F(0)]


def test_binary_single_agent():
    inst = cs.Instance((F(1),), ((F(-1), F(-1)),))
    assert cs.binary_wmms(inst).owner == (0, 0)


def test_binary_rejects_general_values(table1):
    with pytest.raises(cs.NotBinary, match="agent 0, chore 0"):
        cs.binary_wmms(table1)


def test_binary_exact_on_seeded_instances():
    for inst in quick_instances("binary", seeds=3):
        alloc = cs.binary_wmms(inst)
        wmms = oracle_wmms(inst).wmms
        for i, value in enumerate(agent_values(inst, alloc)):
            assert value >= wmms[i]


# ---------------------------------------------------------------- negative controls


def test_round_robin_order_checks(table1):
    with pytest.raises(ValueError, match="permutation"):
        cs.round_robin(table1, order=(0, 0))
    single = cs.Instance((F(1),), ((F(-1), F(-1)),))
    assert cs.round_robin(single).owner == (0, 0)


def test_round_robin_uniform_equal_split():
    inst = cs.Instance((F(1, 3),) * 3, ((F(-1, 6),) * 6,) * 3)
    alloc = cs.round_robin(inst)
    assert [len(b) for b in alloc.bundles()] == [2, 2, 2]


def test_round_robin_respects_order():
    inst = cs.round_robin_family(2)  # identical rows, so picks collide
    default = cs.round_robin(inst)
    swapped = cs.round_robin(inst, order=(1, 0))
    assert default.owner == (0, 1, 0, 1)
    assert swapped.owner == (1, 0, 1, 0)


def test_multiplicative_greedy_table3_run():
    inst = cs.paper_table(3, EPS)
    trace: list[cs.TraceEvent] = []
    alloc = cs.multiplicative_greedy(inst, trace=trace)
    # the big-share agent picks the light chore, the small-share agent is then
    # the least loaded and eats the heavy one
    assert [(e.chore, e.agent) for e in trace] == [(1, 1), (0, 0)]
    wmms = oracle_wmms(inst).wmms
    assert wmms == (-EPS, -(1 - EPS))
    report = cs.fairness_report(inst, alloc, wmms)
    assert report.agents[0].ratio == F(9)


def test_multiplicative_greedy_table4_smallest_share_run():
    inst = cs.paper_table(4, EPS)
    trace: list[cs.TraceEvent] = []
    alloc = cs.multiplicative_greedy(inst, tie_rule="smallest-share", trace=trace)
    assert [(e.chore, e.agent) for e in trace] == [(1, 0), (0, 1), (2, 2), (3, 0)]
    assert alloc.bundles()[0] == (1, 3)


def test_multiplicative_greedy_rejects_bad_tie_rule(table1):
    with pytest.raises(ValueError, match="tie rule"):
        cs.multiplicative_greedy(table1, tie_rule="coin-flip")


def test_additive_greedy_table5_run():
    inst = cs.paper_table(5, EPS)
    alloc = cs.additive_greedy(inst)
    assert alloc.owner[0] == 0
    assert alloc.bundles()[0] == (0, 1)


def test_additive_greedy_single_chore_tie():
    inst = cs.Instance((HALF, HALF), ((F(-1),), (F(-1),)))
    assert cs.additive_greedy(inst).owner == (0,)


def _scan_pick(inst, rule, order=None, tie_rule="largest-share"):
    """The picking rules, each pick scanning every remaining chore."""
    shares, n = inst.shares, inst.n
    picking = order or tuple(range(n))
    sign = 1 if tie_rule == "largest-share" else -1
    remaining, totals, owner, trace = set(range(inst.m)), [F(0)] * n, [0] * inst.m, []
    for step in range(inst.m):
        if rule == "round-robin":
            i = picking[step % n]
        elif rule == "mult-greedy":
            i = max(range(n), key=lambda a: (totals[a] / shares[a], sign * shares[a], -a))
            quantity = totals[i] / shares[i]
        else:
            i = max(range(n), key=lambda a: (shares[a] + totals[a], shares[a], -a))
            quantity = shares[i] + totals[i]
        j = max(remaining, key=lambda c: (inst.values[i][c], -c))
        if rule == "round-robin":
            quantity = inst.values[i][j]
        trace.append(cs.TraceEvent(step, j, i, quantity))
        totals[i] += inst.values[i][j]
        owner[j] = i
        remaining.remove(j)
    return cs.Allocation(n, tuple(owner)), trace


# Rows mixing denominators, with repeated values and zeros: the picking loop
# sorts each row scaled to integers, and ties must still go by chore index.
MIXED_DENOMINATOR_TIES = [
    cs.Instance(
        (F(1, 3), F(2, 3)),
        ((F(-1, 3), F(-2, 9), F(-1, 3), F(0)), (F(0), F(-1, 6), F(-1, 4), F(-1, 6))),
    ),
    cs.Instance(
        (F(1, 4), F(1, 4), F(1, 2)),
        (
            (F(-1, 2), F(-2, 7), F(-1, 2), F(-1, 5), F(0), F(-2, 7), F(-3, 10), F(-1, 5)),
            (F(-1, 7), F(-1, 7), F(-1, 3), F(-1, 3), F(-2, 5), F(0), F(0), F(-3, 7)),
            (F(-5, 6), F(-1, 6), F(-1, 6), F(-1, 15), F(-1, 15), F(-1, 6), F(-1, 2), F(0)),
        ),
    ),
]


@pytest.mark.parametrize(
    "inst",
    [cs.round_robin_family(4), cs.paper_table(5)] + MIXED_DENOMINATOR_TIES
    + [cs.random_instance(n, 24, seed, style) for n in (2, 5) for seed in range(3)
       for style in ("normalized", "binary")],
)
def test_picking_rules_match_full_scan(inst):
    # binary rows and the identical rr-family rows make value ties common
    reversed_order = tuple(reversed(range(inst.n)))
    runs = [
        ("round-robin", {}, lambda t: cs.round_robin(inst, trace=t)),
        ("round-robin", {"order": reversed_order},
         lambda t: cs.round_robin(inst, order=reversed_order, trace=t)),
        ("mult-greedy", {}, lambda t: cs.multiplicative_greedy(inst, trace=t)),
        ("mult-greedy", {"tie_rule": "smallest-share"},
         lambda t: cs.multiplicative_greedy(inst, tie_rule="smallest-share", trace=t)),
        ("add-greedy", {}, lambda t: cs.additive_greedy(inst, trace=t)),
    ]
    for rule, kwargs, run in runs:
        trace: list[cs.TraceEvent] = []
        assert (run(trace), trace) == _scan_pick(inst, rule, **kwargs)


# ---------------------------------------------------------------- traces & determinism


@pytest.mark.parametrize(
    "run",
    [
        lambda inst, trace: cs.naive(inst, trace=trace),
        lambda inst, trace: cs.egal_greedy(inst.shares, inst.values[0], trace=trace),
        lambda inst, trace: cs.round_robin(inst, trace=trace),
        lambda inst, trace: cs.multiplicative_greedy(inst, trace=trace),
        lambda inst, trace: cs.additive_greedy(inst, trace=trace),
        lambda inst, trace: cs.divide_and_choose(inst, trace=trace),
    ],
    ids=["naive", "egal-greedy", "round-robin", "mult-greedy", "add-greedy", "div-cho"],
)
def test_trace_replays_to_allocation(run, table1):
    trace: list[cs.TraceEvent] = []
    alloc = run(table1, trace)
    assert {e.chore: e.agent for e in trace} == dict(enumerate(alloc.owner))


def test_binary_trace_replays():
    inst = cs.Instance(
        (HALF, HALF), ((F(-1), F(0), F(-1)), (F(-1), F(-1), F(-1)))
    )
    trace: list[cs.TraceEvent] = []
    alloc = cs.binary_wmms(inst, trace=trace)
    assert {e.chore: e.agent for e in trace} == dict(enumerate(alloc.owner))
    assert [e.step for e in trace] == [0, 1, 2]


@pytest.mark.parametrize(
    "shares, values, events",
    [
        # every chore free: each goes to the lowest agent valuing it at 0
        ((HALF, HALF), ((0, 0, 0), (0, 0, 0)), [(0, 0, 0, 0), (1, 1, 0, 0), (2, 2, 0, 0)]),
        # no chore free: the balance greedy's per-share values, chores in order
        (
            (F(2, 3), F(1, 3)),
            ((-1, -1, -1), (-1, -1, -1)),
            [(0, 0, 0, F(-3, 2)), (1, 1, 0, F(-3)), (2, 2, 1, F(-3))],
        ),
        # chore 1 free, then the greedy's events mapped back to chores 0 and 2
        ((HALF, HALF), ((-1, 0, -1), (-1, -1, -1)), [(0, 1, 0, 0), (1, 0, 0, -2), (2, 2, 1, -2)]),
    ],
    ids=["all-free", "none-free", "mixed"],
)
def test_binary_trace_events(shares, values, events):
    inst = cs.Instance(shares, values)
    trace: list[cs.TraceEvent] = []
    alloc = cs.binary_wmms(inst, trace=trace)
    assert [(e.step, e.chore, e.agent, e.quantity) for e in trace] == events
    assert {e.chore: e.agent for e in trace} == dict(enumerate(alloc.owner))
    assert alloc == cs.binary_wmms(inst)


def test_algorithms_deterministic():
    inst = cs.random_instance(3, 6, seed=5)
    for run in (
        cs.naive,
        cs.round_robin,
        cs.multiplicative_greedy,
        cs.additive_greedy,
    ):
        first: list[cs.TraceEvent] = []
        second: list[cs.TraceEvent] = []
        assert run(inst, trace=first) == run(inst, trace=second)
        assert first == second
