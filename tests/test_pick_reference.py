"""Differential tests: the integer-key picking rules against the Fraction reference.

Both run the same rules on the same preference order, so on every instance
they must agree on every owner and every trace event, ``quantity`` included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_pickers as reference
import choreshare as cs

F = Fraction

# Few distinct values, mixed denominators and zeros: value ties are common,
# and so are load ties between agents.
values = st.sampled_from([F(0), F(0), F(-1), F(-1), F(-1, 2), F(-1, 3), F(-2, 3), F(-3, 4), F(-5)])


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    m = draw(st.integers(min_value=0, max_value=24))
    if draw(st.booleans()):
        shares = (F(1, n),) * n
    else:
        weights = draw(st.lists(st.integers(min_value=1, max_value=7), min_size=n, max_size=n))
        shares = tuple(F(w, sum(weights)) for w in weights)
    kind = draw(st.sampled_from(["mixed", "binary", "identical"]))
    cell = st.sampled_from([F(0), F(-1)]) if kind == "binary" else values
    rows = [tuple(draw(st.lists(cell, min_size=m, max_size=m))) for _ in range(n)]
    if kind == "identical":
        rows = [rows[0]] * n
    return cs.Instance(shares, tuple(rows))


def _runs(inst, order):
    return [
        (lambda t: cs.round_robin(inst, trace=t), lambda t: reference.round_robin(inst, trace=t)),
        (lambda t: cs.round_robin(inst, order=order, trace=t),
         lambda t: reference.round_robin(inst, order=order, trace=t)),
        (lambda t: cs.multiplicative_greedy(inst, trace=t),
         lambda t: reference.multiplicative_greedy(inst, trace=t)),
        (lambda t: cs.multiplicative_greedy(inst, tie_rule="smallest-share", trace=t),
         lambda t: reference.multiplicative_greedy(inst, tie_rule="smallest-share", trace=t)),
        (lambda t: cs.additive_greedy(inst, trace=t), lambda t: reference.additive_greedy(inst, trace=t)),
    ]


def _with_order(inst):
    return st.tuples(st.just(inst), st.permutations(range(inst.n)).map(tuple))


# The integer key primary * n + rank: equal shares and zero rows, where every
# primary ties and the tie ranks alone pick; multiplicative weights 2, 4, 4,
# where primaries differ by less than n; and nine agents, shares unequal or
# equal, under both tie rules.
@settings(max_examples=150, deadline=None)
@given(instances().flatmap(_with_order))
@example((cs.Instance((F(1, 4),) * 4, ((0,) * 8,) * 4), (3, 1, 0, 2)))
@example((cs.Instance((F(1, 2), F(1, 4), F(1, 4)),
                      ((-1, -1, -1, 0, -1, -1), (-1, 0, -1, -1, -1, 0), (-1, -1, 0, -1, -1, -1))), (0, 1, 2)))
@example((cs.Instance(tuple(F(w, 45) for w in range(1, 10)),
                      tuple(tuple(F(-((7 * i + 3 * j) % 4), 2) for j in range(12)) for i in range(9))),
          (8, 0, 7, 1, 6, 2, 5, 3, 4)))
@example((cs.Instance((F(1, 9),) * 9, tuple(tuple(-((i + j) % 3) for j in range(12)) for i in range(9))),
          tuple(range(9))))
def test_picking_rules_match_fraction_reference(case):
    inst, order = case
    for run, ref in _runs(inst, order):
        trace: list[cs.TraceEvent] = []
        ref_trace: list[cs.TraceEvent] = []
        alloc = run(trace)
        assert alloc == ref(ref_trace) == run(None)
        assert trace == ref_trace


@settings(max_examples=150, deadline=None)
@given(instances())
def test_preferences_are_the_stable_descending_sort(inst):
    expected = tuple(tuple(sorted(range(inst.m), key=lambda j: (-row[j], j))) for row in inst.values)
    assert inst._preferences == expected


def test_picking_rules_share_the_instance_preferences():
    inst = cs.random_instance(1, 6, 3)
    chores = (4, 0, 5, 2, 1, 3)  # not the sorted order: the rules must follow it
    assert inst._preferences[0] != chores
    inst.__dict__["_preferences"] = (chores,)
    for rule in (cs.round_robin, cs.multiplicative_greedy, cs.additive_greedy):
        trace: list[cs.TraceEvent] = []
        rule(inst, trace=trace)
        assert tuple(e.chore for e in trace) == chores
        assert inst._preferences[0] is chores
    inst = cs.random_instance(4, 30, 7)
    cs.round_robin(inst)
    prefs = inst.__dict__["_preferences"]
    cs.multiplicative_greedy(inst)
    cs.additive_greedy(inst)
    assert inst.__dict__["_preferences"] is prefs
