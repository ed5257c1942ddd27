"""Differential tests: the integer balance greedy against the Fraction reference.

``egal_greedy`` and ``wmms_prime`` compare agents on integer keys; the
reference (``fraction_balance``) compares the Fractions they stand for.  On
every instance both must agree on every owner, every trace event
(``quantity`` included) and every reference.  ``unfairness_degree``, which
scores the reference's surrogate and the oracle's witnesses, is pinned on
examples here.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_balance as reference
import choreshare as cs
from conftest import quick_instances

F = Fraction

# Few distinct values with zeros and mixed denominators: value ties are
# common, and so are key ties between agents.
values = st.sampled_from([F(0), F(0), F(-1), F(-1), F(-1, 2), F(-1, 3), F(-2, 3), F(-3, 4), F(-5)])
# Rows on other scales, so the row's own denominator and size vary too.
row_scales = st.sampled_from([F(1), F(7, 3), F(1, 10**9), F(10**12), F(-1, 3)])


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    m = draw(st.integers(min_value=0, max_value=16))
    share_kind = draw(st.sampled_from(["equal", "weights", "tiny"]))
    if share_kind == "equal":
        shares = (F(1, n),) * n
    else:
        sizes = [1, 2, 3, 7] if share_kind == "weights" else [1, 999_983, 10**6]
        weights = draw(st.lists(st.sampled_from(sizes), min_size=n, max_size=n))
        shares = tuple(F(w, sum(weights)) for w in weights)
    kind = draw(st.sampled_from(["mixed", "binary", "normalized", "scaled"]))
    cell = st.sampled_from([F(0), F(-1)]) if kind == "binary" else values
    rows = []
    for _ in range(n):
        row = draw(st.lists(cell, min_size=m, max_size=m))
        total = sum(row, F(0))
        if kind == "normalized" and total:
            row = [v / -total for v in row]
        elif kind == "scaled":
            scale = abs(draw(row_scales))
            row = [v * scale for v in row]
        rows.append(tuple(row))
    if draw(st.booleans()):
        rows = [rows[0]] * n  # one shared row, as egal-greedy itself requires
    return cs.Instance(shares, tuple(rows))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_balance_greedy_matches_fraction_reference(inst):
    for row in inst.values:
        trace: list[cs.TraceEvent] = []
        ref_trace: list[cs.TraceEvent] = []
        alloc = cs.egal_greedy(inst.shares, row, trace=trace)
        assert alloc == reference.egal_greedy(inst.shares, row, trace=ref_trace)
        assert alloc == cs.egal_greedy(inst.shares, row)
        assert trace == ref_trace
    assert cs.wmms_prime(inst) == reference.wmms_prime(inst)


def test_unfairness_degree_examples(table2):
    split = cs.Allocation(2, (0, 1))
    assert reference.unfairness_degree(table2, 0, split) == F(-1)
    all_to_first = cs.Allocation(2, (0, 0))
    assert reference.unfairness_degree(table2, 1, all_to_first) == F(-4, 3)


def test_unfairness_degree_single_agent():
    inst = cs.Instance((F(1),), ((F(-1, 3), F(-2, 3)),))
    assert reference.unfairness_degree(inst, 0, cs.Allocation(1, (0, 0))) == F(-1)


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
                assert reference.unfairness_degree(inst, i, alloc) <= F(-1)
