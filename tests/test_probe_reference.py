"""Differential tests: probes decided on integer loads against the Fraction reference.

``lp._eligible`` and ``lp._certificate`` decide eligibility and floors on
``lp._loads``'s integers (``_certificate`` on the pairs ``lp._by_load``
ranks); the reference (``fraction_probes``) decides both as Fractions,
``V_ij >= c * r_i``.  For every drawn instance, threshold and
references, zero references included, ``build_program`` must select the
reference's eligible pairs, and ``_certificate``'s largest load G must be at
most the top exactly when the reference certifies, and then be the largest
integer load of the reference's allocation.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import fraction_probes as reference
import choreshare as cs
from choreshare import lp

F = Fraction

# Zeros, repeats and one positive value, which eligibility must handle too.
values = st.sampled_from([F(0), F(0), F(-1), F(-1, 2), F(-1, 3), F(-2, 3), F(-3, 4), F(-5), F(1, 2)])
references = st.sampled_from([F(0), F(0), F(-1), F(-1, 2), F(-1, 3), F(-7, 5), F(-1, 100)])
thresholds = st.one_of(
    st.sampled_from([F(0), F(1, 2), F(1), F(4, 3), F(513, 512), F(2), F(5)]),
    st.fractions(min_value=0, max_value=6, max_denominator=1024),
)


@st.composite
def probes(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=8))
    weights = draw(st.lists(st.integers(min_value=1, max_value=5), min_size=n, max_size=n))
    shares = tuple(F(w, sum(weights)) for w in weights)
    rows = tuple(tuple(draw(st.lists(values, min_size=m, max_size=m))) for _ in range(n))
    refs = tuple(draw(st.lists(references, min_size=n, max_size=n)))
    return cs.Instance(shares, rows), draw(thresholds), refs


HALVES = ((F(-1, 2), F(-1, 2)),) * 2
TIED = ((F(-1, 2), F(-1, 2), F(-1)), (F(-1), F(-1), F(-1, 2)))


@settings(max_examples=300, deadline=None)
@given(probes())
@example((cs.Instance((F(1),), ((F(-1, 2), F(-1, 2)),)), F(3, 4), (F(-1),)))  # each fits, both miss
@example((cs.Instance((F(1, 2),) * 2, ((F(0), F(-1)), (F(-1), F(0)))), F(1), (F(0), F(0))))
@example((cs.Instance((F(1, 2),) * 2, HALVES), F(2), (F(-1), F(-1))))  # equal loads: lowest index
@example((cs.Instance((F(1, 2),) * 2, HALVES), F(1, 2), (F(-1), F(-1))))  # c * scale is a load
# The tie on chore 1 goes to agent 0; to agent 1, G would be 3/2, above the top.
@example((cs.Instance((F(1, 2),) * 2, TIED), F(1), (F(-1), F(-1))))
@example((cs.Instance((F(1, 2),) * 2, ((F(0), F(-1)), (F(-1), F(0)))), F(0), (F(-1), F(-1))))
# A positive value is a negative load: a floor passed midway holds at the end.
@example((cs.Instance((F(1),), ((F(-1), F(-1, 2), F(1, 2)),)), F(1), (F(-1),)))
# Agent 0 may not take chore 0: its load is None.
@example((cs.Instance((F(1, 2),) * 2, ((F(-1), F(0)), HALVES[0])), F(1), (F(0), F(-1))))
def test_integer_probe_matches_program_reference(drawn):
    inst, c, refs = drawn
    loads, scale = lp._loads(inst, refs)
    assert scale > 0
    assert lp.build_program(inst, c, refs).variables == reference.eligible_pairs(inst, c, refs)
    top = c.numerator * scale // c.denominator
    largest = lp._certificate(lp._by_load(loads, scale)[0], inst.n, top)
    alloc = reference._certificate(inst, c, refs, reference._loads(inst, refs))
    if alloc is None:
        assert largest is None or largest > top
    else:  # the same greedy allocation, its largest integer load at most top
        assert largest == max(sum(loads[i][j] for j in bundle) for i, bundle in enumerate(alloc.bundles()))
        assert largest <= top
