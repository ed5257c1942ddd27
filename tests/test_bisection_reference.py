"""Differential test: ``linpro``'s integer bracket against the Fraction bisection.

``fraction_bisection.bracket`` halves a Fraction bracket and decides every
probe with the simplex; ``linpro`` halves integers over a power of two and
certifies what probes it can.  Both must stop at the same ``c_final``,
``lower`` and ``iterations``, for eps that are not powers of two, for eps
at least ``4 (n - 1)`` (no probe at all) and for a single agent.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import choreshare as cs
import fraction_bisection as reference
from choreshare import lp

F = Fraction


@st.composite
def searches(draw):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    style = draw(st.sampled_from(["normalized", "binary"]))
    inst = cs.random_instance(n, m, draw(st.integers(0, 10**6)), style)
    eps = draw(
        st.one_of(
            st.sampled_from([F(1, 3), F(1, 100), F(3, 7), F(5, 3), F(1, 1000)]),
            st.fractions(min_value=F(1, 5000), max_value=8, max_denominator=5000).filter(bool),
            st.integers(4 * (n - 1), 4 * n + 3).filter(bool).map(F),  # no probe
        )
    )
    return inst, eps


@settings(max_examples=150, deadline=None)
@given(searches())
@example((cs.random_instance(1, 3, 0), F(1, 100)))
@example((cs.random_instance(3, 4, 0), F(8)))  # eps / 4 == n - 1: no probe
@example((cs.random_instance(3, 4, 0), F(7, 5)))
def test_integer_bracket_matches_the_fraction_bisection(search):
    inst, eps = search
    result = lp.linpro(inst, eps)
    assert (result.c_final, result.lower, result.iterations) == reference.bracket(inst, eps)
