"""Test-only reference: ``linpro``'s binary search on Fractions.

``bracket`` is the search ``choreshare.lp.linpro`` ran before it kept the
bracket as integers over a power of two: ``upper`` and ``lower`` are
Fractions, each probe is the Fraction midpoint, and every probe is decided
by the simplex (``check_feasible``), with no certificate.  The differential
test requires ``linpro``'s ``c_final``, ``lower`` and ``iterations`` to be
``bracket``'s.
"""

from __future__ import annotations

from fractions import Fraction

from choreshare import lp
from choreshare.algorithms import wmms_prime
from choreshare.model import Instance


def bracket(inst: Instance, eps: Fraction) -> tuple[Fraction, Fraction, int]:
    """(upper, lower, iterations) of the search over [1, n] down to eps / 4."""
    refs = wmms_prime(inst)
    upper, lower = Fraction(inst.n), Fraction(1)
    iterations = 0
    while upper - lower > eps / 4:
        mid = (upper + lower) / 2
        if lp.check_feasible(lp.build_program(inst, mid, refs)) is not None:
            upper = mid
        else:
            lower = mid
        iterations += 1
    return upper, lower, iterations
