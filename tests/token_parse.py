"""Test-only reference: an instance row read one token at a time.

``parse_row`` is the loop ``choreshare.serialization.parse_instance`` ran on
every row before rows of canonical tokens were read in one pass: each token
goes through ``parse_ratio`` with its ``agent i value j`` context.  The
differential test requires ``parse_instance`` to give the same values, or
the same ParseError message.
"""

from __future__ import annotations

from fractions import Fraction

from choreshare.serialization import parse_ratio


def parse_row(values: list, i: int) -> tuple[Fraction, ...]:
    """Agent ``i``'s ``values``, as parsed from the document, read token by token."""
    return tuple(parse_ratio(v, context=f"agent {i} value {j}") for j, v in enumerate(values))
