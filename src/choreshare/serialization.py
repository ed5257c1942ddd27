"""Instance documents: exact JSON serialization and parsing.

The on-disk format is a JSON object

    {"agents": [{"share": "1/4", "values": ["-3/8", "-0.125", ...]}, ...]}

Rationals may be written as "p/q" strings, as decimal-literal strings, or as
bare JSON numbers; all are parsed exactly (JSON floats are converted from
their literal text, never through a binary double).  Serialization always
emits canonical "p/q" strings, so a parse/serialize round trip is bit-exact.

A row of canonical tokens ("p/q" or a plain integer in ASCII digits, the
form serialization writes) is read in one pass into its numerators and
denominators, one ``int`` pass per side; any other row goes through
``parse_ratio`` one token at a time, which writes every ParseError message.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .errors import ParseError
from .model import ZERO, Instance, _int_max_str_digits

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})
# The canonical token: ASCII digits, "-" only before the numerator, an optional nonzero "/q".
_CANONICAL = r"-?\d+(?:/0*[1-9]\d*)?"
_CANONICAL_ROW = re.compile(rf"{_CANONICAL}(?:,{_CANONICAL})*", re.ASCII)
# Fraction's grammar for a decimal with an exponent: whole, fraction, exponent.
_EXPONENT_FORM = re.compile(
    r"[-+]?(?=\d|\.\d)(\d*|\d+(?:_\d+)*)(?:\.(\d*|\d+(?:_\d+)*))?[eE]([-+]?\d+(?:_\d+)*)"
)


def _too_long(context: str, limit: int) -> ParseError:
    return ParseError(f"{context}: more than {limit} digits in numerator or denominator")


def _from_text(text: str, context: str, limit: int) -> Fraction:
    """``Fraction(text)``, without building a power of ten the digit limit refuses.

    An exponent form is M * 10**E, for M of at most d written digits and E
    the exponent less the fraction digits.  A nonzero M gives a numerator of
    more than ``limit`` digits when E >= limit, and a denominator of more
    when -E >= limit + d; a zero M gives 0.  The ``int`` calls are Fraction's.
    """
    form = _EXPONENT_FORM.fullmatch(text)
    if form is None:
        return Fraction(text)
    whole, frac, exp = form.groups("")
    frac = frac.replace("_", "")
    mantissa, exp = (int(whole or "0"), int(frac or "0")), int(exp) - len(frac)
    if mantissa == (0, 0):
        return ZERO
    if limit and (exp >= limit or -exp >= limit + len(whole) + len(frac)):
        raise _too_long(context, limit)
    return Fraction(text)


def parse_ratio(token, context: str = "value") -> Fraction:
    """Parse an exact rational from "p/q", a decimal literal, or an int.

    A string token means what ``Fraction(text)`` reads from it once "−" and
    "–" are mapped to "-" and surrounding whitespace is stripped.
    ``parse_instance`` passes a bare JSON number here as its text, and calls
    this once per token on any row that ``_canonical_row`` does not read.

    A rational whose numerator or denominator has more digits than Python
    converts to text (``sys.get_int_max_str_digits()``, 0 for no limit) is
    refused, so whatever parses can also be printed.  So is an exponent form
    whose power of ten is too long, before it is built (``_from_text``), and
    any token with a digit run too long for ``int`` to read, "1/000…0" too.
    """
    limit = _int_max_str_digits()
    if isinstance(token, str):
        text = token.translate(_MINUS_VARIANTS).strip()
        try:
            value = _from_text(text, context, limit)
        except ZeroDivisionError:
            raise ParseError(f"{context}: zero denominator in {token!r}") from None
        except ValueError:
            # Fraction's grammar does not depend on how long a digit run is, so
            # a text that parses with every run cut to one digit is too long.
            try:
                Fraction(re.sub(r"\d+", "1", text))
            except ValueError:
                raise ParseError(f"{context}: not a rational token: {token!r}") from None
            raise _too_long(context, limit) from None
    elif isinstance(token, bool):  # a subclass of int, but JSON true/false are not rationals
        raise ParseError(f"{context}: expected a rational, got {token!r}")
    elif isinstance(token, Fraction):
        value = token
    elif isinstance(token, int):
        value = Fraction(token)
    elif isinstance(token, float):
        raise ParseError(f"{context}: refusing binary float {token!r}; write it as a string")
    else:
        raise ParseError(f"{context}: expected a rational, got {token!r}")
    # An int of b bits has at most 0.302 * b + 1 digits, so a pair with at
    # most 3 * limit bits between them prints; past that, count exactly.
    num, den = value.as_integer_ratio()
    if limit and num.bit_length() + den.bit_length() > 3 * limit:
        if max(-num, num, den) >= 10**limit:
            raise _too_long(context, limit)
    return value


def _ratio_texts(ints, denom: int) -> list[str]:
    """Each ``a / denom`` as canonical text: "p/q" in lowest terms, or a bare integer when q == 1.

    Raises ValueError when a numerator or denominator has more digits than
    Python converts to text (``sys.get_int_max_str_digits()``).
    """
    try:
        return [f"{a // g}/{denom // g}" if (g := gcd(a, denom)) != denom else str(a // g) for a in ints]
    except ValueError:
        limit = _int_max_str_digits()
        raise ValueError(f"a result has more than {limit} digits and cannot be printed") from None


def format_ratio(x: Fraction) -> str:
    """Canonical text for a rational, as ``_ratio_texts`` writes it."""
    return _ratio_texts((x.numerator,), x.denominator)[0]


def _canonical_row(values: list, limit: int) -> tuple[list[int], list[int]] | None:
    """``values`` read in one pass as ``(nums, dens)`` when every token is canonical, else None.

    The joined row must match the canonical grammar with one comma fewer
    than there are tokens, so no token holds a comma.  A token of at most
    ``limit`` characters has no digit run past the limit, and reducing the
    fraction only shrinks it, so ``parse_ratio``'s digit-limit check cannot
    fire and is skipped.  A row of "p/q" tokens is split once and each side
    read by one ``int`` pass; any other row is split token by token.  A
    non-string token, a zero denominator (outside the grammar) or a digit run
    ``int`` refuses gives None, leaving every message to ``parse_ratio``.
    """
    try:
        joined = ",".join(values)
        if (
            _CANONICAL_ROW.fullmatch(joined) is None
            or joined.count(",") != len(values) - 1
            or (limit and max(map(len, values)) > limit)
        ):
            return None
        if joined.count("/") == len(values):
            parts = joined.replace("/", ",").split(",")
            return list(map(int, parts[0::2])), list(map(int, parts[1::2]))
        parts = [v.partition("/") for v in values]
        return [int(num) for num, _, _ in parts], [int(den or 1) for _, _, den in parts]
    except (TypeError, ValueError):
        return None


def parse_instance(text: str) -> Instance:
    """Parse an instance document; errors carry the offending agent/field.

    Each row of values is read in one pass when all its tokens are
    canonical (``_canonical_row``), and otherwise one token at a time by
    ``parse_ratio`` with an ``agent i value j`` context; either way the
    values, and every message, are what the token-at-a-time reading gives.
    """
    try:
        doc = json.loads(text, parse_float=str, parse_int=str)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict) or "agents" not in doc:
        raise ParseError("document must be an object with an 'agents' list")
    agents = doc["agents"]
    if not isinstance(agents, list) or not agents:
        raise ParseError("'agents' must be a non-empty list")
    limit = _int_max_str_digits()
    shares = []
    rows = []
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict) or "share" not in entry or "values" not in entry:
            raise ParseError(f"agent {i}: expected an object with 'share' and 'values'")
        shares.append(parse_ratio(entry["share"], context=f"agent {i} share"))
        values = entry["values"]
        if not isinstance(values, list):
            raise ParseError(f"agent {i}: 'values' must be a list")
        row = _canonical_row(values, limit)
        if row is None:
            ratios = [parse_ratio(v, f"agent {i} value {j}") for j, v in enumerate(values)]
            row = [x.numerator for x in ratios], [x.denominator for x in ratios]
        rows.append(row)
    return Instance.from_pairs(shares, rows)


def serialize_instance(inst: Instance) -> str:
    """Render an instance as its canonical JSON document (newline-terminated)."""
    doc = {
        "agents": [
            {
                "share": format_ratio(inst.shares[i]),
                "values": _ratio_texts(*inst.integer_values[i]),
            }
            for i in range(inst.n)
        ]
    }
    return json.dumps(doc, indent=2) + "\n"


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(inst))
