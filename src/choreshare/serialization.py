"""Instance documents: exact JSON serialization and parsing.

The on-disk format is a JSON object

    {"agents": [{"share": "1/4", "values": ["-3/8", "-0.125", ...]}, ...]}

Rationals may be written as "p/q" strings, as decimal-literal strings, or as
bare JSON numbers; all are parsed exactly (JSON floats are converted from
their literal text, never through a binary double).  Serialization always
emits canonical "p/q" strings, so a parse/serialize round trip is bit-exact.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ParseError
from .model import Instance, _int_max_str_digits

_MINUS_VARIANTS = str.maketrans({"−": "-", "–": "-"})


def parse_ratio(token, context: str = "value") -> Fraction:
    """Parse an exact rational from "p/q", a decimal literal, or an int.

    A rational whose numerator or denominator has more digits than Python
    converts to text (``sys.get_int_max_str_digits()``, 0 for no limit) is
    refused, so whatever parses can also be printed.
    """
    if isinstance(token, bool):  # a subclass of int, but JSON true/false are not rationals
        raise ParseError(f"{context}: expected a rational, got {token!r}")
    if isinstance(token, Fraction):
        value = token
    elif isinstance(token, int):
        value = Fraction(token)
    elif isinstance(token, float):
        raise ParseError(f"{context}: refusing binary float {token!r}; write it as a string")
    elif not isinstance(token, str):
        raise ParseError(f"{context}: expected a rational, got {token!r}")
    else:
        text = token.translate(_MINUS_VARIANTS).strip()
        try:
            value = Fraction(text)
        except ZeroDivisionError:
            raise ParseError(f"{context}: zero denominator in {token!r}") from None
        except ValueError:
            raise ParseError(f"{context}: not a rational token: {token!r}") from None
    limit = _int_max_str_digits()
    # An int of b bits has at most 0.302 * b + 1 digits, so a pair with at
    # most 3 * limit bits between them prints; past that, count exactly.
    num, den = value.as_integer_ratio()
    if limit and num.bit_length() + den.bit_length() > 3 * limit:
        if max(-num, num, den) >= 10**limit:
            raise ParseError(f"{context}: more than {limit} digits in numerator or denominator")
    return value


def format_ratio(x: Fraction) -> str:
    """Canonical text for a rational: "p/q", or a bare integer when q == 1."""
    return str(x)


def parse_instance(text: str) -> Instance:
    """Parse an instance document; errors carry the offending agent/field."""
    try:
        doc = json.loads(text, parse_float=Fraction, parse_int=int)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"malformed document: {exc}") from None
    if not isinstance(doc, dict) or "agents" not in doc:
        raise ParseError("document must be an object with an 'agents' list")
    agents = doc["agents"]
    if not isinstance(agents, list) or not agents:
        raise ParseError("'agents' must be a non-empty list")
    shares = []
    rows = []
    for i, entry in enumerate(agents):
        if not isinstance(entry, dict) or "share" not in entry or "values" not in entry:
            raise ParseError(f"agent {i}: expected an object with 'share' and 'values'")
        shares.append(parse_ratio(entry["share"], context=f"agent {i} share"))
        values = entry["values"]
        if not isinstance(values, list):
            raise ParseError(f"agent {i}: 'values' must be a list")
        rows.append(
            tuple(
                parse_ratio(v, context=f"agent {i} value {j}")
                for j, v in enumerate(values)
            )
        )
    return Instance(tuple(shares), tuple(rows))


def serialize_instance(inst: Instance) -> str:
    """Render an instance as its canonical JSON document (newline-terminated)."""
    doc = {
        "agents": [
            {
                "share": format_ratio(inst.shares[i]),
                "values": [format_ratio(v) for v in inst.values[i]],
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
