import contextlib
import json
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import choreshare as cs
from choreshare import serialization
import token_parse as reference
from conftest import quick_instances

F = Fraction
# Python's int-to-text digit limit when the module loads, 0 for none.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_round_trip_fixtures(table1, table2):
    for inst in (table1, table2):
        text = cs.serialize_instance(inst)
        again = cs.parse_instance(text)
        assert again == inst
        assert cs.serialize_instance(again) == text


def test_round_trip_generated():
    for inst in quick_instances(seeds=2) + quick_instances("binary", seeds=2):
        assert cs.parse_instance(cs.serialize_instance(inst)) == inst


# Zero, negative, and numerators of up to one digit fewer than the
# int-to-text limit (4299 digits when there is none), so every value prints.
NUMERATOR_DIGITS = (LIMIT or 4300) - 1
drawn_values = st.one_of(
    st.just(F(0)),
    st.fractions(max_value=0, max_denominator=10**6),
    st.builds(F, st.integers(-(10**NUMERATOR_DIGITS) + 1, 0), st.integers(1, 10**20)),
)


@st.composite
def drawn_instances(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    raw = draw(st.lists(st.integers(1, 10**12), min_size=n, max_size=n))  # unequal shares
    shares = tuple(F(r, sum(raw)) for r in raw)
    rows = [draw(st.lists(drawn_values, min_size=m, max_size=m)) for _ in range(n)]
    return cs.Instance(shares, tuple(map(tuple, rows)))


@settings(max_examples=100, deadline=None)
@given(drawn_instances())
@example(cs.Instance((F(1, 3), F(2, 3)), ((), ())))
def test_round_trip_drawn(inst):
    text = cs.serialize_instance(inst)
    again = cs.parse_instance(text)
    assert again == inst
    assert cs.serialize_instance(again) == text


def test_parse_decimal_exactly():
    doc = '{"agents": [{"share": "1", "values": ["-0.375", -0.2, "−0.375"]}]}'
    inst = cs.parse_instance(doc)
    assert inst.values[0] == (F(-3, 8), F(-1, 5), F(-3, 8))


def test_parse_ratio_tokens():
    assert cs.parse_ratio("3/4") == F(3, 4)
    assert cs.parse_ratio("-0.125") == F(-1, 8)
    assert cs.parse_ratio(7) == F(7)
    with pytest.raises(cs.ParseError, match="zero denominator"):
        cs.parse_ratio("1/0")
    with pytest.raises(cs.ParseError, match="not a rational"):
        cs.parse_ratio("seven")
    with pytest.raises(cs.ParseError, match="float"):
        cs.parse_ratio(0.1)
    # bool is a subclass of int, but JSON true/false are not rationals
    for token in (True, False):
        with pytest.raises(cs.ParseError, match="expected a rational"):
            cs.parse_ratio(token)


def _fraction_text(token: str, context: str):
    """What parse_ratio should make of a string token: ``Fraction(text)`` or why it failed.

    A token that ``Fraction`` refuses only for the int-to-str digit limit
    gets the digit-limit error: it reads once the limit is lifted, or, as
    "1/000…0" does, fails there on a zero denominator it has too many
    digits to reach.
    """
    text = token.translate(str.maketrans({"−": "-", "–": "-"})).strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        return f"{context}: zero denominator in {token!r}"
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
            try:
                with contextlib.suppress(ZeroDivisionError):
                    Fraction(text)
                return f"{context}: more than {limit} digits in numerator or denominator"
            except ValueError:
                pass
            finally:
                sys.set_int_max_str_digits(limit)
        return f"{context}: not a rational token: {token!r}"


# Fragments of rational literals and near misses: signs (with the Unicode
# minus and en dash), ASCII and non-ASCII digits ("٣" is an Arabic-Indic
# three, "１" a fullwidth one, "²" a superscript two), slashes, decimal
# points, exponents, underscores and whitespace.
TOKEN_PARTS = ["-", "+", "−", "–", "0", "1", "7", "12", "007", "٣", "１", "²",
               "/", ".", "e", "E", "_", " ", "\t"]


# An exponent of four or more digits is left out: "1e7007007" alone builds a
# seven-million-digit integer.  test_parse_ratio_refuses_what_cannot_be_printed
# covers the digit limit, which no drawn token reaches.
tokens = st.lists(st.sampled_from(TOKEN_PARTS), max_size=7).map("".join).filter(
    lambda token: not re.search(r"[eE][-+−–]?[\d_]{4,}", token)
)


@settings(max_examples=400, deadline=None)
@given(tokens)
@example("3/")
@example("/4")
@example("-")
@example("+3/4")
@example("1/0")
@example("3/-4")
@example("-0/5")
@example("-0")
@example("007/14")
@example(" −12/007 ")
@example("1" * 5000)
@example("1/" + "7" * 5000)
@example("1/" + "0" * 5000)
@example("0." + "1" * 5000)
@example("1" * 5000 + "e-4990")
@example("x" + "1" * 5000)
def test_parse_ratio_agrees_with_fraction_text(token):
    expected = _fraction_text(token, "tok")
    try:
        got = cs.parse_ratio(token, "tok")
    except cs.ParseError as exc:
        got = str(exc)
    assert got == expected
    assert type(got) is type(expected)


# The JSON text of one value in a row: a canonical token, quoted or bare; a
# drawn near miss; a bare decimal; or something that is no rational at all.
canonical_tokens = st.from_regex(r"-?[0-9]{1,6}(/[0-9]{1,6})?", fullmatch=True)
value_texts = st.one_of(
    canonical_tokens.map(json.dumps),
    st.integers(-(10**8), 10**8).map(str),
    tokens.map(json.dumps),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(["true", "false", "null", "[-1]", '{"-1": -1}', '"-1,-2"']),
)
# Token lengths at the one-pass reader's bound: the limit, or 4300 when there is none.
EDGE = LIMIT or 4300


def _parsed(parse, *args):
    """What ``parse(*args)`` returned, or its ParseError's message."""
    try:
        return parse(*args)
    except cs.ParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(value_texts, max_size=8))
@example(['"1,2"'])
@example(['"-1"', '"1/0"', '"-2"'])
@example(['"2/4"', '"-007/010"'])
@example(['"-0"'])
@example([])
@example(['"-1"', "true"])
@example(['"-1"', "null"])
@example(['"-1"', '["-1"]'])
@example([f'"{"1" * EDGE}"', "1" * EDGE])
@example([f'"-{"1" * EDGE}"', "-" + "1" * EDGE])
@example([f'"{"1" * (EDGE + 1)}"'])
@example(["-1", "1" * (EDGE + 1)])
@example([f'"1/{"7" * (EDGE - 2)}"', f'"1/{"7" * (EDGE + 1)}"'])
# Near misses of the separator check: as many "/" as tokens, a "-" or an
# empty side where int() refuses it, a zero denominator, and characters that
# int() reads but the canonical grammar does not ("+", "_", a space, a
# non-ASCII digit).
@example(['"1/2/3"', '"4"'])
@example(['"1/-3"'])
@example(['"5/"'])
@example(['"/5"'])
@example(['"-"'])
@example(['"1/00"'])
@example(['"-0/0"'])
@example(['"+1/2"'])
@example(['"1_0/2"'])
@example(['" 1/2"'])
@example(['"١/2"'])
@example(['"1/+2"'])
@example(['"1/+2"', '"3"'])
@example(['"1 /2"', '"3"'])
def test_parse_instance_rows_agree_with_token_parse(texts):
    _agrees_with_token_parse(texts)


def _agrees_with_token_parse(texts):
    """Parse a one-agent document of the JSON value ``texts``; require the token-at-a-time result.

    Each text is also parsed as the agent's share, against ``parse_ratio``.
    """
    doc = '{"agents": [{"share": "1", "values": [' + ", ".join(texts) + "]}]}"
    values = json.loads(doc, parse_float=str, parse_int=str)["agents"][0]["values"]
    expected = _parsed(reference.parse_row, values, 0)
    got = _parsed(lambda: cs.parse_instance(doc).values[0])
    assert got == expected
    assert type(got) is type(expected)
    if isinstance(got, tuple):
        assert all(type(x) is Fraction for x in got)
    for text, value in zip(texts, values):
        share_doc = '{"agents": [{"share": ' + text + ', "values": []}]}'
        share = _parsed(lambda: cs.parse_instance(share_doc).shares[0])
        expected = _parsed(cs.parse_ratio, value, "agent 0 share")
        assert share == expected and type(share) is type(expected)
    return values


# Canonical numerators and nonzero denominators: leading zeros, "-0", and
# tokens of EDGE characters (and one more) with either part long.
numerator_texts = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.from_regex(r"-?0{1,3}[0-9]{0,4}", fullmatch=True),
    st.sampled_from(["-0", "1" * EDGE, "-" + "1" * (EDGE - 1), "1" * (EDGE + 1), "-" + "7" * (EDGE - 4)]),
)
denominator_texts = st.one_of(
    st.integers(1, 10**6).map(str),
    st.from_regex(r"0{0,3}[1-9][0-9]{0,3}", fullmatch=True),
    st.sampled_from(["7" * (EDGE - 2), "0" * (EDGE - 4) + "3"]),
)


def _json_text(token: str, bare: bool) -> str:
    """``token`` quoted, or bare when asked and JSON reads it as a number."""
    return token if bare and re.fullmatch(r"-?(0|[1-9]\d*)", token) else json.dumps(token)


@st.composite
def one_form_rows(draw):
    """Rows of two or more tokens, all "p/q" (denominators shared or not) or all integers."""
    nums = draw(st.lists(numerator_texts, min_size=2, max_size=8))
    if draw(st.booleans()):
        if draw(st.booleans()):
            dens = [draw(denominator_texts)] * len(nums)
        else:
            dens = draw(st.lists(denominator_texts, min_size=len(nums), max_size=len(nums)))
        return [json.dumps(f"{p}/{q}") for p, q in zip(nums, dens)]
    return [_json_text(p, draw(st.booleans())) for p in nums]


@settings(max_examples=300, deadline=None)
@given(one_form_rows())
@example(['"-3/8"'])
@example(['"-007"'])
@example(['"-1/2"', '"3"', '"-0/7"', "-4"])
@example(['"2/4"', '"-6/12"', '"0/8"', '"-0/7"'])
@example(['"-0"', "-0", '"007"', "12"])
def test_one_form_rows_agree_with_token_parse(texts):
    values = _agrees_with_token_parse(texts)
    # every such row within the digit limit takes the one-pass reader
    long = bool(LIMIT and max(map(len, values)) > LIMIT)
    assert (serialization._canonical_row(values, LIMIT) is None) == long


@pytest.mark.parametrize(
    "row",
    [
        ["2/4", "-6/9", "0/7", "007/14"],
        ["-1/2", "-1/3", "-5/6", "0"],
        ["-2/6", "-4/12", "-10/30"],
        ["-0", "-3", "-007"],
        ["-2/4", "1", "-3/7", "0/1"],
    ],
)
def test_unreduced_canonical_rows_store_the_same_instance(row):
    doc = json.dumps({"agents": [{"share": "1/2", "values": row}, {"share": "1/2", "values": row[::-1]}]})
    inst = cs.parse_instance(doc)
    fractions = [F(v) for v in row]
    same = cs.Instance((F(1, 2), F(1, 2)), (fractions, fractions[::-1]))
    assert inst == same and hash(inst) == hash(same)
    assert inst.integer_values == same.integer_values
    assert inst.values == same.values


def test_parsed_document_never_builds_its_fraction_view(tmp_path):
    inst = cs.random_instance(3, 12, 4)
    parsed = cs.parse_instance(cs.serialize_instance(inst))
    assert cs.validate_instance(parsed) == []
    for rule in (cs.naive, cs.round_robin, cs.multiplicative_greedy, cs.additive_greedy):
        rule(parsed, trace=[])
    cs.linpro(parsed, F(1, 100))
    cs.exact_owmms(parsed, cs.exact_wmms(parsed).wmms)
    assert cs.serialize_instance(parsed) == cs.serialize_instance(inst)
    assert "values" not in parsed.__dict__
    assert parsed == inst


def test_parse_ratio_refuses_what_cannot_be_printed():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter prints ints of any length")
    longest = cs.parse_ratio(f"-1e{limit - 1}")  # exactly `limit` digits
    assert str(longest) == "-1" + "0" * (limit - 1)
    for token in (f"-1e{limit}", f"1e-{limit}", F(10**limit, 3), -(10**limit)):
        with pytest.raises(cs.ParseError, match=f"^field: more than {limit} digits"):
            cs.parse_ratio(token, "field")
    doc = f'{{"agents": [{{"share": "1", "values": [-1e{limit}]}}]}}'
    with pytest.raises(cs.ParseError, match="^agent 0 value 0: more than"):
        cs.parse_instance(doc)
    inst = cs.Instance((F(1),), ((longest,),))
    assert cs.parse_instance(cs.serialize_instance(inst)) == inst


def _parsed_with_peak(parse, *args):
    """What ``parse(*args)`` returned, or its ParseError's message, and the most memory it held."""
    tracemalloc.start()
    try:
        try:
            result = parse(*args)
        except cs.ParseError as exc:
            result = str(exc)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# 10**(10**6) alone takes 415 kB; each token below is refused, or read as 0,
# without building it.
def test_parse_ratio_refuses_long_exponents_before_building_them():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter prints ints of any length")
    for token in ("1e1000000", "-1e1000000", "1e-1000000", "-7.5e-1000000", "12_3.4E+1_000_000"):
        message, peak = _parsed_with_peak(cs.parse_ratio, token, "field")
        assert message == f"field: more than {limit} digits in numerator or denominator"
        assert peak < 50_000
    for token in ("0e1000000", "-0.000e-1000000", "0_0.0E1000000"):
        value, peak = _parsed_with_peak(cs.parse_ratio, token)
        assert value == 0 and peak < 50_000


def test_parse_instance_refuses_long_bare_numbers_with_context():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        pytest.skip("this interpreter prints ints of any length")
    for number in ("-1e1000000", "-" + "1" * (limit + 1), "-1." + "5" * (limit + 1)):
        doc = f'{{"agents": [{{"share": "1", "values": [-1, {number}]}}]}}'
        message, peak = _parsed_with_peak(cs.parse_instance, doc)
        assert message == f"agent 0 value 1: more than {limit} digits in numerator or denominator"
        assert peak < 100_000
    doc = '{"agents": [{"share": 1, "values": [-0.5, -1, 0e1000000, -2E-1]}]}'
    assert cs.parse_instance(doc).values == ((F(-1, 2), F(-1), F(0), F(-1, 5)),)


def test_parse_errors_carry_context():
    with pytest.raises(cs.ParseError, match="agent 1 share"):
        cs.parse_instance(
            '{"agents": [{"share": "1/2", "values": []}, {"share": "1/0", "values": []}]}'
        )
    with pytest.raises(cs.ParseError, match="agent 0 value 1"):
        cs.parse_instance('{"agents": [{"share": "1", "values": ["-1", "oops"]}]}')
    with pytest.raises(cs.ParseError, match="agent 0 share: expected a rational"):
        cs.parse_instance('{"agents": [{"share": true, "values": [false, -1]}]}')
    with pytest.raises(cs.ParseError, match="agent 0 value 1: expected a rational"):
        cs.parse_instance('{"agents": [{"share": "1", "values": [-1, false]}]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json at all",
        "[]",
        '{"agents": []}',
        '{"agents": [{"share": "1/2"}]}',
        '{"agents": [{"share": "1", "values": "-1"}]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(cs.ParseError):
        cs.parse_instance(text)


def test_serialized_form_is_canonical(table2):
    doc = json.loads(cs.serialize_instance(table2))
    assert doc == {
        "agents": [
            {"share": "3/4", "values": ["-3/4", "-1/4"]},
            {"share": "1/4", "values": ["-1/2", "-1/2"]},
        ]
    }


def test_file_round_trip(tmp_path, table1):
    path = tmp_path / "inst.json"
    cs.save_instance(table1, path)
    assert cs.load_instance(path) == table1
