"""Exact-scalar invariants: parsing, canonical rendering, signed squares."""

from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opfold import NotPositiveDefinite, SignedSquare, as_fraction, rat_str

rationals = st.fractions(
    min_value=-(10**6), max_value=10**6, max_denominator=10**4
)


@given(rationals)
def test_always_reduced_with_positive_denominator(q):
    assert q.denominator > 0
    assert gcd(abs(q.numerator), q.denominator) == 1


@given(rationals, rationals)
def test_field_arithmetic_is_exact(a, b):
    assert a + b - b == a
    assert (a + b) - (b + a) == 0
    if b != 0:
        assert (a / b) * b == a
    assert a * b == b * a


@given(rationals)
def test_render_parse_round_trip(q):
    assert as_fraction(rat_str(q)) == q


@given(rationals)
def test_render_is_decimal_free(q):
    text = rat_str(q)
    assert "." not in text and "e" not in text.lower()
    parts = text.split("/")
    assert all(part.lstrip("-").isdigit() for part in parts)


def test_rationals_past_the_int_string_limit_render_and_format_messages():
    # 7**6000 has 5,071 digits, past str(int)'s default limit of 4,300
    big = Fraction(-(7**6000), 3)
    text = rat_str(big)
    num, _, den = text.partition("/")
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == big and len(num) > 5000
    assert str(NotPositiveDefinite(3, big)) == f"nonpositive pivot at degree 3 (pivot = {text})"
    assert str(NotPositiveDefinite(3, Fraction(-2))) == "nonpositive pivot at degree 3 (pivot = -2)"


def test_rationals_past_the_int_string_limit_read_back():
    # 7**6000 has 5,071 digits: int() alone refuses to parse them
    for q in (Fraction(7**6000, 3), Fraction(-3, 7**6000), Fraction(-(7**6000))):
        assert as_fraction(rat_str(q)) == q
    digits = "_".join(["1234"] * 1500)
    assert as_fraction(f" -{digits} / 7 ") == Fraction(-int(Decimal("1234" * 1500)), 7)


_PAST_THE_LIMIT = "7" * 5000


@pytest.mark.parametrize(
    "text",
    ["1e3", "1.5", "1__0", "_1", "nan", "inf", "0x10", ""]
    + [
        _PAST_THE_LIMIT + "e3",
        _PAST_THE_LIMIT + ".5",
        _PAST_THE_LIMIT + "__0",
        "_" + _PAST_THE_LIMIT,
        _PAST_THE_LIMIT + "_",
        "0x" + _PAST_THE_LIMIT,
        "- " + _PAST_THE_LIMIT,
        "1/" + _PAST_THE_LIMIT + "e3",
    ],
    ids=lambda text: text if len(text) < 10 else f"{text[:4]}..{text[-4:]}",
)
def test_parse_keeps_the_int_grammar_at_any_length(text):
    with pytest.raises(ValueError):
        as_fraction(text)


def test_parse_accepts_ints_strings_fractions():
    assert as_fraction(7) == Fraction(7)
    assert as_fraction("7") == Fraction(7)
    assert as_fraction("-3/9") == Fraction(-1, 3)
    assert as_fraction(" 5/10 ") == Fraction(1, 2)
    assert as_fraction(Fraction(2, 4)) == Fraction(1, 2)


def test_parse_rejects_floats_and_decimals():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(ValueError):
        as_fraction("0.5")


@pytest.mark.parametrize("value", [True, False])
def test_parse_rejects_booleans(value):
    # bool is an int subclass, but a JSON true is not the number 1
    with pytest.raises(TypeError):
        as_fraction(value)


@given(rationals, st.sampled_from([-1, 1]))
def test_signed_square_realization(q, sign):
    sq = q * q
    if sq == 0:
        entry = SignedSquare(Fraction(0), 0)
        assert entry.value() == 0.0
        return
    entry = SignedSquare(sq, sign)
    val = entry.value()
    assert val.imag == 0 if not isinstance(val, complex) else True
    assert abs(abs(val) - abs(float(q))) <= 1e-12 * max(1.0, abs(float(q)))


def test_signed_square_negative_square_is_imaginary():
    entry = SignedSquare(Fraction(-4), 1)
    assert entry.value() == pytest.approx(2j)


def test_signed_square_sign_zero_consistency():
    with pytest.raises(ValueError):
        SignedSquare(Fraction(1), 0)
    with pytest.raises(ValueError):
        SignedSquare(Fraction(0), 1)
    with pytest.raises(ValueError):
        SignedSquare(Fraction(1), 2)
