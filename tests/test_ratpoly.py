"""The integral-cubic record, its parser and printer; the oracles' polynomial arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from oracles import RationalPoly, discriminant, rational_roots, resultant

from cubicbrauer.errors import WrongDegree
from cubicbrauer.ratpoly import (
    cubic_discriminant,
    cubic_text,
    integral_cubic,
    parse_coefficients,
    parse_rational,
)

P = RationalPoly


def test_parse_ascending():
    assert parse_coefficients("-2,-2,1,1") == (-2, -2, 1, 1)
    assert parse_coefficients(" 1/2, -3 ") == (Fraction(1, 2), -3)
    assert parse_coefficients("1.,.5,\u22120.25") == (1, Fraction(1, 2), Fraction(-1, 4))
    assert parse_coefficients("1,0,0") == (1, 0, 0)  # trailing zeros are kept as read


@pytest.mark.parametrize("text, field", [("1,,1,1,1", 2), ("1,1,1,1,", 5), (" ,1,1,1", 1), ("", 1)])
def test_parse_refuses_an_empty_field(text, field):
    """Skipping an empty field would shift every later coefficient down a degree."""
    with pytest.raises(ValueError, match=f"empty coefficient field {field} "):
        parse_coefficients(text)


@pytest.mark.parametrize("text", ["1e3", "2E-3", "1/2e1"])
def test_parse_names_exponent_notation(text):
    with pytest.raises(ValueError, match="exponent notation"):
        parse_coefficients(f"1,{text},0,1")
    with pytest.raises(ValueError, match="exponent notation"):
        parse_rational(text)


_LONG = "9" * 4300  # int()'s default limit on the digits of one string


@pytest.mark.parametrize(
    "text",
    ["0", "-0", "007", "1.", ".5", "-.5", "0.000", "3/6", "-0/5", "-12/18", "2.50", "-3",
     _LONG, f"-{_LONG}/7", f"1/{_LONG}", f"0.{_LONG}", f"{_LONG}.{_LONG}", f"-.{_LONG}"],
    ids=lambda text: text if len(text) < 20 else f"{text[:8]}..({len(text)} chars)",
)
def test_parse_rational_reads_as_fraction_does(text):
    value = parse_rational(text)
    assert type(value) is Fraction and value == Fraction(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1/0", "zero denominator in '1/0'"),
        ("0/0", "zero denominator in '0/0'"),
        ("-0/00", "zero denominator in '-0/00'"),
        ("1e5", "exponent notation in '1e5': write an integer, a decimal or p/q"),
        ("1E5", "exponent notation in '1E5': write an integer, a decimal or p/q"),
        ("--1", "not a decimal rational: '--1'"),
        ("1/-2", "not a decimal rational: '1/-2'"),
        ("1_000", "not a decimal rational: '1_000'"),
        (" 1", "not a decimal rational: ' 1'"),
        ("+1", "not a decimal rational: '+1'"),
        ("١", "not a decimal rational: '١'"),
        ("", "not a decimal rational: ''"),
        ("-", "not a decimal rational: '-'"),
        (".", "not a decimal rational: '.'"),
        ("1/", "not a decimal rational: '1/'"),
        ("/2", "not a decimal rational: '/2'"),
        ("1/2/3", "not a decimal rational: '1/2/3'"),
        ("1.2.3", "not a decimal rational: '1.2.3'"),
        ("1.5/2", "not a decimal rational: '1.5/2'"),
    ],
)
def test_parse_rational_refusals(text, message):
    with pytest.raises(ValueError) as refused:
        parse_rational(text)
    assert str(refused.value) == message


@pytest.mark.parametrize(
    "text", [f"{_LONG}1", f"-{_LONG}1/3", f"3/{_LONG}1", f"{_LONG}1/0", f"1.{_LONG}1", f"{_LONG}1.5"],
    ids=["numerator", "signed", "denominator", "before-zero", "decimal", "whole"],
)
def test_parse_rational_keeps_the_digit_limit_of_fraction(text):
    """A part over 4300 digits is refused with the text ``Fraction(text)`` gives."""
    with pytest.raises(ValueError) as ours:
        parse_rational(text)
    with pytest.raises(ValueError) as theirs:
        Fraction(text)
    assert str(ours.value) == str(theirs.value)
    assert "4300" in str(ours.value)


def test_integral_cubic_fields():
    f = integral_cubic(parse_coefficients("1/2,-3/4,0,-5/6,0,0"))
    assert f.coefficients == (Fraction(1, 2), Fraction(-3, 4), 0, Fraction(-5, 6))
    assert f.integral == (6, -9, 0, -10)  # f = (1/12) F
    assert f.scale == Fraction(1, 12)
    assert f.disc == cubic_discriminant(6, -9, 0, -10)
    assert all(c == f.scale * k for c, k in zip(f.coefficients, f.integral))


@pytest.mark.parametrize("coefficients", [(), (0, 0, 0, 0), (1, 1), (1, 0, 1, 0, 1), (0, 0, 0, 0, 0)])
def test_integral_cubic_refuses_other_degrees(coefficients):
    with pytest.raises(WrongDegree, match="expected a cubic polynomial"):
        integral_cubic(coefficients)


@pytest.mark.parametrize(
    "text, printed",
    [
        ("-2,-2,1,1", "t^3 + t^2 - 2t - 2"),
        ("-2,-2,1,1,0,0", "t^3 + t^2 - 2t - 2"),
        ("0,0,0,-1", "- t^3"),
        ("1/2,0,-3,\u22127/2", "- 7/2t^3 - 3t^2 + 1/2"),
        ("0,-1,1,2", "2t^3 + t^2 - t"),
        ("1.5,1,0,1", "t^3 + t + 3/2"),
    ],
)
def test_cubic_text(text, printed):
    assert cubic_text(integral_cubic(parse_coefficients(text))) == printed


def test_arithmetic():
    f = P([1, 1])  # 1 + t
    g = P([-2, 0, 1])  # t^2 - 2
    assert (f * g).coefficients == (-2, -2, 1, 1)
    assert (f + g).coefficients == (-1, 1, 1)
    assert f(3) == 4
    assert g(Fraction(1, 2)) == Fraction(-7, 4)


def test_shift():
    f = P([0, 0, 0, 1])  # t^3
    shifted = f.shift(1)  # (t-1)^3
    assert shifted.coefficients == (-1, 3, -3, 1)
    g = P([-2, -2, 1, 1])
    # roots of g(t - a) are roots of g shifted by +a
    for root in (-1,):
        assert g.shift(2)(root + 2) == 0


def test_divmod():
    f = P([-2, -2, 1, 1])
    q, r = f.divmod(P([1, 1]))
    assert r.is_zero() and q.coefficients == (-2, 0, 1)


def test_derivative():
    f = P([5, 0, 3, 2])
    assert f.derivative().coefficients == (0, 6, 6)


def test_resultant_known_values():
    # Res(f, g) = lc(f)^deg g * prod of g over the roots of f
    f = P([-1, 0, 1])  # (t-1)(t+1)
    g = P([-2, 1])  # t - 2
    assert resultant(f, g) == g(1) * g(-1) == 3
    assert resultant(f, f) == 0
    # shared root detection: t^2 - 2 and (t^2 - 2)(t + 1)
    assert resultant(P([-2, 0, 1]), P([-2, -2, 1, 1])) == 0


def test_discriminant_quadratic_and_cubic():
    assert discriminant(P([Fraction(-7), Fraction(2), Fraction(1)])) == 4 + 28
    # disc(t^3 + pt + q) = -4p^3 - 27q^2
    for p_, q_ in ((1, 1), (-2, 3), (0, -1)):
        f = P([q_, p_, 0, 1])
        assert discriminant(f) == -4 * p_**3 - 27 * q_**2
    assert discriminant(P([-1, -2, 1, 1])) == 49  # square: cyclic cubic


def test_rational_roots():
    assert rational_roots(P([-2, -2, 1, 1])) == [-1]
    assert rational_roots(P([0, 0, 1])) == [0, 0]
    assert sorted(rational_roots(P([6, -5, 1]))) == [2, 3]
    assert rational_roots(P([Fraction(1), Fraction(1)])) == [-1]
    assert rational_roots(P([1, 0, 1])) == []
    # non-monic with fractional root
    assert rational_roots(P([-1, 2])) == [Fraction(1, 2)]


def test_integer_scaled():
    f = P([Fraction(1, 2), Fraction(3, 4)])
    assert f.integer_scaled() == (2, 3)
