"""Primality and square classes."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest

from cubicbrauer import arith
from cubicbrauer.arith import (
    TRIAL_DIVISION_BOUND,
    decimal_integer,
    factorint,
    is_probable_prime,
    is_rational_square,
    prime_power,
    squarefree_part,
)
from cubicbrauer.errors import TooLarge

MERSENNE_61 = 2**61 - 1  # prime


def test_decimal_integer_reads_ascii_digits_after_an_optional_minus():
    assert [decimal_integer(t) for t in ("0", "-0", "12", "-27", "007")] == [0, 0, 12, -27, 7]
    assert decimal_integer("9" * 400) == int("9" * 400)


@pytest.mark.parametrize(
    "text",
    ["", "-", "--1", "+5", "1_2", " 12 ", "12\n", "\u0661\u0662", "\uff12\uff10", "\u00b2", "0x10", "1.0"],
)
def test_decimal_integer_refuses_what_int_would_read_or_misread(text):
    with pytest.raises(ValueError, match="not a decimal integer"):
        decimal_integer(text)


def test_is_probable_prime_matches_sieve():
    limit = 2000
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    for n in range(limit):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_twelve_bases_pass_their_least_strong_pseudoprime():
    """The primality test is a proof only below 318665857834031151167461."""
    n = 399165290221 * 798330580441
    assert n == 318665857834031151167461
    assert is_probable_prime(n)


def test_squarefree_part_with_a_witness_prime_cofactor():
    assert squarefree_part(17) == 17
    assert squarefree_part(34) == 34
    assert squarefree_part(-148) == -37  # -4 * 37
    assert squarefree_part(Fraction(17, 4)) == 17
    assert not is_rational_square(37)


def _smallest_prime_factor(n):
    return next(p for p in range(2, n + 1) if n % p == 0)


def test_prime_power_matches_trial_division():
    for n in range(-3, 3000):
        expected = None
        if n >= 2:
            p = _smallest_prime_factor(n)
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            expected = (p, k) if m == 1 else None
        assert prime_power(n) == expected, n


def test_prime_power_of_large_numbers_without_factoring():
    big = 10**9 + 7
    assert prime_power(big) == (big, 1)
    assert prime_power(big**3) == (big, 3)
    assert prime_power(2**100) == (2, 100)
    assert prime_power(MERSENNE_61**2) == (MERSENNE_61, 2)
    assert prime_power(big * (big + 2)) is None
    assert prime_power(3 * 2**100) is None


def test_prime_power_takes_few_roots_of_a_long_modulus(monkeypatch):
    """A factor below 1000 decides n with no root; otherwise only prime q with 1000^q <= n."""
    exponents = []
    root = arith._integer_root
    monkeypatch.setattr(arith, "_integer_root", lambda n, k: exponents.append(k) or root(n, k))
    assert prime_power(10**4000) is None
    assert prime_power(2**13000) == (2, 13000)
    assert prime_power(3 * MERSENNE_61**5) is None
    assert exponents == []
    assert prime_power(1009**1300) == (1009, 1300)  # 1300 = 2^2 * 5^2 * 13
    assert exponents == [2, 2, 2, 3, 5, 5, 5, 7, 11, 13]
    exponents.clear()
    assert prime_power(MERSENNE_61**5) == (MERSENNE_61, 5)
    assert exponents == [2, 3, 5, 5]  # then 1000^7 > 2^61 - 1


def test_factorint_keeps_a_prime_cofactor():
    assert factorint(-360) == {2: 3, 3: 2, 5: 1}
    assert factorint(999983 * 999979) == {999979: 1, 999983: 1}
    assert factorint(2 * 1000003) == {2: 1, 1000003: 1}  # below the bound squared
    assert factorint(12 * MERSENNE_61) == {2: 2, 3: 1, MERSENNE_61: 1}
    assert factorint(20011 * 10000019) == {20011: 1, 10000019: 1}  # 20011 lies above the cube root


def test_factorint_refuses_a_composite_cofactor_above_the_bound():
    assert 1000003 > TRIAL_DIVISION_BOUND
    with pytest.raises(TooLarge):
        factorint(1000003 * 1000033)
    with pytest.raises(TooLarge):
        factorint(6 * (10**9 + 7) * (10**9 + 9))


def test_squarefree_part_drops_the_square_of_a_prime_above_the_bound():
    assert squarefree_part(7 * 1000003**2) == 7


def test_squarefree_part_keeps_a_product_of_two_primes_above_the_bound():
    """Below 10^18 a cofactor free of primes up to 10^6 is p, p^2 or p*q."""
    assert squarefree_part(-(5**2) * 10000019 * 10000079) == -100000980001501


def test_squarefree_part_trial_divides_to_the_cube_root_of_what_is_left():
    assert squarefree_part(20011**2 * 30011) == 30011  # 20011 is below the cube root
    # the cofactor's primes lie between its cube root and the bound
    assert squarefree_part(3 * 999983**2) == 3
    assert squarefree_part(999983 * 1000003) == 999983 * 1000003


def test_squarefree_part_keeps_a_cofactor_below_the_cube_of_the_divisor_whole(monkeypatch):
    """The cube root of 20011 * 10000019 is below 5900 and no prime up to it
    divides it, so it is p, p^2 or p*q: trial division stops short of 20011."""
    cofactors = []
    trial_divide = arith._trial_divide

    def recorded(n, k):
        small, rest = trial_divide(n, k)
        cofactors.append(rest)
        return small, rest

    monkeypatch.setattr(arith, "_trial_divide", recorded)
    assert squarefree_part(20011 * 10000019) == 20011 * 10000019
    assert cofactors == [20011 * 10000019]


def test_squarefree_part_refuses_a_composite_cofactor_from_the_bound_cubed():
    d = 1000003**2 * 1000033
    assert d >= TRIAL_DIVISION_BOUND**3
    with pytest.raises(TooLarge):
        squarefree_part(d)
    assert squarefree_part(MERSENNE_61 * 3**2) == MERSENNE_61  # a prime is decided


def test_is_rational_square_never_factors(monkeypatch):
    def refuse(n):
        raise AssertionError("is_rational_square factored")

    monkeypatch.setattr(arith, "_trial_divide", refuse)
    big = 1000003**2 * 1000033
    assert is_rational_square(Fraction(big**2, 4 * MERSENNE_61**2))
    assert is_rational_square(0)
    assert not is_rational_square(big)
    assert not is_rational_square(-(big**2))
    assert not is_rational_square(Fraction(1, 2))
