"""Primality and square classes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from oracles import wheel_factorint, wheel_squarefree_part

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


def test_factorint_tests_primality_only_above_the_bound_squared(monkeypatch):
    """A cofactor up to B^2 has no prime factor up to its square root, so it is prime."""
    below, above = 999999999989, 1000000000039  # the primes next to 10^12
    assert below < TRIAL_DIVISION_BOUND**2 < above
    tested = []

    def recorded(n):
        tested.append(n)
        return is_probable_prime(n)

    monkeypatch.setattr(arith, "is_probable_prime", recorded)
    assert factorint(4 * below) == wheel_factorint(4 * below) == {2: 2, below: 1}
    assert tested == []
    assert factorint(9 * above) == wheel_factorint(9 * above) == {3: 2, above: 1}
    assert tested == [above]
    with pytest.raises(TooLarge):
        factorint(1000003 * 1000033)
    assert tested == [above, 1000003 * 1000033]


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


def _answer(route, x):
    try:
        return route(x)
    except TooLarge as exc:
        return ("TooLarge", str(exc))


def _prime_near(x, step):
    """The first prime from x on, going up (step 1) or down (step -1)."""
    while not is_probable_prime(x):
        x += step
    return x


def _assert_routes_agree(values):
    for n in values:
        for m in (n, -n):
            assert _answer(factorint, m) == _answer(wheel_factorint, m), m
            assert _answer(squarefree_part, m) == _answer(wheel_squarefree_part, m), m


def test_factorization_matches_the_wheel_below_30000():
    _assert_routes_agree(range(1, 30000))
    for q in (Fraction(n, d) for n in range(-400, 400) if n for d in (1, 2, 12, 35, 997, 4 * 1009)):
        assert squarefree_part(q) == wheel_squarefree_part(q), q


def test_factorization_matches_the_wheel_around_the_cube_root_stop():
    """For p*q the stop is below p exactly when p^2 > q, for p^2*q when p > q, and
    p^3 reaches it at p.  Each case on both sides, with q below and above the bound."""
    values = []
    for q in (10007, 1000003):
        for p in (_prime_near(isqrt(q), -1), _prime_near(isqrt(q) + 1, 1)):
            values.append(p * q)
        for p in (_prime_near(q - 1, -1), _prime_near(q + 1, 1)):
            values.append(p * p * q)
    values += [p**3 for p in (997, 1009, 10007, 999983)] + [5 * 1009**3, 1000003 * 1009**3]
    _assert_routes_agree(values)


def test_factorization_matches_the_wheel_at_and_past_the_bound():
    two_large = [1000003 * 9999991, 2 * 3 * 59 * 1999993 * 5000011]  # as in the bench
    ends = [999983, 1000003, 999983 * 1000003, 999983**2 * 1000003]
    # cofactors free of primes up to 10^6, below 10^18 and from 10^18 on
    below, above = 999999937 * 1000000007, [(10**9 + 7) * (10**9 + 9), 1000003**2 * 1000033]
    assert below < TRIAL_DIVISION_BOUND**3 <= min(above)
    _assert_routes_agree(two_large + ends + [below, *above, MERSENNE_61, 7 * MERSENNE_61**2])
    assert isinstance(_answer(squarefree_part, above[0]), tuple)  # both routes raise TooLarge


def test_import_and_tables_build_no_block():
    """Set-up, ``tables`` and a modulus below 1000 build no block of primes; a
    two-large-prime d builds blocks only up to the cube root of what is left
    once its small prime is divided out, and the sieve to at most twice that."""
    d = 59 * 1000003 * 9999991
    script = (
        "import contextlib, io, json\n"
        "from cubicbrauer import arith, cli\n"
        "sizes = [(len(arith._BLOCK_PRODUCTS), len(arith._SIEVE))]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    cli.main(['tables', '--case', '3', '--format', 'json'])\n"
        "    cli.main(['invariants', '--d', '5', '--n', '243'])\n"
        "    sizes.append((len(arith._BLOCK_PRODUCTS), len(arith._SIEVE)))\n"
        "    boundary = {'type': 'three_lines', 'galois': {'s3': %d}}\n"
        "    cli.main(['classify', '--boundary', json.dumps(boundary), '--format', 'json'])\n"
        "    sizes.append((len(arith._BLOCK_PRODUCTS), len(arith._SIEVE)))\n"
        "print(json.dumps(sizes))\n" % d
    )
    src = Path(arith.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
    )
    sizes = json.loads(proc.stdout)
    assert sizes[:2] == [[0, 0], [0, 0]]
    blocks, sieve = sizes[2]
    root = arith._integer_root(d // 59, 3)
    assert blocks == root // arith._BLOCK + 1 < arith._integer_root(d, 3) // arith._BLOCK
    assert sieve <= 2 * blocks * arith._BLOCK


def _squarefree_parts_into(d, out):
    out.extend(map(squarefree_part, d))


def test_threads_build_each_block_once(monkeypatch):
    """Threads that grow the empty caches at once leave every block in its place."""
    d = [p * q for p in (1000003, 2000003, 3000017, 9999991) for q in (5000011, 7000003)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            monkeypatch.setattr(arith, "_SIEVE", bytearray())
            monkeypatch.setattr(arith, "_BLOCK_PRODUCTS", [])
            results = [[] for _ in range(8)]
            threads = [
                threading.Thread(target=_squarefree_parts_into, args=(d, out)) for out in results
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [d] * 8
            built = arith._BLOCK_PRODUCTS
            monkeypatch.setattr(arith, "_SIEVE", bytearray())
            monkeypatch.setattr(arith, "_BLOCK_PRODUCTS", [])
            assert built == [arith._block_product(j) for j in range(len(built))]
    finally:
        sys.setswitchinterval(interval)
