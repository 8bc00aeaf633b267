"""Primality and square classes."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from cubicbrauer.arith import is_probable_prime, is_rational_square, squarefree_part


def test_is_probable_prime_matches_sieve():
    limit = 2000
    sieve = bytearray([1]) * limit
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, limit, p)))
    for n in range(limit):
        assert is_probable_prime(n) == bool(sieve[n]), n


def test_squarefree_part_with_a_witness_prime_cofactor():
    assert squarefree_part(17) == 17
    assert squarefree_part(34) == 34
    assert squarefree_part(-148) == -37  # -4 * 37
    assert squarefree_part(Fraction(17, 4)) == 17
    assert not is_rational_square(37)
