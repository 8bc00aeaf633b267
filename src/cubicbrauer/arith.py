"""Small exact integer utilities: factorization, square classes, primality.

Inputs here are desk-scale (discriminants of tiny polynomials, orders of
groups of size at most a few thousand), so trial division up to
``TRIAL_DIVISION_BOUND`` does nearly all the work; a deterministic
Miller-Rabin round decides the large cofactor it leaves, and decides prime
powers without any factoring.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import TooLarge

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin witnesses for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for the integer sizes used here."""
    if n < 2:
        return False
    # a witness that divides n would give pow(a, d, n) == 0, never 1 or n - 1
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, meant for group orders.

    Trial division runs up to ``TRIAL_DIVISION_BOUND``.  The cofactor left
    over is kept as a prime when it is below the bound squared or passes
    :func:`is_probable_prime`; any other cofactor raises :class:`TooLarge`
    instead of trial-dividing on towards its square root.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n and f <= TRIAL_DIVISION_BOUND:
        for p in (f, f + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        if f * f <= n and not is_probable_prime(n):
            raise TooLarge(
                f"cannot factor {n}: it has no prime factor up to {TRIAL_DIVISION_BOUND}"
            )
        out[n] = out.get(n, 0) + 1
    return out


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def squarefree_part(q: int | Fraction) -> int:
    """Representative of the square class of a nonzero rational.

    Trial division up to ``TRIAL_DIVISION_BOUND``; a surviving cofactor is
    handled when it is a perfect square or a prime (always enough at the
    input sizes that occur here).
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    n = q.numerator * q.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    part = 1
    p = 2
    while p <= TRIAL_DIVISION_BOUND and p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                part *= p
        p += 1 if p == 2 else 2
    if n > 1:
        if is_perfect_square(n):
            pass
        elif is_probable_prime(n):
            part *= n
        else:
            raise ValueError(f"cannot extract squarefree part of cofactor {n}")
    return sign * part


def is_rational_square(q: int | Fraction) -> bool:
    q = Fraction(q)
    if q == 0:
        return True
    return q > 0 and squarefree_part(q) == 1


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n ** (1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, k >= 1, or None.

    Tries every exponent k up to log2(n) with an integer k-th root and a
    primality test, so n is never factored.
    """
    if n < 2:
        return None
    for k in range(1, n.bit_length()):  # 2**k <= n, so the root is >= 2
        p = _integer_root(n, k)
        if p**k == n and is_probable_prime(p):
            return p, k
    return None


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def primes_dividing(n: int) -> list[int]:
    return sorted(factorint(n))


__all__ = [
    "factorint",
    "is_perfect_square",
    "is_probable_prime",
    "is_rational_square",
    "legendre",
    "prime_power",
    "primes_dividing",
    "squarefree_part",
]
