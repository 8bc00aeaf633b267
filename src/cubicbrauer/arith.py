"""Small exact integer utilities: factorization, square classes, primality.

One trial-division loop, up to B = ``TRIAL_DIVISION_BOUND``, serves
:func:`factorint` and :func:`squarefree_part`; it stops early once the
divisor f has f^k above the cofactor left.  Every prime below f is then
divided out, so the cofactor has fewer than k prime factors.
:func:`factorint` stops at k = 2, where the cofactor is 1 or p.
:func:`squarefree_part` stops at k = 3, where it is 1, p, p^2 or p*q:
squarefree unless a perfect square.  That holds as well for a cofactor
below B^3 = 10^18 that trial division up to B left.  A Miller-Rabin test
to twelve fixed bases decides larger cofactors, and prime powers without
factoring; it proves primality only below 3.2 * 10^23.  Square-class
decisions are ``isqrt`` tests; only a printed representative is factored,
once per input (a boundary's d, a cubic's Galois-type d).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, isqrt

from .errors import TooLarge

TRIAL_DIVISION_BOUND = 10**6

# The primes up to 37: no composite n < 318665857834031151167461 is a strong
# pseudoprime to all of them (Sorenson and Webster, Math. Comp. 2017), and that
# n, 399165290221 * 798330580441, is.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def decimal_integer(text: str) -> int:
    """ASCII digits after an optional '-' (int() also reads '_', blanks, '+', any digits)."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the bases in ``_MR_WITNESSES``, for n of any size.

    A proof of primality for n < 318665857834031151167461 (about
    3.2 * 10^23).  Above that it is a strong probable-prime test: a
    composite that is a strong pseudoprime to all twelve bases passes.
    ``factorint`` and ``squarefree_part`` call it on trial-division
    cofactors of any size.
    """
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


def _trial_divide(n: int, k: int) -> tuple[dict[int, int], int]:
    """Prime factors of |n| up to ``TRIAL_DIVISION_BOUND``, and the cofactor left.

    The loop stops early once the divisor f has f^k above what is left.  Every
    prime below f is divided out by then, so the cofactor is a product of
    fewer than k primes: 1 or p for k = 2, and 1, p, p^2 or p*q for k = 3.
    """
    n = abs(n)
    small: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            small[p] = small.get(p, 0) + 1
            n //= p
    f, stop = 5, min(_integer_root(n, k), TRIAL_DIVISION_BOUND)
    while f <= stop:  # f^k <= n; the root is taken again only after a division
        for p in (f, f + 2):
            if n % p == 0:
                while n % p == 0:
                    small[p] = small.get(p, 0) + 1
                    n //= p
                stop = min(_integer_root(n, k), TRIAL_DIVISION_BOUND)
        f += 6
    return small, n


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for group orders and coefficients.

    The cofactor left by trial division up to ``TRIAL_DIVISION_BOUND`` is
    kept when it is 1 or passes :func:`is_probable_prime`; any other
    cofactor raises :class:`TooLarge` instead of trial-dividing on towards
    its square root.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    out, rest = _trial_divide(n, 2)
    if rest > 1:
        if not is_probable_prime(rest):
            raise TooLarge(
                f"cannot factor {rest}: it has no prime factor up to {TRIAL_DIVISION_BOUND}"
            )
        out[rest] = 1
    return out


def is_perfect_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def squarefree_part(q: int | Fraction) -> int:
    """The squarefree integer in the square class of a nonzero rational.

    This is the one square-class routine that factors; call it only for a
    representative that is printed.  Trial division stops at the divisor f
    with f^3 above the cofactor c left, or past B = ``TRIAL_DIVISION_BOUND``.
    The cofactor is dropped when it is a perfect square and kept otherwise,
    which is exact when c < f^3 or c < B^3 (then c is p, p^2 or p*q) or c
    is squarefree.  A non-square c >= B^3 is kept when it passes
    :func:`is_probable_prime`, which proves it prime only below about
    3.2 * 10^23; above that a composite strong pseudoprime is kept too, and
    the result is wrong only if the square of a prime divides it.  Any other
    non-square c >= B^3 raises :class:`TooLarge`.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no square class")
    small, rest = _trial_divide(q.numerator * q.denominator, 3)
    part = -1 if q < 0 else 1
    for p, e in small.items():
        if e % 2:
            part *= p
    if not is_perfect_square(rest):
        if rest >= TRIAL_DIVISION_BOUND**3 and not is_probable_prime(rest):
            raise TooLarge(
                f"cannot find the square class of {q}: cofactor {rest} has no prime "
                f"factor up to {TRIAL_DIVISION_BOUND} and is at least {TRIAL_DIVISION_BOUND}^3"
            )
        part *= rest
    return part


def is_rational_square(q: int | Fraction) -> bool:
    """Whether q is the square of a rational: numerator and denominator are squares."""
    q = Fraction(q)
    return is_perfect_square(q.numerator) and is_perfect_square(q.denominator)


def _integer_root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 1, by Newton's method on integers."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n ** (1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


_FACTORIAL_999 = factorial(999)  # n is prime to it exactly when no prime below 1000 divides n


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, k >= 1, or None; n is never factored.

    The least divisor f > 1 of n is prime, so one below 1000 decides n.  Else
    n is a q-th power only for 1000^q <= n: those prime q are tried, n taking
    its q-th root while that is exact, and what is left is tested for primality.
    """
    if n < 2:
        return None
    if gcd(n, _FACTORIAL_999) > 1:
        f = next((f for f in range(2, isqrt(n) + 1) if n % f == 0), n)  # the least, a prime
        k = 0
        while n % f == 0:
            n, k = n // f, k + 1
        return (f, k) if n == 1 else None
    k, q = 1, 2
    while 1000**q <= n:
        root = _integer_root(n, q)
        if root**q == n:
            n, k = root, k * q
        else:
            q = next(r for r in range(q + 1, 2 * q + 1) if is_probable_prime(r))  # Bertrand
    return (n, k) if is_probable_prime(n) else None


__all__ = [
    "decimal_integer",
    "factorint",
    "is_perfect_square",
    "is_probable_prime",
    "is_rational_square",
    "prime_power",
    "squarefree_part",
]
