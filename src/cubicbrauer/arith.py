"""Small exact integer utilities: factorization, square classes, primality.

One trial-division kernel, up to B = ``TRIAL_DIVISION_BOUND``, serves
:func:`factorint`, :func:`squarefree_part` and :func:`prime_power`.  The
primes from 5 to B fall into blocks of 1000 integers, and the product of
each block's primes is built from a sieve on first need and kept.  One gcd
of n with a block's product tells whether any prime of the block divides
n; only then are the block's candidates tried, and only the primes of that
gcd divide n.  The blocks are taken in increasing order, and the division
stops early once the divisor f has f^k above the cofactor left.  Every
prime below f is then divided out, so the cofactor has fewer than k prime
factors.  :func:`factorint` stops at k = 2, where the cofactor is 1 or p,
and so is a cofactor up to B^2 = 10^12 that trial division up to B left:
neither needs a primality test.  :func:`squarefree_part` stops at k = 3,
where it is 1, p, p^2 or p*q:
squarefree unless a perfect square.  That holds as well for a cofactor
below B^3 = 10^18 that trial division up to B left.  A Miller-Rabin test
to twelve fixed bases decides larger cofactors, and prime powers without
factoring; it proves primality only below 3.2 * 10^23.  Square-class
decisions are ``isqrt`` tests; only a printed representative is factored,
once per input (a boundary's d, a cubic's Galois-type d).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, prod
from threading import Lock

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


# The primes p >= 5 up to B = TRIAL_DIVISION_BOUND, in blocks of _BLOCK
# integers: block j holds those with j * _BLOCK <= p < (j + 1) * _BLOCK.  Both
# caches are empty at import and grow under _GROWING: _SIEVE[i] is 1 exactly
# when i is prime, for 2 <= i < len(_SIEVE), and _BLOCK_PRODUCTS[j] is the
# product of block j's primes.  So 6 times block 0's product is the product of
# the primes below 1000.
_BLOCK = 1000
_SIEVE = bytearray()
_BLOCK_PRODUCTS: list[int] = []
_GROWING = Lock()


def _grow_sieve(size: int) -> None:
    """Extend ``_SIEVE`` to at least ``size`` entries; at most doubling it, up to B + 1.

    Only the new entries are sieved, by the primes up to the square root of
    the new length, which all lie in the old part once it has 1000 entries.
    """
    old = len(_SIEVE)
    new = min(max(size, 2 * old, _BLOCK), TRIAL_DIVISION_BOUND + 1)
    segment = bytearray(b"\x01") * (new - old)
    for p in range(2, isqrt(new - 1) + 1):
        if _SIEVE[p] if p < old else segment[p - old]:
            start = max(p * p, -(-old // p) * p) - old
            segment[start::p] = bytes(len(range(start, new - old, p)))
    _SIEVE.extend(segment)


def _block_product(j: int) -> int:
    """The product of the primes of block j; blocks up to j are built on first need."""
    if j >= len(_BLOCK_PRODUCTS):
        with _GROWING:
            while j >= (i := len(_BLOCK_PRODUCTS)):
                lo, hi = max(5, i * _BLOCK), min((i + 1) * _BLOCK, TRIAL_DIVISION_BOUND + 1)
                if len(_SIEVE) < hi:
                    _grow_sieve(hi)
                a, b = lo + (1 - lo) % 6, lo + (5 - lo) % 6  # the first 6m + 1 and 6m + 5
                _BLOCK_PRODUCTS.append(
                    prod(compress(range(a, hi, 6), _SIEVE[a:hi:6]))
                    * prod(compress(range(b, hi, 6), _SIEVE[b:hi:6]))
                )
    return _BLOCK_PRODUCTS[j]


def _trial_divide(n: int, k: int) -> tuple[dict[int, int], int]:
    """Prime factors of |n| up to ``TRIAL_DIVISION_BOUND``, and the cofactor left.

    2 and 3 are divided out first.  Then the blocks of ``_block_product`` are
    taken in increasing order while the divisor f has f^k at most what is
    left.  One gcd g with a block's product tells whether any prime of the
    block divides n.  Only then is the block scanned, its odd f in increasing
    order, for the primes of g; once g < f^2, g itself is the last of them.
    Every prime below f is divided out by then, so the cofactor is a product
    of fewer than k primes: 1 or p for k = 2, and 1, p, p^2 or p*q for k = 3.
    A prime of g above the final f may be divided out too, which changes the
    split between the two results but not what the callers return.
    """
    n = abs(n)
    small: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            small[p] = small.get(p, 0) + 1
            n //= p
    stop = min(_integer_root(n, k), TRIAL_DIVISION_BOUND)
    j, lo = 0, 5
    while lo <= stop:  # f^k <= n; the root is taken again only after a division
        g, f = gcd(n, _block_product(j)), lo | 1
        while g > 1 and f <= stop:
            if g < f * f:
                f = g  # every prime factor of g is at least f, so g is a prime
            if g % f == 0:  # a prime: the primes of a composite f are no longer in g
                g //= f
                while n % f == 0:
                    small[f] = small.get(f, 0) + 1
                    n //= f
                stop = min(_integer_root(n, k), TRIAL_DIVISION_BOUND)
            f += 2
        j += 1
        lo = j * _BLOCK
    return small, n


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division, for group orders and coefficients.

    Trial division up to ``TRIAL_DIVISION_BOUND`` = B leaves a cofactor
    with no prime factor up to its square root or B.  So a cofactor of at
    most B^2 is 1 or a prime, and is kept with no further test.  A larger
    one is kept when it passes :func:`is_probable_prime`; any other
    cofactor raises :class:`TooLarge` instead of trial-dividing on towards
    its square root.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    out, rest = _trial_divide(n, 2)
    if rest > 1:
        if rest > TRIAL_DIVISION_BOUND**2 and not is_probable_prime(rest):
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
    representative that is printed.  Trial division, by one gcd per block of
    primes, stops at the divisor f with f^3 above the cofactor c left, or
    past B = ``TRIAL_DIVISION_BOUND``.
    The cofactor is dropped when it is a perfect square and kept otherwise,
    which is exact when c < f^3 or c < B^3 (then c is p, p^2 or p*q) or c
    is squarefree.  A non-square c >= B^3 is kept when it passes
    :func:`is_probable_prime`, which proves it prime only below about
    3.2 * 10^23; above that a composite strong pseudoprime is kept too, and
    the result is wrong only if the square of a prime divides it.  Any other
    non-square c >= B^3 raises :class:`TooLarge`.  An int or a Fraction is
    read as it is, with no new Fraction built.
    """
    if not isinstance(q, (int, Fraction)):
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


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p**k, k >= 1, or None; n is never factored.

    The least divisor f > 1 of n is prime, so one below 1000 decides n.  An n
    below 1000 is searched for it directly; a larger n first takes one gcd
    with the product of the primes below 1000.  Else n is a q-th power only
    for 1000^q <= n: those prime q are tried, n taking its q-th root while
    that is exact, and what is left is tested for primality.
    """
    if n < 2:
        return None
    if n < 1000 or gcd(n, 6 * _block_product(0)) > 1:  # 6 * block 0: the primes below 1000
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
