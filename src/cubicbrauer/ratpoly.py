"""Exact univariate polynomials over Q, and closed forms for integral cubics.

Coefficients are ``fractions.Fraction`` in ascending degree; products,
shifts and divisions are exact.  The example pipeline works on the
integral scaling c3 t^3 + c2 t^2 + c1 t + c0 of a cubic instead, with no
Fraction elimination: its discriminant is a closed form, and its rational
roots are u/c3 for the integer roots u of the monic cubic
u^3 + c2 u^2 + c1 c3 u + c0 c3^2, found by exact bisection between its
critical points, with no factoring.  ``qexamples`` builds that scaling
once per polynomial and keeps it, with the scale and the discriminant, in
the ``_integral`` slot of the ``RationalPoly``: a cache, like
``IntMatrix._det``, that equality, hashing, pickles and the repr ignore.
The Sylvester-matrix resultant and discriminant and the rational-root-
theorem listing are the second route, in ``tests/oracles.py``;
``tests/test_ratpoly.py`` compares the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .values import Value


def parse_rational(text: str) -> Fraction:
    """ASCII digits after an optional '-', with at most one '/' or '.', as a Fraction.

    ``Fraction`` also reads '_', blanks, '+' and any Unicode digit.  Exponent
    notation is named in its error: a few characters such as '1e999999999'
    denote a billion-digit integer, so the work would not follow the text.
    """
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}: write an integer, a decimal or p/q")
    body = text[1:] if text.startswith("-") else text
    digits = body.replace("/" if "/" in body else ".", "", 1)
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


class RationalPoly(Value):
    """An immutable polynomial; ``coefficients`` ascend in degree, with no trailing zeros.

    ``_integral`` is a cache slot that ``qexamples`` fills with a cubic's
    integral form, so every stage of one example reads the same one.
    """

    __slots__ = ("coefficients", "_integral")

    def __init__(self, coefficients):
        coeffs = tuple(c if type(c) is Fraction else Fraction(c) for c in coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def zero(cls) -> RationalPoly:
        return cls(())

    @classmethod
    def parse(cls, text: str) -> RationalPoly:
        """Comma-separated rationals, ascending degree; '-2,-2,1,1' is t^3+t^2-2t-2.

        An empty field raises ValueError: skipping it would shift every later degree.
        """
        parts = [p.strip() for p in text.replace("−", "-").split(",")]
        for k, part in enumerate(parts):
            if not part:
                raise ValueError(f"empty coefficient field {k + 1} (of t^{k}) in {text!r}")
        return cls(parse_rational(p) for p in parts)

    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def degree(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no degree")
        return len(self.coefficients) - 1

    def coeff(self, k: int) -> Fraction:
        return self.coefficients[k] if k < len(self.coefficients) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self.coefficients[-1]

    def __add__(self, other: RationalPoly) -> RationalPoly:
        n = max(len(self.coefficients), len(other.coefficients))
        return RationalPoly(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __mul__(self, other: RationalPoly) -> RationalPoly:
        if self.is_zero() or other.is_zero():
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return RationalPoly(tuple(out))

    def scaled(self, c) -> RationalPoly:
        c = Fraction(c)
        return RationalPoly(tuple(c * x for x in self.coefficients))

    def monic(self) -> RationalPoly:
        return self.scaled(1 / self.leading)

    def __call__(self, x) -> Fraction:
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> RationalPoly:
        return RationalPoly(tuple(k * c for k, c in enumerate(self.coefficients) if k))

    def shift(self, a) -> RationalPoly:
        """The polynomial t -> self(t - a)."""
        a = Fraction(a)
        # Horner in the ring Q[t]: f(t-a) built from highest coefficient down.
        acc = RationalPoly.zero()
        t_minus_a = RationalPoly((-a, Fraction(1)))
        for c in reversed(self.coefficients):
            acc = acc * t_minus_a + RationalPoly((c,))
        return acc

    def divmod(self, other: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        q = [Fraction(0)] * max(len(rem) - len(other.coefficients) + 1, 0)
        d = other.degree
        lead = other.leading
        while len(rem) - 1 >= d and any(rem):
            k = len(rem) - 1
            if rem[k] == 0:
                rem.pop()
                continue
            factor = rem[k] / lead
            q[k - d] = factor
            for i, c in enumerate(other.coefficients):
                rem[k - d + i] -= factor * c
            rem.pop()
        return RationalPoly(tuple(q)), RationalPoly(tuple(rem))

    def __floordiv__(self, other: RationalPoly) -> RationalPoly:
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def integer_scaled(self) -> tuple[int, ...]:
        """Integer coefficient vector with content cleared (same roots)."""
        if self.is_zero():
            return ()
        denom = lcm(*(c.denominator for c in self.coefficients))
        ints = [c.numerator * (denom // c.denominator) for c in self.coefficients]
        g = 0
        for x in ints:
            g = gcd(g, x)
        return tuple(x // g for x in ints)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeff(k)
            if c == 0:
                continue
            mag = abs(c)
            body = "" if (mag == 1 and k > 0) else str(mag)
            if k == 0:
                term = str(mag)
            elif k == 1:
                term = f"{body}t"
            else:
                term = f"{body}t^{k}"
            terms.append(("- " if c < 0 else "+ " if terms else "") + term)
        return " ".join(terms)


def cubic_discriminant(c0: int, c1: int, c2: int, c3: int) -> int:
    """disc(c3 t^3 + c2 t^2 + c1 t + c0) = c3^4 prod_{i<j} (r_i - r_j)^2, in closed form."""
    return (
        c2 * c2 * c1 * c1 - 4 * c3 * c1**3 - 4 * c2**3 * c0 - 27 * c3 * c3 * c0 * c0
        + 18 * c3 * c2 * c1 * c0
    )


def monic_cubic_integer_roots(b2: int, b1: int, b0: int) -> list[int]:
    """The distinct integer roots of g(u) = u^3 + b2 u^2 + b1 u + b0, ascending.

    g' = 3u^2 + 2 b2 u + b1 vanishes at (-b2 -+ sqrt(D0))/3, D0 = b2^2 - 3 b1.
    When D0 > 0, g increases on the integers up to the floor of the first,
    decreases up to the floor of the second and increases after it; both
    floors follow from s = isqrt(D0).  Otherwise g increases everywhere.
    Every real root lies within the Cauchy bound 1 + max |b_k|, so each
    monotone piece holds at most one root, found by exact bisection.
    """

    def g(u: int) -> int:
        return ((u + b2) * u + b1) * u + b0

    bound = 1 + max(abs(b2), abs(b1), abs(b0))
    d0 = b2 * b2 - 3 * b1
    if d0 > 0:
        s = isqrt(d0)
        # -sqrt(D0) lies in (-s - 1, -s) unless D0 is a perfect square
        low = (-b2 - s - (s * s != d0)) // 3
        high = (-b2 + s) // 3
        pieces = ((-bound, low, 1), (low + 1, high, -1), (high + 1, bound, 1))
    else:
        pieces = ((-bound, bound, 1),)
    roots = []
    for lo, hi, sign in pieces:
        if lo > hi or sign * g(lo) > 0 or sign * g(hi) < 0:
            continue
        while lo < hi:  # the least u in [lo, hi] with sign * g(u) >= 0
            mid = (lo + hi) // 2
            if sign * g(mid) >= 0:
                hi = mid
            else:
                lo = mid + 1
        if g(lo) == 0:
            roots.append(lo)
    return roots


__all__ = [
    "RationalPoly",
    "cubic_discriminant",
    "monic_cubic_integer_roots",
    "parse_rational",
]
