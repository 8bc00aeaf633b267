"""The integral cubic that the example pipeline reads, with its parser and printer.

The example pipeline works on the integral scaling
F = c3 t^3 + c2 t^2 + c1 t + c0 of a rational cubic f = lambda F, with no
Fraction elimination: its discriminant is a closed form, and its rational
roots are u/c3 for the integer roots u of the monic cubic
u^3 + c2 u^2 + c1 c3 u + c0 c3^2, found by exact bisection between its
critical points, with no factoring.  :func:`integral_cubic` builds the
record of f once, with F's coefficients, lambda and disc F, and every stage
of one example reads its fields.  An example request keeps its rationals
in integers: :func:`parse_rational` builds each Fraction from the digits
it has checked, ``integral_cubic`` keeps the Fractions it is given, a
shift enters the pipeline as its numerator and denominator, and the
general-position values are formed as Fractions only when read.  The
Sylvester-matrix resultant and discriminant, the rational-root-theorem
listing and the polynomial arithmetic they run on are the second route,
in ``tests/oracles.py``; ``tests/test_ratpoly.py`` and
``tests/test_qexamples.py`` compare the two.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import NamedTuple

from .errors import WrongDegree


def parse_rational(text: str) -> Fraction:
    """ASCII digits after an optional '-', with at most one '/' or '.', as a Fraction.

    Each side of a '/' holds at least one digit.  ``Fraction`` also reads
    '_', blanks, '+' and any Unicode digit.  Exponent notation is named in
    its error: a few characters such as '1e999999999' denote a
    billion-digit integer, so the work would not follow the text.  The
    validated digit strings become integers as ``Fraction(text)`` converts
    them: the numerator and the denominator, or the whole and the decimal
    part, one at a time, so each meets ``int``'s 4300-digit limit alone and
    a refusal reads as that text's would.
    """
    if "e" in text.lower():
        raise ValueError(f"exponent notation in {text!r}: write an integer, a decimal or p/q")
    negative = text.startswith("-")
    body = text[1:] if negative else text
    ratio = "/" in body
    if ratio:
        whole, _, part = body.partition("/")
        sides = (whole, part)
    else:
        whole, _, part = body.partition(".")
        sides = (whole + part,)
    if not all(side.isascii() and side.isdigit() for side in sides):
        raise ValueError(f"not a decimal rational: {text!r}")
    if ratio:
        numerator, denominator = int(whole), int(part)
        if not denominator:
            raise ValueError(f"zero denominator in {text!r}")
    else:
        denominator = 10 ** len(part)
        numerator = int(whole or "0") * denominator + int(part or "0")
    return Fraction(-numerator if negative else numerator, denominator)


def parse_coefficients(text: str) -> tuple[Fraction, ...]:
    """Comma-separated rationals, ascending degree; '-2,-2,1,1' is t^3+t^2-2t-2.

    An empty field raises ValueError: skipping it would shift every later degree.
    """
    parts = [p.strip() for p in text.replace("−", "-").split(",")]
    for k, part in enumerate(parts):
        if not part:
            raise ValueError(f"empty coefficient field {k + 1} (of t^{k}) in {text!r}")
    return tuple(map(parse_rational, parts))


class IntegralCubic(NamedTuple):
    """A rational cubic f = scale * (c3 t^3 + c2 t^2 + c1 t + c0), the c_k coprime integers.

    ``coefficients`` are f's own, ascending, with no trailing zeros, for
    printing; ``integral`` is (c0, c1, c2, c3) and ``disc`` is disc F.
    """

    coefficients: tuple[Fraction, ...]
    integral: tuple[int, int, int, int]
    scale: Fraction
    disc: int


def integral_cubic(coefficients) -> IntegralCubic:
    """The record of the polynomial with these coefficients, ascending in degree.

    Trailing zeros are dropped; anything but a cubic raises WrongDegree.
    """
    coeffs = tuple(c if isinstance(c, Fraction) else Fraction(c) for c in coefficients)
    while coeffs and not coeffs[-1]:
        coeffs = coeffs[:-1]
    if len(coeffs) != 4:
        raise WrongDegree("expected a cubic polynomial")
    denom = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (denom // c.denominator) for c in coeffs]
    content = gcd(*ints)
    c = tuple(x // content for x in ints)
    return IntegralCubic(coeffs, c, Fraction(content, denom), cubic_discriminant(*c))


def cubic_text(f: IntegralCubic) -> str:
    """f in descending degree, as 't^3 + t^2 - 2t - 2'."""
    terms = []
    for k in range(3, -1, -1):
        c = f.coefficients[k]
        if c:
            mag = "" if abs(c) == 1 and k else str(abs(c))
            term = mag + ("", "t", "t^2", "t^3")[k]
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
    "IntegralCubic",
    "cubic_discriminant",
    "cubic_text",
    "integral_cubic",
    "monic_cubic_integer_roots",
    "parse_coefficients",
    "parse_rational",
]
