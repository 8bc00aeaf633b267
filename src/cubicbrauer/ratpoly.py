"""Exact univariate polynomials over Q.

Coefficients are ``fractions.Fraction`` in ascending degree; all the
arithmetic used downstream (products, shifts, resultants, discriminants,
gcds, rational roots) is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import factorint


def parse_rational(text: str) -> Fraction:
    """A rational such as '-3/4'; ValueError on malformed text or a zero denominator."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


@dataclass(frozen=True)
class RationalPoly:
    coefficients: tuple[Fraction, ...]  # ascending degree, no trailing zeros

    def __post_init__(self):
        coeffs = tuple(Fraction(c) for c in self.coefficients)
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_coeffs(cls, coeffs) -> RationalPoly:
        return cls(tuple(Fraction(c) for c in coeffs))

    @classmethod
    def zero(cls) -> RationalPoly:
        return cls(())

    @classmethod
    def parse(cls, text: str) -> RationalPoly:
        """Comma-separated rationals, ascending degree; '-2,-2,1,1' is t^3+t^2-2t-2."""
        parts = [p.strip() for p in text.replace("−", "-").split(",")]
        return cls.from_coeffs(parse_rational(p) for p in parts if p)

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

    def __sub__(self, other: RationalPoly) -> RationalPoly:
        n = max(len(self.coefficients), len(other.coefficients))
        return RationalPoly(tuple(self.coeff(i) - other.coeff(i) for i in range(n)))

    def __neg__(self) -> RationalPoly:
        return RationalPoly(tuple(-c for c in self.coefficients))

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

    def gcd(self, other: RationalPoly) -> RationalPoly:
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic() if not a.is_zero() else a

    def integer_scaled(self) -> tuple[int, ...]:
        """Integer coefficient vector with content cleared (same roots)."""
        if self.is_zero():
            return ()
        denom = lcm(*(c.denominator for c in self.coefficients))
        ints = [int(c * denom) for c in self.coefficients]
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
        head = terms[0] if not terms[0].startswith(("+", "-")) else terms[0]
        return " ".join([head] + terms[1:]) if len(terms) > 1 else head


def resultant(f: RationalPoly, g: RationalPoly) -> Fraction:
    """Resultant via the Sylvester matrix (exact fraction elimination)."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    m, n = f.degree, g.degree
    if m == 0:
        return f.leading**n
    if n == 0:
        return g.leading**m
    size = m + n
    rows = []
    fc = list(reversed(f.coefficients))  # descending
    gc = list(reversed(g.coefficients))
    for i in range(n):
        rows.append([Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i))
    for i in range(m):
        rows.append([Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i))
    return fraction_det(rows)


def fraction_det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    m = [row[:] for row in rows]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            det = -det
        pivot = m[k][k]
        det *= pivot
        inv = 1 / pivot
        for i in range(k + 1, n):
            if m[i][k]:
                factor = m[i][k] * inv
                m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return det


def discriminant(f: RationalPoly) -> Fraction:
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') / lc(f)."""
    n = f.degree
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * resultant(f, f.derivative()) / f.leading


def rational_roots(f: RationalPoly) -> list[Fraction]:
    """All rational roots, with multiplicity, by the rational root theorem."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    roots: list[Fraction] = []
    current = f
    while not current.is_zero() and current.degree >= 1:
        ints = current.integer_scaled()
        k = 0
        while ints[k] == 0:
            k += 1
        if k:
            roots.extend([Fraction(0)] * k)
            current = current.divmod(RationalPoly((0, 1) if k == 1 else tuple([0] * k + [1])))[0]
            continue
        a0, an = abs(ints[0]), abs(ints[-1])
        found = None
        for p in sorted(_divisors(a0)):
            for q in sorted(_divisors(an)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if current(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        current = current // RationalPoly((-found, Fraction(1)))
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


__all__ = [
    "RationalPoly",
    "discriminant",
    "rational_roots",
    "resultant",
    "fraction_det",
    "parse_rational",
]
