"""Rational examples over Q: blowups of six points on a twisted cubic.

Given a separable cubic F with nonzero t^2 coefficient and a shift a != 0,
the six points [1 : r : r^3] over the roots of H(t) = F(t) F(t-a) are in
general position when (i) H has distinct roots, (ii) its degree-5
coefficient is nonzero, and (iii) no three roots sum to zero.  Blowing
them up gives a smooth cubic surface over Q whose boundary trio of lines
is permuted by the Galois group of F; provided the lines are not
concurrent, the transcendental Brauer group of the complement is the
invariant group of the twisted boundary module, so the whole pipeline
reduces to the cubic's Galois type.

Every invariant here is in closed form, in integers on the integral
scaling F = c3 t^3 + c2 t^2 + c1 t + c0 of f = lambda F, read from the
``ratpoly.IntegralCubic`` record of f: disc(f) = lambda^4 disc F; the
rational roots by bisection (``ratpoly.monic_cubic_integer_roots``); H's
t^5 coefficient f3 (2 f2 - 3 a f3); and two values of one cubic.  Over
the roots r_i of F, prod_{i<j} (s^2 - (r_i - r_j)^2) = R(s^2) for
R(x) = x (x - D0/c3^2)^2 - disc F/c3^4, with D0 = c2^2 - 3 c1 c3.  For a = n/d, the roots' sum e1
gives e1 + k a = T_k/(c3 d) with T_k = k c3 n - c2 d, and
q(t) = (t^2 - D0 d^2)^2 t^2 - disc F c3^2 d^6 clears R's denominators:

    Res(F, F(t - a)) = -n^3 q(c3 n) / d^9,
    prod of H's 20 triple root sums = T0 T1^3 T2^3 T3 q(T1) q(T2) / (c3 d)^20.

``tests/test_qexamples.py`` checks each closed form against its
elimination route: the Sylvester resultant and discriminant and the
rational-root-theorem listing of ``tests/oracles.py``, and the 20x20
exterior-power operator.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Literal, NamedTuple

from .arith import is_perfect_square, squarefree_part
from .brauer import BoundaryDescriptor, transcendental_bound
from .errors import (
    EckardtPoint,
    GeneralPositionFailed,
    NoAdmissibleShift,
    NotSeparable,
)
from .intlinalg import FinAbGroup
from .ratpoly import IntegralCubic, monic_cubic_integer_roots
from .values import Value


class GaloisType(Value):
    """Galois type of a separable rational cubic, with quadratic class d.

    :func:`cubic_galois_type` gives d as its squarefree representative.
    """

    __slots__ = ("variant", "d")

    def __init__(self, variant: Literal["trivial", "c2", "c3", "s3"], d: int | None = None):
        needs_d = variant in ("c2", "s3")
        if needs_d and (d is None or d in (0, 1)):
            raise ValueError("c2/s3 types carry a nontrivial square class")
        if not needs_d and d is not None:
            raise ValueError("trivial/c3 types carry no square class")
        object.__setattr__(self, "variant", variant)
        object.__setattr__(self, "d", d)


def cubic_galois_type(f: IntegralCubic) -> GaloisType:
    """Galois group of a degree-3 separable polynomial over Q.

    On f = lambda F, disc(f) = lambda^4 disc(F), and the rational roots of F
    are u/c3 for the integer roots u of g(u) = u^3 + c2 u^2 + c1 c3 u +
    c0 c3^2 = c3^2 F(u/c3).  With one such root, synthetic division gives
    g = (u' - u)(u'^2 + qb u' + qc), and f's quadratic cofactor has the
    discriminant lambda^2 (qb^2 - 4 qc).  Dividing out the square of
    lambda's numerator leaves the square class alone, and can only take
    primes away from what ``squarefree_part`` factors; lambda's denominator
    is kept, since it can cancel a square factor of disc(F) or qb^2 - 4 qc.
    """
    c0, c1, c2, c3 = f.integral
    disc, den = f.disc, f.scale.denominator
    if disc == 0:
        raise NotSeparable("cubic has a repeated root")
    roots = monic_cubic_integer_roots(c2, c1 * c3, c0 * c3 * c3)
    if len(roots) == 3:
        return GaloisType("trivial")
    if len(roots) == 1:
        qb = c2 + roots[0]
        qc = c1 * c3 + qb * roots[0]
        return GaloisType("c2", squarefree_part(Fraction(qb * qb - 4 * qc, den * den)))
    # no rational root: irreducible cubic
    if is_perfect_square(disc):
        return GaloisType("c3")
    return GaloisType("s3", squarefree_part(Fraction(disc, den**4)))


# -- general position --------------------------------------------------------


class GeneralPositionReport(NamedTuple):
    """The three general-position conditions, and the three values they test.

    Each value is kept as the integers (numerator, denominator > 0) that
    :func:`general_position` computes, not reduced, and becomes a Fraction
    only when its property is read; a report is equal to another when
    those integers are.
    """

    distinct_roots: bool
    degree5_nonzero: bool
    no_triple_sum_zero: bool
    resultant_terms: tuple[int, int]
    degree5_terms: tuple[int, int]
    derivation_terms: tuple[int, int]

    @property
    def resultant_f_fshift(self) -> Fraction:
        """Res(f, f(t - a))."""
        return Fraction(*self.resultant_terms)

    @property
    def degree5_coefficient(self) -> Fraction:
        """The t^5 coefficient of f(t) f(t - a)."""
        return Fraction(*self.degree5_terms)

    @property
    def derivation_determinant(self) -> Fraction:
        """The product of the 20 sums of three distinct roots of f(t) f(t - a)."""
        return Fraction(*self.derivation_terms)

    @property
    def ok(self) -> bool:
        return self.distinct_roots and self.degree5_nonzero and self.no_triple_sum_zero

    def failures(self) -> list[str]:
        return [why for ok, why in (
            (self.distinct_roots, "repeated root among the six points"),
            (self.degree5_nonzero, "degree-5 coefficient of F(t)F(t-a) vanishes"),
            (self.no_triple_sum_zero, "three of the six roots sum to zero"),
        ) if not ok]


def _shift_terms(a) -> tuple[int, int]:
    """(n, d) with a = n/d in lowest terms and d > 0; only a non-rational type becomes a Fraction."""
    if not isinstance(a, (int, Fraction)):
        a = Fraction(a)
    return a.numerator, a.denominator


def _difference_form(c: tuple[int, int, int, int], disc: int, d: int, t: int) -> int:
    """q(t), so that prod_{i<j} (s^2 - (r_i - r_j)^2) = q(t) / (c3 d)^6 at s = t / (c3 d).

    The squared root differences of F sum to 2 D0/c3^2, their pairwise
    products sum to the square of half that (the differences sum to zero),
    and they multiply to disc/c3^4: that product is R(s^2).
    """
    _, c1, c2, c3 = c
    u = t * t - (c2 * c2 - 3 * c1 * c3) * d * d
    return u * u * t * t - disc * c3 * c3 * d**6


def _shift_resultant(c: tuple[int, int, int, int], disc: int, n: int, d: int) -> int:
    """d^9 Res(F(t), F(t - a)) at a = n/d, where Res = c3^6 prod_{i,j} (r_i - r_j - a).

    That product is -a^3 c3^6 R(a^2): the factors i = j give -a^3, and each
    pair (i, j), (j, i) gives a^2 - (r_i - r_j)^2.
    """
    return -(n**3) * _difference_form(c, disc, d, c[3] * n)


def _triple_sum_product(c: tuple[int, int, int, int], disc: int, n: int, d: int) -> int:
    """(c3 d)^20 times the product of the 20 sums of three distinct roots of H, at a = n/d.

    They are e1 and e1 + 3a once, e1 + a and e1 + 2a three times each, and
    2r_i + r_j + b for b in (a, 2a) and the six ordered pairs i != j.  With k
    the third index, 2r_i + r_j + b = (e1 + b) + (r_i - r_k), so the six for one
    b multiply to R((e1 + b)^2).  The 20 sums are the eigenvalues of the
    derivation induced by H's companion matrix on the third exterior power of Q^6.
    """
    t0, t1, t2, t3 = (k * c[3] * n - c[2] * d for k in range(4))
    q1, q2 = (_difference_form(c, disc, d, t) for t in (t1, t2))
    return t0 * t1**3 * t2**3 * t3 * q1 * q2


def general_position(f: IntegralCubic, a) -> GeneralPositionReport:
    """The three general-position conditions for H = F(t)F(t-a), with f = lambda F.

    Each condition is decided on an integer closed form at a = n/d, and the
    report keeps that integer with the denominator that makes it a value of
    f: Res(f, f(t - a)) = lambda^6 Res(F, F(t - a)), H's t^5 coefficient
    f3 (2 f2 - 3 a f3) is lambda^2 c3 (2 c2 d - 3 n c3) / d, and the triple
    sums multiply to T0 T1^3 T2^3 T3 q(T1) q(T2) / (c3 d)^20.
    """
    n, d = _shift_terms(a)
    if not n:
        raise ValueError("the shift a must be nonzero")
    c, disc = f.integral, f.disc
    lam, mu = f.scale.numerator, f.scale.denominator
    _, _, c2, c3 = c
    res = _shift_resultant(c, disc, n, d)
    degree5 = 2 * c2 * d - 3 * n * c3
    det = _triple_sum_product(c, disc, n, d)
    return GeneralPositionReport(
        distinct_roots=disc != 0 and res != 0,
        degree5_nonzero=degree5 != 0,
        no_triple_sum_zero=det != 0,
        resultant_terms=(lam**6 * res, mu**6 * d**9),
        degree5_terms=(lam * lam * c3 * degree5, mu * mu * d),
        derivation_terms=(det, (c3 * d) ** 20),
    )


# -- Eckardt concurrency check ----------------------------------------------


class EckardtVerdict(Enum):
    YES = "yes"
    NO = "no"


def eckardt_concurrent(f: IntegralCubic, a) -> EckardtVerdict:
    """Exact test whether the three boundary lines are concurrent.

    The lines join [1 : r : r^3] to [1 : r+a : (r+a)^3] over the roots r
    of F = c3 t^3 + c2 t^2 + c1 t + c0.  The 3x3 determinant of their
    coordinate vectors factors as

        D = -6 a^3 * prod_{i<j} (r_i - r_j) * (a^2 + a e1 + e2),

    where e1 = -c2/c3 and e2 = c1/c3 are the elementary symmetric
    functions of the roots.  General position makes F separable, and a is
    nonzero, so the lines meet in a point iff c3 a^2 - c2 a + c1 = 0.  For
    a = n/d that is c3 n^2 - c2 n d + c1 d^2 = 0, one test in integers; on
    f = lambda F the scale lambda cancels.
    """
    report = general_position(f, a)
    if not report.ok:
        raise GeneralPositionFailed(report)
    _, c1, c2, c3 = f.integral
    n, d = _shift_terms(a)
    if c3 * n * n - c2 * n * d + c1 * d * d == 0:
        return EckardtVerdict.YES
    return EckardtVerdict.NO


# -- the end-to-end example pipeline ------------------------------------------


def boundary_from_galois(galois: GaloisType) -> BoundaryDescriptor:
    """The three-line boundary whose lines Galois permutes as the cubic's roots.

    The d of a c2 or s3 type is the squarefree representative that
    :func:`cubic_galois_type` printed, so it is not trial-divided again.
    """
    return BoundaryDescriptor._of_squarefree("three_lines", galois.variant, galois.d)


def example_brauer(f: IntegralCubic, a) -> tuple[GaloisType, FinAbGroup]:
    """The Galois type of F, and Br(U)/Br_1(U) for the blowup surface attached to (F, a).

    For this construction the Galois-invariant bound is attained, so the
    descriptor's transcendental bound is reported as an equality.  That is
    the source paper's result for three-line boundaries over Q (arXiv
    2509.16042); nothing here computes a witness for it.  The
    Galois type is returned too, so a caller that reports it does not
    compute it again.  Raises GeneralPositionFailed or EckardtPoint when
    (F, a) gives no such surface; the Galois type is computed first, so
    its errors come before those.
    """
    galois = cubic_galois_type(f)
    if eckardt_concurrent(f, a) is EckardtVerdict.YES:
        raise EckardtPoint("the three boundary lines are concurrent")
    return galois, transcendental_bound(boundary_from_galois(galois))


class SearchOutcome(NamedTuple):
    a: Fraction
    rejected: tuple[tuple[Fraction, str], ...]


def _fails_every_shift(f: IntegralCubic) -> bool:
    """Whether no shift a puts the six points of F(t)F(t - a) in general position.

    That holds when F has a repeated root (disc F = 0), which H then has
    for every a, or when F's roots sum to zero (c2 = 0), which makes the
    triple sum e1 vanish.  Otherwise each condition, and the Eckardt test,
    fails for finitely many a only, so the search below ends after a few
    shifts whatever its bound.
    """
    return f.integral[2] == 0 or f.disc == 0


def find_admissible_a(f: IntegralCubic, bound: int = 20) -> SearchOutcome:
    """Smallest integer a in 1..bound passing general position and Eckardt.

    The search stops at the first rejected shift once no shift can pass.
    A bound below 1 searches nothing and raises ValueError.
    """
    if bound < 1:
        raise ValueError(f"the search bound must be at least 1, not {bound}")
    rejected: list[tuple[Fraction, str]] = []
    for a in range(1, bound + 1):
        try:
            verdict = eckardt_concurrent(f, a)
        except GeneralPositionFailed as exc:
            rejected.append((Fraction(a), "; ".join(exc.report.failures())))
            if _fails_every_shift(f):
                break
            continue
        if verdict is EckardtVerdict.NO:
            return SearchOutcome(a=Fraction(a), rejected=tuple(rejected))
        rejected.append((Fraction(a), f"eckardt check: {verdict.value}"))
    raise NoAdmissibleShift(f"no admissible a found up to {bound}")


def searched_example_brauer(
    f: IntegralCubic, bound: int = 20
) -> tuple[SearchOutcome, GaloisType, FinAbGroup]:
    """:func:`find_admissible_a`, then :func:`example_brauer` at the shift found.

    The search has already passed that shift through general position and
    the Eckardt test, so neither runs again.  The search's errors come
    before the Galois type's, as when the two functions are called in turn.
    """
    outcome = find_admissible_a(f, bound)
    galois = cubic_galois_type(f)
    return outcome, galois, transcendental_bound(boundary_from_galois(galois))


__all__ = [
    "EckardtVerdict",
    "GaloisType",
    "GeneralPositionReport",
    "SearchOutcome",
    "boundary_from_galois",
    "cubic_galois_type",
    "eckardt_concurrent",
    "example_brauer",
    "find_admissible_a",
    "general_position",
    "searched_example_brauer",
]
