"""Second routes for values that the library computes another way.

Exact polynomial arithmetic over Q in :class:`RationalPoly`: sums,
products, scaling, evaluation, derivatives, the shift t -> t - a and
division with remainder.  On it, the Sylvester-matrix resultant and
discriminant, their Fraction determinant, and the rational roots by the
rational root theorem over the divisors of the end coefficients.
``cubicbrauer.ratpoly`` and ``cubicbrauer.qexamples`` compute the same
values in integers without elimination or factoring; the tests compare the
two.  The Eckardt test on f's own coefficients, where ``qexamples`` tests
its integral form.  Smith-form verification, U A V == S with U and V
unimodular.  The kernel of an integer matrix mod n by listing (Z/n)^cols,
where ``acceptance.mod_kernel`` reads an integer kernel, and the subgroup
that vectors generate mod n, closed under addition.  The invariant factors
of a sum of cyclic groups from primary parts, where
``FinAbGroup.from_orders`` takes gcds and lcms.  And the group that
permutations generate, by a breadth-first search on image tuples, where
``cubicbrauer.perms`` lists Dimino's cosets on byte codes, and on it the
greedy generators of a subgroup, closing over every element kept, where
``cubicbrauer.perms`` stops at the first prime index.  Trial division
by a wheel, one candidate divisor at a time, and the factorization and
squarefree part built on it, where ``cubicbrauer.arith`` finds a block's
prime factors by one gcd with the block's product.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, lcm

from cubicbrauer.arith import (
    TRIAL_DIVISION_BOUND,
    factorint,
    is_perfect_square,
    is_probable_prime,
    is_rational_square,
)
from cubicbrauer.errors import TooLarge
from cubicbrauer.perms import perm_order


class RationalPoly:
    """A polynomial over Q; ``coefficients`` ascend in degree, with no trailing zeros."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients):
        coeffs = tuple(map(Fraction, coefficients))
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coefficients = coeffs

    def __repr__(self) -> str:
        return f"RationalPoly({[str(c) for c in self.coefficients]})"

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
        return RationalPoly([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __mul__(self, other: RationalPoly) -> RationalPoly:
        if self.is_zero() or other.is_zero():
            return RationalPoly(())
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPoly(out)

    def scaled(self, c) -> RationalPoly:
        return RationalPoly([c * x for x in self.coefficients])

    def monic(self) -> RationalPoly:
        return self.scaled(1 / self.leading)

    def __call__(self, x) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> RationalPoly:
        return RationalPoly([k * c for k, c in enumerate(self.coefficients) if k])

    def shift(self, a) -> RationalPoly:
        """The polynomial t -> self(t - a), by Horner's rule in Q[t]."""
        acc = RationalPoly(())
        t_minus_a = RationalPoly((-Fraction(a), 1))
        for c in reversed(self.coefficients):
            acc = acc * t_minus_a + RationalPoly((c,))
        return acc

    def divmod(self, other: RationalPoly) -> tuple[RationalPoly, RationalPoly]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        d = other.degree
        q = [Fraction(0)] * max(len(rem) - d, 0)
        while len(rem) > d:
            factor = rem[-1] / other.leading
            q[len(rem) - 1 - d] = factor
            for i, c in enumerate(other.coefficients):
                rem[len(rem) - 1 - d + i] -= factor * c
            rem.pop()
        return RationalPoly(q), RationalPoly(rem)

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
        content = gcd(*ints)
        return tuple(x // content for x in ints)


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


def galois_type(f: RationalPoly, roots=None) -> tuple[str, Fraction | None]:
    """A separable cubic's Galois type by elimination, without factoring its class.

    Returns the variant and, for c2 and s3, a rational whose square class is
    d: the discriminant of the quadratic cofactor, or of the cubic.  ``roots``
    are the rational roots when known from a construction; by default they
    are listed from divisors.
    """
    roots = sorted(set(rational_roots(f) if roots is None else map(Fraction, roots)))
    if len(roots) == 3:
        return "trivial", None
    if len(roots) == 1:
        return "c2", discriminant(f // RationalPoly((-roots[0], Fraction(1))))
    disc = discriminant(f)
    return ("c3", None) if is_rational_square(disc) else ("s3", disc)


def lines_concurrent(f: RationalPoly, a) -> bool:
    """Whether f3 a^2 - f2 a + f1 = 0: the Eckardt condition on f's coefficients, in Fractions."""
    a = Fraction(a)
    return f.coeff(3) * a * a - f.coeff(2) * a + f.coeff(1) == 0


def verify_smith_form(form, a) -> bool:
    """Whether U A V == S for the Smith form (U, S, V) of A, with U and V unimodular."""
    return form.U @ a @ form.V == form.S and form.U.is_unimodular() and form.V.is_unimodular()


def span_mod(gens, n: int, width: int) -> set[tuple[int, ...]]:
    """The subgroup of (Z/n)^width that the vectors generate, closed under addition."""
    span = {(0,) * width}
    frontier = [(0,) * width]
    while frontier:
        base = frontier.pop()
        for g in gens:
            new = tuple((x + y) % n for x, y in zip(base, g))
            if new not in span:
                span.add(new)
                frontier.append(new)
    return span


def mod_kernel_by_listing(a, n: int) -> set[tuple[int, ...]]:
    """Every x in (Z/n)^cols with A x = 0 (mod n), found one vector at a time."""
    return {
        vec for vec in product(range(n), repeat=a.cols) if all(x % n == 0 for x in a.apply(vec))
    }


def invariant_factors_by_factoring(orders, factor=factorint) -> tuple[int, ...]:
    """The invariant factors of the sum of the Z/d over ``orders``, from primary parts.

    Each order is split by ``factor`` into prime powers; the k-th largest
    power of every prime multiply to the k-th largest invariant factor.
    """
    primary: dict[int, list[int]] = {}
    for d in orders:
        if d <= 0:
            raise ValueError("cyclic orders must be positive")
        for p, e in (factor(d).items() if d > 1 else ()):
            primary.setdefault(p, []).append(e)
    depth = max((len(v) for v in primary.values()), default=0)
    factors = []
    for k in range(depth):
        f = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if k < len(exps_sorted):
                f *= p ** exps_sorted[k]
        factors.append(f)
    return tuple(reversed(factors))  # ascending divisibility chain


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def closure(degree: int, generators) -> frozenset[tuple[int, ...]]:
    """The permutation group that ``generators`` generate on {0, ..., degree - 1}.

    A breadth-first search from the identity, each element g x formed as an
    image tuple; valid at any degree.
    """
    ident = tuple(range(degree))
    seen = {ident}
    queue = [ident]
    for x in queue:
        for g in generators:
            y = tuple(map(g.__getitem__, x))  # g * x
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return frozenset(seen)


def greedy_generators(elements, subgroup) -> list[int]:
    """The greedy generators of a subgroup, by the full loop.

    ``elements`` lists the group's permutations, and ``subgroup`` holds the
    indices of a subgroup's elements.  The indices are taken by decreasing
    element order, then by index, and one is kept when its element lies
    outside the group that those kept before it generate (:func:`closure`),
    until they generate the whole subgroup.
    """
    degree = len(elements[0])
    gens: list[int] = []
    covered = {tuple(range(degree))}
    for i in sorted(sorted(subgroup), key=lambda i: perm_order(elements[i]), reverse=True):
        if elements[i] not in covered:
            gens.append(i)
            covered = closure(degree, [elements[g] for g in gens])
            if len(covered) == len(subgroup):
                break
    return gens


def _root(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, by bisection."""
    lo, hi = 0, 1 << -(-n.bit_length() // k)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**k <= n else (lo, mid - 1)
    return lo


def wheel_trial_divide(n: int, k: int) -> tuple[dict[int, int], int]:
    """Prime factors of |n| up to ``TRIAL_DIVISION_BOUND`` and the cofactor left.

    The divisors 2, 3, then f and f + 2 for f = 5, 11, 17, ..., while f^k is
    at most what is left.  Kept per |n| and k, so that n and -n cost one run.
    """
    small, rest = _wheel(abs(n), k)
    return dict(small), rest


@cache
def _wheel(n: int, k: int) -> tuple[tuple[tuple[int, int], ...], int]:
    small: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            small[p] = small.get(p, 0) + 1
            n //= p
    f, stop = 5, min(_root(n, k), TRIAL_DIVISION_BOUND)
    while f <= stop:
        for p in (f, f + 2):
            if n % p == 0:
                while n % p == 0:
                    small[p] = small.get(p, 0) + 1
                    n //= p
                stop = min(_root(n, k), TRIAL_DIVISION_BOUND)
        f += 6
    return tuple(small.items()), n


def wheel_factorint(n: int) -> dict[int, int]:
    """``arith.factorint`` on the wheel: a cofactor that is not 1 or prime raises TooLarge."""
    out, rest = wheel_trial_divide(n, 2)
    if rest > 1:
        if not is_probable_prime(rest):
            raise TooLarge(
                f"cannot factor {rest}: it has no prime factor up to {TRIAL_DIVISION_BOUND}"
            )
        out[rest] = 1
    return out


def wheel_squarefree_part(q) -> int:
    """``arith.squarefree_part`` on the wheel, stopped at the cube root of the cofactor."""
    q = Fraction(q)
    small, rest = wheel_trial_divide(q.numerator * q.denominator, 3)
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
