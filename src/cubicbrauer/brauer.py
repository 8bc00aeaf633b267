"""Brauer-group classifiers for singular hyperplane sections.

Two computations live here.

* The geometric Brauer group of the complement, as a Galois-module
  descriptor determined by the boundary type: trivial, the full Tate twist
  Q/Z(-1), or the d-twisted system M_d/nM_d(-1) for a quadratic class d.
  Over Q its Galois invariants are assembled from p-primary parts; only
  p = 2 and p = 3 can contribute, and the prime-power levels stabilize.

* The algebraic tables: the possible pairs (Br_1(U)/Br(k), Br(X)/Br(k))
  for a boundary of three lines, obtained by sweeping all subgroups of the
  tritangent-trio stabilizer in W(E6) up to conjugacy and computing H^1 on
  Pic(Ubar) and Pic(Xbar).
"""

from __future__ import annotations

import json
from functools import cache
from math import gcd
from typing import Literal, NamedTuple

from .arith import (
    decimal_integer, is_perfect_square, is_rational_square, prime_power, squarefree_part
)
from .cubiclattice import pic_module, quotient_by_trio, reference_trio, weyl_group
from .errors import BadModulus, StabilizationFailed
from .intlinalg import FinAbGroup
from .perms import PermGroup, orbit_count, setwise_stabilizer, subgroup_classes
from .values import Value


# -- boundary descriptors --------------------------------------------------

# each boundary kind: the JSON field that names its case, and the cases
_CASES = {
    "line_conic": ("intersection", ("tangent", "two_rational", "quadratic")),
    "irreducible": ("kind", ("cuspidal", "nodal_split", "nodal_nonsplit")),
    "three_lines": ("galois", ("trivial", "c2", "c3", "s3")),
}
_NEEDS_D = {"quadratic", "nodal_nonsplit", "c2", "s3"}


class BoundaryDescriptor(Value):
    """Case data for a singular hyperplane section.

    kind is one of "line_conic", "irreducible", "three_lines"; sub names
    the case within the kind; d is the square class of the splitting
    quadratic field where one is involved (normalized to its squarefree
    representative); eckardt only applies to three concurrent lines.
    Immutable: the fields are set once, by the validating constructor.
    """

    __slots__ = ("kind", "sub", "d", "eckardt")

    def __init__(
        self,
        kind: Literal["line_conic", "irreducible", "three_lines"],
        sub: str,
        d: int | None = None,
        eckardt: bool = False,
    ):
        self._set(kind, sub, d, eckardt, normalize=True)

    @classmethod
    def _of_squarefree(cls, kind: str, sub: str, d: int | None = None) -> BoundaryDescriptor:
        """A descriptor whose d is already its squarefree representative.

        For a d that ``squarefree_part`` has just returned: every check of
        the constructor runs, but d is not trial-divided again.
        """
        self = object.__new__(cls)
        self._set(kind, sub, d, False, normalize=False)
        return self

    def _set(self, kind, sub, d, eckardt, normalize: bool) -> None:
        if kind not in _CASES:
            raise ValueError(f"unknown boundary kind {kind!r}")
        if sub not in _CASES[kind][1]:
            raise ValueError(f"unknown case {sub!r} for {kind}")
        if eckardt and kind != "three_lines":
            raise ValueError("eckardt applies only to three lines")
        if sub in _NEEDS_D:
            if d is None:
                raise ValueError(f"case {sub!r} requires a square class d")
            if normalize:
                d = squarefree_part(d)
            if d == 1:
                raise ValueError("d must define a nontrivial quadratic extension")
        elif d is not None:
            raise ValueError(f"case {sub!r} takes no square class")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sub", sub)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eckardt", eckardt)

    # JSON wire format, consumed by the CLI
    def to_json(self) -> dict:
        case = self.sub if self.d is None else {self.sub: self.d}
        out = {"type": self.kind, _CASES[self.kind][0]: case}
        if self.kind == "three_lines":
            out["eckardt"] = self.eckardt
        return out

    @classmethod
    def from_json(cls, obj: dict | str) -> BoundaryDescriptor:
        """Parse the wire format; malformed JSON raises a ValueError naming the field."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except RecursionError:
                raise ValueError("boundary JSON is nested too deeply") from None
        if not isinstance(obj, dict):
            raise ValueError("boundary must be a JSON object")
        kind = obj.get("type")
        if not isinstance(kind, str) or kind not in _CASES:
            raise ValueError(f"unknown boundary type {kind!r}")
        field = _CASES[kind][0]
        if field not in obj:
            raise ValueError(f"{kind} boundary requires the field {field!r}")
        sub, d = obj[field], None
        if isinstance(sub, dict) and len(sub) == 1:
            ((sub, d),) = sub.items()
            d = _json_integer(d, field)
        if not isinstance(sub, str):
            raise ValueError(f"{field} must be a case name or a one-entry object {{case: d}}")
        eckardt = obj.get("eckardt", False)
        if not isinstance(eckardt, bool):
            raise ValueError(f"eckardt must be true or false, not {eckardt!r}")
        return cls(kind, sub, d=d, eckardt=eckardt)


def _json_integer(value, field: str) -> int:
    """A square class read from JSON: an integer, or ASCII digits after an optional '-'.

    A float is refused, integral or not: it may already have been rounded.
    """
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return value if isinstance(value, int) else decimal_integer(value)
        except ValueError:
            pass
    raise ValueError(f"{field}: d must be an integer, not {value!r}")


class GeometricBrauer(NamedTuple):
    """Br(Ubar) as a Galois-module descriptor."""

    kind: Literal["zero", "full_twist", "d_twist"]
    d: int | None = None

    def to_json(self):
        return {"d_twist": self.d} if self.kind == "d_twist" else self.kind


def geometric_brauer(boundary: BoundaryDescriptor) -> GeometricBrauer:
    """Classify Br(Ubar) from the boundary type."""
    if boundary.kind == "three_lines" and boundary.eckardt:
        return GeometricBrauer("zero")
    sub = boundary.sub
    if sub in ("tangent", "cuspidal"):
        return GeometricBrauer("zero")
    if sub in ("two_rational", "nodal_split", "trivial", "c3"):
        return GeometricBrauer("full_twist")
    return GeometricBrauer("d_twist", boundary.d)


# -- twisted invariants over Q ---------------------------------------------


def _cyclotomic_class(d: int, n: int) -> tuple[int, int | None]:
    """The prime p of a prime power n, and the class c of sqrt(d) in Q(zeta_n).

    Quadratic subfields of prime-power cyclotomic fields: Q(i) inside
    Q(zeta_{2^i}) for i >= 2, and Q(sqrt(+-2)) for i >= 3; for odd p the
    unique one is Q(sqrt(p*)) with p* = (-1)^((p-1)/2) p.  So c is the one
    of -1, 2, -2, p* in Q(zeta_n) with c * d a square, or None when sqrt(d)
    is not in Q(zeta_n); deciding it takes square tests, not factoring.
    """
    pp = prime_power(n)
    if pp is None:
        raise BadModulus(f"{n} is not a prime power")
    p, _ = pp
    if p == 2:
        classes = (-1, 2, -2) if n % 8 == 0 else (-1,) if n % 4 == 0 else ()
    else:
        classes = (p if p % 4 == 1 else -p,)
    return p, next((c for c in classes if is_perfect_square(c * d)), None)


def sqrt_in_cyclotomic(d: int, n: int) -> bool:
    """Whether sqrt(d) lies in Q(zeta_n), for a non-square d and a prime power n."""
    return _cyclotomic_class(d, n)[1] is not None


def _fixes_sqrt_d(c: int, t: int, p: int) -> bool:
    """Whether the cyclotomic automorphism zeta -> zeta^t fixes sqrt(d).

    Only valid when sqrt(d) lies in Q(zeta_{p^k}), in the class c found by
    _cyclotomic_class; decided by congruence conditions on t (closed forms
    for the quadratic subfields).
    """
    if c == -1:
        return t % 4 == 1
    if c == 2:
        return t % 8 in (1, 7)
    if c == -2:
        return t % 8 in (1, 3)
    return pow(t, (p - 1) // 2, p) == 1  # Euler's criterion: t is a square mod p


def _unit_generators(n: int, p: int) -> tuple[int, ...]:
    """Units t of Z/n whose scalars already decide the twisted invariants.

    For p = 2 they generate (Z/2^k)*: <-1, 5> for k >= 3, <-1> for k = 2,
    the trivial group for k = 1.  For p = 3, 2 is a primitive root mod 9,
    hence mod every 3^k.  For p >= 5 a primitive root would need the factors
    of p - 1, but no generating set is needed: t = 4 is a square, so it
    fixes sqrt(d) whether or not sqrt(d) lies in Q(zeta_n), and its scalar
    a = 4^{-1} has a - 1 = -3/4, prime to p.  The gcd over part of the image
    is a multiple of the gcd over all of it, so gcd 1 settles it.
    """
    if p == 2:
        return (-1, 5) if n >= 8 else (-1,) if n == 4 else ()
    if p == 3:
        return (2,)
    return (4,)


def twist_invariants(d: int, n: int) -> FinAbGroup:
    """Galois invariants of M_d/nM_d(-1) over Q, for a prime power n.

    The element s of Gal(Q(zeta_n, sqrt d)/Q) with s^{-1}(zeta) = zeta^t
    acts on the rank-1 module Z/n as the scalar a(s) = eps(s) * t^{-1},
    where eps(s) = -1 exactly when s conjugates sqrt(d).  The m fixed by
    every a(s) are those with n | (a(s) - 1) m for each s, i.e. with
    n | g m for g = gcd(n, a(s) - 1 over generators s of the group): the
    invariants are Z/g.  The gcd runs over lifts of the units from
    _unit_generators and, when sqrt(d) is not in Q(zeta_n), the element
    that fixes zeta_n and negates sqrt(d), with a = -1.
    """
    if is_rational_square(d):
        raise ValueError("d must define a nontrivial quadratic extension")
    p, c = _cyclotomic_class(d, n)
    units = _unit_generators(n, p)
    if c is not None:
        scalars = [(1 if _fixes_sqrt_d(c, t, p) else -1) * pow(t, -1, n) for t in units]
    else:
        scalars = [-1] + [pow(t, -1, n) for t in units]
    g = gcd(n, *(a - 1 for a in scalars))
    return FinAbGroup(0, (g,) if g > 1 else ())  # cyclic, so nothing to factor


def qmodz_invariants(n: int) -> FinAbGroup:
    """Invariants of Z/n(-1) over Q: elements fixed by every t in (Z/n)*.

    t = -1 forces 2m = 0, and every unit is odd when n is even, so the
    invariants are Z/gcd(n, 2).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    return FinAbGroup.from_orders([gcd(n, 2)])


def _stabilized(values: tuple[FinAbGroup, FinAbGroup], label: str) -> FinAbGroup:
    lo, hi = values
    if lo != hi:
        raise StabilizationFailed(f"{label}: {lo} at n vs {hi} at n*p")
    return lo


@cache
def _full_twist_bound() -> FinAbGroup:
    """(Q/Z(-1))^{Gamma_Q}, the same for every boundary: computed, and checked stable, once."""
    part2 = _stabilized((qmodz_invariants(4), qmodz_invariants(8)), "Q/Z(-1) at 2")
    part3 = _stabilized((qmodz_invariants(3), qmodz_invariants(9)), "Q/Z(-1) at 3")
    return part2.direct_sum(part3)


def transcendental_bound(boundary: BoundaryDescriptor) -> FinAbGroup:
    """(Br Ubar)^{Gamma_Q}: the upper bound for Br(U)/Br_1(U) over Q.

    Assembled from the stabilized p-primary invariants at p = 2 and 3;
    primes >= 5 never contribute.
    """
    geometric = geometric_brauer(boundary)
    if geometric.kind == "zero":
        return FinAbGroup.trivial()
    if geometric.kind == "full_twist":
        return _full_twist_bound()
    d = geometric.d
    part2 = _stabilized((twist_invariants(d, 4), twist_invariants(d, 8)), f"M_{d} at 2")
    part3 = _stabilized((twist_invariants(d, 3), twist_invariants(d, 9)), f"M_{d} at 3")
    return part2.direct_sum(part3)


# -- the algebraic tables ---------------------------------------------------


class TablePair(NamedTuple):
    """A possibility for (Br_1(U)/Br(k), Br(X)/Br(k))."""

    br1: FinAbGroup
    brx: FinAbGroup

    def sort_key(self):
        return (
            self.br1.order(),
            self.br1.invariant_factors,
            self.brx.order(),
            self.brx.invariant_factors,
        )

    def to_json(self):
        return {"br1": self.br1.to_json(), "brx": self.brx.to_json()}


class SweepEntry(NamedTuple):
    orbits: int
    pair: TablePair


@cache
def _stabilizer_classes() -> tuple[tuple[PermGroup, int], ...]:
    """Each subgroup class of the trio stabilizer, with its orbit count on the trio."""
    points = set(reference_trio().indices)
    stabilizer = setwise_stabilizer(weyl_group(), points)
    return tuple(
        (cls.group, orbit_count(cls.group, points)) for cls in subgroup_classes(stabilizer)
    )


@cache
def _sweep_entry(index: int) -> SweepEntry:
    """H^1 of Pic Xbar and of Pic Ubar for one subgroup class, computed once."""
    from .cohomology import h1_lattice

    sub, orbits = _stabilizer_classes()[index]
    brx = h1_lattice(pic_module(sub))
    br1 = h1_lattice(quotient_by_trio(reference_trio(), sub))
    return SweepEntry(orbits=orbits, pair=TablePair(br1, brx))


def algebraic_tables(orbit_case: int) -> tuple[TablePair, ...]:
    """Distinct (Br_1, Br X) pairs for boundaries with the given orbit count.

    orbit_case 1: the three lines form a single Galois orbit; 2: a line and
    a conjugate pair; 3: three rational lines.  Only the subgroup classes
    with that many orbits on the trio have their lattices computed.
    """
    if orbit_case not in (1, 2, 3):
        raise ValueError("orbit case must be 1, 2 or 3")
    pairs = {
        _sweep_entry(i).pair
        for i, (_, orbits) in enumerate(_stabilizer_classes())
        if orbits == orbit_case
    }
    return tuple(sorted(pairs, key=TablePair.sort_key))


def table_sweep_entries() -> tuple[SweepEntry, ...]:
    """H^1 over every subgroup class of the trio stabilizer in W(E6), in class order."""
    return tuple(map(_sweep_entry, range(len(_stabilizer_classes()))))


def sweep_class_count() -> int:
    """Number of subgroup classes of the trio stabilizer the tables range over."""
    return len(_stabilizer_classes())


__all__ = [
    "BoundaryDescriptor",
    "GeometricBrauer",
    "SweepEntry",
    "TablePair",
    "algebraic_tables",
    "geometric_brauer",
    "qmodz_invariants",
    "sqrt_in_cyclotomic",
    "sweep_class_count",
    "table_sweep_entries",
    "transcendental_bound",
    "twist_invariants",
]
