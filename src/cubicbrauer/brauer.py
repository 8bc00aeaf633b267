"""Brauer-group classifiers for singular hyperplane sections.

Two computations live here.

* The geometric Brauer group of the complement, as a Galois-module
  descriptor determined by the boundary type: trivial, the full Tate twist
  Q/Z(-1), or the d-twisted system M_d/nM_d(-1) for a quadratic class d.
  Over Q its Galois invariants are closed forms in square tests of d:
  only p = 2 and p = 3 contribute, and the bound is the group of roots of
  unity of Q(sqrt d).

* The algebraic tables: the possible pairs (Br_1(U)/Br(k), Br(X)/Br(k))
  for a boundary of three lines, obtained by sweeping all subgroups of the
  tritangent-trio stabilizer in W(E6) up to conjugacy and computing H^1 on
  Pic(Ubar) and Pic(Xbar).
"""

from __future__ import annotations

import json
from functools import cache
from typing import Literal, NamedTuple

from .arith import (
    decimal_integer, is_perfect_square, is_rational_square, prime_power, squarefree_part
)
from .cubiclattice import pic_module, quotient_by_trio, reference_trio, weyl_group
from .errors import BadModulus
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

_Z2, _Z3, _Z4, _Z6 = (FinAbGroup(0, (order,)) for order in (2, 3, 4, 6))


def twist_invariants(d: int, n: int) -> FinAbGroup:
    """Galois invariants of M_d/nM_d(-1) over Q, for a non-square d and a prime power n.

    Z/4 when 4 | n and -d is a square, Z/2 at every other power of 2, Z/3 at
    a power of 3 when -3d is a square, and 0 otherwise.  The s with
    s^{-1}(zeta) = zeta^t acts on Z/n as eps * t^{-1}, eps = -1 when s negates
    sqrt(d); one s has scalar -1 unless sqrt(d) is in Q(zeta_n).  At p = 2 all
    scalars are odd, and 1 mod 4 only for d ~ -1, when t = 5 gives 5^{-1},
    not 1 mod 8.  At p = 3 the scalar -1 fixes 0 unless d ~ -3, when all are
    1 mod 3 and t = 2 gives -2^{-1}, not 1 mod 9.  At p >= 5 the square t = 4
    gives 4^{-1}, and 4^{-1} - 1 = -3/4 is a unit.
    """
    if is_rational_square(d):
        raise ValueError("d must define a nontrivial quadratic extension")
    pp = prime_power(n)
    if pp is None:
        raise BadModulus(f"{n} is not a prime power")
    if pp[0] == 2:
        return _Z4 if n % 4 == 0 and is_perfect_square(-d) else _Z2
    if pp[0] == 3 and is_perfect_square(-3 * d):
        return _Z3
    return FinAbGroup.trivial()


def transcendental_bound(boundary: BoundaryDescriptor) -> FinAbGroup:
    """(Br Ubar)^{Gamma_Q}: the upper bound for Br(U)/Br_1(U) over Q.

    0 for a zero Br(Ubar), Z/2 for the full twist Q/Z(-1) (t = -1 acts as
    -1).  A d-twist gives the roots of unity of Q(sqrt d), the sum of the 2-
    and 3-levels of ``twist_invariants``: Z/4 for d ~ -1, Z/6 for d ~ -3 and
    Z/2 otherwise.  Check 8 of the acceptance suite lists those levels.
    """
    geometric = geometric_brauer(boundary)
    if geometric.kind == "zero":
        return FinAbGroup.trivial()
    if geometric.kind == "d_twist":
        if is_perfect_square(-geometric.d):
            return _Z4
        if is_perfect_square(-3 * geometric.d):
            return _Z6
    return _Z2


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
    "sweep_class_count",
    "table_sweep_entries",
    "transcendental_bound",
    "twist_invariants",
]
