"""The Picard lattice of a smooth cubic surface.

Coordinates are taken in the basis (l, e1, ..., e6) with intersection form
diag(1, -1, ..., -1), so divisor-class expressions like l - e1 - e2 are
literal coefficient vectors.  The hyperplane (anticanonical) class is
H = 3l - e1 - ... - e6; the 27 lines are the classes D with D.D = -1 and
D.H = 1; a tritangent trio is three lines with pairwise product 1 summing
to H, and there are 45 of them.  The symmetry group of all this data is
the Weyl group W(E6) of order 51840, realized here as permutations of the
27 lines.  For a boundary with components D_1..D_k, Pic(Ubar) is
Z^7 / <D_1..D_k>; `boundary_quotient` gives its projection and section
from one Smith form, and refuses a quotient that is not free.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import combinations
from operator import mul
from typing import NamedTuple, Sequence

from .cohomology import LatticeGModule
from .errors import InconsistentPermutation, NotStabilized, TorsionFound
from .intlinalg import IntMatrix, snf
from .perms import Perm, PermGroup

RANK = 7
HYPERPLANE: tuple[int, ...] = (3, -1, -1, -1, -1, -1, -1)

DivClass = tuple[int, ...]


def intersection(u: Sequence[int], v: Sequence[int]) -> int:
    """Intersection pairing in the basis (l, e1..e6): diag(1, -1^6)."""
    return u[0] * v[0] - sum(a * b for a, b in zip(u[1:], v[1:]))


def _unit(i: int) -> DivClass:
    return tuple(1 if j == i else 0 for j in range(RANK))


def _combine(*terms: tuple[int, Sequence[int]]) -> DivClass:
    out = [0] * RANK
    for coeff, vec in terms:
        for i, x in enumerate(vec):
            out[i] += coeff * x
    return tuple(out)


@cache
def lines27() -> tuple[DivClass, ...]:
    """The 27 line classes, in the fixed order e_i, l-e_i-e_j, 2l-sum+e_j."""
    ell = _unit(0)
    all_exceptional = _combine(*((1, _unit(i)) for i in range(1, 7)))
    exceptional = [_unit(i) for i in range(1, 7)]
    chords = [
        _combine((1, ell), (-1, _unit(i)), (-1, _unit(j)))
        for i, j in combinations(range(1, 7), 2)
    ]
    conics = [
        _combine((2, ell), (-1, all_exceptional), (1, _unit(j))) for j in range(1, 7)
    ]
    return tuple(exceptional + chords + conics)


@cache
def line_index() -> dict[DivClass, int]:
    return {d: i for i, d in enumerate(lines27())}


class TritangentTrio(NamedTuple):
    """Three line classes with pairwise product 1, summing to H."""

    classes: tuple[DivClass, DivClass, DivClass]

    @property
    def indices(self) -> tuple[int, int, int]:
        idx = line_index()
        return tuple(idx[c] for c in self.classes)  # type: ignore[return-value]


@cache
def tritangent_trios() -> tuple[TritangentTrio, ...]:
    """All 45 tritangent trios, ordered by line indices."""
    lines = lines27()
    out = []
    for i, j, k in combinations(range(27), 3):
        a, b, c = lines[i], lines[j], lines[k]
        if (
            intersection(a, b) == 1
            and intersection(a, c) == 1
            and intersection(b, c) == 1
        ):
            out.append(TritangentTrio((a, b, c)))
    return tuple(out)


@cache
def reference_trio() -> TritangentTrio:
    """The trio {l-e1-e2, l-e3-e4, l-e5-e6} used for the table sweep."""
    classes = (
        (1, -1, -1, 0, 0, 0, 0),
        (1, 0, 0, -1, -1, 0, 0),
        (1, 0, 0, 0, 0, -1, -1),
    )
    return TritangentTrio(classes)


def _cremona_matrix(i: int, j: int, k: int) -> IntMatrix:
    """Quadratic transformation based at {i, j, k}: l -> 2l - ei - ej - ek."""
    cols = {0: [2, 0, 0, 0, 0, 0, 0]}
    for a in (i, j, k):
        cols[0][a] = -1
    for a in (i, j, k):
        col = [1, 0, 0, 0, 0, 0, 0]
        for b in (i, j, k):
            if b != a:
                col[b] = -1
        cols[a] = col
    for a in range(1, 7):
        if a not in (i, j, k):
            cols[a] = [1 if b == a else 0 for b in range(RANK)]
    return IntMatrix.from_columns([cols[a] for a in range(RANK)], rows=RANK)


def _swap_matrix(i: int, j: int) -> IntMatrix:
    cols = []
    for a in range(RANK):
        b = j if a == i else i if a == j else a
        cols.append(_unit(b))
    return IntMatrix.from_columns(cols, rows=RANK)


@cache
def weyl_generator_matrices() -> tuple[IntMatrix, ...]:
    """Adjacent transpositions of e1..e6 plus the Cremona involution at {1,2,3}."""
    gens = [_swap_matrix(i, i + 1) for i in range(1, 6)]
    gens.append(_cremona_matrix(1, 2, 3))
    return tuple(gens)


def matrix_to_line_permutation(m: IntMatrix) -> Perm:
    """Permutation of the 27 lines induced by a lattice automorphism."""
    idx = line_index()
    images = []
    for d in lines27():
        image = m.apply(d)
        if image not in idx:
            raise InconsistentPermutation(f"{image} is not a line class")
        images.append(idx[image])
    if sorted(images) != list(range(27)):
        raise InconsistentPermutation("line images do not form a permutation")
    return tuple(images)


@cache
def weyl_group() -> PermGroup:
    """W(E6) as permutations of the 27 lines; point i is lines27()[i]."""
    return PermGroup(27, [matrix_to_line_permutation(m) for m in weyl_generator_matrices()])


@cache
def _packed_lines() -> tuple[int, ...]:
    return tuple(sum(x << (8 * k) for k, x in enumerate(d)) for d in lines27())


@lru_cache(maxsize=None)
def pic_action(p: Perm) -> IntMatrix:
    """7x7 matrix acting on Pic that induces the given line permutation.

    Reconstructed from the images of e1..e6 and l = (l-e1-e2) + e1 + e2,
    then checked on all 27 lines d in packed integers P(v) = sum v_k 256^k.
    P is linear, and one-to-one on entries below 128 in absolute value; every
    entry of M d is at most 2*6 + 6*2 = 24 in absolute value (|d_0| <= 2,
    |d_k| <= 1; col_0 is a sum of three lines, each other column a line).
    """
    lines, packed = lines27(), _packed_lines()
    # the images of e1..e6 (lines 0..5) and of l-e1-e2 (line 6)
    images = [lines[p[i]] for i in range(7)]
    cols = [tuple(map(sum, zip(images[6], images[0], images[1]))), *images[:6]]
    packed_images = [packed[p[i]] for i in range(7)]
    packed_cols = [packed_images[6] + packed_images[0] + packed_images[1], *packed_images[:6]]
    if not all(sum(map(mul, d, packed_cols)) == packed[p[i]] for i, d in enumerate(lines)):
        raise InconsistentPermutation("permutation does not extend to a lattice automorphism")
    m = IntMatrix.from_columns(cols, rows=RANK)
    if not m.is_unimodular():
        raise InconsistentPermutation("reconstructed action is not unimodular")
    return m


def pic_module(group: PermGroup) -> LatticeGModule:
    """Pic(Xbar) = Z^7 as a module over a subgroup of the Weyl group."""
    return LatticeGModule(
        rank=RANK,
        group=group,
        matrices=tuple(pic_action(g) for g in group.generators),
    )


@cache
def boundary_quotient(components: tuple[DivClass, ...]) -> tuple[IntMatrix, IntMatrix]:
    """(projection, section) of Z^7 ->> Z^7 / <components>, from one Smith form.

    With U A V = S for the 7 x k matrix A of the components, the projection
    is the last 7 - k rows of U and the section the matching columns of
    U^-1, a right inverse of it.  Raises TorsionFound unless every invariant
    factor is 1, which also refuses linearly dependent components.
    """
    k = len(components)
    form = snf(IntMatrix.from_columns(components, rows=RANK))
    if form.diagonal() != (1,) * k:
        raise TorsionFound(f"boundary quotient has torsion: diagonal {form.diagonal()}")
    u_inv = form.U.inverse_unimodular()
    projection = IntMatrix(form.U.data[k:])
    section = IntMatrix.from_columns([u_inv.column(j) for j in range(k, RANK)], rows=RANK)
    return projection, section


@lru_cache(maxsize=None)
def _induced_action(components: tuple[DivClass, ...], g: Perm) -> IntMatrix:
    """projection @ pic_action(g) @ section, once g is seen to stabilize the components.

    A failed check raises, so it is never cached.
    """
    m = pic_action(g)
    if {m.apply(c) for c in components} != set(components):
        raise NotStabilized("group does not stabilize the boundary")
    projection, section = boundary_quotient(components)
    return projection @ m @ section


def quotient_by_trio(trio: TritangentTrio, group: PermGroup) -> LatticeGModule:
    """Pic(Ubar) = Pic(Xbar) / <trio>: the rank-4 module of the subgroup.

    The projection and section come from `boundary_quotient`, once per
    trio, and each generator's induced matrix once per (trio, generator).
    """
    idx = line_index()
    a, b, c = trio.classes
    if not (
        a in idx
        and b in idx
        and c in idx
        and intersection(a, b) == intersection(a, c) == intersection(b, c) == 1
    ):
        raise ValueError("not a tritangent trio")
    induced = tuple(_induced_action(trio.classes, g) for g in group.generators)
    return LatticeGModule(rank=RANK - 3, group=group, matrices=induced)


__all__ = [
    "DivClass",
    "HYPERPLANE",
    "RANK",
    "TritangentTrio",
    "boundary_quotient",
    "intersection",
    "line_index",
    "lines27",
    "matrix_to_line_permutation",
    "pic_action",
    "pic_module",
    "quotient_by_trio",
    "reference_trio",
    "tritangent_trios",
    "weyl_generator_matrices",
    "weyl_group",
]
