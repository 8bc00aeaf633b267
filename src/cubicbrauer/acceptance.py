"""The acceptance suite: one check per acceptance criterion.

Each check returns a CheckResult; the pytest acceptance module asserts
them individually and the CLI --seed-check flag prints the matrix.  The
expected values frozen here are the published table entries.  Where the
computed truth provably differs (the case-2 table, which the sweep finds
to hold five pairs beyond the published seven), each extra pair carries an
explicit witness subgroup in CASE_TWO_WITNESSES that the check re-verifies
by a route independent of the sweep, and the check's report names the
published count next to the witnessed extras.

The second routes to H^1 that checks 2 and 6 run live here, with the
integer kernels, cokernels and solutions that only they read, so the
modules that the user commands import do not carry them.
"""

from __future__ import annotations

import time
from math import gcd
from typing import Callable, NamedTuple

from .arith import is_perfect_square, prime_power
from .brauer import (
    BoundaryDescriptor,
    TablePair,
    algebraic_tables,
    geometric_brauer,
    transcendental_bound,
    twist_invariants,
)
from .cohomology import LatticeGModule, h1_lattice
from .cubiclattice import (
    HYPERPLANE,
    RANK,
    _unit,
    boundary_quotient,
    intersection,
    lines27,
    matrix_to_line_permutation,
    pic_module,
    quotient_by_trio,
    reference_trio,
    tritangent_trios,
    weyl_group,
)
from .errors import (
    BadModulus, CubicBrauerError, InconsistentPermutation, NotStabilized, TorsionFound
)
from .intlinalg import FinAbGroup, IntMatrix, elementary_divisors, snf
from .perms import PermGroup, orbit_count, perm_order, setwise_stabilizer
from .qexamples import searched_example_brauer
from .ratpoly import integral_cubic, parse_coefficients


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str
    elapsed: float


def _group(*factors: int) -> FinAbGroup:
    return FinAbGroup.from_orders(factors)


def _pair(br1: tuple[int, ...], brx: tuple[int, ...]) -> TablePair:
    return TablePair(_group(*br1), _group(*brx))


# The published tables of possibilities for (Br_1(U)/Br(k), Br(X)/Br(k)).
EXPECTED_TABLES: dict[int, frozenset[TablePair]] = {
    1: frozenset(
        [
            _pair((), ()),
            _pair((2,), ()),
            _pair((2,), (2,)),
            _pair((2, 2), ()),
            _pair((2, 2), (2,)),
            _pair((2, 2), (2, 2)),
            _pair((4,), (2,)),
            _pair((3,), (3,)),
            _pair((3, 3), (3, 3)),
        ]
    ),
    2: frozenset(
        [
            _pair((2,), ()),
            _pair((2, 2), ()),
            _pair((2, 2), (2,)),
            _pair((2, 2, 2), (2,)),
            _pair((2, 2, 2), (2, 2)),
            _pair((4,), (2,)),
            _pair((2, 4), (2, 2)),
        ]
    ),
    3: frozenset(
        [
            _pair((), ()),
            _pair((2,), ()),
            _pair((2,), (2,)),
            _pair((2, 2), ()),
            _pair((2, 2), (2,)),
            _pair((2, 2, 2), ()),
            _pair((2, 2, 2), (2,)),
            _pair((2, 2, 2, 2), (2, 2)),
            _pair((4,), (2,)),
            _pair((2, 4), (2,)),
        ]
    ),
}


# -- witnesses for the case-2 pairs beyond the published table ---------------


def _permute_e(*cycles: tuple[int, ...]) -> IntMatrix:
    """The Pic automorphism fixing l and permuting e1..e6 by the given cycles."""
    image = {}
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a] = b
    return IntMatrix.from_columns(
        [_unit(0)] + [_unit(image.get(i, i)) for i in range(1, RANK)], rows=RANK
    )


# rho_1 fixes e1 and sends e2 -> 2l - e2 - ... - e6, e_j -> l - e2 - e_j
# (j = 3..6) and l -> 3l - 2e2 - e3 - e4 - e5 - e6; columns are the images
# of l, e1, ..., e6.
_RHO_1 = IntMatrix.from_columns(
    [
        (3, 0, -2, -1, -1, -1, -1),
        (0, 1, 0, 0, 0, 0, 0),
        (2, 0, -1, -1, -1, -1, -1),
        (1, 0, -1, -1, 0, 0, 0),
        (1, 0, -1, 0, -1, 0, 0),
        (1, 0, -1, 0, 0, -1, 0),
        (1, 0, -1, 0, 0, 0, -1),
    ],
    rows=RANK,
)
# rho_2 is rho_1 with e1 and e2 exchanged.
_RHO_2 = _permute_e((1, 2)) @ _RHO_1 @ _permute_e((1, 2))
# iota sends e_i -> 2l - (e1 + ... + e6) + e_i and l -> 5l - 2(e1 + ... + e6).
_IOTA = IntMatrix.from_columns(
    [(5, -2, -2, -2, -2, -2, -2)]
    + [tuple(2 if j == 0 else 0 if j == i else -1 for j in range(RANK)) for i in range(1, RANK)],
    rows=RANK,
)


class CaseTwoWitness(NamedTuple):
    """An explicit subgroup of W(E6) achieving a case-2 pair.

    ``generators`` act on Pic Xbar in the basis (l, e1, ..., e6); ``order``
    is the order of the group they generate.  The group must stabilize the
    reference trio with two orbits on it, and its (H^1(G, Pic Ubar),
    H^1(G, Pic Xbar)) must be ``pair``.
    """

    pair: TablePair
    order: int
    generators: tuple[IntMatrix, ...]


# One witness for each case-2 pair that the sweep achieves beyond the
# published seven.  The groups are written down by hand, not taken from
# the subgroup enumeration.
CASE_TWO_WITNESSES: tuple[CaseTwoWitness, ...] = (
    CaseTwoWitness(_pair((), ()), 2, (_permute_e((3, 5), (4, 6)),)),
    CaseTwoWitness(_pair((2,), (2,)), 4, (_permute_e((5, 6)), _RHO_1)),
    CaseTwoWitness(_pair((2, 2), (2, 2)), 2, (_RHO_1,)),
    CaseTwoWitness(
        _pair((2, 2, 2), ()),
        16,
        (_permute_e((3, 4), (5, 6)), _permute_e((3, 5), (4, 6)), _RHO_1, _RHO_2),
    ),
    CaseTwoWitness(
        _pair((2, 4), (2,)),
        8,
        (_IOTA @ _permute_e((1, 2), (3, 5, 4, 6)), _permute_e((3, 5), (4, 6))),
    ),
)


# -- second routes to H^1 and the integer linear algebra only they read --------


class NotCyclic(CubicBrauerError):
    """The cyclic cohomology oracle was applied to a module on more than one generator."""


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel of A, as matrix columns.

    The basis spans a primitive (saturated) sublattice: it consists of
    columns of the unimodular V from the Smith form, so the quotient of
    Z^cols by the kernel is torsion-free.
    """
    form = snf(a)
    cols = [form.V.column(j) for j in range(form.rank(), a.cols)]
    return IntMatrix.from_columns(cols, rows=a.cols)


def mod_kernel(a: IntMatrix, n: int) -> list[tuple[int, ...]]:
    """Generators of { x mod n : A x = 0 (mod n) } in (Z/n)^cols.

    Computed exactly as the integer kernel of the augmented matrix
    [A | -n*I] projected to the first block of coordinates.
    """
    if n < 2:
        raise ValueError("modulus must be at least 2")
    aug = IntMatrix.hstack(a, IntMatrix.identity(a.rows).scaled(-n))
    basis = kernel_basis(aug)
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for j in range(basis.cols):
        vec = tuple(x % n for x in basis.column(j)[: a.cols])
        if any(vec) and vec not in seen:
            seen.add(vec)
            out.append(vec)
    return out


def cokernel_structure(a: IntMatrix) -> FinAbGroup:
    """Isomorphism type of Z^rows / (column span of A)."""
    diag = elementary_divisors(a)
    r = sum(1 for d in diag if d != 0)
    # the Smith diagonal is a divisibility chain, so its entries above 1 are
    # already the invariant factors
    return FinAbGroup(a.rows - r, tuple(d for d in diag if d > 1))


def solve_columns(a: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """Solve A @ X = B over Z; None if there is no integral solution.

    A may be rank-deficient: the coordinates beyond its rank in the Smith
    basis are free and are set to 0.
    """
    form = snf(a)
    diag = form.diagonal()
    rank = form.rank()
    ub = form.U @ b
    if any(ub.data[i][j] for i in range(rank, a.rows) for j in range(b.cols)):
        return None
    z_rows = []
    for i in range(rank):
        row = []
        for j in range(b.cols):
            q, r = divmod(ub.data[i][j], diag[i])
            if r:
                return None
            row.append(q)
        z_rows.append(row)
    z_rows.extend([0] * b.cols for _ in range(rank, a.cols))
    return form.V @ IntMatrix(z_rows)


def h1_cyclic_oracle(module: LatticeGModule) -> FinAbGroup:
    """Independent H^1 for G = <s> on one generator: ker(Norm) / image(s - 1).

    Raises NotCyclic when the module has more than one generator, even if
    they generate a cyclic group: rebuild it on one element of full order.
    """
    if len(module.matrices) > 1:
        raise NotCyclic("the module has more than one generator")
    if not module.matrices:
        return FinAbGroup.trivial()
    (a,) = module.matrices
    order = perm_order(module.group.generators[0])
    ident = IntMatrix.identity(module.rank)
    norm = ident
    power = ident
    for _ in range(order - 1):
        power = power @ a
        norm = norm + power
    ker_norm = kernel_basis(norm)
    if ker_norm.cols == 0:
        return FinAbGroup.trivial()
    coords = solve_columns(ker_norm, a - ident)
    if coords is None:
        raise AssertionError("image(s - 1) must lie in ker(Norm)")
    result = cokernel_structure(coords)
    if result.free_rank:
        raise AssertionError("ker(Norm)/image(s-1) is finite for a lattice module")
    return result


def _h1_by_annihilator(matrices: tuple[IntMatrix, ...], rank: int, n: int) -> FinAbGroup:
    """H^1(G, Z^rank) = (M/nM)^G / image(M^G) for n = |G|, G = <matrices>.

    |G| kills H^1 (corestriction-restriction), so the long exact sequence of
    0 -> M -n-> M -> M/nM -> 0 gives the formula.  The exponent of G is not
    a valid n in general: the trio stabilizer contains Klein four-groups
    whose H^1 on the boundary quotient is Z/2 x Z/4.  This route shares
    only the intlinalg primitives with h1_lattice.
    """
    if not matrices or n == 1 or rank == 0:
        return FinAbGroup.trivial()
    ident = IntMatrix.identity(rank)
    stacked = IntMatrix.vstack(*[m - ident for m in matrices])
    invariant_gens = mod_kernel(stacked, n)  # generators of (M/nM)^G
    k = len(invariant_gens)
    kmat = IntMatrix.from_columns(invariant_gens, rows=rank)
    fixed = kernel_basis(stacked)  # basis of M^G
    # Relations among the generators: K x lies in  image(M^G) + n Z^rank.
    relations = kernel_basis(IntMatrix.hstack(kmat, fixed, ident.scaled(n)))
    result = cokernel_structure(IntMatrix(relations.data[:k]))
    if result.free_rank:
        raise AssertionError("H^1 of a finite group with lattice coefficients is finite")
    return result


def verify_case_two_witness(witness: CaseTwoWitness) -> list[str]:
    """What fails when one witness is re-derived from its generators.

    Checks that every generator is an isometry of Pic fixing the hyperplane
    class and permuting the 27 lines, that the group has the stated order,
    stabilizes the reference trio with two orbits on it, and gives the
    stated pair by the |G|-annihilator route (and, when the group is cyclic,
    by the ker(Norm)/im(s - 1) oracle on one element of full order).  An
    empty list means it holds.
    """
    problems = []
    perms = []
    basis = [_unit(i) for i in range(RANK)]
    for m in witness.generators:
        if any(
            intersection(m.apply(u), m.apply(v)) != intersection(u, v)
            for u in basis
            for v in basis
        ):
            problems.append(f"{m} does not preserve the intersection form")
        if m.apply(HYPERPLANE) != HYPERPLANE:
            problems.append(f"{m} moves the hyperplane class")
        try:
            perms.append(matrix_to_line_permutation(m))
        except InconsistentPermutation as exc:
            problems.append(f"{m}: {exc}")
    if problems:
        return problems
    group = PermGroup(27, perms)
    if group.order() != witness.order:
        problems.append(f"group order {group.order()}, stated {witness.order}")
    trio = reference_trio()
    try:
        orbits = orbit_count(group, set(trio.indices))
    except NotStabilized:
        return problems + ["does not stabilize the reference trio"]
    if orbits != 2:
        problems.append(f"{orbits} orbits on the reference trio")
    quotient = quotient_by_trio(trio, group)
    found = TablePair(
        _h1_by_annihilator(quotient.matrices, quotient.rank, group.order()),
        _h1_by_annihilator(witness.generators, RANK, group.order()),
    )
    if found != witness.pair:
        problems.append(f"annihilator route gives ({found.br1}, {found.brx})")
    full = next((p for p in group.elements() if perm_order(p) == group.order()), None)
    if full is not None:
        cyclic = PermGroup(27, [full])
        oracle = TablePair(
            h1_cyclic_oracle(quotient_by_trio(trio, cyclic)),
            h1_cyclic_oracle(pic_module(cyclic)),
        )
        if oracle != witness.pair:
            problems.append(f"cyclic oracle gives ({oracle.br1}, {oracle.brx})")
    return problems


# The (d, n) grid of criterion 4.
TWIST_GRID_D = (-1, -3, 2, -2, 5, -5)
TWIST_GRID_N = (2, 4, 8, 16, 3, 9, 27, 5, 25, 7, 49)


def expected_twist(d: int, n: int) -> FinAbGroup:
    """The Galois-invariant table over Q for prime powers n.

    Z/4 exactly for d = -1 at n = 2^i (i >= 2); Z/2 for every other
    2-power; Z/3 exactly for d = -3 at 3-powers; 0 at all other odd
    prime powers.  (Every cell is cross-checked against a listing of the
    whole Galois group in the acceptance run.)
    """
    if n % 2 == 0:
        if d == -1 and n % 4 == 0:
            return _group(4)
        return _group(2)
    if n % 3 == 0:
        return _group(3) if d == -3 else _group()
    return _group()


def check_lattice_combinatorics() -> CheckResult:
    t0 = time.perf_counter()
    problems = []
    lines = lines27()
    if len(lines) != 27:
        problems.append(f"{len(lines)} lines")
    if not all(
        intersection(d, d) == -1 and intersection(d, HYPERPLANE) == 1 for d in lines
    ):
        problems.append("line invariants fail")
    trios = tritangent_trios()
    if len(trios) != 45:
        problems.append(f"{len(trios)} trios")
    w = weyl_group()
    if w.order() != 51840:
        problems.append(f"|W| = {w.order()}")
    stab = setwise_stabilizer(w, set(reference_trio().indices))
    if stab.order() != 1152:
        problems.append(f"|stab| = {stab.order()}")
    detail = "27 lines, 45 trios, |W| = 51840, trio stabilizer 1152"
    return CheckResult(
        "1 lattice combinatorics",
        not problems,
        "; ".join(problems) or detail,
        time.perf_counter() - t0,
    )


def _pair_list(pairs) -> str:
    return str([f"({p.br1}, {p.brx})" for p in sorted(pairs, key=TablePair.sort_key)])


def check_algebraic_tables() -> CheckResult:
    """Cases 1 and 3 as published; case 2 as published plus witnessed extras.

    Case 2 passes when the computed set contains the seven published pairs
    and every further pair is one of CASE_TWO_WITNESSES (and each witness
    is achieved), with every witness re-verified independently.
    """
    t0 = time.perf_counter()
    notes = []
    ok = True
    for case in (1, 2, 3):
        computed = set(algebraic_tables(case))
        expected = EXPECTED_TABLES[case]
        extra = computed - expected
        missing = expected - computed
        witnessed = {w.pair for w in CASE_TWO_WITNESSES} if case == 2 else set()
        if missing or extra != witnessed:
            ok = False
            faults = [
                f"{label} {_pair_list(pairs)}"
                for label, pairs in (
                    ("missing", missing),
                    ("unwitnessed extra", extra - witnessed),
                    ("witnessed but not computed", witnessed - extra),
                )
                if pairs
            ]
            notes.append(
                f"case {case}: computed {len(computed)} vs published {len(expected)}; "
                + "; ".join(faults)
            )
        elif extra:
            notes.append(
                f"case {case}: {len(computed)} pairs = published {len(expected)}"
                f" + {len(extra)} witnessed extras {_pair_list(extra)}"
            )
        else:
            notes.append(f"case {case}: {len(computed)} pairs match")
    for witness in CASE_TWO_WITNESSES:
        problems = verify_case_two_witness(witness)
        if problems:
            ok = False
            pair = witness.pair
            notes.append(f"witness ({pair.br1}, {pair.brx}): {'; '.join(problems)}")
    return CheckResult("2 algebraic tables", ok, "; ".join(notes), time.perf_counter() - t0)


def check_torsion_freeness() -> CheckResult:
    t0 = time.perf_counter()
    line_conics = [(d, tuple(h - x for h, x in zip(HYPERPLANE, d))) for d in lines27()]
    bad = []
    for components in line_conics + [trio.classes for trio in tritangent_trios()]:
        try:
            boundary_quotient(components)
        except TorsionFound:
            bad.append(components)
    ok = not bad
    detail = "27 line+conic and 45 trio quotients all torsion-free"
    return CheckResult(
        "3 torsion-freeness",
        ok,
        detail if ok else f"torsion found: {bad[:3]}",
        time.perf_counter() - t0,
    )


def check_twist_table() -> CheckResult:
    t0 = time.perf_counter()
    failures = []
    for d in TWIST_GRID_D:
        for n in TWIST_GRID_N:
            got = twist_invariants(d, n)
            want = expected_twist(d, n)
            if got != want:
                failures.append(f"(d={d}, n={n}): {got} != {want}")
    detail = f"all {len(TWIST_GRID_D) * len(TWIST_GRID_N)} grid cells match"
    return CheckResult(
        "4 twisted invariants",
        not failures,
        detail if not failures else "; ".join(failures[:5]),
        time.perf_counter() - t0,
    )


def check_examples_end_to_end() -> CheckResult:
    t0 = time.perf_counter()
    cases = [
        ("-2,-2,1,1", _group(2)),
        ("1,1,1,1", _group(4)),
        ("3,3,1,1", _group(2, 3)),
    ]
    notes = []
    ok = True
    for text, want in cases:
        cubic = integral_cubic(parse_coefficients(text))
        try:
            outcome, _, got = searched_example_brauer(cubic, 20)
        except CubicBrauerError as exc:
            ok = False
            notes.append(f"{text}: {exc}")
            continue
        if got != want:
            ok = False
            notes.append(f"{text}: {got} != {want}")
        else:
            notes.append(f"{text}: a={outcome.a} -> {got}")
    return CheckResult("5 examples over Q", ok, "; ".join(notes), time.perf_counter() - t0)


def _cyclic_subgroup_generators(group: PermGroup) -> list:
    """One generator per distinct cyclic subgroup of the given group."""
    seen: set[frozenset] = set()
    gens = []
    for p in group.elements():
        sub = frozenset(_powers(p))
        if sub not in seen:
            seen.add(sub)
            gens.append(p)
    return gens


def _powers(p) -> list:
    out = [p]
    n = len(p)
    ident = tuple(range(n))
    current = p
    while current != ident:
        current = tuple(p[i] for i in current)
        out.append(current)
    return out


def check_oracle_equivalence() -> CheckResult:
    t0 = time.perf_counter()
    trio = reference_trio()
    stab = setwise_stabilizer(weyl_group(), set(trio.indices))
    mismatches = []
    count = 0
    for g in _cyclic_subgroup_generators(stab):
        cyclic = PermGroup(27, [g])
        modules = [pic_module(cyclic), quotient_by_trio(trio, cyclic)]
        for module in modules:
            count += 1
            a = h1_lattice(module)
            b = h1_cyclic_oracle(module)
            if a != b:
                mismatches.append((g, module.rank, str(a), str(b)))
    detail = f"{count} cyclic-module cases agree"
    return CheckResult(
        "6 cyclic oracle equivalence",
        not mismatches,
        detail if not mismatches else f"{len(mismatches)} mismatches, e.g. {mismatches[0]}",
        time.perf_counter() - t0,
    )


def _published_bound(boundary: BoundaryDescriptor) -> FinAbGroup:
    """The published bound: 0, Z/2, Z/4 (d ~ -1) or Z/6 (d ~ -3)."""
    geometric = geometric_brauer(boundary)
    if geometric.kind == "zero":
        return _group()
    if geometric.kind == "full_twist":
        return _group(2)
    if geometric.d == -1:
        return _group(4)
    if geometric.d == -3:
        return _group(2, 3)
    return _group(2)


def _listed_bound(boundary: BoundaryDescriptor, failures: list[str]) -> FinAbGroup:
    """The bound as the listed levels at 4 and 3, checked equal at 8 and 9, summed.

    The full twist Q/Z(-1) is listed as M_1: every t fixes sqrt(1).
    """
    geometric = geometric_brauer(boundary)
    if geometric.kind == "zero":
        return _group()
    d = 1 if geometric.kind == "full_twist" else geometric.d
    at4, at8, at3, at9 = (twist_invariants_by_listing(d, n) for n in (4, 8, 3, 9))
    if (at4, at3) != (at8, at9):
        failures.append(f"M_{d}: {at4} + {at3} at 4 and 3, {at8} + {at9} at 8 and 9")
    return at4.direct_sum(at3)


def check_classifier_consistency() -> CheckResult:
    t0 = time.perf_counter()
    catalog = [
        BoundaryDescriptor("line_conic", "tangent"),
        BoundaryDescriptor("line_conic", "two_rational"),
        BoundaryDescriptor("irreducible", "cuspidal"),
        BoundaryDescriptor("irreducible", "nodal_split"),
        BoundaryDescriptor("three_lines", "trivial"),
        BoundaryDescriptor("three_lines", "c3"),
        BoundaryDescriptor("three_lines", "trivial", eckardt=True),
        BoundaryDescriptor("three_lines", "c3", eckardt=True),
    ]
    for d in (-1, -3, 2, -2, 5, -5, 6, -6, 7, 10):
        catalog.append(BoundaryDescriptor("line_conic", "quadratic", d=d))
        catalog.append(BoundaryDescriptor("irreducible", "nodal_nonsplit", d=d))
        catalog.append(BoundaryDescriptor("three_lines", "c2", d=d))
        catalog.append(BoundaryDescriptor("three_lines", "s3", d=d))
        catalog.append(BoundaryDescriptor("three_lines", "s3", d=d, eckardt=True))
    failures = []
    realized = set()
    for boundary in catalog:
        got = transcendental_bound(boundary)
        for want in (_published_bound(boundary), _listed_bound(boundary, failures)):
            if got != want:
                failures.append(f"{boundary}: {got} != {want}")
        if geometric_brauer(boundary).kind != "zero":
            realized.add(got.invariant_factors)
    # among subgroups of Z/6 only Z/2 and Z/6 ever occur (and Z/4 separately)
    if not realized <= {(2,), (4,), (6,)}:
        failures.append(f"unexpected invariant values {realized}")
    detail = f"{len(catalog)} descriptors: bound matches the published table"
    return CheckResult(
        "8 classifier consistency",
        not failures,
        detail if not failures else "; ".join(failures[:5]),
        time.perf_counter() - t0,
    )


def _cyclotomic_class(d: int, n: int) -> tuple[int, int | None]:
    """The prime p of a prime power n, and the class c of sqrt(d) in Q(zeta_n).

    Quadratic subfields of prime-power cyclotomic fields: Q(i) inside
    Q(zeta_{2^i}) for i >= 2, and Q(sqrt(+-2)) for i >= 3; for odd p the
    unique one is Q(sqrt(p*)) with p* = (-1)^((p-1)/2) p.  So c is the one
    of 1, -1, 2, -2, p* in Q(zeta_n) with c * d a square, or None when
    sqrt(d) is not in Q(zeta_n); deciding it takes square tests, not factoring.
    """
    pp = prime_power(n)
    if pp is None:
        raise BadModulus(f"{n} is not a prime power")
    p, _ = pp
    if p == 2:
        classes = (1, -1, 2, -2) if n % 8 == 0 else (1, -1) if n % 4 == 0 else (1,)
    else:
        classes = (1, p if p % 4 == 1 else -p)
    return p, next((c for c in classes if is_perfect_square(c * d)), None)


def _fixes_sqrt_d(c: int, t: int, p: int) -> bool:
    """Whether the cyclotomic automorphism zeta -> zeta^t fixes sqrt(d).

    Only valid when sqrt(d) lies in Q(zeta_{p^k}), in the class c found by
    _cyclotomic_class; decided by congruence conditions on t (closed forms
    for the quadratic subfields).
    """
    if c == 1:
        return True
    if c == -1:
        return t % 4 == 1
    if c == 2:
        return t % 8 in (1, 7)
    if c == -2:
        return t % 8 in (1, 3)
    return pow(t, (p - 1) // 2, p) == 1  # Euler's criterion: t is a square mod p


def twist_invariants_by_listing(d: int, n: int) -> FinAbGroup:
    """Twisted invariants over Q by listing Gal(Q(zeta_n, sqrt d)/Q).

    Every unit t of Z/n gives the scalars eps * t^{-1}: both signs eps when
    sqrt(d) is not in Q(zeta_n), the sign of t's action on sqrt(d) when it
    is.  The m in Z/n fixed by every scalar form a subgroup of the cyclic
    group Z/n, so the invariants are Z/(their count).  A square d gives the
    full twist Q/Z(-1).  This shares no code with ``brauer``'s closed forms.
    """
    p, c = _cyclotomic_class(d, n)
    scalars = set()
    for t in range(1, n):
        if gcd(t, n) != 1:
            continue
        signs = (1, -1) if c is None else ((1 if _fixes_sqrt_d(c, t, p) else -1),)
        scalars.update(eps * pow(t, -1, n) % n for eps in signs)
    count = sum(1 for m in range(n) if all((a * m - m) % n == 0 for a in scalars))
    return FinAbGroup.from_orders([count])


def check_twist_enumeration_oracle() -> CheckResult:
    """Criterion-4 companion: every grid cell by listing the Galois group."""
    t0 = time.perf_counter()
    cells = [(d, n) for d in TWIST_GRID_D for n in TWIST_GRID_N]
    failures = [
        (d, n) for d, n in cells if twist_invariants_by_listing(d, n) != twist_invariants(d, n)
    ]
    return CheckResult(
        "4b twist enumeration oracle",
        not failures,
        f"closed form and element listing agree on all {len(cells)} grid cells"
        if not failures
        else f"mismatch at {failures[:5]}",
        time.perf_counter() - t0,
    )


ALL_CHECKS: list[Callable[[], CheckResult]] = [
    check_lattice_combinatorics,
    check_algebraic_tables,
    check_torsion_freeness,
    check_twist_table,
    check_twist_enumeration_oracle,
    check_examples_end_to_end,
    check_oracle_equivalence,
    check_classifier_consistency,
]


def run_all() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


__all__ = [
    "ALL_CHECKS",
    "CASE_TWO_WITNESSES",
    "CaseTwoWitness",
    "CheckResult",
    "EXPECTED_TABLES",
    "NotCyclic",
    "TWIST_GRID_D",
    "TWIST_GRID_N",
    "cokernel_structure",
    "expected_twist",
    "h1_cyclic_oracle",
    "kernel_basis",
    "mod_kernel",
    "run_all",
    "solve_columns",
    "twist_invariants_by_listing",
    "verify_case_two_witness",
]
