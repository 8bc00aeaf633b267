"""Boundary classifiers, twisted invariants, and the possibility tables."""

from __future__ import annotations

import json

import pytest
from oracles import span_mod

from cubicbrauer import acceptance, arith
from cubicbrauer.acceptance import mod_kernel, twist_invariants_by_listing
from cubicbrauer.brauer import (
    BoundaryDescriptor,
    TablePair,
    algebraic_tables,
    geometric_brauer,
    table_sweep_entries,
    transcendental_bound,
    twist_invariants,
)
from cubicbrauer.errors import BadModulus
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix


def G(*orders):
    return FinAbGroup.from_orders(orders)


# -- descriptors -------------------------------------------------------------


def test_descriptor_validation():
    with pytest.raises(ValueError):
        BoundaryDescriptor("line_conic", "quadratic")  # missing d
    with pytest.raises(ValueError):
        BoundaryDescriptor("line_conic", "tangent", d=5)  # d not allowed
    with pytest.raises(ValueError):
        BoundaryDescriptor("line_conic", "quadratic", d=4)  # square class trivial
    with pytest.raises(ValueError):
        BoundaryDescriptor("irreducible", "cuspidal", eckardt=True)
    # d is normalized to its squarefree representative
    assert BoundaryDescriptor("three_lines", "c2", d=8).d == 2
    assert BoundaryDescriptor("three_lines", "c2", d=-12).d == -3


@pytest.mark.parametrize(
    "descriptor",
    [
        BoundaryDescriptor("line_conic", "tangent"),
        BoundaryDescriptor("line_conic", "two_rational"),
        BoundaryDescriptor("line_conic", "quadratic", d=5),
        BoundaryDescriptor("irreducible", "cuspidal"),
        BoundaryDescriptor("irreducible", "nodal_split"),
        BoundaryDescriptor("irreducible", "nodal_nonsplit", d=-1),
        BoundaryDescriptor("three_lines", "trivial"),
        BoundaryDescriptor("three_lines", "c2", d=2),
        BoundaryDescriptor("three_lines", "c3", eckardt=True),
        BoundaryDescriptor("three_lines", "s3", d=-3),
    ],
)
def test_descriptor_json_roundtrip(descriptor):
    assert BoundaryDescriptor.from_json(descriptor.to_json()) == descriptor
    assert BoundaryDescriptor.from_json(json.dumps(descriptor.to_json())) == descriptor


def test_descriptor_json_reads_integral_d_as_before():
    for d in (12, "12", "-27"):
        boundary = BoundaryDescriptor.from_json({"type": "three_lines", "galois": {"s3": d}})
        assert boundary.d == (3 if d != "-27" else -3)


@pytest.mark.parametrize(
    "d",
    # a float is refused even when integral: 12345678901234567891.0 reads as
    # 12345678901234567168, and -3.0000000000000001 as -3.0
    [True, 1.5, None, [5], "five", float("inf"), 12345678901234567891.0, -3.0000000000000001],
)
def test_descriptor_json_refuses_a_non_integral_d(d):
    with pytest.raises(ValueError, match="galois: d must be an integer"):
        BoundaryDescriptor.from_json({"type": "three_lines", "galois": {"c2": d}})


@pytest.mark.parametrize("d", ["1_2", " 12 ", "\u0661\u0662", "+12", "-", ""])
def test_descriptor_json_refuses_a_d_string_beyond_ascii_digits(d):
    with pytest.raises(ValueError, match="galois: d must be an integer"):
        BoundaryDescriptor.from_json({"type": "three_lines", "galois": {"c2": d}})


def test_geometric_brauer_case_table():
    rows = [
        (BoundaryDescriptor("line_conic", "tangent"), "zero", None),
        (BoundaryDescriptor("line_conic", "two_rational"), "full_twist", None),
        (BoundaryDescriptor("line_conic", "quadratic", d=5), "d_twist", 5),
        (BoundaryDescriptor("irreducible", "cuspidal"), "zero", None),
        (BoundaryDescriptor("irreducible", "nodal_split"), "full_twist", None),
        (BoundaryDescriptor("irreducible", "nodal_nonsplit", d=5), "d_twist", 5),
        (BoundaryDescriptor("three_lines", "trivial"), "full_twist", None),
        (BoundaryDescriptor("three_lines", "c3"), "full_twist", None),
        (BoundaryDescriptor("three_lines", "c2", d=7), "d_twist", 7),
        (BoundaryDescriptor("three_lines", "s3", d=-1), "d_twist", -1),
        (BoundaryDescriptor("three_lines", "s3", d=-1, eckardt=True), "zero", None),
        (BoundaryDescriptor("three_lines", "trivial", eckardt=True), "zero", None),
    ]
    for boundary, kind, d in rows:
        result = geometric_brauer(boundary)
        assert (result.kind, result.d) == (kind, d)


# -- twisted invariants -------------------------------------------------------


def test_cyclotomic_class():
    """The listing route's test of whether sqrt(d) lies in Q(zeta_n), and in which class."""

    def sqrt_in_cyclotomic(d, n):
        return acceptance._cyclotomic_class(d, n)[1] is not None

    assert sqrt_in_cyclotomic(-1, 4) and sqrt_in_cyclotomic(-1, 8)
    assert not sqrt_in_cyclotomic(-1, 2)
    assert sqrt_in_cyclotomic(2, 8) and sqrt_in_cyclotomic(-2, 8)
    assert not sqrt_in_cyclotomic(2, 4)
    assert sqrt_in_cyclotomic(-3, 3) and sqrt_in_cyclotomic(-3, 9)
    assert sqrt_in_cyclotomic(5, 5) and sqrt_in_cyclotomic(5, 25)
    assert not sqrt_in_cyclotomic(-5, 5)
    assert sqrt_in_cyclotomic(-7, 7)
    assert acceptance._cyclotomic_class(-8, 16) == (2, -2)
    assert acceptance._cyclotomic_class(-12, 27) == (3, -3)
    assert acceptance._cyclotomic_class(4, 2) == (2, 1)  # a square d: the full twist
    with pytest.raises(BadModulus):
        sqrt_in_cyclotomic(2, 12)


def test_twist_invariants_published_values():
    assert twist_invariants(-1, 4) == G(4)
    assert twist_invariants(-3, 3) == G(3)
    assert twist_invariants(5, 4) == G(2)
    assert twist_invariants(5, 25) == G()


def test_twist_invariants_bad_modulus():
    with pytest.raises(BadModulus):
        twist_invariants(5, 12)
    with pytest.raises(ValueError):
        twist_invariants(1, 4)


def test_twist_square_class_invariance():
    for d, m in ((-1, 2), (5, 3), (-3, 5), (2, 6)):
        for n in (2, 4, 8, 3, 9, 5):
            assert twist_invariants(d, n) == twist_invariants(d * m * m, n)


def test_twist_invariants_never_factor(monkeypatch):
    """Square classes are decided by square tests, so a d near 10^40 answers."""

    def refuse(n):
        raise AssertionError("twist_invariants factored")

    trivial, z2, z3, z4 = G(), G(2), G(3), G(4)
    monkeypatch.setattr(arith, "_trial_divide", refuse)
    m = 10**20 + 39
    d = 10**40 + 1  # not a square, and not in any class below
    for n in (2, 4, 8, 3, 9, 5, 7):
        assert twist_invariants(d, n) == (z2 if n % 2 == 0 else trivial), n
    assert twist_invariants(-(m**2), 4) == z4
    assert twist_invariants(-2 * m**2, 8) == z2
    assert twist_invariants(-3 * m**2, 9) == z3
    assert twist_invariants(5 * m**2, 25) == trivial
    with pytest.raises(ValueError):
        twist_invariants(m**2, 4)
    with pytest.raises(ValueError):
        twist_invariants(0, 4)


def test_twist_stabilization():
    for d in (-1, -3, 2, -2, 5, -5):
        assert twist_invariants(d, 4) == twist_invariants(d, 8) == twist_invariants(d, 16)
        assert twist_invariants(d, 3) == twist_invariants(d, 9)
    for p in (5, 7, 11):
        for d in (-1, -3, 5):
            assert twist_invariants(d, p) == G()
            assert twist_invariants(d, p * p) == G()


def test_twist_against_enumeration():
    """The closed form against a listing of the whole Galois group."""
    classes = (-1, 2, -2, -3, 5, -7, 3, -5, 6, -6, 7, 10, -11, 13)
    moduli = (2, 4, 8, 16, 32, 64, 128, 3, 9, 27, 81, 243, 5, 25, 125, 7, 49)
    for d in classes:
        for n in moduli:
            assert twist_invariants(d, n) == twist_invariants_by_listing(d, n), (d, n)


def test_transcendental_bound_values():
    assert transcendental_bound(BoundaryDescriptor("three_lines", "s3", d=-1)) == G(4)
    assert transcendental_bound(BoundaryDescriptor("three_lines", "s3", d=-3)) == G(2, 3)
    assert transcendental_bound(BoundaryDescriptor("line_conic", "tangent")) == G()
    assert transcendental_bound(BoundaryDescriptor("line_conic", "two_rational")) == G(2)
    assert transcendental_bound(BoundaryDescriptor("irreducible", "nodal_nonsplit", d=2)) == G(2)
    assert transcendental_bound(BoundaryDescriptor("three_lines", "c3", eckardt=True)) == G()


def test_transcendental_bound_against_the_listed_levels():
    """The closed bound against the listing route's levels at 4 = 8 and 3 = 9, summed."""
    for d in range(-100, 101):
        if arith.is_rational_square(d):
            continue
        levels = [twist_invariants_by_listing(d, n) for n in (4, 8, 3, 9)]
        assert levels[0] == levels[1] and levels[2] == levels[3], d
        listed = levels[0].direct_sum(levels[2])
        # the second descriptor keeps d as given, so the closed form sees -4, -12 or -27
        for boundary in (
            BoundaryDescriptor("three_lines", "c2", d=d),
            BoundaryDescriptor._of_squarefree("three_lines", "c2", d),
        ):
            assert transcendental_bound(boundary) == listed, d
    assert transcendental_bound(BoundaryDescriptor("three_lines", "c2", d=-4)) == G(4)
    assert transcendental_bound(BoundaryDescriptor("three_lines", "c2", d=-12)) == G(2, 3)
    assert transcendental_bound(BoundaryDescriptor("three_lines", "c2", d=-27)) == G(2, 3)


def test_realized_bounds_among_subgroups_of_z6():
    # among the subgroups of Z/2 x Z/3 only Z/2 and the full group occur
    values = set()
    for d in (-1, -3, 2, -2, 5, -5, 6, -6, 7, 10, -10, 11):
        bound = transcendental_bound(BoundaryDescriptor("three_lines", "c2", d=d))
        values.add(bound.invariant_factors)
    assert values == {(2,), (4,), (6,)}
    assert (3,) not in values and () not in values


def test_residue_kernel():
    """The kernel of (a, b, c) -> (c - b, a - c, b - a) on (Z/n)^3 is the diagonal {(k, k, k)}."""
    triangle = IntMatrix([[0, -1, 1], [1, 0, -1], [-1, 1, 0]])
    for n in range(2, 31):
        assert span_mod(mod_kernel(triangle, n), n, 3) == {(k, k, k) for k in range(n)}


# -- the possibility tables ---------------------------------------------------


def pair(br1, brx):
    return TablePair(G(*br1), G(*brx))


def test_tables_case_one_matches_published():
    assert set(algebraic_tables(1)) == {
        pair((), ()),
        pair((2,), ()),
        pair((2,), (2,)),
        pair((2, 2), ()),
        pair((2, 2), (2,)),
        pair((2, 2), (2, 2)),
        pair((4,), (2,)),
        pair((3,), (3,)),
        pair((3, 3), (3, 3)),
    }


def test_tables_case_three_matches_published():
    assert set(algebraic_tables(3)) == {
        pair((), ()),
        pair((2,), ()),
        pair((2,), (2,)),
        pair((2, 2), ()),
        pair((2, 2), (2,)),
        pair((2, 2, 2), ()),
        pair((2, 2, 2), (2,)),
        pair((2, 2, 2, 2), (2, 2)),
        pair((4,), (2,)),
        pair((2, 4), (2,)),
    }


def test_tables_case_two_computed_set_documented():
    """The sweep provably achieves five pairs beyond the published seven.

    The extra (0, 0) has an elementary witness: the involution
    (e1 e3)(e2 e4) swaps two trio lines and fixes the third, the quotient
    lattice splits as Z^2 + Z[C2], and both H^1 groups vanish.  Every extra
    pair has an explicit witness subgroup in
    cubicbrauer.acceptance.CASE_TWO_WITNESSES, re-verified by criterion 2
    against the published table.
    """
    computed = set(algebraic_tables(2))
    published = {
        pair((2,), ()),
        pair((2, 2), ()),
        pair((2, 2), (2,)),
        pair((2, 2, 2), (2,)),
        pair((2, 2, 2), (2, 2)),
        pair((4,), (2,)),
        pair((2, 4), (2, 2)),
    }
    extras = {
        pair((), ()),
        pair((2,), (2,)),
        pair((2, 2), (2, 2)),
        pair((2, 2, 2), ()),
        pair((2, 4), (2,)),
    }
    assert published <= computed
    assert computed == published | extras


def test_case_two_zero_zero_witness_by_hand():
    """Raw-cocycle verification of the extra case-2 pair (0, 0)."""
    from cubicbrauer.cohomology import h1_lattice
    from cubicbrauer.cubiclattice import (
        matrix_to_line_permutation,
        pic_module,
        quotient_by_trio,
        reference_trio,
    )
    from cubicbrauer.perms import PermGroup, orbit_count

    swap_cols = [
        (1, 0, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 0),
        (0, 0, 0, 0, 0, 0, 1),
    ]
    tau = matrix_to_line_permutation(IntMatrix.from_columns(swap_cols, rows=7))
    group = PermGroup(27, [tau])
    trio = reference_trio()
    assert orbit_count(group, set(trio.indices)) == 2
    assert h1_lattice(pic_module(group)) == G()
    assert h1_lattice(quotient_by_trio(trio, group)) == G()


def test_sweep_covers_all_cases():
    entries = table_sweep_entries()
    assert len(entries) == 246
    assert {e.orbits for e in entries} == {1, 2, 3}
    assert all(e.pair.br1.free_rank == 0 and e.pair.brx.free_rank == 0 for e in entries)


def test_tables_requires_valid_case():
    with pytest.raises(ValueError):
        algebraic_tables(4)


def test_tables_compute_only_their_case(monkeypatch):
    """Each case computes H^1 for its own classes only, and no class twice.

    The 246 classes split 78, 120 and 48 over the cases 1, 2 and 3, with two
    H^1 calls (Pic Xbar and Pic Ubar) per class.
    """
    from cubicbrauer import brauer, cohomology

    calls = []
    real = cohomology.h1_lattice

    def counting(module):
        calls.append(module)
        return real(module)

    monkeypatch.setattr(cohomology, "h1_lattice", counting)
    brauer._stabilizer_classes.cache_clear()
    brauer._sweep_entry.cache_clear()
    with pytest.raises(ValueError):
        algebraic_tables(4)
    assert calls == [] and brauer._stabilizer_classes.cache_info().currsize == 0
    algebraic_tables(3)
    assert len(calls) == 96
    assert brauer.sweep_class_count() == 246 and len(calls) == 96
    algebraic_tables(1)
    assert len(calls) == 96 + 156
    algebraic_tables(2)
    assert len(calls) == 96 + 156 + 240
    assert len(table_sweep_entries()) == 246 and len(calls) == 492


def test_tables_independent_of_trio_choice():
    """The sweep over a different trio's stabilizer gives the same sets.

    W(E6) is transitive on trios, so this is forced; a mismatch would
    expose a bug in the stabilizer, enumeration, or quotient machinery.
    """
    from cubicbrauer.cohomology import h1_lattice
    from cubicbrauer.cubiclattice import pic_module, quotient_by_trio, tritangent_trios, weyl_group
    from cubicbrauer.perms import orbit_count, setwise_stabilizer, subgroup_classes

    other = tritangent_trios()[7]
    stab = setwise_stabilizer(weyl_group(), set(other.indices))
    assert stab.order() == 1152
    buckets = {1: set(), 2: set(), 3: set()}
    for cls in subgroup_classes(stab):
        sub = cls.group
        pair = TablePair(
            h1_lattice(quotient_by_trio(other, sub)),
            h1_lattice(pic_module(sub)),
        )
        buckets[orbit_count(sub, set(other.indices))].add(pair)
    for case in (1, 2, 3):
        assert buckets[case] == set(algebraic_tables(case))


def test_case_two_extras_have_cyclic_oracle_witnesses(trio_stabilizer, stabilizer_classes):
    """Two extra case-2 pairs come from order-2 subgroups.

    For cyclic groups the classical ker(Norm)/im(sigma - 1) description is
    an independent route to H^1; it confirms both (0, 0) and the diagonal
    (Z/2 x Z/2, Z/2 x Z/2) are achieved with two orbits on the lines.
    """
    from cubicbrauer.acceptance import h1_cyclic_oracle
    from cubicbrauer.cubiclattice import pic_module, quotient_by_trio, reference_trio
    from cubicbrauer.perms import orbit_count

    trio = reference_trio()
    targets = {pair((), ()): False, pair((2, 2), (2, 2)): False}
    for cls in stabilizer_classes:
        if cls.order != 2 or orbit_count(cls.group, set(trio.indices)) != 2:
            continue
        found = TablePair(
            h1_cyclic_oracle(quotient_by_trio(trio, cls.group)),
            h1_cyclic_oracle(pic_module(cls.group)),
        )
        if found in targets:
            targets[found] = True
    assert all(targets.values()), f"missing cyclic witnesses: {targets}"


def test_h1_lattice_agrees_with_the_annihilator_route(sweep_modules):
    """One cokernel and (M/nM)^G / im(M^G) with n = |G| agree on the sweep.

    Both Pic Xbar and the boundary quotient Pic Ubar of every one of the 246
    subgroup classes of the trio stabilizer: all 492 modules of the sweep.
    """
    from cubicbrauer.acceptance import _h1_by_annihilator
    from cubicbrauer.cohomology import h1_lattice

    assert len(sweep_modules) == 492
    for order, module in sweep_modules:
        assert h1_lattice(module) == _h1_by_annihilator(module.matrices, module.rank, order)
