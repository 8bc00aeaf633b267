"""The acceptance suite: one test per criterion, printed pass/fail lines.

Criterion 2 asserts cases 1 and 3 equal to the published possibility
tables.  The computed case-2 set provably exceeds the published seven
pairs, so case 2 is asserted as the published seven plus exactly the five
pairs witnessed by CASE_TWO_WITNESSES in cubicbrauer.acceptance, each
witness re-verified without the subgroup sweep or h1_lattice.  The tests
after the criteria show that criterion 2 still fails on a dropped
published pair, an unwitnessed extra pair or a wrong witness.
"""

from __future__ import annotations

import pytest

import cubicbrauer.acceptance as acceptance
import cubicbrauer.cohomology as cohomology
import cubicbrauer.perms as perms
from cubicbrauer.acceptance import (
    CASE_TWO_WITNESSES,
    EXPECTED_TABLES,
    check_algebraic_tables,
    check_classifier_consistency,
    check_examples_end_to_end,
    check_lattice_combinatorics,
    check_oracle_equivalence,
    check_torsion_freeness,
    check_twist_enumeration_oracle,
    check_twist_table,
    verify_case_two_witness,
)
from cubicbrauer.brauer import TablePair
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.elapsed:.1f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_lattice_combinatorics():
    _report(check_lattice_combinatorics())


def test_criterion_2_algebraic_tables():
    _report(check_algebraic_tables())


def test_criterion_3_torsion_freeness():
    _report(check_torsion_freeness())


def test_criterion_4_twisted_invariants():
    _report(check_twist_table())


def test_criterion_4_enumeration_oracle():
    _report(check_twist_enumeration_oracle())


def test_criterion_5_examples_over_q():
    _report(check_examples_end_to_end())


def test_criterion_6_cyclic_oracle_equivalence():
    _report(check_oracle_equivalence())


def test_criterion_8_classifier_consistency():
    _report(check_classifier_consistency())


# -- criterion 8 checks the levels of the bound --------------------------------


def _patch_listing(monkeypatch, moved):
    listing = acceptance.twist_invariants_by_listing
    monkeypatch.setattr(
        acceptance,
        "twist_invariants_by_listing",
        lambda d, n: moved(d, n) or listing(d, n),
    )


@pytest.mark.parametrize("d, n", [(1, 8), (5, 9)])  # d = 1 lists the full twist Q/Z(-1)
def test_criterion_8_fails_on_a_listed_level_that_moves(monkeypatch, d, n):
    """A level at 8 or 9 unlike the one at 4 or 3 fails, though the library lists neither."""
    _patch_listing(monkeypatch, lambda *cell: FinAbGroup(0, (n,)) if cell == (d, n) else None)
    result = check_classifier_consistency()
    assert not result.passed
    assert result.detail.startswith(f"M_{d}: ") and f"Z/{n}" in result.detail


def test_criterion_8_fails_on_a_bound_the_listing_disputes(monkeypatch):
    _patch_listing(monkeypatch, lambda d, n: FinAbGroup(0, (2,)) if d == -1 else None)
    result = check_classifier_consistency()
    assert not result.passed
    assert ": Z/4 != Z/2 x Z/2" in result.detail


# -- criterion 2 can still fail ----------------------------------------------


def _patch_case_two(monkeypatch, edit):
    real = acceptance.algebraic_tables

    def patched(case):
        pairs = set(real(case))
        return tuple(edit(pairs) if case == 2 else pairs)

    monkeypatch.setattr(acceptance, "algebraic_tables", patched)


def test_criterion_2_fails_on_a_dropped_published_pair(monkeypatch):
    dropped = min(EXPECTED_TABLES[2], key=TablePair.sort_key)
    _patch_case_two(monkeypatch, lambda pairs: pairs - {dropped})
    result = check_algebraic_tables()
    assert not result.passed
    assert "missing" in result.detail


def test_criterion_2_fails_on_an_unwitnessed_extra_pair(monkeypatch):
    unwitnessed = TablePair(FinAbGroup.from_orders([3]), FinAbGroup.from_orders([3]))
    _patch_case_two(monkeypatch, lambda pairs: pairs | {unwitnessed})
    result = check_algebraic_tables()
    assert not result.passed
    assert "unwitnessed extra ['(Z/3, Z/3)']" in result.detail


def test_criterion_2_fails_on_a_witnessed_pair_the_sweep_lacks(monkeypatch):
    _patch_case_two(monkeypatch, lambda pairs: pairs - {CASE_TWO_WITNESSES[0].pair})
    result = check_algebraic_tables()
    assert not result.passed
    assert "witnessed but not computed ['(0, 0)']" in result.detail


def _swap_generators(index, generators):
    witnesses = list(CASE_TWO_WITNESSES)
    witnesses[index] = witnesses[index]._replace(generators=generators)
    return tuple(witnesses)


def test_criterion_2_fails_on_a_wrong_witness_generator(monkeypatch):
    # the (0, 0) witness given the generator of the ((Z/2)^2, (Z/2)^2) one
    wrong = _swap_generators(0, CASE_TWO_WITNESSES[2].generators)
    monkeypatch.setattr(acceptance, "CASE_TWO_WITNESSES", wrong)
    result = check_algebraic_tables()
    assert not result.passed
    assert "witness (0, 0): annihilator route gives (Z/2 x Z/2, Z/2 x Z/2)" in result.detail


@pytest.mark.parametrize(
    "generator, fault",
    [
        # l -> 2l is not an isometry and sends no line to a line
        (IntMatrix([(2, 0, 0, 0, 0, 0, 0), *IntMatrix.identity(7).data[1:]]), "intersection form"),
        # (e1 e3) moves l - e1 - e2 off the reference trio
        (acceptance._permute_e((1, 3)), "does not stabilize the reference trio"),
    ],
)
def test_witness_verification_rejects_bad_generators(generator, fault):
    witness = CASE_TWO_WITNESSES[0]._replace(generators=(generator,))
    assert any(fault in problem for problem in verify_case_two_witness(witness))


def test_witness_verification_checks_the_stated_order():
    witness = CASE_TWO_WITNESSES[1]._replace(order=8)
    assert verify_case_two_witness(witness) == ["group order 4, stated 8"]


def test_witness_route_avoids_the_sweep_and_h1_lattice(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the witness route must not reach this function")

    monkeypatch.setattr(acceptance, "h1_lattice", forbidden)
    monkeypatch.setattr(cohomology, "h1_lattice", forbidden)
    monkeypatch.setattr(acceptance, "setwise_stabilizer", forbidden)
    monkeypatch.setattr(perms, "setwise_stabilizer", forbidden)
    monkeypatch.setattr(perms, "subgroup_classes", forbidden)
    assert len(CASE_TWO_WITNESSES) == 5
    for witness in CASE_TWO_WITNESSES:
        assert verify_case_two_witness(witness) == []


def test_a_cyclic_witness_on_two_generators_meets_the_cyclic_oracle(trio_stabilizer):
    """The oracle reads one generator, so the check rebuilds <g, g^2> on g."""
    from cubicbrauer.cohomology import h1_lattice
    from cubicbrauer.cubiclattice import pic_action, pic_module, quotient_by_trio, reference_trio
    from cubicbrauer.perms import PermGroup, compose, orbit_count, perm_order

    trio = reference_trio()
    for g in trio_stabilizer.elements():
        group = PermGroup(27, [g])
        if perm_order(g) == 4 and orbit_count(group, set(trio.indices)) == 2:
            pair = TablePair(
                h1_lattice(quotient_by_trio(trio, group)), h1_lattice(pic_module(group))
            )
            if pair.br1 == FinAbGroup(0, (2, 4)):
                break
    else:
        pytest.fail("no order-4 class with H^1(Pic Ubar) = Z/2 x Z/4")
    witness = acceptance.CaseTwoWitness(pair, 4, (pic_action(g), pic_action(compose(g, g))))
    assert verify_case_two_witness(witness) == []
    wrong = witness._replace(pair=TablePair(FinAbGroup(0), FinAbGroup(0)))
    assert "cyclic oracle gives (Z/2 x Z/4, Z/2 x Z/2)" in verify_case_two_witness(wrong)
