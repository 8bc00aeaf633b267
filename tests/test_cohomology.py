"""H^1 for lattice and finite modules, against independent oracles."""

from __future__ import annotations

import random
from math import gcd

import pytest
from oracles import mod_kernel_by_listing, span_mod

from cubicbrauer.acceptance import NotCyclic, h1_cyclic_oracle, mod_kernel
from cubicbrauer.cohomology import LatticeGModule, h1_lattice
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix
from cubicbrauer.perms import PermGroup, compose, perm_from_cycles, perm_order


def cyclic_module(order: int, matrix: IntMatrix) -> LatticeGModule:
    gen = perm_from_cycles(order, [list(range(order))])
    return LatticeGModule(rank=matrix.rows, group=PermGroup(order, [gen]), matrices=(matrix,))


def test_h1_sign_action():
    module = cyclic_module(2, IntMatrix([[-1]]))
    expected = FinAbGroup.from_orders([2])
    assert h1_lattice(module) == expected
    assert h1_cyclic_oracle(module) == expected


def test_h1_trivial_group():
    module = LatticeGModule(rank=3, group=PermGroup(2, []), matrices=())
    assert h1_lattice(module) == FinAbGroup.trivial()
    assert h1_cyclic_oracle(module) == FinAbGroup.trivial()


def test_h1_regular_representation_c2():
    module = cyclic_module(2, IntMatrix([[0, 1], [1, 0]]))
    assert h1_lattice(module) == FinAbGroup.trivial()
    assert h1_cyclic_oracle(module) == FinAbGroup.trivial()


def test_h1_cyclic_shift_c3():
    shift = IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    module = cyclic_module(3, shift)
    assert h1_cyclic_oracle(module) == FinAbGroup.trivial()
    assert h1_lattice(module) == FinAbGroup.trivial()


def regular_module(group: PermGroup) -> LatticeGModule:
    """Z[G], each generator g of G sending the basis vector of h to that of gh."""
    elements = sorted(group.elements())
    index = {h: i for i, h in enumerate(elements)}
    matrices = []
    for g in group.generators:
        images = [index[compose(g, h)] for h in elements]
        columns = [tuple(int(i == j) for i in range(len(elements))) for j in images]
        matrices.append(IntMatrix.from_columns(columns, rows=len(elements)))
    return LatticeGModule(rank=len(elements), group=group, matrices=tuple(matrices))


def test_h1_regular_representations_c4_s3():
    """Shapiro's lemma: H^1(G, Z[G]) = H^1(1, Z) = 0."""
    c4 = regular_module(PermGroup(4, [(1, 2, 3, 0)]))
    assert c4.rank == 4
    assert h1_lattice(c4) == h1_cyclic_oracle(c4) == FinAbGroup.trivial()
    s3 = regular_module(PermGroup(3, [(1, 0, 2), (1, 2, 0)]))
    assert s3.rank == 6
    assert h1_lattice(s3) == FinAbGroup.trivial()


def test_h1_c4_rotation():
    # Z^2 with a 4-fold rotation is induced from the sign lattice of the
    # order-2 subgroup, so Shapiro gives H^1 = H^1(C2, Z^-) = Z/2: the norm
    # vanishes and (sigma - 1) has determinant 2.
    rotation = IntMatrix([[0, -1], [1, 0]])
    module = cyclic_module(4, rotation)
    expected = FinAbGroup.from_orders([2])
    assert h1_cyclic_oracle(module) == expected
    assert h1_lattice(module) == expected


def test_h1_oracle_requires_cyclic():
    klein = PermGroup(4, [perm_from_cycles(4, [[0, 1], [2, 3]]), perm_from_cycles(4, [[0, 2], [1, 3]])])
    module = LatticeGModule(
        rank=1, group=klein, matrices=(IntMatrix([[-1]]), IntMatrix([[-1]]))
    )
    with pytest.raises(NotCyclic):
        h1_cyclic_oracle(module)
    # C6 = <(0 1 2), (3 4)> is cyclic, but the oracle reads one generator only
    c6 = PermGroup(5, [perm_from_cycles(5, [[0, 1, 2]]), perm_from_cycles(5, [[3, 4]])])
    module = LatticeGModule(rank=1, group=c6, matrices=(IntMatrix([[1]]), IntMatrix([[-1]])))
    with pytest.raises(NotCyclic):
        h1_cyclic_oracle(module)


def test_h1_exponent_annihilator_is_insufficient(stabilizer_classes):
    """A Klein four-group module whose H^1 has exponent 4 > exp(G) = 2.

    This is the boundary-quotient action of <(e1 e2)(e3 e4), cremona(1,3,5)
    conjugates> shape; concretely these two commuting involutions on Z^4
    produce H^1 = Z/2 x Z/4, so the annihilator in the (M/nM)^G / im(M^G)
    formula must be |G|, not the exponent.
    """
    from cubicbrauer.acceptance import _h1_by_annihilator
    from cubicbrauer.cubiclattice import quotient_by_trio, reference_trio

    trio = reference_trio()
    witness = None
    for cls in stabilizer_classes:
        if cls.order != 4 or any(perm_order(p) == 4 for p in cls.group.elements()):
            continue
        module = quotient_by_trio(trio, cls.group)
        value = h1_lattice(module)
        if max(value.invariant_factors, default=1) > 2:  # the exponent
            witness = (module, value)
            break
    assert witness is not None, "expected a Klein group with H^1 of exponent 4"
    module, value = witness
    assert value == FinAbGroup.from_orders([2, 4])
    # the mod-exponent formula visibly undercounts
    assert _h1_by_annihilator(module.matrices, module.rank, 2) != value
    assert _h1_by_annihilator(module.matrices, module.rank, 4) == value


def test_h1_factors_divide_group_order(sweep_modules):
    """|G| kills H^1(G, M), on all 492 modules of the sweep."""
    assert len(sweep_modules) == 492
    for order, module in sweep_modules:
        assert all(order % d == 0 for d in h1_lattice(module).invariant_factors)


def _random_unimodular(rng: random.Random, n: int) -> IntMatrix:
    """The identity after 3n random row operations row_i += c * row_j, |c| <= 2."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
    return IntMatrix(m)


def test_h1_is_invariant_under_a_change_of_basis(trio_stabilizer):
    """A cyclic quotient module with H^1 = Z/2 x Z/4, conjugated by 100 random unimodular T."""
    from cubicbrauer.cubiclattice import quotient_by_trio, reference_trio

    trio = reference_trio()
    expected = FinAbGroup.from_orders([2, 4])
    cyclic = (quotient_by_trio(trio, PermGroup(27, [g])) for g in trio_stabilizer.elements())
    module = next(m for m in cyclic if h1_lattice(m) == expected)
    assert module.rank == 4
    rng = random.Random(20260809)
    for _ in range(100):
        t = _random_unimodular(rng, 4)
        t_inv = t.inverse_unimodular()
        assert t @ t_inv == IntMatrix.identity(4)
        matrices = tuple(t @ m @ t_inv for m in module.matrices)
        conjugate = LatticeGModule(rank=4, group=module.group, matrices=matrices)
        assert h1_lattice(conjugate) == expected


def fixed_vectors_mod(n: int, rank: int, matrices: list[IntMatrix]):
    """The vectors of (Z/n)^rank that the matrices fix, by mod_kernel and by listing.

    Both read the kernel mod n of the stacked (m - 1) mod n; with no
    matrices, of one zero row.
    """
    ident = IntMatrix.identity(rank)
    rows = [IntMatrix([[x % n for x in row] for row in (m - ident).data]) for m in matrices]
    stacked = IntMatrix.vstack(*rows) if rows else IntMatrix([[0] * rank])
    return span_mod(mod_kernel(stacked, n), n, rank), mod_kernel_by_listing(stacked, n)


def test_invariants_finite_examples():
    by_kernel, by_listing = fixed_vectors_mod(6, 1, [])
    assert by_kernel == by_listing == {(m,) for m in range(6)}
    by_kernel, by_listing = fixed_vectors_mod(4, 1, [IntMatrix([[-1]])])
    assert by_kernel == by_listing == {(0,), (2,)}
    # 3m = m mod 8 forces 2m = 0 mod 8, i.e. m in {0, 4}
    by_kernel, by_listing = fixed_vectors_mod(8, 1, [IntMatrix([[3]])])
    assert by_kernel == by_listing == {(0,), (4,)}


@pytest.mark.parametrize("seed", range(25))
def test_invariants_finite_vs_enumeration(seed):
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4, 5, 6, 8, 9])
    rank = rng.randint(1, 3)
    matrices = []
    for _ in range(rng.randint(0, 2)):
        while True:
            m = IntMatrix([[rng.randrange(n) for _ in range(rank)] for _ in range(rank)])
            if gcd(m.det() % n, n) == 1:
                break
        matrices.append(m)
    by_kernel, by_listing = fixed_vectors_mod(n, rank, matrices)
    assert by_kernel == by_listing


def test_lattice_module_validation():
    group = PermGroup(2, [perm_from_cycles(2, [[0, 1]])])
    with pytest.raises(ValueError):
        LatticeGModule(rank=1, group=group, matrices=(IntMatrix([[2]]),))
    with pytest.raises(ValueError):
        LatticeGModule(rank=1, group=group, matrices=())


def test_lattice_module_rejects_a_cached_non_unimodular_determinant():
    group = PermGroup(2, [perm_from_cycles(2, [[0, 1]])])
    doubled = IntMatrix([[1, 1], [0, 2]])
    assert doubled.det() == 2  # cached before the module reads it
    with pytest.raises(ValueError, match="unimodular"):
        LatticeGModule(rank=2, group=group, matrices=(doubled,))


def test_module_matrices_respect_relations(trio_stabilizer):
    """Random generator words get the matrix of the permutation they multiply to."""
    from cubicbrauer.cubiclattice import pic_action, pic_module
    from cubicbrauer.perms import identity_perm

    module = pic_module(trio_stabilizer)
    rng = random.Random(3)
    for _ in range(200):
        perm = identity_perm(27)
        matrix = IntMatrix.identity(7)
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(len(trio_stabilizer.generators))
            perm = compose(trio_stabilizer.generators[i], perm)
            matrix = module.matrices[i] @ matrix
        assert pic_action(perm) == matrix


def test_elementary_divisors_match_snf_on_the_sweep(sweep_modules):
    """Every non-empty stacked (s_i - 1) matrix of the 492 sweep modules."""
    from cubicbrauer.intlinalg import elementary_divisors, snf

    stacked = [m.stacked_differences() for _, m in sweep_modules if m.matrices]
    assert len(stacked) == 490  # the trivial class has no generators
    for a in stacked:
        assert elementary_divisors(a) == snf(a).diagonal()


def test_stacked_differences_match_the_stacked_m_minus_identity(sweep_modules):
    """The one-pass rows against vstack(m - I), and H^1 against the cokernel's torsion."""
    from cubicbrauer.acceptance import cokernel_structure

    with_generators = [m for _, m in sweep_modules if m.matrices]
    assert len(with_generators) == 490  # the trivial class has no generators
    for module in with_generators:
        ident = IntMatrix.identity(module.rank)
        expected = IntMatrix.vstack(*[m - ident for m in module.matrices])
        assert module.stacked_differences() == expected
        torsion = cokernel_structure(expected).invariant_factors
        assert h1_lattice(module) == FinAbGroup(0, torsion)


def test_h1_lattice_builds_no_smith_transforms(sweep_modules, monkeypatch):
    """H^1 over the whole sweep reads only the diagonal: snf is never called."""
    from cubicbrauer import intlinalg

    def forbidden(*args, **kwargs):
        raise AssertionError("h1_lattice must not build U and V")

    monkeypatch.setattr(intlinalg, "snf", forbidden)
    assert len(sweep_modules) == 492
    for _, module in sweep_modules:
        h1_lattice(module)
