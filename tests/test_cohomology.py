"""H^1 for lattice and finite modules, against independent oracles."""

from __future__ import annotations

import random
from itertools import product
from math import gcd

import pytest

from cubicbrauer.arith import factorint
from cubicbrauer.cohomology import LatticeGModule, h1_cyclic_oracle, h1_lattice
from cubicbrauer.errors import NotCyclic
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix, mod_kernel, subgroup_structure_mod
from cubicbrauer.perms import PermGroup, perm_from_cycles, perm_order


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


def test_h1_exponent_annihilator_is_insufficient():
    """A Klein four-group module whose H^1 has exponent 4 > exp(G) = 2.

    This is the boundary-quotient action of <(e1 e2)(e3 e4), cremona(1,3,5)
    conjugates> shape; concretely these two commuting involutions on Z^4
    produce H^1 = Z/2 x Z/4, so the annihilator in the (M/nM)^G / im(M^G)
    formula must be |G|, not the exponent.
    """
    from cubicbrauer.acceptance import _h1_by_annihilator
    from cubicbrauer.cubiclattice import quotient_by_trio, reference_trio, weyl_group
    from cubicbrauer.perms import setwise_stabilizer, subgroup_classes

    trio = reference_trio()
    stab = setwise_stabilizer(weyl_group(), set(trio.indices))
    witness = None
    for cls in subgroup_classes(stab):
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


def test_h1_factors_divide_group_order():
    from cubicbrauer.cubiclattice import pic_module, quotient_by_trio, reference_trio, weyl_group
    from cubicbrauer.perms import setwise_stabilizer, subgroup_classes

    trio = reference_trio()
    stab = setwise_stabilizer(weyl_group(), set(trio.indices))
    for cls in subgroup_classes(stab)[:40]:
        for module in (pic_module(cls.group), quotient_by_trio(trio, cls.group)):
            h1 = h1_lattice(module)
            assert all(cls.order % d == 0 for d in h1.invariant_factors)


def invariants_mod(n: int, rank: int, matrices: list[IntMatrix]) -> FinAbGroup:
    """H^0 of (Z/n)^rank under the matrices, by the intlinalg composition
    that the annihilator route and the residue kernel check use."""
    ident = IntMatrix.identity(rank)
    rows = [IntMatrix([[x % n for x in row] for row in (m - ident).data]) for m in matrices]
    rows = rows or [IntMatrix.zeros(1, rank)]
    return subgroup_structure_mod(mod_kernel(IntMatrix.vstack(*rows), n), n, rank)


def invariants_enumerated(n: int, rank: int, matrices: list[IntMatrix]) -> FinAbGroup:
    """Count the fixed vectors of (Z/n)^rank one by one."""
    fixed = [
        v
        for v in product(range(n), repeat=rank)
        if all(tuple(x % n for x in m.apply(v)) == v for m in matrices)
    ]
    return structure_from_elements(fixed, n)


def structure_from_elements(elements: list[tuple[int, ...]], n: int) -> FinAbGroup:
    """Structure of a finite abelian group given as a list of (Z/n)^r vectors.

    Pure counting: for each prime p | n the partition of the p-part is read
    off the sizes of the p^j-torsion subgroups.
    """
    orders: list[int] = []
    for p in factorint(n):
        torsion_sizes = [1]
        j = 1
        while True:
            pj = p**j
            torsion_sizes.append(sum(1 for v in elements if all(pj * x % n == 0 for x in v)))
            if torsion_sizes[-1] == torsion_sizes[-2]:
                break
            j += 1
        # log_p of successive quotients = number of cyclic parts of order >= p^j
        parts_ge = []
        for j in range(1, len(torsion_sizes)):
            q = torsion_sizes[j] // torsion_sizes[j - 1]
            e = 0
            while q > 1:
                q //= p
                e += 1
            parts_ge.append(e)
        for idx, count in enumerate(parts_ge):
            nxt = parts_ge[idx + 1] if idx + 1 < len(parts_ge) else 0
            orders.extend([p ** (idx + 1)] * (count - nxt))
    group = FinAbGroup.from_orders(orders)
    assert group.order() == len(elements), "inconsistent torsion counts"
    return group


def test_invariants_finite_examples():
    assert invariants_mod(6, 1, []) == FinAbGroup.from_orders([6])
    assert invariants_mod(4, 1, [IntMatrix([[-1]])]) == FinAbGroup.from_orders([2])

    # 3m = m mod 8 forces 2m = 0 mod 8, i.e. m in {0, 4}
    times_three = [IntMatrix([[3]])]
    assert invariants_mod(8, 1, times_three) == FinAbGroup.from_orders([2])
    assert invariants_enumerated(8, 1, times_three) == FinAbGroup.from_orders([2])


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
    assert invariants_mod(n, rank, matrices) == invariants_enumerated(n, rank, matrices)


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


def test_module_matrices_respect_relations():
    """Random generator words get the matrix of the permutation they multiply to."""
    from cubicbrauer.cubiclattice import pic_action, pic_module, reference_trio, weyl_group
    from cubicbrauer.perms import compose, identity_perm, setwise_stabilizer

    stab = setwise_stabilizer(weyl_group(), set(reference_trio().indices))
    module = pic_module(stab)
    rng = random.Random(3)
    for _ in range(200):
        perm = identity_perm(27)
        matrix = IntMatrix.identity(7)
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(len(stab.generators))
            perm = compose(stab.generators[i], perm)
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
    from cubicbrauer.intlinalg import cokernel_structure

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
