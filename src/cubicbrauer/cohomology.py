"""Group cohomology H^0 and H^1 for lattices and finite modules.

For a finite group G = <s_1, ..., s_k> acting on a lattice M,

    H^1(G, M)  =  Tors coker( stacked (s_i - 1) : M -> M^k ),

one Smith normal form of the matrix that ``stacked_differences`` builds
(see :func:`h1_lattice` for why).  The |G|-annihilator formula
(M/nM)^G / image(M^G) survives only in the acceptance suite, as the route
by which ``--seed-check`` re-verifies the case-2 witnesses.  The test suite
checks the two formulas against each other on every module of the table
sweep, and this one against the classical ker(Norm)/image(sigma - 1)
description for cyclic groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd

from .arith import factorint
from .errors import NotCyclic
from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    cokernel_structure,
    kernel_basis,
    mod_kernel,
    solve_columns,
    subgroup_structure_mod,
)
from .perms import ELEMENT_LISTING_BOUND, Perm, PermGroup, compose, identity_perm, perm_order

BRUTE_FORCE_BOUND = 10**6


@dataclass(frozen=True)
class LatticeGModule:
    """A lattice Z^rank with a finite group acting by unimodular matrices.

    ``matrices[i]`` is the action of ``group.generators[i]``; the assignment
    is assumed (and spot-checked in tests) to extend to a homomorphism.
    """

    rank: int
    group: PermGroup
    matrices: tuple[IntMatrix, ...]

    def __post_init__(self):
        if len(self.matrices) != len(self.group.generators):
            raise ValueError("one action matrix per group generator required")
        for m in self.matrices:
            if m.rows != self.rank or m.cols != self.rank:
                raise ValueError("action matrix of wrong shape")
            if m.det() not in (1, -1):
                raise ValueError("action matrices must be unimodular")
        object.__setattr__(self, "_matrix_cache", None)

    def action_of(self, p: Perm) -> IntMatrix:
        """Matrix of an arbitrary group element (BFS over generator words)."""
        cache = object.__getattribute__(self, "_matrix_cache")
        if cache is None:
            cache = {identity_perm(self.group.degree): IntMatrix.identity(self.rank)}
            object.__setattr__(self, "_matrix_cache", cache)
        p = tuple(p)
        if p in cache:
            return cache[p]
        queue = list(cache)
        while queue:
            x = queue.pop(0)
            for g, mat in zip(self.group.generators, self.matrices):
                y = compose(g, x)
                if y not in cache:
                    cache[y] = mat @ cache[x]
                    queue.append(y)
                    if y == p:
                        return cache[p]
        raise ValueError("permutation is not in the acting group")

    def stacked_differences(self) -> IntMatrix:
        """The matrices (g - 1) for all generators, stacked vertically."""
        if not self.matrices:
            raise ValueError("no generators: stacked difference matrix is empty")
        ident = IntMatrix.identity(self.rank)
        return IntMatrix.vstack(*[m - ident for m in self.matrices])


@dataclass(frozen=True)
class FiniteGModule:
    """(Z/n)^rank with a finite group acting by matrices invertible mod n."""

    modulus: int
    rank: int
    matrices: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        for m in self.matrices:
            if m.rows != self.rank or m.cols != self.rank:
                raise ValueError("action matrix of wrong shape")
            if self.rank and gcd(m.det() % self.modulus, self.modulus) != 1:
                raise ValueError("action matrices must be invertible mod n")


def invariants_lattice(module: LatticeGModule) -> IntMatrix:
    """Basis (as columns) of the invariant sublattice M^G; primitive."""
    if not module.matrices:
        return IntMatrix.identity(module.rank)
    return kernel_basis(module.stacked_differences())


def h1_lattice(module: LatticeGModule) -> FinAbGroup:
    """H^1(G, M) as the torsion of coker(stacked (s_i - 1)).

    A cocycle is fixed by its values on the generators s_i, so Z^1 sits in
    M^k as the kernel of a linear map and is saturated; B^1 is the image of
    the stacked matrix and has the rank of Z^1 because H^1 of a finite group
    is finite.  Hence Z^1 is the saturation of B^1, and Z^1 / B^1 is the
    torsion of M^k / B^1.
    """
    if not module.matrices or module.rank == 0:
        return FinAbGroup.trivial()
    cokernel = cokernel_structure(module.stacked_differences())
    return FinAbGroup(0, cokernel.invariant_factors)


def h1_cyclic_oracle(module: LatticeGModule, bound: int = ELEMENT_LISTING_BOUND) -> FinAbGroup:
    """Independent H^1 for cyclic G = <s>: ker(Norm) / image(s - 1)."""
    order = module.group.order()
    if order == 1:
        return FinAbGroup.trivial()
    generator = next(
        (p for p in module.group.elements(bound) if perm_order(p) == order), None
    )
    if generator is None:
        raise NotCyclic("group has no element of full order")
    a = module.action_of(generator)
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


def invariants_finite(module: FiniteGModule) -> FinAbGroup:
    """Isomorphism type of the invariants of a finite module, exactly."""
    n, rank = module.modulus, module.rank
    if rank == 0:
        return FinAbGroup.trivial()
    if not module.matrices:
        return FinAbGroup.from_orders([n] * rank)
    ident = IntMatrix.identity(rank)
    stacked = IntMatrix.vstack(*[(m - ident).mod(n) for m in module.matrices])
    gens = mod_kernel(stacked, n)
    return subgroup_structure_mod(gens, n, rank)


def invariants_finite_enumerated(module: FiniteGModule) -> FinAbGroup:
    """Brute-force oracle: enumerate (Z/n)^rank and count fixed vectors."""
    n, rank = module.modulus, module.rank
    if n**rank > BRUTE_FORCE_BOUND:
        raise ValueError("enumeration bound exceeded")
    fixed = [
        v
        for v in product(range(n), repeat=rank)
        if all(tuple(x % n for x in m.apply(v)) == v for m in module.matrices)
    ]
    return _structure_from_elements(fixed, n)


def _structure_from_elements(elements: list[tuple[int, ...]], n: int) -> FinAbGroup:
    """Structure of a finite abelian group given as a list of (Z/n)^r vectors.

    Pure counting: for each prime p | n the partition of the p-part is read
    off the sizes of the p^j-torsion subgroups.
    """
    size = len(elements)
    orders: list[int] = []
    for p in factorint(n):
        torsion_sizes = [1]
        j = 1
        while True:
            pj = p**j
            cnt = sum(
                1
                for v in elements
                if all((pj * x) % n == 0 for x in v)
            )
            torsion_sizes.append(cnt)
            if cnt == torsion_sizes[-2]:
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
    if group.order() != size:
        raise AssertionError("inconsistent torsion counts")
    return group


__all__ = [
    "BRUTE_FORCE_BOUND",
    "FiniteGModule",
    "LatticeGModule",
    "h1_cyclic_oracle",
    "h1_lattice",
    "invariants_finite",
    "invariants_finite_enumerated",
    "invariants_lattice",
]
