"""Group cohomology H^0 and H^1 for lattices.

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

from .errors import NotCyclic
from .intlinalg import FinAbGroup, IntMatrix, cokernel_structure, kernel_basis, solve_columns
from .perms import Perm, PermGroup, compose, identity_perm, perm_order


class LatticeGModule:
    """A lattice Z^rank with a finite group acting by unimodular matrices.

    ``matrices[i]`` is the action of ``group.generators[i]``; the assignment
    is assumed (and spot-checked in tests) to extend to a homomorphism.
    Immutable but for the matrix of every group element, which
    :meth:`action_of` lists once into the ``_matrix_cache`` slot; equality,
    hashing and copies ignore that cache.
    """

    __slots__ = ("rank", "group", "matrices", "_matrix_cache")

    def __init__(self, rank: int, group: PermGroup, matrices: tuple[IntMatrix, ...]):
        if len(matrices) != len(group.generators):
            raise ValueError("one action matrix per group generator required")
        for m in matrices:
            if m.rows != rank or m.cols != rank:
                raise ValueError("action matrix of wrong shape")
            if m.det() not in (1, -1):
                raise ValueError("action matrices must be unimodular")
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "_matrix_cache", None)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("LatticeGModule is immutable")

    def __reduce__(self):
        return (LatticeGModule, (self.rank, self.group, self.matrices))

    def __eq__(self, other) -> bool:
        if other.__class__ is not LatticeGModule:
            return NotImplemented
        return (self.rank, self.group, self.matrices) == (other.rank, other.group, other.matrices)

    def __hash__(self) -> int:
        return hash((self.rank, self.group, self.matrices))

    def __repr__(self) -> str:
        return (
            f"LatticeGModule(rank={self.rank!r}, group={self.group!r}, "
            f"matrices={self.matrices!r})"
        )

    def action_of(self, p: Perm) -> IntMatrix:
        """Matrix of an arbitrary group element.

        The first call lists the group by a breadth-first search over
        generator words, keeping each element's matrix; every later call
        is a lookup.
        """
        cache = self._matrix_cache
        if cache is None:
            ident = identity_perm(self.group.degree)
            cache = {ident: IntMatrix.identity(self.rank)}
            queue = [ident]
            for x in queue:
                for g, mat in zip(self.group.generators, self.matrices):
                    y = compose(g, x)
                    if y not in cache:
                        cache[y] = mat @ cache[x]
                        queue.append(y)
            object.__setattr__(self, "_matrix_cache", cache)
        matrix = cache.get(tuple(p))
        if matrix is None:
            raise ValueError("permutation is not in the acting group")
        return matrix

    def stacked_differences(self) -> IntMatrix:
        """The matrices (g - 1) for all generators, stacked vertically."""
        if not self.matrices:
            raise ValueError("no generators: stacked difference matrix is empty")
        ident = IntMatrix.identity(self.rank)
        return IntMatrix.vstack(*[m - ident for m in self.matrices])


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


def h1_cyclic_oracle(module: LatticeGModule) -> FinAbGroup:
    """Independent H^1 for cyclic G = <s>: ker(Norm) / image(s - 1)."""
    order = module.group.order()
    if order == 1:
        return FinAbGroup.trivial()
    generator = next(
        (p for p in module.group.elements() if perm_order(p) == order), None
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


__all__ = [
    "LatticeGModule",
    "h1_cyclic_oracle",
    "h1_lattice",
    "invariants_lattice",
]
