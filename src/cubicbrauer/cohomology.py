"""Group cohomology H^1 for lattices.

For a finite group G = <s_1, ..., s_k> acting on a lattice M,

    H^1(G, M)  =  Tors coker( stacked (s_i - 1) : M -> M^k ),

the Smith diagonal entries above 1 of the matrix that ``stacked_differences``
builds in one pass, read by ``elementary_divisors`` with no transforms
(see :func:`h1_lattice` for why).  The second routes live in the
acceptance suite: the |G|-annihilator formula (M/nM)^G / image(M^G), by
which ``--seed-check`` re-verifies the case-2 witnesses and which the test
suite checks against this one on every module of the table sweep, and the
classical ker(Norm)/image(sigma - 1) description for cyclic groups.
"""

from __future__ import annotations

from .intlinalg import FinAbGroup, IntMatrix, elementary_divisors
from .perms import PermGroup
from .values import Value


class LatticeGModule(Value):
    """A lattice Z^rank with a finite group acting by unimodular matrices.

    ``matrices[i]`` is the action of ``group.generators[i]``; the assignment
    is assumed (and spot-checked in tests) to extend to a homomorphism.
    """

    __slots__ = ("rank", "group", "matrices")

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

    def stacked_differences(self) -> IntMatrix:
        """The matrices (g - 1) for all generators, stacked in one pass over their rows."""
        if not self.matrices:
            raise ValueError("no generators: stacked difference matrix is empty")
        rows = (
            (*r[:i], r[i] - 1, *r[i + 1 :]) for m in self.matrices for i, r in enumerate(m.data)
        )
        return IntMatrix._from_rows(tuple(rows))


def h1_lattice(module: LatticeGModule) -> FinAbGroup:
    """H^1(G, M) as the torsion of coker(stacked (s_i - 1)).

    A cocycle is fixed by its values on the generators s_i, so Z^1 sits in
    M^k as the kernel of a linear map and is saturated; B^1 is the image of
    the stacked matrix and has the rank of Z^1 because H^1 of a finite group
    is finite.  Hence Z^1 is the saturation of B^1, and Z^1 / B^1, the
    torsion of M^k / B^1, is read off the Smith diagonal's entries above 1.
    """
    if not module.matrices or module.rank == 0:
        return FinAbGroup.trivial()
    diagonal = elementary_divisors(module.stacked_differences())
    return FinAbGroup(0, tuple(d for d in diagonal if d > 1))


__all__ = [
    "LatticeGModule",
    "h1_lattice",
]
