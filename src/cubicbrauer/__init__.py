"""Exact computation of Brauer groups of affine cubic surface complements.

The library computes, in exact arithmetic, the Brauer-group invariants of
complements of singular hyperplane sections in smooth cubic surfaces:
the combinatorics of the 27 lines and the Weyl group W(E6), the algebraic
tables via Galois cohomology of Picard lattices, the twisted-invariant
tables over Q, and an end-to-end pipeline for explicit rational examples.
"""

from .brauer import (
    BoundaryDescriptor,
    GeometricBrauer,
    TablePair,
    algebraic_tables,
    geometric_brauer,
    transcendental_bound,
    twist_invariants,
)
from .cohomology import LatticeGModule, h1_lattice
from .cubiclattice import (
    HYPERPLANE,
    TritangentTrio,
    intersection,
    lines27,
    pic_action,
    pic_module,
    quotient_by_trio,
    reference_trio,
    tritangent_trios,
    weyl_group,
)
from .intlinalg import (
    FinAbGroup,
    IntMatrix,
    SmithForm,
    elementary_divisors,
    snf,
)
from .perms import PermGroup, orbit_count, setwise_stabilizer
from .qexamples import (
    EckardtVerdict,
    GaloisType,
    cubic_galois_type,
    eckardt_concurrent,
    example_brauer,
    find_admissible_a,
    general_position,
)
from .ratpoly import IntegralCubic, integral_cubic

__version__ = "0.1.0"

__all__ = [
    "BoundaryDescriptor",
    "EckardtVerdict",
    "FinAbGroup",
    "GaloisType",
    "GeometricBrauer",
    "HYPERPLANE",
    "IntMatrix",
    "IntegralCubic",
    "LatticeGModule",
    "PermGroup",
    "SmithForm",
    "TablePair",
    "TritangentTrio",
    "algebraic_tables",
    "cubic_galois_type",
    "eckardt_concurrent",
    "elementary_divisors",
    "example_brauer",
    "find_admissible_a",
    "general_position",
    "geometric_brauer",
    "h1_lattice",
    "integral_cubic",
    "intersection",
    "lines27",
    "orbit_count",
    "pic_action",
    "pic_module",
    "quotient_by_trio",
    "reference_trio",
    "setwise_stabilizer",
    "snf",
    "transcendental_bound",
    "tritangent_trios",
    "twist_invariants",
    "weyl_group",
]
