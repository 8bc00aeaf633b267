"""Value semantics of the library's record and value types.

Each type compares and hashes by its fields, refuses assignment to a
field, and a validating constructor rejects bad input with a ValueError
whose text names what is wrong.
"""

from __future__ import annotations

import ast
import copy
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import cubicbrauer
from cubicbrauer.brauer import BoundaryDescriptor, GeometricBrauer, SweepEntry, TablePair
from cubicbrauer.cohomology import LatticeGModule
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix, SmithForm, snf
from cubicbrauer.perms import PermGroup, SubgroupClass, perm_from_cycles
from cubicbrauer.qexamples import GaloisType, GeneralPositionReport, SearchOutcome
from cubicbrauer.ratpoly import integral_cubic
from cubicbrauer.values import Value

SWAP = PermGroup(2, [(1, 0)])
NEG = IntMatrix([[-1]])


# (two equal values built apart, then values that differ from them)
VALUES = {
    "FinAbGroup": lambda: (
        FinAbGroup(1, [2, 4]),
        FinAbGroup(1, (2, 4)),
        FinAbGroup(1, (4,)),
        FinAbGroup(0, (2, 4)),
    ),
    "IntMatrix": lambda: (
        IntMatrix([[1, 2], [3, 4]]),
        IntMatrix.from_columns([(1, 3), (2, 4)]),
        IntMatrix([[1, 3], [2, 4]]),
        IntMatrix([[1, 2]]),
    ),
    "BoundaryDescriptor": lambda: (
        BoundaryDescriptor("three_lines", "c2", d=12),
        BoundaryDescriptor("three_lines", "c2", d=3),
        BoundaryDescriptor("three_lines", "c2", d=3, eckardt=True),
        BoundaryDescriptor("three_lines", "c2", d=-3),
        BoundaryDescriptor("three_lines", "s3", d=3),
        BoundaryDescriptor("line_conic", "quadratic", d=3),
    ),
    "GaloisType": lambda: (
        GaloisType("c2", 2),
        GaloisType("c2", 2),
        GaloisType("s3", 2),
        GaloisType("c2", -2),
    ),
    "LatticeGModule": lambda: (
        LatticeGModule(1, SWAP, (NEG,)),
        LatticeGModule(rank=1, group=PermGroup(2, [(1, 0)]), matrices=(IntMatrix([[-1]]),)),
        LatticeGModule(1, SWAP, (IntMatrix([[1]]),)),
        LatticeGModule(1, PermGroup(3, [(1, 0, 2)]), (NEG,)),
    ),
    # two generating sets of S3: one group, two unequal values
    "PermGroup": lambda: (
        PermGroup(3, [(1, 0, 2), (1, 2, 0)]),
        PermGroup(3, ([1, 0, 2], (0, 1, 2), (1, 0, 2), (1, 2, 0))),
        PermGroup(4, [(1, 0, 2, 3), (1, 2, 0, 3)]),
        PermGroup(3, [(1, 2, 0), (1, 0, 2)]),
        PermGroup(3, [(1, 0, 2), (0, 2, 1)]),
    ),
    "TablePair": lambda: (
        TablePair(FinAbGroup(0, (2,)), FinAbGroup(0)),
        TablePair(br1=FinAbGroup(0, (2,)), brx=FinAbGroup(0, ())),
        TablePair(FinAbGroup(0), FinAbGroup(0, (2,))),
    ),
    "SweepEntry": lambda: (
        SweepEntry(2, TablePair(FinAbGroup(0), FinAbGroup(0))),
        SweepEntry(orbits=2, pair=TablePair(FinAbGroup(0), FinAbGroup(0))),
        SweepEntry(3, TablePair(FinAbGroup(0), FinAbGroup(0))),
    ),
    "GeometricBrauer": lambda: (
        GeometricBrauer("d_twist", -3),
        GeometricBrauer(kind="d_twist", d=-3),
        GeometricBrauer("full_twist"),
    ),
    "SmithForm": lambda: (
        snf(IntMatrix([[2, 4], [6, 8]])),
        SmithForm(*snf(IntMatrix([[2, 4], [6, 8]]))),
        snf(IntMatrix([[2, 4], [6, 9]])),
    ),
    "GeneralPositionReport": lambda: (
        GeneralPositionReport(True, True, False, (5, 1), (-1, 1), (0, 1)),
        GeneralPositionReport(
            distinct_roots=True,
            degree5_nonzero=True,
            no_triple_sum_zero=False,
            resultant_terms=(5, 1),
            degree5_terms=(-1, 1),
            derivation_terms=(0, 1),
        ),
        GeneralPositionReport(True, True, True, (5, 1), (-1, 1), (7, 1)),
    ),
    "SearchOutcome": lambda: (
        SearchOutcome(Fraction(2), ((Fraction(1), "eckardt check: yes"),)),
        SearchOutcome(a=Fraction(2), rejected=((Fraction(1), "eckardt check: yes"),)),
        SearchOutcome(Fraction(2), ()),
    ),
    "SubgroupClass": lambda: (
        SubgroupClass(SWAP, 2, 1),
        SubgroupClass(group=SWAP, order=2, conjugates=1),
        SubgroupClass(SWAP, 2, 3),
    ),
}


@pytest.mark.parametrize("name", sorted(VALUES))
def test_values_compare_and_hash_by_their_fields(name):
    a, same, *others = VALUES[name]()
    assert type(a).__name__ == name
    assert a == same and not a != same
    assert hash(a) == hash(same)
    for other in others:
        assert a != other and not a == other
    assert len({a, same, *others}) == 1 + len(others)
    assert all(a != VALUES[kind]()[0] for kind in VALUES if kind != name)


@pytest.mark.parametrize("name", sorted(VALUES))
def test_fields_refuse_assignment(name):
    a = VALUES[name]()[0]
    fields = getattr(a, "_fields", None) or type(a).__slots__
    for field in fields:
        before = getattr(a, field)
        with pytest.raises(AttributeError):
            setattr(a, field, object())
        assert getattr(a, field) is before


VALUE_TYPES = sorted(c.__name__ for c in Value.__subclasses__())


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_values_survive_copy_and_pickle(name):
    a = VALUES[name]()[0]
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    clone = pickle.loads(pickle.dumps(a))
    assert type(clone) is type(a) and clone == a
    assert repr(a).startswith(f"{name}(")


def test_a_listed_group_pickles_without_its_listing():
    group = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    assert group.order() == 6
    clone = pickle.loads(pickle.dumps(group))
    assert clone == group and clone._listed is None
    assert clone.elements() == group.elements()


def test_a_module_on_a_listed_group_round_trips_equal():
    group = PermGroup(2, [(1, 0)])
    module = LatticeGModule(1, group, (NEG,))
    assert pickle.loads(pickle.dumps(module)) == module
    assert group.order() == 2
    assert pickle.loads(pickle.dumps(module)) == module


def test_value_semantics_live_in_one_module():
    """No class outside ``values.py`` defines the dunders that ``Value`` owns."""
    owned = {"__setattr__", "__eq__", "__hash__", "__reduce__", "__copy__", "__deepcopy__"}
    found = []
    for path in sorted(Path(cubicbrauer.__file__).parent.glob("*.py")):
        if path.name == "values.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                found += [
                    f"{path.name}:{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in owned
                ]
    assert found == []


def test_the_repr_of_a_group_names_its_fields():
    # the table sweep's golden digest hashes these reprs
    assert repr(FinAbGroup(0, (2, 4))) == "FinAbGroup(free_rank=0, invariant_factors=(2, 4))"
    assert repr(TablePair(FinAbGroup(0), FinAbGroup(1))) == (
        "TablePair(br1=FinAbGroup(free_rank=0, invariant_factors=()), "
        "brx=FinAbGroup(free_rank=1, invariant_factors=()))"
    )


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FinAbGroup(-1), "negative free rank"),
        (lambda: FinAbGroup(0, (1, 2)), "invariant factors must exceed 1"),
        (lambda: FinAbGroup(0, (2, 3)), "invariant factors must form a divisibility chain"),
        (lambda: integral_cubic(("1/x",)), "Invalid literal for Fraction: '1/x'"),
        (lambda: BoundaryDescriptor("plane", "tangent"), "unknown boundary kind 'plane'"),
        (lambda: BoundaryDescriptor("line_conic", "c2", d=5), "unknown case 'c2' for line_conic"),
        (
            lambda: BoundaryDescriptor("irreducible", "cuspidal", eckardt=True),
            "eckardt applies only to three lines",
        ),
        (
            lambda: BoundaryDescriptor("three_lines", "s3"),
            "case 's3' requires a square class d",
        ),
        (
            lambda: BoundaryDescriptor("three_lines", "c2", d=36),
            "d must define a nontrivial quadratic extension",
        ),
        (
            lambda: BoundaryDescriptor("three_lines", "c3", d=5),
            "case 'c3' takes no square class",
        ),
        (lambda: GaloisType("c2"), "c2/s3 types carry a nontrivial square class"),
        (lambda: GaloisType("s3", 1), "c2/s3 types carry a nontrivial square class"),
        (lambda: GaloisType("c3", 5), "trivial/c3 types carry no square class"),
        (
            lambda: LatticeGModule(1, SWAP, ()),
            "one action matrix per group generator required",
        ),
        (
            lambda: LatticeGModule(2, SWAP, (NEG,)),
            "action matrix of wrong shape",
        ),
        (
            lambda: LatticeGModule(1, SWAP, (IntMatrix([[2]]),)),
            "action matrices must be unimodular",
        ),
    ],
)
def test_bad_input_raises_the_same_value_error(build, message):
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message


def test_a_descriptor_keeps_its_checks_without_the_trial_division():
    """The example pipeline builds its boundary from a d already squarefree."""
    trusted = BoundaryDescriptor._of_squarefree("three_lines", "s3", -3)
    assert trusted == BoundaryDescriptor("three_lines", "s3", d=-12)
    assert BoundaryDescriptor._of_squarefree("three_lines", "c3") == BoundaryDescriptor(
        "three_lines", "c3"
    )
    with pytest.raises(ValueError, match="requires a square class d"):
        BoundaryDescriptor._of_squarefree("three_lines", "c2")
    with pytest.raises(ValueError, match="takes no square class"):
        BoundaryDescriptor._of_squarefree("three_lines", "trivial", 5)


def test_a_subgroup_class_lists_its_elements():
    cls = SubgroupClass(PermGroup(3, [perm_from_cycles(3, [[0, 1, 2]])]), 3, 2)
    assert frozenset(cls.group.elements()) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
