"""The Picard lattice of a cubic surface: lines, trios, Weyl action."""

from __future__ import annotations

import ast
import copy
import random
from itertools import combinations, product
from pathlib import Path

import pytest

from cubicbrauer import cubiclattice
from cubicbrauer.cubiclattice import (
    HYPERPLANE,
    RANK,
    TritangentTrio,
    boundary_quotient,
    intersection,
    lines27,
    matrix_to_line_permutation,
    pic_action,
    quotient_by_trio,
    reference_trio,
    tritangent_trios,
    weyl_generator_matrices,
    weyl_group,
)
from cubicbrauer.errors import InconsistentPermutation, NotStabilized, TorsionFound
from cubicbrauer.intlinalg import IntMatrix, elementary_divisors, snf
from cubicbrauer.perms import PermGroup, compose, setwise_stabilizer


def test_lines_by_bruteforce_search():
    """Independent derivation: bounded search for D with D.D = -1, D.H = 1."""
    found = set()
    for c0 in range(-1, 4):
        for rest in product(range(-2, 3), repeat=6):
            d = (c0, *rest)
            if intersection(d, d) == -1 and intersection(d, HYPERPLANE) == 1:
                found.add(d)
    assert found == set(lines27())
    assert len(found) == 27


def test_line_families():
    lines = lines27()
    assert (0, 1, 0, 0, 0, 0, 0) in lines  # e1
    assert (1, -1, -1, 0, 0, 0, 0) in lines  # l - e1 - e2
    assert (2, -1, -1, -1, -1, -1, 0) in lines  # 2l - sum + e6
    assert len(lines) == 6 + 15 + 6


def test_trios_by_bruteforce():
    lines = lines27()
    count = 0
    for i, j, k in combinations(range(27), 3):
        a, b, c = lines[i], lines[j], lines[k]
        if intersection(a, b) == intersection(a, c) == intersection(b, c) == 1:
            count += 1
            assert tuple(x + y + z for x, y, z in zip(a, b, c)) == HYPERPLANE
    assert count == 45
    assert len(tritangent_trios()) == 45


def test_exceptional_classes_form_no_trio():
    lines = lines27()
    for i, j in combinations(range(6), 2):
        assert intersection(lines[i], lines[j]) == 0


def test_weyl_order_and_trio_transitivity():
    w = weyl_group()
    assert w.order() == 51840
    start = frozenset(reference_trio().indices)
    orbit = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for g in w.generators:
            img = frozenset(g[i] for i in cur)
            if img not in orbit:
                orbit.add(img)
                queue.append(img)
    assert len(orbit) == 45
    stab = setwise_stabilizer(w, set(start))
    assert stab.order() == 1152
    assert stab.order() * 45 == w.order()


def test_generators_preserve_form():
    for m in weyl_generator_matrices():
        assert m.is_unimodular()
        assert m.apply(HYPERPLANE) == HYPERPLANE
        for u in lines27()[:8]:
            for v in lines27()[:8]:
                assert intersection(m.apply(u), m.apply(v)) == intersection(u, v)


def test_random_products_preserve_form():
    rng = random.Random(7)
    w = weyl_group()
    lines = lines27()
    for _ in range(100):
        g = rng.choice(w.generators)
        h = rng.choice(w.generators)
        m = pic_action(compose(g, h))
        assert m.apply(HYPERPLANE) == HYPERPLANE
        i, j = rng.randrange(27), rng.randrange(27)
        assert intersection(m.apply(lines[i]), m.apply(lines[j])) == intersection(
            lines[i], lines[j]
        )


def test_pic_action_identity_and_swap():
    ident = tuple(range(27))
    assert pic_action(ident) == IntMatrix.identity(RANK)
    swap12 = matrix_to_line_permutation(
        IntMatrix.from_columns(
            [
                (1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 0, 0, 0, 0),
                (0, 1, 0, 0, 0, 0, 0),
                (0, 0, 0, 1, 0, 0, 0),
                (0, 0, 0, 0, 1, 0, 0),
                (0, 0, 0, 0, 0, 1, 0),
                (0, 0, 0, 0, 0, 0, 1),
            ],
            rows=7,
        )
    )
    m = pic_action(swap12)
    assert m.apply((0, 1, 0, 0, 0, 0, 0)) == (0, 0, 1, 0, 0, 0, 0)


def test_pic_action_cremona():
    cremona = weyl_generator_matrices()[-1]
    perm = matrix_to_line_permutation(cremona)
    m = pic_action(perm)
    assert m == cremona
    assert m.apply((1, 0, 0, 0, 0, 0, 0)) == (2, -1, -1, -1, 0, 0, 0)
    assert (m @ m).is_identity()


def test_pic_action_is_homomorphism():
    rng = random.Random(11)
    w = weyl_group()
    elements = [
        compose(rng.choice(w.generators), rng.choice(w.generators)) for _ in range(20)
    ]
    for g in elements:
        for h in elements[:5]:
            assert pic_action(compose(g, h)) == pic_action(g) @ pic_action(h)


def test_pic_action_rejects_non_automorphism():
    bogus = list(range(27))
    bogus[0], bogus[6] = bogus[6], bogus[0]  # swap e1 with l-e1-e2
    with pytest.raises(InconsistentPermutation):
        pic_action(tuple(bogus))


def _pic_action_by_apply(p):
    """pic_action's earlier route: the same matrix, checked by 27 calls of ``apply``.

    Returns None where a line image disagrees.  Asserts the bound that
    makes the packed check exact: every entry of M d is at most 24.
    """
    lines = lines27()
    images = [lines[p[i]] for i in range(7)]  # e1..e6, then l-e1-e2
    ell = tuple(x + y + z for x, y, z in zip(images[6], images[0], images[1]))
    m = IntMatrix.from_columns([ell, *images[:6]], rows=RANK)
    applied = [m.apply(d) for d in lines]
    assert max(abs(x) for v in applied for x in v) <= 24
    return m if all(v == lines[p[i]] for i, v in enumerate(applied)) else None


def test_packed_check_agrees_with_the_apply_route_on_the_trio_stabilizer(trio_stabilizer):
    elements = trio_stabilizer.elements()
    assert len(elements) == 1152
    for g in elements:
        expected = _pic_action_by_apply(g)
        assert expected is not None and pic_action(g) == expected


def test_every_line_transposition_is_refused_by_both_routes():
    """No transposition of two lines lies in W(E6): no two lines meet the same lines."""
    lines = lines27()
    neighbours = [
        frozenset(j for j, e in enumerate(lines) if intersection(d, e) == 1) for d in lines
    ]
    assert len(set(neighbours)) == 27
    pairs = list(combinations(range(27), 2))
    assert len(pairs) == 351
    for i, j in pairs:
        swap = list(range(27))
        swap[i], swap[j] = j, i
        assert _pic_action_by_apply(swap) is None
        with pytest.raises(InconsistentPermutation):
            pic_action(tuple(swap))


def test_random_line_permutations_are_refused_by_both_routes():
    rng = random.Random(26)
    for _ in range(500):
        p = tuple(rng.sample(range(27), 27))
        assert _pic_action_by_apply(p) is None
        with pytest.raises(InconsistentPermutation):
            pic_action(p)


def _boundary_matrix(components) -> IntMatrix:
    return IntMatrix.from_columns(components, rows=RANK)


def _line_conic(line) -> tuple:
    return (line, tuple(h - x for h, x in zip(HYPERPLANE, line)))


def _check_free_quotient(components) -> None:
    """The maps kill the components, split, and have rank 7 - k."""
    k = len(components)
    projection, section = boundary_quotient(components)
    assert projection.rows == section.cols == RANK - k
    assert projection @ _boundary_matrix(components) == IntMatrix([[0] * k] * (RANK - k))
    assert projection @ section == IntMatrix.identity(RANK - k)


def test_quotient_by_trio():
    trio = reference_trio()
    assert snf(_boundary_matrix(trio.classes)).diagonal() == (1, 1, 1)
    assert quotient_by_trio(trio, PermGroup(27, [])).rank == 4
    projection, section = boundary_quotient(trio.classes)
    assert projection.rows == 4 and projection.cols == 7
    # section is a right inverse of the projection
    assert (projection @ section).is_identity()
    # trio classes project to zero
    for cls in trio.classes:
        assert projection.apply(cls) == (0, 0, 0, 0)


def test_quotient_maps_of_all_45_trios():
    for trio in tritangent_trios():
        _check_free_quotient(trio.classes)


def test_the_irreducible_boundary_quotient_is_free_of_rank_6():
    _check_free_quotient((HYPERPLANE,))


@pytest.mark.parametrize(
    "components",
    [
        ((0, 2, 0, 0, 0, 0, 0),),
        ((0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0)),
        (reference_trio().classes[0], *reference_trio().classes[:2]),
    ],
    ids=["twice e1", "e1 repeated", "a line repeated in a trio"],
)
def test_boundary_quotient_refuses_torsion_and_dependent_components(components):
    with pytest.raises(TorsionFound):
        boundary_quotient(components)


def test_quotient_maps_are_computed_once_per_trio(monkeypatch, stabilizer_classes):
    calls = []

    def counting_snf(matrix):
        calls.append(matrix)
        return snf(matrix)

    monkeypatch.setattr(cubiclattice, "snf", counting_snf)
    cubiclattice.boundary_quotient.cache_clear()
    cubiclattice._induced_action.cache_clear()
    trio = reference_trio()
    for cls in stabilizer_classes:
        quotient_by_trio(trio, cls.group)
    assert len(stabilizer_classes) == 246
    assert len(calls) == 1


def test_one_smith_form_route_in_the_lattice_module():
    """``snf`` is called only in ``boundary_quotient``; no elementary divisors."""
    tree = ast.parse(Path(cubiclattice.__file__).read_text())

    def snf_calls(node) -> int:
        return sum(
            isinstance(n, ast.Call)
            and "snf" in (getattr(n.func, "id", None), getattr(n.func, "attr", None))
            for n in ast.walk(node)
        )

    quotient = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "boundary_quotient"
    )
    assert snf_calls(tree) == snf_calls(quotient) == 1
    names = {
        getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    }
    assert "elementary_divisors" not in names


def test_quotient_requires_stabilizing_group():
    trio = reference_trio()
    w = weyl_group()
    moving = next(
        g for g in w.generators if {g[i] for i in trio.indices} != set(trio.indices)
    )
    with pytest.raises(NotStabilized):
        quotient_by_trio(trio, PermGroup(27, [moving]))


def test_sweep_quotients_match_the_direct_product(stabilizer_classes):
    """Each cached induced matrix is projection @ pic_action(g) @ section."""
    trio = reference_trio()
    projection, section = boundary_quotient(trio.classes)
    for cls in stabilizer_classes:
        quotient = quotient_by_trio(trio, cls.group)
        assert len(quotient.matrices) == len(cls.group.generators)
        for g, m in zip(cls.group.generators, quotient.matrices):
            assert m == projection @ pic_action(g) @ section


def test_a_moving_group_is_refused_after_a_stabilizing_one(trio_stabilizer):
    """A failed stabilizer check is not cached: it raises on every call."""
    trio = reference_trio()
    quotient_by_trio(trio, trio_stabilizer)
    moving = next(
        g for g in weyl_group().generators
        if {g[i] for i in trio.indices} != set(trio.indices)
    )
    for group in (PermGroup(27, [moving]), PermGroup(27, [*trio_stabilizer.generators, moving])):
        for _ in range(2):
            with pytest.raises(NotStabilized):
                quotient_by_trio(trio, group)


def test_a_trio_quotient_can_be_deep_copied(trio_stabilizer):
    quotient = quotient_by_trio(reference_trio(), trio_stabilizer)
    clone = copy.deepcopy(quotient)
    assert clone == quotient
    assert clone.group.order() == 1152
    maps = boundary_quotient(reference_trio().classes)
    assert copy.deepcopy(maps) == maps


def test_quotient_action_unimodular():
    trio = reference_trio()
    stab = setwise_stabilizer(weyl_group(), set(trio.indices))
    quotient = quotient_by_trio(trio, stab)
    for m in quotient.matrices:
        assert m.det() in (1, -1)


def test_all_45_trios_torsion_free():
    for trio in tritangent_trios():
        assert snf(_boundary_matrix(trio.classes)).diagonal() == (1, 1, 1)


def test_torsion_free_line_conic():
    for line in lines27():
        _check_free_quotient(_line_conic(line))
        assert elementary_divisors(_boundary_matrix(_line_conic(line))) == (1, 1)


def test_weyl_full_listing_matches_order():
    w = weyl_group()
    assert len(w.elements()) == 51840


def test_quotient_rejects_non_trio():
    fake = TritangentTrio(
        ((0, 1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0, 0))
    )
    with pytest.raises(ValueError):
        quotient_by_trio(fake, PermGroup(27, []))


def test_line_permutation_matrix_round_trip():
    rng = random.Random(23)
    w = weyl_group()
    for _ in range(25):
        g = rng.choice(w.generators)
        h = rng.choice(w.generators)
        word = compose(g, compose(h, g))
        assert matrix_to_line_permutation(pic_action(word)) == word


def test_stabilizer_order_by_direct_filter():
    # independent of the orbit-stabilizer route: literally filter W(E6)
    w = weyl_group()
    trio = set(reference_trio().indices)
    count = sum(1 for g in w.elements() if {g[i] for i in trio} == trio)
    assert count == 1152
