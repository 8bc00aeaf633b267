"""Permutation groups: orders, stabilizers, subgroup enumeration."""

from __future__ import annotations

import copy
import hashlib
import random
import tracemalloc
from itertools import product
from math import factorial, gcd, lcm

import pytest
from oracles import closure, greedy_generators

from cubicbrauer.errors import NotSolvable, NotStabilized, TooLarge
from cubicbrauer.perms import (
    PermGroup,
    _TableGroup,
    compose,
    identity_perm,
    inverse,
    orbit_count,
    perm_from_cycles,
    perm_order,
    setwise_stabilizer,
    subgroup_classes,
)


def cyc(n, *cycles):
    return perm_from_cycles(n, [list(c) for c in cycles])


def s3():
    return PermGroup(3, [cyc(3, (0, 1)), cyc(3, (0, 1, 2))])


def s4():
    return PermGroup(4, [cyc(4, (0, 1)), cyc(4, (0, 1, 2, 3))])


def d4():
    return PermGroup(4, [cyc(4, (0, 1, 2, 3)), cyc(4, (1, 3))])


def _linear_group(*matrices):
    """Subgroup of GL(2,3) acting on the 8 nonzero vectors of F_3^2."""
    points = [v for v in product(range(3), repeat=2) if v != (0, 0)]
    index = {v: i for i, v in enumerate(points)}

    def act(matrix):
        (a, b), (c, d) = matrix
        return tuple(
            index[((a * x + b * y) % 3, (c * x + d * y) % 3)] for x, y in points
        )

    return PermGroup(8, [act(m) for m in matrices])


def sl23():
    """SL(2,3), order 24."""
    return _linear_group(((1, 1), (0, 1)), ((0, -1), (1, 0)))


def gl23():
    """GL(2,3), order 48."""
    return _linear_group(((1, 1), (0, 1)), ((0, -1), (1, 0)), ((1, 0), (0, -1)))


def test_group_order_examples():
    assert PermGroup(3, [cyc(3, (0, 1, 2))]).order() == 3
    assert s3().order() == 6
    assert PermGroup(4, []).order() == 1


def test_order_equals_element_count():
    for group in (s3(), s4(), gl23()):
        assert group.order() == len(group.elements())
        assert set(group.elements()) == closure(group.degree, group.generators)
        assert factorial(group.degree) % group.order() == 0


def test_membership():
    """The listing holds exactly the elements that the generators reach."""
    group = s4()
    assert group.elements() == tuple(sorted(closure(4, group.generators)))
    five_cycle = PermGroup(5, [cyc(5, (0, 1, 2, 3, 4))])
    assert cyc(5, (0, 4)) not in five_cycle.elements()
    assert cyc(5, (0, 4)) not in closure(5, five_cycle.generators)


def _exponent(group):
    return lcm(*map(perm_order, group.elements()))


def test_exponent():
    assert _exponent(s3()) == 6
    assert _exponent(PermGroup(3, [])) == 1
    assert sl23().order() == 24 and _exponent(sl23()) == 12
    assert gl23().order() == 48 and _exponent(gl23()) == 24  # has order-8 elements


@pytest.mark.parametrize("query", [PermGroup.elements, PermGroup.order])
def test_listing_stops_past_its_bound(query, monkeypatch):
    """S_20 is refused after a listing of fewer than 2 * bound elements.

    Each coset of the group listed so far (C_20 here) is added whole, so the
    listing passes the bound by less than one coset.
    """
    from cubicbrauer import perms

    listed = []
    add = perms._Dimino.add

    def counted(self, gen):
        try:
            return add(self, gen)
        finally:
            listed.append(len(self.codes))

    monkeypatch.setattr(perms._Dimino, "add", counted)
    monkeypatch.setattr(perms, "ELEMENT_LISTING_BOUND", 100)
    s20 = PermGroup(20, [cyc(20, tuple(range(20))), cyc(20, (0, 1))])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            query(s20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 100 < listed[-1] <= 120, listed
    assert peak < 10**6, peak
    assert s20._listed is None


def test_element_bound_is_checked_on_every_call(monkeypatch):
    """The bound is read when each call is made, also on a listing already cached."""
    from cubicbrauer import perms

    s6 = PermGroup(6, [cyc(6, (0, 1)), cyc(6, tuple(range(6)))])
    assert len(s6.elements()) == 720
    monkeypatch.setattr(perms, "ELEMENT_LISTING_BOUND", 10)
    with pytest.raises(TooLarge):
        s6.elements()
    with pytest.raises(TooLarge):
        s6.order()
    monkeypatch.setattr(perms, "ELEMENT_LISTING_BOUND", 720)
    assert len(s6.elements()) == 720


def test_setwise_stabilizer_examples():
    group = s3()
    stab = setwise_stabilizer(group, {0})
    assert stab.order() == 2
    assert setwise_stabilizer(group, {0, 1, 2}).order() == 6
    # orbit-stabilizer: |orbit of the set| * |stab| = |G|
    stab01 = setwise_stabilizer(s4(), {0, 1})
    assert stab01.order() * 6 == 24  # six 2-subsets, all in one orbit


def test_setwise_stabilizer_is_exact():
    group = s4()
    stab = setwise_stabilizer(group, {0, 1})
    expected = {p for p in closure(4, group.generators) if {p[0], p[1]} == {0, 1}}
    assert set(stab.elements()) == expected


def _assert_prefix_chain(stab, order):
    """No generator lies in the group of the ones before it."""
    gens = stab.generators
    assert gens and stab.order() == order == len(closure(stab.degree, gens))
    for i, g in enumerate(gens):
        assert g not in closure(stab.degree, gens[:i])


def test_setwise_stabilizer_generators_form_a_prefix_chain():
    _assert_prefix_chain(setwise_stabilizer(s4(), {0, 1}), 4)
    _assert_prefix_chain(setwise_stabilizer(s4(), {0}), 6)
    _assert_prefix_chain(setwise_stabilizer(s3(), {0}), 2)
    # here a Schreier generator inside the group kept so far comes before the last
    _assert_prefix_chain(setwise_stabilizer(s4(), {2}), 6)
    s5 = PermGroup(5, [cyc(5, (0, 1)), cyc(5, (0, 1, 2, 3, 4))])
    _assert_prefix_chain(setwise_stabilizer(s5, {0, 3}), 12)


def test_trio_and_line_stabilizers_form_prefix_chains(trio_stabilizer):
    from cubicbrauer.cubiclattice import weyl_group

    _assert_prefix_chain(trio_stabilizer, 1152)
    _assert_prefix_chain(setwise_stabilizer(weyl_group(), {0}), 1920)


def test_setwise_stabilizer_builds_no_stabilizer_chain(monkeypatch):
    """Membership is read from the element set of the group kept so far.

    The stabilizer carries its Dimino listing, so neither it nor W(E6)
    lists itself again on the table sweep's path: the enumeration's bound
    check and its table both read the carried listing, whose order the
    brute-force closure of the generators confirms.
    """
    from cubicbrauer.cubiclattice import reference_trio, weyl_group

    def forbidden(self, bound):
        raise AssertionError("no group lists itself on the table sweep's path")

    monkeypatch.setattr(PermGroup, "_listing", forbidden)
    stab = setwise_stabilizer(weyl_group(), set(reference_trio().indices))
    assert stab.order() == 1152
    classes = subgroup_classes(stab)
    monkeypatch.undo()
    assert len(classes) == 246
    assert len(closure(27, stab.generators)) == 1152


def test_a_bare_group_lists_itself_once(monkeypatch):
    """order(), elements() and the enumeration's table all read one cached listing."""
    calls = []
    listing = PermGroup._listing

    def counted(self, bound):
        calls.append(self)
        return listing(self, bound)

    monkeypatch.setattr(PermGroup, "_listing", counted)
    group = PermGroup(4, setwise_stabilizer(s4(), {0, 1}).generators)
    assert group.order() == 4 and calls == [group]
    assert group.elements() == tuple(sorted(closure(4, group.generators)))
    assert _TableGroup(group).n == 4
    assert group.order() == 4 and calls == [group]


def test_setwise_stabilizer_refuses_past_the_listing_bound(monkeypatch):
    from cubicbrauer import perms

    s6 = PermGroup(6, [cyc(6, (0, 1)), cyc(6, tuple(range(6)))])
    assert setwise_stabilizer(s6, {0}).order() == 120
    monkeypatch.setattr(perms, "ELEMENT_LISTING_BOUND", 100)
    with pytest.raises(TooLarge):
        setwise_stabilizer(s6, {0})
    assert setwise_stabilizer(s6, {0, 1}).order() == 48  # S2 x S4


def test_orbit_count():
    trivial = PermGroup(3, [])
    assert orbit_count(trivial, {0, 1, 2}) == 3
    assert orbit_count(PermGroup(3, [cyc(3, (0, 1, 2))]), {0, 1, 2}) == 1
    swap = PermGroup(3, [cyc(3, (0, 1))])
    assert orbit_count(swap, {0, 1, 2}) == 2
    with pytest.raises(NotStabilized):
        orbit_count(PermGroup(3, [cyc(3, (0, 2))]), {0, 1})


def test_subgroups_s3():
    classes = subgroup_classes(s3())
    assert [(c.order, c.conjugates) for c in classes] == [
        (1, 1),
        (2, 3),
        (3, 1),
        (6, 1),
    ]


def test_subgroups_c4():
    c4 = PermGroup(4, [cyc(4, (0, 1, 2, 3))])
    assert [c.order for c in subgroup_classes(c4)] == [1, 2, 4]


def _class_partition(group: PermGroup) -> dict[int, int]:
    """order -> number of subgroups (not classes), from the class list."""
    counts: dict[int, int] = {}
    for cls in subgroup_classes(group):
        counts[cls.order] = counts.get(cls.order, 0) + cls.conjugates
    return counts


def all_subgroups_bruteforce(group: PermGroup) -> list[frozenset]:
    """Every subgroup (not just class representatives), on Perm tuples.

    Grows subgroups one element at a time; any subgroup is reached through a
    chain of subgroups of itself, so the fixpoint is complete.  Works with
    `compose` alone, independently of the products of the enumeration.
    Meant for groups of order at most a few dozen.
    """
    trivial = frozenset({identity_perm(group.degree)})
    found = {trivial: []}  # subgroup -> generators
    queue = [trivial]
    for h in queue:
        for x in group.elements():
            if x in h:
                continue
            gens = found[h] + [x]
            bigger = closure(group.degree, gens)
            if bigger not in found:
                found[bigger] = gens
                queue.append(bigger)
    return list(found)


def _bruteforce_partition(group: PermGroup) -> dict[int, int]:
    counts: dict[int, int] = {}
    for sub in all_subgroups_bruteforce(group):
        counts[len(sub)] = counts.get(len(sub), 0) + 1
    return counts


@pytest.mark.parametrize(
    "factory",
    [
        s3,
        s4,
        sl23,
        gl23,
        lambda: PermGroup(4, [cyc(4, (0, 1), (2, 3)), cyc(4, (0, 2), (1, 3))]),  # V4
        lambda: PermGroup(6, [cyc(6, (0, 1, 2, 3, 4, 5))]),  # C6
        lambda: PermGroup(6, [cyc(6, (0, 1, 2)), cyc(6, (3, 4))]),  # C3 x C2 on 6 pts
        lambda: PermGroup(4, [cyc(4, (0, 1, 2, 3)), cyc(4, (1, 3))]),  # D4
        lambda: PermGroup(4, [cyc(4, (0, 1, 2)), cyc(4, (0, 1), (2, 3))]),  # A4
    ],
)
def test_enumeration_complete_vs_bruteforce(factory):
    group = factory()
    assert _class_partition(group) == _bruteforce_partition(group)


def _reduce_generators(degree, gens):
    """Drop generators already generated by the kept ones (order-preserving)."""
    kept = []
    for g in gens:
        if g not in closure(degree, kept):
            kept.append(g)
    return kept


def _indexed(group):
    """The elements in the table's index order, from `PermGroup.elements`, and their indices."""
    elements = group.elements()
    return elements, {p: i for i, p in enumerate(elements)}


def _permutation_generators(group):
    _, index = _indexed(group)
    return [index[p] for p in _reduce_generators(group.degree, list(group.generators))]


def _product(tg, x, y):
    """The index of the product x y, formed as the enumeration forms it."""
    return tg.ids[tg.codes[y].translate(tg.pads[x])]


def _assert_products(tg, group, pairs):
    """Each product x * y, and x times a coset of two elements, against `compose`."""
    elements, index = _indexed(group)
    for x, y in pairs:
        expected = index[compose(elements[x], elements[y])]
        assert _product(tg, x, y) == expected, (x, y)
        coset = list(tg.left_coset(x, [tg.codes[y], tg.codes[0]]))
        assert coset == [expected, x], (x, y)


def _assert_linear_storage(tg):
    """One code, one 256-byte translation table and one dict entry per element."""
    assert len(tg.codes) == len(tg.pads) == len(tg.ids) == tg.n
    assert all(len(pad) == 256 for pad in tg.pads)


@pytest.mark.parametrize("factory", [s4, gl23, d4])
def test_cayley_table_matches_compose(factory):
    """Every product formed on demand is the index of the `compose` product."""
    group = factory()
    tg = _TableGroup(group)
    _assert_linear_storage(tg)
    _assert_products(tg, group, product(range(tg.n), repeat=2))


def test_cayley_table_matches_compose_on_the_trio_stabilizer(trio_stabilizer):
    """Generator rows and columns, then 20000 seeded random pairs."""
    tg = _TableGroup(trio_stabilizer)
    assert tg.n == 1152
    _assert_linear_storage(tg)
    gens = _permutation_generators(trio_stabilizer) + tg.gens
    _assert_products(tg, trio_stabilizer, ((g, x) for g in gens for x in range(tg.n)))
    _assert_products(tg, trio_stabilizer, ((x, g) for g in gens for x in range(tg.n)))
    rng = random.Random(20250916)
    randoms = ((rng.randrange(tg.n), rng.randrange(tg.n)) for _ in range(20000))
    _assert_products(tg, trio_stabilizer, randoms)


def test_table_takes_redundant_generators_as_given():
    """S4 from duplicates and products has the same products as from two generators."""
    t, c = cyc(4, (0, 1)), cyc(4, (0, 1, 2, 3))
    redundant = [t, c, t, compose(t, c), compose(c, c), c, identity_perm(4)]
    group = PermGroup(4, redundant)
    assert len(group.generators) == 4  # PermGroup drops only repeats and e
    reduced, full = _TableGroup(s4()), _TableGroup(group)
    assert full.n == reduced.n == 24
    assert group.elements() == s4().elements() and full.codes == reduced.codes
    pairs = list(product(range(24), repeat=2))
    assert [_product(full, x, y) for x, y in pairs] == [
        _product(reduced, x, y) for x, y in pairs
    ]
    _assert_products(full, group, pairs)
    assert full.inv == reduced.inv
    assert full.order_of == reduced.order_of


def test_table_on_a_partial_support():
    """S3 on points 2, 5, 7 of nine, and the trivial group."""
    for group in (PermGroup(9, [cyc(9, (2, 5)), cyc(9, (2, 5, 7))]), PermGroup(5, [])):
        tg = _TableGroup(group)
        _assert_linear_storage(tg)
        _assert_products(tg, group, product(range(tg.n), repeat=2))
        _check_table_inverses_orders_and_elements(group)


def _check_table_inverses_orders_and_elements(group):
    tg = _TableGroup(group)
    elements, index = _indexed(group)
    assert len(elements) == tg.n and elements[0] == identity_perm(group.degree)
    for x, p in enumerate(elements):
        assert tg.inv[x] == index[inverse(p)]
        assert tg.order_of[x] == perm_order(p)


@pytest.mark.parametrize("factory", [s4, gl23, d4])
def test_table_inverses_orders_and_elements(factory):
    _check_table_inverses_orders_and_elements(factory())


def test_table_inverses_orders_and_elements_on_the_trio_stabilizer(trio_stabilizer):
    _check_table_inverses_orders_and_elements(trio_stabilizer)


def _check_extend_matches_closure(group, seed):
    """closure(gens) and extend(H, gens) = <gens>, for H generated by each prefix of gens.

    The reference is the brute-force closure of the elements, mapped to indices.
    """
    tg = _TableGroup(group)
    elements, index = _indexed(group)
    rng = random.Random(seed)

    def reference(gens):
        generated = closure(group.degree, [elements[g] for g in gens])
        return frozenset(map(index.__getitem__, generated))

    for _ in range(40):
        gens = [rng.randrange(tg.n) for _ in range(rng.randint(1, 4))]
        expected = reference(gens)
        assert tg.closure(gens) == expected
        for k in range(len(gens) + 1):
            assert tg.extend(reference(gens[:k]), gens) == expected


@pytest.mark.parametrize("factory", [s4, gl23, d4])
def test_extend_matches_closure(factory):
    _check_extend_matches_closure(factory(), 1)


def test_extend_matches_closure_on_the_trio_stabilizer(trio_stabilizer):
    _check_extend_matches_closure(trio_stabilizer, 2)


def _conjugate(elements, index, x, sub):
    """x U x^-1 as indices, by `compose` on the elements."""
    p = elements[x]
    p_inv = inverse(p)
    return frozenset(index[compose(compose(p, elements[u]), p_inv)] for u in sub)


def _normalizer_by_conjugation(elements, inverses, sub, gens=None):
    """{x : x U x^-1 = U}, by conjugating generators of U (all of U by default) by every x.

    x U x^-1 is generated by the conjugates of the generators, and
    conjugation is injective, so x U x^-1 inside U already means equality.
    Uses `compose` on the elements and their ``inverses`` (from `inverse`),
    not the products of the table.
    """
    members = {elements[u] for u in sub}
    gens = members if gens is None else gens
    return frozenset(
        x
        for x, (p, p_inv) in enumerate(zip(elements, inverses))
        if all(compose(compose(p, g), p_inv) in members for g in gens)
    )


@pytest.mark.parametrize("factory", [s4, gl23, d4])
def test_orbit_normalizer_matches_bruteforce(factory):
    """The orbit walk from every subgroup, listed without the enumeration."""
    group = factory()
    tg = _TableGroup(group)
    elements, index = _indexed(group)
    inverses = list(map(inverse, elements))
    for sub in all_subgroups_bruteforce(group):
        start = frozenset(index[p] for p in sub)
        orbit, rep, gens, norm_gens, norm = tg.conjugacy_orbit_and_normalizer(start)
        assert all(list(t) == sorted(t) for t in orbit)
        conjugates = {_conjugate(elements, index, x, start) for x in range(tg.n)}
        assert set(map(frozenset, orbit)) == conjugates
        assert rep == min(map(frozenset, orbit), key=sorted)
        assert tg.closure(gens) == rep and norm_gens[: len(gens)] == gens
        expected = _normalizer_by_conjugation(elements, inverses, rep)
        assert norm == tg.closure(norm_gens) == expected


def test_orbit_normalizer_matches_bruteforce_on_the_trio_stabilizer(
    trio_stabilizer, stabilizer_classes
):
    """Each class rep R, walked from R and from a conjugate x R x^-1 != R."""
    tg = _TableGroup(trio_stabilizer)
    elements, index = _indexed(trio_stabilizer)
    inverses = list(map(inverse, elements))
    for cls in stabilizer_classes:
        rep = frozenset(index[p] for p in cls.group.elements())
        expected = _normalizer_by_conjugation(elements, inverses, rep, cls.group.generators)
        starts = [rep]
        outside = next((x for x in range(tg.n) if x not in expected), None)
        if outside is not None:
            starts.append(_conjugate(elements, index, outside, rep))
        for start in starts:
            orbit, found, gens, norm_gens, norm = tg.conjugacy_orbit_and_normalizer(start)
            assert found == rep and len(orbit) == cls.conjugates
            assert tg.closure(gens) == rep and norm_gens[: len(gens)] == gens
            assert norm == tg.closure(norm_gens) == expected


@pytest.mark.parametrize(
    "factory",
    [
        s3,
        s4,
        sl23,
        gl23,
        d4,
        lambda: PermGroup(6, [cyc(6, (0, 1, 2, 3, 4, 5))]),  # C6
        lambda: PermGroup(6, [cyc(6, (0, 1, 2)), cyc(6, (3, 4, 5))]),  # C3 x C3: index 9
        lambda: PermGroup(4, [cyc(4, (0, 1, 2)), cyc(4, (0, 1), (2, 3))]),  # A4
    ],
)
def test_greedy_generators_match_the_full_loop(factory):
    """Stopping at the first prime index keeps what closing over every kept element keeps."""
    group = factory()
    tg = _TableGroup(group)
    elements, index = _indexed(group)
    for sub in all_subgroups_bruteforce(group):
        subgroup = frozenset(index[p] for p in sub)
        assert tg.greedy_generators(subgroup) == greedy_generators(elements, subgroup)


def test_greedy_generators_match_the_full_loop_on_the_trio_stabilizer(
    trio_stabilizer, stabilizer_classes
):
    """Every class rep of the sweep, and the whole group."""
    tg = _TableGroup(trio_stabilizer)
    elements, index = _indexed(trio_stabilizer)
    reps = [frozenset(index[p] for p in cls.group.elements()) for cls in stabilizer_classes]
    assert len(reps) == 246 and len(reps[-1]) == tg.n
    for rep in reps:
        assert tg.greedy_generators(rep) == greedy_generators(elements, rep)


def _check_small_generating_set(group, expected=None):
    tg = _TableGroup(group)
    assert len(tg.closure(tg.gens)) == tg.n
    assert len(tg.gens) <= len(_permutation_generators(group))
    if expected is not None:
        assert len(tg.gens) == expected
    assert len(tg.conj_maps) == len(tg.gens)


@pytest.mark.parametrize(
    "factory, expected",
    [
        (s4, None),
        (gl23, None),
        (d4, None),
        (lambda: PermGroup(6, [cyc(6, (0, 1, 2)), cyc(6, (3, 4))]), 1),  # C6
        (lambda: PermGroup(3, []), 0),
        (lambda: PermGroup(6, [cyc(6, (0, 1)), cyc(6, (2, 3)), cyc(6, (4, 5))]), 3),  # (Z/2)^3
    ],
)
def test_table_generators_generate_and_are_few(factory, expected):
    _check_small_generating_set(factory(), expected)


def test_trio_stabilizer_table_has_two_generators(trio_stabilizer):
    _check_small_generating_set(trio_stabilizer, 2)


def test_orbit_walk_does_not_depend_on_the_generators(trio_stabilizer, stabilizer_classes):
    """The walk on the table's generators and on the permutation generators agree.

    The orbit, its least member R, the greedy generators of R and N_G(R) as a
    set are each defined without reference to the generators of G.
    """
    tg = _TableGroup(trio_stabilizer)
    elements, index = _indexed(trio_stabilizer)
    by_perms = copy.copy(tg)
    by_perms.gens = _permutation_generators(trio_stabilizer)
    by_perms.conj_maps = []
    for g in by_perms.gens:
        p, p_inv = elements[g], inverse(elements[g])
        by_perms.conj_maps.append([index[compose(compose(p, q), p_inv)] for q in elements])
    assert len(by_perms.gens) == 5 and len(tg.gens) == 2
    for cls in stabilizer_classes:
        start = frozenset(index[p] for p in cls.group.elements())
        orbit, rep, rep_gens, _, norm = tg.conjugacy_orbit_and_normalizer(start)
        orbit2, rep2, rep_gens2, _, norm2 = by_perms.conjugacy_orbit_and_normalizer(start)
        assert set(orbit) == set(orbit2) and len(orbit) == cls.conjugates
        assert (rep, rep_gens, norm) == (rep2, rep_gens2, norm2)


def _line_stabilizer():
    from cubicbrauer.cubiclattice import weyl_group

    return setwise_stabilizer(weyl_group(), {0})


@pytest.mark.parametrize(
    "factory, order",
    [
        (lambda: PermGroup(5, [cyc(5, (0, 1, 2)), cyc(5, (0, 1, 2, 3, 4))]), 60),  # A5
        (lambda: PermGroup(6, [cyc(6, (0, 1)), cyc(6, tuple(range(6)))]), 720),  # S6
        (_line_stabilizer, 1920),  # W(D5), 2^4 : S5
    ],
    ids=["a5", "s6", "line_stabilizer"],
)
def test_enumeration_rejects_nonsolvable(factory, order):
    """The sweep from the trivial group reaches every solvable subgroup, and never G."""
    group = factory()
    assert group.order() == order
    with pytest.raises(NotSolvable):
        subgroup_classes(group)


def test_enumeration_rejects_too_large():
    s8 = PermGroup(8, [cyc(8, (0, 1)), cyc(8, tuple(range(8)))])
    with pytest.raises(TooLarge):
        subgroup_classes(s8)


def test_enumeration_bound_guards_the_cayley_table(monkeypatch):
    """(Z/2)^13 is solvable, of order 8192: its listing stops past the bound of 5000."""
    from cubicbrauer import perms

    def forbidden(*args, **kwargs):
        raise AssertionError("no table above the enumeration bound")

    monkeypatch.setattr(perms, "_TableGroup", forbidden)
    group = PermGroup(26, [cyc(26, (2 * i, 2 * i + 1)) for i in range(13)])
    assert len(closure(26, group.generators)) == 8192
    with pytest.raises(TooLarge):
        subgroup_classes(group)


def test_a_degree_over_256_is_refused_before_any_listing(monkeypatch):
    """A byte code holds 256 points: a group of order 2 on 300 points is not built."""
    from cubicbrauer import perms

    def forbidden(*args, **kwargs):
        raise AssertionError("no element listing beyond degree 256")

    assert PermGroup(256, [cyc(256, (0, 255))]).order() == 2
    monkeypatch.setattr(perms, "_TableGroup", forbidden)
    monkeypatch.setattr(perms, "_Dimino", forbidden)
    gens = [cyc(300, (0, 299))]
    assert len(closure(300, gens)) == 2
    with pytest.raises(TooLarge, match="degree 300"):
        PermGroup(300, gens)


def test_enumeration_memory_stays_linear_in_the_group_order(trio_stabilizer):
    """The enumeration of the trio stabilizer peaks under 6 MB of Python allocations.

    A 1152 x 1152 table of products alone took about 10.7 MB; the products
    formed on demand bring the peak to about 3 MB.
    """
    trio_stabilizer.order()  # carried from setwise_stabilizer: no chain is built
    tracemalloc.start()
    try:
        classes = subgroup_classes(trio_stabilizer)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 246
    assert peak < 6 * 10**6, peak


def test_classes_are_genuine_subgroups_and_nonconjugate():
    group = gl23()
    classes = subgroup_classes(group)
    elements = group.elements()
    for cls in classes:
        sub = frozenset(cls.group.elements())
        # closed under multiplication
        assert all(compose(p, q) in sub for p in sub for q in sub)
    # pairwise non-conjugate: exhaust all conjugators within each order bucket
    by_order: dict[int, list[frozenset]] = {}
    for cls in classes:
        by_order.setdefault(cls.order, []).append(frozenset(cls.group.elements()))
    for bucket in by_order.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                conjugate = any(
                    frozenset(compose(compose(x, h), _inv(x)) for h in bucket[i])
                    == bucket[j]
                    for x in elements
                )
                assert not conjugate


def _inv(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def test_enumeration_deterministic():
    first = [(c.order, c.group.elements()) for c in subgroup_classes(s4())]
    second = [(c.order, c.group.elements()) for c in subgroup_classes(s4())]
    assert first == second


# -- the trio stabilizer at scale ---------------------------------------------


def test_stabilizer_element_count_matches_order(trio_stabilizer):
    assert trio_stabilizer.order() == 1152
    assert len(trio_stabilizer.elements()) == 1152
    assert _exponent(trio_stabilizer) == 24


def test_stabilizer_subgroup_counting_identities(trio_stabilizer, stabilizer_classes):
    """Completeness cross-checks against raw element counts.

    The number of subgroups of prime order p equals (number of elements of
    order p) / (p - 1); the class list must reproduce it through the sizes
    of the conjugation orbits.
    """
    elements = trio_stabilizer.elements()
    order_census = {}
    for p in elements:
        k = perm_order(p)
        order_census[k] = order_census.get(k, 0) + 1
    subgroups_by_order = {}
    for cls in stabilizer_classes:
        subgroups_by_order[cls.order] = (
            subgroups_by_order.get(cls.order, 0) + cls.conjugates
        )
    assert subgroups_by_order[2] == order_census[2]
    assert subgroups_by_order[3] == order_census[3] // 2
    # cyclic subgroups of order 4 are counted by order-4 elements in pairs
    cyclic4 = sum(
        cls.conjugates
        for cls in stabilizer_classes
        if cls.order == 4 and any(perm_order(p) == 4 for p in cls.group.elements())
    )
    assert cyclic4 == order_census[4] // 2


def _cyclic_class_census(classes):
    """(number of cyclic classes, sum of conjugates * phi(order) over them).

    Each element generates exactly one cyclic subgroup, and a cyclic group
    of order m has phi(m) generators, so the sum is |G|.  A class counts as
    cyclic when its group has at most one generator; each such group is
    checked to be cyclic from its elements' orders.
    """
    cyclic = [cls for cls in classes if len(cls.group.generators) <= 1]
    for cls in classes:
        has_generator = any(perm_order(p) == cls.order for p in cls.group.elements())
        assert has_generator == (len(cls.group.generators) <= 1), cls
    total = sum(
        cls.conjugates * sum(gcd(k, cls.order) == 1 for k in range(cls.order))
        for cls in cyclic
    )
    return len(cyclic), total


@pytest.mark.parametrize("factory", [s4, gl23, d4])
def test_cyclic_classes_account_for_every_element(factory):
    group = factory()
    assert _cyclic_class_census(subgroup_classes(group))[1] == group.order()


def test_cyclic_classes_account_for_every_element_of_the_trio_stabilizer(stabilizer_classes):
    assert _cyclic_class_census(stabilizer_classes) == (25, 1152)


def test_stabilizer_class_reps_are_subgroups(stabilizer_classes):
    for cls in stabilizer_classes:
        if cls.order <= 64:
            members = frozenset(cls.group.elements())
            assert all(compose(p, q) in members for p in members for q in members)
        assert cls.group.order() == cls.order


def test_stabilizer_small_classes_pairwise_nonconjugate(
    trio_stabilizer, stabilizer_classes
):
    elements = trio_stabilizer.elements()
    small = [frozenset(c.group.elements()) for c in stabilizer_classes if c.order in (2, 3)]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            if len(small[i]) != len(small[j]):
                continue
            gens = [p for p in small[i] if perm_order(p) > 1]
            assert not any(
                all(compose(compose(x, g), _inv(x)) in small[j] for g in gens)
                for x in elements
            )


# sha256 over (order, conjugates, sorted elements) of every class of the
# trio stabilizer, recorded from the tuple-arithmetic enumeration
STABILIZER_CLASSES_SHA256 = "290bfb26e110a3ce0db79d02be52adf0dbc48f446f262f7466efdd4eae90e844"


def test_stabilizer_classes_golden_digest(stabilizer_classes):
    digest = hashlib.sha256()
    for cls in stabilizer_classes:
        members = sorted(cls.group.elements())
        digest.update(repr((cls.order, cls.conjugates, members)).encode())
    assert digest.hexdigest() == STABILIZER_CLASSES_SHA256


# sha256 over (orbits, br1, brx) of every entry of the table sweep, in sweep
# order, recorded from the enumeration that scanned all of G for normalizers
TABLE_SWEEP_SHA256 = "fdb2aba5ed4cc6ebd32d3475147d1815441ae22723c0ec9ad88b7384a3277046"


def test_table_sweep_golden_digest():
    from cubicbrauer.brauer import table_sweep_entries

    digest = hashlib.sha256()
    for entry in table_sweep_entries():
        digest.update(repr((entry.orbits, entry.pair.br1, entry.pair.brx)).encode())
    assert digest.hexdigest() == TABLE_SWEEP_SHA256


def test_subgroup_count_recorded(stabilizer_classes):
    # recorded value for this artifact: 246 classes, 5191 subgroups in total
    assert len(stabilizer_classes) == 246
    assert sum(c.conjugates for c in stabilizer_classes) == 5191
