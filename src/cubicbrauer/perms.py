"""Finite permutation groups.

Permutations on {0, ..., n-1} are image tuples; (p * q)(x) = p(q(x)) is
realized by :func:`compose`.  :class:`PermGroup` lists its elements up to
a bound, :func:`setwise_stabilizer` finds set stabilizers, and
:func:`subgroup_classes` enumerates the subgroups of a solvable group up
to conjugacy by the cyclic extension method.  All three work on byte
codes: a permutation's code is ``bytes(p)``, the bytes of its images, so
a group has degree at most 256, and q * p is
``bytes(p).translate(bytes(q) + pad)`` with pad the bytes n..255.  Codes
sort as the permutations do, so the identity is the least.  A group is
listed once, by Dimino's cosets on these codes (:class:`_Dimino`), and
its order, its elements and the enumeration's table all read that cached
listing.  :func:`setwise_stabilizer` tests every Schreier
generator of the set's orbit against the listing of the group kept so
far, and the group it returns carries that listing, so the trio
stabilizer is listed once on the table sweep's path.  The enumeration
works on indices into the sorted codes (the identity is index 0); only
the generators of the classes found are read back as tuples.  Every
product of two indices is formed when it is read, by one
``bytes.translate`` and one dict lookup, so memory stays linear in the
order of the group; no table of all products is built.  A small
generating set of the group (two elements for the trio stabilizer, which
has five permutation generators) is found first, and every walk over
conjugates runs on it, since a walk costs one step per conjugate and
generator.  The walk over the conjugates of each class also yields its
normalizer, grown from the class one coset at a time (Dimino's
algorithm) by the Schreier elements of that orbit alone, which normalize
it, each formed when read, until it has the order the orbit dictates
(orbit-stabilizer); so no element of G is tested one by one and no
subgroup is closed again from the identity.  Solvability needs no test
of its own: each class is built from the trivial group by normal
extensions of prime index, so it is solvable, and every solvable
subgroup is reached (Neubüser 1960), so G is found among the classes iff
it is solvable.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import itemgetter
from math import lcm
from typing import Iterable, NamedTuple

from .arith import factorint
from .errors import NotSolvable, NotStabilized, TooLarge
from .values import Value

Perm = tuple[int, ...]

ELEMENT_LISTING_BOUND = 10**5
# Subgroup enumeration keeps a few entries per element, not a table of all
# products, so this bound guards its time, which grows with the number of
# subgroup classes, rather than its memory; the trio stabilizer has order 1152.
SUBGROUP_ENUM_BOUND = 5000
# random candidate generating sets tried per size before the permutation
# generators are kept
_RANDOM_GENERATOR_TRIES = 20


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """(p * q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def is_permutation(p: Perm) -> bool:
    n = len(p)
    return sorted(p) == list(range(n))


def cycle_lengths(p: Perm) -> tuple[int, ...]:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        out.append(length)
    return tuple(sorted(out))


def perm_order(p: Perm) -> int:
    return lcm(*cycle_lengths(p)) if p else 1


def perm_from_cycles(n: int, cycles: list[list[int]]) -> Perm:
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return tuple(images)


class PermGroup(Value):
    """A finite permutation group given by generators, of degree at most 256.

    A value: two groups are equal when they have the same degree and the
    same generator tuple, so two generating sets of one group give unequal
    values.  The constructor drops repeated generators and the identity,
    and refuses a degree over 256, the points a byte code encodes, with
    TooLarge.  The elements are listed once, by Dimino's algorithm on byte
    codes (:class:`_Dimino`), and the sorted codes are cached in the
    ``_listed`` slot, or carried from :func:`setwise_stabilizer` for the
    group it returns.  ``order()`` is their number, ``elements()`` reads
    them back as tuples on each call, and the subgroup enumeration indexes
    them.  Both methods raise TooLarge once the group has more than
    ELEMENT_LISTING_BOUND elements, after listing fewer than twice that many.
    """

    __slots__ = ("degree", "generators", "_listed")

    def __init__(self, degree: int, generators: Iterable[Iterable[int]]):
        if degree < 1:
            raise ValueError("degree must be positive")
        if degree > 256:
            raise TooLarge(f"degree {degree} exceeds the 256 points a byte code encodes")
        gens = []
        seen = set()
        ident = identity_perm(degree)
        for g in generators:
            g = tuple(g)
            if len(g) != degree or not is_permutation(g):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
            if g != ident and g not in seen:
                seen.add(g)
                gens.append(g)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_listed", None)

    def _listing(self, bound: int) -> list[bytes]:
        """The sorted byte codes of the elements, listed by Dimino's cosets."""
        listing = _Dimino(self.degree, bound)
        for g in self.generators:
            listing.add(bytes(g))
        return sorted(listing.codes)

    def _codes(self, bound: int) -> list[bytes]:
        """The cached listing; TooLarge past ``bound`` elements."""
        if self._listed is None:
            object.__setattr__(self, "_listed", self._listing(bound))
        n = len(self._listed)
        if n > bound:
            raise TooLarge(f"group of order {n} exceeds bound {bound}")
        return self._listed

    def order(self) -> int:
        return len(self._codes(ELEMENT_LISTING_BOUND))

    def elements(self) -> tuple[Perm, ...]:
        return tuple(map(tuple, self._codes(ELEMENT_LISTING_BOUND)))


class _Dimino:
    """The byte codes of a group's elements, grown one generator at a time.

    Dimino's algorithm: a generator outside the group H listed so far
    starts the left cosets x H of the larger group.  Each coset
    representative x is multiplied by every generator added, and a product
    y outside the cosets found starts the coset y H, so each element is
    written once and each coset, not each element, meets the generators.
    ``codes`` lists the identity first, and ``known`` holds the same codes
    for membership.  Raises TooLarge once more than ``bound`` elements are
    listed; a coset has |H| <= bound elements, so fewer than 2 * bound are.
    """

    __slots__ = ("codes", "known", "pad", "gen_pads", "bound")

    def __init__(self, degree: int, bound: int):
        ident = bytes(range(degree))
        self.codes = [ident]
        self.known = {ident}
        self.pad = bytes(range(degree, 256))
        self.gen_pads: list[bytes] = []
        self.bound = bound

    def add(self, gen: bytes) -> bool:
        """Add the generator ``gen`` and list the cosets it brings; False if listed already."""
        codes, known, pad = self.codes, self.known, self.pad
        if gen in known:
            return False
        self.gen_pads.append(gen + pad)
        sub = list(codes)
        reps = [codes[0]]
        for x in reps:
            for gp in self.gen_pads:
                y = x.translate(gp)  # generator * x
                if y not in known:
                    coset = [u.translate(y + pad) for u in sub]  # y H
                    known.update(coset)
                    codes += coset
                    reps.append(y)
                    if len(codes) > self.bound:
                        raise TooLarge(
                            f"group of order over {self.bound} exceeds the listing bound"
                        )
        return True


def setwise_stabilizer(g: PermGroup, points: set[int] | frozenset[int]) -> PermGroup:
    """The subgroup { x in G : x(S) = S }, by Schreier's lemma on the set orbit.

    The Schreier generators of the orbit of S generate the stabilizer.  They
    are taken in a fixed order (orbit members by their sorted points, then
    the generators of G), and each one outside the group of those kept so
    far is kept.  That group is listed on byte codes by :class:`_Dimino`,
    grown each time a generator is kept, so membership is one set lookup.
    The generators returned form an irredundant prefix chain: none lies in
    the group of those before it.  The group returned carries that
    listing, so it never lists itself again.  Raises TooLarge once the
    stabilizer has more than ELEMENT_LISTING_BOUND elements.
    """
    s0 = frozenset(points)
    if not s0 <= set(range(g.degree)):
        raise ValueError("points outside the domain")
    n = g.degree
    listing = _Dimino(n, ELEMENT_LISTING_BOUND)
    pad = listing.pad
    gen_pads = [bytes(gen) + pad for gen in g.generators]
    reps: dict[frozenset[int], bytes] = {s0: listing.codes[0]}
    queue = [s0]
    for t in queue:
        rep = reps[t]
        for gen, gen_pad in zip(g.generators, gen_pads):
            t2 = frozenset(gen[x] for x in t)
            if t2 not in reps:
                reps[t2] = rep.translate(gen_pad)  # gen * rep
                queue.append(t2)
    rep_inv_pads = {
        t: bytes(sorted(range(n), key=rep.__getitem__)) + pad for t, rep in reps.items()
    }
    kept: list[bytes] = []
    for t in sorted(reps, key=sorted):
        rep = reps[t]
        for gen, gen_pad in zip(g.generators, gen_pads):
            image = frozenset(gen[x] for x in t)
            sg = rep.translate(gen_pad).translate(rep_inv_pads[image])
            if listing.add(sg):
                kept.append(sg)
    stabilizer = PermGroup(n, kept)
    object.__setattr__(stabilizer, "_listed", sorted(listing.codes))
    return stabilizer


def orbit_count(g: PermGroup, points: set[int] | frozenset[int]) -> int:
    """Number of G-orbits on a setwise-stabilized point set."""
    pts = sorted(points)
    for gen in g.generators:
        if {gen[x] for x in pts} != set(pts):
            raise NotStabilized(f"generator {gen} does not stabilize {pts}")
    remaining = set(pts)
    count = 0
    while remaining:
        seed = remaining.pop()
        orbit = {seed}
        queue = [seed]
        for x in queue:
            for gen in g.generators:
                y = gen[x]
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        remaining -= orbit
        count += 1
    return count


# -- subgroup enumeration (cyclic extension method) -----------------------


class _TableGroup:
    """A small group materialized for index arithmetic, its products formed on demand.

    Elements are indexed into the group's sorted listing
    (:meth:`PermGroup._codes`), and each index i keeps the byte code
    ``codes[i]`` of its element and the 256-byte translation table
    ``pads[i]`` (the code followed by the bytes n..255, for degree n).  The
    index of the product x y of two indices is then
    ``ids[codes[y].translate(pads[x])]``: one C call and one dict lookup,
    so memory stays linear in |G| and no product is formed before it is
    read (the whole enumeration of the trio stabilizer forms about 104 k
    of its 1.33 M products, counting each ``bytes.translate``).  Hot loops
    bind ``ids``, ``codes`` and ``pads`` as locals.  Orders and inverses
    come from powers of the byte codes.  ``primes`` lists the primes
    dividing |G|, among them every prime index of one subgroup in another.
    ``gens`` is a small generating set (:meth:`_small_generating_set`),
    which the conjugation maps and the orbit walks run on.

    The least code of the sorted listing is the identity, index 0.  The
    listing is the group's own, built by :class:`_Dimino` from the
    generators the group keeps, so it is exactly the group they generate.
    """

    def __init__(self, group: PermGroup):
        self.codes = codes = group._codes(ELEMENT_LISTING_BOUND)
        self.n = n = len(codes)
        self.primes = sorted(factorint(n))
        self.ids = ids = {c: i for i, c in enumerate(codes)}
        ident = codes[0]
        pad = bytes(range(len(ident), 256))
        self.pads = pads = [c + pad for c in codes]
        perm_gens = [ids[bytes(g)] for g in group.generators]
        order_of, inv = [], []
        for c, pc in zip(codes, pads):
            k, last, y = 1, c, c  # y = c^k, last = c^(k-1) once k > 1
            while y != ident:
                last, y = y, y.translate(pc)
                k += 1
            order_of.append(k)
            inv.append(ids[last])  # c^(k-1) = c^-1
        self.order_of, self.inv = order_of, inv
        self.gens = self._small_generating_set(perm_gens)
        # x -> g x g^-1 for each generator g: (x g^-1), then g times that
        self.conj_maps = [
            [ids[codes[inv[g]].translate(pads[x]).translate(pads[g])] for x in range(n)]
            for g in self.gens
        ]

    def left_coset(self, x: int, sub_codes: list[bytes]) -> Iterable[int]:
        """The indices of x U, for U given by the codes of its elements."""
        return map(self.ids.__getitem__, map(bytes.translate, sub_codes, repeat(self.pads[x])))

    def _small_generating_set(self, perm_gens: list[int]) -> list[int]:
        """Generators of G found by index arithmetic, no more than ``perm_gens``.

        Every orbit walk costs |orbit| * |gens| steps, so fewer generators
        make every walk cheaper.  An element of order |G| if there is one;
        else seeded random pairs, then triples, each kept once its closure
        is G; else ``perm_gens``.  Most finite groups met here are generated
        by a few random elements (the trio stabilizer by about 15% of its
        pairs).
        """
        n = self.n
        if n == 1:
            return []
        if n in self.order_of:
            return [self.order_of.index(n)]
        rng = random.Random(n)
        for size in (2, 3):
            if size >= len(perm_gens):
                break
            for _ in range(_RANDOM_GENERATOR_TRIES):
                gens = rng.sample(range(n), size)
                if len(self.closure(gens)) == n:
                    return gens
        return perm_gens

    def closure(self, seeds: list[int]) -> frozenset[int]:
        """<seeds>, listed on the byte codes by :class:`_Dimino`."""
        listing = _Dimino(len(self.codes[0]), self.n)
        for s in seeds:
            listing.add(self.codes[s])
        return frozenset(map(self.ids.__getitem__, listing.codes))

    def extend(self, elems: frozenset[int], gens: list[int]) -> frozenset[int]:
        """<gens>, grown from a subgroup H = elems of it one left coset at a time.

        Dimino's algorithm: the left cosets x H found so far are closed
        under left multiplication by the generators once each
        representative x has been multiplied by each of them, and a
        product g x outside them starts the new coset (g x) H
        (:meth:`left_coset`).  So each element of the result is written
        once, and each coset, not each element, is multiplied by the
        generators.
        """
        ids, codes, pads = self.ids, self.codes, self.pads
        gen_pads = [pads[g] for g in gens]
        sub = [codes[u] for u in elems]
        known = set(elems)
        reps = [0]  # the identity
        for x in reps:
            code_x = codes[x]
            for pg in gen_pads:
                y = ids[code_x.translate(pg)]
                if y not in known:
                    known.update(self.left_coset(y, sub))
                    reps.append(y)
        return frozenset(known)

    def greedy_generators(self, subgroup: frozenset[int]) -> list[int]:
        """Generators of U = ``subgroup``, taken by decreasing order, then by index.

        An element is kept when it lies outside the subgroup C that those
        kept before it generate.  Once |U : C| is prime, C is maximal in U,
        so the next element kept generates U with C and ends the list with
        no closure formed; until then C grows by it one coset at a time
        (:meth:`extend`).
        """
        gens: list[int] = []
        covered = frozenset({0})
        order = len(subgroup)
        # by decreasing order, then by index (the sort is stable)
        for i in sorted(sorted(subgroup), key=self.order_of.__getitem__, reverse=True):
            if i not in covered:
                gens.append(i)
                if order // len(covered) in self.primes:
                    break
                covered = self.extend(covered, gens)
                if len(covered) == order:
                    break
        return gens

    def conjugacy_orbit_and_normalizer(
        self, sub: Iterable[int]
    ) -> tuple[list[tuple[int, ...]], frozenset[int], list[int], list[int], frozenset[int]]:
        """The conjugates of U, and N_G(U) by orbit-stabilizer.

        One breadth-first search over the conjugates g U g^-1 keeps a
        transversal element t with t U t^-1 = T for each conjugate T, and
        maps T by one ``itemgetter`` over g's conjugation map.  An edge
        T -> g T g^-1 that closes back into the orbit is kept as
        (trans[T], g, trans[img]); its Schreier element
        trans[img]^-1 * g * trans[T] normalizes U, and these generate
        N_G(U) (Schreier's lemma).  Each conjugate is the sorted tuple of
        its elements, several times smaller than a frozenset, for the set
        of every conjugate that :func:`subgroup_classes` keeps (5191 for
        the trio stabilizer).  Returns the orbit, its least member R as a
        set, the greedy generators of R, generators of N_G(R) (those of R
        first, then Schreier elements conjugated by trans[R]), and the
        element set of N_G(R).  That set grows from R over the Schreier
        elements alone (:meth:`extend`), which normalize R, each formed
        when read, until its order is |G| / |orbit|.
        """
        ids, codes, pads, inv = self.ids, self.codes, self.pads, self.inv
        trans = {tuple(sorted(sub)): 0}
        closing: list[tuple[int, bytes, int]] = []
        queue = list(trans)
        steps = list(zip([pads[g] for g in self.gens], self.conj_maps))
        for t in queue:
            images = itemgetter(*t) if len(t) > 1 else lambda cg, x=t[0]: (cg[x],)
            tt = trans[t]
            for pg, cg in steps:
                img = tuple(sorted(images(cg)))
                known = trans.get(img)
                if known is None:
                    trans[img] = ids[codes[tt].translate(pg)]  # g * trans[T]
                    queue.append(img)
                else:
                    closing.append((tt, pg, known))
        rep_key = min(trans)
        rep = frozenset(rep_key)
        rep_gens = self.greedy_generators(rep)
        # c s c^-1 normalizes R = c U c^-1 for c = trans[R], formed from c^-1 leftwards
        c = trans[rep_key]
        code_c_inv, pad_c = codes[inv[c]], pads[c]
        schreier: list[int] = []
        norm = rep
        # grown only until orbit-stabilizer says it is all of N_G(R)
        order = self.n // len(trans)
        for tt, pg, known in closing:
            if len(norm) == order:
                break
            code = code_c_inv.translate(pads[tt]).translate(pg)
            s = ids[code.translate(pads[inv[known]]).translate(pad_c)]
            if s not in norm:
                schreier.append(s)
                norm = self.extend(norm, schreier)
        norm_gens = rep_gens + schreier
        if len(norm) * len(trans) != self.n:
            raise AssertionError("orbit-stabilizer mismatch in the normalizer")
        return list(trans), rep, rep_gens, norm_gens, norm


class SubgroupClass(NamedTuple):
    """One conjugacy class of subgroups, with enumeration metadata."""

    group: PermGroup
    order: int
    conjugates: int


def subgroup_classes(g: PermGroup) -> list[SubgroupClass]:
    """All subgroups of a solvable group up to conjugacy (cyclic extension).

    Every nontrivial solvable group has a normal subgroup of prime index,
    so iterating prime extensions H = <U, x> with x in N_G(U), x^p in U,
    over discovered classes U, from the trivial group, reaches every
    solvable subgroup; and each class reached is solvable, being built by
    such extensions.  So G is among the classes found iff it is solvable,
    and NotSolvable is raised after the sweep otherwise.

    Raises TooLarge if the order of G exceeds SUBGROUP_ENUM_BOUND, from a
    listing that stops once it passes the bound.
    """
    n = len(g._codes(SUBGROUP_ENUM_BOUND))
    tg = _TableGroup(g)
    primes = tg.primes

    classes: list[dict] = []
    known: set[tuple[int, ...]] = set()  # every conjugate of every class found

    def register(sub: Iterable[int]) -> None:
        orbit, rep, rep_gens, _, norm = tg.conjugacy_orbit_and_normalizer(sub)
        known.update(orbit)
        classes.append(
            {"rep": rep, "gens": rep_gens, "normalizer": norm, "conjugates": len(orbit)}
        )

    register([0])  # the trivial group
    ids, codes, pads = tg.ids, tg.codes, tg.pads
    work = 0
    while work < len(classes):
        rep = classes[work]["rep"]
        # read once; dropping it keeps one normalizer set alive, not 246
        normalizer = classes[work].pop("normalizer")
        work += 1
        size = len(rep)
        rep_codes = [codes[u] for u in rep]
        # x in an extension H = <rep, x0> of prime index already found gives
        # <rep, x> = H again, so each such x is skipped
        covered: set[int] = set()
        for x in sorted(normalizer - rep):
            if x in covered:
                continue
            code_x, pad_x = codes[x], pads[x]
            for p in primes:
                if n % (size * p):
                    continue
                xp = code_x
                for _ in range(p - 1):
                    xp = xp.translate(pad_x)  # x * xp
                if ids[xp] not in rep:
                    continue
                # x normalizes rep, so <rep, x> is the union of the cosets x^k rep
                new = set(rep)
                xk = x
                for _ in range(p - 1):
                    new.update(tg.left_coset(xk, rep_codes))
                    xk = ids[codes[xk].translate(pad_x)]
                if len(new) != size * p:
                    raise AssertionError("extension does not have prime index")
                covered |= new
                if tuple(sorted(new)) not in known:
                    register(new)
                break  # x yields exactly one minimal prime extension
            else:  # (x u)^p rep = x^p rep, so no element of x rep yields one
                covered.update(tg.left_coset(x, rep_codes))

    if not any(len(cls["rep"]) == n for cls in classes):
        raise NotSolvable("subgroup enumeration implemented for solvable groups only")
    out = []
    for cls in sorted(classes, key=lambda c: (len(c["rep"]), sorted(c["rep"]))):
        rep = cls["rep"]
        gens = [tuple(codes[i]) for i in cls["gens"]]
        out.append(
            SubgroupClass(
                group=PermGroup(g.degree, gens),
                order=len(rep),
                conjugates=cls["conjugates"],
            )
        )
    return out


__all__ = [
    "ELEMENT_LISTING_BOUND",
    "SUBGROUP_ENUM_BOUND",
    "Perm",
    "PermGroup",
    "SubgroupClass",
    "compose",
    "cycle_lengths",
    "identity_perm",
    "inverse",
    "orbit_count",
    "perm_from_cycles",
    "perm_order",
    "setwise_stabilizer",
    "subgroup_classes",
]
