"""Exact linear algebra: Smith forms, kernels, cokernels, invariant factors."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from oracles import (
    invariant_factors_by_factoring,
    mod_kernel_by_listing,
    span_mod,
    verify_smith_form,
)

from cubicbrauer import arith
from cubicbrauer.acceptance import cokernel_structure, kernel_basis, mod_kernel, solve_columns
from cubicbrauer.intlinalg import FinAbGroup, IntMatrix, elementary_divisors, snf


def test_snf_divisibility_example():
    a = IntMatrix([[2, 4], [6, 8]])
    form = snf(a)
    assert form.diagonal() == (2, 4)
    assert verify_smith_form(form, a)
    # |det A| = product of the invariant factors
    assert abs(a.det()) == 8


def test_snf_identity_and_zero():
    assert snf(IntMatrix.identity(3)).diagonal() == (1, 1, 1)
    assert snf(IntMatrix([[0, 0], [0, 0]])).diagonal() == (0, 0)


def test_kernel_rank_one_rows():
    k = kernel_basis(IntMatrix([[1, 1]]))
    assert k.cols == 1
    assert k.column(0) in ((1, -1), (-1, 1))


def test_kernel_identity_empty():
    assert kernel_basis(IntMatrix.identity(3)).cols == 0
    # no columns, or neither rows nor columns: an empty kernel
    for a in (IntMatrix.from_columns([], rows=2), IntMatrix([])):
        assert kernel_basis(a) == IntMatrix([])
        assert mod_kernel(a, 4) == []


def test_kernel_is_primitive():
    # [[2, 2]] has kernel spanned by (1, -1), not (2, -2)
    k = kernel_basis(IntMatrix([[2, 2]]))
    assert k.column(0) in ((1, -1), (-1, 1))
    # quotient by the span is torsion-free
    assert cokernel_structure(k) == FinAbGroup(1, ())


def test_mod_kernel_examples():
    assert span_mod(mod_kernel(IntMatrix([[2]]), 4), 4, 1) == {(0,), (2,)}
    assert mod_kernel(IntMatrix.identity(3), 5) == []
    gens = mod_kernel(IntMatrix([[1, -1]]), 3)
    assert span_mod(gens, 3, 2) == {(0, 0), (1, 1), (2, 2)}


@pytest.mark.parametrize("seed", range(30))
def test_mod_kernel_matches_bruteforce(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 3)
    cols = rng.randint(1, 4)
    n = rng.randint(2, 6)
    a = IntMatrix([[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)])
    gens = mod_kernel(a, n)
    assert span_mod(gens, n, cols) == mod_kernel_by_listing(a, n)


def test_cokernel_examples():
    assert cokernel_structure(IntMatrix.identity(3)) == FinAbGroup.trivial()
    assert cokernel_structure(IntMatrix.from_columns([(0, 2)], rows=2)) == FinAbGroup(1, (2,))
    # no columns: Z^rows
    assert cokernel_structure(IntMatrix.from_columns([], rows=3)) == FinAbGroup(3, ())


def test_cokernel_trio_matrix():
    # the boundary matrix of {l-e1-e2, l-e3-e4, l-e5-e6} in (l, e1..e6)
    cols = [
        (1, -1, -1, 0, 0, 0, 0),
        (1, 0, 0, -1, -1, 0, 0),
        (1, 0, 0, 0, 0, -1, -1),
    ]
    structure = cokernel_structure(IntMatrix.from_columns(cols, rows=7))
    assert structure == FinAbGroup(4, ())


def _max_rank_minor_gcd(a: IntMatrix) -> int:
    r = snf(a).rank()
    if r == 0:
        return 0
    g = 0
    for rows in combinations(range(a.rows), r):
        for cols in combinations(range(a.cols), r):
            minor = IntMatrix([[a.data[i][j] for j in cols] for i in rows]).det()
            g = gcd(g, minor)
    return g


@pytest.mark.parametrize("seed", range(40))
def test_snf_product_equals_minor_gcd(seed):
    rng = random.Random(1000 + seed)
    rows = rng.randint(1, 4)
    cols = rng.randint(1, 4)
    a = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    diag = [d for d in snf(a).diagonal() if d]
    prod = 1
    for d in diag:
        prod *= d
    assert prod == abs(_max_rank_minor_gcd(a)) or (not diag and _max_rank_minor_gcd(a) == 0)


@pytest.mark.parametrize("seed", range(60))
def test_snf_random_verify(seed):
    rng = random.Random(2000 + seed)
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    a = IntMatrix([[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)])
    form = snf(a)
    assert verify_smith_form(form, a)
    diag = form.diagonal()
    nonzero = [d for d in diag if d]
    assert all(d >= 0 for d in diag)
    assert all(nonzero[i + 1] % nonzero[i] == 0 for i in range(len(nonzero) - 1))
    assert list(diag[: len(nonzero)]) == nonzero  # no zero entry before a nonzero one
    # kernel columns are annihilated and the count matches the rank
    k = kernel_basis(a)
    assert k.cols == cols - form.rank()
    for j in range(k.cols):
        assert all(x == 0 for x in a.apply(k.column(j)))


def test_solve_columns():
    a = IntMatrix.from_columns([(2, 0, 1), (0, 3, 1)], rows=3)
    b = IntMatrix.from_columns([(4, 3, 3)], rows=3)
    x = solve_columns(a, b)
    assert x is not None and a @ x == b
    # no integral solution
    assert solve_columns(a, IntMatrix.from_columns([(1, 0, 0)], rows=3)) is None
    # rank-deficient A: the free coordinate is set to 0; (1, 0, 1) lies in
    # the rational column span but not the integral one
    a = IntMatrix.from_columns([(2, 0, 2), (4, 0, 4)], rows=3)
    b = IntMatrix.from_columns([(6, 0, 6)], rows=3)
    x = solve_columns(a, b)
    assert x is not None and a @ x == b
    assert solve_columns(a, IntMatrix.from_columns([(1, 0, 1)], rows=3)) is None


def test_finabgroup_canonical_form():
    assert FinAbGroup.from_orders([2, 3]) == FinAbGroup(0, (6,))
    assert FinAbGroup.from_orders([4, 6]) == FinAbGroup(0, (2, 12))
    assert FinAbGroup.from_orders([1, 1]) == FinAbGroup.trivial()
    assert FinAbGroup.from_orders([2, 2, 4]).invariant_factors == (2, 2, 4)
    assert str(FinAbGroup.from_orders([2, 4])) == "Z/2 x Z/4"
    assert str(FinAbGroup.trivial()) == "0"
    with pytest.raises(ValueError):
        FinAbGroup(0, (2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        FinAbGroup(0, (1,))


# primes below the trial-division bound 10^6 and above it, with some of their powers
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 997, 999983)
LARGE_PRIMES = (1000003, 1000033, 10000019, 999999937)


def _factor_over(n: int, primes) -> dict[int, int]:
    """n's factorization, for an n built from the given primes."""
    out = {}
    for p in primes:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    assert n == 1
    return out


def test_from_orders_matches_the_primary_decomposition():
    """gcd/lcm replacement against factoring each order into prime powers (tests/oracles.py)."""
    primes = SMALL_PRIMES + LARGE_PRIMES
    rng = random.Random(24)
    for _ in range(600):
        orders = []
        for _ in range(rng.randint(0, 6)):
            picked = rng.choices(primes, k=rng.randint(0, 3))
            orders.append(
                rng.choice((1, 2, 4, 8, 3, 9)) * prod(p ** rng.randint(1, 2) for p in picked)
            )
        expected = invariant_factors_by_factoring(orders, lambda n: _factor_over(n, primes))
        assert FinAbGroup.from_orders(orders).invariant_factors == expected, orders


def test_from_orders_factors_nothing(monkeypatch):
    """An order with two prime factors above 10^6 answers; factorint cannot split it."""

    def refuse(*args):
        raise AssertionError("from_orders trial-divided")

    monkeypatch.setattr(arith, "_trial_divide", refuse)
    n = 1000003 * 1000033
    assert FinAbGroup.from_orders([n]) == FinAbGroup(0, (1000036000099,))
    assert str(FinAbGroup.from_orders([n])) == "Z/1000036000099"
    assert FinAbGroup.from_orders([1000003, 1000033 * 4, 2]) == FinAbGroup(0, (2, 4 * n))
    with pytest.raises(ValueError, match="positive"):
        FinAbGroup.from_orders([4, 0])


def test_finabgroup_json_roundtrip():
    g = FinAbGroup.from_orders([2, 4], free_rank=1)
    assert FinAbGroup.from_json(g.to_json()) == g


@pytest.mark.parametrize(
    "build",
    [
        lambda: FinAbGroup(0, (2.5,)),
        lambda: FinAbGroup(1.5),
        lambda: FinAbGroup(0, ("4",)),
        lambda: FinAbGroup.from_orders([2.9]),
        lambda: FinAbGroup.from_json({"free_rank": 0, "factors": [2.5]}),
        lambda: FinAbGroup.from_json({"free_rank": "1", "factors": []}),
    ],
    ids=["float-factor", "float-rank", "str-factor", "float-order", "json-factor", "json-rank"],
)
def test_finabgroup_refuses_what_is_not_an_integer(build):
    """Like IntMatrix entries, ranks and orders are read with operator.index."""
    with pytest.raises(TypeError):
        build()


@pytest.mark.parametrize(
    "entry", [1.5, 2.9, Fraction(3, 2), Fraction(4, 2), "7"], ids=repr
)
def test_constructor_rejects_non_integers(entry):
    """A float, a Fraction (even an integral one) or a string is not cut down."""
    with pytest.raises(TypeError):
        IntMatrix([[entry, 2], [0, 2]])
    with pytest.raises(TypeError):
        IntMatrix.from_columns([(entry, 0)])


def test_cokernel_of_a_float_matrix_is_refused():
    # truncating 2.5 to 2 used to answer Z/2
    with pytest.raises(TypeError):
        cokernel_structure(IntMatrix([[2.5]]))


def test_constructor_accepts_integer_likes():
    assert IntMatrix([[True, -3]]).data == ((1, -3),)
    assert all(type(x) is int for x in IntMatrix([[True, 2]]).data[0])


def _random_kernel_inputs(seed: int) -> list[IntMatrix]:
    """Random matrices with the shapes that stress the elimination.

    Dense and sparse entries of both signs, zero rows, zero columns, the
    zero matrix, low-rank products and the empty shapes.
    """
    rng = random.Random(seed)
    out = [IntMatrix([]), IntMatrix.from_columns([], rows=3), IntMatrix([[0]])]
    out.append(IntMatrix([[0] * 6] * 4))
    for _ in range(40):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        bound = rng.choice([1, 2, 9, 60])
        density = rng.choice([0.2, 0.5, 1.0])
        data = [
            [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)
        ]
        out.append(IntMatrix(data))
        # the same matrix with a zero row and a zero column inserted
        i, j = rng.randint(0, rows), rng.randint(0, cols)
        padded = [row[:j] + [0] + row[j:] for row in data]
        padded.insert(i, [0] * (cols + 1))
        out.append(IntMatrix(padded))
        # a product through a narrower middle: rank below min(rows, cols)
        k = rng.randint(1, max(1, min(rows, cols) - 1))
        left = IntMatrix([[rng.randint(-5, 5) for _ in range(k)] for _ in range(rows)])
        right = IntMatrix([[rng.randint(-5, 5) for _ in range(cols)] for _ in range(k)])
        out.append(left @ right)
    return out


def _edge_shape_inputs(seed: int) -> list[IntMatrix]:
    """The zero matrix, zero rows, one row, one column, rank-deficient wide and tall."""
    rng = random.Random(seed)

    def rand(rows, cols):
        return IntMatrix([[rng.randint(-7, 7) for _ in range(cols)] for _ in range(rows)])

    zero_rows = [list(row) for row in rand(6, 3).data]
    for i in (0, 2, 5):
        zero_rows[i] = [0, 0, 0]
    out = [IntMatrix([[0] * 5] * 3), IntMatrix([[0] * 3] * 5), IntMatrix(zero_rows)]
    for n in range(1, 7):
        out += [rand(1, n), rand(n, 1)]
    out += [IntMatrix([[0, 0, 4, -6]]), IntMatrix([[0], [6], [0], [-9]])]
    for rows, cols, rank in ((2, 6, 1), (3, 7, 2), (4, 9, 2), (6, 2, 1), (7, 3, 2), (9, 4, 3)):
        out.append(rand(rows, rank) @ rand(rank, cols))
    return out


@pytest.mark.parametrize("seed", range(5))
def test_elementary_divisors_match_the_smith_form(seed):
    for a in _random_kernel_inputs(3000 + seed) + _edge_shape_inputs(seed):
        form = snf(a)
        assert verify_smith_form(form, a)
        assert elementary_divisors(a) == form.diagonal()


def test_edge_shape_inputs_cover_their_shapes():
    for seed in range(5):
        inputs = _edge_shape_inputs(seed)
        ranks = [(snf(a).rank(), a.rows, a.cols) for a in inputs]
        assert any(r < rows < cols for r, rows, cols in ranks)  # rank-deficient wide
        assert any(r < cols < rows for r, rows, cols in ranks)  # rank-deficient tall
        assert any(rows == 1 < cols for _, rows, cols in ranks)
        assert any(cols == 1 < rows for _, rows, cols in ranks)
        assert any(r == 0 for r, _, _ in ranks)


def test_random_kernel_inputs_cover_the_edge_shapes():
    inputs = _random_kernel_inputs(3000)
    ranks = [(snf(a).rank(), min(a.rows, a.cols)) for a in inputs]
    assert any(r < full for r, full in ranks if full)  # rank-deficient
    assert any(a.rows and not any(map(any, a.data)) for a in inputs)  # zero matrix
    assert any(any(x < 0 for x in row) for a in inputs for row in a.data)
    assert any(not any(row) and any(map(any, a.data)) for a in inputs for row in a.data)
    assert any(
        not any(col) and any(map(any, a.data)) for a in inputs for col in zip(*a.data)
    )


def test_elementary_divisors_around_unit_pivots():
    """Unit pivots are eliminated before the Smith loop; the diagonal stays snf's.

    Inputs: entries with no +-1 at all, entries whose units appear only
    after elimination (2 and 3 give 3 - 2 = 1), units among large
    entries, and the empty shapes.
    """
    rng = random.Random(20261020)
    big = 10**30
    inputs = [
        IntMatrix([[2, 3], [4, 9]]),  # no unit entry; diagonal (1, 6)
        IntMatrix([[6, 10, 15]]),  # gcd 1 from three non-units
        IntMatrix([[2, 0], [0, 2], [4, 6]]),
        IntMatrix([[1, big], [big, 1]]),
        IntMatrix([[-1, 2], [2, -4]]),  # a unit pivot that leaves a zero block
        IntMatrix([[big, big + 1], [big - 1, big]]),  # determinant 1, no unit entry
        IntMatrix.from_columns([], rows=3),  # 3 x 0
        IntMatrix([[], []]),  # 2 x 0
        IntMatrix([[0, 0, 0]]),
        IntMatrix(()),  # 0 x 0
    ]
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = rng.choice(((0, 2, -2, 3, 4, -6, 9), (0, 1, -1, 2, 5), (0, 1, big, -big, 7)))
        inputs.append(IntMatrix([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)]))
    inputs += [IntMatrix([list(row) for row in zip(*a.data)]) for a in inputs if a.rows and a.cols]
    no_unit = 0
    for a in inputs:
        assert elementary_divisors(a) == snf(a).diagonal(), a
        no_unit += a.rows > 0 and a.cols > 0 and not any(abs(x) == 1 for row in a.data for x in row)
    assert no_unit >= 20


def test_elementary_divisors_of_the_trio_boundaries():
    from cubicbrauer.cubiclattice import tritangent_trios

    trios = tritangent_trios()
    assert len(trios) == 45
    for trio in trios:
        a = IntMatrix.from_columns(trio.classes, rows=7)
        assert elementary_divisors(a) == snf(a).diagonal() == (1, 1, 1)


def test_a_cached_determinant_equals_that_of_a_fresh_matrix():
    rng = random.Random(20251018)
    for n in range(6):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        a = IntMatrix(rows)
        first = a.det()
        assert a.det() == first == IntMatrix(rows).det()
        assert (a @ IntMatrix.identity(n)).det() == first  # a new matrix computes afresh


@pytest.mark.parametrize("read_det", [False, True])
def test_copy_and_pickle_round_trip(read_det):
    a = IntMatrix([[2, 1], [7, 4]])
    if read_det:
        assert a.det() == 1
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    # the pickle holds the rows only, whether or not det() was read
    assert pickle.dumps(a) == pickle.dumps(IntMatrix([[2, 1], [7, 4]]))
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a) and b is not a
    assert b.det() == 1
    with pytest.raises(AttributeError):
        b.data = ()
