"""The rational example pipeline: Galois types, general position, Eckardt."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from oracles import (
    RationalPoly,
    discriminant,
    fraction_det,
    galois_type,
    lines_concurrent,
    rational_roots,
    resultant,
)

from cubicbrauer.arith import is_rational_square
from cubicbrauer.errors import (
    EckardtPoint,
    GeneralPositionFailed,
    NoAdmissibleShift,
    NotSeparable,
    TooLarge,
    WrongDegree,
)
from cubicbrauer.intlinalg import FinAbGroup
from cubicbrauer.qexamples import (
    EckardtVerdict,
    GaloisType,
    cubic_galois_type,
    eckardt_concurrent,
    example_brauer,
    find_admissible_a,
    general_position,
)
from cubicbrauer.ratpoly import (
    IntegralCubic,
    integral_cubic,
    monic_cubic_integer_roots,
    parse_coefficients,
)


def P(text: str) -> RationalPoly:
    return RationalPoly(parse_coefficients(text))


def cubic(f: RationalPoly | str) -> IntegralCubic:
    """The library's record of f, given as an oracle polynomial or as text."""
    return integral_cubic(parse_coefficients(f) if isinstance(f, str) else f.coefficients)


def G(*orders):
    return FinAbGroup.from_orders(orders)


def test_galois_types():
    assert cubic_galois_type(cubic("1,1,1,1")) == GaloisType("c2", -1)  # (t^2+1)(t+1)
    assert cubic_galois_type(cubic("-2,-2,1,1")) == GaloisType("c2", 2)  # (t^2-2)(t+1)
    assert cubic_galois_type(cubic("3,3,1,1")) == GaloisType("c2", -3)  # (t^2+3)(t+1)
    assert cubic_galois_type(cubic("-1,-2,1,1")) == GaloisType("c3")  # disc 49
    assert cubic_galois_type(cubic("-2,0,0,1")) == GaloisType("s3", -3)  # t^3-2, disc -108
    assert cubic_galois_type(cubic("-6,11,-6,1")) == GaloisType("trivial")  # (t-1)(t-2)(t-3)


def test_galois_type_invariance_under_scaling_and_shift():
    """The square of the scale's numerator is never factored: for the second
    and third cubics, a cofactor of 1000033^2 times a prime above 10^6 would
    be TooLarge.  Its denominator is kept: the last two are F / 1000003 with
    1000003^2 dividing qb^2 - 4 qc or 1000003^4 dividing disc(F), and
    without it the cofactor 1000003^2 * 1000033, or 1000003^4 times a prime
    above 10^6, would be TooLarge.  A large denominator prime that cancels
    nothing is factored, so no scale here has one."""
    for f, expected in (
        (P("-2,0,0,1"), GaloisType("s3", -3)),
        (P("1000003,1000003,1,1"), GaloisType("c2", -1000003)),  # (t + 1)(t^2 + 1000003)
        (P("1,1000,1,1"), GaloisType("s3", -3998982031)),
        # t (t^2 + p t - 250008 p^2) / p, p = 1000003: qb^2 - 4 qc = 1000033 p^2
        (P("0,-250008750024,1,1/1000003"), GaloisType("c2", 1000033)),
        # (t^3 + p^2 t + 2 p^2) / p: disc(F) = -p^4 (4 p^2 + 108)
        (P("2000006,1000003,0,1/1000003"), GaloisType("s3", -250001500009)),
    ):
        for c in (1, 2, Fraction(-1, 3), 1000033, Fraction(-1000033, 7)):
            assert cubic_galois_type(cubic(f.scaled(c))) == expected
        for r in (1, Fraction(2, 5), -3):
            assert cubic_galois_type(cubic(f.shift(r))) == expected


def test_galois_type_errors():
    with pytest.raises(WrongDegree):
        cubic_galois_type(cubic("1,1"))
    with pytest.raises(NotSeparable):
        cubic_galois_type(cubic("0,0,0,1"))  # t^3


def test_general_position_requires_nonzero_shift():
    with pytest.raises(ValueError):
        general_position(cubic("-2,-2,1,1"), 0)


def test_general_position_inseparable_fails_condition_one():
    report = general_position(cubic("0,0,0,1"), 1)  # t^3
    assert not report.distinct_roots
    assert not report.ok


def test_general_position_degree5_vanishing():
    # the degree-5 coefficient of F(t)F(t-a) vanishes exactly at a = 2p/(3c)
    f = cubic("-2,-2,1,1")  # p = 1, monic
    bad_a = Fraction(2, 3)
    report = general_position(f, bad_a)
    assert not report.degree5_nonzero
    assert report.degree5_coefficient == 0
    good = general_position(f, 2)
    assert good.degree5_nonzero


def test_general_position_triple_sum():
    # for F = (t^2-2)(t+1), a = 1: sqrt2 + (1 - sqrt2) + (-1) = 0
    report = general_position(cubic("-2,-2,1,1"), 1)
    assert report.distinct_roots and report.degree5_nonzero
    assert not report.no_triple_sum_zero
    assert general_position(cubic("-2,-2,1,1"), 3).ok


def _companion(monic: RationalPoly) -> list[list[Fraction]]:
    n = monic.degree
    cols = []
    for j in range(n - 1):
        cols.append([Fraction(1) if i == j + 1 else Fraction(0) for i in range(n)])
    cols.append([-monic.coeff(i) for i in range(n)])
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _derivation_determinant(h: RationalPoly) -> Fraction:
    """det of the derivation operator on the third exterior power (the second route).

    The companion matrix C of monic H acts on Q^6; the operator
    v_i^v_j^v_k -> Cv_i^v_j^v_k + v_i^Cv_j^v_k + v_i^v_j^Cv_k on the
    20-dimensional third exterior power has eigenvalues exactly the sums
    of three distinct roots of H, so its determinant is their product.
    """
    c = _companion(h.monic())
    triples = list(combinations(range(6), 3))
    index = {t: i for i, t in enumerate(triples)}
    size = len(triples)
    mat = [[Fraction(0)] * size for _ in range(size)]
    for col, triple in enumerate(triples):
        for slot in range(3):
            for m in range(6):
                coeff = c[m][triple[slot]]
                if coeff == 0:
                    continue
                replaced = list(triple)
                replaced[slot] = m
                if len(set(replaced)) < 3:
                    continue
                # parity of the permutation sorting a 3-tuple
                inversions = sum(
                    1 for x, y in combinations(range(3), 2) if replaced[x] > replaced[y]
                )
                sign = -1 if inversions % 2 else 1
                mat[index[tuple(sorted(replaced))]][col] += sign * coeff
    return fraction_det(mat)


def _from_roots(*roots) -> RationalPoly:
    f = RationalPoly([1])
    for r in roots:
        f = f * RationalPoly([-Fraction(r), 1])
    return f


def _seeded_cubics(rng, count):
    """(F, a) pairs cycling through the four Galois types, heights up to 10^6.

    Each cubic is scaled by a random rational and, for the cyclic type,
    Shanks' simplest cubic t^3 - m t^2 - (m+3) t - 1 is moved by t -> u t + v;
    the shifts a are rationals with denominators up to 7.
    """
    for k in range(count):
        kind = ("trivial", "c2", "c3", "s3")[k % 4]
        height = 10 ** rng.randint(1, 6)
        if kind == "trivial":
            bound, q = round(height ** (1 / 3)), rng.randint(1, 3)
            f = _from_roots(*(Fraction(r, q) for r in rng.sample(range(-bound, bound + 1), 3)))
        elif kind == "c2":
            # a negative discriminant b^2 - 4c keeps the quadratic factor irreducible
            bound = round(height ** (1 / 3))
            b = rng.randint(-bound, bound)
            c = rng.randint(b * b // 4 + 1, b * b // 4 + bound * bound)
            f = _from_roots(rng.randint(-bound, bound)) * RationalPoly([c, b, 1])
        elif kind == "c3":
            m = rng.randint(-100, 100)
            shanks = RationalPoly([-1, -(m + 3), -m, 1])
            u = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), rng.randint(1, 5))
            f = shanks.shift(rng.randint(-20, 20))
            f = RationalPoly(c * u ** (3 - i) for i, c in enumerate(f.coefficients))
        else:
            f = RationalPoly([rng.randint(-height, height) for _ in range(3)] + [1])
        f = f.scaled(Fraction(rng.randint(1, 12) * rng.choice((-1, 1)), rng.randint(1, 12)))
        a = Fraction(rng.randint(1, 40) * rng.choice((-1, 1)), rng.randint(1, 7))
        yield kind, f, a


def test_derivation_determinant_matches_the_exterior_power_operator():
    rng = random.Random(20260)
    seen = dict.fromkeys(("trivial", "c2", "c3", "s3"), 0)
    for kind, f, a in _seeded_cubics(rng, 204):
        variant, _ = galois_type(f)
        if kind == "s3" and variant != "s3":
            continue  # a random cubic that happens to be reducible or cyclic
        assert variant == kind, (f, kind)
        det = general_position(cubic(f), a).derivation_determinant
        assert det == _derivation_determinant(f * f.shift(a)), (f, a)
        seen[kind] += 1
    assert min(seen.values()) >= 45, seen
    # large heights: c0 = (10^9 + 7)(10^9 + 9), and coefficients of about 20 digits
    for f, a in (
        (P("1000000016000000063,1,0,1"), Fraction(7, 3)),
        (
            P("98765432109876543210/12345678901234567,-31415926535897932384/2718281828459045,"
              "11111111111111111113/3,-7/5"),
            Fraction(-11, 6),
        ),
    ):
        det = general_position(cubic(f), a).derivation_determinant
        assert det == _derivation_determinant(f * f.shift(a)), (f, a)


@pytest.mark.parametrize("family", ["e1+0a", "e1+1a", "e1+2a", "e1+3a", "2ri+rj+a", "2ri+rj+2a"])
def test_derivation_determinant_vanishes_on_each_zero_family(family):
    # split cubics whose roots put one triple sum of each kind at zero
    for r1, r2 in ((1, 5), (-2, 7), (Fraction(3, 2), -4)):
        for a in (Fraction(1), Fraction(-2), Fraction(5, 3)):
            if family.startswith("e1"):
                k = int(family[3])
                roots = (r1, r2, -r1 - r2 - k * a)  # e1 + k a = 0
            else:
                c = 1 if family == "2ri+rj+a" else 2
                roots = (r1, -2 * r1 - c * a, r2)  # 2 r_1 + r_2 + c a = 0
            f = _from_roots(*roots).scaled(Fraction(-3, 2))
            report = general_position(cubic(f), a)
            assert report.derivation_determinant == 0
            assert not report.no_triple_sum_zero
            assert _derivation_determinant(f * f.shift(a)) == 0


def test_derivation_determinant_against_numeric_roots():
    mpmath = pytest.importorskip("mpmath")

    mpmath.mp.dps = 60
    for text, a in (("-2,-2,1,1", 3), ("1,1,1,1", 2), ("-1,-2,1,1", 1), ("7,-3,2,1", 2)):
        f = P(text)
        h = f * f.shift(a)
        coeffs = [mpmath.mpf(str(c)) for c in reversed(h.monic().coefficients)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=120)
        numeric = mpmath.mpf(1)
        for i, j, k in combinations(range(6), 3):
            numeric *= roots[i] + roots[j] + roots[k]
        exact = general_position(cubic(f), a).derivation_determinant
        assert abs(complex(numeric) - complex(Fraction(exact))) < 1e-25 * max(
            1.0, abs(complex(Fraction(exact)))
        )


def _assert_closed_forms_match_elimination(f: RationalPoly, a: Fraction, roots) -> None:
    """disc, Res(f, f(t - a)), H's t^5 coefficient and the rational roots, both routes.

    ``roots`` are F's rational roots, from the divisor listing or from the
    construction where that listing cannot factor.
    """
    shifted = f.shift(a)
    record = cubic(f)
    report = general_position(record, a)
    res, disc = resultant(f, shifted), discriminant(f)
    assert report.resultant_f_fshift == res, (f, a)
    assert report.degree5_coefficient == (f * shifted).coeff(5), (f, a)
    assert report.distinct_roots == (disc != 0 and res != 0)
    c0, c1, c2, c3 = c = f.integer_scaled()
    assert record.integral == c and record.scale == f.leading / c3, f
    assert record.scale**4 * record.disc == disc, f
    found = monic_cubic_integer_roots(c2, c1 * c3, c0 * c3 * c3)
    assert found == sorted(found)
    assert sorted(Fraction(u, c3) for u in found) == sorted(set(map(Fraction, roots))), f


def _assert_galois_type_matches(f: RationalPoly, variant: str, d_class) -> None:
    """cubic_galois_type against the elimination routes, d by its square class."""
    try:
        galois = cubic_galois_type(cubic(f))
    except TooLarge:  # a printed d whose cofactor cannot be classed
        return
    assert galois.variant == variant, f
    if d_class is not None:
        assert is_rational_square(d_class / galois.d), f


def _special_cubics():
    """(F, its rational roots): repeated roots, zero constant terms, roots at
    and around the critical points of the monic integer cubic, and roots
    near its Cauchy bound, where the divisor listing cannot factor."""
    n = 1000036000099  # 1000003 * 1000033
    for roots, scale in (
        ((2, 2, -5), 1),  # a double root is a critical point
        ((Fraction(3, 7),) * 3, 1),  # D0 = 0
        ((0, 0, 4), 1),
        ((0, 1, -1), 1),  # critical points at +-1/sqrt(3), between the roots
        ((-1, 0, 1), -5),
        ((7, 8, 9), 1),
        ((Fraction(7, 3), Fraction(8, 3), 3), -9),
        ((-3, -2, 11), -4),
        ((Fraction(1, 100), 1, n), -1000000),
    ):
        yield _from_roots(*roots).scaled(scale), roots
    yield _from_roots(0) * P("3,-1,1"), (0,)  # zero constant term, irreducible quadratic
    yield P(f"{-n},1,{-n},1"), (n,)  # (t^2 + 1)(t - n): the root is the Cauchy bound less one
    yield P(f"{n},1,{n},1"), (-n,)  # (t^2 + 1)(t + n)
    yield P(f"{n},-1,{-n},1"), (1, -1, n)
    yield P("-1,0,0,1000000").scaled(-1), (Fraction(1, 100),)  # negative leading coefficient


def test_closed_forms_match_the_elimination_routes():
    rng = random.Random(20261)
    seen = dict.fromkeys(("trivial", "c2", "c3", "s3"), 0)
    for k, (kind, f, a) in enumerate(_seeded_cubics(rng, 860)):
        roots = rational_roots(f)
        variant, d_class = galois_type(f, roots)
        if k < 200:  # squarefree_part trial-divides each printed d
            _assert_galois_type_matches(f, variant, d_class)
        if kind == "s3" and variant != "s3":
            continue  # a random cubic that happens to be reducible or cyclic
        assert variant == kind, (f, kind)
        _assert_closed_forms_match_elimination(f, a, roots)
        seen[kind] += 1
    assert min(seen.values()) >= 200, seen
    for f, roots in _special_cubics():
        for a in (Fraction(1), Fraction(-2, 3), Fraction(7, 5)):
            _assert_closed_forms_match_elimination(f, a, roots)


def _eager_values(f: RationalPoly, a: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Res(f, f(t - a)), H's t^5 coefficient and the triple-sum product, in Fractions.

    Over F's roots, prod_{i<j} (x - (r_i - r_j)^2) = R(x) = x (x - D0/c3^2)^2
    - disc F/c3^4, and f = lambda F; the report keeps the same values as
    integers with cleared denominators.
    """
    c0, c1, c2, c3 = f.integer_scaled()
    lam = f.leading / c3
    e1 = Fraction(-c2, c3)
    d0 = Fraction(c2 * c2 - 3 * c1 * c3, c3 * c3)
    disc = Fraction(discriminant(P(f"{c0},{c1},{c2},{c3}")), c3**4)

    def r(x):
        return x * (x - d0) ** 2 - disc

    res = lam**6 * c3**6 * -(a**3) * r(a * a)
    degree5 = f.coeff(3) * (2 * f.coeff(2) - 3 * a * f.coeff(3))
    sums = e1 * (e1 + a) ** 3 * (e1 + 2 * a) ** 3 * (e1 + 3 * a)
    return res, degree5, sums * r((e1 + a) ** 2) * r((e1 + 2 * a) ** 2)


def test_report_values_read_as_the_eager_fractions():
    """The report's values, formed when read, equal Fractions formed at once.

    Besides each seeded shift, every cubic also gets shifts that fail one
    condition: a difference of two rational roots, the zero 2 c2 / (3 c3)
    of the t^5 coefficient, and -e1 / k, which puts e1 + k a at zero.
    """
    rng = random.Random(20262)
    failing = dict.fromkeys(("distinct_roots", "degree5_nonzero", "no_triple_sum_zero"), 0)
    pairs = 0
    for _, f, a in _seeded_cubics(rng, 120):
        c0, c1, c2, c3 = f.integer_scaled()
        roots = [Fraction(u, c3) for u in monic_cubic_integer_roots(c2, c1 * c3, c0 * c3 * c3)]
        shifts = {a, Fraction(2 * c2, 3 * c3), *(Fraction(c2, k * c3) for k in (1, 2, 3))}
        shifts.update(x - y for x, y in combinations(roots, 2))
        for shift in shifts - {0}:
            report = general_position(cubic(f), shift)
            values = (
                report.resultant_f_fshift, report.degree5_coefficient, report.derivation_determinant
            )
            assert values == _eager_values(f, shift), (f, shift)
            assert all(type(v) is Fraction for v in values)
            assert report.distinct_roots == (values[0] != 0)
            assert report.degree5_nonzero == (values[1] != 0)
            assert report.no_triple_sum_zero == (values[2] != 0)
            for name in failing:
                failing[name] += not getattr(report, name)
            pairs += 1
    assert pairs >= 500 and min(failing.values()) >= 40, (pairs, failing)


@pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
def test_shift_resultant_vanishes_on_each_zero_family(i, j):
    # a = r_i - r_j puts the root r_i of F among the roots r + a of F(t - a)
    for roots in ((1, 5, -3), (Fraction(3, 2), -4, 0), (-7, Fraction(2, 9), 13)):
        f = _from_roots(*roots).scaled(Fraction(-3, 2))
        a = Fraction(roots[i]) - Fraction(roots[j])
        report = general_position(cubic(f), a)
        assert report.resultant_f_fshift == 0 == resultant(f, f.shift(a))
        assert not report.distinct_roots


def test_eckardt_verdicts():
    f = cubic("-2,-2,1,1")
    assert eckardt_concurrent(f, 3) is EckardtVerdict.NO
    # a = 2 is a genuine concurrency with irrational roots -sqrt2, sqrt2
    assert eckardt_concurrent(f, 2) is EckardtVerdict.YES
    assert set(EckardtVerdict) == {EckardtVerdict.YES, EckardtVerdict.NO}


def test_eckardt_scaling_invariance():
    f = P("-2,-2,1,1")
    for a in (2, 3):
        assert eckardt_concurrent(cubic(f.scaled(3)), a) is eckardt_concurrent(cubic(f), a)


def test_eckardt_rational_concurrency_is_exact():
    assert eckardt_concurrent(cubic("-6,11,-6,1"), 5) is EckardtVerdict.NO  # roots 1, 2, 3
    f = cubic("-72,10,11,1")  # roots -4, 2, -9
    assert general_position(f, 1).ok
    assert eckardt_concurrent(f, 1) is EckardtVerdict.YES


def _boundary_lines(roots, a):
    """Coordinates of the lines joining [1 : r : r^3] and [1 : r+a : (r+a)^3]."""
    lines = []
    for r in roots:
        p, q = (1, r, r**3), (1, r + a, (r + a) ** 3)
        lines.append([
            p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0],
        ])
    return lines


def _verdict_or_none(f, a):
    try:
        return eckardt_concurrent(cubic(f), a)
    except GeneralPositionFailed:
        return None


def test_eckardt_matches_exact_determinant_on_split_cubics():
    # r3 is the root that makes the lines concurrent for given r1, r2, a
    # (solve a^2 + a e1 + e2 = 0 for r3), or that root plus one; the
    # verdict is compared with the exact 3x3 determinant, not the formula
    seen = {EckardtVerdict.YES: 0, EckardtVerdict.NO: 0}
    for r1, r2 in combinations(range(-3, 4), 2):
        for a in (1, 2, Fraction(1, 2)):
            if a + r1 + r2 == 0:
                continue
            concurrent_r3 = -(a + r1) * (a + r2) / Fraction(a + r1 + r2)
            for r3 in (concurrent_r3, concurrent_r3 + 1):
                roots = (Fraction(r1), Fraction(r2), r3)
                f = RationalPoly([1])
                for r in roots:
                    f = f * RationalPoly([-r, 1])
                verdict = _verdict_or_none(f, a)
                if verdict is None:
                    continue
                det = fraction_det(_boundary_lines(roots, Fraction(a)))
                assert (det == 0) == (verdict is EckardtVerdict.YES), (roots, a)
                seen[verdict] += 1
    assert min(seen.values()) >= 10, seen


def test_eckardt_matches_numeric_determinant_on_irrational_roots():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 60
    seen = {EckardtVerdict.YES: 0, EckardtVerdict.NO: 0}
    for c2 in (-1, 0, 1):
        for c0 in (1, 2, 3):
            for a in (1, 2, -1):
                # c1 = a c2 - a^2 puts (F, a) on the concurrency locus; c1 + 1 does not
                for c1 in (a * c2 - a * a, a * c2 - a * a + 1):
                    f = RationalPoly([c0, c1, c2, 1])
                    if len(rational_roots(f)) == 3:
                        continue
                    verdict = _verdict_or_none(f, a)
                    if verdict is None:
                        continue
                    roots = mpmath.polyroots([1, c2, c1, c0], maxsteps=200, extraprec=120)
                    det = mpmath.det(mpmath.matrix(_boundary_lines(roots, a)))
                    assert (abs(det) < 1e-40) == (verdict is EckardtVerdict.YES), (c0, c1, c2, a)
                    seen[verdict] += 1
    assert min(seen.values()) >= 5, seen


def test_integer_eckardt_test_matches_the_coefficient_test():
    """c3 n^2 - c2 n d + c1 d^2 = 0 on the integral form against f3 a^2 - f2 a + f1 = 0.

    Each seeded pair (f, a) is also moved onto the concurrency locus by
    setting f1 = f2 a - f3 a^2, so both verdicts occur.
    """
    rng = random.Random(2424)
    seen = {EckardtVerdict.YES: 0, EckardtVerdict.NO: 0}
    for _, f, a in _seeded_cubics(rng, 1200):
        c = list(f.coefficients)
        c[1] = c[2] * a - c[3] * a * a
        for g in (f, RationalPoly(c)):
            verdict = _verdict_or_none(g, a)
            if verdict is None:
                continue
            assert (verdict is EckardtVerdict.YES) == lines_concurrent(g, a), (g, a)
            seen[verdict] += 1
    assert sum(seen.values()) >= 2000 and min(seen.values()) >= 900, seen


def test_eckardt_requires_general_position():
    with pytest.raises(GeneralPositionFailed):
        eckardt_concurrent(cubic("-2,-2,1,1"), 1)


def test_example_brauer_published_values():
    assert example_brauer(cubic("-2,-2,1,1"), 3) == (GaloisType("c2", 2), G(2))
    assert example_brauer(cubic("1,1,1,1"), 2) == (GaloisType("c2", -1), G(4))
    assert example_brauer(cubic("3,3,1,1"), 2) == (GaloisType("c2", -3), G(2, 3))


def test_example_brauer_error_paths():
    with pytest.raises(GeneralPositionFailed):
        example_brauer(cubic("-2,-2,1,1"), 1)
    with pytest.raises(EckardtPoint):
        example_brauer(cubic("-2,-2,1,1"), 2)


def test_find_admissible_a():
    outcome = find_admissible_a(cubic("-2,-2,1,1"), 20)
    assert outcome.a == 3
    assert outcome.rejected == (
        (Fraction(1), "three of the six roots sum to zero"),
        (Fraction(2), "eckardt check: yes"),
    )
    assert find_admissible_a(cubic("1,1,1,1"), 20).a == 2
    assert find_admissible_a(cubic("3,3,1,1"), 20).a == 2
    with pytest.raises(NoAdmissibleShift, match="no admissible a found up to 2"):
        find_admissible_a(cubic("-2,-2,1,1"), 2)
