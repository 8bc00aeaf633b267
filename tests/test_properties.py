"""Property tests: square classes, twisted invariants, the boundary parser,
examples and polynomial text."""

from __future__ import annotations

import contextlib
import io
import json
import signal
from fractions import Fraction
from math import isqrt, prod

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from oracles import (  # noqa: E402
    RationalPoly,
    galois_type,
    wheel_factorint,
    wheel_squarefree_part,
)

from cubicbrauer.acceptance import twist_invariants_by_listing  # noqa: E402
from cubicbrauer.arith import (  # noqa: E402
    factorint,
    is_probable_prime,
    is_rational_square,
    squarefree_part,
)
from cubicbrauer.brauer import twist_invariants  # noqa: E402
from cubicbrauer.cli import main  # noqa: E402
from cubicbrauer.errors import TooLarge  # noqa: E402

# primes up to the trial-division bound 10^6, some above the cube root of a cofactor
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 997, 20011, 65537, 524287, 999983)
# primes above the trial-division bound 10^6; any two multiply to below 10^18
LARGE_PRIMES = (1000003, 1000033, 1000037, 9999991, 10000019, 10000079, 999999937)

quick = settings(max_examples=25, deadline=None)


@st.composite
def square_classes(draw):
    """(s, m): s squarefree from distinct primes, m with s * m^2 left by trial
    division with a cofactor below 10^18 (at most two primes above 10^6)."""
    small = draw(st.sets(st.sampled_from(SMALL_PRIMES), max_size=4))
    large = draw(st.sets(st.sampled_from(LARGE_PRIMES), max_size=2))
    m = draw(st.one_of(st.integers(1, 10**4), st.sampled_from(LARGE_PRIMES)))
    assume(len(large) + (2 if m > 10**6 else 0) <= 2)
    sign = draw(st.sampled_from((1, -1)))
    return sign * prod(small | large), m


@settings(max_examples=60, deadline=None)  # trial division runs to the cofactor's cube root
@given(square_classes())
def test_squarefree_part_of_a_class_times_a_square(case):
    s, m = case
    assert squarefree_part(s * m * m) == s


def _next_prime(n):
    while not is_probable_prime(n):
        n += 1
    return n


@st.composite
def bench_tier_products(draw):
    """A signed product of primes from the benchmark's class tiers: below 60,
    10^3 to 10^5 and 10^6 to 10^7, each to the power 1, 2 or 3."""
    tiers = ((2, 60, 3), (10**3, 10**5, 2), (10**6, 10**7, 2))
    primes = {
        _next_prime(p)
        for lo, hi, most in tiers
        for p in draw(st.lists(st.integers(lo, hi - 1), max_size=most))
    }
    value = draw(st.sampled_from((1, -1)))
    for p in primes:
        value *= p ** draw(st.integers(1, 3))
    return value


def _or_too_large(route, n):
    try:
        return route(n)
    except TooLarge as exc:
        return ("TooLarge", str(exc))


@settings(max_examples=30, deadline=None)  # the wheel runs to 10^6 past two large primes
@given(bench_tier_products())
def test_factorization_matches_the_wheel_on_bench_tier_products(n):
    assert _or_too_large(factorint, n) == _or_too_large(wheel_factorint, n)
    assert _or_too_large(squarefree_part, n) == _or_too_large(wheel_squarefree_part, n)


@quick
@given(square_classes(), st.integers(1, 10**6))
def test_is_rational_square_matches_the_construction(case, k):
    s, m = case
    assert is_rational_square(Fraction(s * m * m, k * k)) == (s == 1)


@quick
@given(square_classes(), st.sampled_from((2, 4, 8, 3, 9, 5, 7)))
def test_twist_invariants_depend_on_the_square_class_only(case, n):
    s, m = case
    assume(s != 1)
    assert twist_invariants(s * m * m, n) == twist_invariants(s, n)
    assert twist_invariants(s, n) == twist_invariants_by_listing(s, n)


# a float is never a valid d, integral or not; integers are kept small, since
# a d of hundreds of digits costs a full trial division, which is not what is
# tested here
scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(10**9), 10**9)
    | st.floats(-(10**9), 10**9)
    | st.sampled_from((float("nan"), float("inf")))
    | st.text("0123456789-+_. ec", max_size=6)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text("ceg", max_size=2), inner, max_size=2),
    max_leaves=5,
)
cases = st.sampled_from(
    ("tangent", "two_rational", "quadratic", "cuspidal", "nodal_split", "nodal_nonsplit",
     "trivial", "c2", "c3", "s3", "")
)


@st.composite
def boundaries(draw):
    """Arbitrary JSON, or an object close to the boundary schema."""
    if draw(st.booleans()):
        return draw(json_values)
    boundary = {
        "type": draw(st.sampled_from(("line_conic", "irreducible", "three_lines")) | json_values)
    }
    field = draw(st.sampled_from(("intersection", "kind", "galois")))
    boundary[field] = draw(cases | st.dictionaries(cases, json_values, max_size=2) | json_values)
    if draw(st.booleans()):
        boundary["eckardt"] = draw(json_values)
    return boundary


@settings(max_examples=40, deadline=None)
@given(boundaries())
def test_classify_answers_or_reports_one_error_line(boundary):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", f"--boundary={json.dumps(boundary)}", "--format", "json"])
    if code == 0:
        assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == "classify"
    else:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


HEIGHT = 10**6
# small numerators give zero coefficients, repeated roots and failing shifts
rationals = st.builds(
    Fraction, st.integers(-3, 3) | st.integers(-HEIGHT, HEIGHT), st.integers(1, 12)
)


@st.composite
def example_cubics(draw):
    """(F, its rational roots or None): built from a root and a monic quadratic
    t^2 + bt + c, or drawn coefficient by coefficient (roots then listed from
    divisors, which the small heights keep cheap)."""
    if draw(st.booleans()):
        r = draw(rationals)
        b, c = draw(st.integers(-HEIGHT, HEIGHT)), draw(st.integers(-HEIGHT, HEIGHT))
        f = RationalPoly([-r, 1]) * RationalPoly([c, b, 1])
        roots = [r]
        s = b * b - 4 * c
        if s >= 0 and isqrt(s) ** 2 == s:
            roots += [Fraction(-b + isqrt(s), 2), Fraction(-b - isqrt(s), 2)]
        return f.scaled(draw(rationals.filter(bool))), roots
    coeffs = [draw(rationals) for _ in range(3)] + [draw(rationals.filter(bool))]
    return RationalPoly(coeffs), None


@settings(max_examples=40, deadline=None)
@given(example_cubics(), rationals, st.integers(0, 4))
def test_example_answers_or_reports_one_error_line(cubic, a, auto):
    f, roots = cubic
    poly = ",".join(str(c) for c in f.coefficients)
    shift = ["--auto-a", str(auto)] if auto else ["--a", str(a)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["--format", "json", "example", f"--poly={poly}", *shift])
    if code != 0:
        assert code == 1 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    assert err.getvalue() == ""
    got = json.loads(out.getvalue())["result"]["galois_type"]
    variant, d_class = galois_type(f, roots)
    assert got["type"] == variant
    if d_class is not None:
        assert is_rational_square(d_class / got["d"])


# -- polynomial text -----------------------------------------------------------

LIMIT_S = 5.0  # each request below must end within this many seconds


class Overran(Exception):
    """A request ran past LIMIT_S; cli.main does not catch it."""


def _answer(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one cli.main request that ends within LIMIT_S.

    An exception that escapes cli.main, a SystemExit among them, fails the
    test, so a traceback or an argparse exit never counts as an answer.
    """

    def overran(signum, frame):
        raise Overran(f"{argv} ran past {LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


def _assert_answer_or_one_error_line(code: int, out: str, err: str) -> None:
    if code == 0:
        assert err == "" and out
    else:
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


# integers, fractions, decimals and exponent notation (to a billion digits);
# short texts near a rational, with signs, digit separators and the Unicode
# minus; and now and then any text at all
numerals = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(-9, 99)),
    st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 999)),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-(10**9), 10**9)),
)
number_texts = (
    numerals | st.text("0123456789-+/._ eE\u2212", max_size=8) | st.text(max_size=4)
)
poly_texts = st.lists(number_texts, max_size=6).map(",".join) | st.text(max_size=16)
# a search bound far past the few shifts a cubic can fail, or none at all
auto_bounds = st.integers(-2, 30) | st.sampled_from((10**6, 10**12))


@settings(max_examples=60, deadline=None)
@given(poly_texts, number_texts | auto_bounds)
def test_poly_text_answers_or_reports_one_error_line(poly, shift):
    shift_argv = ["--auto-a", str(shift)] if isinstance(shift, int) else [f"--a={shift}"]
    code, out, err = _answer(["example", f"--poly={poly}", *shift_argv])
    _assert_answer_or_one_error_line(code, out, err)
