"""Seeded request streams and the answer oracles that check them.

Every request is a CLI argv list.  The expected outcome travels beside it
and is derived from how the input was built (known roots, a chosen square
class, a constructed concurrency) or from the published tables; nothing
here calls the library under test.

Every answer is decided in exact arithmetic: ``Fraction`` and ``isqrt``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

# -- published tables -----------------------------------------------------

# Pairs (Br_1(U)/Br(k), Br(X)/Br(k)) as invariant-factor tuples.  Cases 1
# and 3 are the published tables (also in cubicbrauer.acceptance).  Case 2
# is the 12-pair set the exhaustive sweep computes, copied from
# tests/test_brauer.py::test_tables_case_two_computed_set_documented: the
# paper publishes 7 of them, and that discrepancy stays visible here.
EXPECTED_TABLES: dict[int, frozenset] = {
    1: frozenset({
        ((), ()), ((2,), ()), ((2,), (2,)), ((2, 2), ()), ((2, 2), (2,)),
        ((2, 2), (2, 2)), ((4,), (2,)), ((3,), (3,)), ((3, 3), (3, 3)),
    }),
    2: frozenset({
        ((2,), ()), ((2, 2), ()), ((2, 2), (2,)), ((2, 2, 2), (2,)),
        ((2, 2, 2), (2, 2)), ((4,), (2,)), ((2, 4), (2, 2)),
        ((), ()), ((2,), (2,)), ((2, 2), (2, 2)), ((2, 2, 2), ()), ((2, 4), (2,)),
    }),
    3: frozenset({
        ((), ()), ((2,), ()), ((2,), (2,)), ((2, 2), ()), ((2, 2), (2,)),
        ((2, 2, 2), ()), ((2, 2, 2), (2,)), ((2, 2, 2, 2), (2, 2)), ((4,), (2,)),
        ((2, 4), (2,)),
    }),
}
SUBGROUP_CLASSES = 246  # conjugacy classes of subgroups of the trio stabilizer


@dataclass
class Request:
    """One CLI call and what its answer must be."""

    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What the program did with one request."""

    rc: int | None
    stdout: str
    error: str | None = None  # exception class name, if one was raised
    typed: bool = False  # the exception is a CubicBrauerError
    escaped: bool = False  # the exception escaped cli.main (a traceback)
    timed_out: bool = False
    message: str = ""  # last line of stderr


class Verdict:
    OK = "ok"  # the right answer, or the typed error the input provokes
    INDETERMINATE = "indeterminate"  # EckardtIndeterminate on a concurrent input
    WRONG = "wrong"  # an answer that contradicts the oracle
    FAILED = "failed"  # traceback, untyped error, unexpected error or timeout

    COUNTS_AS_FAILURE = {WRONG, FAILED}
    SEVERITY = (OK, INDETERMINATE, FAILED, WRONG)  # a repeated request keeps its worst


# -- exact helpers --------------------------------------------------------


def is_square(x) -> bool:
    """Whether a rational number is the square of a rational number."""
    x = Fraction(x)
    if x < 0:
        return False
    n, d = x.numerator, x.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


def group_json(factors) -> dict:
    return {"free_rank": 0, "factors": list(factors)}


def _poly_mul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _integral(coeffs: list[Fraction]) -> tuple[int, ...]:
    """Primitive integer multiple of a rational coefficient list."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


def cubic_discriminant(c: tuple[int, ...]) -> int:
    d0, c1, b2, a3 = c
    return (18 * a3 * b2 * c1 * d0 - 4 * b2**3 * d0 + b2 * b2 * c1 * c1
            - 4 * a3 * c1**3 - 27 * a3 * a3 * d0 * d0)


def _symmetric(c: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """e1, e2 of the roots of c0 + c1 t + c2 t^2 + c3 t^3."""
    return Fraction(-c[2], c[3]), Fraction(c[1], c[3])


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


def _det3(m) -> Fraction:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def concurrency_determinant(roots, a) -> Fraction:
    """det of the three lines joining [1:r:r^3] and [1:r+a:(r+a)^3]."""
    lines = [_cross((1, r, r**3), (1, r + a, (r + a) ** 3)) for r in roots]
    return _det3(lines)


def concurrent_closed_form(c: tuple[int, ...], a) -> bool:
    """Concurrency test a^2 - a c2/c3 + c1/c3 = 0 for separable F, a != 0."""
    e1, e2 = _symmetric(c)
    a = Fraction(a)
    return a * a + a * e1 + e2 == 0


class OracleError(AssertionError):
    """The benchmark's own two oracle routes disagree."""


def concurrent(cubic: "Cubic", a) -> bool:
    """Concurrency of the boundary lines, cross-checked on split cubics."""
    closed = concurrent_closed_form(cubic.coeffs, a)
    if cubic.roots is not None:
        exact = concurrency_determinant(cubic.roots, Fraction(a)) == 0
        if exact != closed:
            raise OracleError(f"closed form disagrees with the determinant: {cubic}, a={a}")
    return closed


def general_position_failures(cubic: "Cubic", a) -> set[str]:
    """Which of the three general-position conditions fail for (F, a).

    The six points lie over the roots r_i and r_i + a.  For a split cubic
    the conditions are checked on the roots themselves.  Otherwise no
    difference of two roots is rational, so the roots stay distinct, and
    the only rational triple sums are e1 + k a (k = 0..3); the degree-5
    coefficient is a multiple of the sum 2 e1 + 3 a of all six roots.
    """
    a = Fraction(a)
    out = set()
    if cubic.roots is not None:
        six = list(cubic.roots) + [r + a for r in cubic.roots]
        if len(set(six)) < 6:
            out.add("distinct")
        if sum(six) == 0:
            out.add("degree5")
        if any(sum(t) == 0 for t in combinations(six, 3)):
            out.add("triple")
        return out
    e1, _ = _symmetric(cubic.coeffs)
    if 2 * e1 + 3 * a == 0:
        out.add("degree5")
    if any(e1 + k * a == 0 for k in range(4)):
        out.add("triple")
    return out


def published_bound(variant: str, cls: int | None) -> tuple[int, ...]:
    """Br(U)/Br_1(U) over Q from the published table of Galois types.

    Full twist (trivial, c3): Z/2.  Quadratic twist by d: Z/4 when d ~ -1,
    Z/2 x Z/3 when d ~ -3, Z/2 otherwise.
    """
    if variant in ("trivial", "c3"):
        return (2,)
    if is_square(-cls):
        return (4,)
    if is_square(-3 * cls):
        return (6,)
    return (2,)


# -- cubics of known Galois type -----------------------------------------


@dataclass
class Cubic:
    coeffs: tuple[int, ...]  # ascending, integer, c2 != 0
    variant: str  # trivial | c2 | c3 | s3
    cls: int | None = None  # a representative of the square class of d
    roots: tuple[Fraction, ...] | None = None  # only for split cubics

    def argv_poly(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


# Square classes for quadratic types, as signed products of distinct small
# primes.  Every prime below 60 can occur.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
_HEIGHT = {1: 4, 2: 30, 3: 100}  # root / parameter size per height bucket


def _small_class(rng: random.Random) -> int:
    pick = rng.random()
    if pick < 0.25:
        return -1
    if pick < 0.5:
        return -3
    primes = rng.sample(_SMALL_PRIMES, rng.choice((1, 2)))
    value = rng.choice((-1, 1))
    for p in primes:
        value *= p
    return value if value != 1 else -1


def _nonzero(rng: random.Random, bound: int) -> int:
    x = 0
    while x == 0:
        x = rng.randint(-bound, bound)
    return x


def _split(rng, height) -> Cubic | None:
    r = _HEIGHT[height]
    roots = tuple(Fraction(rng.randint(-r, r)) for _ in range(3))
    if len(set(roots)) < 3 or sum(roots) == 0:
        return None
    return _from_roots(roots)


def _from_roots(roots) -> Cubic:
    coeffs = [Fraction(1)]
    for x in roots:
        coeffs = _poly_mul(coeffs, [-x, Fraction(1)])
    return Cubic(_integral(coeffs), "trivial", None, tuple(roots))


def _quadratic_type(rng, height, rho=None, u=None, v=None, cls=None) -> Cubic | None:
    """(t - rho)(t^2 - 2u t + u^2 - cls v^2): type c2 with class cls."""
    r = _HEIGHT[height]
    cls = _small_class(rng) if cls is None else cls
    rho = Fraction(rng.randint(-r, r)) if rho is None else rho
    u = Fraction(rng.randint(-r, r), rng.choice((1, 2))) if u is None else u
    v = Fraction(rng.randint(1, max(1, r // 4))) if v is None else v
    quad = [u * u - cls * v * v, -2 * u, Fraction(1)]
    coeffs = _integral(_poly_mul([-rho, Fraction(1)], quad))
    if coeffs[2] == 0:
        return None
    return Cubic(coeffs, "c2", cls)


def _cyclic(rng, height) -> Cubic | None:
    """Shanks' simplest cubic t^3 - m t^2 - (m+3) t - 1, shifted: type c3."""
    bound = {1: 5, 2: 300, 3: 10**4}[height]
    m = _nonzero(rng, bound)
    s = rng.randint(-3, 3)
    base = [Fraction(-1), Fraction(-(m + 3)), Fraction(-m), Fraction(1)]
    coeffs = _integral(_taylor_shift(base, s))
    if coeffs[2] == 0 or not is_square(cubic_discriminant(coeffs)):
        return None
    return Cubic(coeffs, "c3")


def _taylor_shift(c: list[Fraction], s) -> list[Fraction]:
    """Coefficients of F(t + s)."""
    out = [Fraction(0)] * len(c)
    power = [Fraction(1)]
    for k, ck in enumerate(c):
        for i, x in enumerate(power):
            out[i] += ck * x
        power = _poly_mul(power, [Fraction(s), Fraction(1)])
    return out


def _eisenstein(rng, e1: Fraction | None = None, e2: Fraction | None = None) -> Cubic | None:
    """t^3 - e1 t^2 + e2 t - e3, Eisenstein at a prime ell: irreducible.

    Its type is c3 or s3 as its discriminant is a square or not, with the
    discriminant as the class representative.
    """
    ell = rng.choice((2, 3, 5, 7))
    if e1 is None:
        e1 = Fraction(ell * _nonzero(rng, 6))
        e2 = Fraction(ell * rng.randint(-12, 12))
    z = _nonzero(rng, 12)
    if z % ell == 0 or e1 == 0:
        return None
    e3 = Fraction(ell * z)
    if e1.denominator != 1 or e2.denominator != 1 or e1 % ell or e2 % ell:
        return None
    coeffs = (int(-e3), int(e2), int(-e1), 1)
    disc = cubic_discriminant(coeffs)
    if is_square(disc):
        return Cubic(coeffs, "c3")
    return Cubic(coeffs, "s3", disc)


def _pure(rng, height) -> Cubic | None:
    """(t - s)^3 - m with m not a cube: type s3, class -3."""
    bound = {1: 10, 2: 10**3, 3: 10**6}[height]
    m = _nonzero(rng, bound)
    root = round(abs(m) ** (1 / 3))
    if any((root + k) ** 3 == abs(m) for k in (-1, 0, 1)):
        return None
    s = _nonzero(rng, {1: 3, 2: 10, 3: 30}[height])
    coeffs = (-(s**3) - m, 3 * s * s, -3 * s, 1)
    return Cubic(coeffs, "s3", -3)


def _cubic(rng, variant: str, height: int) -> Cubic:
    while True:
        if variant == "trivial":
            cubic = _split(rng, height)
        elif variant == "c2":
            cubic = _quadratic_type(rng, height)
        elif variant == "c3":
            cubic = _cyclic(rng, height)
        elif height == 1:
            cubic = _eisenstein(rng)
            cubic = cubic if cubic is not None and cubic.variant == "s3" else None
        else:
            cubic = _pure(rng, height)
        if cubic is not None:
            return cubic


def _concurrent_case(rng, variant: str) -> tuple[Cubic, Fraction]:
    """A cubic and a shift in general position whose lines are concurrent.

    Concurrency holds iff a^2 + a e1 + e2 = 0.  Split: r3 is solved from
    r1, r2 and a.  c2: rho is solved from a, u, v.  s3: e2 is set from e1
    and a, and Eisenstein keeps the cubic irreducible.
    """
    while True:
        a = Fraction(_nonzero(rng, 6))
        if variant == "trivial":
            r1, r2 = (Fraction(rng.randint(-8, 8)) for _ in range(2))
            if r1 + r2 + a == 0:
                continue
            r3 = -(a + r1) * (a + r2) / (r1 + r2 + a)
            roots = (r1, r2, r3)
            if len(set(roots)) < 3 or sum(roots) == 0:
                continue
            cubic = _from_roots(roots)
        elif variant == "c2":
            u = Fraction(rng.randint(-6, 6))
            v = Fraction(rng.randint(1, 3))
            cls = _small_class(rng)
            if 2 * u + a == 0:
                continue
            rho = (cls * v * v - (a + u) ** 2) / (2 * u + a)
            cubic = _quadratic_type(rng, 1, rho=rho, u=u, v=v, cls=cls)
        else:
            ell = rng.choice((2, 3, 5))
            a = Fraction(ell * _nonzero(rng, 3))
            e1 = Fraction(ell * _nonzero(rng, 4))
            cubic = _eisenstein(rng, e1=e1, e2=-a * a - a * e1)
            if cubic is not None and cubic.variant != variant:
                cubic = None
        if cubic is None or general_position_failures(cubic, a):
            continue
        if not concurrent(cubic, a):
            raise OracleError(f"constructed concurrency does not hold: {cubic}, a={a}")
        return cubic, a


def _good_shift(rng, cubic: Cubic) -> Fraction:
    while True:
        a = Fraction(_nonzero(rng, 12), rng.choice((1, 1, 2, 3)))
        if not general_position_failures(cubic, a) and not concurrent(cubic, a):
            return a


def _failing_shift(rng, cubic: Cubic) -> Fraction:
    """A shift built to break general position: some triple sum vanishes."""
    e1, _ = _symmetric(cubic.coeffs)
    choices = [-e1, -e1 / 2, -e1 / 3, -2 * e1 / 3]
    if cubic.roots is not None:
        choices += [x - y for x, y in combinations(cubic.roots, 2)]
    a = rng.choice(choices)
    if not general_position_failures(cubic, a):
        raise OracleError(f"shift {a} was built to fail general position for {cubic}")
    return a


def admissible_search(cubic: Cubic, bound: int) -> Fraction | None:
    """Smallest integer a in 1..bound in general position and not concurrent."""
    for a in range(1, bound + 1):
        if not general_position_failures(cubic, a) and not concurrent(cubic, a):
            return Fraction(a)
    return None


# -- the examples stream -------------------------------------------------

AUTO_BOUND = 20

# One block of the stream: (Galois type, shift kind, height bucket).  Each
# block holds the same mix in a seeded order, so any prefix of the stream
# has nearly the same composition.
EXAMPLE_BLOCK = (
    ("trivial", "good", 1), ("trivial", "good", 3), ("trivial", "auto", 2),
    ("trivial", "gp_fail", 2), ("trivial", "concurrent", 0),
    ("c2", "good", 1), ("c2", "good", 3), ("c2", "auto", 2),
    ("c2", "gp_fail", 2), ("c2", "concurrent", 0),
    ("c3", "good", 1), ("c3", "good", 3), ("c3", "auto", 2), ("c3", "gp_fail", 2),
    ("s3", "good", 1), ("s3", "good", 3), ("s3", "auto", 2), ("s3", "gp_fail", 2),
    ("s3", "concurrent", 0), ("s3", "good", 2),
)


def example_request(rng: random.Random, variant: str, kind: str, height: int) -> Request:
    if kind == "concurrent":
        cubic, a = _concurrent_case(rng, variant)
    else:
        cubic = _cubic(rng, variant, height)
    expect = {
        "kind": kind,
        "variant": cubic.variant,
        "cls": cubic.cls,
        "coeffs": list(cubic.coeffs),
        "brauer": list(published_bound(cubic.variant, cubic.cls)),
    }
    argv = ["example", "--poly", cubic.argv_poly()]
    if kind == "auto":
        a = admissible_search(cubic, AUTO_BOUND)
        while a is None:  # nothing admissible below the bound: draw again
            cubic = _cubic(rng, variant, height)
            expect.update(cls=cubic.cls, coeffs=list(cubic.coeffs))
            argv[2] = cubic.argv_poly()
            a = admissible_search(cubic, AUTO_BOUND)
        argv += ["--auto-a", str(AUTO_BOUND)]
        expect["a"] = str(a)
        expect["rejected"] = [str(x) for x in range(1, int(a))]
    else:
        if kind == "good":
            a = _good_shift(rng, cubic)
        elif kind == "gp_fail":
            a = _failing_shift(rng, cubic)
        argv += ["--a", str(a)]
        expect["a"] = str(a)
    argv += ["--format", "json"]
    return Request(argv, expect)


def examples_stream(seed: int, blocks: int) -> list[Request]:
    rng = random.Random(f"examples/{seed}")
    out = []
    for _ in range(blocks):
        slots = list(EXAMPLE_BLOCK)
        rng.shuffle(slots)
        out.extend(example_request(rng, *slot) for slot in slots)
    return out


def _check_galois(expect: dict, got: dict) -> str | None:
    if got.get("type") != expect["variant"]:
        return f"galois type {got.get('type')} != {expect['variant']}"
    d = got.get("d")
    if expect["cls"] is None:
        return None if d is None else f"unexpected square class {d}"
    if not isinstance(d, int) or d == 1 or not is_square(d * expect["cls"]):
        return f"square class {d} is not that of {expect['cls']}"
    if any(d % (p * p) == 0 for p in _SMALL_PRIMES):
        return f"square class {d} is not squarefree"
    return None


def check_example(req: Request, out: Outcome) -> tuple[str, str]:
    expect = req.expect
    if expect["kind"] == "gp_fail":
        return _expect_error(out, ("GeneralPositionFailed",))
    if expect["kind"] == "concurrent":
        verdict = _expect_error(out, ("EckardtPoint", "EckardtIndeterminate"))
        if verdict[0] == Verdict.OK and out.error == "EckardtIndeterminate":
            return Verdict.INDETERMINATE, "concurrent input left undecided"
        return verdict
    bad = _answer_problem(out, "example")
    if bad:
        return bad
    result = json.loads(out.stdout)["result"]
    problems = [
        _check_galois(expect, result.get("galois_type", {})),
        None if result.get("polynomial") == [str(c) for c in expect["coeffs"]]
        else "polynomial echoed wrongly",
        None if result.get("a") == expect["a"] else f"a = {result.get('a')} != {expect['a']}",
        None if result.get("general_position") == {
            "distinct_roots": True, "degree5_nonzero": True, "no_triple_sum_zero": True}
        else "general position flags",
        None if result.get("eckardt") == "no" else "eckardt flag",
        None if result.get("brauer_quotient") == group_json(expect["brauer"])
        else f"Br(U)/Br_1(U) = {result.get('brauer_quotient')} != {expect['brauer']}",
    ]
    if expect["kind"] == "auto":
        rejected = [r.get("a") for r in result.get("rejected_a", [])]
        if rejected != expect["rejected"]:
            problems.append(f"rejected shifts {rejected} != {expect['rejected']}")
    problems = [p for p in problems if p]
    return (Verdict.WRONG, "; ".join(problems)) if problems else (Verdict.OK, "")


def _answer_problem(out: Outcome, command: str) -> tuple[str, str] | None:
    """FAILED unless the request ended in a JSON answer for the command."""
    if out.timed_out:
        return Verdict.FAILED, "no answer within the time limit"
    if out.escaped:
        return Verdict.FAILED, f"traceback: {out.error}"
    if out.rc != 0:
        kind = "typed" if out.typed else "untyped"
        return Verdict.FAILED, f"{kind} error {out.error} on a valid input ({out.message})"
    try:
        payload = json.loads(out.stdout)
    except json.JSONDecodeError:
        return Verdict.WRONG, "output is not JSON"
    if payload.get("command") != command:
        return Verdict.WRONG, f"command {payload.get('command')!r}"
    return None


def _expect_error(out: Outcome, classes: tuple[str, ...]) -> tuple[str, str]:
    if out.timed_out:
        return Verdict.FAILED, "no answer within the time limit"
    if out.escaped:
        return Verdict.FAILED, f"traceback: {out.error}"
    if out.rc == 1 and out.typed and out.error in classes:
        return Verdict.OK, ""
    if out.rc == 0:
        return Verdict.WRONG, f"answered where {classes[0]} was due"
    return Verdict.FAILED, f"error {out.error} where {classes[0]} was due ({out.message})"


# -- the invariants stream -----------------------------------------------

def _primes_between(lo: int, hi: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * (hi + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(hi) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytearray(len(range(p * p, hi + 1, p)))
    return tuple(p for p in range(lo, hi + 1) if sieve[p])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_MEDIUM_PRIMES = _primes_between(1000, 100000)


def _large_prime(rng: random.Random) -> int:
    """A prime between 10^6 and 10^7, above the library's trial-division bound."""
    while True:
        p = rng.randrange(10**6 + 1, 10**7, 2)
        if _is_prime(p):
            return p


def _class(rng: random.Random, size: str) -> int:
    """A signed product of distinct primes; size names the largest tiers.

    small: primes below 60 only; medium: small primes times a prime from
    10^3 to 10^5; large: small primes times one prime above 10^6; two_large:
    two primes above 10^6 (plus perhaps a small one).
    """
    primes = set(rng.sample(_SMALL_PRIMES, rng.choice((0, 1, 2))))
    if size == "small" and not primes:
        primes.add(rng.choice(_SMALL_PRIMES))
    if size == "medium":
        primes.add(rng.choice(_MEDIUM_PRIMES))
    if size == "large":
        primes.add(_large_prime(rng))
    if size == "two_large":
        while len(primes) < 2 or max(primes) < 10**6 or sorted(primes)[-2] < 10**6:
            primes.add(_large_prime(rng))
    value = rng.choice((-1, 1))
    for p in primes:
        value *= p
    return value


def _special_class(n: int, rng: random.Random) -> int:
    """A class whose square root lies in Q(zeta_n)."""
    p = _prime_of(n)
    if p == 2:
        return rng.choice((-1, 2, -2)) if n >= 8 else -1
    return p if p % 4 == 1 else -p


def _prime_of(n: int) -> int:
    return next(p for p in (2, 3, 5, 7) if n % p == 0)


def sqrt_in_cyclotomic(d: int, n: int) -> bool:
    """sqrt(d) in Q(zeta_n), n a prime power, by exact square tests.

    The quadratic subfields: Q(i) for 4 | n, Q(sqrt(+-2)) for 8 | n, and
    Q(sqrt(p*)) with p* = (-1)^((p-1)/2) p for odd p.
    """
    p = _prime_of(n)
    if p == 2:
        return (n % 4 == 0 and is_square(-d)) or (
            n % 8 == 0 and (is_square(2 * d) or is_square(-2 * d)))
    return is_square((p if p % 4 == 1 else -p) * d)


def expected_twist(d: int, n: int) -> tuple[int, ...]:
    """Invariants of M_d / n M_d (-1) over Q for a prime power n.

    The fixed points are {m : (t - eps(t)) m = 0 for all units t}, eps the
    character of Q(sqrt d).  Outside Q(zeta_n) eps is independent of t, so
    2m = 0: Z/2 for even n, 0 for odd n.  Inside: Z/4 for d ~ -1, Z/2 for
    d ~ +-2, Z/3 for d ~ -3 and 0 for p* with p >= 5.
    """
    p = _prime_of(n)
    if not sqrt_in_cyclotomic(d, n):
        return (2,) if p == 2 else ()
    if p == 2:
        return (4,) if is_square(-d) else (2,)
    return (3,) if p == 3 else ()


def mod_kernel_rows(d: int, n: int) -> int:
    """Rows of the stacked mod-n matrix behind twist_invariants(d, n).

    One row per generator: phi(n) of them when sqrt(d) lies in Q(zeta_n),
    2 phi(n) otherwise.
    """
    p = _prime_of(n)
    phi = n - n // p
    return phi if sqrt_in_cyclotomic(d, n) else 2 * phi


_BOUNDARIES = (
    ("line_conic", "tangent"), ("line_conic", "two_rational"), ("line_conic", "quadratic"),
    ("irreducible", "cuspidal"), ("irreducible", "nodal_split"),
    ("irreducible", "nodal_nonsplit"), ("three_lines", "trivial"), ("three_lines", "c2"),
    ("three_lines", "c3"), ("three_lines", "s3"), ("three_lines", "eckardt"),
)
_ZERO = {"tangent", "cuspidal", "eckardt"}
_FULL = {"two_rational", "nodal_split", "trivial", "c3"}


def _boundary_json(kind: str, sub: str, d: int | None) -> dict:
    if kind == "line_conic":
        return {"type": kind, "intersection": {"quadratic": d} if d is not None else sub}
    if kind == "irreducible":
        return {"type": kind, "kind": {"nodal_nonsplit": d} if d is not None else sub}
    if sub == "eckardt":
        return {"type": kind, "galois": "trivial", "eckardt": True}
    galois = {sub: d} if d is not None else sub
    return {"type": kind, "galois": galois, "eckardt": False}


def classify_request(rng: random.Random, kind: str, sub: str, size: str) -> Request:
    cls = d = None
    if sub not in _ZERO | _FULL:
        cls = _class(rng, size) if size != "special" else rng.choice((-1, -3))
        while cls in (1, -1) and size != "special":
            cls = _class(rng, size)
        d = cls * rng.choice((1, 1, 4, 9, 25))
    boundary = _boundary_json(kind, sub, d)
    if sub in _ZERO:
        geometric, bound = "zero", ()
    elif sub in _FULL:
        geometric, bound = "full_twist", (2,)
    else:
        geometric, bound = {"d_twist": cls}, published_bound("c2", cls)
    echoed = _boundary_json(kind, sub, cls)
    expect = {"kind": "classify", "boundary": echoed, "geometric": geometric,
              "bound": list(bound), "d": d}
    return Request(["classify", "--boundary", json.dumps(boundary), "--format", "json"], expect)


def invariants_request(rng: random.Random, n: int, size: str) -> Request:
    if size == "special":
        cls = _special_class(n, rng)
    else:
        cls = _class(rng, size)
        while cls in (1, -1) or sqrt_in_cyclotomic(cls, n):
            cls = _class(rng, size)
    d = cls * rng.choice((1, 1, 4, 9))
    expect = {"kind": "invariants", "d": d, "n": n, "group": list(expected_twist(d, n))}
    return Request(["invariants", "--d", str(d), "--n", str(n), "--format", "json"], expect)


# One pass: (modulus, class tier) slots and two rounds of classify boundaries.
# Every modulus appears once with a fixed tier, so a pass costs the same
# whatever the seed; cheap moduli come round again with other tiers.  The
# expensive moduli get classes the library handles.  The cheap ones carry the
# small classes (where a prime from 17 to 37 can be left as the last
# cofactor) and the two-large-prime classes that trial division up to 10^6
# cannot split.  Medium and large primes alternate by slot rather than by
# chance, so every pass spends the same on trial division.
_INVARIANT_SLOTS = (
    (2, "two_large"), (3, "two_large"), (4, "special"), (8, "special"), (16, "small"),
    (32, "medium"), (64, "special"), (128, "large"), (256, "medium"), (9, "special"),
    (27, "small"), (81, "large"), (243, "medium"), (5, "small"), (25, "special"),
    (125, "large"), (7, "small"), (49, "special"),
    (4, "medium"), (8, "small"), (16, "special"), (32, "special"), (9, "large"),
    (27, "special"), (5, "special"), (25, "medium"), (7, "special"), (49, "large"),
)
_CLASSIFY_TIERS = ("small", "medium", "special", "large", "two_large")
CLASSIFY_ROUNDS = 2


def invariants_pass(rng: random.Random) -> list[Request]:
    reqs = [invariants_request(rng, n, tier) for n, tier in _INVARIANT_SLOTS]
    for r in range(CLASSIFY_ROUNDS):
        for i, (kind, sub) in enumerate(_BOUNDARIES):
            tier = _CLASSIFY_TIERS[(i + r) % len(_CLASSIFY_TIERS)]
            reqs.append(classify_request(rng, kind, sub, tier))
    rng.shuffle(reqs)
    return reqs


def invariants_stream(seed: int, passes: int) -> list[list[Request]]:
    rng = random.Random(f"invariants/{seed}")
    return [invariants_pass(rng) for _ in range(passes)]


def check_invariants(req: Request, out: Outcome) -> tuple[str, str]:
    expect = req.expect
    bad = _answer_problem(out, expect["kind"])
    if bad:
        return bad
    result = json.loads(out.stdout)["result"]
    if expect["kind"] == "invariants":
        want = group_json(expect["group"])
        got = result.get("invariants")
        return (Verdict.OK, "") if got == want else (
            Verdict.WRONG, f"invariants({expect['d']}, {expect['n']}) = {got} != {want}")
    problems = []
    if result.get("boundary") != expect["boundary"]:
        problems.append(f"boundary {result.get('boundary')} != {expect['boundary']}")
    if result.get("geometric_brauer") != expect["geometric"]:
        problems.append(f"geometric {result.get('geometric_brauer')} != {expect['geometric']}")
    if result.get("invariants_over_Q") != group_json(expect["bound"]):
        problems.append(f"bound {result.get('invariants_over_Q')} != {expect['bound']}")
    return (Verdict.WRONG, "; ".join(problems)) if problems else (Verdict.OK, "")


# -- the tables stream ---------------------------------------------------


def tables_cases(seed: int, count: int) -> list[int]:
    """Cases cycling 1 -> 2 -> 3, starting where the seed says."""
    start = random.Random(f"tables/{seed}").randrange(3)
    return [(start + i) % 3 + 1 for i in range(count)]


def tables_request(case: int) -> Request:
    return Request(["tables", "--case", str(case), "--format", "json"], {"case": case})


def check_tables(req: Request, out: Outcome, seen: dict[int, str]) -> tuple[str, str]:
    """Published pairs, 246 classes, canonical JSON, identical bytes per case."""
    bad = _answer_problem(out, "tables")
    if bad:
        return bad
    case = req.expect["case"]
    payload = json.loads(out.stdout)
    result = payload["result"]
    pairs = {
        (tuple(p["br1"]["factors"]), tuple(p["brx"]["factors"])) for p in result["pairs"]
    }
    problems = []
    if result.get("case") != case:
        problems.append(f"case {result.get('case')} != {case}")
    if pairs != EXPECTED_TABLES[case] or len(result["pairs"]) != len(pairs):
        extra = sorted(pairs - EXPECTED_TABLES[case])
        missing = sorted(EXPECTED_TABLES[case] - pairs)
        problems.append(f"case {case} pairs: extra {extra}, missing {missing}")
    if result.get("subgroup_classes_scanned") != SUBGROUP_CLASSES:
        problems.append(f"{result.get('subgroup_classes_scanned')} subgroup classes")
    if out.stdout != json.dumps(payload, sort_keys=True) + "\n":
        problems.append("output is not canonical JSON")
    if seen.setdefault(case, out.stdout) != out.stdout:
        problems.append(f"case {case} output differs between runs")
    return (Verdict.WRONG, "; ".join(problems)) if problems else (Verdict.OK, "")
