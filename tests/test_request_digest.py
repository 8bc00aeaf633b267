"""A golden digest of the request path: argv, exit code, stdout and stderr.

A seeded stream of ``example``, ``classify`` and ``invariants`` requests,
each run in both formats, is hashed with sha256.  The digest was recorded
before the JSON path stopped rendering text, the integral form of a cubic
was cached, the Eckardt test moved to integers and ``from_orders``
stopped factoring, so it pins those changes as byte-identical.  The
stream mixes answers with each kind of ``error:``: failed general
position, concurrent lines, non-cubics, malformed descriptors and
moduli that are not prime powers.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from cubicbrauer.cli import main

REQUEST_STREAM_SHA256 = "1b0b0358ccc7428bc31683466749e22b9058e4d3a86d8bb491d563966ffc493a"


def _poly(coeffs) -> str:
    return ",".join(str(Fraction(c)) for c in coeffs)


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _cubic(rng: random.Random) -> list[Fraction]:
    kind = rng.choice(("trivial", "c2", "c3", "s3", "repeated", "pure", "quadratic"))
    if kind == "trivial":
        roots = rng.sample(range(-9, 10), 3)
        coeffs = [Fraction(1)]
        for r in roots:
            coeffs = _times(coeffs, [-r, 1])
    elif kind == "c2":
        coeffs = _times([-rng.randint(-9, 9), 1], [rng.randint(1, 10**6), rng.randint(-9, 9), 1])
    elif kind == "c3":  # Shanks' simplest cubic
        m = rng.randint(-50, 50)
        coeffs = [Fraction(c) for c in (-1, -(m + 3), -m, 1)]
    elif kind == "s3":
        coeffs = [Fraction(rng.randint(-(10**4), 10**4)) for _ in range(3)] + [Fraction(1)]
    elif kind == "repeated":
        r = rng.randint(-5, 5)
        coeffs = _times(_times([-r, 1], [-r, 1]), [-rng.randint(-5, 5), 1])
    elif kind == "pure":  # roots summing to zero
        coeffs = [Fraction(c) for c in (rng.randint(1, 99), rng.randint(-9, 9), 0, 1)]
    else:
        coeffs = [Fraction(rng.randint(-9, 9)) for _ in range(2)] + [Fraction(1)]
    scale = Fraction(rng.randint(1, 12) * rng.choice((-1, 1)), rng.randint(1, 12))
    return [c * scale for c in coeffs]


def _example(rng: random.Random) -> list[str]:
    coeffs = _cubic(rng)
    shape = rng.random()
    if shape < 0.4:
        return ["example", "--poly", _poly(coeffs), "--auto-a", str(rng.choice((1, 3, 20)))]
    if shape < 0.55 and len(coeffs) == 4:
        # a shift on the concurrency locus f3 a^2 - f2 a + f1 = 0
        a = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
        coeffs[1] = coeffs[2] * a - coeffs[3] * a * a
        return ["example", "--poly", _poly(coeffs), "--a", str(a)]
    a = Fraction(rng.randint(-20, 20), rng.randint(1, 5))
    return ["example", "--poly", _poly(coeffs), "--a", str(a)]


_CASES = {
    "line_conic": ("intersection", ("tangent", "two_rational", "quadratic")),
    "irreducible": ("kind", ("cuspidal", "nodal_split", "nodal_nonsplit")),
    "three_lines": ("galois", ("trivial", "c2", "c3", "s3")),
}


def _square_class(rng: random.Random) -> int:
    d = rng.choice((-1, 2, -2, 3, -3, 5, 6, -7, 1000003, -1000003 * 13, 1000003 * 1000033))
    return d * rng.choice((1, 4, 9, 25)) * rng.choice((1, 1, 1, 0))  # 0 now and then: an error


def _classify(rng: random.Random) -> list[str]:
    kind = rng.choice(sorted(_CASES))
    field, subs = _CASES[kind]
    sub = rng.choice(subs)
    case = {sub: _square_class(rng)} if rng.random() < 0.6 else sub
    boundary = {"type": kind, field: case}
    if rng.random() < 0.5:
        boundary["eckardt"] = rng.random() < 0.3
    return ["classify", "--boundary", json.dumps(boundary)]


def _invariants(rng: random.Random) -> list[str]:
    n = rng.choice((2, 3, 4, 8, 9, 16, 27, 25, 49, 81, 256, 12, 1))
    return ["invariants", "--d", str(_square_class(rng) or 7), "--n", str(n)]


def request_stream(seed: int, count: int) -> list[list[str]]:
    rng = random.Random(seed)
    makers = (_example, _example, _classify, _invariants)
    return [rng.choice(makers)(rng) for _ in range(count)]


def stream_digest(requests) -> str:
    """sha256 over (argv, exit code, stdout, stderr) of each request in text, then JSON."""
    digest = hashlib.sha256()
    for argv in requests:
        for fmt in ("text", "json"):
            full = [*argv, "--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(full)
            digest.update(json.dumps([full, code, out.getvalue(), err.getvalue()]).encode())
    return digest.hexdigest()


def test_request_stream_is_byte_identical():
    assert stream_digest(request_stream(24, 400)) == REQUEST_STREAM_SHA256
