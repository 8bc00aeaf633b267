"""Command-line front end.

Subcommands expose each pipeline with deterministic text or JSON output:

  lines       the 27 line classes
  trios       the 45 tritangent trios
  weyl        Weyl group order and generator checks
  tables      the (Br_1, Br X) possibility tables by orbit case
  classify    geometric Brauer group + invariants over Q for a boundary
  invariants  twisted-module invariants for a square class d at a prime power n
  example     the end-to-end rational example pipeline

JSON payloads have the shape {command, inputs, result, paper_anchor} and
identical inputs always produce byte-identical output.

A command runs as one short process, through :func:`run`: the cyclic
garbage collector is off for the whole command, since what a command
builds lives until it exits, and ``gc.freeze()`` runs on the way out, so
the interpreter's last collection at exit skips that heap.  :func:`main`
leaves the collector alone, because tests and ``bench/worker.py`` call it
in a process they own, and no library function touches it either.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from functools import cache
from typing import Callable

from .arith import decimal_integer
from .brauer import (
    BoundaryDescriptor,
    algebraic_tables,
    geometric_brauer,
    sweep_class_count,
    transcendental_bound,
    twist_invariants,
)
from .cubiclattice import (
    HYPERPLANE,
    lines27,
    reference_trio,
    tritangent_trios,
    weyl_generator_matrices,
    weyl_group,
)
from .errors import CubicBrauerError
from .perms import setwise_stabilizer
from .qexamples import example_brauer, searched_example_brauer
from .ratpoly import cubic_text, integral_cubic, parse_coefficients, parse_rational

FORMATS = ("text", "json")


def _emit(
    args, command: str, inputs: dict, result: dict, anchor: str, text: Callable[[], str]
) -> None:
    """Print the JSON payload, or the text that ``text()`` renders; only one is built."""
    if args.format == "json":
        payload = {
            "command": command,
            "inputs": inputs,
            "result": result,
            "paper_anchor": anchor,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text())


def _cmd_lines(args) -> int:
    classes = [list(d) for d in lines27()]

    def text() -> str:
        return "\n".join(
            ["27 line classes in the basis (l, e1..e6):"]
            + [f"  {i:2d}: {cls}" for i, cls in enumerate(classes)]
        )

    _emit(
        args,
        "lines",
        {},
        {"count": len(classes), "classes": classes},
        "the 27 lines on a smooth cubic surface",
        text,
    )
    return 0


def _cmd_trios(args) -> int:
    trios = tritangent_trios()
    payload = [
        {"indices": list(t.indices), "classes": [list(c) for c in t.classes]}
        for t in trios
    ]

    def text() -> str:
        return "\n".join(
            ["45 tritangent trios (line indices):"]
            + [f"  {i:2d}: {entry['indices']}" for i, entry in enumerate(payload)]
        )

    _emit(
        args,
        "trios",
        {},
        {"count": len(trios), "trios": payload},
        "the 45 tritangent trios",
        text,
    )
    return 0


def _cmd_weyl(args) -> int:
    w = weyl_group()
    gens = weyl_generator_matrices()
    preserves_form = all(m.is_unimodular() for m in gens)
    fixes_h = all(m.apply(HYPERPLANE) == HYPERPLANE for m in gens)
    trio = reference_trio()
    stab = setwise_stabilizer(w, set(trio.indices))
    # transitivity on trios: the orbit of the reference trio index set
    orbit = {frozenset(trio.indices)}
    queue = [frozenset(trio.indices)]
    while queue:
        current = queue.pop()
        for g in w.generators:
            image = frozenset(g[i] for i in current)
            if image not in orbit:
                orbit.add(image)
                queue.append(image)
    checks = {
        "fixes_hyperplane_class": fixes_h,
        "generators_unimodular": preserves_form,
        "transitive_on_trios": len(orbit) == 45,
        "trio_orbit_size": len(orbit),
        "trio_stabilizer_order": stab.order(),
    }
    # orbit-stabilizer: |W| = |trio orbit| * |trio stabilizer|, with no listing of W
    order = len(orbit) * stab.order()
    result = {"order": order, "generator_count": len(w.generators), "checks": checks}

    def text() -> str:
        return (
            f"Weyl group W(E6) on the 27 lines\n"
            f"  order: {order}\n"
            f"  generators: {len(w.generators)} (unimodular: {preserves_form}, "
            f"fix hyperplane class: {fixes_h})\n"
            f"  trio orbit size: {len(orbit)} (transitive: {len(orbit) == 45})\n"
            f"  trio stabilizer order: {stab.order()}"
        )

    _emit(args, "weyl", {}, result, "Weyl group symmetry of the Picard lattice", text)
    return 0


def _cmd_tables(args) -> int:
    case = args.case
    if case is None:
        raise ValueError("tables requires --case 1|2|3")
    pairs = algebraic_tables(case)
    scanned = sweep_class_count()
    result = {
        "case": case,
        "pairs": [p.to_json() for p in pairs],
        "subgroup_classes_scanned": scanned,
    }

    def text() -> str:
        return "\n".join(
            [f"possibilities for (Br_1(U)/Br(k), Br(X)/Br(k)), boundary case {case}:"]
            + [f"  Br1 = {str(p.br1):<18} BrX = {p.brx}" for p in pairs]
            + [f"({len(pairs)} pairs from {scanned} subgroup classes)"]
        )

    _emit(
        args,
        "tables",
        {"case": case},
        result,
        f"algebraic Brauer tables for a three-line boundary, case {case}",
        text,
    )
    return 0


def _cmd_classify(args) -> int:
    if args.boundary is None:
        raise ValueError("classify requires --boundary JSON")
    boundary = BoundaryDescriptor.from_json(args.boundary)
    geometric = geometric_brauer(boundary)
    bound = transcendental_bound(boundary)
    wire = boundary.to_json()
    result = {
        "boundary": wire,
        "geometric_brauer": geometric.to_json(),
        "invariants_over_Q": bound.to_json(),
        "is_upper_bound": True,
    }

    def text() -> str:
        return (
            f"boundary: {json.dumps(wire, sort_keys=True)}\n"
            f"  geometric Brauer group: {json.dumps(geometric.to_json(), sort_keys=True)}\n"
            f"  Galois invariants over Q (upper bound for Br U / Br_1 U): {bound}"
        )

    _emit(
        args,
        "classify",
        {"boundary": wire},
        result,
        "geometric Brauer group by boundary type, with invariants over Q",
        text,
    )
    return 0


def _cmd_invariants(args) -> int:
    if args.d is None or args.n is None:
        raise ValueError("invariants requires --d and --n")
    group = twist_invariants(args.d, args.n)
    result = {"invariants": group.to_json()}
    _emit(
        args,
        "invariants",
        {"d": args.d, "n": args.n},
        result,
        "invariants of the twisted quadratic module at a prime power",
        lambda: f"invariants of M_{args.d}/{args.n}(-1) over Q: {group}",
    )
    return 0


def _cmd_example(args) -> int:
    if args.poly is None:
        raise ValueError("example requires --poly")
    coefficients = parse_coefficients(args.poly)
    rejected: list = []
    # --a and --auto-a are checked before the degree of --poly
    if args.auto_a is not None:
        if args.auto_a < 1:
            raise ValueError(f"the search bound must be at least 1, not {args.auto_a}")
        cubic = integral_cubic(coefficients)
        outcome, galois, group = searched_example_brauer(cubic, args.auto_a)
        a = outcome.a
        rejected = [{"a": str(r), "reason": why} for r, why in outcome.rejected]
    elif args.a is not None:
        a = parse_rational(args.a)
        cubic = integral_cubic(coefficients)
        galois, group = example_brauer(cubic, a)
    else:
        raise ValueError("example requires --a or --auto-a")
    result = {
        "polynomial": [str(c) for c in cubic.coefficients],
        "galois_type": {"type": galois.variant, "d": galois.d},
        "a": str(a),
        "rejected_a": rejected,
        # a shift that fails any of the three raises GeneralPositionFailed
        "general_position": {
            "distinct_roots": True,
            "degree5_nonzero": True,
            "no_triple_sum_zero": True,
        },
        "eckardt": "no",
        "brauer_quotient": group.to_json(),
    }

    def text() -> str:
        return (
            f"F = {cubic_text(cubic)}\n"
            f"  galois type: {galois.variant}"
            + (f" (d = {galois.d})" if galois.d is not None else "")
            + f"\n  a = {a} (general position: ok, lines not concurrent)\n"
            f"  Br(U)/Br_1(U) = {group}"
        )

    _emit(
        args,
        "example",
        {"poly": args.poly, "a": str(a)},
        result,
        "transcendental Brauer group of a rational three-line example",
        text,
    )
    return 0


def run_all():
    """The acceptance checks; the module is imported only for --seed-check."""
    from .acceptance import run_all as run_checks

    return run_checks()


def _cmd_seed_check(args) -> int:
    results = run_all()
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name:<{width}}  ({r.elapsed:6.1f}s)  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    # --format may appear before or after the subcommand.  The
    # subcommand-level copy defaults to SUPPRESS: a subparser writes its
    # results into a fresh namespace, so an ordinary default would clobber
    # a value parsed at the top level.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        default=argparse.SUPPRESS,
        help="output format",
    )

    parser = argparse.ArgumentParser(
        prog="cubicbrauer",
        description="Brauer groups of complements of singular hyperplane "
        "sections in smooth cubic surfaces, in exact arithmetic.",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None, help="output format"
    )
    parser.add_argument("--seed-check", action="store_true", help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("lines", help="the 27 line classes", parents=[common])
    sub.add_parser("trios", help="the 45 tritangent trios", parents=[common])
    sub.add_parser("weyl", help="Weyl group order and generator checks", parents=[common])

    p_tables = sub.add_parser(
        "tables", help="(Br_1, Br X) possibility tables", parents=[common]
    )
    p_tables.add_argument("--case", type=decimal_integer, choices=(1, 2, 3), default=None)

    p_classify = sub.add_parser(
        "classify", help="classify a boundary descriptor", parents=[common]
    )
    p_classify.add_argument("--boundary", help="boundary descriptor as JSON")

    p_inv = sub.add_parser(
        "invariants", help="twisted-module invariants over Q", parents=[common]
    )
    p_inv.add_argument("--d", type=decimal_integer, default=None, help="square class")
    p_inv.add_argument("--n", type=decimal_integer, default=None, help="prime-power modulus")

    p_ex = sub.add_parser("example", help="rational example pipeline", parents=[common])
    p_ex.add_argument("--poly", help="coefficients, ascending degree, comma-separated")
    p_ex.add_argument("--a", default=None, help="shift parameter (rational)")
    p_ex.add_argument("--auto-a", dest="auto_a", type=decimal_integer, default=None,
                      help="search a = 1..BOUND for an admissible shift")

    return parser


_DISPATCH = {
    "lines": _cmd_lines,
    "trios": _cmd_trios,
    "weyl": _cmd_weyl,
    "tables": _cmd_tables,
    "classify": _cmd_classify,
    "invariants": _cmd_invariants,
    "example": _cmd_example,
}


def _join_dash_values(argv: list[str]) -> list[str]:
    """Fold `--poly -2,-2,1,1` into `--poly=-2,-2,1,1`.

    Polynomial coefficient lists and rational shifts legitimately start
    with '-', which argparse would otherwise read as an option.
    """
    out = []
    skip = False
    for i, arg in enumerate(argv):
        if skip:
            skip = False
            continue
        if arg in ("--poly", "--a") and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{arg}={argv[i + 1]}")
            skip = True
        else:
            out.append(arg)
    return out


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process.

    Reuse is safe: ``parse_args`` starts a new namespace on every call,
    and argparse looks ``sys.stdout`` and ``sys.stderr`` up when it prints.
    """
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dash_values(list(argv)))
    try:
        if args.seed_check:
            return _cmd_seed_check(args)
        if not args.command:
            parser.print_usage(sys.stderr)
            return 2
        return _DISPATCH[args.command](args)
    # OSError: a stdout whose reader went away, as in `trios | head -1`
    except (CubicBrauerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry: :func:`main` on ``sys.argv`` with the cyclic collector off.

    A command's objects live until the process exits, so the collector
    would stop a ``tables`` run a dozen times to walk a heap it cannot
    shrink by much; with it off, peak memory moves by under 1%.
    ``gc.freeze()`` runs on every way out, argparse's ``SystemExit``
    included, and moves every object to the permanent generation, which the
    interpreter's final collection does not walk.  Neither call is undone,
    since the process ends right after.  :func:`main` does not touch the
    collector, so a caller whose process goes on keeps it as it was.
    """
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
