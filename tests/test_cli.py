"""CLI surface: dispatch, JSON determinism, exit codes, the parser and the process entry."""

from __future__ import annotations

import argparse
import ast
import errno
import gc
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from cubicbrauer import cli
from cubicbrauer.acceptance import CheckResult
from cubicbrauer.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lines_json(capsys):
    code, out, _ = run(capsys, "--format", "json", "lines")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "lines"
    assert payload["result"]["count"] == 27
    assert [0, 1, 0, 0, 0, 0, 0] in payload["result"]["classes"]


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "--format", "json", "trios")
    _, second, _ = run(capsys, "--format", "json", "trios")
    assert first == second
    payload = json.loads(first)
    assert payload["result"]["count"] == 45


def test_weyl_checks(capsys):
    code, out, _ = run(capsys, "--format", "json", "weyl")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["order"] == 51840
    assert result["checks"]["transitive_on_trios"] is True
    assert result["checks"]["trio_stabilizer_order"] == 1152


# sha256 of the stdout of `--format text|json weyl`, recorded when |W(E6)| was
# the order of a Schreier-Sims chain of W
WEYL_SHA256 = {
    "text": "d68fdc32fa875fb5d1943acc8934951cf40369a2b54ce5d91c01195d484b39eb",
    "json": "e43dcc30f74ce0055096345b60f8fde2807e2600f8eea5ab4a227d501dc4f752",
}


@pytest.mark.parametrize("fmt", sorted(WEYL_SHA256))
def test_weyl_output_is_byte_identical(capsys, fmt):
    code, out, _ = run(capsys, "--format", fmt, "weyl")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == WEYL_SHA256[fmt]


def test_invariants_command(capsys):
    code, out, _ = run(capsys, "--format", "json", "invariants", "--d", "-1", "--n", "4")
    assert code == 0
    assert json.loads(out)["result"]["invariants"] == {"free_rank": 0, "factors": [4]}


def test_invariants_error_exit(capsys):
    code, _, err = run(capsys, "invariants", "--d", "5", "--n", "6")
    assert code == 1
    assert "prime power" in err


def test_classify_command(capsys):
    boundary = '{"type":"line_conic","intersection":"tangent"}'
    code, out, _ = run(capsys, "--format", "json", "classify", "--boundary", boundary)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["geometric_brauer"] == "zero"
    assert result["invariants_over_Q"] == {"free_rank": 0, "factors": []}


def test_classify_bad_json_exit(capsys):
    code, _, err = run(capsys, "classify", "--boundary", '{"type":"nonsense"}')
    assert code == 1
    assert "unknown boundary" in err


def test_tables_case3(capsys):
    code, out, _ = run(capsys, "--format", "json", "tables", "--case", "3")
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result["pairs"]) == 10
    assert {"br1": {"free_rank": 0, "factors": []}, "brx": {"free_rank": 0, "factors": []}} in result["pairs"]


# sha256 of the stdout of `--format json tables --case N`, recorded from the
# enumeration that scanned all of G for normalizers
TABLES_JSON_SHA256 = {
    "1": "980d7a64779b668c5e3c51432fe89a4245063441f96c1dfde563f190c5c918b1",
    "2": "4d7b37742220ce4c928aa001b83d660396770d3acbd151f839df70370ef89d9b",
    "3": "2fb2fcacec121e0a44d0331d0de63eee01a97c44650cf454ff69459feef73566",
}


@pytest.mark.parametrize("case", sorted(TABLES_JSON_SHA256))
def test_tables_json_is_byte_identical(capsys, case):
    code, out, _ = run(capsys, "--format", "json", "tables", "--case", case)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLES_JSON_SHA256[case]


def test_example_auto_a(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "example", "--poly=-2,-2,1,1", "--auto-a", "20"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["a"] == "3"
    assert result["brauer_quotient"] == {"free_rank": 0, "factors": [2]}
    assert result["galois_type"] == {"type": "c2", "d": 2}


def test_example_requires_inputs(capsys):
    code, _, err = run(capsys, "example", "--poly=-2,-2,1,1")
    assert code == 1
    assert "--a or --auto-a" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tables"], "tables requires --case 1|2|3"),
        (["classify"], "classify requires --boundary JSON"),
        (["invariants", "--d", "-1"], "invariants requires --d and --n"),
        (["invariants", "--n", "4"], "invariants requires --d and --n"),
        (["invariants"], "invariants requires --d and --n"),
        (["example"], "example requires --poly"),
    ],
)
def test_a_missing_flag_ends_in_one_error_line(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--case", "7"])
    assert exc.value.code == 2


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


@pytest.mark.parametrize("argv", [["--config", "f", "lines"], ["lines", "--config", "f"]])
def test_config_is_an_unknown_argument(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == "" and captured.err.startswith("usage:")


def test_a_closed_stdout_ends_in_one_error_line(capsys, monkeypatch):
    """A reader that went away, as in ``cubicbrauer trios | head -1``: exit 1, no traceback."""

    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["lines"]) == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"


# flags that README names for other programs (pip)
NON_CLI_FLAGS = {"--no-build-isolation"}


def test_every_flag_the_readme_names_is_an_option_of_the_parser():
    readme = Path(cli.__file__).resolve().parents[2] / "README.md"
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", readme.read_text(encoding="utf-8")))
    parser = cli.build_parser()
    options = set(parser._option_string_actions)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= set(subparser._option_string_actions)
    assert named - NON_CLI_FLAGS <= options
    assert NON_CLI_FLAGS <= named  # an entry README no longer names leaves the list


def _request_outcomes(capsys, requests, fresh):
    """(exit code, stdout, stderr) of each request, with a fresh parser each time or not."""
    outcomes = []
    for argv in requests:
        if fresh:
            cli._parser.cache_clear()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_the_parser_built_once_answers_as_a_fresh_one(capsys, monkeypatch):
    requests = [
        ["--format", "json", "invariants", "--d", "-3", "--n", "3"],
        ["--format", "json", "invariants", "--d", "-1", "--n", "4"],
        ["tables", "--case", "9"],  # a usage error: exit 2
        ["classify", "--boundary", '{"type":"line_conic","intersection":"tangent"}'],
        ["invariants", "--d", "-1", "--n", "3", "--format", "json"],
        [],  # no subcommand: usage, exit 2
        ["example", "--poly", "-2,-2,1,1", "--a", "3"],
        ["invariants", "--d", "-1", "--n", "4"],  # no format left over
    ]
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    shared = _request_outcomes(capsys, requests, fresh=False)
    assert len(built) == 1
    fresh = _request_outcomes(capsys, requests, fresh=True)
    cli._parser.cache_clear()
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0, 2, 0, 0]
    assert "invalid choice: 9" in shared[2][2]
    assert json.loads(shared[1][1])["result"]["invariants"]["factors"] == [4]
    assert json.loads(shared[4][1])["inputs"] == {"d": -1, "n": 3}
    assert shared[7][1] == "invariants of M_-1/4(-1) over Q: Z/4\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("tables", "--case", "\u0661"),  # an Arabic-Indic one
        ("invariants", "--d=-1_0", "--n", "4"),
        ("invariants", "--d", " 12 ", "--n", "4"),
        ("invariants", "--d", "+5", "--n", "4"),
        ("invariants", "--d", "-1", "--n", "\u0669"),  # an Arabic-Indic nine
        ("example", "--poly", "-2,-2,1,1", "--auto-a", "\uff12\uff10"),  # full-width 20
        ("invariants", "--d", "\u22125", "--n", "4"),  # a minus sign
    ],
)
def test_integer_flags_take_only_ascii_digits(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "invalid decimal_integer value" in capsys.readouterr().err


@pytest.mark.parametrize("d", ["1_2", " 12 ", "\u0661\u0662"])
def test_classify_refuses_a_d_string_beyond_ascii_digits(capsys, d):
    boundary = json.dumps({"type": "three_lines", "galois": {"c2": d}})
    code, out, err = run(capsys, "classify", "--boundary", boundary)
    assert (code, out) == (1, "")
    assert err == f"error: galois: d must be an integer, not {d!r}\n"


def test_text_output_default(capsys):
    code, out, _ = run(capsys, "invariants", "--d", "-3", "--n", "3")
    assert code == 0
    assert "Z/3" in out


SEED_CHECKS = [
    "1 lattice combinatorics",
    "2 algebraic tables",
    "3 torsion-freeness",
    "4 twisted invariants",
    "4b twist enumeration oracle",
    "5 examples over Q",
    "6 cyclic oracle equivalence",
    "8 classifier consistency",
]


def test_seed_check_runs_matrix(capsys):
    """The eight checks in order, each under its acceptance-criterion number."""
    code, out, _ = run(capsys, "--seed-check")
    assert code == 0
    lines = out.splitlines()
    names = [re.fullmatch(r"\[PASS\] (.+?) +\( *[0-9.]+s\)  .+", line)[1] for line in lines[:-1]]
    assert names == SEED_CHECKS
    assert lines[-1] == "8/8 checks passed"
    # case 2 is reported as the published seven plus five witnessed extras
    assert "case 2: 12 pairs = published 7 + 5 witnessed extras" in out


def test_seed_check_exits_1_on_a_failing_check(monkeypatch, capsys):
    failing = CheckResult("2 algebraic tables", False, "case 2: missing", 0.0)
    monkeypatch.setattr(cli, "run_all", lambda: [failing])
    code, out, _ = run(capsys, "--seed-check")
    assert code == 1
    assert "[FAIL] 2 algebraic tables" in out
    assert "0/1 checks passed" in out


def test_example_concurrent_lines_exit(capsys):
    code, out, err = run(capsys, "example", "--poly", "-2,-2,1,1", "--a", "2")
    assert code == 1
    assert out == ""
    assert err == "error: the three boundary lines are concurrent\n"


def test_example_no_admissible_shift_exit(capsys):
    code, _, err = run(capsys, "example", "--poly", "-2,-2,1,1", "--auto-a", "1")
    assert code == 1
    assert err == "error: no admissible a found up to 1\n"


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_example_refuses_a_search_bound_below_1(capsys, bound):
    """Once answered as a search that found nothing, even for a linear "cubic"."""
    for poly in ("1,2", "-2,-2,1,1"):
        code, out, err = run(capsys, "example", "--poly", poly, "--auto-a", bound)
        assert (code, out) == (1, "")
        assert err == f"error: the search bound must be at least 1, not {bound}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("example", "--poly", "1,1,1,1", "--a", "1/0"),
        ("example", "--poly", "1/0,1", "--a", "1"),
    ],
)
def test_example_zero_denominator_exit(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: zero denominator in '1/0'\n"


def test_example_refuses_an_empty_coefficient_field(capsys):
    """'1,,1,1,1' has five fields; dropping the empty one would answer for t^3 + t^2 + t + 1."""
    code, out, err = run(capsys, "example", "--poly", "1,,1,1,1", "--auto-a", "20")
    assert (code, out) == (1, "")
    assert err == "error: empty coefficient field 2 (of t^1) in '1,,1,1,1'\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (("example", "--poly", "1e999999999,1,0,1", "--a", "1"), "1e999999999"),
        (("example", "--poly", "1,1,1,1", "--a", "2E-3"), "2E-3"),
    ],
)
def test_example_refuses_exponent_notation(capsys, argv, text):
    """A few characters of exponent notation would denote a billion-digit integer."""
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: exponent notation in {text!r}: write an integer, a decimal or p/q\n"


@pytest.mark.parametrize(
    "argv, text",
    [
        (("example", "--poly", "-2,-2,1,1", "--a", "٣/٤"), "٣/٤"),  # once read as 3/4
        (("example", "--poly", "1_0,1,0,1", "--a", "1"), "1_0"),  # once read as 10
        (("example", "--poly", "-2,-2,1,1", "--a", " 1/2"), " 1/2"),
        (("example", "--poly", "-2,-2,1,1", "--a", "+1"), "+1"),
        (("example", "--poly", "+1,1,0,1", "--a", "1"), "+1"),
        (("example", "--poly", "-2,-2,1,1", "--a", "1.5/2"), "1.5/2"),
        (("example", "--poly", "-2,-2,1,1", "--a", "1/"), "1/"),
        (("example", "--poly", "-2,-2,1,1", "--a", "-/2"), "-/2"),
        (("example", "--poly", "-2,-2,1,1", "--a", "/2"), "/2"),
        (("example", "--poly", "-2,-2,1,1", "--a", "\u22121"), "\u22121"),  # a minus sign
    ],
)
def test_example_reads_only_decimal_rationals(capsys, argv, text):
    """ASCII digits after an optional '-', with at most one '/' or '.'.

    Each side of a '/' holds a digit: '1/' once ended in Fraction's own error.
    """
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: not a decimal rational: {text!r}\n"


@pytest.mark.parametrize(
    "poly, shift, answer",
    [
        ("1,1", (), "example requires --a or --auto-a"),
        ("1,1", ("--a", "x"), "not a decimal rational: 'x'"),
        ("1,1", ("--a", "0"), "expected a cubic polynomial"),
        ("0,0,0,0", ("--a", "1"), "expected a cubic polynomial"),
        ("-2,-2,1,1", ("--a", "0"), "the shift a must be nonzero"),
        ("1,1", ("--auto-a", "0"), "the search bound must be at least 1, not 0"),
        ("-2,-2,1,1,0", ("--a", "3"), ["-2", "-2", "1", "1"]),
    ],
)
def test_example_reads_the_shift_before_the_degree(capsys, poly, shift, answer):
    """The shift's errors come first, then the degree's; a trailing zero is dropped."""
    code, out, err = run(capsys, "--format", "json", "example", "--poly", poly, *shift)
    if isinstance(answer, list):
        assert (code, err) == (0, "")
        assert json.loads(out)["result"]["polynomial"] == answer
    else:
        assert (code, out, err) == (1, "", f"error: {answer}\n")


@pytest.mark.parametrize("a", ["-3/4", "0.75", "3/4", "-0.75", "6/8"])
def test_example_reads_a_decimal_or_a_fraction(capsys, a):
    code, out, err = run(capsys, "--format", "json", "example", "--poly", "-2,-2,1,1", "--a", a)
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["a"] == ("-3/4" if a.startswith("-") else "3/4")


@pytest.mark.parametrize("poly", ["0,0,1,1", "1,1,0,1"])  # t^2 (t + 1); roots summing to 0
def test_auto_a_stops_once_no_shift_can_pass(capsys, monkeypatch, poly):
    from cubicbrauer import qexamples

    shifts = []
    general_position = qexamples.general_position

    def counted(f, a):
        shifts.append(a)
        return general_position(f, a)

    monkeypatch.setattr(qexamples, "general_position", counted)
    code, out, err = run(capsys, "example", "--poly", poly, "--auto-a", "1000")
    assert code == 1 and out == ""
    assert err == "error: no admissible a found up to 1000\n"
    assert shifts == [1]


def test_invariants_prime_witness_square_class(capsys):
    code, out, _ = run(capsys, "--format", "json", "invariants", "--d", "17", "--n", "4")
    assert code == 0
    # 17 is prime and sqrt(17) is not in Q(i), so only 2-torsion is invariant
    assert json.loads(out)["result"]["invariants"] == {"free_rank": 0, "factors": [2]}


@pytest.mark.parametrize(
    "boundary",
    [
        '{"type":"line_conic"}',
        "[1]",
        "null",
        '{"type":"three_lines","galois":["c2"]}',
        '{"type":"three_lines","galois":{"c2":true}}',
        '{"type":"three_lines","galois":{"c2":1.5}}',
        '{"type":"irreducible","kind":{"nodal_nonsplit":null}}',
        '{"type":"line_conic","intersection":{"quadratic":5,"tangent":3}}',
        '{"type":["three_lines"]}',
        "[" * 5000 + "]" * 5000,
    ],
    ids=lambda boundary: boundary[:40],
)
def test_classify_malformed_boundary_exit(capsys, boundary):
    code, out, err = run(capsys, "classify", "--boundary", boundary)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("eckardt", ['"false"', "0", "1", "null"])
def test_classify_refuses_a_non_boolean_eckardt(capsys, eckardt):
    """The string "false" once read as true; 0, 1 and null once answered too."""
    boundary = '{"type":"three_lines","galois":"trivial","eckardt":%s}' % eckardt
    code, out, err = run(capsys, "classify", "--boundary", boundary)
    assert (code, out) == (1, "")
    assert err == f"error: eckardt must be true or false, not {json.loads(eckardt)!r}\n"


def test_classify_reads_a_boolean_eckardt(capsys):
    results = []
    for eckardt in ("true", "false"):
        boundary = '{"type":"three_lines","galois":"trivial","eckardt":%s}' % eckardt
        code, out, _ = run(capsys, "--format", "json", "classify", "--boundary", boundary)
        assert code == 0
        results.append(json.loads(out)["result"]["geometric_brauer"])
    assert results == ["zero", "full_twist"]


@pytest.mark.parametrize(
    "boundary, message",
    [
        ('{"type":"line_conic","intersection":"two_rational","eckardt":true}',
         "eckardt applies only to three lines"),
        ('{"type":"irreducible","kind":"cuspidal","eckardt":true}',
         "eckardt applies only to three lines"),
        ('{"type":"line_conic","intersection":"two_rational","eckardt":"yes"}',
         "eckardt must be true or false, not 'yes'"),
    ],
)
def test_classify_refuses_eckardt_off_three_lines(capsys, boundary, message):
    """Once ignored on these kinds, so these inputs answered as if it were absent."""
    code, out, err = run(capsys, "classify", "--boundary", boundary)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_classify_reads_eckardt_false_on_any_kind(capsys):
    for boundary in ('{"type":"line_conic","intersection":"two_rational"%s}',
                     '{"type":"irreducible","kind":"cuspidal"%s}'):
        _, absent, _ = run(capsys, "--format", "json", "classify", "--boundary", boundary % "")
        code, out, _ = run(
            capsys, "--format", "json", "classify", "--boundary", boundary % ',"eckardt":false'
        )
        assert code == 0 and out == absent


# sha256 of `--format json example --poly 1000003,-1,1,1 --auto-a 20`, as
# printed when the Galois type was computed twice per request
EXAMPLE_JSON_SHA256 = "869f3535f41135e58cc48feb532cd45a49431877a5a9066bf9c2524dddef1751"


def test_example_computes_the_galois_type_once(capsys, monkeypatch):
    from cubicbrauer import qexamples

    calls = []
    galois_type = qexamples.cubic_galois_type

    def counted(f):
        calls.append(f)
        return galois_type(f)

    monkeypatch.setattr(qexamples, "cubic_galois_type", counted)
    argv = ("example", "--poly", "1000003,-1,1,1", "--auto-a", "20")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
    assert out == (
        "F = t^3 + t^2 - t + 1000003\n"
        "  galois type: s3 (d = -600751691)\n"
        "  a = 2 (general position: ok, lines not concurrent)\n"
        "  Br(U)/Br_1(U) = Z/2\n"
    )
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0 and len(calls) == 2
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_JSON_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        ("example", "--poly", "-2,-2,1,1", "--auto-a", "20"),
        ("example", "--poly", "1000003,-1,1,1", "--a", "2"),
        ("classify", "--boundary", '{"type":"three_lines","galois":{"s3":-3},"eckardt":false}'),
        ("classify", "--boundary", '{"type":"irreducible","kind":"nodal_split"}'),
        ("invariants", "--d", "-1", "--n", "4"),
    ],
)
def test_json_output_renders_no_text(capsys, monkeypatch, argv):
    """Only --format text calls the renderers that its text alone reads."""
    from cubicbrauer.intlinalg import FinAbGroup

    code, expected, _ = run(capsys, "--format", "json", *argv)
    assert code == 0

    def refuse(value):
        raise AssertionError("text rendered for JSON output")

    dumps, dumped = json.dumps, []
    monkeypatch.setattr(cli, "cubic_text", refuse)
    monkeypatch.setattr(FinAbGroup, "__str__", refuse)
    monkeypatch.setattr(json, "dumps", lambda *a, **k: dumped.append(a) or dumps(*a, **k))
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, out, err) == (0, expected, "")
    assert len(dumped) == 1  # the payload
    with pytest.raises(AssertionError, match="text rendered"):
        main(list(argv))


def test_example_builds_the_integral_form_once(capsys, monkeypatch):
    from cubicbrauer import ratpoly

    calls = []
    cubic_discriminant = ratpoly.cubic_discriminant

    def counted(*c):
        calls.append(c)
        return cubic_discriminant(*c)

    monkeypatch.setattr(ratpoly, "cubic_discriminant", counted)
    # a = 1 fails general position and 2 is concurrent: three shifts and the Galois type
    code, out, _ = run(capsys, "example", "--poly", "-2,-2,1,1", "--auto-a", "20")
    assert code == 0 and "a = 3 " in out
    assert len(calls) == 1


def test_auto_a_tests_each_shift_once(capsys, monkeypatch):
    from cubicbrauer import qexamples

    shifts = []
    general_position = qexamples.general_position

    def counted(f, a):
        shifts.append(a)
        return general_position(f, a)

    monkeypatch.setattr(qexamples, "general_position", counted)
    code, out, _ = run(capsys, "example", "--poly", "-2,-2,1,1", "--auto-a", "20")
    assert code == 0 and "a = 3 " in out
    assert shifts == [1, 2, 3]  # 1 fails general position, 2 is concurrent


@pytest.mark.parametrize(
    "poly, galois",
    [
        ("1000003,1000003,1,1", {"type": "c2", "d": -1000003}),  # (t + 1)(t^2 + 1000003)
        ("1000003,-1,1,1", {"type": "s3", "d": -600751691}),
    ],
)
def test_example_trial_divides_the_printed_d_once(capsys, monkeypatch, poly, galois):
    """The d that cubic_galois_type finds is not trial-divided again on its way to the bound."""
    from cubicbrauer import arith

    divided = []
    trial_divide = arith._trial_divide

    def counted(n, k):
        divided.append(n)
        return trial_divide(n, k)

    monkeypatch.setattr(arith, "_trial_divide", counted)
    code, out, err = run(capsys, "--format", "json", "example", "--poly", poly, "--auto-a", "20")
    assert code == 0 and err == ""
    assert json.loads(out)["result"]["galois_type"] == galois
    assert len([n for n in divided if n % galois["d"] == 0]) == 1


def test_example_finds_a_rational_root_past_the_trial_division_bound(capsys):
    # (t^2 + 1)(t - 1000036000099), and 1000036000099 = 1000003 * 1000033
    argv = ("example", "--poly", "-1000036000099,1,-1000036000099,1", "--auto-a", "20")
    code, out, err = run(capsys, "--format", "json", *argv)
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["galois_type"] == {"type": "c2", "d": -1}
    assert result["brauer_quotient"] == {"free_rank": 0, "factors": [4]}


def test_example_without_rational_roots_names_the_discriminant_it_cannot_class(capsys):
    # t^3 + t + (10^9 + 7)(10^9 + 9): no rational root, and the square class
    # of the discriminant needs a 38-digit composite factored
    code, out, err = run(capsys, "example", "--poly", "1000000016000000063,1,0,1", "--a", "1")
    assert code == 1 and out == ""
    assert err.startswith(
        "error: cannot find the square class of -27000000864000010314000054432000107167: "
    )
    assert err.count("\n") == 1


def test_invariants_of_a_product_of_two_primes_above_the_bound(capsys):
    # 100000980001501 = 10000019 * 10000079, both above the trial-division bound
    code, out, _ = run(capsys, "--format", "json", "invariants", "--d", "100000980001501", "--n", "4")
    assert code == 0
    assert json.loads(out)["result"]["invariants"] == {"free_rank": 0, "factors": [2]}


def test_classify_echoes_the_squarefree_class_of_a_large_d(capsys):
    boundary = '{"type":"three_lines","galois":{"s3":-9118199493733675},"eckardt":false}'
    code, out, _ = run(capsys, "--format", "json", "classify", "--boundary", boundary)
    assert code == 0
    result = json.loads(out)["result"]
    # -9118199493733675 = -5^2 * 47 * 1374761 * 5644741
    assert result["boundary"]["galois"] == {"s3": -364727979749347}
    assert result["invariants_over_Q"] == {"free_rank": 0, "factors": [2]}


def test_classify_refuses_an_undecidable_class_that_invariants_answers(capsys):
    """squarefree_part raises TooLarge for this d (see test_arith)."""
    d = 1000003**2 * 1000033  # above 10^18, composite, no prime factor up to 10^6
    boundary = json.dumps({"type": "line_conic", "intersection": {"quadratic": d}})
    code, out, err = run(capsys, "classify", "--boundary", boundary)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot find the square class of {d}") and err.count("\n") == 1
    code, out, _ = run(capsys, "invariants", "--d", str(d), "--n", "4")
    assert code == 0
    assert out == f"invariants of M_{d}/4(-1) over Q: Z/2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("invariants", "--d", "5", "--n", "1000000016000000063"),
        ("invariants", "--d", "5", "--n", "1000000007"),
        ("invariants", "--d", "5", "--n", "1000000014000000049"),
        ("example", "--poly", "1000000016000000063,1,0,1", "--a", "1"),
        ("invariants", "--d", "5", "--n", "2187"),
        ("invariants", "--d", "5", "--n", "3486784401"),
    ],
)
def test_large_inputs_end_within_a_time_bound(argv):
    """(10^9 + 7)(10^9 + 9) is neither a prime power nor trial-divisible, so
    it ends in an error.  3^7, 3^20, 10^9 + 7 and its square are prime
    powers with too many units to list one by one; each answers 0.

    The child gets 1 GiB of address space, so a regression fails fast
    instead of filling memory.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    proc = subprocess.run(
        [sys.executable, "-m", "cubicbrauer.cli", *argv],
        capture_output=True,
        text=True,
        timeout=5,
        env=env,
        preexec_fn=limit_memory,
    )
    if argv[-1] == "1000000016000000063":
        assert proc.returncode == 1
    elif argv[0] == "invariants":
        assert proc.returncode == 0
        assert proc.stdout == f"invariants of M_5/{argv[-1]}(-1) over Q: 0\n"
    if proc.returncode:
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_importing_the_cli_leaves_the_acceptance_suite_unloaded():
    """Only --seed-check reads the acceptance checks, so no other command imports them."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, cubicbrauer.cli; print('cubicbrauer.acceptance' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    assert proc.stdout == "False\n"


def test_the_cli_and_tables_load_neither_dataclasses_nor_inspect():
    """Every command starts a fresh interpreter, so the import path stays lean.

    ``dataclasses`` imports ``inspect`` (and with it ``ast``, ``dis`` and
    ``tokenize``), and each dataclass generates its methods at import time.
    ``acceptance``, which only ``--seed-check`` runs, keeps its records as
    ``NamedTuple`` too.
    """
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import contextlib, io, sys\n"
        "def loaded():\n"
        "    return [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "import cubicbrauer.cli\n"
        "print(loaded())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cubicbrauer.cli.main(['tables', '--case', '3'])\n"
        "print(code, loaded())\n"
        "import cubicbrauer.acceptance\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    assert proc.stdout == "[]\n0 []\n[]\n"


# requests that end in an answer, a typed error (exit 1), a usage error
# (exit 2) and the help text
PROCESS_REQUESTS = {
    "tables": ["tables", "--case", "3", "--format", "json"],
    "classify": ["classify", "--boundary", '{"type":"line_conic","intersection":"tangent"}'],
    "invariants": ["invariants", "--d", "-1", "--n", "4"],
    "example": ["example", "--poly", "-2,-2,1,1", "--auto-a", "20"],
    "typed-error": ["invariants", "--d", "5", "--n", "6"],
    "usage-error": ["tables", "--case", "7"],
    "help": ["--help"],
}


def _in_process(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors and --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name, expected", [("example", 0), ("typed-error", 1), ("usage-error", 2), ("help", 0)]
)
def test_main_leaves_the_collector_alone(capsys, name, expected):
    """A caller that keeps its process, as the tests and bench/worker.py do, keeps its collector."""
    assert gc.isenabled()
    frozen = gc.get_freeze_count()
    code, _, _ = _in_process(capsys, PROCESS_REQUESTS[name])
    assert code == expected
    assert gc.isenabled() and gc.get_freeze_count() == frozen


@pytest.mark.parametrize("name", PROCESS_REQUESTS)
def test_both_module_forms_answer_as_main_in_process(capsys, monkeypatch, name):
    """Exit code, stdout and stderr of ``python -m`` equal those of ``cli.main``."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to the terminal
    argv = PROCESS_REQUESTS[name]
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", module, *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for module in ("cubicbrauer", "cubicbrauer.cli")
    ]
    answers = []
    for proc in procs:
        out, err = proc.communicate(timeout=60)
        answers.append((proc.returncode, out, err))
    expected = _in_process(capsys, argv)
    assert expected[1] or expected[2]
    assert answers == [expected, expected]


def test_run_turns_the_collector_off_and_freezes_the_heap():
    """In a child process, on an answer, a typed error and argparse's SystemExit."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    script = (
        "import contextlib, gc, io, sys\n"
        "from cubicbrauer import cli\n"
        "for argv in (['lines'], ['invariants', '--d', '5', '--n', '6'], ['tables', '--case', '7']):\n"
        "    gc.enable()\n"
        "    gc.unfreeze()\n"
        "    sys.argv = ['cubicbrauer', *argv]\n"
        "    sink = io.StringIO()\n"
        "    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):\n"
        "        try:\n"
        "            code = cli.run()\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "    print(code, gc.isenabled(), gc.get_freeze_count() > 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
        check=True,
    )
    assert proc.stdout == "0 False True\n1 False True\n2 False True\n"


def test_the_console_script_and_both_module_forms_enter_through_run():
    package = Path(cli.__file__).resolve().parent
    pyproject = package.parents[1] / "pyproject.toml"
    scripts = pyproject.read_text(encoding="utf-8").partition("[project.scripts]\n")[2]
    assert scripts.splitlines()[0] == 'cubicbrauer = "cubicbrauer.cli:run"'
    for name in ("cli.py", "__main__.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        blocks = [
            node.body
            for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert [[ast.unparse(stmt) for stmt in body] for body in blocks] == [["sys.exit(run())"]]


def test_only_the_process_entry_touches_the_collector():
    """Library calls and ``cli.main`` leave the collector to whoever owns the process."""
    package = Path(cli.__file__).resolve().parent
    imports, uses = [], []

    def visit(node, module, function):
        if isinstance(node, ast.Import) and any(a.name == "gc" for a in node.names):
            imports.append((module, function))
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            imports.append((module, function))
        if isinstance(node, ast.Name) and node.id == "gc":
            uses.append((module, function))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, None)
    assert imports == [("cli.py", None)]
    assert uses == [("cli.py", "run"), ("cli.py", "run")]
