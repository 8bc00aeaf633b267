"""Tests of the benchmark itself: inputs, oracles, span arithmetic, tallies.

Run with ``python3 -m pytest bench -q`` from the repository root.  None of
them imports the library.
"""

from __future__ import annotations

import json
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def _argvs(requests):
    return [r.argv for r in requests]


def test_same_seed_same_inputs():
    assert _argvs(wl.examples_stream(7, 3)) == _argvs(wl.examples_stream(7, 3))
    one, two = wl.invariants_stream(7, 2), wl.invariants_stream(7, 2)
    assert [_argvs(p) for p in one] == [_argvs(p) for p in two]
    assert wl.tables_cases(7, 6) == wl.tables_cases(7, 6)
    assert _argvs(wl.examples_stream(7, 3)) != _argvs(wl.examples_stream(8, 3))


def test_tables_cases_cycle():
    cases = wl.tables_cases(3, 6)
    assert all(b == a % 3 + 1 for a, b in zip(cases, cases[1:]))


def test_every_block_has_the_same_mix():
    stream = wl.examples_stream(11, 4)
    size = len(wl.EXAMPLE_BLOCK)
    mixes = [sorted((r.expect["kind"], r.expect["variant"]) for r in stream[i:i + size])
             for i in range(0, len(stream), size)]
    assert all(m == mixes[0] for m in mixes)


def test_concurrency_closed_form_matches_determinant():
    cases = 0
    for seed in range(40):
        rng = wl.random.Random(seed)
        cubic, a = wl._concurrent_case(rng, "trivial")
        assert wl.concurrency_determinant(cubic.roots, a) == 0
        for shift in range(1, 8):
            exact = wl.concurrency_determinant(cubic.roots, Fraction(shift)) == 0
            assert exact == wl.concurrent_closed_form(cubic.coeffs, shift)
            cases += 1
    assert cases == 280


def _answer(req: wl.Request) -> wl.Outcome:
    """The answer the oracle expects for a request that should succeed."""
    e = req.expect
    if e["kind"] == "invariants":
        result = {"invariants": wl.group_json(e["group"])}
    elif e["kind"] == "classify":
        result = {"boundary": e["boundary"], "geometric_brauer": e["geometric"],
                  "invariants_over_Q": wl.group_json(e["bound"]), "is_upper_bound": True}
    else:
        result = {
            "polynomial": [str(c) for c in e["coeffs"]],
            "galois_type": {"type": e["variant"], "d": e["cls"]},
            "a": e["a"],
            "rejected_a": [{"a": a, "reason": "x"} for a in e.get("rejected", [])],
            "general_position": {"distinct_roots": True, "degree5_nonzero": True,
                                 "no_triple_sum_zero": True},
            "eckardt": "no",
            "brauer_quotient": wl.group_json(e["brauer"]),
        }
    command = "example" if e["kind"] in ("good", "auto") else e["kind"]
    return wl.Outcome(rc=0, stdout=json.dumps({"command": command, "result": result}))


def _good_example() -> wl.Request:
    stream = wl.examples_stream(5, 1)
    return next(r for r in stream if r.expect["kind"] == "good" and r.expect["variant"] == "c2")


def test_example_oracle_accepts_the_right_answer_and_rejects_a_wrong_one():
    req = _good_example()
    assert wl.check_example(req, _answer(req))[0] == wl.Verdict.OK
    wrong = json.loads(_answer(req).stdout)
    wrong["result"]["brauer_quotient"] = wl.group_json((3,))
    verdict, _ = wl.check_example(req, wl.Outcome(rc=0, stdout=json.dumps(wrong)))
    assert verdict == wl.Verdict.WRONG
    wrong = json.loads(_answer(req).stdout)
    wrong["result"]["galois_type"]["d"] = req.expect["cls"] * 2
    verdict, _ = wl.check_example(req, wl.Outcome(rc=0, stdout=json.dumps(wrong)))
    assert verdict == wl.Verdict.WRONG


def test_example_oracle_rejects_a_verdict_against_the_construction():
    stream = wl.examples_stream(5, 1)
    concurrent = next(r for r in stream if r.expect["kind"] == "concurrent")
    non_concurrent = _good_example()
    # NO on a concurrent input, YES on a non-concurrent one
    assert wl.check_example(concurrent, _answer(non_concurrent))[0] == wl.Verdict.WRONG
    yes = wl.Outcome(rc=1, stdout="", error="EckardtPoint", typed=True)
    assert wl.check_example(non_concurrent, yes)[0] == wl.Verdict.FAILED
    assert wl.check_example(concurrent, yes)[0] == wl.Verdict.OK
    undecided = wl.Outcome(rc=1, stdout="", error="EckardtIndeterminate", typed=True)
    assert wl.check_example(concurrent, undecided)[0] == wl.Verdict.INDETERMINATE


def test_invariants_oracle_rejects_a_wrong_group():
    for req in wl.invariants_stream(2, 1)[0]:
        assert wl.check_invariants(req, _answer(req))[0] == wl.Verdict.OK
        wrong = json.loads(_answer(req).stdout)
        key = "invariants" if req.expect["kind"] == "invariants" else "invariants_over_Q"
        wrong["result"][key] = wl.group_json((5,))
        verdict, _ = wl.check_invariants(req, wl.Outcome(rc=0, stdout=json.dumps(wrong)))
        assert verdict == wl.Verdict.WRONG


def test_twist_oracle_published_values():
    assert wl.expected_twist(-1, 4) == (4,)
    assert wl.expected_twist(-4, 8) == (4,)
    assert wl.expected_twist(-3, 9) == (3,)
    assert wl.expected_twist(-27, 3) == (3,)
    assert wl.expected_twist(2, 8) == (2,) and wl.expected_twist(2, 4) == (2,)
    assert wl.expected_twist(5, 25) == () and wl.expected_twist(-7, 49) == ()
    assert wl.expected_twist(-1, 3) == () and wl.expected_twist(-1, 2) == (2,)
    assert wl.published_bound("s3", -3) == (6,) and wl.published_bound("c2", -1) == (4,)
    assert wl.published_bound("c2", 10000019 * 10000079) == (2,)
    assert wl.mod_kernel_rows(-1, 243) == 2 * 162 and wl.mod_kernel_rows(-3, 9) == 6


def _tables_answer(case: int, pairs) -> wl.Outcome:
    payload = {"command": "tables", "inputs": {"case": case}, "paper_anchor": "x",
               "result": {"case": case, "subgroup_classes_scanned": 246,
                          "pairs": [{"br1": wl.group_json(a), "brx": wl.group_json(b)}
                                    for a, b in sorted(pairs)]}}
    return wl.Outcome(rc=0, stdout=json.dumps(payload, sort_keys=True) + "\n")


def test_tables_oracle():
    req = wl.tables_request(2)
    good = _tables_answer(2, wl.EXPECTED_TABLES[2])
    assert wl.check_tables(req, good, {})[0] == wl.Verdict.OK
    published_only = wl.EXPECTED_TABLES[2] - {((), ())}
    assert wl.check_tables(req, _tables_answer(2, published_only), {})[0] == wl.Verdict.WRONG
    seen = {2: "something else"}
    assert wl.check_tables(req, good, seen)[0] == wl.Verdict.WRONG


def test_self_time_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1, 0),
        S("a", 1.0, 4.0, 0, 0),
        S("b", 2.0, 3.0, 1, 0),
        S("a", 5.0, 9.0, 0, 0),
        S("c", 6.0, 7.5, 3, 0),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 2.5, 1.5]
    totals = tracing.layer_totals(spans)
    assert totals["a"] == {"self_s": 4.5, "calls": 2}
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_failed_frac_counts_an_untyped_exception():
    bench = run.Bench(Path("."), 1)
    req = _good_example()
    untyped = wl.Outcome(rc=1, stdout="", error="ValueError", typed=False)
    escaped = wl.Outcome(rc=None, stdout="", error="ZeroDivisionError", escaped=True)
    for key, outcome in enumerate((_answer(req), untyped, escaped, _answer(req))):
        bench.judge(key, wl.check_example, req, outcome)
    tally = bench.tally()
    assert (tally["attempted"], tally["failed"], tally["failed_frac"]) == (4, 2, 0.5)
    assert tally["correct"]  # no wrong answer, only failures


def test_a_repeated_request_counts_once_with_its_worst_verdict():
    bench = run.Bench(Path("."), 1)
    req = _good_example()
    untyped = wl.Outcome(rc=1, stdout="", error="ValueError", typed=False)
    for _ in range(3):
        bench.judge("good", wl.check_example, req, _answer(req))
    for outcome in (_answer(req), untyped, _answer(req)):
        bench.judge("flaky", wl.check_example, req, outcome)
    tally = bench.tally()
    assert (tally["attempted"], tally["failed"], tally["runs"]) == (2, 1, 6)
    assert tally["verdicts"][wl.Verdict.FAILED] == 1


def test_a_request_must_answer_alike_on_every_run():
    bench = run.Bench(Path("."), 1)
    req = _good_example()
    first = _answer(req)
    bench.judge(0, wl.check_example, req, first)
    reordered = wl.Outcome(rc=0, stdout=json.dumps(json.loads(first.stdout), indent=1))
    assert bench.judge(0, wl.check_example, req, reordered) == wl.Verdict.WRONG
    assert not bench.tally()["correct"]


def test_times_are_scaled_by_the_reference_loops_near_them():
    nominal = speed.NOMINAL_S
    # the machine runs at half speed around t = 10 and at full speed around t = 100
    reference = [(9.5, 2 * nominal), (10.5, 2 * nominal), (99.9, nominal), (100.5, nominal)]
    assert speed.scaled([(10.0, 10.4), (100.0, 100.4)], reference) == pytest.approx([0.2, 0.4])


def test_worker_tells_typed_from_untyped_errors():
    class Typed(Exception):
        pass

    def fake_main(argv):
        try:
            raise (Typed if argv == ["typed"] else ValueError)("boom")
        except (Typed, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    typed = worker.run_request(fake_main, ["typed"], 5.0, Typed)
    untyped = worker.run_request(fake_main, ["other"], 5.0, Typed)
    assert (typed["error"], typed["typed"], typed["message"]) == ("Typed", True, "error: boom")
    assert (untyped["error"], untyped["typed"]) == ("ValueError", False)
    escaped = worker.run_request(lambda argv: 1 // 0, [], 5.0, Typed)
    assert escaped["escaped"] and escaped["error"] == "ZeroDivisionError"


def test_tracer_wraps_every_binding(monkeypatch):
    owner = types.ModuleType("cubicbrauer.brauer")
    user = types.ModuleType("cubicbrauer.cli")

    def twist_invariants(d, n):
        return d * n

    owner.twist_invariants = user.twist_invariants = twist_invariants
    for module in (owner, user):
        monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = tracing.Tracer()
    tracer.install()
    assert user.twist_invariants(-1, 4) == -4 and owner.twist_invariants(3, 9) == 27
    assert [(s.name, s.info) for s in tracer.spans] == [
        ("brauer.twist_invariants", [-1, 4]), ("brauer.twist_invariants", [3, 9])]
    assert "perms.subgroup_classes" in tracer.missing


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == sorted(run.RUNNERS, key=list(
        run.RUNNERS).index)


@pytest.mark.parametrize("seed", range(3))
def test_generated_inputs_satisfy_their_construction(seed):
    for req in wl.examples_stream(seed, 2):
        e = req.expect
        coeffs = tuple(e["coeffs"])
        disc = wl.cubic_discriminant(coeffs)
        assert disc != 0 and coeffs[2] != 0
        assert wl.is_square(disc) == (e["variant"] in ("trivial", "c3"))
        if e["variant"] in ("c2", "s3"):
            assert wl.is_square(disc * e["cls"])
