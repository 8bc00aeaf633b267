"""End-to-end and per-layer benchmark of the cubicbrauer command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload tables|examples|invariants \
        --seed N --seconds S --trace 0|1

Workloads (one closed-loop client, one subprocess at a time):

  tables      cold ``python -m cubicbrauer.cli tables --case N`` processes,
              N cycling 1 -> 2 -> 3; each pays the whole subgroup sweep.
  examples    a stream of ``example`` requests through cli.main in one
              process: all four Galois types, coefficient heights up to
              about 10^6, shifts that break general position and shifts
              that make the three lines concurrent.
  invariants  passes of ``classify`` and ``invariants`` requests through
              cli.main: signed products of distinct primes (some above the
              library's 10^6 trial-division bound) and prime-power moduli
              of 2, 3, 5, 7 up to 256.

Each run draws a fixed set of requests from its seed, sized from
--seconds.  The examples and invariants sets take about --seconds and each
request runs once; more distinct requests make the set's cost vary less
from seed to seed.  The three tables cases run again and again for
--seconds, each at least twice.
Every time is first scaled to a nominal machine speed, which the reference
loop of speed.py, run between requests, measures around each request.
Latencies, throughput, pass times and set-up time come from these costs;
memory is reported as measured.

Every answer is checked against an oracle in workloads.py, and every run of
a request must answer alike.  ``attempted`` counts the distinct requests of
the set and ``failed`` those that failed on any run, so both follow from the
seed and --seconds alone, never from how fast the machine ran.  With --trace 0
the last line of stdout holds the end-to-end metrics; with --trace 1 it
holds per-layer self times and counters from spans the benchmark records
around the library's public functions.  Details go to the lines before it
and to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import IMPORT, ROOT, SPAN_NAMES, Span, layer_totals  # noqa: E402

SETUP_RUNS = 11  # fresh interpreters per run for setup_s, before and after the workload
MIN_RUNS = 2  # every tables case runs at least this often, so pass_s has two passes
REFERENCE_CHUNKS = 100  # reference loops around each cold tables process
SETUP_REFERENCE_CHUNKS = 20  # reference loops around each set-up sample
REQUEST_LIMIT_S = 60.0  # an in-process request gets this long to answer
PROCESS_CPU_LIMIT_S = 150  # a child process is killed past this much CPU
EXAMPLE_BLOCK_SIZE = len(wl.EXAMPLE_BLOCK)
EXAMPLE_BLOCKS_PER_S = 1  # an examples run holds this many blocks per --seconds
INVARIANT_PASS_S = 3  # an invariants run holds one pass per this many --seconds
TRACE_EXAMPLE_BLOCKS = 2  # requests in one traced examples repetition, in blocks

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)
COUNTERS = (
    "perms.subgroup_classes.count",
    "cohomology.h1_lattice.calls",
    "qexamples.a_candidates_tried",
    "qexamples.eckardt.yes",
    "qexamples.eckardt.no",
    "qexamples.eckardt.indeterminate",
    "intlinalg.mod_kernel_rows.computed",
)
PER_LAYER = (
    *((f"{name}.self_s", "s") for name in SPAN_NAMES),
    *((name, "count") for name in COUNTERS),
    ("trace.overhead_s", "s"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run."""


class Bench:
    def __init__(self, root: Path, seconds: int):
        self.root = root
        self.src = root / "src"
        self.out = root / ".bench_out"
        self.seconds = seconds
        self.env = dict(os.environ, PYTHONPATH=str(self.src))
        self.env.pop("PYTHONSTARTUP", None)
        self.verdicts: dict[object, tuple[str, str, list[str]]] = {}
        self.answers: dict[object, tuple] = {}
        self.runs = 0

    # -- processes ------------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> tuple[int, float, float, str, str]:
        """Run a child to completion: (exit code, wall s, peak RSS MB, stdout, stderr)."""
        out_path, err_path = self.out / f"{tag}.out", self.out / f"{tag}.err"

        def limits():
            resource.setrlimit(resource.RLIMIT_CPU, (PROCESS_CPU_LIMIT_S, PROCESS_CPU_LIMIT_S))

        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root, preexec_fn=limits)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_maxrss / 1024,
                out_path.read_text(), err_path.read_text())

    def setup_samples(self, count: int) -> list[float]:
        """Times of fresh interpreters importing the CLI, at the nominal speed."""
        intervals, reference = [], []
        for _ in range(count):
            reference += [speed.chunk() for _ in range(SETUP_REFERENCE_CHUNKS)]
            began = perf_counter()
            rc, wall, _, _, err = self.spawn(
                [sys.executable, "-c", "import cubicbrauer.cli"], "setup")
            if rc != 0:
                raise BenchError(f"import cubicbrauer.cli failed: {err.strip()}")
            intervals.append((began, began + wall))
        reference += [speed.chunk() for _ in range(SETUP_REFERENCE_CHUNKS)]
        return speed.scaled(intervals, reference)

    def worker(self, requests: list[wl.Request], trace: bool, tag: str) -> dict:
        """Run every request once through cli.main in a fresh interpreter."""
        job = {"src": str(self.src), "requests": [r.argv for r in requests],
               "limit_s": REQUEST_LIMIT_S, "trace": trace}
        job_path, result_path = self.out / f"{tag}.job.json", self.out / f"{tag}.result.json"
        job_path.write_text(json.dumps(job))
        result_path.unlink(missing_ok=True)
        rc, wall, rss_mb, _, err = self.spawn(
            [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
             str(job_path), str(result_path)], tag)
        if rc != 0 or not result_path.exists():
            raise BenchError(f"worker exited with {rc}: {err.strip()[-2000:]}")
        result = json.loads(result_path.read_text())
        result.update(wall_s=wall, peak_rss_mb=rss_mb)
        result["outcomes"] = [
            wl.Outcome(rc=r["rc"], stdout=r["stdout"], error=r["error"], typed=r["typed"],
                       escaped=r["escaped"], timed_out=r["timed_out"], message=r["message"])
            for r in result["records"]]
        return result

    def cold_cli(self, req: wl.Request, tag: str) -> tuple[wl.Outcome, float, float]:
        rc, wall, rss_mb, out, err = self.spawn(
            [sys.executable, "-m", "cubicbrauer.cli", *req.argv], tag)
        lines = err.strip().splitlines()
        outcome = wl.Outcome(rc=rc, stdout=out, error=None if rc == 0 else f"exit {rc}",
                             escaped="Traceback" in err, timed_out=rc < 0,
                             message=lines[-1] if lines else "")
        return outcome, wall, rss_mb

    # -- checking -------------------------------------------------------

    def judge(self, key, check, req: wl.Request, outcome: wl.Outcome) -> str:
        """Check one run of the request named ``key``; a request keeps its worst verdict."""
        verdict, why = check(req, outcome)
        if not outcome.timed_out:
            answer = (outcome.rc, outcome.stdout, outcome.error)
            if self.answers.setdefault(key, answer) != answer and verdict in (
                    wl.Verdict.OK, wl.Verdict.INDETERMINATE):
                verdict, why = wl.Verdict.WRONG, "answer differs from an earlier run"
        self.runs += 1
        known = self.verdicts.get(key)
        if known is None or wl.Verdict.SEVERITY.index(verdict) > wl.Verdict.SEVERITY.index(
                known[0]):
            self.verdicts[key] = (verdict, why, req.argv)
        return verdict

    def tally(self) -> dict:
        counts = {v: 0 for v in (wl.Verdict.OK, wl.Verdict.INDETERMINATE,
                                 wl.Verdict.WRONG, wl.Verdict.FAILED)}
        for verdict, _, _ in self.verdicts.values():
            counts[verdict] += 1
        attempted = len(self.verdicts)
        failed = counts[wl.Verdict.WRONG] + counts[wl.Verdict.FAILED]
        return {"attempted": attempted, "failed": failed, "runs": self.runs,
                "correct": counts[wl.Verdict.WRONG] == 0 and attempted > 0,
                "failed_frac": failed / attempted if attempted else 1.0,
                "verdicts": counts,
                "problems": [f"{v}: {why} <- {' '.join(argv)}"
                             for v, why, argv in self.verdicts.values()
                             if v in wl.Verdict.COUNTS_AS_FAILURE]}


# -- statistics ------------------------------------------------------------


def p90(values: list[float]) -> float:
    """The 90th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def cost_metrics(costs_s: list[float], group: int, rss_mb: float,
                 reference: list[tuple[float, float]]) -> tuple[dict, dict]:
    """End-to-end metrics from the cost of each run, in run order.

    ``pass_s`` sums the costs of each complete group of ``group`` consecutive
    runs (a block, a pass, the three tables cases) and takes the median.
    Also returns the run's median reference loop time, for the record.
    """
    ms = [x * 1000 for x in costs_s]
    loop_s = statistics.median(s for _, s in reference)
    passes = [sum(costs_s[i:i + group]) for i in range(0, len(costs_s) - group + 1, group)]
    return {
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": p90(ms),
        "throughput_per_s": len(costs_s) / sum(costs_s),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": rss_mb,
    }, {"reference_loop_ms": (loop_s * 1000, "ms"),
        "time_scale": (speed.NOMINAL_S / loop_s, "x")}


def scaled_costs(records: list[dict], reference: list[tuple[float, float]]) -> list[float]:
    """Each record's time at the nominal speed of speed.py."""
    return speed.scaled([(r["start"], r["end"]) for r in records], reference)


# -- workloads: end to end ---------------------------------------------------


def tables_run(bench: Bench, seed: int) -> tuple[dict, dict]:
    cases = wl.tables_cases(seed, 3)  # the three cases, in a seeded order
    seen: dict[int, str] = {}
    records, rss, reference = [], [], []
    start = perf_counter()
    while len(records) < MIN_RUNS * len(cases) or perf_counter() - start < bench.seconds:
        reference += [speed.chunk() for _ in range(REFERENCE_CHUNKS)]
        index = len(records) % len(cases)
        req = wl.tables_request(cases[index])
        began = perf_counter()
        outcome, wall, rss_mb = bench.cold_cli(req, "tables")
        bench.judge(index, lambda r, o: wl.check_tables(r, o, seen), req, outcome)
        records.append({"start": began, "end": began + wall})
        rss.append(rss_mb)
    reference += [speed.chunk() for _ in range(REFERENCE_CHUNKS)]
    metrics, aliases = cost_metrics(scaled_costs(records, reference), len(cases),
                                    statistics.median(rss), reference)
    aliases.update(tables_s=(metrics["latency_p50_ms"] / 1000, "s"),
                   tables_rss_mb=(metrics["peak_rss_mb"], "MB"))
    return metrics, aliases


def examples_run(bench: Bench, seed: int) -> tuple[dict, dict]:
    stream = wl.examples_stream(seed, max(1, EXAMPLE_BLOCKS_PER_S * bench.seconds))
    result = bench.worker(stream, False, "examples")
    _judge_all(bench, wl.check_example, stream, result)
    metrics, aliases = cost_metrics(_costs(result), EXAMPLE_BLOCK_SIZE,
                                    result["peak_rss_mb"], result["reference"])
    aliases.update(examples_per_s=(metrics["throughput_per_s"], "1/s"),
                   example_p50_ms=(metrics["latency_p50_ms"], "ms"),
                   example_p90_ms=(metrics["latency_p90_ms"], "ms"),
                   peak_rss_mb=(metrics["peak_rss_mb"], "MB"))
    return metrics, aliases


def invariants_run(bench: Bench, seed: int) -> tuple[dict, dict]:
    passes = wl.invariants_stream(seed, max(1, bench.seconds // INVARIANT_PASS_S))
    size = len(passes[0])
    stream = [r for p in passes for r in p]
    result = bench.worker(stream, False, "invariants")
    _judge_all(bench, wl.check_invariants, stream, result)
    metrics, aliases = cost_metrics(_costs(result), size, result["peak_rss_mb"],
                                    result["reference"])
    aliases.update(invariants_s=(metrics["pass_s"], "s"),
                   invariants_p50_ms=(metrics["latency_p50_ms"], "ms"),
                   peak_rss_mb=(metrics["peak_rss_mb"], "MB"))
    return metrics, aliases


def _judge_all(bench: Bench, check, stream: list[wl.Request], result: dict) -> None:
    for index, (req, outcome) in enumerate(zip(stream, result["outcomes"])):
        bench.judge(index, check, req, outcome)


def _costs(result: dict) -> list[float]:
    return scaled_costs(result["records"], result["reference"])


# -- workloads: per layer ---------------------------------------------------


def traced_repetition(workload: str, seed: int) -> tuple[list[wl.Request], object]:
    """The fixed request list one traced repetition runs, and its check."""
    if workload == "tables":
        seen: dict[int, str] = {}
        req = wl.tables_request(wl.tables_cases(seed, 1)[0])
        return [req], lambda r, o: wl.check_tables(r, o, seen)
    if workload == "examples":
        return wl.examples_stream(seed, TRACE_EXAMPLE_BLOCKS), wl.check_example
    return wl.invariants_stream(seed, 1)[0], wl.check_invariants


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    totals = layer_totals(spans)
    out = {f"{name}.self_s": totals.get(name, {}).get("self_s", 0.0) for name in SPAN_NAMES}

    def infos(name):
        return [s.info for s in spans if s.name == name and not s.error]

    out["perms.subgroup_classes.count"] = sum(infos("perms.subgroup_classes"))
    out["cohomology.h1_lattice.calls"] = totals.get("cohomology.h1_lattice", {}).get("calls", 0)
    out["qexamples.a_candidates_tried"] = sum(infos("qexamples.find_admissible_a"))
    verdicts = infos("qexamples.eckardt_concurrent")
    for value in ("yes", "no", "indeterminate"):
        out[f"qexamples.eckardt.{value}"] = verdicts.count(value)
    out["intlinalg.mod_kernel_rows.computed"] = sum(
        wl.mod_kernel_rows(d, n) for d, n in infos("brauer.twist_invariants"))
    return out


def traced_run(bench: Bench, workload: str, seed: int) -> tuple[dict, dict]:
    requests, check = traced_repetition(workload, seed)
    plain, traced, layers = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < bench.seconds:
        # alternate which side goes first, so drift does not favour one
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            result = bench.worker(requests, trace, f"{workload}-trace{int(trace)}")
            _judge_all(bench, check, requests, result)
            (traced if trace else plain).append(result["loop_s"])
            if trace:
                spans = [Span.from_list(row) for row in result["spans"]]
                layers.append(layer_metrics(spans))
                last_spans, missing = spans, result["missing_spans"]
    metrics = {name: statistics.median(rep[name] for rep in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    totals = layer_totals(last_spans)
    roots = sum(s.end - s.start for s in last_spans if s.name == ROOT)
    named = sum(v["self_s"] for k, v in totals.items() if k not in (ROOT, IMPORT))
    details = {
        "repetitions": len(layers),
        "untraced_loop_s": statistics.median(plain),
        "traced_loop_s": statistics.median(traced),
        "requests_span_s": roots,
        "named_layers_self_s": named,
        "named_layers_share": named / roots if roots else 0.0,
        "missing_spans": missing,
        "layers": {k: v for k, v in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])},
    }
    return metrics, details


# -- driver -----------------------------------------------------------------

RUNNERS = {"tables": tables_run, "examples": examples_run, "invariants": invariants_run}


def context(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "commit": commit, "seed": seed,
            "workload": workload, "seconds": seconds, "trace": trace}


def run_workload(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload, print its details and return the result object."""
    bench = Bench(root, seconds)
    ctx = context(root, workload, seed, seconds, trace)
    print("context: " + json.dumps(ctx, sort_keys=True))
    if trace:
        values, details = traced_run(bench, workload, seed)
        units = dict(PER_LAYER)
    else:
        # set-up is sampled on both sides of the workload, so a slow
        # moment at either end does not decide its median
        setup = bench.setup_samples(SETUP_RUNS // 2 + 1)
        values, aliases = RUNNERS[workload](bench, seed)
        setup += bench.setup_samples(SETUP_RUNS // 2)
        values["setup_s"] = statistics.median(setup)
        details = {"named": {k: {"value": v, "unit": u} for k, (v, u) in aliases.items()}}
        units = dict(END_TO_END)

    tally = bench.tally()
    details.update(tally)
    for name, entry in details.get("named", {}).items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if trace:
        for name, layer in details["layers"].items():
            print(f"span {name:34s} self {layer['self_s']:9.4f} s  "
                  f"calls {layer['calls']:6d}")
        print(f"named layers cover {details['named_layers_share']:.1%} of the traced "
              f"requests' {details['requests_span_s']:.3f} s; "
              f"tracing overhead {values['trace.overhead_s']:+.3f} s")
    print(f"failed_frac = {tally['failed_frac']:.4f} ({tally['failed']}/{tally['attempted']} "
          f"distinct requests, {tally['runs']} runs); "
          f"verdicts {json.dumps(tally['verdicts'], sort_keys=True)}")
    for problem in tally["problems"][:10]:
        print("  " + problem[:300])

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {"context": ctx, "metrics": metrics, "details": details}
    tag = f"result-{workload}-seed{seed}-trace{trace}.json"
    (bench.out / tag).write_text(json.dumps(record, indent=1, sort_keys=True))
    return {"correct": tally["correct"], "attempted": tally["attempted"],
            "failed": tally["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*RUNNERS, "all"], required=True,
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "cubicbrauer" / "cli.py").is_file():
        print(f"error: no cubicbrauer sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    (root / ".bench_out").mkdir(exist_ok=True)
    compileall.compile_dir(str(root / "src"), quiet=1)

    names = list(RUNNERS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(root, name, args.seed, args.seconds, args.trace)
    except (BenchError, wl.OracleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"{name}: {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
