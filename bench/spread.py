"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a checkout:

    python3 bench/spread.py --workload examples --seeds 1-10 [--seconds 25]
        [--trace 0] [--baseline bench/baseline.json]

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  With --baseline the medians are merged
into that file under the workload's name, with the run context.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']}", flush=True)

    summary = {}
    for name, entry in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "unit": entry["unit"], "spread": spread}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread < bound / 3 else "  WIDE")
        print(f"{name:40s} {median:14.6g} {entry['unit']:6s} spread {spread:7.2%}"
              + (f"  bound {bound:.0%}{flag}" if bound is not None else ""))

    if args.baseline:
        baseline = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        context = json.loads(Path(".bench_out", f"result-{args.workload}-seed{args.seeds[-1]}"
                                  f"-trace{args.trace}.json").read_text())["context"]
        context.pop("seed")
        baseline[f"{args.workload}/trace{args.trace}"] = {
            "context": {**context, "seeds": args.seeds},
            "metrics": summary,
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
        }
        args.baseline.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
