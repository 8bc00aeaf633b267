"""Run a list of CLI requests through ``cubicbrauer.cli.main`` in one process.

Usage: python3 bench/worker.py JOB.json RESULT.json

JOB holds ``src`` (the library's source directory), ``requests`` (argv
lists), ``limit_s`` (time limit per request) and ``trace``.  One
closed-loop client runs every request once, each starting when the
previous one has ended.  Before each request the reference loop of
speed.py runs once, outside the request's time.  RESULT gets those loop
readings and, per request, the exit code, stdout, the class of any exception
and the start and end times; with ``trace`` also every span.
"""

from __future__ import annotations

import io
import json
import resource
import signal
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
from tracing import IMPORT, ROOT, Tracer  # noqa: E402


class RequestTimeout(Exception):
    """A request ran past its time limit (not caught by cli.main)."""


class ErrorSink(io.StringIO):
    """stderr that remembers the exception being handled when it is written.

    cli.main prints "error: ..." inside its ``except`` clause, so the
    exception's class is still available from ``sys.exc_info()`` then.
    """

    def __init__(self) -> None:
        super().__init__()
        self.exc: BaseException | None = None

    def write(self, text: str) -> int:
        current = sys.exc_info()[1]
        if current is not None:
            self.exc = current
        return super().write(text)


def _on_alarm(signum, frame):
    raise RequestTimeout()


def run_request(main, argv: list[str], limit_s: float, base_error: type) -> dict:
    out, err = io.StringIO(), ErrorSink()
    record = {"rc": None, "error": None, "typed": False, "escaped": False, "timed_out": False}
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            record["rc"] = main(argv)
    except RequestTimeout:
        record["timed_out"] = True
    except BaseException as exc:  # a traceback the CLI let through
        if isinstance(exc, KeyboardInterrupt):
            raise
        record.update(escaped=True, error=type(exc).__name__,
                      detail="".join(traceback.format_exception_only(type(exc), exc)).strip())
    finally:
        end = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
    if err.exc is not None and not record["escaped"]:
        record["error"] = type(err.exc).__name__
        record["typed"] = isinstance(err.exc, base_error)
    lines = err.getvalue().strip().splitlines()
    record.update(stdout=out.getvalue(), message=lines[-1] if lines else "", start=start, end=end)
    return record


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if job["trace"] else None
    t0 = perf_counter()
    if tracer:
        with tracer.span(IMPORT):
            import cubicbrauer.cli as cli
        tracer.install()
    else:
        import cubicbrauer.cli as cli
    from cubicbrauer.errors import CubicBrauerError

    import_s = perf_counter() - t0
    records, reference = [], []
    loop_start = perf_counter()
    for i, argv in enumerate(job["requests"]):
        reference.append(speed.chunk())
        if tracer:
            tracer.request = i
            with tracer.span(ROOT):
                records.append(run_request(cli.main, argv, job["limit_s"], CubicBrauerError))
        else:
            records.append(run_request(cli.main, argv, job["limit_s"], CubicBrauerError))
    loop_s = perf_counter() - loop_start
    result = {
        "import_s": import_s,
        "loop_s": loop_s,
        "records": records,
        "reference": reference,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [s.to_list() for s in tracer.spans] if tracer else [],
        "missing_spans": tracer.missing if tracer else [],
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
