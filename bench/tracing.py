"""Spans recorded by the benchmark around the library's public calls.

A :class:`Tracer` wraps public functions and methods wherever the package
binds them (``from .perms import subgroup_classes`` makes a second binding
in ``brauer``), so calls between the library's own modules are seen too.
Spans stay in memory as (name, start, end, parent, request, info) and are
written out once, at the end of the run.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter

# Span name -> (module, attribute path).  The layer is the module name.
TARGETS = {
    "cubiclattice.weyl_group": ("cubicbrauer.cubiclattice", "weyl_group"),
    "perms.setwise_stabilizer": ("cubicbrauer.perms", "setwise_stabilizer"),
    "perms.elements": ("cubicbrauer.perms", "PermGroup.elements"),
    "perms.subgroup_classes": ("cubicbrauer.perms", "subgroup_classes"),
    "cubiclattice.pic_module": ("cubicbrauer.cubiclattice", "pic_module"),
    "cubiclattice.quotient_by_trio": ("cubicbrauer.cubiclattice", "quotient_by_trio"),
    "cohomology.h1_lattice": ("cubicbrauer.cohomology", "h1_lattice"),
    "brauer.algebraic_tables": ("cubicbrauer.brauer", "algebraic_tables"),
    "qexamples.find_admissible_a": ("cubicbrauer.qexamples", "find_admissible_a"),
    "qexamples.cubic_galois_type": ("cubicbrauer.qexamples", "cubic_galois_type"),
    "qexamples.general_position": ("cubicbrauer.qexamples", "general_position"),
    "qexamples.eckardt_concurrent": ("cubicbrauer.qexamples", "eckardt_concurrent"),
    "qexamples.example_brauer": ("cubicbrauer.qexamples", "example_brauer"),
    "brauer.transcendental_bound": ("cubicbrauer.brauer", "transcendental_bound"),
    "brauer.from_json": ("cubicbrauer.brauer", "BoundaryDescriptor.from_json"),
    "brauer.geometric_brauer": ("cubicbrauer.brauer", "geometric_brauer"),
    "brauer.twist_invariants": ("cubicbrauer.brauer", "twist_invariants"),
}
ROOT = "cli.main"
IMPORT = "cli.import"
SPAN_NAMES = (IMPORT, ROOT, *TARGETS)


def _info(name: str, args: tuple, result) -> object:
    """The little a span keeps of a call: what the counters need."""
    if name == "perms.subgroup_classes":
        return len(result)
    if name == "qexamples.eckardt_concurrent":
        return result.value
    if name == "qexamples.find_admissible_a":
        return len(result.rejected) + 1
    if name == "brauer.twist_invariants":
        return [int(args[0]), int(args[1])]
    return None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    request: int  # request index, -1 outside requests
    info: object = None
    error: bool = False

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.request, self.info, self.error]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.request))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[index].error = True
                tracer._close(index)
                raise
            tracer._close(index)
            tracer.spans[index].info = _info(name, args, result)
            return result

        return traced

    def install(self, package: str = "cubicbrauer") -> None:
        """Wrap every target in every loaded module of the package."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, (module_name, path) in TARGETS.items():
            module = sys.modules.get(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                continue
            if owner_name:
                setattr(owner, attr, self.wrap(name, raw))
                continue
            wrapped = self.wrap(name, raw)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo = max(spans[c].start, cursor)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.end - s.start - covered)
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time and call count per span name."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return totals
