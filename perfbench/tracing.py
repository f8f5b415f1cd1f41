"""Traced run: in-memory spans around the library's layers.

Wrappers replace each function named in ``layers.json`` in every
``minimax_seq`` module namespace that holds it, because several modules
bind functions by name (``bounds`` binds ``optimal_truncation``, ``rates``
binds ``minimax_sandwich``) while ``cli`` looks them up as module
attributes.  A span records its name, interval, parent span and the op it
belongs to.  The current span lives in a context variable; thread pools
created inside the library are swapped for one that runs each task in a
copy of the submitting context, so spans on pool threads keep their parent.
A layer does not nest inside itself: a call made while a span of the same
name is current (recursion, or ``ensure_usable`` calling
``validate_problem``) is passed through unrecorded.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

TABLE = json.loads(Path(__file__).with_name("layers.json").read_text(encoding="utf-8"))

_current: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None", op) -> None:
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.info = None


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitting context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


# what a span records besides its interval, from (bound arguments, result)
_INFO = {
    "truncation.optimal": lambda args, result: result[0] + 1,
    "rates.testing": lambda args, result: result[0] + 1,
    "rates.sweep": lambda args, result: len(result),
    "bounds.sandwich": lambda args, result: args["problem"].n,
    "simulate.mc": lambda args, result: result.replications,
    "bounds.certify": lambda args, result: (args["count"], args["solution"].problem.n),
    "operators.load": lambda args, result: os.path.getsize(args["path"]),
    "reports.emit": lambda args, result: len(result),
}


class Tracer:
    """Installs the layer wrappers into a loaded ``minimax_seq`` package."""

    def __init__(self, package: str = "minimax_seq") -> None:
        self.package = package
        self.spans: list = []
        self.counts: Counter = Counter()
        self.active = False
        self.op = None
        self._lock = threading.Lock()
        self._undo: list = []

    def _modules(self) -> list:
        return [m for name, m in list(sys.modules.items())
                if name == self.package or name.startswith(self.package + ".")]

    def _replace(self, modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        targets = []
        for kind, make in (("spans", self._span_wrapper), ("counters", self._counter)):
            for name, entry in TABLE[kind].items():
                for qualified in entry["wraps"]:
                    module_name, attr = qualified.rsplit(".", 1)
                    module = importlib.import_module(f"{self.package}.{module_name}")
                    targets.append((name, make, getattr(module, attr, None), qualified))
        modules = self._modules()
        for name, make, fn, qualified in targets:
            if fn is None:
                raise RuntimeError(f"trace: {self.package}.{qualified} not found")
            self._replace(modules, fn, make(name, fn))
        self._replace(modules, concurrent.futures.ThreadPoolExecutor, _ContextPool)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    def reset(self) -> None:
        self.spans, self.counts = [], Counter()

    def _span_wrapper(self, name: str, fn):
        info = _INFO.get(name)
        signature = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _current.get()
            if not self.active or (parent is not None and parent.name == name):
                return fn(*args, **kwargs)
            span = Span(name, parent, self.op)
            token = _current.set(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                _current.reset(token)
                self.spans.append(span)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                with self._lock:
                    self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def calls(self) -> Counter:
        out = Counter(span.name for span in self.spans)
        out.update(self.counts)
        return out

    def silent_layers(self, workload: str) -> list:
        """Wrapped layers assigned to ``workload`` that recorded no call."""
        calls = self.calls()
        return [name for kind in ("spans", "counters")
                for name, entry in TABLE[kind].items()
                if workload in entry["fires_on"] and calls[name] == 0]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span, children) -> float:
    """Span duration minus the part of it that its child spans cover."""
    inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return (span.end - span.start) - union_length([iv for iv in inside if iv[1] > iv[0]])


def _ancestor(span, name: str):
    span = span.parent
    while span is not None and span.name != name:
        span = span.parent
    return span


def layer_metrics(spans, counts) -> dict:
    """Per-layer metrics of one traced pass, named <layer>.<function>.<stat>."""
    by_name: dict = defaultdict(list)
    children: dict = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[id(span.parent)].append(span)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return union_length([(s.start, s.end) for s in by_name[name]])

    def own(name):
        return sum(self_time(s, children[id(s)]) for s in by_name[name])

    def total(name):
        return sum(s.info or 0 for s in by_name[name])

    sweep_sizes: dict = defaultdict(set)
    points = 0
    for point in by_name["bounds.sandwich"]:
        sweep = _ancestor(point, "rates.sweep")
        if sweep is not None:
            points += 1
            sweep_sizes[id(sweep)].add(point.info)
    reps = total("simulate.mc")
    directions = sum(s.info[0] for s in by_name["bounds.certify"] if s.info)
    coords = sum(s.info[0] * s.info[1] for s in by_name["bounds.certify"] if s.info)
    return {
        "truncation.optimal.calls": calls("truncation.optimal"),
        "truncation.optimal.busy_s": busy("truncation.optimal"),
        "truncation.optimal.levels": total("truncation.optimal"),
        "rates.testing.calls": calls("rates.testing"),
        "rates.testing.busy_s": busy("rates.testing"),
        "rates.testing.levels": total("rates.testing"),
        "rates.deterministic.busy_s": busy("rates.deterministic"),
        "rates.sweep.calls": calls("rates.sweep"),
        "rates.sweep.self_s": own("rates.sweep"),
        "rates.sweep.points_evaluated": points,
        "rates.sweep.doublings": sum(len(s) - 1 for s in sweep_sizes.values()),
        "rates.sweep.point_yield": total("rates.sweep") / points if points else 0.0,
        "bounds.waterfill.calls": calls("bounds.waterfill"),
        "bounds.waterfill.busy_s": busy("bounds.waterfill"),
        "problem.build.busy_s": busy("problem.build"),
        "problem.validate.calls": calls("problem.validate"),
        "problem.validate.busy_s": busy("problem.validate"),
        "simulate.mc.calls": calls("simulate.mc"),
        "simulate.mc.busy_s": busy("simulate.mc"),
        "simulate.mc.reps": reps,
        "simulate.mc.us_per_rep": busy("simulate.mc") * 1e6 / reps if reps else 0.0,
        "simulate.sample.calls": counts["simulate.sample"],
        "bounds.certify.calls": calls("bounds.certify"),
        "bounds.certify.busy_s": busy("bounds.certify"),
        "bounds.certify.directions": directions,
        "bounds.certify.ns_per_coord": busy("bounds.certify") * 1e9 / coords if coords else 0.0,
        "operators.decompose.calls": calls("operators.decompose"),
        "operators.decompose.busy_s": busy("operators.decompose"),
        "operators.reconstruct.busy_s": busy("operators.reconstruct"),
        "operators.load.busy_s": busy("operators.load"),
        "operators.load.bytes": total("operators.load"),
        "problem.load.calls": calls("problem.load"),
        "problem.load.busy_s": busy("problem.load"),
        "reports.emit.calls": calls("reports.emit"),
        "reports.emit.busy_s": busy("reports.emit"),
        "reports.emit.bytes": total("reports.emit"),
        "reports.csv.busy_s": busy("reports.csv"),
        "cli.run.calls": calls("cli.run"),
        "cli.run.self_s": own("cli.run"),
    }
