"""In-memory spans around calls into the latentsurv layers.

The wrappers live here, in the benchmark, so nothing under ``src/`` changes:
``instrument`` replaces a layer function in every module namespace that holds
it (``fit_ecph`` is imported by name into ``joint`` and ``evaluate``), wraps
the ``Dataset`` methods on the class and the CLI command callbacks, and puts
every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import logging
import time
from collections import Counter, defaultdict

# The layers are the package's modules; ``estimators`` is a thin wrapper and
# is not measured on its own.
LAYERS = ("data", "simulate", "serialize", "factor", "hazard", "joint", "evaluate", "cli")
PACKAGE = "latentsurv"
# Private functions that mark a layer boundary worth counting. A name that a
# later version of the package no longer has is skipped.
PRIVATE_BOUNDARIES = {"hazard": ("_lasso_cd",)}
DATASET_METHODS = ("times", "events", "subset")


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "attrs")

    def __init__(self, name, start, parent, run_id):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; ``parent`` is the index of the enclosing span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, annotate=None):
        """``annotate(arguments, result)`` gets the call's bound arguments by
        parameter name and returns the span's attributes."""
        sig = inspect.signature(fn) if annotate is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    try:
                        rec.attrs = annotate(bound.arguments, result)
                    except (KeyError, AttributeError, TypeError, IndexError):
                        rec.attrs = None  # a later signature; the count still stands
                return result

        return wrapper

    def write(self, path):
        """Write every span as one JSON line (gzip)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run_id, "attrs": s.attrs},
                                    default=float) + "\n")


class NullTracer:
    """Stand-in for untraced runs: the same ``span`` call, recording nothing."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield None


def _layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _targets():
    """(span name, owner object, attribute) for every function to wrap."""
    modules = _layer_modules()
    out = []
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr in PRIVATE_BOUNDARIES.get(layer, ())):
                out.append((f"{layer}.{attr}", obj))
    dataset_cls = modules["data"].Dataset
    methods = [(f"data.{m}", dataset_cls, m) for m in DATASET_METHODS if hasattr(dataset_cls, m)]
    commands = [(f"cli.{name}", cmd, "callback")
                for name, cmd in getattr(modules["cli"].main, "commands", {}).items()]
    return modules, out, methods + commands


@contextlib.contextmanager
def instrument(tracer: Tracer, annotators: dict | None = None):
    """Wrap the public functions of every layer for the duration of the block."""
    annotators = annotators or {}
    modules, functions, attributes = _targets()
    namespaces = [importlib.import_module(PACKAGE), *modules.values()]
    saved = []
    try:
        for name, fn in functions:
            wrapped = tracer.wrap(fn, name, annotators.get(name))
            for ns in namespaces:
                for attr, obj in list(vars(ns).items()):
                    if obj is fn:
                        saved.append((ns, attr, fn))
                        setattr(ns, attr, wrapped)
        for name, owner, attr in attributes:
            fn = getattr(owner, attr)
            saved.append((owner, attr, fn))
            setattr(owner, attr, tracer.wrap(fn, name, annotators.get(name)))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans
# ---------------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda k: spans[k].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named in ``names``,
    so that nested calls are not counted twice."""
    names = set(names)
    out = []
    for i, s in enumerate(spans):
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            out.append(i)
    return out


def percentile_summary(durations) -> dict:
    """Per-call p50, plus the highest of p90/p99/p99.9 that leaves at least ten
    calls beyond it, with the call count."""
    n = len(durations)
    out = {"calls": n}
    if n == 0:
        return out
    ordered = sorted(durations)
    out["p50_s"] = ordered[(n + 1) // 2 - 1]
    for per_mille, label in ((999, "p99.9_s"), (990, "p99_s"), (900, "p90_s")):
        rank = -(-per_mille * n // 1000)  # ceil, in integers
        if n - rank >= 10:
            out[label] = ordered[rank - 1]
            break
    return out


def summarize(spans) -> dict:
    """Calls, total time (outermost spans only), self time and percentiles per span name."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)
    out = {}
    for name, idx in sorted(by_name.items()):
        top = outermost(spans, [name])
        out[name] = {
            "s": sum(spans[i].duration for i in top),
            "self_s": sum(selfs[i] for i in idx),
            **percentile_summary([spans[i].duration for i in idx]),
        }
    return out


class WarningCounter(logging.Handler):
    """Counts WARNING-or-worse records per latentsurv module, keeping messages."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.counts: Counter = Counter()
        self.messages: Counter = Counter()

    def emit(self, record):
        layer = record.name.rsplit(".", 1)[-1]
        self.counts[layer] += 1
        self.messages[(layer, record.getMessage())] += 1

    def matching(self, layer: str, text: str) -> int:
        return sum(n for (lay, msg), n in self.messages.items() if lay == layer and text in msg)

    @contextlib.contextmanager
    def attached(self):
        logger = logging.getLogger(PACKAGE)
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
