"""Spans around calls into the package's public functions, kept in memory.

``Tracer.installed()`` rebinds every public function of each layer module,
and every public classmethod of its public classes, at each place a caller
looks it up: the defining module, every package module that imported the
name, and the class attribute.  Nested calls (``read_joint_json`` calling
``make_joint`` through ``stochorder.io``) therefore get spans of their own.
The package's source is never edited; leaving the block restores the
original bindings.

A span is (id, parent id, op id, name, start, end).  Counters are taken
after each op from the arguments and results the wrappers kept, so their
cost falls outside every span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

LAYERS = ("io", "distributions", "precedence", "partial_orders", "estimators", "cli")
#: Result recorded for a call that raised.
RAISED = object()


class Span(NamedTuple):
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float


def _layer_functions(package) -> dict:
    """Original function -> span name, for each layer's public functions."""
    names = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                names[obj] = f"{layer}.{attr}"
    return names


def _layer_classmethods(package) -> list:
    """(class, attribute, span name) for each public classmethod of a public class."""
    found = []
    for layer in LAYERS:
        mod = sys.modules[f"{package.__name__}.{layer}"]
        for cname, cls in vars(mod).items():
            if cname.startswith("_") or not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                continue
            for attr, member in vars(cls).items():
                if not attr.startswith("_") and isinstance(member, classmethod):
                    found.append((cls, attr, f"{layer}.{cname}.{attr}"))
    return found


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.calls: list[tuple] = []  # (span name, args, kwargs, result) since last cleared
        self.op_id = -1
        self.peak_mb: dict[str, float] = {}
        self.measure_peak: set[str] = set()
        self._stack: list[int | None] = [None]
        self._ids = itertools.count()
        self._functions = _layer_functions(package)
        self._classmethods = _layer_classmethods(package)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1]
            sid = next(self._ids)
            self._stack.append(sid)
            peak = name in self.measure_peak
            if peak:
                tracemalloc.start()
            result = RAISED
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                if peak:
                    self.peak_mb[name] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
                self.spans.append(Span(sid, parent, self.op_id, name, start, end))
                self.calls.append((name, args, kwargs, result))

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced name for the duration of the block."""
        prefix = self.package.__name__
        modules = [m for n, m in sys.modules.items() if n == prefix or n.startswith(prefix + ".")]
        wrappers = {fn: self._wrap(name, fn) for fn, name in self._functions.items()}
        undo = []
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        for cls, attr, name in self._classmethods:
            original = vars(cls)[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._wrap(name, original.__func__)))
        try:
            yield
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Record one op as a root span named ``op``; layer spans become its children."""
        self.op_id = op_id
        self._stack = [None]
        with self.installed():
            sid = next(self._ids)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, None, op_id, "op", start, end))

    def discard(self, op_id: int) -> None:
        """Forget the spans of one op."""
        self.spans = [s for s in self.spans if s.op != op_id]

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": list(Span._fields), "spans": [list(s) for s in self.spans]}, fh)
            fh.write("\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover (children never overlap)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start) - child_time[s.id] for s in spans}


def per_op_layer_times(spans: list[Span]) -> dict[int, dict[str, tuple[float, float]]]:
    """op id -> span name -> (total time, total self time), summed over that op's calls."""
    own = self_times(spans)
    out: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0]))
    for s in spans:
        entry = out[s.op][s.name]
        entry[0] += s.end - s.start
        entry[1] += own[s.id]
    return {op: {k: tuple(v) for k, v in names.items()} for op, names in out.items()}


def top_level_share(spans: list[Span]) -> dict[int, float]:
    """op id -> (time covered by the op's direct child spans) / (op span time)."""
    roots = {s.id: s for s in spans if s.name == "op"}
    covered = defaultdict(float)
    for s in spans:
        if s.parent in roots:
            covered[s.parent] += s.end - s.start
    return {r.op: covered[r.id] / (r.end - r.start) for r in roots.values()}


def counters(calls: list[tuple], bootstrap_cutoff: int) -> dict[str, float]:
    """Counters taken at the layer boundaries from the kept arguments and results.

    ``estimators.resampled_rows`` counts B*n resampled rows on the index
    path and B*distinct weights on the multinomial path.
    """
    c: dict[str, float] = defaultdict(float)
    for name, args, kwargs, result in calls:
        if result is RAISED:
            continue
        if name in ("io.read_joint_json", "io.read_sample_csv"):
            c["io.bytes_read"] += os.path.getsize(args[0])
        if name == "io.read_sample_csv":
            c["io.read_sample_csv.rows"] += result.n
        if name == "io.write_sample_csv":
            c["io.bytes_written"] += os.path.getsize(args[0])
        if name == "distributions.make_joint":
            raw = list(args[0])
            zero = sum(1 for atom in raw if float(atom[2]) == 0.0)
            c["distributions.atoms_in"] += len(raw)
            c["distributions.atoms_out"] += len(result)
            c["distributions.zero_mass_dropped"] += zero
            c["distributions.duplicates_merged"] += len(raw) - zero - len(result)
        if name == "estimators.estimate_orders":
            sample = args[0] if args else kwargs["sample"]
            bootstrap = kwargs.get("bootstrap", args[2] if len(args) > 2 else 1000)
            distinct = np.unique(sample.x + 1j * sample.y).size
            c["estimators.distinct_pairs"] += distinct
            if distinct > bootstrap_cutoff:
                c["estimators.bootstrap_path.index"] += 1
                c["estimators.resampled_rows"] += bootstrap * sample.n
            else:
                c["estimators.bootstrap_path.multinomial"] += 1
                c["estimators.resampled_rows"] += bootstrap * distinct
    return c
