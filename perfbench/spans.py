"""Spans recorded by wrapping library functions from outside.

Each target is a module or class attribute that the pipeline looks up at
call time, such as ``sparsenerve.nerve.cover_matrix``.  ``traced`` swaps
each one for a wrapper that records a span (name, start, end, parent,
operation id) and restores every original in ``finally``.  A target that
does not exist is skipped, so its spans are absent; ``traced`` yields the
span names it did patch, so that callers can tell "absent" from "zero".
"""

from __future__ import annotations

import importlib
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

# Layers whose self times partition a traced operation.
LAYERS = ("model", "cover", "truncation", "sparsify", "nerve", "miniball", "persistence")


def _cells(args, kwargs, result):
    rows, cols = getattr(args[0], "values", args[0]).shape
    return {"cells": rows * rows * cols}


def _count(args, kwargs, result):
    return {"count": len(result)}


def _columns(args, kwargs, result):
    return {
        "columns": len(args[0]),
        "points": len(result),
        "zero_length": result.n_zero_length,
    }


# (layer, owner, attribute, counter taking (args, kwargs, result)).
TARGETS = (
    ("ingest", "sparsenerve.ingest", "sample_clifford_torus", None),
    ("ingest", "sparsenerve.ingest", "distance_matrix", None),
    ("ingest", "sparsenerve.ingest", "generate_graph", None),
    ("ingest", "sparsenerve.ingest", "shortest_path_matrix", None),
    ("model", "sparsenerve.model:DowkerDissimilarity", "__post_init__", None),
    ("model", "sparsenerve.model:ParentFunction", "__post_init__", None),
    ("model", "sparsenerve.model:RestrictionTimes", "__post_init__", None),
    ("model", "sparsenerve.model:TranslationFunction", "validate_on", None),
    ("cover", "sparsenerve.nerve", "cover_matrix", _cells),
    ("cover", "sparsenerve.truncation", "cover_matrix", _cells),
    ("truncation", "sparsenerve.nerve", "truncation_result", None),
    ("truncation", "sparsenerve.truncation", "farthest_point_sampling", None),
    ("truncation", "sparsenerve.truncation", "truncation_tree", None),
    ("sparsify", "sparsenerve.nerve", "restriction_times", None),
    ("nerve", "sparsenerve.nerve", "sparse_dowker_nerve", None),
    ("nerve", "sparsenerve.nerve", "ambient_cech_nerve", None),
    ("nerve", "sparsenerve.nerve", "sparse_nerve", None),
    ("nerve", "sparsenerve.nerve", "slope_points", None),
    ("nerve", "sparsenerve.nerve", "maximal_faces", _count),
    ("nerve", "sparsenerve.nerve", "expand_skeleton", _count),
    ("nerve", "sparsenerve.nerve", "filtration_values", None),
    ("nerve", "sparsenerve.nerve", "make_filtered_complex", None),
    ("miniball", "sparsenerve.nerve", "miniball", None),
    ("persistence", "sparsenerve.persistence", "compute_persistence", _columns),
    ("persistence", "sparsenerve.nerve:FilteredComplex", "check", None),
    ("persistence", "sparsenerve.persistence", "_boundary_columns", None),
    ("persistence", "sparsenerve.persistence", "_reduce_twist", None),
    # The benchmark's own output check: outside every operation's root span.
    ("check", "sparsenerve.persistence", "diagram_interleaving_check", None),
)

ROOT = "bench.op"
PEAK_SPANS = frozenset({
    "cover.cover_matrix",
    "nerve.maximal_faces",
    "nerve.expand_skeleton",
    "persistence.compute_persistence",
})


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: str = ""
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory.

    With ``memory`` set, each span named in ``PEAK_SPANS`` runs under
    tracemalloc and records the peak of the memory it allocates.  These
    spans never nest, and tracemalloc's cost stays out of every other span.
    """

    def __init__(self):
        self.spans = []
        self.op = ""
        self.memory = False
        self._stack = []

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self._stack.append(index)
        if self.memory and name in PEAK_SPANS and not tracemalloc.is_tracing():
            tracemalloc.start()
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        return index

    def exit(self, index: int):
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory and span.name in PEAK_SPANS and tracemalloc.is_tracing():
            span.peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    @contextmanager
    def span(self, name: str):
        index = self.enter(name)
        try:
            yield self.spans[index]
        finally:
            self.exit(index)

    def wrap(self, name: str, fn, counter):
        def wrapper(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if counter is not None:
                try:
                    self.spans[index].counts = counter(args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed signature leaves the counts absent
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


@contextmanager
def traced(tracer: Tracer, targets=None):
    """Wrap every existing target for the duration of the block; yield the
    set of span names that were patched."""
    patched = []
    names = set()
    try:
        for layer, owner_path, attr, counter in TARGETS if targets is None else targets:
            owner = _owner(owner_path)
            if owner is None or attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(f"{layer}.{attr}", original, counter))
            patched.append((owner, attr, original))
            names.add(f"{layer}.{attr}")
        yield names
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Each span's duration minus the time its direct children cover."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


def per_op(spans: list, ops: list) -> list:
    """Totals per operation: per-span-name time, calls, counts, peaks; per-layer self time."""
    selfs = self_times(spans)
    totals = {op: {} for op in ops}
    for span, own in zip(spans, selfs):
        t = totals.get(span.op)
        if t is None:
            continue
        for key, value in (
            (f"{span.name}:s", span.duration),
            (f"{span.name}:calls", 1),
            (f"{span.layer}:self_s", own),
            *((f"{span.name}:{k}", v) for k, v in span.counts.items()),
        ):
            t[key] = t.get(key, 0) + value
        peak_key = f"{span.name}:peak"
        t[peak_key] = max(t.get(peak_key, 0), span.peak_bytes)
    return [totals[op] for op in ops]


def median_of(rows: list, key: str) -> float:
    return statistics.median(row.get(key, 0) for row in rows) if rows else 0.0
