"""Time-to-diagram benchmark of the sparsenerve pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload torus_fine --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One operation turns one input held in memory into persistence diagrams.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from spans recorded by wrapping library
functions from outside (see ``spans.py``).  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The library is imported from ``src/`` next to this directory;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# setup_s is the median import time plus the median input build time.  The
# import samples are spread evenly over the timed operations, so that their
# median covers the same stretch of the host's drifting speed as diagram_s,
# not the few seconds before it.
IMPORT_REPEATS = 11
BUILD_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sparsenerve; "
    "print(time.perf_counter() - t)"
)
MAX_PROBLEMS_SHOWN = 5


class LibraryMissing(RuntimeError):
    """The checkout has no importable ``src/sparsenerve``."""


def load_library():
    """Pin BLAS pools to one thread, then import sparsenerve from ``src/``."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    init = SRC / "sparsenerve" / "__init__.py"
    if not init.is_file():
        raise LibraryMissing(f"{init} not found")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparsenerve

    if Path(sparsenerve.__file__).resolve() != init.resolve():
        raise LibraryMissing(f"sparsenerve imported from {sparsenerve.__file__}")
    return sparsenerve


def import_sample() -> float:
    """Seconds to import sparsenerve in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.split()[-1])


class ImportSampler:
    """Takes ``IMPORT_REPEATS`` import samples, evenly over a run's progress."""

    def __init__(self):
        self.samples = []

    def __call__(self, progress: float):
        while len(self.samples) < min(IMPORT_REPEATS, progress * IMPORT_REPEATS):
            self.samples.append(import_sample())


def dims_of(cells) -> dict:
    """Simplex count per dimension, with dimensions 4 and up pooled under 4."""
    counts = {}
    for cell in cells:
        for s in cell.complex.simplices:
            key = min(len(s) - 1, 4)
            counts[key] = counts.get(key, 0) + 1
    return counts


class Run:
    """Operations of one run: timings, sizes and failures."""

    def __init__(self, workload, seed, inputs, reference, tracer=None):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.reference = reference
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.sizes = []
        # Labels, sizes and dimension counts of the first checked operation;
        # its complexes are not kept, so they add nothing to peak_rss_mb.
        self.first_sizes = None
        self.first_dims = {}

    def operation(self, op_id: str, traced: bool):
        """Run and check one operation; return its wall time."""
        self.attempted += 1
        if traced:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            with self.tracer.span(spans.ROOT) if traced else nullcontext():
                cells = self.workload.run(self.inputs)
        except Exception:
            cells, failure = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if cells is None:
            self._fail([failure])
            return elapsed
        try:
            problems = self.workload.check(self.seed, cells, self.reference)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            self._fail(problems)
        else:
            self.sizes.append(sum(len(c.complex) for c in cells))
            if self.first_sizes is None:
                self.first_sizes = [(c.label, len(c.complex)) for c in cells]
                self.first_dims = dims_of(cells)
        return elapsed

    def _fail(self, problems):
        self.failed += 1
        for line in problems[:MAX_PROBLEMS_SHOWN]:
            print(f"{self.workload.name} failure: {line}", file=sys.stderr)

    def repeat(self, seconds: float, traced: bool, prefix: str, between=None) -> list:
        """Operations until ``seconds`` have passed (at least one); their times.

        ``between(progress)``, if given, runs after each operation with the
        share of ``seconds`` done; its own time does not count.
        """
        times = []
        start = time.perf_counter()
        paused = 0.0
        while not times or time.perf_counter() - start - paused < seconds:
            times.append(self.operation(f"{prefix}{len(times)}", traced))
            if between is not None:
                t = time.perf_counter()
                between((t - start - paused) / seconds if seconds > 0 else 1.0)
                paused += time.perf_counter() - t
        return times


def measure(workload, seed: int, seconds: float, trace: bool, reference, spans_path=None):
    """One benchmark run; returns the result object and summary lines."""
    tracer = spans.Tracer() if trace else None
    builds = []
    for i in range(BUILD_REPEATS):
        if trace:
            tracer.op = f"setup{i}"
        with spans.traced(tracer) if trace else nullcontext():
            start = time.perf_counter()
            inputs = workload.build(seed)
            builds.append(time.perf_counter() - start)

    run = Run(workload, seed, inputs, reference, tracer)
    if not trace:
        imports = ImportSampler()
        times = run.repeat(seconds, traced=False, prefix="op", between=imports)
        imports(1.0)
        metrics = {
            "diagram_s": (statistics.median(times), "s"),
            "setup_s": (statistics.median(imports.samples) + statistics.median(builds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "nerve_size": (statistics.median(run.sizes) if run.sizes else 0, "count"),
        }
    else:
        # Untraced, then spans only (per-layer times), then one operation
        # whose peak spans run under tracemalloc (per-layer peaks).
        untraced = run.repeat(seconds / 2, traced=False, prefix="untraced")
        with spans.traced(tracer) as patched:
            traced_times = run.repeat(seconds / 2, traced=True, prefix="op")
            tracer.memory = True
            run.operation("memory", traced=True)
        op_ids = [f"op{i}" for i in range(len(traced_times))]
        rows = spans.per_op(tracer.spans, op_ids)
        (memory_row,) = spans.per_op(tracer.spans, ["memory"])
        setup_rows = spans.per_op(tracer.spans, [f"setup{i}" for i in range(BUILD_REPEATS)])
        metrics = layer_metrics(
            rows, memory_row, setup_rows, untraced, traced_times, run.first_dims, patched
        )
        if spans_path is not None:
            write_spans(tracer.spans, spans_path)

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [
        f"{workload.name} seed={seed} trace={int(trace)}: {run.attempted} operations, "
        f"{run.failed} failed, error_rate {run.failed / run.attempted:.4g} ratio"
    ]
    if not trace:
        lines.append(diagram_summary(times))
    lines += [
        f"  {k} {'absent' if v is None else format(v, '.6g')} {u}"
        for k, (v, u) in metrics.items()
    ]
    if seed == 0 and run.first_sizes and hasattr(workload, "published_sizes"):
        lines.append(f"  {'cell':32s} {'size':>8s} {'paper':>8s}")
        lines += ["  " + line for line in workload.published_sizes(run.first_sizes)]
    return result, lines


def diagram_summary(times: list) -> str:
    """Median, minimum, sample count and the highest percentile with >= 10
    samples above it."""
    line = (
        f"  diagram_s median {statistics.median(times):.6g} s, min {min(times):.6g} s,"
        f" over {len(times)} operations"
    )
    if len(times) >= 20:
        ordered = sorted(times)
        pct = 100 * (len(times) - 10) // len(times)
        line += f", p{pct} {ordered[-11]:.6g} s"
    return line


def layer_metrics(rows, memory_row, setup_rows, untraced, traced, dims, patched) -> dict:
    """Per-layer metrics: medians over traced operations of per-operation
    totals; peaks from the operation traced with tracemalloc.

    A metric whose spans could not be recorded, because its target is
    missing from the library (``patched`` lacks it), is None, not 0.
    """
    present = set(patched) | {name.split(".", 1)[0] for name in patched}

    def m(key):
        if key.rsplit(":", 1)[0] not in present:
            return None
        return spans.median_of(rows, key)

    def ratio(num, den, scale=1.0):
        if num is None or den is None:
            return None
        return scale * num / den if den else 0.0

    def total(values):
        found = [v for v in values if v is not None]
        return sum(found) if found else None

    def peak_mb(name):
        return memory_row.get(f"{name}:peak", 0) / 2**20 if name in present else None

    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced)
    cover_s = m("cover.cover_matrix:s")
    miniball_s = m("miniball.miniball:s")
    persistence_s = m("persistence.compute_persistence:s")
    model = [f"model.{n}" for n in ("__post_init__", "validate_on")]
    shares = [
        ratio(
            sum(row.get(f"{layer}:self_s", 0) for layer in spans.LAYERS),
            row.get(f"{spans.ROOT}:s", 0),
        )
        for row in rows
    ]
    metrics = {
        "cover.calls": (m("cover.cover_matrix:calls"), "count"),
        "cover.s": (cover_s, "s"),
        "cover.cells": (m("cover.cover_matrix:cells"), "count"),
        "cover.cells_per_s": (ratio(m("cover.cover_matrix:cells"), cover_s), "1/s"),
        "cover.peak_mb": (peak_mb("cover.cover_matrix"), "MiB"),
        "truncation.fps_s": (m("truncation.farthest_point_sampling:s"), "s"),
        "truncation.tree_s": (m("truncation.truncation_tree:s"), "s"),
        "sparsify.restriction_s": (m("sparsify.restriction_times:s"), "s"),
        "model.validate_calls": (total(m(f"{n}:calls") for n in model), "count"),
        "model.validate_s": (total(m(f"{n}:s") for n in model), "s"),
        "nerve.slope_s": (m("nerve.slope_points:s"), "s"),
        "nerve.maximal_faces_s": (m("nerve.maximal_faces:s"), "s"),
        "nerve.maximal_faces": (m("nerve.maximal_faces:count"), "count"),
        "nerve.maximal_faces.peak_mb": (peak_mb("nerve.maximal_faces"), "MiB"),
        "nerve.expand_s": (m("nerve.expand_skeleton:s"), "s"),
        "nerve.expanded": (m("nerve.expand_skeleton:count"), "count"),
        "nerve.expand.peak_mb": (peak_mb("nerve.expand_skeleton"), "MiB"),
        "nerve.filtration_values_s": (m("nerve.filtration_values:s"), "s"),
        "nerve.sort_s": (m("nerve.make_filtered_complex:s"), "s"),
        **{
            f"nerve.simplices_dim{k if k < 4 else '4plus'}": (dims.get(k, 0), "count")
            for k in range(5)
        },
        "miniball.calls": (m("miniball.miniball:calls"), "count"),
        "miniball.s": (miniball_s, "s"),
        "miniball.us_per_call": (ratio(miniball_s, m("miniball.miniball:calls"), 1e6), "us"),
        "persistence.s": (persistence_s, "s"),
        "persistence.columns": (m("persistence.compute_persistence:columns"), "count"),
        "persistence.us_per_column": (
            ratio(persistence_s, m("persistence.compute_persistence:columns"), 1e6), "us"
        ),
        "persistence.zero_length_pairs": (m("persistence.compute_persistence:zero_length"), "count"),
        "persistence.points": (m("persistence.compute_persistence:points"), "count"),
        "persistence.peak_mb": (peak_mb("persistence.compute_persistence"), "MiB"),
        "persistence.complex_check_s": (m("persistence.check:s"), "s"),
        "persistence.boundary_s": (m("persistence._boundary_columns:s"), "s"),
        "persistence.reduce_s": (m("persistence._reduce_twist:s"), "s"),
        "persistence.check_s": (m("check.diagram_interleaving_check:s"), "s"),
        **{f"{layer}.self_s": (m(f"{layer}:self_s"), "s") for layer in spans.LAYERS},
        "ingest.s": (
            statistics.median(
                sum(v for k, v in row.items() if k.startswith("ingest.") and k.endswith(":s"))
                for row in setup_rows
            ) if "ingest" in present else None,
            "s",
        ),
        "trace.diagram_s": (traced_s, "s"),
        "trace.untraced_diagram_s": (untraced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.self_sum_share": (statistics.median(shares) if shares else 0.0, "ratio"),
    }
    return metrics


def write_spans(span_list, path: Path):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for s in span_list:
            fh.write(json.dumps({
                "name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                "op": s.op, "peak_bytes": s.peak_bytes, "counts": s.counts,
            }) + "\n")


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}.spans.jsonl" if args.trace else None
    result, lines = measure(
        workload, args.seed, args.seconds, bool(args.trace),
        workloads.load_reference(workload.name), spans_path,
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
