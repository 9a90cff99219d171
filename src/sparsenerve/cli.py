"""Command-line interface: sparse persistent homology runs and benchmarks.

Two subcommands: ``ph`` runs the pipeline on one input and writes diagram,
stats and plot-data files; ``benchmark`` reproduces the graph-family size
table against the published reference sizes.

Exit codes: 0 success, 1 invalid input (usage errors included) or an
allocation the machine cannot serve, 2 simplex budget exceeded.
The ``ph`` flags except ``--seed`` and ``--initial-point`` can also be set through
``SPARSENERVE_*`` environment variables (e.g. ``SPARSENERVE_DIM=2``); explicit
flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .ingest import (
    GRAPH_KINDS,
    distance_matrix,
    generate_graph,
    raw_weight_matrix,
    read_distance_matrix,
    read_edge_list,
    read_point_cloud,
    shortest_path_matrix,
    write_diagram,
)
from .model import InputValidationError, SizeLimitError, TranslationFunction
from .nerve import ambient_cech_nerve, skeleton_size, sparse_dowker_nerve
from .persistence import compute_persistence, interleaving_line

DEFAULT_MAX_SIMPLICES = 10_000_000
FORMATS = ("points", "matrix", "graph")
MODES = ("intrinsic", "ambient", "network")
NETWORK_MODES = ("shortest-path", "raw-weight")

# Published sparse-nerve sizes for the 100-node graph families, used by the
# benchmark subcommand for side-by-side reporting.
REFERENCE_SIZES = {
    # graph: (d=1 mult:3, d=1 id, d=10 mult:3)
    "cycle": (297, 166750, 305),
    "star": (199, 199, 199),
    "wheel": (199, 199, 199),
    "ladder": (316, 46894, 333),
    "circular_ladder": (324, 166750, 345),
    "grid": (484, 70286, 721),
    "complete_multipartite": (199, 166750, 199),
}

BENCHMARK_PARAMS = {
    "cycle": dict(nodes=100),
    "star": dict(nodes=100),
    "wheel": dict(nodes=100),
    "ladder": dict(rungs=50),
    "circular_ladder": dict(rungs=50),
    "grid": dict(rows=10, cols=10),
    "complete_multipartite": dict(groups=5, group_size=20),
}


def _env_name(name):
    return f"SPARSENERVE_{name.upper().replace('-', '_')}"


def _env_default(name, fallback=None):
    return os.environ.get(_env_name(name), fallback)


def _env_int(name, fallback: int) -> int:
    """Integer default from the environment; a malformed value is invalid input."""
    raw = _env_default(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise InputValidationError(
            f"{_env_name(name)} must be an integer, got {raw!r}"
        ) from None


def _env_choice(name, choices, fallback: str) -> str:
    """Choice default from the environment; a value outside ``choices`` is invalid input."""
    raw = _env_default(name, fallback)
    if raw not in choices:
        raise InputValidationError(
            f"{_env_name(name)} must be one of {', '.join(choices)}, got {raw!r}"
        )
    return raw


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as invalid input (exit 1), not argparse's exit 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sparsenerve",
        description="Approximate persistent homology via sparse Dowker nerves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("ph", help="run the pipeline on one input")
    ph.add_argument("--input", default=_env_default("input"), help="input file path")
    ph.add_argument("--format", choices=FORMATS, default=None, help="default points")
    ph.add_argument("--mode", choices=MODES, default=None, help="default intrinsic")
    ph.add_argument(
        "--network-mode", choices=NETWORK_MODES, default=None,
        help="default shortest-path",
    )
    ph.add_argument(
        "--interleaving",
        default=_env_default("interleaving", "id"),
        help="id | add:<a> | mult:<c> | poly:<c0>,<c1>,...",
    )
    ph.add_argument("--dim", type=int, default=None, help="default 1")
    ph.add_argument(
        "--initial-point", type=int, default=None, help="truncation start index"
    )
    ph.add_argument("--out-diagram", default=_env_default("out-diagram"))
    ph.add_argument("--out-stats", default=_env_default("out-stats"))
    ph.add_argument("--out-plot", default=_env_default("out-plot"))
    ph.add_argument(
        "--max-simplices",
        type=int,
        default=None,
        help=f"default {DEFAULT_MAX_SIMPLICES}",
    )
    ph.add_argument("--seed", type=int, default=None)

    bench = sub.add_parser("benchmark", help="reproduce the graph-family size table")
    bench.add_argument("--suite", choices=("graphs",), default="graphs")
    bench.add_argument(
        "--max-simplices", type=int, default=DEFAULT_MAX_SIMPLICES
    )
    return parser


def _load_dissimilarity(args):
    """Input file -> (DowkerDissimilarity or point array, point_count)."""
    if args.input is None:
        raise InputValidationError("--input is required")
    if args.mode == "ambient":
        if args.format != "points":
            raise InputValidationError("ambient mode requires --format points")
        cloud = read_point_cloud(args.input)
        return cloud.points, len(cloud)
    if args.mode == "network":
        if args.format != "graph":
            raise InputValidationError("network mode requires --format graph")
        graph = read_edge_list(args.input)
        # Every node is a vertex of the nerve; check before the n x n matrix.
        if 0 <= args.max_simplices < graph.node_count:
            raise SizeLimitError(graph.node_count, args.max_simplices)
        if args.network_mode == "raw-weight":
            dd = raw_weight_matrix(graph)
        else:
            dd = shortest_path_matrix(graph)
        return dd, graph.node_count
    # intrinsic
    if args.format == "points":
        cloud = read_point_cloud(args.input)
        return distance_matrix(cloud), len(cloud)
    if args.format == "matrix":
        dd = read_distance_matrix(args.input)
        return dd, dd.values.shape[0]
    raise InputValidationError("intrinsic mode accepts --format points or matrix")


def cmd_ph(args) -> int:
    args.format = args.format or _env_choice("format", FORMATS, "points")
    args.mode = args.mode or _env_choice("mode", MODES, "intrinsic")
    args.network_mode = args.network_mode or _env_choice(
        "network-mode", NETWORK_MODES, "shortest-path"
    )
    if args.dim is None:
        args.dim = _env_int("dim", 1)
    if args.max_simplices is None:
        args.max_simplices = _env_int("max-simplices", DEFAULT_MAX_SIMPLICES)
    if args.seed is not None and args.seed < 0:
        raise InputValidationError(f"seed must be >= 0, got {args.seed}")
    timings = {}
    start = time.perf_counter()
    alpha = TranslationFunction.parse(args.interleaving)
    data, n = _load_dissimilarity(args)
    timings["ingest"] = time.perf_counter() - start

    initial = args.initial_point
    if initial is None:
        if args.seed is not None:
            initial = int(np.random.default_rng(args.seed).integers(n))
        else:
            initial = 0

    stage = time.perf_counter()
    if args.mode == "ambient":
        complex_ = ambient_cech_nerve(
            data, alpha, args.dim, initial_point=initial,
            max_simplices=args.max_simplices,
        )
        witness_count = None
    else:
        result = sparse_dowker_nerve(
            data, alpha, args.dim, initial_point=initial,
            max_simplices=args.max_simplices,
        )
        complex_ = result.complex
        witness_count = int(data.values.shape[1])
    timings["nerve"] = time.perf_counter() - stage

    stage = time.perf_counter()
    diagram = compute_persistence(complex_, args.dim)
    timings["persistence"] = time.perf_counter() - stage

    if args.out_diagram:
        write_diagram(args.out_diagram, diagram)
    if args.out_stats:
        stats = {
            "landmarks": n,
            "witnesses": witness_count,
            "nerve_size": len(complex_),
            "full_skeleton_size": skeleton_size(n, args.dim),
            "diagram_points": len(diagram),
            "zero_persistence_dropped": diagram.n_zero_length,
            "timings_seconds": {k: round(v, 6) for k, v in timings.items()},
        }
        with open(args.out_stats, "w") as fh:
            json.dump(stats, fh, indent=2)
            fh.write("\n")
    if args.out_plot:
        finite = [d for _, b, d in diagram.points if np.isfinite(d)]
        births = [b for _, b, _ in diagram.points]
        t_max = max(finite + births + [1.0])
        line = interleaving_line(alpha, t_max)
        # alpha is not an interleaving bound in the ambient mode (see
        # ambient_cech_nerve), so no ambient point is marked guaranteed.
        intrinsic = args.mode != "ambient"
        plot = {
            "points": [
                {
                    "dim": dim,
                    "birth": b,
                    "death": None if np.isinf(d) else d,
                    "guaranteed": intrinsic and bool(line.guaranteed(b, d)),
                }
                for dim, b, d in diagram.points
            ],
            "interleaving_line": {
                "t": line.ts.tolist(),
                "alpha_t": line.vs.tolist(),
            },
        }
        with open(args.out_plot, "w") as fh:
            json.dump(plot, fh, indent=2)
            fh.write("\n")
    print(
        f"n={n} nerve={len(complex_)} full_skeleton={skeleton_size(n, args.dim)} "
        f"points={len(diagram)}"
    )
    return 0


def cmd_benchmark(args) -> int:
    cells = [
        ("mult:3", 1, 0),
        ("id", 1, 1),
        ("mult:3", 10, 2),
    ]
    header = f"{'graph':24s} {'cell':12s} {'size':>10s} {'reference':>10s}"
    print(header)
    print("-" * len(header))
    for kind in GRAPH_KINDS:
        dd = shortest_path_matrix(generate_graph(kind, **BENCHMARK_PARAMS[kind]))
        for spec, d, ref_idx in cells:
            label = f"d={d} a={spec.split(':')[0]}"
            ref = REFERENCE_SIZES[kind][ref_idx]
            try:
                alpha = TranslationFunction.parse(spec)
                result = sparse_dowker_nerve(
                    dd, alpha, d, max_simplices=args.max_simplices
                )
                size = str(len(result.complex))
            except SizeLimitError as exc:
                size = f"> {exc.limit}"
            print(f"{kind:24s} {label:12s} {size:>10s} {ref:>10d}")
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "ph":
            return cmd_ph(args)
        return cmd_benchmark(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
