"""Input conversion: files, point clouds, weighted graphs, synthetic generators.

File formats are plain text, one row per line, comma or whitespace separated,
with ``inf`` for infinity and ``#`` starting a comment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .miniball import _sum_axes
from .model import INF, DowkerDissimilarity, InputValidationError, row_blocks

_MAX_SPREAD = 2.0**500


@dataclass(frozen=True)
class PointCloud:
    """Finite point set in Euclidean n-space, from an array or another cloud.

    The largest coordinate spread (max minus min along one axis) must be 0
    or within [2^-500, 2^500], so that squared distances neither underflow
    to 0 nor overflow to inf.
    """

    points: np.ndarray

    def __post_init__(self):
        p = self.points.points if isinstance(self.points, PointCloud) else self.points
        p = np.asarray(p, dtype=float)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise InputValidationError(f"expected an (n, dim) array, got {p.shape}")
        if not np.isfinite(p).all():
            raise InputValidationError("point coordinates must be finite")
        with np.errstate(over="ignore"):
            spread = float((p.max(axis=0) - p.min(axis=0)).max())
        if spread > _MAX_SPREAD or 0 < spread < 1 / _MAX_SPREAD:
            raise InputValidationError(
                f"coordinate spread {spread:.3g} is outside [2^-500, 2^500],"
                " where squared distances leave the float range; rescale the points"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "points", p)

    def __len__(self):
        return self.points.shape[0]


@dataclass(frozen=True)
class WeightedGraph:
    """Simple weighted graph on nodes 0..node_count-1."""

    node_count: int
    edges: tuple  # (u, v, weight)

    def __post_init__(self):
        edges = []
        for u, v, w in self.edges:
            u, v, w = int(u), int(v), float(w)
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise InputValidationError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise InputValidationError(f"self-loop at node {u}")
            if not np.isfinite(w) or w < 0:
                raise InputValidationError(f"bad weight {w} on edge ({u}, {v})")
            edges.append((u, v, w))
        object.__setattr__(self, "edges", tuple(edges))


def _parse_rows(path):
    rows = []
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                tokens = body.replace(",", " ").split()
                try:
                    rows.append((lineno, [float(t) for t in tokens]))
                except ValueError as exc:
                    raise InputValidationError(
                        f"{path}:{lineno}: non-numeric token in {body!r}"
                    ) from exc
    except UnicodeDecodeError as exc:
        raise InputValidationError(f"{path}: not a text file ({exc.reason})") from exc
    if not rows:
        raise InputValidationError(f"{path}: no data rows")
    return rows


def read_point_cloud(path) -> PointCloud:
    rows = _parse_rows(path)
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise InputValidationError(f"{path}:{lineno}: ragged row")
    return PointCloud(np.array([row for _, row in rows]))


def read_distance_matrix(path, metric: bool = True) -> DowkerDissimilarity:
    rows = _parse_rows(path)
    width = len(rows[0][1])
    for lineno, row in rows:
        if len(row) != width:
            raise InputValidationError(f"{path}:{lineno}: ragged row")
    return DowkerDissimilarity._of_fresh(np.array([row for _, row in rows]), metric)


def read_edge_list(path) -> WeightedGraph:
    rows = _parse_rows(path)
    edges = []
    max_node = 0
    for lineno, row in rows:
        if len(row) == 2:
            u, v, w = row[0], row[1], 1.0
        elif len(row) == 3:
            u, v, w = row
        else:
            raise InputValidationError(
                f"{path}:{lineno}: expected 'u v' or 'u v weight'"
            )
        if not (u.is_integer() and v.is_integer()):
            raise InputValidationError(f"{path}:{lineno}: node ids must be integers")
        edges.append((int(u), int(v), w))
        max_node = max(max_node, int(u), int(v))
    return WeightedGraph(node_count=max_node + 1, edges=tuple(edges))


def write_point_cloud(path, cloud: PointCloud):
    with open(path, "w") as fh:
        for row in cloud.points:
            fh.write(" ".join(repr(float(x)) for x in row) + "\n")


def write_distance_matrix(path, dd: DowkerDissimilarity):
    with open(path, "w") as fh:
        for row in dd.values:
            fh.write(" ".join("inf" if np.isinf(x) else repr(float(x)) for x in row) + "\n")


def write_edge_list(path, g: WeightedGraph):
    with open(path, "w") as fh:
        for u, v, w in g.edges:
            fh.write(f"{u} {v} {w!r}\n")


def write_diagram(path, diagram):
    with open(path, "w") as fh:
        for dim, b, d in diagram.points:
            fh.write(f"{dim},{b!r},{'inf' if np.isinf(d) else repr(d)}\n")


def _check_fits(n: int):
    """Raise ``MemoryError`` where an n x n float64 matrix exceeds physical
    memory, before it is allocated: a machine that overcommits would start
    filling it.  Ingest holds that matrix and at most one row block beside
    it."""
    need = 8 * n * n
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise MemoryError(
            f"a distance matrix on {n} points needs {need / 2**30:,.1f} GiB;"
            f" physical memory is {have / 2**30:,.1f} GiB"
        )


def distance_matrix(cloud: PointCloud) -> DowkerDissimilarity:
    """Euclidean distance matrix of a point cloud (square, symmetric).

    Fills one n x n matrix a block of rows at a time (``row_blocks``), so
    it holds one block's (D, rows, n) differences, not all n^2 D of them.
    Each block's squares are summed over D in the order numpy sums a
    trailing axis, so the distances are those of the (n, n, D) layout bit
    for bit.  That sum is symmetric and zero on the diagonal as computed:
    (x_i - x_j)^2 = (x_j - x_i)^2, term by term in the same order, and
    x_i - x_i = 0.
    """
    X = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, float)
    n, D = X.shape
    _check_fits(n)
    XT = X.T
    dm = np.empty((n, n))
    for rows in row_blocks(n, D * n):
        diff = XT[:, rows, None] - XT[:, None, :]
        diff *= diff
        np.sqrt(_sum_axes(diff), out=dm[rows])
        del diff  # before the next block is made beside it
    return DowkerDissimilarity._of_fresh(dm, metric=True)


def shortest_path_matrix(g: WeightedGraph) -> DowkerDissimilarity:
    """All-pairs shortest-path distances; unreachable pairs are infinite.

    Imports scipy on first call, so that no other input path loads it.
    """
    n = g.node_count
    _check_fits(n)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    if g.edges:
        u, v, w = zip(*g.edges)
        adj = coo_matrix((w, (u, v)), shape=(n, n))
    else:
        adj = coo_matrix((n, n))
    dm = shortest_path(adj.tocsr(), directed=False)
    np.fill_diagonal(dm, 0.0)
    return DowkerDissimilarity._of_fresh(dm, metric=True)


def raw_weight_matrix(g: WeightedGraph) -> DowkerDissimilarity:
    """Adjacency-weight dissimilarity: edge weight, inf off-edges, zero diagonal."""
    _check_fits(g.node_count)
    dm = np.full((g.node_count, g.node_count), INF)
    np.fill_diagonal(dm, 0.0)
    for u, v, w in g.edges:
        dm[u, v] = dm[v, u] = min(dm[u, v], w)
    return DowkerDissimilarity._of_fresh(dm)


GRAPH_KINDS = (
    "cycle",
    "star",
    "wheel",
    "ladder",
    "circular_ladder",
    "grid",
    "complete_multipartite",
)


def generate_graph(kind: str, **params) -> WeightedGraph:
    """Standard graph families, unit edge weights, edges sorted as (min, max).

    Parameters: ``nodes`` for cycle/star/wheel; ``rungs`` for ladder and
    circular_ladder (2*rungs nodes); ``rows``/``cols`` for grid;
    ``groups``/``group_size`` for complete_multipartite.  Labels: star and
    wheel hub 0; ladder rails 0..rungs-1 and rungs..2*rungs-1; grid
    row-major; multipartite groups in consecutive blocks.
    """
    if kind in ("cycle", "star", "wheel"):
        n = _positive(params, "nodes")
        if kind == "cycle":
            edges = [(i, (i + 1) % n) for i in range(n)]
        else:
            edges = [(0, i) for i in range(1, n)]
            if kind == "wheel" and n > 2:
                edges += [(i, i % (n - 1) + 1) for i in range(1, n)]
    elif kind in ("ladder", "circular_ladder"):
        r = _positive(params, "rungs")
        n = 2 * r
        edges = [(i, i + r) for i in range(r)]
        edges += [(i + s, i + s + 1) for s in (0, r) for i in range(r - 1)]
        if kind == "circular_ladder":
            edges += [(0, r - 1), (r, n - 1)]
    elif kind == "grid":
        rows, cols = _positive(params, "rows"), _positive(params, "cols")
        n = rows * cols
        edges = [(v, v + 1) for v in range(n) if (v + 1) % cols]
        edges += [(v, v + cols) for v in range(n - cols)]
    elif kind == "complete_multipartite":
        size = _positive(params, "group_size")
        n = size * _positive(params, "groups")
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if u // size != v // size
        ]
    else:
        raise InputValidationError(f"unknown graph kind {kind!r}")
    # A set drops the doubled edges of tiny instances (a 2-cycle, a 2-node rim).
    pairs = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return WeightedGraph(node_count=n, edges=tuple((u, v, 1.0) for u, v in pairs))


def _positive(params, key) -> int:
    try:
        value = int(params[key])
    except KeyError as exc:
        raise InputValidationError(f"missing graph parameter {key!r}") from exc
    if value < 1:
        raise InputValidationError(f"graph parameter {key!r} must be >= 1")
    return value


def sample_clifford_torus(n: int, seed: int) -> PointCloud:
    """n points (cos u, sin u, cos v, sin v)/sqrt(2) with u, v uniform on [0, 2pi)."""
    if n < 1:
        raise InputValidationError("need at least one sample")
    rng = np.random.default_rng(seed)
    u = rng.uniform(0.0, 2.0 * np.pi, size=n)
    v = rng.uniform(0.0, 2.0 * np.pi, size=n)
    pts = np.stack([np.cos(u), np.sin(u), np.cos(v), np.sin(v)], axis=1) / np.sqrt(2.0)
    return PointCloud(pts)
