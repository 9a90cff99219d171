"""Benchmark workloads: input generation, one operation, output checks.

An operation turns inputs already held in memory into persistence diagrams,
one per cell (a torus workload has one cell, ``graph_table`` has 21).  The
library is called through module attributes (``nerve.sparse_dowker_nerve``,
``persistence.compute_persistence``, ...) so that the traced run can wrap
them from outside.  Import this module only after ``run.load_library``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sparsenerve import ingest, model, nerve, persistence

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Diagrams of computed radii (and of rotated clouds) compare within this.
TOLERANCE = 1e-9

# The paper's 100-node graph families.
GRAPH_PARAMS = {
    "cycle": dict(nodes=100),
    "star": dict(nodes=100),
    "wheel": dict(nodes=100),
    "ladder": dict(rungs=50),
    "circular_ladder": dict(rungs=50),
    "grid": dict(rows=10, cols=10),
    "complete_multipartite": dict(groups=5, group_size=20),
}

# (interleaving spec, homology dimension d) per graph family, in the column
# order of the published size table.
GRAPH_CELLS = (("mult:3", 1), ("id", 1), ("mult:3", 10))


@dataclass
class Cell:
    """One complex and its diagram, as produced by one operation."""

    label: str
    complex: object
    diagram: object


def _rotation(seed: int, dim: int) -> np.ndarray:
    """Seeded random orthogonal matrix; the identity at seed 0."""
    if seed == 0:
        return np.eye(dim)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


@dataclass(frozen=True)
class TorusWorkload:
    """A fixed Clifford-torus cloud, rotated by the seed, through one pipeline.

    The seed only rotates the cloud, which preserves every distance, so each
    seed poses the same geometric problem in different coordinates: sizes
    must match the reference exactly and diagrams within ``TOLERANCE``.
    Resampling the cloud instead swings nerve sizes by up to 3x between seeds.
    """

    name: str
    n: int
    cloud_seed: int
    interleaving: str
    d: int
    ambient: bool = False

    def build(self, seed: int):
        points = ingest.sample_clifford_torus(self.n, self.cloud_seed).points
        points = points @ _rotation(seed, points.shape[1]).T
        if self.ambient:
            return points
        return ingest.distance_matrix(ingest.PointCloud(points))

    def run(self, inputs) -> list:
        alpha = model.TranslationFunction.parse(self.interleaving)
        if self.ambient:
            K = nerve.ambient_cech_nerve(inputs, alpha, self.d)
        else:
            K = nerve.sparse_dowker_nerve(inputs, alpha, self.d).complex
        return [Cell(self.name, K, persistence.compute_persistence(K, self.d))]

    def check(self, seed: int, cells: list, reference) -> list:
        problems = _structure_problems(cells)
        if reference is not None:
            tol = 0.0 if seed == 0 and not self.ambient else TOLERANCE
            for cell in cells:
                problems += _reference_problems(cell, reference, tol, same_complex=True)
        return problems


@dataclass(frozen=True)
class GraphTableWorkload:
    """The paper's size table: graph families x (interleaving, d) cells.

    Vertex labels are fixed; the seed picks each family's farthest-point
    start vertex (vertex 0 at seed 0, as in the published table).  Permuting
    labels instead reorders tied simplices and swings the alpha = id
    reduction time by up to 40% between seeds.
    """

    name: str
    params: dict = field(default_factory=lambda: dict(GRAPH_PARAMS))
    cells: tuple = GRAPH_CELLS

    def build(self, seed: int):
        rng = np.random.default_rng(seed)
        families = []
        for kind, params in self.params.items():
            dd = ingest.shortest_path_matrix(ingest.generate_graph(kind, **params))
            start = 0 if seed == 0 else int(rng.integers(dd.values.shape[0]))
            families.append((kind, dd, start))
        return families

    def run(self, inputs) -> list:
        out = []
        for kind, dd, start in inputs:
            for spec, d in self.cells:
                alpha = model.TranslationFunction.parse(spec)
                K = nerve.sparse_dowker_nerve(dd, alpha, d, initial_point=start).complex
                dg = persistence.compute_persistence(K, d)
                out.append(Cell(f"{kind} {spec} d={d}", K, dg))
        return out

    def check(self, seed: int, cells: list, reference) -> list:
        """Exact diagrams at alpha = id (any seed), interleaving at mult:c.

        The sparse nerve at alpha = id has the exact Dowker diagram, whatever
        the start vertex, so those cells' diagrams must equal the reference
        at every seed (their sizes and zero-length pairs vary with the start);
        every other cell must interleave with its family's id diagram.
        """
        problems = _structure_problems(cells)
        exact = {c.label.split()[0]: c for c in cells if c.label.split()[1] == "id"}
        for cell in cells:
            kind, spec, _ = cell.label.split()
            if reference is not None and (seed == 0 or spec == "id"):
                problems += _reference_problems(cell, reference, 0.0, seed == 0)
            if spec == "id" or kind not in exact:
                continue
            alpha = model.TranslationFunction.parse(spec)
            report = persistence.diagram_interleaving_check(
                _low_dims(exact[kind].diagram), _low_dims(cell.diagram), alpha
            )
            if not report.passed:
                problems.append(f"{cell.label}: {'; '.join(report.messages)}")
        return problems

    def published_sizes(self, sizes: list) -> list:
        """Lines comparing each cell's size, given as (label, size) pairs,
        with the published table, which holds sizes for the 100-node
        families only."""
        if self.params != GRAPH_PARAMS:
            return []
        from sparsenerve import cli

        published = getattr(cli, "REFERENCE_SIZES", {})
        lines = []
        for label, size in sizes:
            kind, spec, d = label.split()
            column = self.cells.index((spec, int(d[2:])))
            ref = published.get(kind, (None,) * len(self.cells))[column]
            lines.append(f"{label:32s} {size:>8d} {ref!s:>8s}")
        return lines


def _low_dims(diagram, top: int = 1):
    return persistence.PersistenceDiagram(
        points=tuple(p for p in diagram.points if p[0] <= top)
    )


def _structure_problems(cells: list) -> list:
    """Checks any diagram of a connected input must pass, at any seed."""
    problems = []
    for cell in cells:
        points = cell.diagram.points
        essential = [p for p in points if math.isinf(p[2])]
        if [p[0] for p in essential] != [0]:
            problems.append(f"{cell.label}: essential classes {essential}")
        if any(not 0 <= b < d for _, b, d in points):
            problems.append(f"{cell.label}: point with birth >= death")
    return problems


def _reference_problems(cell: Cell, reference: dict, tol: float, same_complex: bool) -> list:
    """Compare with the stored cell: diagram within ``tol`` (0 = bit-exact);
    with ``same_complex`` also the complex size and, when exact, the count
    of zero-length pairs (within ``tol`` they may turn into short points)."""
    ref = reference.get(cell.label)
    if ref is None:
        return [f"{cell.label}: no reference"]
    problems = []
    if same_complex and len(cell.complex) != ref["size"]:
        problems.append(f"{cell.label}: size {len(cell.complex)} != {ref['size']}")
    if same_complex and tol == 0 and cell.diagram.n_zero_length != ref["zero_length"]:
        problems.append(f"{cell.label}: zero-length pairs differ from the reference")
    points = [tuple(p) for p in ref["points"]]
    if tol == 0:
        same = list(cell.diagram.points) == points
    else:
        same = diagrams_close(cell.diagram.points, points, tol)
    if not same:
        problems.append(f"{cell.label}: diagram differs from the reference")
    return problems


def diagrams_close(a, b, tol: float, window: int = 8) -> bool:
    """Match sorted (dim, birth, death) lists point by point within ``tol``.

    Points of persistence at most ``tol`` are ignored on both sides.  Each
    point may match any unused point of the same dimension up to ``window``
    positions away, which absorbs reordering among near-equal births.
    """
    a = [p for p in a if not p[2] - p[1] <= tol]
    b = [p for p in b if not p[2] - p[1] <= tol]
    if len(a) != len(b):
        return False
    used = [False] * len(b)
    for i, (dim, birth, death) in enumerate(a):
        for j in range(max(0, i - window), min(len(b), i + window + 1)):
            e = b[j]
            if (
                not used[j]
                and e[0] == dim
                and abs(e[1] - birth) <= tol
                and (e[2] == death or abs(e[2] - death) <= tol)
            ):
                used[j] = True
                break
        else:
            return False
    return True


def reference_of(cells: list) -> dict:
    return {
        c.label: {
            "size": len(c.complex),
            "zero_length": c.diagram.n_zero_length,
            "points": [list(p) for p in c.diagram.points],
        }
        for c in cells
    }


def load_reference(name: str):
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh)


def write_reference(name: str, cells: list):
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(REFERENCE_DIR / f"{name}.json", "w") as fh:
        json.dump(reference_of(cells), fh)
        fh.write("\n")


# BENCHMARK.json lists torus_fine and ambient_torus; see DESIGN.md for why.
# graph_table is the paper's size table and ambient_torus_100 the ambient
# acceptance instance; one operation of either takes 7-25 s on 2 CPUs.
WORKLOADS = {
    w.name: w
    for w in (
        TorusWorkload("torus_fine", n=300, cloud_seed=0, interleaving="mult:1.5", d=1),
        TorusWorkload("torus_coarse", n=300, cloud_seed=0, interleaving="mult:3", d=1),
        GraphTableWorkload("graph_table"),
        TorusWorkload(
            "ambient_torus", n=60, cloud_seed=9,
            interleaving="poly:0.3,1,0,0.5", d=2, ambient=True,
        ),
        TorusWorkload(
            "ambient_torus_100", n=100, cloud_seed=9,
            interleaving="poly:0.3,1,0,0.5", d=2, ambient=True,
        ),
    )
}
