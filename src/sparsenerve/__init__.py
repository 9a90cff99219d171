"""Sparse Dowker nerves with interleaving guarantees."""

from .cover import cover_matrix
from .ingest import (
    PointCloud,
    WeightedGraph,
    distance_matrix,
    generate_graph,
    raw_weight_matrix,
    read_distance_matrix,
    read_edge_list,
    read_point_cloud,
    sample_clifford_torus,
    shortest_path_matrix,
)
from .miniball import miniball
from .model import (
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    SizeLimitError,
    TranslationFunction,
)
from .nerve import (
    FilteredComplex,
    ambient_cech_nerve,
    full_ambient_cech,
    full_dowker_nerve,
    maximal_faces,
    skeleton_size,
    slope_points,
    sparse_dowker_nerve,
)
from .persistence import (
    InterleavingLine,
    PersistenceDiagram,
    compute_persistence,
    diagram_interleaving_check,
    interleaving_line,
)
from .sparsify import restriction_times
from .truncation import (
    farthest_point_sampling,
    truncate,
    truncation_result,
    truncation_tree,
)

__all__ = [
    "DowkerDissimilarity",
    "FilteredComplex",
    "InputValidationError",
    "InterleavingLine",
    "ParentFunction",
    "PersistenceDiagram",
    "PointCloud",
    "RestrictionTimes",
    "SizeLimitError",
    "TranslationFunction",
    "WeightedGraph",
    "ambient_cech_nerve",
    "compute_persistence",
    "cover_matrix",
    "diagram_interleaving_check",
    "distance_matrix",
    "farthest_point_sampling",
    "full_ambient_cech",
    "full_dowker_nerve",
    "generate_graph",
    "interleaving_line",
    "maximal_faces",
    "miniball",
    "raw_weight_matrix",
    "read_distance_matrix",
    "read_edge_list",
    "read_point_cloud",
    "restriction_times",
    "sample_clifford_torus",
    "shortest_path_matrix",
    "skeleton_size",
    "slope_points",
    "sparse_dowker_nerve",
    "truncate",
    "truncation_result",
    "truncation_tree",
]

__version__ = "0.1.0"
