"""Working-memory bounds of the passes over an L x W matrix.

Each pass runs in place or over row blocks (``model.row_blocks``), so its
tracemalloc peak, in units of one n x n float64 matrix, stays near what it
returns plus one block, whatever n.  Measured at n = 600, where one block
(2^16 cells) is 0.18 units; the full-size temporaries these bounds exclude
cost one unit each.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sparsenerve import nerve
from sparsenerve.cover import cover_matrix
from sparsenerve.ingest import distance_matrix, sample_clifford_torus
from sparsenerve.model import TranslationFunction
from sparsenerve.sparsify import restriction_times
from sparsenerve.truncation import truncation_result

N = 600


def peak_units(f, *args):
    """Peak memory that ``f(*args)`` allocates, in n x n float64 matrices."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1] / (8 * N * N)
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def run():
    """Every stage's input on a 600-point Clifford torus at mult:1.5, d = 1."""
    cloud = sample_clifford_torus(N, 0)
    dd = distance_matrix(cloud)
    alpha = TranslationFunction.multiplicative(1.5)
    tr = truncation_result(dd, alpha)
    R = restriction_times(tr.tree, dd, tr.gamma)
    faces = nerve.maximal_faces(tr.gamma, R, nerve.slope_points(tr.tree, R))
    skeleton = nerve.expand_skeleton(faces, 1)
    return dict(cloud=cloud, dd=dd, alpha=alpha, tr=tr, R=R, skeleton=skeleton)


def test_distance_matrix(run):
    # The matrix, the constructor's checked copy and one block.
    assert peak_units(distance_matrix, run["cloud"]) <= 2.5


def test_truncation_result(run):
    # alpha(Lambda), folded into Gamma in place, and its scan's masks.
    assert peak_units(truncation_result, run["dd"], run["alpha"]) <= 2.4


def test_restriction_times(run):
    tr = run["tr"]
    assert peak_units(restriction_times, tr.tree, run["dd"], tr.gamma) <= 0.75


def test_one_row_cover_matrix(run):
    # Farthest-point sampling's first column.
    dd = run["dd"]
    assert peak_units(cover_matrix, dd.values[:1], dd) <= 0.5


def test_maximal_faces(run):
    tr, R = run["tr"], run["R"]
    assert peak_units(nerve.maximal_faces, tr.gamma, R, nerve.slope_points(tr.tree, R)) <= 4.6


def test_filtration_values_on_rank_codes(run):
    # The rank codes of Lambda, which at this size the loop would take anyway.
    with mock.patch.object(nerve, "_RANK_GATHERS", 0):
        values = nerve.filtration_values(run["dd"], run["skeleton"].cells)
        assert peak_units(nerve.filtration_values, run["dd"], run["skeleton"].cells) <= 4.0
    assert np.isfinite(values).all()
