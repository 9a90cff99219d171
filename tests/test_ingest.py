import os
import subprocess
import sys

import numpy as np
import pytest

import sparsenerve
from sparsenerve.ingest import (
    GRAPH_KINDS,
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
    write_distance_matrix,
    write_edge_list,
    write_point_cloud,
)
from sparsenerve.model import INF, InputValidationError, row_blocks


class TestPointCloudFiles:
    def test_round_trip(self, tmp_path):
        cloud = PointCloud(np.array([[0.0, 1.5], [2.25, -3.0], [1e-9, 4.0]]))
        path = tmp_path / "pts.txt"
        write_point_cloud(path, cloud)
        back = read_point_cloud(path)
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_comments_and_commas(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# header\n1, 2\n3 4  # trailing\n\n")
        cloud = read_point_cloud(path)
        assert cloud.points.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_ragged_reports_line(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1 2\n3 4 5\n")
        with pytest.raises(InputValidationError, match=":2"):
            read_point_cloud(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1 2\nfoo 4\n")
        with pytest.raises(InputValidationError, match=":2"):
            read_point_cloud(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("# nothing\n")
        with pytest.raises(InputValidationError):
            read_point_cloud(path)

    def test_nonfinite_coordinates_rejected(self, tmp_path):
        path = tmp_path / "pts.txt"
        path.write_text("1 inf\n")
        with pytest.raises(InputValidationError):
            read_point_cloud(path)

    def test_binary_file_names_path(self, tmp_path):
        path = tmp_path / "pts.dat"
        path.write_bytes(bytes(range(128, 256)))
        with pytest.raises(InputValidationError, match="pts.dat: not a text file"):
            read_point_cloud(path)


class TestPointCloudRange:
    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_spread_outside_float_range_rejected(self, scale):
        points = scale * np.random.default_rng(0).normal(size=(30, 2))
        with pytest.raises(InputValidationError, match="rescale"):
            PointCloud(points)

    @pytest.mark.parametrize("spread", [2.0**-500, 2.0**500])
    def test_spread_at_the_bounds_accepted(self, spread):
        cloud = PointCloud(np.array([[0.0, 1.0], [spread, 1.0]]))
        assert distance_matrix(cloud).values[0, 1] == spread

    def test_coincident_points_accepted(self):
        assert len(PointCloud(np.full((3, 2), 1e300))) == 3


class TestDistanceMatrixFiles:
    def test_round_trip_with_inf(self, tmp_path):
        from sparsenerve.model import DowkerDissimilarity

        dd = DowkerDissimilarity(
            np.array([[0.0, 2.0, INF], [2.0, 0.0, 1.0], [INF, 1.0, 0.0]]),
            metric=False,
        )
        path = tmp_path / "dm.txt"
        write_distance_matrix(path, dd)
        back = read_distance_matrix(path, metric=False)
        np.testing.assert_array_equal(back.values, dd.values)

    def test_metric_violation_rejected(self, tmp_path):
        path = tmp_path / "dm.txt"
        path.write_text("0 1\n2 0\n")
        with pytest.raises(InputValidationError):
            read_distance_matrix(path, metric=True)


class TestEdgeListFiles:
    def test_round_trip(self, tmp_path):
        g = WeightedGraph(node_count=4, edges=((0, 1, 1.0), (1, 2, 0.5), (0, 3, 2.0)))
        path = tmp_path / "g.txt"
        write_edge_list(path, g)
        back = read_edge_list(path)
        assert back.edges == g.edges
        assert back.node_count == 4

    def test_default_unit_weight(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2 0.5\n")
        g = read_edge_list(path)
        assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))

    def test_fractional_node_rejected(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0.5 1 2\n")
        with pytest.raises(InputValidationError):
            read_edge_list(path)

    @pytest.mark.parametrize("line", ["inf 1\n", "0 nan\n", "0 -inf 2\n"])
    def test_nonfinite_node_rejected(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(line)
        with pytest.raises(InputValidationError, match="integers"):
            read_edge_list(path)

    def test_self_loop_rejected(self):
        with pytest.raises(InputValidationError):
            WeightedGraph(node_count=2, edges=((1, 1, 1.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(InputValidationError):
            WeightedGraph(node_count=2, edges=((0, 1, -1.0),))


class TestDistanceMatrix:
    def test_unit_square(self):
        X = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        dm = distance_matrix(PointCloud(X)).values
        assert dm[0, 1] == pytest.approx(1.0)
        assert dm[0, 2] == pytest.approx(np.sqrt(2))
        np.testing.assert_array_equal(dm, dm.T)
        assert np.all(np.diag(dm) == 0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        dm = distance_matrix(PointCloud(rng.normal(size=(8, 3)))).values
        n = dm.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert dm[i, j] <= dm[i, k] + dm[k, j] + 1e-9

    @pytest.mark.parametrize("D", [1, 2, 7, 8, 9, 64, 127, 128, 129, 300])
    @pytest.mark.parametrize("n", [1, 7, 60, 300, 700])
    def test_matches_a_trailing_axis_sum(self, D, n):
        # The (n, n, D) sum of squares it replaces, bit for bit: on squares of
        # like size, another order of the sum rounds differently.  Summed
        # row by row, which sums each contiguous length-D axis as the whole
        # (n, n, D) array would, without holding it.  n = 300 and 700 span
        # several row blocks at every D; the symmetrizing and the zeroed
        # diagonal of the old code must be no-ops.
        X = np.random.default_rng(D * n).normal(size=(n, D))
        dm = np.empty((n, n))
        for i in range(n):
            diff = X[i] - X
            dm[i] = np.sqrt(np.sum(diff * diff, axis=-1))
        dm = 0.5 * (dm + dm.T)
        np.fill_diagonal(dm, 0.0)
        if n >= 300:
            assert len(row_blocks(n, n * D)) > 1
        assert distance_matrix(X).values.tobytes() == dm.tobytes()


    @pytest.mark.parametrize("pages, fits", [(80_000, True), (79_999, False)])
    def test_reserves_one_matrix_for_a_point_cloud(self, monkeypatch, pages, fits):
        # 100 points in R^4: the matrix is 80,000 bytes.  The coordinate
        # differences are made one row block at a time, so no more n x n
        # layers are reserved.  Physical memory is a patched page count.
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(os, "sysconf", sizes.__getitem__)
        X = np.random.default_rng(0).normal(size=(100, 4))
        if fits:
            assert distance_matrix(X).values.shape == (100, 100)
        else:
            with pytest.raises(MemoryError, match="on 100 points needs 0.0 GiB"):
                distance_matrix(X)

    def test_fresh_matrix_is_held_read_only(self):
        dd = distance_matrix(np.eye(3))
        assert not dd.values.flags.writeable and dd.metric


class TestGraphMatrices:
    def test_shortest_path_cycle(self):
        dm = shortest_path_matrix(generate_graph("cycle", nodes=6)).values
        assert dm[0, 1] == 1.0
        assert dm[0, 3] == 3.0
        assert dm[0, 5] == 1.0

    def test_shortest_path_disconnected(self):
        g = WeightedGraph(node_count=4, edges=((0, 1, 1.0), (2, 3, 1.0)))
        dm = shortest_path_matrix(g).values
        assert np.isinf(dm[0, 2])
        assert dm[0, 1] == 1.0

    def test_raw_weight_matrix(self):
        g = WeightedGraph(node_count=3, edges=((0, 1, 2.5),))
        dm = raw_weight_matrix(g).values
        assert dm[0, 1] == 2.5 and dm[1, 0] == 2.5
        assert np.isinf(dm[0, 2])
        assert np.all(np.diag(dm) == 0)

    def test_raw_weight_parallel_edges_keep_min(self):
        g = WeightedGraph(node_count=2, edges=((0, 1, 3.0), (0, 1, 1.0)))
        assert raw_weight_matrix(g).values[0, 1] == 1.0


class TestGenerateGraph:
    def test_edge_counts(self):
        assert len(generate_graph("cycle", nodes=100).edges) == 100
        assert len(generate_graph("star", nodes=100).edges) == 99
        assert len(generate_graph("wheel", nodes=100).edges) == 198
        assert len(generate_graph("ladder", rungs=50).edges) == 148
        assert len(generate_graph("circular_ladder", rungs=50).edges) == 150
        assert len(generate_graph("grid", rows=10, cols=10).edges) == 180
        g = generate_graph("complete_multipartite", groups=5, group_size=20)
        assert g.node_count == 100
        assert len(g.edges) == 4000

    def test_all_kinds_have_unit_weights(self):
        params = {
            "cycle": dict(nodes=5),
            "star": dict(nodes=5),
            "wheel": dict(nodes=5),
            "ladder": dict(rungs=3),
            "circular_ladder": dict(rungs=3),
            "grid": dict(rows=2, cols=3),
            "complete_multipartite": dict(groups=2, group_size=2),
        }
        for kind in GRAPH_KINDS:
            g = generate_graph(kind, **params[kind])
            assert all(w == 1.0 for _, _, w in g.edges)

    @pytest.mark.parametrize(
        "kind, params, node_count, edges",
        [
            ("cycle", dict(nodes=4), 4, [(0, 1), (0, 3), (1, 2), (2, 3)]),
            ("star", dict(nodes=4), 4, [(0, 1), (0, 2), (0, 3)]),
            (
                "wheel", dict(nodes=5), 5,
                [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (3, 4)],
            ),
            (
                "ladder", dict(rungs=3), 6,
                [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)],
            ),
            (
                "circular_ladder", dict(rungs=3), 6,
                [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
            ),
            (
                "grid", dict(rows=2, cols=3), 6,
                [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)],
            ),
            (
                "complete_multipartite", dict(groups=2, group_size=2), 4,
                [(0, 2), (0, 3), (1, 2), (1, 3)],
            ),
            # tiny instances: doubled edges collapse, a 1-cycle is a self-loop
            ("cycle", dict(nodes=2), 2, [(0, 1)]),
            ("wheel", dict(nodes=3), 3, [(0, 1), (0, 2), (1, 2)]),
            ("circular_ladder", dict(rungs=2), 4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
            ("star", dict(nodes=1), 1, []),
        ],
    )
    def test_exact_edge_lists(self, kind, params, node_count, edges):
        g = generate_graph(kind, **params)
        assert g.node_count == node_count
        assert g.edges == tuple((u, v, 1.0) for u, v in edges)

    @pytest.mark.parametrize(
        "kind, params", [("cycle", dict(nodes=1)), ("circular_ladder", dict(rungs=1))]
    )
    def test_one_node_cycle_rejected(self, kind, params):
        with pytest.raises(InputValidationError, match="self-loop"):
            generate_graph(kind, **params)

    def test_unknown_kind(self):
        with pytest.raises(InputValidationError):
            generate_graph("petersen", nodes=10)

    def test_missing_parameter(self):
        with pytest.raises(InputValidationError):
            generate_graph("grid", rows=3)


class TestCliffordTorus:
    def test_points_on_unit_sphere(self):
        cloud = sample_clifford_torus(50, seed=7)
        norms = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        # both circle factors have radius 1/sqrt(2)
        r = np.linalg.norm(cloud.points[:, :2], axis=1)
        np.testing.assert_allclose(r, 1 / np.sqrt(2), atol=1e-12)

    def test_seed_determinism(self):
        a = sample_clifford_torus(20, seed=3).points
        b = sample_clifford_torus(20, seed=3).points
        np.testing.assert_array_equal(a, b)
        c = sample_clifford_torus(20, seed=4).points
        assert not np.array_equal(a, c)

    def test_rejects_empty(self):
        with pytest.raises(InputValidationError):
            sample_clifford_torus(0, seed=1)


def test_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(sparsenerve.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, sparsenerve; print('networkx' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
