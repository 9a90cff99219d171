import numpy as np
import pytest

from sparsenerve.cover import cover_matrix
from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    TranslationFunction,
)
from sparsenerve.truncation import (
    farthest_point_sampling,
    truncate,
    truncation_result,
    truncation_tree,
)

from conftest import random_dissimilarity

LINE3 = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])


class TestFarthestPointSampling:
    def test_hand_run(self):
        rho = np.array([[0.0, 1, 3], [3, 0, 3], [3, 2, 0]])
        fps = farthest_point_sampling(rho, 0)
        assert fps.order.tolist() == [0, 1, 2]
        assert fps.insertion_radius.tolist() == [INF, 3.0, 2.0]

    def test_single_point(self):
        fps = farthest_point_sampling([[0.0]], 0)
        assert fps.order.tolist() == [0]
        assert np.isinf(fps.insertion_radius[0])

    def test_constant_offdiagonal_gives_index_order(self):
        rho = np.full((5, 5), 2.0)
        np.fill_diagonal(rho, 0.0)
        fps = farthest_point_sampling(rho, 0)
        assert fps.order.tolist() == [0, 1, 2, 3, 4]
        assert fps.insertion_radius[1:].tolist() == [2.0] * 4

    def test_radii_non_increasing_along_order(self, rng):
        for _ in range(20):
            lam = random_dissimilarity(rng)
            rho = cover_matrix(lam)
            fps = farthest_point_sampling(rho, 0)
            radii = fps.insertion_radius[fps.order[1:]]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_bad_initial_point(self):
        with pytest.raises(InputValidationError):
            farthest_point_sampling([[0.0]], 3)


class TestTruncationTree:
    def test_hand_run_star(self):
        # insertion order [0, 2, 1]: both later points realize their radius at 0
        rho = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])
        fps = farthest_point_sampling(rho, 0)
        assert fps.order.tolist() == [0, 2, 1]
        edges = truncation_tree(rho, fps)
        assert dict((c, p) for c, p in edges) == {2: 0, 1: 0}

    def test_two_points(self):
        rho = np.array([[0.0, 2.0], [1.0, 0.0]])
        fps = farthest_point_sampling(rho, 0)
        assert truncation_tree(rho, fps) == [(1, 0)]

    def test_chain(self):
        # each point's radius is realized only by its immediate predecessor
        rho = np.array(
            [
                [0.0, 9, 9, 9],
                [8.0, 0, 9, 9],
                [5.0, 4.5, 0, 9],
                [4.0, 9, 3, 0],
            ]
        )
        fps = farthest_point_sampling(rho, 0)
        assert fps.order.tolist() == [0, 1, 2, 3]
        assert truncation_tree(rho, fps) == [(1, 0), (2, 1), (3, 2)]

    def test_parents_precede_children(self, rng):
        for _ in range(20):
            rho = cover_matrix(random_dissimilarity(rng))
            fps = farthest_point_sampling(rho, 0)
            rank = np.argsort(fps.order)
            for child, parent in truncation_tree(rho, fps):
                assert rank[parent] < rank[child]


class TestTruncate:
    def test_three_point_line_mult3(self):
        gamma = truncate(
            DowkerDissimilarity(LINE3), TranslationFunction.multiplicative(3)
        )
        assert gamma.values.tolist() == [[0, 1, 3], [3, 0, 6], [9, 6, 0]]

    def test_identity_is_exact(self, rng):
        for _ in range(20):
            lam = random_dissimilarity(rng)
            gamma = truncate(
                DowkerDissimilarity(lam), TranslationFunction.identity()
            )
            np.testing.assert_array_equal(gamma.values, lam)

    def test_single_point(self):
        gamma = truncate(
            DowkerDissimilarity([[0.0, 1.0, 2.0]]),
            TranslationFunction.multiplicative(2),
        )
        assert gamma.values.tolist() == [[0.0, 2.0, 4.0]]

    def test_sandwich_bound(self, rng):
        alpha = TranslationFunction.multiplicative(3)
        for _ in range(30):
            lam = random_dissimilarity(rng)
            gamma = truncate(DowkerDissimilarity(lam), alpha).values
            assert np.all(lam <= gamma)
            assert np.all(gamma <= alpha(lam))

    def test_row_dominates_subtree_under_alpha(self, rng):
        # Wherever alpha(Lambda) allows, a parent row lies at or below
        # max(child row, its own Lambda row): the covering property the
        # restriction stage relies on.
        alpha = TranslationFunction.multiplicative(3)
        for _ in range(20):
            lam = random_dissimilarity(rng)
            tr = truncation_result(DowkerDissimilarity(lam), alpha)
            g = tr.gamma.values
            for child, parent in enumerate(tr.tree.parent):
                if child == parent:
                    continue
                assert np.all(
                    g[parent] <= np.maximum(lam[parent], g[child]) + 1e-12
                )

    def test_determinism(self, rng):
        lam = random_dissimilarity(rng)
        alpha = TranslationFunction.multiplicative(2)
        a = truncate(DowkerDissimilarity(lam), alpha).values
        b = truncate(DowkerDissimilarity(lam), alpha).values
        np.testing.assert_array_equal(a, b)
