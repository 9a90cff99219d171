import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import EVERY_ALPHA_KIND, random_dissimilarity

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
        edges = truncation_tree(fps)
        assert dict((c, p) for c, p in edges) == {2: 0, 1: 0}

    def test_two_points(self):
        rho = np.array([[0.0, 2.0], [1.0, 0.0]])
        fps = farthest_point_sampling(rho, 0)
        assert truncation_tree(fps) == [(1, 0)]

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
        assert truncation_tree(fps) == [(1, 0), (2, 1), (3, 2)]

    def test_parents_precede_children(self, rng):
        for _ in range(20):
            rho = cover_matrix(random_dissimilarity(rng))
            fps = farthest_point_sampling(rho, 0)
            rank = np.argsort(fps.order)
            for child, parent in truncation_tree(fps):
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


@st.composite
def tied_rectangular_matrices(draw):
    """Rectangular integer-valued Lambda with heavy ties, inf entries and all-inf rows."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, INF])
    lam = np.reshape(
        draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), (rows, cols)
    )
    lam[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = INF
    return lam


def _children_walk_gamma(lam, alpha_lam, tree):
    """Gamma by a leaves-first walk over child lists; the oracle for the order walk."""
    children = tree.children()
    gamma = alpha_lam.copy()
    for l in tree.leaves_first():
        kids = children[l]
        if kids:
            gamma[l] = np.minimum(gamma[l], gamma[kids].min(axis=0))
        gamma[l] = np.maximum(gamma[l], lam[l])
    return gamma


class TestTreeFromSampling:
    @settings(max_examples=300, deadline=None)
    @given(
        lam=tied_rectangular_matrices(),
        alpha=st.sampled_from(EVERY_ALPHA_KIND),
        data=st.data(),
    )
    def test_matches_brute_force_rule(self, lam, alpha, data):
        start = data.draw(st.integers(0, lam.shape[0] - 1))
        tr = truncation_result(DowkerDissimilarity(lam), alpha, start)
        rho = cover_matrix(lam, alpha(lam))
        order, radius = tr.fps.order, tr.fps.insertion_radius
        assert order[0] == start and np.isinf(radius[start])
        expected = np.full(lam.shape[0], start)
        for i in range(1, order.size):
            l, preds = order[i], order[:i]
            # Greedy: l is the lowest-index point farthest from the inserted set.
            rest = np.setdiff1d(np.arange(lam.shape[0]), preds)
            dist = rho[np.ix_(rest, preds)].min(axis=1)
            assert l == rest[np.argmax(dist)] and radius[l] == dist.max()
            # Parent: the earliest-inserted predecessor realizing the radius.
            expected[l] = preds[rho[l, preds] == radius[l]][0]
        np.testing.assert_array_equal(tr.tree.parent, expected)
        assert truncation_tree(tr.fps) == [(int(l), int(expected[l])) for l in order[1:]]
        np.testing.assert_array_equal(
            tr.gamma.values, _children_walk_gamma(lam, alpha(lam), tr.tree)
        )

    def test_all_infinite_cover_parents_on_initial_point(self):
        fps = farthest_point_sampling(np.full((4, 4), INF), 2)
        assert fps.order.tolist() == [2, 0, 1, 3]
        assert fps.parent.tolist() == [2, 2, 2, 2]
