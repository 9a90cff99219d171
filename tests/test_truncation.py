import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenerve import cover, truncation
from sparsenerve.cover import cover_column, cover_matrix
from sparsenerve.ingest import distance_matrix, sample_clifford_torus
from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    TranslationFunction,
)
from sparsenerve.truncation import (
    farthest_point_sampling,
    truncation_result,
    truncation_tree,
)

from conftest import (
    EVERY_ALPHA_KIND,
    multi_block_dissimilarity,
    random_dissimilarity,
    record_blocks,
)


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


LINE3 = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])


def line_metric(xs):
    """Distance matrix of points on the real line."""
    xs = np.asarray(xs, float)
    return np.abs(xs[:, None] - xs[None, :])


def dense_farthest_point_sampling(rho, start):
    """Greedy farthest-point sampling over a full cover matrix; the oracle
    for the lazy sampler, which computes only the entries it needs."""
    n = rho.shape[0]
    order = np.empty(n, dtype=int)
    radius = np.full(n, INF)
    parent = np.full(n, start)
    order[0] = start
    d = rho[:, start].copy()
    d[start] = -INF
    for i in range(1, n):
        li = int(np.argmax(d))
        order[i] = li
        radius[li] = d[li]
        d[li] = -INF
        col = rho[:, li]
        parent[col < d] = li
        np.minimum(d, col, out=d)
    return order, radius, parent


class TestFarthestPointSampling:
    def test_hand_run(self):
        # cover_matrix(LINE3) = [[0, 1, 3], [3, 0, 3], [3, 2, 0]]
        fps = farthest_point_sampling(LINE3, LINE3, 0)
        assert fps.order.tolist() == [0, 1, 2]
        assert fps.insertion_radius.tolist() == [INF, 3.0, 2.0]

    def test_single_point(self):
        fps = farthest_point_sampling([[0.0]], [[0.0]], 0)
        assert fps.order.tolist() == [0]
        assert np.isinf(fps.insertion_radius[0])

    def test_constant_offdiagonal_gives_index_order(self):
        # Each point witnesses itself at 0 against 2 elsewhere, so every
        # off-diagonal cover entry is 2.
        lam = np.full((5, 5), 2.0)
        np.fill_diagonal(lam, 0.0)
        fps = farthest_point_sampling(lam, lam, 0)
        assert fps.order.tolist() == [0, 1, 2, 3, 4]
        assert fps.insertion_radius[1:].tolist() == [2.0] * 4

    def test_radii_non_increasing_along_order(self, rng):
        for _ in range(20):
            lam = random_dissimilarity(rng)
            fps = farthest_point_sampling(lam, lam, 0)
            radii = fps.insertion_radius[fps.order[1:]]
            assert all(a >= b for a, b in zip(radii, radii[1:]))

    def test_bad_initial_point(self):
        with pytest.raises(InputValidationError):
            farthest_point_sampling([[0.0]], [[0.0]], 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            farthest_point_sampling(np.zeros((2, 3)), np.zeros((3, 3)))

    @settings(max_examples=300, deadline=None)
    @given(
        lam=tied_rectangular_matrices(),
        alpha=st.sampled_from(EVERY_ALPHA_KIND),
        data=st.data(),
    )
    def test_lazy_matches_dense(self, lam, alpha, data):
        start = data.draw(st.integers(0, lam.shape[0] - 1))
        alpha_lam = alpha(lam)
        fps = farthest_point_sampling(lam, alpha_lam, start)
        order, radius, parent = dense_farthest_point_sampling(
            cover_matrix(lam, alpha_lam), start
        )
        np.testing.assert_array_equal(fps.order, order)
        np.testing.assert_array_equal(fps.insertion_radius, radius)
        np.testing.assert_array_equal(fps.parent, parent)

    @pytest.mark.parametrize("start", [0, 17])
    def test_blocked_candidates_match_dense(self, monkeypatch, start):
        # 350 x 600 Lambda with ties and inf entries: the initial column and
        # the early candidate columns span several row blocks.  The oracle's
        # cover matrix is computed one column at a time over all rows.
        lam = multi_block_dissimilarity(start)
        alpha_lam = TranslationFunction.multiplicative(1.5)(lam)
        rho = np.column_stack([np.where(alpha_lam < row, row, 0.0).max(axis=1) for row in lam])
        blocks = record_blocks(monkeypatch, cover)
        fps = farthest_point_sampling(lam, alpha_lam, start)
        assert sum(b > 1 for b in blocks) > 1
        order, radius, parent = dense_farthest_point_sampling(rho, start)
        np.testing.assert_array_equal(fps.order, order)
        np.testing.assert_array_equal(fps.insertion_radius, radius)
        np.testing.assert_array_equal(fps.parent, parent)

    def test_computes_few_cover_entries(self, monkeypatch):
        # Skipping an entry never changes the result, so only a count
        # shows whether the lower bound still prunes.  Every entry, the
        # initial column's through cover_matrix included, comes from
        # cover_column.
        lam = distance_matrix(sample_clifford_torus(300, 0)).values
        computed = []

        def counting_cover_column(*args):
            col = cover_column(*args)
            computed.append(col.size)
            return col

        monkeypatch.setattr(truncation, "cover_column", counting_cover_column)
        monkeypatch.setattr(cover, "cover_column", counting_cover_column)
        farthest_point_sampling(lam, TranslationFunction.multiplicative(1.5)(lam))
        assert lam.shape[0] < sum(computed) < 0.1 * lam.shape[0] ** 2


class TestTruncationTree:
    def test_hand_run_star(self):
        # Points 0, 1, -3 on a line: insertion order [0, 2, 1], and both
        # later points realize their radius at 0.
        lam = line_metric([0, 1, -3])
        fps = farthest_point_sampling(lam, lam, 0)
        assert fps.order.tolist() == [0, 2, 1]
        edges = truncation_tree(fps)
        assert dict((c, p) for c, p in edges) == {2: 0, 1: 0}

    def test_two_points(self):
        lam = line_metric([0, 1])
        fps = farthest_point_sampling(lam, lam, 0)
        assert truncation_tree(fps) == [(1, 0)]

    def test_chain(self):
        # Points 0, 8, 9, 10 on a line: each point's radius is realized only
        # by its immediate predecessor (radii 10, 2, 1).
        lam = line_metric([0, 8, 9, 10])
        fps = farthest_point_sampling(lam, lam, 0)
        assert fps.order.tolist() == [0, 1, 2, 3]
        assert fps.insertion_radius[1:].tolist() == [10.0, 2.0, 1.0]
        assert truncation_tree(fps) == [(1, 0), (2, 1), (3, 2)]

    def test_parents_precede_children(self, rng):
        for _ in range(20):
            lam = random_dissimilarity(rng)
            fps = farthest_point_sampling(lam, lam, 0)
            rank = np.argsort(fps.order)
            for child, parent in truncation_tree(fps):
                assert rank[parent] < rank[child]


class TestTruncate:
    def test_three_point_line_mult3(self):
        gamma = truncation_result(
            DowkerDissimilarity(LINE3), TranslationFunction.multiplicative(3)
        ).gamma
        assert gamma.values.tolist() == [[0, 1, 3], [3, 0, 6], [9, 6, 0]]

    def test_identity_is_exact(self, rng):
        for _ in range(20):
            lam = random_dissimilarity(rng)
            gamma = truncation_result(
                DowkerDissimilarity(lam), TranslationFunction.identity()
            ).gamma
            np.testing.assert_array_equal(gamma.values, lam)

    def test_single_point(self):
        gamma = truncation_result(
            DowkerDissimilarity([[0.0, 1.0, 2.0]]),
            TranslationFunction.multiplicative(2),
        ).gamma
        assert gamma.values.tolist() == [[0.0, 2.0, 4.0]]

    def test_folds_in_alpha_lambda_without_touching_lambda(self):
        # Gamma is folded in alpha(Lambda)'s own buffer: it equals the fold
        # on a copy, Lambda keeps its bytes and Gamma comes back read-only.
        dd = DowkerDissimilarity(multi_block_dissimilarity(7))
        before = dd.values.tobytes()
        alpha = TranslationFunction.multiplicative(1.5)
        tr = truncation_result(dd, alpha)
        gamma = alpha(dd.values)
        for l in tr.fps.order[::-1]:
            gamma[l] = np.maximum(gamma[l], dd.values[l])
            p = tr.fps.parent[l]
            gamma[p] = np.minimum(gamma[p], gamma[l])
        assert tr.gamma.values.tobytes() == gamma.tobytes()
        assert dd.values.tobytes() == before
        assert not tr.gamma.values.flags.writeable

    def test_sandwich_bound(self, rng):
        alpha = TranslationFunction.multiplicative(3)
        for _ in range(30):
            lam = random_dissimilarity(rng)
            gamma = truncation_result(DowkerDissimilarity(lam), alpha).gamma.values
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
        a = truncation_result(DowkerDissimilarity(lam), alpha).gamma.values
        b = truncation_result(DowkerDissimilarity(lam), alpha).gamma.values
        np.testing.assert_array_equal(a, b)


def _children_walk_gamma(lam, alpha_lam, tree):
    """Gamma by a leaves-first walk over child lists; the oracle for the order walk."""
    children = [[] for _ in range(len(tree))]
    for l, p in enumerate(tree.parent.tolist()):
        if l != p:
            children[p].append(l)
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
        # Each point witnesses itself at 0 against inf elsewhere, so every
        # off-diagonal cover entry is inf.
        lam = np.full((4, 4), INF)
        np.fill_diagonal(lam, 0.0)
        fps = farthest_point_sampling(lam, lam, 2)
        assert fps.order.tolist() == [2, 0, 1, 3]
        assert fps.parent.tolist() == [2, 2, 2, 2]
