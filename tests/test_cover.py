import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenerve import cover
from sparsenerve.cover import cover_column, cover_matrix
from sparsenerve.model import INF, InputValidationError

from conftest import ENTRY_POOL, multi_block_dissimilarity, random_dissimilarity, record_blocks


def cover_matrix_oracle(lam1, lam2):
    """Triple-loop transcription of the sup-set definition: rows of lam2
    against rows of lam1."""
    lam1 = np.asarray(lam1, float)
    lam2 = np.asarray(lam2, float)
    m = lam1.shape[1]
    rho = np.zeros((lam2.shape[0], lam1.shape[0]))
    for l in range(lam2.shape[0]):
        for lp in range(lam1.shape[0]):
            vals = [lam1[lp, w] for w in range(m) if lam2[l, w] < lam1[lp, w]]
            rho[l, lp] = max(vals) if vals else 0.0
    return rho


class TestCoverMatrix:
    def test_three_point_line(self):
        lam = [[0, 1, 3], [1, 0, 2], [3, 2, 0]]
        expected = [[0, 1, 3], [3, 0, 3], [3, 2, 0]]
        assert cover_matrix(lam).tolist() == expected

    def test_all_zeros(self):
        assert cover_matrix(np.zeros((3, 4))).tolist() == np.zeros((3, 3)).tolist()

    def test_single_point(self):
        assert cover_matrix([[0.0, 2.0]]).tolist() == [[0.0]]

    def test_zero_diagonal_single_argument(self):
        rng = np.random.default_rng(5)
        lam = rng.uniform(0, 9, size=(6, 4))
        assert np.all(np.diagonal(cover_matrix(lam)) == 0)

    def test_infinite_entries_propagate(self):
        lam1 = np.array([[0.0, INF], [1.0, 0.0]])
        lam2 = np.array([[0.0, 1.0], [1.0, 0.0]])
        rho = cover_matrix(lam1, lam2)
        assert np.isinf(rho[1, 0])  # lam2(1,1)=0 < lam1(0,1)=inf

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            cover_matrix(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_matches_oracle_on_random_instances(self, rng):
        for _ in range(60):
            lam1 = random_dissimilarity(rng)
            lam2 = rng.choice(
                [0.0, 1.0, 2.0, 3.0, np.inf], size=lam1.shape,
                p=[0.15, 0.3, 0.25, 0.2, 0.1],
            )
            np.testing.assert_array_equal(
                cover_matrix(lam1, lam2), cover_matrix_oracle(lam1, lam2)
            )
            np.testing.assert_array_equal(
                cover_matrix(lam1), cover_matrix_oracle(lam1, lam1)
            )
            # Row sets of different sizes over the same witnesses.
            lam3 = rng.choice(ENTRY_POOL, size=(int(rng.integers(1, 9)), lam1.shape[1]))
            rho = cover_matrix(lam1, lam3)
            assert rho.shape == (lam3.shape[0], lam1.shape[0])
            np.testing.assert_array_equal(rho, cover_matrix_oracle(lam1, lam3))

    def test_row_subsets_are_blocks(self, rng):
        for _ in range(30):
            l1 = random_dissimilarity(rng)
            l2 = rng.choice(ENTRY_POOL, size=l1.shape)
            n = l1.shape[0]
            a = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            b = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            np.testing.assert_array_equal(
                cover_matrix(l1[a], l2[b]), cover_matrix(l1, l2)[np.ix_(b, a)]
            )

    def test_row_blocks_match_one_pass(self, monkeypatch):
        # Lambda2's rows span several blocks; every column equals the
        # masked max over all of them at once, bit for bit.
        lam2 = multi_block_dissimilarity(1)
        lam1 = multi_block_dissimilarity(2)[:6]
        blocks = record_blocks(monkeypatch, cover)
        rho = cover_matrix(lam1, lam2)
        assert min(blocks) > 1
        for lp, row in enumerate(lam1):
            np.testing.assert_array_equal(rho[:, lp], np.where(lam2 < row, row, 0.0).max(axis=1))

    def test_listed_rows_match_one_pass(self, monkeypatch):
        # More listed rows than one block, out of order and repeated.
        lam2 = multi_block_dissimilarity(3)
        rows = np.random.default_rng(4).integers(0, len(lam2), size=500)
        row = multi_block_dissimilarity(5)[0]
        blocks = record_blocks(monkeypatch, cover)
        col = cover_column(row, lam2, rows)
        assert blocks[0] > 1
        np.testing.assert_array_equal(col, np.where(lam2[rows] < row, row, 0.0).max(axis=1))

    def test_zero_rows_in_second_argument(self):
        rho = cover_matrix(np.zeros((3, 4)), np.zeros((0, 4)))
        assert rho.shape == (0, 3)


@st.composite
def small_matrices(draw):
    n = draw(st.integers(2, 5))
    m = draw(st.integers(2, 5))
    entries = st.floats(0.0, 10.0, allow_nan=False)
    return np.array(
        [[draw(entries) for _ in range(m)] for _ in range(n)]
    )


class TestCoverMatrixProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices(), st.floats(0.0, 3.0, allow_nan=False))
    def test_inflating_second_argument_shrinks_rho(self, lam, shift):
        # Growing Lambda2 entrywise can only shrink the strict-inequality set.
        lo = cover_matrix(lam, lam)
        hi = cover_matrix(lam, lam + shift)
        assert np.all(hi <= lo)

    @settings(max_examples=60, deadline=None)
    @given(small_matrices())
    def test_entries_come_from_first_argument(self, lam):
        rho = cover_matrix(lam)
        allowed = set(lam.ravel().tolist()) | {0.0}
        assert set(rho.ravel().tolist()) <= allowed
