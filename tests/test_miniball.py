import importlib
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsenerve.miniball import TOLERANCE, enclosing_radii, miniball
from sparsenerve.model import InputValidationError
from sparsenerve.nerve import _combinations, _facet_table, ambient_radii


# The batch kernels in their (rows, k, D) layout, reducing over the short
# trailing D axis: the oracle that the coordinate-major kernels must match
# bit for bit.
ORACLE_CHUNK = 1024


def oracle_holds(P, center, radius):
    if center.ndim == 2:
        center, radius = center[:, None, :], radius[:, None]
    return np.linalg.norm(P - center, axis=2) <= radius + TOLERANCE * (1.0 + radius)


def oracle_circumballs(Q):
    if Q.shape[1] == 1:
        return Q[:, 0], np.zeros(Q.shape[0])
    c = np.zeros_like(Q[:, 0])
    basis = []
    for i in range(1, Q.shape[1]):
        u = Q[:, i] - Q[:, 0]
        v = u
        for e in basis:
            v = v - np.sum(v * e, axis=1, keepdims=True) * e
        length = np.linalg.norm(v, axis=1, keepdims=True)
        e = v / length
        s = 0.5 * np.sum(u * u, axis=1, keepdims=True) - np.sum(u * c, axis=1, keepdims=True)
        c = c + (s / length) * e
        basis.append(e)
    return Q[:, 0] + c, np.linalg.norm(c, axis=1)


def oracle_enclosing_radii(X, simplices):
    X = np.asarray(X, dtype=float)
    S = np.asarray(simplices, dtype=np.intp)
    k = S.shape[1]
    subsets = [
        T for size in range(1, min(k, X.shape[1] + 1) + 1)
        for T in combinations(range(k), size)
    ]
    radii = np.empty(S.shape[0])
    centers = np.empty((S.shape[0], X.shape[1]))
    with np.errstate(all="ignore"):
        for start in range(0, S.shape[0], ORACLE_CHUNK):
            P = X[S[start : start + ORACLE_CHUNK]]
            best = np.full(P.shape[0], np.inf)
            best_center = np.full(P.shape[::2], np.nan)
            for T in subsets:
                center, radius = oracle_circumballs(P[:, T])
                better = oracle_holds(P, center, radius).all(axis=1) & (radius < best)
                best = np.where(better, radius, best)
                best_center[better] = center[better]
            radii[start : start + ORACLE_CHUNK] = best
            centers[start : start + ORACLE_CHUNK] = best_center
    return radii, centers


def oracle_facet_balls(X, S, facets, facet_radii, facet_centers):
    radii = np.empty(S.shape[0])
    centers = np.empty((S.shape[0], X.shape[1]))
    with np.errstate(all="ignore"):
        for start in range(0, S.shape[0], ORACLE_CHUNK):
            rows = S[start : start + ORACLE_CHUNK]
            f = facets[start : start + ORACLE_CHUNK]
            r = facet_radii[f]
            held = oracle_holds(X[rows[:, ::-1]], facet_centers[f], r)
            j = np.argmin(np.where(held, r, np.inf), axis=1)
            at = np.arange(len(rows))
            radius, center = r[at, j], facet_centers[f[at, j]]
            own = np.flatnonzero(~held.any(axis=1))
            if own.size:
                P = X[rows[own]]
                c, rr = oracle_circumballs(P)
                bad = ~(np.isfinite(c).all(axis=1) & oracle_holds(P, c, rr).all(axis=1))
                bad |= S.shape[1] > X.shape[1] + 1
                if bad.any():
                    rr[bad], c[bad] = oracle_enclosing_radii(X, rows[own[bad]])
                radius[own], center[own] = rr, c
            radii[start : start + ORACLE_CHUNK] = radius
            centers[start : start + ORACLE_CHUNK] = center
    return radii, centers


def oracle_ambient_radii(X, cells, facets):
    X = np.asarray(X, dtype=float)
    radii, centers = np.zeros(len(cells[0])), X[cells[0][:, 0]]
    values = [radii]
    for k in range(1, len(cells)):
        radii, centers = oracle_facet_balls(X, cells[k], facets[k], radii, centers)
        values.append(np.maximum(radii, values[-1][facets[k]].max(axis=1)))
    return np.concatenate(values)


class TestMiniball:
    def test_single_point(self):
        center, radius = miniball(np.array([[2.0, 3.0]]))
        assert radius == 0.0
        assert center.tolist() == [2.0, 3.0]

    def test_two_points(self):
        center, radius = miniball(np.array([[0.0, 0.0], [2.0, 0.0]]))
        assert radius == pytest.approx(1.0)
        assert center.tolist() == pytest.approx([1.0, 0.0])

    def test_equilateral_triangle(self):
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
        )
        _, radius = miniball(pts)
        assert radius == pytest.approx(1 / np.sqrt(3))

    def test_obtuse_triangle_uses_diameter(self):
        # the far pair determines the ball; the middle point is interior
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [2.0, 0.1]])
        center, radius = miniball(pts)
        assert radius == pytest.approx(2.0, abs=1e-9)
        assert center.tolist() == pytest.approx([2.0, 0.0], abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(InputValidationError):
            miniball(np.zeros((0, 2)))

    def test_all_points_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            pts = rng.normal(size=(rng.integers(1, 9), rng.integers(1, 4)))
            center, radius = miniball(pts)
            dists = np.linalg.norm(pts - center, axis=1)
            assert np.all(dists <= radius + 1e-9)

    def test_removing_interior_point_keeps_ball(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pts = rng.normal(size=(6, 2))
            center, radius = miniball(pts)
            dists = np.linalg.norm(pts - center, axis=1)
            interior = np.nonzero(dists < radius - 1e-6)[0]
            for i in interior:
                sub = np.delete(pts, i, axis=0)
                _, r2 = miniball(sub)
                assert r2 == pytest.approx(radius, abs=1e-6)

    def test_duplicate_points(self):
        pts = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        _, radius = miniball(pts)
        assert radius == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 3))
        r1 = miniball(pts)[1]
        r2 = miniball(pts)[1]
        assert r1 == r2

    def test_recursion_limit_untouched(self, monkeypatch):
        # 3,000 points would need a recursion depth of about 3,000 in the
        # recursive form; the loop form stays within dim + 2 levels.
        def forbidden(limit):
            raise AssertionError("miniball changed the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        limit = sys.getrecursionlimit()
        pts = np.random.default_rng(4).normal(size=(3000, 2))
        center, radius = miniball(pts)
        assert sys.getrecursionlimit() == limit
        assert np.all(np.linalg.norm(pts - center, axis=1) <= radius + 1e-9 * (1 + radius))


KINDS = ("grid", "float", "duplicate", "collinear", "cocircular", "needle", "jitter")


@st.composite
def point_sets(draw, kinds=KINDS, max_points=4, dims=(1, 4)):
    """k <= max_points points in R^D, D in ``dims``, with degeneracies, at a random scale.

    Grid points repeat and line up; ``duplicate`` copies one point onto
    another, ``collinear`` puts all points on one line, ``cocircular``
    on one circle in a coordinate plane, and ``needle`` spaces all points
    but one evenly on a unit circle (a segment for D = 2) and puts that one
    up to 1e5 away above its center, so that the edges from the apex are
    nearly parallel.  ``jitter`` moves grid points by a few times 1e-9,
    about the containment tolerance, so that near-duplicate and
    near-collinear sets are held or missed by a hair.
    """
    D, k = draw(st.integers(*dims)), draw(st.integers(1, max_points))
    scale = 10.0 ** draw(st.floats(-3, 3))
    grid = st.integers(-3, 3)
    kind = draw(st.sampled_from(kinds))
    if kind in ("float", "needle"):
        X = np.array(draw(st.lists(st.floats(-1, 1), min_size=k * D, max_size=k * D)))
    else:
        X = np.array(draw(st.lists(grid, min_size=k * D, max_size=k * D)), dtype=float)
    X = X.reshape(k, D)
    if kind == "jitter":
        steps = draw(st.lists(st.integers(-3, 3), min_size=k * D, max_size=k * D))
        X += 1e-9 * np.array(steps).reshape(k, D)
    elif kind == "duplicate":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        X[i] = X[j]
    elif kind == "collinear":
        steps = np.array(draw(st.lists(grid, min_size=k, max_size=k)), dtype=float)
        X = X[0] + steps[:, None] * (X[-1] - X[0])
    elif kind == "cocircular" and D >= 2:
        a, b = sorted(draw(st.lists(st.integers(0, D - 1), min_size=2, max_size=2, unique=True)))
        angles = np.pi / 6 * np.array(draw(st.lists(st.integers(0, 11), min_size=k, max_size=k)))
        X = np.repeat(X[:1], k, axis=0)
        X[:, a] += np.cos(angles)
        X[:, b] += np.sin(angles)
    elif kind == "needle" and D >= 2:
        turn = draw(st.floats(0, 1))
        angles = 2 * np.pi * (np.arange(k - 1) / max(k - 1, 1) + turn)
        X = np.zeros((k, D))
        X[:-1, 0] = np.cos(angles)
        if D >= 3:
            X[:-1, 1] = np.sin(angles)
        X[-1, -1] = 10.0 ** draw(st.floats(1, 5))
        X = np.roll(X, draw(st.integers(0, k - 1)), axis=0)
    return scale * X


class TestEnclosingRadii:
    @settings(max_examples=400, deadline=None)
    @given(X=point_sets())
    def test_matches_welzl(self, X):
        self.check_against_welzl(X)

    @settings(max_examples=200, deadline=None)
    @given(X=point_sets(kinds=("needle",)))
    def test_needles_match_welzl(self, X):
        self.check_against_welzl(X)

    @settings(max_examples=100, deadline=None)
    @given(X=point_sets(max_points=7, dims=(8, 9)))
    def test_eight_or_nine_axes_match_welzl(self, X):
        # From 8 axes up the coordinate sums follow numpy's eight partial sums.
        self.check_against_welzl(X)

    @staticmethod
    def check_against_welzl(X):
        k = X.shape[0]
        rows = np.array([np.arange(k), np.arange(k)[::-1]])
        expected = miniball(X)[1]
        radii, centers = enclosing_radii(X, rows)
        for r, c in zip(radii, centers):
            assert np.isfinite(r)
            assert abs(r - expected) <= 1e-9 * (1 + expected)
            assert np.all(np.linalg.norm(X - c, axis=1) <= r + 1e-9 * (1 + r))

    def test_needle_tetrahedron(self):
        # A far apex over a unit triangle: not flat, but its edge vectors
        # from the apex are nearly parallel.  By symmetry the smallest ball
        # passes through all four points.
        h = np.sqrt(3) / 2
        X = np.array(
            [[0.0, 0.0, 0.0], [h / 1.5, 0.0, 1e3], [-h / 3, 0.5, 1e3], [-h / 3, -0.5, 1e3]]
        )
        expected = miniball(X)[1]
        assert expected == pytest.approx(500.0 + 1 / 6000, rel=1e-12)
        rows = np.array([[0, 1, 2, 3], [1, 2, 3, 0], [3, 2, 1, 0]])
        assert enclosing_radii(X, rows)[0] == pytest.approx([expected] * 3, rel=1e-12)

    def test_batch_of_subsets(self, monkeypatch):
        # A budget of 24 coordinates is 8 rows of 1 point in R^3 down to 1
        # row of 5, so every cardinality spans several batches.
        monkeypatch.setattr(importlib.import_module("sparsenerve.miniball"), "CHUNK", 24)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(9, 3))
        for k in range(1, 6):
            simplices = np.array(list(combinations(range(9), k)))
            expected = [miniball(X[s])[1] for s in simplices]
            assert enclosing_radii(X, simplices)[0] == pytest.approx(expected, abs=1e-12)

    def test_empty_batch(self):
        radii, centers = enclosing_radii(np.zeros((3, 2)), np.zeros((0, 2), dtype=int))
        assert radii.shape == (0,) and centers.shape == (0, 2)

    def test_zero_dimensional_points(self):
        # The points of R^0 coincide, so every ball has radius 0.
        radii, centers = enclosing_radii(np.zeros((3, 0)), np.array([[0, 1], [1, 2]]))
        assert radii.tolist() == [0.0, 0.0] and centers.shape == (2, 0)


def skeleton(n, top=5):
    """Every vertex set of n points up to cardinality ``top``, and their facet table."""
    cells = [_combinations(n, k) for k in range(1, min(n, top) + 1)]
    return cells, _facet_table(cells)


def check_skeleton_against_welzl(X):
    """ambient_radii on every vertex set of X up to cardinality 5 against miniball.

    Welzl's ball may miss a point by its own slack, TOLERANCE * (1 + r), so
    its radius may fall short of the exact one by that much; the bound
    doubles the slack to leave room for rounding.
    """
    cells, facets = skeleton(X.shape[0])
    values = ambient_radii(X, cells, facets)
    parts = np.split(values, np.cumsum([len(c) for c in cells])[:-1])
    for rows, got in zip(cells, parts):
        for row, r in zip(rows, got):
            expected = miniball(X[row])[1]
            assert abs(r - expected) <= 2 * TOLERANCE * (1 + expected), (row, r, expected)
    for k in range(1, len(cells)):
        assert np.all(parts[k] >= parts[k - 1][facets[k]].max(axis=1))


class TestAmbientRadii:
    @settings(max_examples=300, deadline=None)
    @given(X=point_sets(max_points=7))
    # A near-collinear triple: a smaller facet ball holds the fourth vertex
    # by a hair, the largest one misses it, and the triple's own circumball
    # has a radius of about 1e9.
    @example(X=np.array([[-1, -1, -1], [-1, 0, -1], [0, 1, 0], [-1, 1, -1]])
             + 1e-9 * np.array([[0, 3, -1], [0, -2, -1], [-2, -3, 2], [-1, 3, -1]]))
    # On rows (0, 1, 3, 4, 5) and (1, 2, 3, 4, 5) the exact radius is
    # 2.0000000005; Welzl's ball, 1.9999999975, misses 1.000000001 by 3e-9,
    # within its slack, and falls short by just over 1e-9 * (1 + r).
    @example(X=np.array([[0.0], [1.000000001], [0.0], [0.999999998], [-3.0], [-2.999999997]]))
    def test_skeleton_matches_welzl(self, X):
        check_skeleton_against_welzl(X)

    @settings(max_examples=100, deadline=None)
    @given(X=point_sets(kinds=("needle", "cocircular", "duplicate", "jitter"), max_points=7))
    def test_degenerate_skeleton_matches_welzl(self, X):
        check_skeleton_against_welzl(X)

    @settings(max_examples=100, deadline=None)
    @given(X=point_sets(max_points=7, dims=(8, 9)))
    def test_eight_or_nine_axes_match_welzl(self, X):
        check_skeleton_against_welzl(X)

    def test_fallback_rows_match_welzl(self, monkeypatch):
        # Spoil the own circumball of every other row so that those rows go
        # to the all-subsets search, and check that their balls, carried up
        # to their cofaces, still give Welzl's radii.
        mb = importlib.import_module("sparsenerve.miniball")
        circumballs, search = mb._circumballs, mb._search
        searched = []  # rows per search
        searching = []  # non-empty inside a search, which builds true balls

        def spoiled(Q):
            center, radius = circumballs(Q)
            if not searching:
                center = center.copy()
                center[:, ::2] = np.nan  # (D, m) centers: every other row
            return center, radius

        def counted(XT, simplices):
            searched.append(len(simplices))
            searching.append(True)
            try:
                return search(XT, simplices)
            finally:
                searching.pop()

        monkeypatch.setattr(mb, "_circumballs", spoiled)
        monkeypatch.setattr(mb, "_search", counted)
        rng = np.random.default_rng(6)
        for D in (2, 3):
            # 10 * D coordinates: 5 rows of 2 points down to 2 rows of 5, so
            # every cardinality from 2 up spans several batches.
            monkeypatch.setattr(mb, "CHUNK", 10 * D)
            check_skeleton_against_welzl(rng.normal(size=(7, D)))
        assert sum(searched) > 0


def assert_same_as_oracle(X):
    """ambient_radii and enclosing_radii on X's skeleton equal the oracle's, bit for bit."""
    cells, facets = skeleton(X.shape[0])
    got = ambient_radii(X, cells, facets)
    assert got.tobytes() == oracle_ambient_radii(X, cells, facets).tobytes()
    for rows in cells:
        radii, centers = enclosing_radii(X, rows)
        expected_radii, expected_centers = oracle_enclosing_radii(X, rows)
        assert radii.tobytes() == expected_radii.tobytes()
        np.testing.assert_array_equal(centers, expected_centers)


class TestTrailingAxisOracle:
    @settings(max_examples=200, deadline=None)
    @given(X=point_sets(max_points=7, dims=(1, 9)))
    def test_point_sets(self, X):
        assert_same_as_oracle(X)

    @pytest.mark.parametrize("D", [1, 2, 7, 8, 9, 16, 17, 23, 128, 129, 300])
    def test_sums_follow_numpy(self, D):
        # Terms of mixed magnitude, so that another order rounds differently.
        rng = np.random.default_rng(D)
        Z = rng.normal(size=(50, D)) * 10.0 ** rng.integers(-8, 8, size=(50, D))
        got = importlib.import_module("sparsenerve.miniball")._sum_axes(Z.T.copy())
        assert got.tobytes() == np.sum(Z, axis=-1).tobytes()

    @pytest.mark.parametrize("D", range(1, 10))
    def test_clouds_in_small_batches(self, D, monkeypatch):
        # 10 points give up to 252 sets per cardinality; a budget of 40 * D
        # coordinates is 8 rows of 5 points, so they span many batches.
        monkeypatch.setattr(importlib.import_module("sparsenerve.miniball"), "CHUNK", 40 * D)
        assert_same_as_oracle(np.random.default_rng(D).normal(size=(10, D)))
