import dataclasses
import re
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsenerve import nerve
from sparsenerve.ingest import (
    PointCloud,
    distance_matrix,
    generate_graph,
    sample_clifford_torus,
    shortest_path_matrix,
)
from sparsenerve.miniball import miniball
from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    SizeLimitError,
    TranslationFunction,
)
from sparsenerve.nerve import (
    _monotone_snap,
    ambient_cech_nerve,
    expand_skeleton,
    filtration_values,
    full_ambient_cech,
    full_dowker_nerve,
    make_filtered_complex,
    maximal_faces,
    skeleton_size,
    slope_points,
    sparse_dowker_nerve,
)
from sparsenerve.persistence import compute_persistence, diagram_interleaving_check

from conftest import facet_lists, random_dissimilarity, values_of

LINE3 = np.array([[0.0, 1, 3], [1, 0, 2], [3, 2, 0]])
# LINE3's restriction times at alpha = id.
LINE3_TIMES = RestrictionTimes(times=np.array([INF, 3.0, 2.0]), tree=ParentFunction(parent=[0, 0, 1]))


class TestSlopePoints:
    def test_star_tree_finite_leaves(self):
        phi = ParentFunction(parent=[1, 1, 1])
        R = RestrictionTimes(times=np.array([1.0, INF, 2.0]), tree=phi)
        assert slope_points(phi, R) == frozenset({0, 2})

    def test_all_infinite_gives_none(self):
        phi = ParentFunction(parent=[0, 0])
        R = RestrictionTimes(times=np.array([INF, INF]), tree=phi)
        assert slope_points(phi, R) == frozenset()

    def test_single_point(self):
        phi = ParentFunction(parent=[0])
        R = RestrictionTimes(times=np.array([INF]), tree=phi)
        assert slope_points(phi, R) == frozenset()

    def test_dominated_parent_excluded(self):
        # node 1 shares its restriction time with its child: not a slope point
        phi = ParentFunction(parent=[0, 0, 1])
        R = RestrictionTimes(times=np.array([INF, 2.0, 2.0]), tree=phi)
        assert slope_points(phi, R) == frozenset({2})

    def test_matches_a_loop_over_children(self, rng):
        # Random trees, rooted at 0, with times that tie, repeat and run to inf.
        for _ in range(50):
            n = int(rng.integers(1, 30))
            parent = [0] + [int(rng.integers(0, i)) for i in range(1, n)]
            times = [INF]
            for i in range(1, n):
                up = times[parent[i]]
                if rng.integers(3) == 0:
                    times.append(up)
                elif np.isinf(up):
                    times.append(float(rng.integers(0, 4)))
                else:
                    times.append(up * float(rng.integers(0, 3)) / 2)
            phi = ParentFunction(parent=parent)
            R = RestrictionTimes(times=np.array(times), tree=phi)
            children = [[c for c in range(1, n) if parent[c] == l] for l in range(n)]
            expected = {
                l for l in range(n)
                if np.isfinite(times[l]) and max((times[c] for c in children[l]), default=0.0) < times[l]
            }
            assert slope_points(phi, R) == frozenset(expected)


class TestMaximalFaces:
    def test_single_cell(self):
        phi = ParentFunction(parent=[0])
        R = RestrictionTimes(times=np.array([INF]), tree=phi)
        faces = maximal_faces(np.zeros((1, 1)), R, frozenset({0}))
        assert _face_sets(faces) == [frozenset({0})]

    def test_infinite_gamma_gives_singletons(self):
        phi = ParentFunction(parent=[0, 0])
        R = RestrictionTimes(times=np.array([INF, INF]), tree=phi)
        gamma = np.array([[0.0, INF], [INF, 0.0]])
        faces = _face_sets(maximal_faces(gamma, R, frozenset({0, 1})))
        assert sorted(faces, key=sorted) == [frozenset({0}), frozenset({1})]

    def test_subset_dominated_faces_dropped(self, rng):
        lam = random_dissimilarity(rng)
        result = sparse_dowker_nerve(
            DowkerDissimilarity(lam), TranslationFunction.identity(), 1
        )
        faces = _face_sets(maximal_faces(
            result.gamma.values,
            result.restriction,
            slope_points(result.phi, result.restriction),
        ))
        for f in faces:
            assert not any(f < g for g in faces if g is not f)

    def test_ties_follow_descending_time(self):
        # Landmark 0 (R = 1) emits {0, 1} at witness 0 and the never-restricted
        # landmarks 1 and 2 emit {1, 2} at witness 1: of the two equal-size
        # faces, the later landmark's comes first, as its time is larger.
        R = RestrictionTimes(times=np.array([1.0, INF, INF]), tree=ParentFunction(parent=[1, 1, 1]))
        gamma = np.array([[0.0, INF], [1.0, 0.0], [INF, 0.0]])
        faces = _face_sets(maximal_faces(gamma, R, frozenset()))
        assert faces == [frozenset({1, 2}), frozenset({0, 1})]
        assert faces == _quadratic_maximal_faces(gamma, R.times, frozenset())

    def test_one_emission_per_restriction_time(self):
        # 11 distinct times among 100 landmarks: one packed block per time,
        # not one per landmark.
        result = sparse_dowker_nerve(
            shortest_path_matrix(generate_graph("cycle", nodes=100)),
            TranslationFunction.parse("mult:3"), 1,
        )
        R = result.restriction
        S = slope_points(result.phi, R)
        with mock.patch.object(nerve.np, "packbits", wraps=np.packbits) as packs:
            faces = maximal_faces(result.gamma.values, R, S)
        assert len(np.unique(R.times)) == packs.call_count == 11
        assert _face_sets(faces) == _quadratic_maximal_faces(result.gamma.values, R.times, S)

    @pytest.mark.parametrize("S", [frozenset({-1}), frozenset({7})])
    def test_slope_point_outside_the_landmarks(self, S):
        with pytest.raises(InputValidationError, match=r"outside range\(3\)"):
            maximal_faces(LINE3, LINE3_TIMES, S)

    def test_times_of_another_landmark_count(self):
        R = RestrictionTimes(times=np.array([INF]), tree=ParentFunction(parent=[0]))
        with pytest.raises(InputValidationError, match="1 restriction times for 3 landmarks"):
            maximal_faces(LINE3, R, frozenset())


def _face_sets(faces):
    """The rows of a ``Faces`` record as frozensets, in order, as the oracle lists them."""
    return [frozenset(row) for rows in faces.rows for row in rows.tolist()]


def _faces(sets):
    """A ``Faces`` record of vertex sets: one sorted array per size, largest first."""
    by_size = {}
    for f in sets:
        by_size.setdefault(len(f), []).append(sorted(f))
    return nerve.Faces(tuple(
        np.array(by_size[m], dtype=np.int64) for m in sorted(by_size, reverse=True)
    ))


def _quadratic_maximal_faces(gamma, times, S):
    """Oracle: one emission per (distinct time t, witness w within t of one
    of t's landmarks), times descending, witnesses ascending; then a
    pairwise containment filter.

    Returns the faces largest first, ties in order of first emission.
    """
    g = np.asarray(gamma, dtype=float)
    n = g.shape[0]
    s_mask = np.zeros(n, dtype=bool)
    s_mask[list(S)] = True
    slope_ok = ~s_mask[:, None] | (g < times[:, None])
    finite = np.isfinite(g)
    seen = set()
    faces = []
    for t in sorted(set(times.tolist()), reverse=True):
        member = (times >= t)[:, None] & (g <= t) & finite & slope_ok
        for w in np.nonzero((g[times == t] <= t).any(axis=0))[0]:
            col = member[:, w]
            key = col.tobytes()
            if key in seen or not col.any():
                continue
            seen.add(key)
            faces.append(frozenset(np.nonzero(col)[0].tolist()))
    faces.sort(key=len, reverse=True)
    kept = []
    for f in faces:
        if not any(f < g_ for g_ in kept):
            kept.append(f)
    return kept


@st.composite
def face_inputs(draw, max_rows=7, time_values=(0.0, 1.0, 2.0, 3.0, INF)):
    """Rectangular integer Gamma with ties and inf, restriction times, slope set."""
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_rows + 1).filter(lambda c: c != rows))
    entries = st.sampled_from([0.0, 1.0, 1.0, 2.0, 3.0, INF])
    gamma = np.reshape(
        draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), (rows, cols)
    )
    gamma[draw(st.lists(st.integers(0, rows - 1), max_size=max_rows // 3))] = INF
    parent = [0] + [draw(st.integers(0, i - 1)) for i in range(1, rows)]
    times = [INF]
    for i in range(1, rows):
        t = draw(st.sampled_from(time_values))
        times.append(min(t, times[parent[i]]))
    R = RestrictionTimes(times=np.array(times), tree=ParentFunction(parent=parent))
    S = frozenset(draw(st.sets(st.integers(0, rows - 1))))
    return gamma, R, S


class TestMaximalFacesOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=face_inputs(), chunk=st.sampled_from([1, 2, 1 << 16]))
    def test_matches_quadratic_filter(self, case, chunk):
        gamma, R, S = case
        with mock.patch.object(nerve, "_CHUNK_CELLS", chunk):
            faces = _face_sets(maximal_faces(gamma, R, S))
        assert faces == _quadratic_maximal_faces(gamma, R.times, S)

    @settings(max_examples=200, deadline=None)
    @given(case=face_inputs(max_rows=14, time_values=(1.0, INF, INF)))
    def test_shared_restriction_times(self, case):
        # Many landmarks share each time, most of them R = inf, and whole
        # rows are inf as for isolated graph nodes: a face emitted once per
        # (R(l), w) must still come out in first-emission order.
        gamma, R, S = case
        faces = _face_sets(maximal_faces(gamma, R, S))
        assert faces == _quadratic_maximal_faces(gamma, R.times, S)

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_column_empty(self, n):
        # Only the root's infinite time admits witnesses, and no entry is finite.
        R = RestrictionTimes(
            times=np.array([INF] + [0.0] * (n - 1)), tree=ParentFunction(parent=[0] * n)
        )
        gamma = np.full((n, n + 2), INF)
        assert _quadratic_maximal_faces(gamma, R.times, frozenset()) == []
        assert _face_sets(maximal_faces(gamma, R, frozenset())) == []

    @pytest.mark.parametrize("alpha", ["mult:1.5", "mult:3"])
    def test_torus_matches_quadratic_filter(self, alpha):
        # Hundreds of distinct faces, so the bitsets span several words; a
        # small chunk runs the containment pass in many chunks.
        result = sparse_dowker_nerve(
            distance_matrix(sample_clifford_torus(120, 0)),
            TranslationFunction.parse(alpha), 1,
        )
        R = result.restriction
        S = slope_points(result.phi, R)
        oracle = _quadratic_maximal_faces(result.gamma.values, R.times, S)
        for chunk in (64, 1 << 16):
            with mock.patch.object(nerve, "_CHUNK_CELLS", chunk):
                assert _face_sets(maximal_faces(result.gamma.values, R, S)) == oracle


class TestFilteredComplex:
    def test_check_accepts_valid(self):
        K = make_filtered_complex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0}, dim_cap=1)
        K.check()

    def test_check_rejects_missing_face(self):
        # Every complex is checked where it is built.
        with pytest.raises(InputValidationError, match=r"missing face \(1,\) of \(0, 1\)"):
            make_filtered_complex({(0,): 0.0, (0, 1): 1.0}, dim_cap=1)

    def test_check_rejects_non_monotone(self):
        with pytest.raises(InputValidationError, match=r"not monotone: \(1,\) > \(0, 1\)"):
            make_filtered_complex({(0,): 0.0, (1,): 2.0, (0, 1): 1.0}, dim_cap=1)

    def test_no_construction_skips_the_checks(self):
        K = make_filtered_complex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0}, dim_cap=1)
        with pytest.raises(InputValidationError, match=r"not monotone: \(1,\) > \(0, 1\)"):
            dataclasses.replace(K, values=np.array([0.0, 2.0, 1.0]))
        with pytest.raises(InputValidationError, match=r"not sorted at \(1,\) -> \(0,\)"):
            dataclasses.replace(K, cells=(K.cells[0][::-1], K.cells[1]))
        with pytest.raises(TypeError):
            nerve.FilteredComplex(K.cells, K.dims, np.array([0.0, 2.0, 1.0]), 1, K.facets)
        with pytest.raises(TypeError):
            nerve.FilteredComplex(K.cells, K.dims, K.values, 1, facets=K.facets)
        assert _tables_equal(dataclasses.replace(K).facets, K.facets)

    def test_nan_value_rejected(self):
        # A NaN value would reach the diagram as the point (0, nan, inf).
        with pytest.raises(InputValidationError, match="NaN"):
            make_filtered_complex({(0,): 0.0, (1,): float("nan")}, dim_cap=0)
        with pytest.raises(InputValidationError, match="NaN"):
            nerve.FilteredComplex(cells=([(0,)],), dims=[0], values=[np.nan], dim_cap=0)

    def test_negative_dims_rejected(self):
        with pytest.raises(InputValidationError, match="disagree"):
            nerve.FilteredComplex(cells=([(0,)],), dims=[-1], values=[0.0], dim_cap=0)

    def test_misshaped_cells_rejected(self):
        with pytest.raises(InputValidationError, match=r"shape \(1, 3\)"):
            nerve.FilteredComplex(
                cells=([(0,), (1,)], [(0, 1, 2)]), dims=[0, 0, 1], values=[0.0, 0.0, 1.0],
                dim_cap=1,
            )
        with pytest.raises(InputValidationError, match=r"shape \(2,\)"):
            make_filtered_complex([np.array([[0]]), np.array([0, 1])], [0.0, 1.0], dim_cap=1)

    def test_empty_simplex_rejected(self):
        with pytest.raises(InputValidationError, match="empty simplex"):
            make_filtered_complex({(): 0.0, (0,): 0.0}, dim_cap=0)

    def test_sorted_by_value_then_cardinality(self):
        K = make_filtered_complex(
            {(0,): 0.0, (1,): 0.0, (0, 1): 0.0, (2,): 1.0}, dim_cap=1
        )
        assert K.simplices == ((0,), (1,), (0, 1), (2,))

    def test_sort_matches_keyed_sort_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            simplices = [s for k in range(1, 5) for s in combinations(range(n), k)]
            rng.shuffle(simplices)
            ties = dict(zip(simplices, rng.choice([0.0, 1.0, 2.0, INF], size=len(simplices))))
            # Lifted to the maximum over each simplex's faces: tied, and
            # monotone, as a complex's values must be.
            value_by_simplex = {
                s: max(ties[f] for k in range(1, len(s) + 1) for f in combinations(s, k))
                for s in simplices
            }
            K = make_filtered_complex(value_by_simplex, dim_cap=3)
            # Oracle: an explicit (value, cardinality, vertices) sort key.
            oracle = sorted(
                value_by_simplex.items(), key=lambda sv: (sv[1], len(sv[0]), sv[0])
            )
            assert K.simplices == tuple(s for s, _ in oracle)
            assert K.values.tolist() == [v for _, v in oracle]


def test_monotone_snap_matches_dict_walk(rng):
    for _ in range(20):
        n = int(rng.integers(1, 7))
        cells = [
            np.array(list(combinations(range(n), k)), int).reshape(-1, k) for k in range(1, 4)
        ]
        simplices = [tuple(row) for c in cells for row in c.tolist()]
        values = rng.integers(0, 4, size=len(simplices)).astype(float).tolist()
        oracle = {}
        for s, v in zip(simplices, values):
            for face in combinations(s, len(s) - 1) if len(s) > 1 else ():
                v = max(v, oracle[face])
            oracle[s] = v
        assert _monotone_snap(values, nerve._facet_table(cells)).tolist() == list(oracle.values())


class TestSkeletonSize:
    def test_table_values(self):
        assert skeleton_size(100, 1) == 166750
        assert skeleton_size(1, 0) == 1

    def test_ten_dimensional_count(self):
        assert skeleton_size(100, 10) == pytest.approx(1.2e15, rel=0.05)

    def test_small_exhaustive(self):
        # n=4, d=1: 4 vertices + 6 edges + 4 triangles
        assert skeleton_size(4, 1) == 14


class TestExpandSkeleton:
    def test_expansion(self):
        s = expand_skeleton(_faces([frozenset({0, 1, 2})]), 1)
        assert len(s) == 7
        assert _rows_of(s) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]

    def test_budget_enforced(self):
        with pytest.raises(SizeLimitError):
            expand_skeleton(_faces([frozenset(range(40))]), 10, max_simplices=1000)

    @pytest.mark.parametrize("block", [1, 1 << 16])
    def test_budget_counts_the_union(self, block):
        # Ten disjoint triangles: 7 simplices each at d = 1, 70 in all. A
        # block of 1 checks the budget after about every extended row.
        faces = [frozenset({3 * i, 3 * i + 1, 3 * i + 2}) for i in range(10)]
        with mock.patch.object(nerve, "_CHUNK_CELLS", block):
            assert len(expand_skeleton(_faces(faces * 3), 1, max_simplices=70)) == 70
            with pytest.raises(SizeLimitError):
                expand_skeleton(_faces(faces), 1, max_simplices=69)


def _rows_of(skeleton):
    """A skeleton's simplices as tuples, cardinality after cardinality."""
    return [tuple(row) for c in skeleton.cells for row in c.tolist()]


def _set_expansion(faces, d):
    """Oracle: every subset of cardinality <= d + 2 of the faces, as tuples."""
    simplices = set()
    for f in faces:
        base = tuple(sorted(f))
        for k in range(1, min(len(base), d + 2) + 1):
            simplices.update(combinations(base, k))
    return simplices


def _dict_facets(simplices):
    """Oracle: positions of each simplex's facets by dict lookup, in combinations order."""
    index = {s: i for i, s in enumerate(simplices)}
    return [
        tuple(index[f] for f in combinations(s, len(s) - 1)) if len(s) > 1 else ()
        for s in simplices
    ]


def _tied_values(simplices, seed):
    """Monotone values in {0, 1, 2}: the largest weight of a vertex or an edge of s."""
    def weight(t):
        return hash((seed, t)) % 3

    return {
        s: max(weight(t) for k in (1, 2) for t in combinations(s, k)) for s in simplices
    }


def _check_against_oracle(faces, d, seed):
    skeleton = expand_skeleton(_faces(faces), d)
    oracle = _set_expansion(faces, d)
    assert len(skeleton) == len(oracle)
    assert _rows_of(skeleton) == sorted(oracle, key=lambda s: (len(s), s))
    value_of = _tied_values(oracle, seed)
    # The expansion's own facet table, made chunk by chunk, is used as it is.
    K = make_filtered_complex(skeleton, [value_of[s] for s in _rows_of(skeleton)], dim_cap=d + 1)
    order = sorted(oracle, key=lambda s: (value_of[s], len(s), s))
    assert K.simplices == tuple(order)
    assert K.values.tolist() == [value_of[s] for s in order]
    assert facet_lists(K.facets, K.dims) == _dict_facets(order)
    from_dict = make_filtered_complex(value_of, dim_cap=d + 1)
    assert from_dict.simplices == K.simplices
    assert np.array_equal(from_dict.values, K.values)


def _assert_round_trips(K):
    """The constructor, given K's cells, dims and values, builds K again,
    field for field, its facet table byte for byte."""
    L = nerve.FilteredComplex(K.cells, K.dims, K.values, K.dim_cap)
    assert L.dim_cap == K.dim_cap
    for field in ("cells", "facets"):
        assert _tables_equal(getattr(L, field), getattr(K, field))
    for field in ("dims", "values"):
        a, b = getattr(L, field), getattr(K, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert not any(a.flags.writeable for a in (*L.cells, *L.facets, L.dims, L.values))


@st.composite
def face_families(draw):
    """Overlapping faces on a few vertex labels, at times shifted up near 10**5 or 2**40."""
    n = draw(st.integers(1, 9))
    offset = draw(st.sampled_from([0, 99_990, 2**40]))
    face = st.sets(st.integers(0, n - 1), min_size=1, max_size=6)
    faces = draw(st.lists(face, min_size=1, max_size=8))
    return [frozenset(offset + v for v in f) for f in faces]


class TestArrayComplexOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        faces=face_families(),
        d=st.integers(0, 3),
        seed=st.integers(0, 3),
        chunk=st.sampled_from([1, 2, 5, 1 << 16]),
    )
    def test_matches_tuple_oracle(self, faces, d, seed, chunk):
        # A tiny _CHUNK_CELLS extends about one row per chunk.
        with mock.patch.object(nerve, "_CHUNK_CELLS", chunk):
            _check_against_oracle(faces, d, seed)

    @settings(max_examples=200, deadline=None)
    @given(faces=face_families(), d=st.integers(0, 3), data=st.data())
    def test_budget_is_the_union_size(self, faces, d, data):
        # Raises exactly when the expansion holds more than b simplices.
        size = len(_set_expansion(faces, d))
        b = data.draw(st.sampled_from([size - 1, size]) | st.integers(0, 2 * size))
        if size > b:
            with pytest.raises(SizeLimitError):
                expand_skeleton(_faces(faces), d, max_simplices=b)
        else:
            assert len(expand_skeleton(_faces(faces), d, max_simplices=b)) == size

    @settings(max_examples=200, deadline=None)
    @given(faces=face_families(), d=st.integers(0, 3), seed=st.integers(0, 3), data=st.data())
    def test_constructor_round_trips_and_names_a_swapped_pair(self, faces, d, seed, data):
        skeleton = expand_skeleton(_faces(faces), d)
        value_of = _tied_values(_rows_of(skeleton), seed)
        K = make_filtered_complex(
            skeleton.cells, [value_of[s] for s in _rows_of(skeleton)], dim_cap=d + 1
        )
        _assert_round_trips(K)
        assume(len(K) > 1)
        # Two neighbours swapped: their order is the only fault, named as given.
        i = data.draw(st.integers(0, len(K) - 2))
        perm = np.arange(len(K))
        perm[[i, i + 1]] = i + 1, i
        simplices = [K.simplices[j] for j in perm]
        cells = [[s for s in simplices if len(s) == p + 1] for p in range(len(K.cells))]
        pair = re.escape(f"not sorted at {K.simplices[i + 1]} -> {K.simplices[i]}")
        with pytest.raises(InputValidationError, match=f"^{pair}$"):
            nerve.FilteredComplex(cells, K.dims[perm], K.values[perm], K.dim_cap)

    def test_wide_keys_at_large_labels(self):
        # Lexicographic ranks of 5- and 6-subsets of 10**5 labels overflow
        # int64; keys by prefix row and last vertex do not grow with the labels.
        rng = np.random.default_rng(5)
        labels = np.arange(99_980, 100_000)
        sizes = rng.integers(3, 9, size=10).tolist()
        faces = [frozenset(rng.choice(labels, size=m, replace=False).tolist()) for m in sizes]
        _check_against_oracle(faces, 4, 0)


def _combinations_facets(cells):
    """Oracle: each row's facets, in combinations order, by dict lookup one cardinality down."""
    table = [np.empty((len(cells[0]), 0), np.intp)]
    for k in range(1, len(cells)):
        position = {tuple(row): r for r, row in enumerate(cells[k - 1].tolist())}
        rows = [[position[f] for f in combinations(row, k)] for row in cells[k].tolist()]
        table.append(np.array(rows, np.intp).reshape(-1, k + 1))
    return table


def _tables_equal(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
        for x, y in zip(a, b)
    )


class TestFacetTable:
    def test_carried_by_pipeline_complexes(self, rng):
        for _ in range(10):
            lam = random_dissimilarity(rng)
            _assert_round_trips(full_dowker_nerve(lam, 2))
            _assert_round_trips(
                sparse_dowker_nerve(DowkerDissimilarity(lam), TranslationFunction.identity(), 2).complex
            )
        X = sample_clifford_torus(30, 0).points
        _assert_round_trips(ambient_cech_nerve(X, TranslationFunction.identity(), 2))

    def test_tables_are_made_once(self):
        # The pipeline makes its table once, inside the expansion;
        # persistence reads it and checks nothing; make_filtered_complex
        # makes one only for cells that do not carry one.
        dd = distance_matrix(sample_clifford_torus(40, 0))
        with (
            mock.patch.object(nerve, "_facet_table", wraps=nerve._facet_table) as tables,
            mock.patch.object(nerve, "_lex_steps", wraps=nerve._lex_steps) as steps,
        ):
            K = sparse_dowker_nerve(dd, TranslationFunction.multiplicative(1.5), 2).complex
            # Only the expansion knows the rows' prefixes.
            assert tables.call_count == 1
            assert tables.call_args.kwargs["trie"] is not None
            tables.reset_mock()
            steps.reset_mock()
            compute_persistence(K, 2)
            assert tables.call_count == steps.call_count == 0
        faces = _faces([frozenset(range(5)), frozenset({3, 4, 5, 6}), frozenset({0, 6, 9})])
        with mock.patch.object(nerve, "_facet_table", wraps=nerve._facet_table) as tables:
            skeleton = expand_skeleton(faces, 2)
            assert tables.call_count == 1
            values = filtration_values(dd, skeleton.cells)
            carried = make_filtered_complex(skeleton, values, dim_cap=3)
            assert tables.call_count == 1
            built = make_filtered_complex(skeleton.cells, values, dim_cap=3)
            assert tables.call_count == 2
            by_hand = make_filtered_complex(nerve.Skeleton(skeleton.cells), values, dim_cap=3)
            assert tables.call_count == 3
        for K in (built, by_hand):
            for field in ("cells", "facets"):
                assert _tables_equal(getattr(K, field), getattr(carried, field))
            assert K.values.tobytes() == carried.values.tobytes()

    def test_no_skeleton_skips_the_checks(self):
        # Only the expansion hands over a table; every other skeleton, and
        # raw cells, are checked where the complex is built.
        cells = [np.array([[0], [0]]), np.array([[0, 0]])]
        table = (np.empty((2, 0), np.intp), np.array([[0, 1]]))
        with pytest.raises(TypeError):
            make_filtered_complex(cells, [0.0, 0.0, 1.0], dim_cap=1, facets=table)
        for given in (cells, nerve.Skeleton(cells)):
            with pytest.raises(InputValidationError, match=r"^duplicate simplex \(0,\)$"):
                make_filtered_complex(given, [0.0, 0.0, 1.0], dim_cap=1)
        with pytest.raises(TypeError):
            nerve.Skeleton(cells, ())
        skeleton = expand_skeleton(_faces([frozenset({0, 1, 2}), frozenset({2, 3})]), 1)
        assert dataclasses.replace(skeleton).facets is None
        assert len(skeleton.facets) == len(skeleton.cells) == 3
        for a in (*skeleton.cells, *skeleton.facets):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        empty = expand_skeleton(nerve.Faces(()), 1)
        assert [a.shape for a in (*empty.cells, *empty.facets)] == [(0, 1), (0, 0)]
        assert not any(a.flags.writeable for a in (*empty.cells, *empty.facets))

    def test_wide_rows_match_combinations(self):
        # Labels whose 5-subsets have lexicographic ranks past 2**63.
        labels = [0, 7, 99_990, 99_993, 99_995, 99_998, 99_999]
        cells = [np.array(list(combinations(labels, k))) for k in range(1, 7)]
        assert _tables_equal(nerve._facet_table(cells), _combinations_facets(cells))

    @settings(max_examples=200, deadline=None)
    @given(faces=face_families(), d=st.integers(0, 4), chunk=st.sampled_from([1, 5, 1 << 16]))
    def test_expansion_and_derived_tables_match_combinations(self, faces, d, chunk):
        # The expansion's table, made from the rows it extended chunk by
        # chunk, equals the one derived by searches from the cells alone.
        with mock.patch.object(nerve, "_CHUNK_CELLS", chunk):
            skeleton = expand_skeleton(_faces(faces), d)
        assert _tables_equal(skeleton.facets, _combinations_facets(skeleton.cells))
        assert _tables_equal(nerve._facet_table(skeleton.cells), skeleton.facets)

    def test_labels_near_2_to_the_62(self):
        # Keys do not grow with the labels: no table or key is sized by them.
        K = make_filtered_complex({(0,): 0.0, (2**62,): 0.0, (0, 2**62): 1.0}, dim_cap=1)
        assert [f.tolist() for f in K.facets] == [[[], []], [[0, 1]]]
        assert compute_persistence(K, 1).points == ((0, 0.0, 1.0), (0, 0.0, INF))

    @pytest.mark.parametrize(
        "cells, message",
        [
            ([[[1], [0]]], r"not in lexicographic order at \(1,\) -> \(0,\)"),
            ([[[0], [0]]], r"duplicate simplex \(0,\)"),
            ([[[0], [1]], [[1, 0]]], "not increasing"),
            ([[[0], [1]], [[0, 1], [0, 2]]], r"missing face \(2,\) of \(0, 2\)"),
            ([[[0], [1]], [[0, 1]], [[0, 1, 2]]], r"missing face \(0, 2\) of"),
            (
                [[[99_990 + v] for v in range(5)], [], [], [], [list(range(99_990, 99_995))]],
                "missing face",
            ),
        ],
    )
    def test_rejects(self, cells, message):
        cells = [np.array(c, dtype=np.int64).reshape(-1, p + 1) for p, c in enumerate(cells)]
        with pytest.raises(InputValidationError, match=message):
            nerve._facet_table(cells)

    def test_unordered_cells_rejected(self):
        # make_filtered_complex takes each cardinality's rows in
        # lexicographic order, as the skeleton makes them.
        with pytest.raises(InputValidationError, match=r"lexicographic order at \(1,\) -> \(0,\)"):
            make_filtered_complex(
                [np.array([[1], [0]]), np.array([[0, 1]])], [0.0, 1.0, 2.0], dim_cap=1
            )


class TestValidateOnce:
    def test_pipeline_scans_few_matrices(self, monkeypatch):
        from sparsenerve import cover, model, sparsify, truncation

        calls = []
        original = model.as_extended_matrix

        def counted(values):
            calls.append(np.shape(getattr(values, "values", values)))
            return original(values)

        for module in (model, cover, truncation, sparsify, nerve):
            if hasattr(module, "as_extended_matrix"):
                monkeypatch.setattr(module, "as_extended_matrix", counted)
        dd = distance_matrix(PointCloud(sample_clifford_torus(60, 0).points))
        for spec in ("mult:1.5", "id", "poly:0.3,1,0,0.5"):
            calls.clear()
            sparse_dowker_nerve(dd, TranslationFunction.parse(spec), 1)
            assert len(calls) <= 3, calls

    @pytest.mark.parametrize("bad, message", [(np.nan, "NaN entry"), (-1.0, "negative entry")])
    def test_public_entry_points_still_reject(self, bad, message):
        from sparsenerve.cover import cover_matrix
        from sparsenerve.sparsify import restriction_times
        from sparsenerve.truncation import farthest_point_sampling

        lam = LINE3.copy()
        lam[0, 2] = bad
        phi = ParentFunction(parent=[0, 0, 1])
        calls = [
            lambda: DowkerDissimilarity(lam),
            lambda: cover_matrix(lam),
            lambda: cover_matrix(LINE3, lam),
            lambda: farthest_point_sampling(lam, LINE3),
            lambda: farthest_point_sampling(LINE3, lam),
            lambda: restriction_times(phi, lam, LINE3),
            lambda: restriction_times(phi, LINE3, lam),
            lambda: maximal_faces(lam, RestrictionTimes(times=np.array([INF, 1.0, 1.0]), tree=phi), frozenset()),
            lambda: filtration_values(lam, [np.array([[0]])]),
            lambda: full_dowker_nerve(lam, 1),
            lambda: sparse_dowker_nerve(lam, TranslationFunction.identity(), 1),
        ]
        for call in calls:
            with pytest.raises(InputValidationError, match=message):
                call()

    def test_translation_below_zero_is_rejected(self):
        # A spike down to -1 narrower than any sampling step: the table is
        # checked at every knot, so it is rejected when it is made.
        t, h = 0.3, 1e-7
        with pytest.raises(InputValidationError, match="dips below the diagonal near t=0.3$"):
            TranslationFunction.tabulated(
                [0.0, t - h, t, t + h, 10.0], [0.0, t - h, -1.0, t + h, 10.0]
            )


class TestSparseNervePipeline:
    def test_three_point_line_identity_filtration_values(self):
        result = sparse_dowker_nerve(
            DowkerDissimilarity(LINE3), TranslationFunction.identity(), 1
        )
        # restriction prunes (0, 2): point 2 only ever pairs with its parent
        assert result.restriction.times.tolist() == [INF, 3.0, 2.0]
        assert result.phi.parent.tolist() == [0, 0, 1]
        values = values_of(result.complex)
        assert values == {
            (0,): 0.0,
            (1,): 0.0,
            (2,): 0.0,
            (0, 1): 1.0,
            (1, 2): 2.0,
        }

    def test_three_point_line_mult3(self):
        result = sparse_dowker_nerve(
            DowkerDissimilarity(LINE3), TranslationFunction.multiplicative(3), 1
        )
        assert result.restriction.times.tolist() == [INF, 1.0, 3.0]
        assert result.phi.parent.tolist() == [0, 0, 0]
        assert result.complex.simplices == ((0,), (1,), (2,), (0, 1), (0, 2))

    def test_single_point(self):
        result = sparse_dowker_nerve(
            DowkerDissimilarity([[0.0]]), TranslationFunction.identity(), 0
        )
        assert result.complex.simplices == ((0,),)
        assert result.complex.values.tolist() == [0.0]

    def test_identity_alpha_downward_closure_matches_full_nerve(self, rng):
        for _ in range(25):
            lam = random_dissimilarity(rng)
            sparse = sparse_dowker_nerve(
                DowkerDissimilarity(lam), TranslationFunction.identity(), 1
            ).complex
            full = full_dowker_nerve(lam, 1)
            sparse.check()
            # with alpha = id the sparse skeleton is a subcomplex of the full
            fv = values_of(full)
            for s, v in values_of(sparse).items():
                assert s in fv and fv[s] == v

    def test_values_recomputed_from_lambda_are_idempotent(self, rng):
        from sparsenerve.nerve import filtration_values

        lam = random_dissimilarity(rng)
        result = sparse_dowker_nerve(
            DowkerDissimilarity(lam), TranslationFunction.multiplicative(3), 1
        )
        again = filtration_values(lam, [np.array([s]) for s in result.complex.simplices])
        np.testing.assert_array_equal(result.complex.values, again)

    def test_size_limit_propagates(self):
        lam = np.zeros((30, 30))
        with pytest.raises(SizeLimitError):
            sparse_dowker_nerve(
                DowkerDissimilarity(lam),
                TranslationFunction.identity(),
                5,
                max_simplices=100,
            )

    def test_negative_dimension_rejected(self):
        with pytest.raises(InputValidationError):
            sparse_dowker_nerve(
                DowkerDissimilarity(LINE3), TranslationFunction.identity(), -1
            )

    def test_dimension_far_above_the_simplices(self):
        # The square's nerve ends at its tetrahedron.  d = 500 must give the
        # same complex and diagram as d = 3, and the facet table must search
        # only the four non-empty cardinalities, not the 498 empty ones.
        dd = distance_matrix(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        runs = []
        for d in (3, 500):
            with mock.patch.object(nerve, "_find", wraps=nerve._find) as searches:
                K = sparse_dowker_nerve(dd, TranslationFunction.identity(), d).complex
            runs.append((K, compute_persistence(K, d).points, searches.call_count))
        (K, points, calls), (K_high, points_high, calls_high) = runs
        assert K_high.simplices == K.simplices
        np.testing.assert_array_equal(K_high.values, K.values)
        assert points_high == points
        # Edges take no search; a k-row above them takes k - 1 for its
        # other facets, and none for its prefix, which the expansion hands over.
        assert calls_high == calls == 0 + 0 + 2 + 3

    def test_persistence_stops_at_the_top_dimension(self):
        # Past the tetrahedron, d adds no dimension to scan: the complex's
        # cells stop at dimension 3, and the complex, its facet check and
        # the reduction find the simplices of each dimension as often at
        # d = 4000 as at d = 3.
        dd = distance_matrix(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
        runs = []
        for d in (3, 4000):
            with mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as scans:
                K = sparse_dowker_nerve(dd, TranslationFunction.identity(), d).complex
                points = compute_persistence(K, d).points
            runs.append((len(K.cells), scans.call_count, points))
        assert runs[0][0] == 4
        assert runs[1] == runs[0]


class TestAmbientCech:
    def test_single_point(self):
        K = ambient_cech_nerve(
            np.array([[1.0, 2.0]]), TranslationFunction.identity(), 1
        )
        assert K.simplices == ((0,),)
        assert K.values.tolist() == [0.0]

    def test_two_points_edge_at_half_diameter(self):
        K = ambient_cech_nerve(
            np.array([[0.0, 0.0], [2.0, 0.0]]), TranslationFunction.identity(), 1
        )
        assert values_of(K)[(0, 1)] == pytest.approx(1.0)

    def test_cloud_and_its_array_give_the_same_complex(self):
        cloud = sample_clifford_torus(20, 9)
        alpha = TranslationFunction.multiplicative(2)
        K = ambient_cech_nerve(cloud, alpha, 1)
        L = ambient_cech_nerve(np.array(cloud.points), alpha, 1)
        assert K.simplices == L.simplices
        np.testing.assert_array_equal(K.values, L.values)
        np.testing.assert_array_equal(PointCloud(cloud).points, cloud.points)

    def test_values_are_miniball_radii(self, rng):
        X = rng.normal(size=(6, 2))
        K = ambient_cech_nerve(X, TranslationFunction.identity(), 1)
        for s, v in values_of(K).items():
            assert v == pytest.approx(miniball(X[list(s)])[1], abs=1e-9)

    def test_sandwich_bounds(self, rng):
        # lower bound: same skeleton with intrinsic min-max values dominates
        # the miniball values; upper bound: the full ambient Cech complex
        # contains every simplex at the same value.
        from sparsenerve.ingest import distance_matrix
        from sparsenerve.nerve import filtration_values

        for _ in range(20):
            X = rng.normal(size=(int(rng.integers(2, 7)), 2))
            K = ambient_cech_nerve(X, TranslationFunction.identity(), 1)
            K.check()
            dm = distance_matrix(X).values
            intrinsic = filtration_values(dm, [np.array([s]) for s in K.simplices])
            assert np.all(K.values <= intrinsic + 1e-9)
            full = values_of(full_ambient_cech(X, 1))
            for s, v in values_of(K).items():
                assert s in full
                assert full[s] == pytest.approx(v, abs=1e-9)

    def test_non_finite_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputValidationError):
                ambient_cech_nerve(
                    np.array([[0.0, 0.0], [1.0, np.inf], [2.0, 0.0]]),
                    TranslationFunction.identity(), 1,
                )

    def test_zero_dimensional_points_rejected(self):
        with pytest.raises(InputValidationError):
            ambient_cech_nerve(np.zeros((3, 0)), TranslationFunction.identity(), 1)

    def test_interleaving_guarantee(self):
        # alpha truncates intrinsic radii (balls centered at data points),
        # while the values are ambient radii, which can be up to two times
        # smaller.  mult:3 and add:0.5 held with alpha itself,
        # poly:0.3,1,0,0.5 with alpha(2t) / 2, and every alpha, alpha = id
        # included, with t -> alpha(2t).
        rng = np.random.default_rng(7)
        tilde = TranslationFunction.polynomial([0.15, 1.0, 0.0, 2.0])
        ts = np.linspace(0.0, 50.0, 501)
        cases = [("mult:3", None), ("add:0.5", None), ("poly:0.3,1,0,0.5", tilde)]
        for spec in ("id", "mult:1.5", "add:0.1", "poly:0,1,1"):
            alpha = TranslationFunction.parse(spec)
            cases.append((spec, TranslationFunction.tabulated(ts, alpha(2 * ts))))
        clouds = [rng.normal(size=(int(rng.integers(3, 9)), 2)) for _ in range(20)]
        clouds += [rng.normal(size=(int(rng.integers(3, 7)), 3)) for _ in range(8)]
        for X in clouds + AMBIENT_COUNTEREXAMPLES:
            exact = compute_persistence(full_ambient_cech(X, 1), 1)
            for spec, check in cases:
                alpha = TranslationFunction.parse(spec)
                approx = compute_persistence(ambient_cech_nerve(X, alpha, 1), 1)
                assert diagram_interleaving_check(exact, approx, check or alpha).passed, (spec, X)


# Clouds whose ambient diagrams fail the alpha-interleaving check with the
# exact ambient Cech diagram (the first at mult:1.5, the second at add:0.1
# and at id: it drops the short H1 class of an acute triangle) or the
# alpha(2t) / 2 check (the third at add:0.5).
AMBIENT_COUNTEREXAMPLES = [
    np.array([
        [0.24685048515177624, 0.33266792638454873], [-0.5407184761472628, -0.04473301046048929],
        [-0.47604539067334756, -0.022480194844427155], [0.26975939355186773, -0.4130482097715673],
        [0.5367479432216727, -0.09739234166380889], [-0.3592703400118929, -0.0417952055942561],
        [0.23303241831747099, -0.4178799888083891], [-0.004279788344488229, -0.4169437488818338],
    ]),
    np.array([
        [-2.425037632677994, 1.6529295956439034, -1.3333704771166313],
        [6.225563328946171, -0.14617063387711096, 1.5063809112258428],
        [-2.808486459413498, -2.4320683928983344, 0.6050859026119133],
    ]),
    np.array([
        [-0.39679593213623776, -0.8771032876958236], [1.0601722006090062, 0.2130089000439987],
        [2.0063779933758443, 0.7253370628882799], [-0.6687971256284923, -0.1966351163693193],
        [0.42303885599202906, 0.5006888592557186],
    ]),
]


@st.composite
def tied_dowker_matrices(draw):
    """Rectangular integer-valued Lambda with heavy ties and some all-inf rows."""
    rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entries = st.sampled_from([0.0, 1.0, 1.0, 2.0, INF])
    lam = np.reshape(
        draw(st.lists(entries, min_size=rows * cols, max_size=rows * cols)), (rows, cols)
    )
    lam[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = INF
    return lam


NON_MULTIPLICATIVE = [
    TranslationFunction.additive(1.0),
    TranslationFunction.polynomial([0.3, 1.0, 0.0, 0.5]),
    TranslationFunction.tabulated([0.0, 1.0, 3.0], [0.5, 2.0, 3.5]),
]


class TestPipelineProperties:
    @settings(max_examples=150, deadline=None)
    @given(lam=tied_dowker_matrices(), d=st.integers(0, 2), data=st.data())
    def test_identity_is_exact(self, lam, d, data):
        start = data.draw(st.integers(0, lam.shape[0] - 1))
        sparse = sparse_dowker_nerve(
            DowkerDissimilarity(lam), TranslationFunction.identity(), d, start
        ).complex
        full = full_dowker_nerve(lam, d)
        assert compute_persistence(sparse, d).points == compute_persistence(full, d).points

    @settings(max_examples=150, deadline=None)
    @given(
        lam=tied_dowker_matrices(),
        alpha=st.sampled_from(NON_MULTIPLICATIVE),
        d=st.integers(0, 2),
    )
    def test_sandwich_and_interleaving(self, lam, alpha, d):
        result = sparse_dowker_nerve(DowkerDissimilarity(lam), alpha, d)
        gamma = result.gamma.values
        assert np.all(lam <= gamma) and np.all(gamma <= alpha(lam))
        approx = compute_persistence(result.complex, d)
        exact = compute_persistence(full_dowker_nerve(lam, d), d)
        assert diagram_interleaving_check(exact, approx, alpha).passed


def _grouped_max_min(lam, simplices):
    """Oracle: per cardinality, an (m, k, |W|) gather, max over k, min over W."""
    values = np.empty(len(simplices))
    for k in {len(s) for s in simplices}:
        idxs = [i for i, s in enumerate(simplices) if len(s) == k]
        sl = np.array([simplices[i] for i in idxs])
        values[idxs] = lam[sl].max(axis=1).min(axis=1)
    return values


class TestFiltrationValues:
    @settings(max_examples=200, deadline=None)
    @given(
        lam=tied_dowker_matrices(),
        data=st.data(),
        chunk=st.sampled_from([1, 3, 7, 1 << 16]),
        rank_gathers=st.sampled_from([0, 1 << 30]),
    )
    def test_matches_grouped_max_min(self, lam, data, chunk, rank_gathers):
        # rank_gathers 0 always takes the rank codes, 1 << 30 never.
        vertex_sets = st.lists(
            st.integers(0, lam.shape[0] - 1), min_size=1, max_size=4, unique=True
        ).map(tuple)
        drawn = data.draw(st.lists(vertex_sets, max_size=40))
        cells = [np.array([s for s in drawn if len(s) == k]).reshape(-1, k) for k in range(1, 5)]
        with (
            mock.patch.object(nerve, "_CHUNK_CELLS", chunk),
            mock.patch.object(nerve, "_RANK_GATHERS", rank_gathers),
        ):
            values = filtration_values(lam, cells)
        simplices = [tuple(row) for c in cells for row in c.tolist()]
        # Bit for bit: the rank codes give back Lambda's own entries.
        assert values.dtype == np.float64
        assert values.tobytes() == _grouped_max_min(lam, simplices).tobytes()

    @pytest.mark.parametrize("distinct", [65_536, 65_537, 90_000])
    def test_wide_codes(self, distinct):
        # 65,536 distinct values is the most uint16 codes hold; above it the
        # codes are uint32.  One of the values is inf.
        rng = np.random.default_rng(distinct)
        cols = -(-distinct // 6)
        values = np.append(rng.permutation(distinct - 1) / 7, INF)
        lam = rng.permutation(np.resize(values, 6 * cols)).reshape(6, cols)
        assert len(np.unique(lam)) == distinct
        cells = [nerve._combinations(6, k) for k in range(1, 5)]
        simplices = [tuple(row) for c in cells for row in c.tolist()]
        expected = _grouped_max_min(lam, simplices)
        with mock.patch.object(nerve, "_RANK_GATHERS", 0):
            assert filtration_values(lam, cells).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "distinct, dtype",
        [(256, np.uint8), (257, np.uint16), (65_536, np.uint16), (65_537, np.uint32)],
    )
    def test_rank_codes_at_dtype_edges(self, distinct, dtype):
        # The largest rank fills its dtype: a count from 1 would wrap.  One
        # row is all inf, the top value, so some vertex's value is the top
        # code's.  The codes are np.unique's inverse and the values are the
        # float64 path's, bit for bit.
        rng = np.random.default_rng(distinct)
        cols = 300
        rows = -(-distinct // cols) + 3
        values = np.append(np.cumsum(rng.uniform(0.01, 1.0, distinct - 1)), INF)
        extra = rng.choice(values, (rows - 1) * cols - distinct)
        lam = rng.permutation(np.append(values, extra)).reshape(rows - 1, cols)
        lam = np.insert(lam, rng.integers(rows), INF, axis=0)
        table, codes = nerve._rank_codes(lam)
        want_table, want_codes = np.unique(lam, return_inverse=True)
        assert len(table) == distinct and codes.dtype == dtype
        assert table.tobytes() == want_table.tobytes()
        np.testing.assert_array_equal(codes, want_codes.reshape(lam.shape))
        cells = [np.arange(rows).reshape(-1, 1)]
        cells += [np.sort(rng.choice(rows, size=(200, k)), axis=1) for k in (2, 3)]
        with mock.patch.object(nerve, "_RANK_GATHERS", 1 << 30):
            floats = filtration_values(lam, cells)
        with mock.patch.object(nerve, "_RANK_GATHERS", 0):
            assert filtration_values(lam, cells).tobytes() == floats.tobytes()
        assert np.isinf(floats).any()

    @pytest.mark.parametrize(
        "cells", [[np.array([[-1]]), np.array([[-1, 0]])], [np.array([[5]])]]
    )
    def test_vertex_outside_the_landmarks(self, cells):
        with pytest.raises(InputValidationError, match=r"outside range\(3\)"):
            filtration_values(LINE3, cells)
