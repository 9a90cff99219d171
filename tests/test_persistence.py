from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsenerve import persistence
from sparsenerve.ingest import (
    PointCloud,
    distance_matrix,
    generate_graph,
    shortest_path_matrix,
)
from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    TranslationFunction,
)
from sparsenerve.nerve import FilteredComplex, full_dowker_nerve, make_filtered_complex
from sparsenerve.persistence import (
    PersistenceDiagram,
    _boundary_columns,
    _box_admissible,
    _reduce_cohomology,
    _reduce_twist,
    compute_persistence,
    diagram_interleaving_check,
    interleaving_line,
)

from conftest import EVERY_ALPHA_KIND, facet_lists, random_dissimilarity


def betti_oracle(K, max_dim):
    """Persistent Betti numbers from boundary-matrix ranks over Z/2.

    beta_k(s, t) = rank of H_k(K_s) -> H_k(K_t); diagram points are read
    off by inclusion-exclusion over the finitely many critical values.
    """
    values = sorted(set(K.values.tolist()))
    simplices = list(K.simplices)

    def betti_pair(s, t):
        sub_s = [x for x, v in zip(simplices, K.values) if v <= s]
        sub_t = [x for x, v in zip(simplices, K.values) if v <= t]
        out = {}
        for k in range(max_dim + 1):
            zs = _cycle_space_dim(sub_s, k)
            # rank of image = dim Z_k(K_s) - dim(Z_k(K_s) ∩ B_k(K_t))
            out[k] = zs - _boundary_intersection_dim(sub_s, sub_t, k)
        return out

    def multiplicity(k, bi, di):
        b = values[bi]
        prev_b = values[bi - 1] if bi > 0 else None
        d = values[di] if di < len(values) else None
        prev_d = values[di - 1]

        def pb(s, t):
            if s is None:
                return 0
            return betti_pair(s, t)[k]

        if d is None:
            inside = pb(b, values[-1])
            above = pb(prev_b, values[-1]) if prev_b is not None else 0
            return inside - above
        inside = pb(b, prev_d) - pb(b, d)
        above = (
            (pb(prev_b, prev_d) - pb(prev_b, d)) if prev_b is not None else 0
        )
        return inside - above

    points = []
    for k in range(max_dim + 1):
        for bi in range(len(values)):
            for di in range(bi + 1, len(values) + 1):
                m = multiplicity(k, bi, di)
                assert m >= 0
                d = INF if di == len(values) else values[di]
                if values[bi] == d:
                    continue
                points.extend([(k, values[bi], d)] * m)
    return tuple(sorted(points))


def _mod2_rank(rows):
    rows = [r for r in rows if r]
    rank = 0
    pivots = {}
    for row in rows:
        row = set(row)
        while row:
            low = max(row)
            if low in pivots:
                row ^= pivots[low]
            else:
                pivots[low] = row
                rank += 1
                break
    return rank


def _boundary_rows(simplices, k):
    """Boundary columns of (k+1)-simplices as index sets over the k-simplices."""
    k_index = {s: i for i, s in enumerate(x for x in simplices if len(x) == k + 1)}
    rows = []
    for s in simplices:
        if len(s) != k + 2:
            continue
        rows.append(
            frozenset(
                k_index[s[:j] + s[j + 1 :]] for j in range(len(s))
            )
        )
    return rows, len(k_index)


def _cycle_space_dim(simplices, k):
    rows, n_k = _boundary_rows(simplices, k - 1) if k > 0 else ([], 0)
    if k == 0:
        n_k = sum(1 for s in simplices if len(s) == 1)
        rank_dk = 0
    else:
        n_k = sum(1 for s in simplices if len(s) == k + 1)
        rank_dk = _mod2_rank(
            [r for r in _boundary_of_dim(simplices, k)]
        )
    return n_k - rank_dk


def _boundary_of_dim(simplices, k):
    """Boundaries of the k-simplices, as index sets over (k-1)-simplices."""
    low_index = {s: i for i, s in enumerate(x for x in simplices if len(x) == k)}
    rows = []
    for s in simplices:
        if len(s) != k + 1:
            continue
        rows.append(frozenset(low_index[s[:j] + s[j + 1 :]] for j in range(len(s))))
    return rows


def _boundary_intersection_dim(sub_s, sub_t, k):
    """dim of Z_k(K_s) ∩ B_k(K_t), via rank arithmetic over Z/2.

    Build the matrix whose columns are boundaries of (k+1)-simplices of K_t,
    expressed over the k-simplices of K_t, then restrict to cycles of K_s:
    dim(Z ∩ B) = dim Z + dim B - dim(Z + B).
    """
    low_index = {
        s: i for i, s in enumerate(x for x in sub_t if len(x) == k + 1)
    }
    b_rows = []
    for s in sub_t:
        if len(s) != k + 2:
            continue
        b_rows.append(frozenset(low_index[s[:j] + s[j + 1 :]] for j in range(len(s))))
    dim_b = _mod2_rank(list(b_rows))
    # cycles of K_s, expressed in K_t indexing
    s_k = [x for x in sub_s if len(x) == k + 1]
    if k == 0:
        cycle_basis = [frozenset({low_index[x]}) for x in s_k]
    else:
        bd = []
        s_low = {x: i for i, x in enumerate(y for y in sub_s if len(y) == k)}
        for s in s_k:
            bd.append(frozenset(s_low[s[:j] + s[j + 1 :]] for j in range(len(s))))
        cycle_basis = _null_space_mod2(bd, [low_index[x] for x in s_k])
    dim_z = len(cycle_basis)
    dim_sum = _mod2_rank(cycle_basis + b_rows)
    return dim_z + dim_b - dim_sum


def _null_space_mod2(columns, labels):
    """Null-space basis of a Z/2 matrix given as column index sets.

    Returns combinations of the labelled columns summing to zero, each as a
    frozenset of labels.
    """
    cols = [set(c) for c in columns]
    combos = [{i} for i in range(len(cols))]
    pivots = {}
    null = []
    for i, col in enumerate(cols):
        col = set(col)
        combo = set(combos[i])
        while col:
            low = max(col)
            if low not in pivots:
                break
            pcol, pcombo = pivots[low]
            col ^= pcol
            combo ^= pcombo
        if col:
            pivots[max(col)] = (col, combo)
        else:
            null.append(frozenset(labels[j] for j in combo))
    return null


def _reduce_plain(cols, dims):
    """Textbook left-to-right reduction; a test oracle for the other reducers."""
    n = len(cols)
    pivot = {}
    reduced = {}
    zeroed = []
    for j in range(n):
        col = set(cols[j])
        while col:
            low = max(col)
            other = pivot.get(low)
            if other is None:
                break
            col ^= reduced[other]
        if col:
            pivot[max(col)] = j
            reduced[j] = col
        else:
            zeroed.append(j)
    pairs = sorted((low, j) for low, j in pivot.items())
    paired_births = set(pivot.keys())
    essential = [j for j in zeroed if j not in paired_births]
    return pairs, essential


class TestComputePersistence:
    def test_single_vertex(self):
        K = make_filtered_complex({(0,): 0.0}, dim_cap=0)
        dg = compute_persistence(K, 0)
        assert dg.points == ((0, 0.0, INF),)

    def test_two_vertices_merge(self):
        K = make_filtered_complex({(0,): 0.0, (1,): 0.0, (0, 1): 1.0}, dim_cap=1)
        dg = compute_persistence(K, 1)
        assert dg.points == ((0, 0.0, 1.0), (0, 0.0, INF))

    def test_six_cycle_h1(self):
        dd = shortest_path_matrix(generate_graph("cycle", nodes=6))
        dg = compute_persistence(full_dowker_nerve(dd.values, 1), 1)
        assert dg.in_dimension(1) == [(1.0, 2.0)]
        assert sum(1 for k, b, d in dg.points if k == 0 and np.isinf(d)) == 1

    def test_twist_equals_plain(self, rng):
        for _ in range(30):
            lam = random_dissimilarity(rng, max_side=5)
            facets, dims = _boundary_columns(full_dowker_nerve(lam, 2))
            cols = facet_lists(facets, dims)
            twist = _reduce_twist(cols, dims)
            assert _reduce_plain(cols, dims) == twist
            assert _listed(*_reduce_cohomology(facets, dims, max(dims, default=0))) == twist

    def test_matches_rank_oracle_small(self, rng):
        checked = 0
        while checked < 12:
            lam = random_dissimilarity(rng, max_side=4)
            K = full_dowker_nerve(lam, 1)
            if len(K) > 30:
                continue
            checked += 1
            dg = compute_persistence(K, 1)
            assert tuple(sorted(dg.points)) == betti_oracle(K, 1)

    def test_zero_persistence_counted_not_reported(self):
        K = make_filtered_complex({(0,): 0.0, (1,): 0.0, (0, 1): 0.0}, dim_cap=1)
        dg = compute_persistence(K, 1)
        assert dg.n_zero_length == 1
        assert dg.points == ((0, 0.0, INF),)

    def test_essential_class_born_at_inf_is_a_point(self):
        K = make_filtered_complex({(0,): 0.0, (1,): INF}, dim_cap=0)
        dg = compute_persistence(K, 0)
        assert dg.n_zero_length == 0
        assert dg.points == ((0, 0.0, INF), (0, INF, INF))

    def test_points_match_a_loop_over_pairs(self, rng):
        # The diagram read off the pairs one at a time, as Python floats.
        for _ in range(30):
            K = full_dowker_nerve(random_dissimilarity(rng, max_side=6), 2)
            facets, dims = _boundary_columns(K)
            pairs, essential = _reduce_cohomology(facets, dims, 1)
            values, dims = K.values.tolist(), dims.tolist()
            points = [(dims[b], values[b], values[d]) for b, d in pairs if values[b] != values[d]]
            points += [(dims[i], values[i], INF) for i in essential]
            dg = compute_persistence(K, 1)
            assert dg.points == tuple(sorted(points))
            assert dg.n_zero_length == len(pairs) - (len(points) - len(essential))

    def test_unclosed_complex_rejected(self):
        # A complex is checked where it is built, never in the reduction.
        with pytest.raises(InputValidationError, match="missing face"):
            make_filtered_complex({(0,): 0.0, (0, 1): 1.0}, dim_cap=1)

    @pytest.mark.parametrize(
        "simplices, values, message",
        [
            (((0,), (1,), (0, 1)), [1.0, 0.0, 1.0], "not sorted"),
            (((0,), (0,)), [0.0, 0.0], "duplicate"),
            (((0,), (0, 1), (1,)), [0.0, 1.0, 2.0], "not monotone"),
            (((0,), (0, 1)), [0.0, 1.0], "missing face"),
            (((0, 1), (0,), (1,)), [0.0, 0.0, 0.0], "not sorted"),
            (((1,), (0,), (0, 1)), [0.0, 0.0, 0.0], "not sorted"),
            (((0,), (1,), (1, 0)), [0.0, 0.0, 1.0], "not increasing"),
            (((0,), (1,), (0,)), [0.0, 1.0, 2.0], "duplicate"),
            # Both edges miss a vertex; the error names the first edge's.
            (((0,), (3, 4), (2, 5)), [0.0, 1.0, 2.0], r"missing face \(3,\) of"),
        ],
    )
    def test_malformed_complex_rejected(self, simplices, values, message):
        dims = [len(s) - 1 for s in simplices]
        cells = [[s for s in simplices if len(s) == p + 1] for p in range(max(dims) + 1)]
        with pytest.raises(InputValidationError, match=message):
            FilteredComplex(cells=tuple(cells), dims=dims, values=values, dim_cap=1)

    def test_negative_max_dim_rejected(self):
        K = make_filtered_complex({(0,): 0.0}, dim_cap=0)
        with pytest.raises(InputValidationError):
            compute_persistence(K, -1)

    def test_non_integer_max_dim_rejected(self):
        K = make_filtered_complex({(0,): 0.0, (1,): 1.0, (0, 1): 2.0}, dim_cap=1)
        with pytest.raises(InputValidationError, match=r"^max_dim must be an integer, got 1\.5$"):
            compute_persistence(K, 1.5)
        assert compute_persistence(K, np.int64(1)) == compute_persistence(K, 1)

    def test_component_count_matches_infinite_points(self, rng):
        for _ in range(10):
            lam = random_dissimilarity(rng, max_side=5)
            K = full_dowker_nerve(lam, 1)
            dg = compute_persistence(K, 1)
            # count components of the final 1-skeleton by union-find
            verts = [s[0] for s in K.simplices if len(s) == 1]
            uf = {v: v for v in verts}

            def find(x):
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = uf[x]
                return x

            for s in K.simplices:
                if len(s) == 2:
                    uf[find(s[0])] = find(s[1])
            components = len({find(v) for v in verts})
            essential = sum(
                1 for k, b, d in dg.points if k == 0 and np.isinf(d)
            )
            assert essential == components


@st.composite
def split_dowker_matrices(draw):
    """Integer-valued rectangular matrices, block diagonal with inf between blocks.

    Landmarks in different blocks share no witness, so the nerve has at
    least one component per block with a finite entry.  Returns the matrix
    and that block count.
    """
    entries = st.sampled_from([0.0, 1.0, 2.0, 3.0, INF])
    shapes = draw(
        st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3)
    )
    lam = np.full((sum(r for r, _ in shapes), sum(c for _, c in shapes)), INF)
    row = col = blocks = 0
    for r, c in shapes:
        block = np.reshape(draw(st.lists(entries, min_size=r * c, max_size=r * c)), (r, c))
        lam[row : row + r, col : col + c] = block
        blocks += bool(np.isfinite(block).any())
        row, col = row + r, col + c
    return lam, blocks


@st.composite
def integer_clouds(draw):
    """6-11 points in R^2 or R^3 on a small integer grid, so distances tie."""
    n = draw(st.integers(6, 11))
    dim = draw(st.sampled_from([2, 3]))
    coords = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    return np.reshape(coords, (n, dim)).astype(float)


def _listed(pairs, essential):
    """``_reduce_cohomology``'s arrays as lists, pairs as tuples, like ``_reduce_twist``'s."""
    return list(map(tuple, pairs.tolist())), essential.tolist()


def _earliest_cofaces(cols, dims, max_dim):
    """Simplex -> its earliest coface, for simplices in dimensions 1..max_dim."""
    earliest = {}
    for t, k in enumerate(dims):
        if 2 <= k <= max_dim + 1:
            for f in cols[t]:
                earliest.setdefault(f, t)
    return earliest


def _columns_with_additions(cols, dims, pairs, max_dim):
    """The coboundary columns ``_reduce_cohomology`` reduced by addition.

    A column in dimension 1..max_dim that was not cleared (it is no death)
    and has a coface needs an addition iff it is not paired with its
    earliest coface: an addition cancels that coface, and the pivots added
    after it are all later.
    """
    deaths = {d for _, d in pairs}
    earliest = _earliest_cofaces(cols, dims, max_dim)
    return [
        i
        for i, k in enumerate(dims)
        if 1 <= k <= max_dim
        and i not in deaths
        and i in earliest
        and (i, earliest[i]) not in pairs
    ]


class TestReduceCohomology:
    @settings(max_examples=150, deadline=None)
    @given(
        matrix=split_dowker_matrices(),
        d=st.integers(0, 2),
        max_dim=st.sampled_from(["0", "cap-1", "cap", "cap+1"]),
    )
    def test_matches_plain_reduction(self, matrix, d, max_dim):
        lam, blocks = matrix
        K = full_dowker_nerve(lam, d)
        top = {"0": 0, "cap-1": K.dim_cap - 1, "cap": K.dim_cap, "cap+1": K.dim_cap + 1}[max_dim]
        facets, dims = _boundary_columns(K)
        pairs, essential = _listed(*_reduce_cohomology(facets, dims, top))
        plain_pairs, plain_essential = _reduce_plain(facet_lists(facets, dims), dims)
        assert pairs == [p for p in plain_pairs if dims[p[0]] <= top]
        assert essential == [i for i in plain_essential if dims[i] <= top]
        assert sum(1 for i in essential if dims[i] == 0) >= blocks

    def test_fill_in_matches_plain_reduction(self):
        # The split matrices above have blocks of at most 3x3, whose columns
        # hardly ever need an addition; full nerves of clouds fill in.
        additions = []

        @settings(max_examples=60, deadline=None)
        @given(points=integer_clouds())
        def check(points):
            K = full_dowker_nerve(distance_matrix(PointCloud(points)).values, 2)
            facets, dims = _boundary_columns(K)
            cols = facet_lists(facets, dims)
            pairs, essential = _listed(*_reduce_cohomology(facets, dims, 2))
            plain_pairs, plain_essential = _reduce_plain(cols, dims)
            assert pairs == [p for p in plain_pairs if dims[p[0]] <= 2]
            assert essential == [i for i in plain_essential if dims[i] <= 2]
            additions.append(len(_columns_with_additions(cols, dims, set(pairs), 2)))

        check()
        assert max(additions) > 0


def _twist_up_to(facets, dims, top):
    """``_reduce_twist``'s pairs and essentials with births in dimensions <= top."""
    pairs, essential = _reduce_twist(facet_lists(facets, dims), dims)
    return (
        [p for p in pairs if dims[p[0]] <= top],
        [i for i in essential if dims[i] <= top],
    )


@st.composite
def filtered_complexes(draw):
    """Closures of up to 8 random faces on up to 7 vertices, with integer
    values in 0..4 raised to their facets' maximum: often disconnected,
    sometimes edgeless, with heavy ties."""
    n = draw(st.integers(1, 7))
    face = st.frozensets(st.integers(0, n - 1), min_size=1, max_size=4)
    faces = draw(st.lists(face, min_size=1, max_size=8))
    closure = {s for f in faces for k in range(1, len(f) + 1) for s in combinations(sorted(f), k)}
    values = {}
    for s in sorted(closure, key=len):
        facet_values = [values[f] for f in combinations(s, len(s) - 1) if f]
        values[s] = float(max([draw(st.integers(0, 4)), *facet_values]))
    return make_filtered_complex(values, dim_cap=3)


class TestReductionShortcuts:
    """Union-find that stops at one component and apparent pairs in bulk,
    against ``_reduce_twist`` on the cases where each shortcut could go wrong."""

    def test_matches_twist(self):
        seen = set()

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(K=filtered_complexes())
        def check(K):
            facets, dims = _boundary_columns(K)
            top = int(dims.max())
            pairs, essential = _listed(*_reduce_cohomology(facets, dims, top))
            assert (pairs, essential) == _twist_up_to(facets, dims, top)
            edges = np.flatnonzero(dims == 1)
            merges = [d for b, d in pairs if dims[b] == 0]  # in order of birth
            seen.add("disconnected" if sum(dims[i] == 0 for i in essential) > 1 else "connected")
            if not edges.size:
                seen.add("no edges")
            elif merges and max(merges) == edges[-1]:
                seen.add("last merge at the last edge")
            cols = facet_lists(facets, dims)
            earliest = _earliest_cofaces(cols, dims, top)
            # An apparent pair: a simplex that is its earliest coface's latest facet.
            apparent = {t for f, t in earliest.items() if max(cols[t]) == f}
            added = _columns_with_additions(cols, dims, pairs, top)
            if any(earliest[i] in apparent for i in added):
                seen.add("addition at an apparent coface")

        check()
        assert seen == {
            "connected",
            "disconnected",
            "no edges",
            "last merge at the last edge",
            "addition at an apparent coface",
        }


@st.composite
def tied_matrices(draw):
    """Integer Lambda with entries in {0, 1, 2}: values tie heavily."""
    rows, cols = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entries = draw(st.lists(st.integers(0, 2), min_size=rows * cols, max_size=rows * cols))
    return np.reshape(entries, (rows, cols)).astype(float)


class _RecordingNumpy:
    """numpy, except that ``zeros`` keeps every array it makes in ``made``."""

    def __init__(self):
        self.made = []

    def zeros(self, *args, **kwargs):
        a = np.zeros(*args, **kwargs)
        self.made.append(a)
        return a

    def __getattr__(self, name):
        return getattr(np, name)


class TestDenseColumn:
    """The boolean working column of ``_reduce_cohomology`` against ``_reduce_twist``."""

    @staticmethod
    def reduce_both(K, top):
        facets, dims = _boundary_columns(K)
        pairs, essential = _listed(*_reduce_cohomology(facets, dims, top))
        assert (pairs, essential) == _twist_up_to(facets, dims, top)
        return pairs, essential, dims

    def test_hollow_triangle_is_essential_in_dimension_1(self):
        K = make_filtered_complex(
            {(0,): 0.0, (1,): 0.0, (2,): 0.0, (0, 1): 1.0, (0, 2): 1.0, (1, 2): 2.0},
            dim_cap=2,
        )
        _, essential, dims = self.reduce_both(K, 1)
        assert [dims[i] for i in essential] == [0, 1]
        assert compute_persistence(K, 1).in_dimension(1) == [(2.0, INF)]

    def test_tetrahedron_boundary_is_essential_in_dimension_2(self):
        vertices = range(4)
        values = {s: float(len(s) - 1) for k in (1, 2, 3) for s in combinations(vertices, k)}
        K = make_filtered_complex(values, dim_cap=3)
        pairs, essential, dims = self.reduce_both(K, 2)
        assert [dims[i] for i in essential] == [0, 2]
        assert compute_persistence(K, 2).in_dimension(2) == [(2.0, INF)]

    def test_essential_cocycle_with_cofaces(self):
        # The cycle 0-1-3 has no triangle, and the triangle 1-2-3 enters with
        # the last edges.  Found by search: the essential edge has a coface,
        # so its column reaches zero by an addition, not by being empty.
        lam = np.array([[0, 0, INF], [0, INF, 2], [INF, INF, 2], [INF, 1, 1]])
        K = full_dowker_nerve(lam, 1)
        assert (1, 2, 3) in K.simplices and (0, 1, 3) not in K.simplices
        _, essential, dims = self.reduce_both(K, 1)
        assert [dims[i] for i in essential] == [0, 1]

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_top_dimension_has_no_cofaces(self, rng, d):
        for _ in range(10):
            K = full_dowker_nerve(random_dissimilarity(rng, max_side=5), d)
            self.reduce_both(K, d + 1)

    def test_adds_a_reduced_column(self):
        # Found by search: the pairs differ from the twist reduction's if a
        # reduced column is stored as its unreduced coboundary.
        lam = np.array(
            [[1, 0, 2, 2], [2, 2, 1, 2], [2, 1, 1, 1], [0, 2, 0, 1], [1, 2, 1, 1]], float
        )
        self.reduce_both(full_dowker_nerve(lam, 1), 2)

    @pytest.mark.parametrize("top", [1, 2, 3])
    def test_work_is_cleared_after_each_dimension(self, monkeypatch, top):
        recording = _RecordingNumpy()
        monkeypatch.setattr(persistence, "np", recording)
        K = full_dowker_nerve(random_dissimilarity(np.random.default_rng(top), 7), 2)
        self.reduce_both(K, top)
        work = [a for a in recording.made if a.dtype == bool]
        assert len(work) == top
        assert not any(a.any() for a in work)

    @settings(max_examples=200, deadline=None)
    @given(lam=tied_matrices())
    def test_matches_twist_with_heavy_ties(self, lam):
        self.reduce_both(full_dowker_nerve(lam, 2), 2)


class TestInterleavingLine:
    def test_identity_guarantee(self):
        line = interleaving_line(TranslationFunction.identity(), 5.0)
        assert line.guaranteed(1.0, 1.5)
        assert not line.guaranteed(1.0, 1.0)

    def test_figure_function_classification(self):
        alpha = TranslationFunction.parse("poly:0.3,1,0,0.5")
        line = interleaving_line(alpha, 5.0)
        assert line.guaranteed(0.5, 2.0)  # alpha(0.5) = 0.8625 < 2.0
        assert not line.guaranteed(1.0, 1.5)  # alpha(1) = 1.8 > 1.5

    def test_polyline_samples_graph(self):
        alpha = TranslationFunction.multiplicative(2)
        line = interleaving_line(alpha, 4.0)
        np.testing.assert_allclose(line.vs, 2 * line.ts)

    def test_rejects_nonpositive_range(self):
        with pytest.raises(InputValidationError):
            interleaving_line(TranslationFunction.identity(), 0.0)


def _brute_force_interleaves(A, E, alpha, tol=1e-9):
    """Does some admissible partial matching cover every required point of A and E?"""
    req_a = {i for i, (b, d) in enumerate(A) if d > alpha(b) + tol}
    req_e = {j for j, (b, d) in enumerate(E) if d > alpha(b) + tol}

    def extend(i, used):
        # Match A[i:] into E minus ``used``; yields the exact points covered.
        if i == len(A):
            yield used
            return
        if i not in req_a:
            yield from extend(i + 1, used)
        for j, e in enumerate(E):
            if j not in used and _box_admissible(alpha, A[i], e, tol):
                yield from extend(i + 1, used | {j})

    return any(req_e <= used for used in extend(0, frozenset()))


@st.composite
def small_diagram(draw, dims):
    """At most 5 points per dimension from a coarse grid, some deaths infinite."""
    values = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
    points = []
    for k in dims:
        for _ in range(draw(st.integers(0, 5))):
            b = draw(values)
            d = draw(st.one_of(values.map(lambda v, b=b: b + v), st.just(INF)))
            points.append((k, b, d))
    return PersistenceDiagram(points=tuple(points))


class TestDiagramInterleavingCheck:
    @settings(max_examples=400, deadline=None)
    @given(
        alpha=st.sampled_from(EVERY_ALPHA_KIND),
        exact_dims=st.sets(st.integers(0, 2), max_size=3),
        approx_dims=st.sets(st.integers(0, 2), max_size=3),
        data=st.data(),
    )
    def test_matches_brute_force_matching(self, alpha, exact_dims, approx_dims, data):
        exact = data.draw(small_diagram(sorted(exact_dims)))
        approx = data.draw(small_diagram(sorted(approx_dims)))
        report = diagram_interleaving_check(exact, approx, alpha)
        failing = tuple(
            k
            for k in sorted(exact_dims | approx_dims)
            if not _brute_force_interleaves(
                approx.in_dimension(k), exact.in_dimension(k), alpha
            )
        )
        assert report.unmatched_required == failing
        assert report.passed == (not failing)
        assert len(report.messages) == len(failing)

    def test_identical_diagrams_pass(self):
        dg = PersistenceDiagram(points=((0, 0.0, 1.0), (1, 0.5, 2.0)))
        alpha = TranslationFunction.identity()
        assert diagram_interleaving_check(dg, dg, alpha).passed

    def test_vacuous_pass_below_line(self):
        exact = PersistenceDiagram(points=((0, 1.0, 2.0),))
        empty = PersistenceDiagram(points=())
        alpha = TranslationFunction.multiplicative(3)
        assert diagram_interleaving_check(exact, empty, alpha).passed

    def test_missing_required_point_fails(self):
        exact = PersistenceDiagram(points=((1, 1.0, 10.0),))
        empty = PersistenceDiagram(points=())
        alpha = TranslationFunction.multiplicative(3)
        assert not diagram_interleaving_check(exact, empty, alpha).passed

    def test_point_outside_box_fails(self):
        alpha = TranslationFunction.multiplicative(3)
        exact = PersistenceDiagram(points=((1, 1.0, 10.0),))
        approx = PersistenceDiagram(points=((1, 4.0, 30.0),))
        # box for exact birth 1 is [1/3, 3] and 4.0 falls outside it,
        # so the only candidate match is inadmissible
        assert not diagram_interleaving_check(exact, approx, alpha).passed

    def test_match_within_boxes_passes(self):
        alpha = TranslationFunction.multiplicative(3)
        exact = PersistenceDiagram(points=((1, 1.0, 10.0),))
        approx = PersistenceDiagram(points=((1, 2.0, 12.0),))
        assert diagram_interleaving_check(exact, approx, alpha).passed

    def test_sparse_pipeline_interleaves_on_random_instances(self, rng):
        from sparsenerve.nerve import sparse_dowker_nerve

        alpha = TranslationFunction.multiplicative(3)
        for _ in range(30):
            lam = random_dissimilarity(rng)
            approx = compute_persistence(
                sparse_dowker_nerve(DowkerDissimilarity(lam), alpha, 2).complex, 2
            )
            exact = compute_persistence(full_dowker_nerve(lam, 2), 2)
            assert diagram_interleaving_check(exact, approx, alpha).passed
