import numpy as np
import pytest

from sparsenerve.model import (
    INF,
    DowkerDissimilarity,
    InputValidationError,
    ParentFunction,
    RestrictionTimes,
    TranslationFunction,
    as_extended_matrix,
)


class TestExtendedMatrix:
    def test_accepts_infinities(self):
        m = as_extended_matrix([[0.0, INF], [1.0, 0.0]])
        assert m.dtype == np.float64
        assert np.isinf(m[0, 1])

    def test_rejects_nan(self):
        with pytest.raises(InputValidationError):
            as_extended_matrix([[0.0, np.nan]])

    def test_rejects_negative(self):
        with pytest.raises(InputValidationError):
            as_extended_matrix([[0.0, -1.0]])

    def test_accepts_vectors_too(self):
        m = as_extended_matrix([1.0, 2.0, 3.0])
        assert m.shape == (3,)

    def test_rank_checked_by_dissimilarity(self):
        with pytest.raises(InputValidationError):
            DowkerDissimilarity([1.0, 2.0, 3.0])


class TestDowkerDissimilarity:
    def test_metric_flag_checks_symmetry(self):
        with pytest.raises(InputValidationError):
            DowkerDissimilarity([[0.0, 1.0], [2.0, 0.0]], metric=True)

    def test_metric_flag_checks_diagonal(self):
        with pytest.raises(InputValidationError):
            DowkerDissimilarity([[1.0, 1.0], [1.0, 0.0]], metric=True)

    @pytest.mark.parametrize(
        "values, message",
        [
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0]], r"square, got shape \(2, 3\)"),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 5.0]], r"diagonal entry 5.0 at \(2, 2\)"),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, INF, 0.0]], r"\(1, 2\), inf at \(2, 1\)"),
            ([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [4.0, 3.0, 0.0]], r"2.0 at \(0, 2\), 4.0 at"),
        ],
    )
    def test_metric_names_the_first_offending_entry(self, values, message):
        with pytest.raises(InputValidationError, match=message):
            DowkerDissimilarity(values, metric=True)
        assert DowkerDissimilarity(values).values.shape == np.shape(values)

    def test_rectangular_allowed_without_metric(self):
        dd = DowkerDissimilarity([[0.0, 1.0, 2.0]])
        assert dd.values.shape == (1, 3)

    def test_max_finite(self):
        dd = DowkerDissimilarity([[0.0, 5.0, INF]])
        assert dd.max_finite == 5.0


class TestTranslationFunction:
    def test_identity(self):
        a = TranslationFunction.identity()
        assert a(3.5) == 3.5
        assert a(INF) == INF

    def test_additive(self):
        a = TranslationFunction.additive(2.0)
        assert a(1.0) == 3.0

    def test_additive_rejects_negative(self):
        with pytest.raises(InputValidationError):
            TranslationFunction.additive(-0.5)

    def test_multiplicative(self):
        a = TranslationFunction.multiplicative(3.0)
        assert a(2.0) == 6.0
        assert a(INF) == INF

    def test_multiplicative_rejects_contraction(self):
        with pytest.raises(InputValidationError):
            TranslationFunction.multiplicative(0.5)

    def test_polynomial_figure_function(self):
        # x^3/2 + x + 0.3 in ascending-coefficient order
        a = TranslationFunction.parse("poly:0.3,1,0,0.5")
        assert a(0.5) == pytest.approx(0.8625)
        assert a(1.0) == pytest.approx(1.8)
        assert a(INF) == INF

    def test_polynomial_below_diagonal_rejected(self):
        with pytest.raises(InputValidationError):
            TranslationFunction.polynomial([0.0, 0.5])

    def test_tabulated_interpolates_and_extends(self):
        a = TranslationFunction.tabulated([0.0, 1.0, 2.0], [0.5, 1.5, 3.0])
        assert a(0.5) == pytest.approx(1.0)
        assert a(3.0) == pytest.approx(4.0)  # right-linear extension
        assert a(INF) == INF

    def test_parse_round_trip(self):
        assert TranslationFunction.parse("id")(2.5) == 2.5
        assert TranslationFunction.parse("add:1.5")(1.0) == 2.5
        assert TranslationFunction.parse("mult:2")(4.0) == 8.0

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputValidationError):
            TranslationFunction.parse("cubic")

    def test_parse_rejects_bad_numbers(self):
        for spec in ("mult:abc", "add:", "poly:1,,2", "mult:2,3"):
            with pytest.raises(InputValidationError):
                TranslationFunction.parse(spec)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TranslationFunction.additive(INF),
            lambda: TranslationFunction.additive(np.nan),
            lambda: TranslationFunction.multiplicative(INF),
            lambda: TranslationFunction.multiplicative(np.nan),
            lambda: TranslationFunction.polynomial([0.0, 1.0, np.nan]),
            lambda: TranslationFunction.tabulated([0.0, INF], [0.0, INF]),
        ],
    )
    def test_rejects_non_finite_parameters(self, make):
        with pytest.raises(InputValidationError, match="finite"):
            make()

    def test_array_evaluation(self):
        a = TranslationFunction.multiplicative(2.0)
        out = a(np.array([1.0, INF]))
        assert out[0] == 2.0 and np.isinf(out[1])

    def test_preimage_identity(self):
        assert TranslationFunction.identity().preimage(4.0) == 4.0

    def test_preimage_multiplicative(self):
        assert TranslationFunction.multiplicative(3.0).preimage(6.0) == 2.0

    def test_preimage_polynomial_bisection(self):
        a = TranslationFunction.parse("poly:0.3,1,0,0.5")
        x = 2.0
        t = a.preimage(x)
        assert a(t) == pytest.approx(x, abs=1e-6)

    def test_preimage_infinity(self):
        assert TranslationFunction.identity().preimage(INF) == INF


def old_closed_form(kind, param, t):
    """alpha(t) as the identity, additive and multiplicative kinds computed it."""
    a = np.asarray(t, dtype=float)
    if kind == "identity":
        return a.copy()
    with np.errstate(over="ignore"):
        return a + param if kind == "additive" else a * param


def old_closed_preimage(kind, param, x):
    """``preimage`` as the identity, additive and multiplicative kinds computed it."""
    if np.isinf(x):
        return INF
    if kind == "identity":
        return float(x)
    return max(0.0, x - param) if kind == "additive" else x / param


CLOSED_FORMS = [("identity", None)]
CLOSED_FORMS += [("additive", a) for a in (0.0, 5e-324, 1e-300, 0.5, 1.0, 1e300)]
CLOSED_FORMS += [("multiplicative", c) for c in (1.0, 1.0 + 2**-52, 1.5, 3.0, 1e300)]
EXTREMES = np.array(
    [0.0, 5e-324, 1e-308, 1e-300, 2**-30, 0.1, 0.5, 1.0, 2.0, 1e10, 1e300, 1.7e308, INF]
)


class TestClosedFormOracle:
    """The closed forms t, t + a and c * t, now polynomials, keep their values."""

    @pytest.mark.parametrize("kind, param", CLOSED_FORMS)
    def test_values_match(self, kind, param):
        make = getattr(TranslationFunction, kind)
        alpha = make() if param is None else make(param)
        assert alpha.kind == "polynomial" and len(alpha.params) == 2
        np.testing.assert_array_equal(alpha(EXTREMES), old_closed_form(kind, param, EXTREMES))
        grid = np.random.default_rng(7).exponential(size=(40, 30)) ** 8
        np.testing.assert_array_equal(alpha(grid), old_closed_form(kind, param, grid))
        for x in EXTREMES.tolist():
            assert alpha(x) == float(old_closed_form(kind, param, x))
            assert alpha.preimage(x) == old_closed_preimage(kind, param, x)

    def test_params_of_the_closed_forms(self):
        assert TranslationFunction.parse("id").params == (0.0, 1.0)
        assert TranslationFunction.parse("add:1.5").params == (1.5, 1.0)
        assert TranslationFunction.parse("mult:2").params == (0.0, 2.0)

    @pytest.mark.parametrize("coefficients", [(-1e-300, 1.0), (0.0, 1.0 - 2**-53), (2.0, 0.5)])
    def test_degree_one_checked_exactly(self, coefficients):
        with pytest.raises(InputValidationError, match="c0 >= 0 and c1 >= 1"):
            TranslationFunction.polynomial(coefficients)


def old_parent_depths(parent):
    """The per-node walk ``ParentFunction`` ran before pointer jumping: the
    checks, then each node's depth, raising at the first node on or below a cycle."""
    p = np.asarray(parent, dtype=int)
    if p.ndim != 1 or p.size == 0:
        raise InputValidationError("parent map must be a nonempty 1-d index array")
    if ((p < 0) | (p >= p.size)).any():
        raise InputValidationError("parent index out of range")
    roots = np.nonzero(p == np.arange(p.size))[0]
    if roots.size != 1:
        raise InputValidationError(f"expected exactly one root, found {roots.size}")
    depth = np.full(p.size, -1, dtype=int)
    depth[roots[0]] = 0
    for l in range(p.size):
        path = []
        cur = l
        while depth[cur] < 0:
            path.append(cur)
            cur = int(p[cur])
            if len(path) > p.size:
                raise InputValidationError(f"cycle through index {l}")
        for k, node in enumerate(reversed(path), start=depth[cur] + 1):
            depth[node] = k
    return depth


def random_parent_arrays(rng):
    """Valid trees, long paths, a single node, two roots and cycles."""
    for _ in range(300):
        n = int(rng.integers(1, 40))
        perm = rng.permutation(n)
        tree = np.empty(n, dtype=int)
        tree[perm] = perm[[0] + [int(rng.integers(0, i)) for i in range(1, n)]]
        yield tree
        path = np.empty(n, dtype=int)
        path[perm] = perm[np.maximum(np.arange(n) - 1, 0)]
        yield path
        if n > 1:
            two = tree.copy()
            two[perm[int(rng.integers(1, n))]] = perm[int(rng.integers(1, n))]
            yield two  # a cycle, or a second root
            loose = rng.integers(0, n, n)
            loose[perm[0]] = perm[0]
            yield loose  # a random map with one root, often cyclic
    yield np.array([0])
    yield np.roll(np.arange(500), 1)  # one cycle through every node, no root
    deep = np.arange(-1, 1999)
    deep[0] = 0
    yield deep  # a path 1,999 steps deep
    deep = np.append(np.arange(1, 2001), 2000)
    deep[1999] = 1998
    yield deep  # the same path below the cycle 1998 <-> 1999, beside the root 2000


class TestParentOracle:
    def test_matches_the_per_node_walk(self, rng):
        outcomes = set()
        for parent in random_parent_arrays(rng):
            try:
                depth = old_parent_depths(parent)
            except InputValidationError as exc:
                with pytest.raises(InputValidationError) as new:
                    ParentFunction(parent=parent)
                assert str(new.value) == str(exc)
                outcomes.add(str(exc).split(" index ")[0].split(" found ")[0])
                continue
            phi = ParentFunction(parent=parent)
            np.testing.assert_array_equal(phi.leaves_first(), np.argsort(-depth, kind="stable"))
            outcomes.add("tree")
        assert outcomes == {"tree", "expected exactly one root,", "cycle through"}


class TestParentFunction:
    def test_valid_tree(self):
        phi = ParentFunction(parent=[0, 0, 1])
        assert phi.root == 0

    def test_leaves_first_order(self):
        phi = ParentFunction(parent=[0, 0, 1])
        order = phi.leaves_first()
        assert list(order).index(2) < list(order).index(1)

    def test_rejects_two_roots(self):
        with pytest.raises(InputValidationError):
            ParentFunction(parent=[0, 1, 0])

    def test_rejects_cycle(self):
        with pytest.raises(InputValidationError):
            ParentFunction(parent=[1, 2, 1])


class TestRestrictionTimes:
    def test_valid(self):
        phi = ParentFunction(parent=[0, 0])
        R = RestrictionTimes(times=np.array([INF, 1.0]), tree=phi)
        assert np.isinf(R.times[0])

    def test_root_must_be_infinite(self):
        phi = ParentFunction(parent=[0, 0])
        with pytest.raises(InputValidationError):
            RestrictionTimes(times=np.array([3.0, 1.0]), tree=phi)

    def test_monotone_along_tree(self):
        phi = ParentFunction(parent=[0, 0, 1])
        with pytest.raises(InputValidationError):
            RestrictionTimes(times=np.array([INF, 1.0, 2.0]), tree=phi)
