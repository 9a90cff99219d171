import re

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
    row_blocks,
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

    def test_names_the_first_fault_nan_before_negative(self):
        with pytest.raises(InputValidationError, match=r"NaN entry at index \(1, 0\)"):
            as_extended_matrix([[-1.0, 0.0], [np.nan, np.nan]])
        with pytest.raises(InputValidationError, match=r"negative entry at index \(0, 1\)"):
            as_extended_matrix([[0.0, -1.0], [-2.0, INF]])

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

    def test_symmetry_checked_past_the_first_row_block(self):
        values = np.zeros((400, 400))
        values[300, 350] = 1.0
        assert len(row_blocks(400, 400)) > 1
        with pytest.raises(InputValidationError, match=r"1.0 at \(300, 350\), 0.0 at \(350, 300\)"):
            DowkerDissimilarity(values, metric=True)

    def test_given_array_is_copied(self):
        values = np.zeros((2, 2))
        dd = DowkerDissimilarity(values)
        assert not np.shares_memory(dd.values, values) and values.flags.writeable

    def test_rectangular_allowed_without_metric(self):
        dd = DowkerDissimilarity([[0.0, 1.0, 2.0]])
        assert dd.values.shape == (1, 3)


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

    @pytest.mark.parametrize(
        "make, message",
        [
            # Sampling 1,024 points missed each of these at some data scale.
            pytest.param(
                lambda: TranslationFunction.parse("poly:0.977,-0.355,0.748"),
                "decreases near t=0$",
                id="poly:0.977,-0.355,0.748",
            ),
            pytest.param(
                lambda: TranslationFunction.parse("poly:0,0.64,0,0,0.362"),
                "diagonal near t=0.62879",
                id="poly:0,0.64,0,0,0.362",
            ),
            pytest.param(
                lambda: TranslationFunction.parse("poly:5000"),
                "diagonal near t=5000$",
                id="poly:5000",
            ),
            pytest.param(
                lambda: TranslationFunction.tabulated(KNOTS, DENTED),
                "diagonal near t=50.02$",
                id="dented-table",
            ),
        ],
    )
    def test_rejected_where_the_fault_shows(self, make, message):
        with pytest.raises(InputValidationError, match=message):
            make()

    def test_touching_the_diagonal_is_not_a_dip(self):
        # t + (t - 0.3)^2 / 2 touches the diagonal at 0.3, where Horner's
        # rule gives alpha - t = -1.4e-17; t + (t - 1)^2 - 1e-6 dips below it.
        TranslationFunction.parse("poly:0.045,0.7,0.5")
        with pytest.raises(InputValidationError, match="diagonal near t=1$"):
            TranslationFunction.parse("poly:0.999999,-1,1")

    def test_trailing_zeros_trimmed(self):
        a = TranslationFunction.parse("poly:1,1,0")
        assert a.params == (1.0, 1.0)
        assert a.preimage(3.0) == 2.0

    def test_unlocatable_critical_points_rejected_cleanly(self):
        # alpha' - 1 = 1e-10 + 1e300 t + 1e-10 t^2: balancing its first and
        # last coefficients leaves 1e300 / 1e-10 = inf in the companion matrix.
        with pytest.raises(InputValidationError, match="critical points"):
            TranslationFunction.parse("poly:0,1.0000000001,5e299,3.33e-11")

    def test_tiny_top_coefficient_is_located(self):
        # Unscaled, the companion matrix of alpha' - 1 = 1 + 2e-310 t holds
        # -1 / 2e-310 = -inf; on t = 2^k tau it is finite.
        alpha = TranslationFunction.parse("poly:1,2,1e-310")
        assert alpha(3.0) == 7.0
        # alpha(t) - t = 1 - 1e-310 t^2 is negative past t = 1e155.
        with pytest.raises(InputValidationError, match="diagonal near t=1e\\+155"):
            TranslationFunction.parse("poly:1,1,-1e-310")

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


# 5,001 knots on the diagonal, one of them 0.05 below it: the dent spans
# 0.04, less than the gap between 1,024 samples of [0, 100].
KNOTS = np.linspace(0.0, 100.0, 5001)
DENTED = KNOTS.copy()
DENTED[2501] -= 0.05


def unchecked(kind, params):
    """A translation function made without its constructor's check."""
    alpha = object.__new__(TranslationFunction)
    alpha.kind, alpha.params = kind, params
    return alpha


def oracle_fault(alpha, upper, samples=5001):
    """The fault a dense grid on [0, upper] shows first, or None.

    The grid is even on [0, 1] and on [0, upper] and geometric from 1e-3
    up to ``upper``.  Values count as below the diagonal, or as falling,
    only beyond a rounding slack of 1e-9 (1 + |alpha|).
    """
    grid = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, samples),
        np.linspace(0.0, upper, samples),
        np.geomspace(1e-3, upper, samples),
    ]))
    with np.errstate(all="ignore"):
        vals = alpha(grid)
    slack = 1e-9 * (1.0 + np.abs(vals))
    if (vals < grid - slack).any():
        return "dips below the diagonal"
    if (np.diff(vals) < -slack[1:]).any():
        return "decreases"
    return None


def root_bound(c):
    """Cauchy's bound: every root of the polynomial c (ascending) is smaller
    in modulus, so past it the polynomial keeps its top's sign."""
    c = c[: np.flatnonzero(c).max(initial=0) + 1]
    return 1.0 + np.max(np.abs(c[:-1] / c[-1])) if c.size > 1 else 0.0


def verdict(make):
    """The constructor's fault and the t it names, or (None, None) if it accepts."""
    try:
        make()
    except InputValidationError as exc:
        found = re.search(r"(dips below the diagonal|decreases) near t=(\S+)", str(exc))
        return (found[1], float(found[2])) if found else ("degree one", None)
    return None, None


class TestExactCheck:
    """The constructor against the dense-grid oracle: the same verdict, and
    a named t near which the grid shows the fault."""

    def check(self, alpha, upper, make):
        want = oracle_fault(alpha, upper)
        got, t = verdict(make)
        if got == "degree one":  # its own exact message, no t
            assert want is not None, alpha.params
            return want
        assert got == want, (alpha.params, t)
        if t is not None:
            assert np.isfinite(t) and t >= 0
            assert oracle_fault(alpha, 2 * t + 1, 2001) == got, (alpha.params, t)
        return want

    def test_random_polynomials(self, rng):
        seen = set()
        for _ in range(1000):
            degree = int(rng.integers(0, 6))
            c = rng.normal(size=degree + 1) * 10.0 ** rng.integers(-2, 2, size=degree + 1)
            c[0] = abs(c[0]) if rng.random() < 0.8 else c[0]
            c[1:2] += 1.0
            c[-1] = abs(c[-1]) if rng.random() < 0.7 else c[-1]
            c = np.round(c, 3)
            c = c[: max(1, np.flatnonzero(c).max(initial=0) + 1)]
            g = np.append(c, 0.0)[: max(c.size, 2)]  # alpha(t) - t
            g[1] -= 1.0
            upper = 2.0 * max(1.0, root_bound(g), root_bound(c[1:] * np.arange(1, c.size)))
            alpha = unchecked("polynomial", tuple(c))
            seen.add(self.check(alpha, upper, lambda: TranslationFunction.polynomial(c)))
        assert seen == {None, "dips below the diagonal", "decreases"}

    def test_random_tables(self, rng):
        seen = set()
        for _ in range(300):
            k = int(rng.integers(2, 9))
            ts = np.round(np.sort(rng.uniform(-1.0, 10.0, size=k)), 3)
            vs = ts + rng.uniform(-0.3, 1.0, size=k)
            if rng.random() < 0.5:
                vs = np.maximum.accumulate(vs)
            vs = np.round(vs, 3)
            if (np.diff(ts) <= 0).any():
                continue
            alpha = unchecked("tabulated", (ts, vs))
            seen.add(self.check(alpha, ts[-1] + 1.0, lambda: TranslationFunction.tabulated(ts, vs)))
        assert seen == {None, "dips below the diagonal", "decreases"}


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
