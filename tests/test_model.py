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
    validate_dissimilarity,
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

    def test_rectangular_allowed_without_metric(self):
        dd = DowkerDissimilarity([[0.0, 1.0, 2.0]])
        assert dd.values.shape == (1, 3)

    def test_max_finite(self):
        dd = DowkerDissimilarity([[0.0, 5.0, INF]])
        assert dd.max_finite == 5.0

    def test_validation_report(self):
        report = validate_dissimilarity([[0.0, 1.0], [1.0, 0.0]])
        assert report.ok


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
        assert TranslationFunction.parse("id").kind == "identity"
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


class TestParentFunction:
    def test_valid_tree(self):
        phi = ParentFunction(parent=[0, 0, 1])
        assert phi.root == 0

    def test_children(self):
        phi = ParentFunction(parent=[0, 0, 0])
        assert sorted(phi.children()[0]) == [1, 2]

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
