import math

import pytest

from chisum.error_model import (
    ErrorEstimate,
    observed_error,
    predicted_error,
    rate_fit,
)
from chisum.exceptions import DomainError
from chisum.series import catalog_lookup
from chisum.summation import chi_sum, chi_sweep


class TestPredictedError:
    def test_geometric_case(self):
        # f'' = 2/(1-x)^3 = 2/27 at x = -2.
        assert predicted_error(2 / 27, -2.0, 0.0, 40) == pytest.approx(
            0.0037037, abs=1e-7
        )

    def test_log_case(self):
        assert predicted_error(-1 / 16, 3.0, 0.0, 30) == pytest.approx(
            -0.009375, abs=1e-12
        )

    def test_zero_at_base_point(self):
        assert predicted_error(5.0, 1.5, 1.5, 10) == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            predicted_error(1.0, 1.0, 0.0, 0)


class TestObservedError:
    def test_geometric_minus2_n40(self):
        v = chi_sum(catalog_lookup("geometric", x=-2.0), 40)
        assert observed_error(v, 1 / 3) == pytest.approx(0.0037, abs=5e-5)

    def test_log1p_x3_n30(self):
        v = chi_sum(catalog_lookup("log1p_taylor", x=3.0), 30)
        assert observed_error(v, math.log(4)) == pytest.approx(-0.0091, abs=5e-5)

    def test_exact_match(self):
        assert observed_error(1.25, 1.25) == 0.0


class TestSignAndRatio:
    CASES = [
        ("geometric", {"x": -2.0}),
        ("geometric", {"x": 0.5}),
        ("geometric", {"x": -0.5}),
        ("grandi", {}),
        ("log1p_taylor", {"x": 3.0}),
        ("log1p_taylor", {"x": 0.5}),
    ]

    # n kept at desk scale: far past this the double-precision weighted
    # sum loses the error's digits to cancellation for the x=3 cases.
    @pytest.mark.parametrize("name,params", CASES)
    @pytest.mark.parametrize("n", [30, 60])
    def test_sign_law(self, name, params, n):
        spec = catalog_lookup(name, **params)
        obs = observed_error(chi_sum(spec, n), spec.exact_value)
        pred = predicted_error(spec.second_derivative, spec.x, 0.0, n)
        assert math.copysign(1.0, obs) == math.copysign(1.0, pred)

    def test_ratio_window_geometric(self):
        spec = catalog_lookup("geometric", x=-2.0)
        obs = observed_error(chi_sum(spec, 40), spec.exact_value)
        pred = predicted_error(spec.second_derivative, spec.x, 0.0, 40)
        assert 0.8 <= obs / pred <= 1.25

    def test_ratio_window_log(self):
        spec = catalog_lookup("log1p_taylor", x=3.0)
        obs = observed_error(chi_sum(spec, 30), spec.exact_value)
        pred = predicted_error(spec.second_derivative, spec.x, 0.0, 30)
        assert 0.8 <= obs / pred <= 1.25


class TestErrorEstimate:
    def test_ratio_requires_observed(self):
        with pytest.raises(DomainError):
            ErrorEstimate(predicted=1.0, observed=None, ratio=2.0)

    def test_ratio_required_when_observed(self):
        with pytest.raises(DomainError):
            ErrorEstimate(predicted=1.0, observed=0.5, ratio=None)

    def test_zero_predicted_has_no_ratio(self):
        e = ErrorEstimate(predicted=0.0, observed=0.5, ratio=None)
        assert e.ratio is None


class TestRateFit:
    def test_exact_power_law(self):
        C = 0.37
        grid = [10, 20, 40, 80, 160]
        fit = rate_fit(grid, [C / n for n in grid])
        assert fit.p == pytest.approx(1.0, abs=1e-12)
        assert fit.C == pytest.approx(C, rel=1e-12)

    def test_geometric_minus2_rate(self):
        spec = catalog_lookup("geometric", x=-2.0)
        grid = (50, 100, 200, 400)
        approx = chi_sweep(spec, grid).approximants
        errs = [observed_error(v, 1 / 3) for v in approx]
        fit = rate_fit(grid, errs)
        assert 0.9 <= fit.p <= 1.1
        assert fit.C == pytest.approx(4 / 27, rel=0.15)

    def test_sign_change_rejected(self):
        with pytest.raises(DomainError):
            rate_fit([10, 20, 40], [1.0, -0.5, 0.25])

    def test_zero_error_rejected(self):
        with pytest.raises(DomainError):
            rate_fit([10, 20, 40], [1.0, 0.0, 0.25])

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            rate_fit([10, 20], [1.0, 0.5])
