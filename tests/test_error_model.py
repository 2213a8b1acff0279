import math
import sys

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chisum.error_model import (
    ErrorEstimate,
    observed_error,
    predicted_error,
    rate_fit,
)
from chisum.exceptions import DomainError, NumericError
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
    def test_ratio_is_observed_over_predicted(self):
        e = ErrorEstimate(predicted=0.3, observed=0.5)
        assert e.ratio == 0.5 / 0.3

    @pytest.mark.parametrize(
        "estimate",
        [ErrorEstimate(predicted=1.0), ErrorEstimate(observed=0.5), ErrorEstimate()],
    )
    def test_no_ratio_without_both(self, estimate):
        assert estimate.ratio is None

    def test_zero_predicted_has_no_ratio(self):
        e = ErrorEstimate(predicted=0.0, observed=0.5)
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

    @pytest.mark.parametrize(
        "grid,errors,match",
        [
            ([10, 20], [1.0, 0.5], "at least 3"),
            ([10, 20, 40], [1.0, -0.5, 0.25], "change sign"),
            # The product of the first two underflows to -0.0.
            ([10, 20, 40], [1e-200, -1e-200, 1e-200], "change sign"),
            ([10, 20, 40], [1.0, 0.0, 0.25], "nonzero"),
            ([10, 10, 10], [1.0, 2.0, 3.0], "two distinct orders"),
            ([0, 1, 2], [1.0, 2.0, 3.0], ">= 1"),
            ([10, math.nan, 40], [1.0, 2.0, 3.0], ">= 1"),
            ([10, 20, math.inf], [1.0, 2.0, 3.0], ">= 1"),
            ([10, 20, 40], [math.inf, 1.0, 2.0], "finite"),
            ([10, 20, 40], [1.0, math.nan, 2.0], "finite"),
        ],
        ids=["too-few", "sign-change", "sign-change-underflow", "zero-error",
             "one-order", "order-0", "order-nan", "order-inf", "error-inf",
             "error-nan"],
    )
    def test_degenerate_input_rejected(self, grid, errors, match):
        with pytest.raises(DomainError, match=match):
            rate_fit(grid, errors)

    @pytest.mark.parametrize(
        "errors", [[1e300, 1e-300, 1e-300], [1e-300, 1e300, 1e300]],
        ids=["overflow", "underflow"],
    )
    def test_c_past_double_range(self, errors):
        with pytest.raises(NumericError, match="outside the normal double range"):
            rate_fit([100000, 200000, 400000], errors)

    @settings(max_examples=200, deadline=None)
    @given(
        grid=st.lists(st.integers(1, 10**6), min_size=3, max_size=8, unique=True),
        data=st.data(),
    )
    def test_matches_the_closed_form_in_50_digits(self, grid, data):
        sign = data.draw(st.sampled_from([1.0, -1.0]))
        errors = [sign * data.draw(st.floats(1e-300, 1e300)) for _ in grid]
        with mpmath.workdps(50):
            u = [mpmath.log(n) for n in grid]
            v = [mpmath.log(abs(mpmath.mpf(e))) for e in errors]
            u_bar, v_bar = mpmath.fsum(u) / len(u), mpmath.fsum(v) / len(v)
            p = -mpmath.fsum(
                (a - u_bar) * (b - v_bar) for a, b in zip(u, v)
            ) / mpmath.fsum((a - u_bar) ** 2 for a in u)
            log_c = v_bar + p * u_bar
        lo, hi = math.log(sys.float_info.min), math.log(sys.float_info.max)
        # Within rounding of the range's ends either outcome is right.
        assume(abs(log_c - lo) > 1e-6 and abs(log_c - hi) > 1e-6)
        if not lo < log_c < hi:
            with pytest.raises(NumericError):
                rate_fit(grid, errors)
            return
        fit = rate_fit(grid, errors)
        assert abs(fit.p - p) <= 1e-11 * (1 + abs(p))
        assert abs(fit.C - mpmath.exp(log_c)) <= 1e-9 * mpmath.exp(log_c)
