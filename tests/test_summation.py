import math
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chisum
from chisum.exceptions import AbelRadiusError, DomainError, NumericError
from chisum.series import catalog_lookup, combine, load_custom, partial_sums
from chisum.summation import (
    CONVERGED,
    DIVERGING,
    abel_estimate,
    cesaro_mean,
    chi_limit,
    chi_sum,
    chi_sweep,
    classify_convergence,
    euler_transform,
    richardson_accelerate,
)


def coefficient_series(coeffs):
    return catalog_lookup("custom", coefficients=list(coeffs))


class TestChiSum:
    def test_grandi_n100(self):
        assert chi_sum(catalog_lookup("grandi"), 100) == pytest.approx(
            0.4987, abs=1e-4
        )

    def test_constant_series(self):
        spec = coefficient_series([7.25])
        for n in (1, 5, 50):
            assert chi_sum(spec, n) == pytest.approx(7.25, rel=1e-14)

    def test_geometric_zero(self):
        assert chi_sum(catalog_lookup("geometric", x=0.0), 5) == 1.0

    def test_nonfinite_term_names_index(self):
        # alt_log has no rational form, so neither has the combination,
        # and the overflowing term at k=1 cannot be redone exactly.
        huge = catalog_lookup("custom", coefficients=[0.0, 1e308], x=10.0)
        bad = combine([catalog_lookup("alt_log"), huge], [0.0, 1.0])
        with pytest.raises(NumericError, match="index 1"):
            chi_sum(bad, 5)

    def test_exact_result_out_of_range(self):
        # The exact sum is w_1 * 1e309, which no double can hold.
        huge = catalog_lookup("custom", coefficients=[0.0, 1e308], x=10.0)
        with pytest.raises(NumericError, match="overflows"):
            chi_sum(huge, 5)

    def test_custom_cancelling_sum_is_exact(self):
        # Near the boundary a custom series cancels as the geometric one
        # does; its double sum reads 1.13e9 here.
        custom = load_custom({"coefficients": [1.0] * 600, "x": -2.0})
        got = chi_sum(custom, 300)
        assert got == chi_sum(catalog_lookup("geometric", x=-2.0), 300)
        assert got == 0.33283950780099497

    def test_domain(self):
        with pytest.raises(DomainError):
            chi_sum(catalog_lookup("grandi"), 0)

    def test_reads_no_term_past_n(self):
        # The Bernoulli stream ends at k=60 with DomainError; S_60 reads
        # a_0..a_60 only.
        spec = catalog_lookup("bernoulli_power", x=0.3)
        assert math.isfinite(chi_sum(spec, 60))
        with pytest.raises(DomainError):
            chi_sum(spec, 61)

    @pytest.mark.parametrize("x", [-3.5, -2.0, 0.5])
    def test_same_path_as_sweep(self, x):
        spec = catalog_lookup("geometric", x=x)
        assert chi_sum(spec, 400) == chi_sweep(spec, (400,)).approximants[0]

    def test_escalates_when_double_cancels(self):
        # At x=-3.5, n=400 the weighted terms reach about 1e80 and cancel
        # to about 0.22; the reference is the same sum in 120 digits.
        x, n = -3.5, 400
        with mpmath.workdps(120):
            w, ref = mpmath.mpf(1), mpmath.mpf(1)
            for k in range(1, n + 1):
                w *= mpmath.mpf(n - k + 1) / n
                ref += w * mpmath.mpf(x) ** k
        got = chi_sum(catalog_lookup("geometric", x=x), n)
        assert got == pytest.approx(float(ref), rel=1e-14)

    def test_import_leaves_mpmath_out(self):
        code = "import sys, chisum; print('mpmath' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(chisum.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        assert done.stdout == "False\n"


def closed_form_geometric(x, n):
    """S_n(x) = (x/n)^n e^(n/x) Gamma(n+1, n/x), in 50 digits."""
    with mpmath.workdps(50):
        xm = mpmath.mpf(x)
        return float(
            (xm / n) ** n * mpmath.exp(n / xm) * mpmath.gammainc(n + 1, n / xm)
        )


class TestClosedFormOracle:
    # x**k overflows a double for these x and n, so chi_sum always takes
    # its exact path here; the closed form shares no code with it.
    @given(
        st.floats(min_value=-3.55, max_value=-2.0),
        st.integers(min_value=1100, max_value=2000),
    )
    @settings(max_examples=20, deadline=None)
    def test_geometric_near_boundary(self, x, n):
        ref = closed_form_geometric(x, n)
        got = chi_sum(catalog_lookup("geometric", x=x), n)
        assert abs(got - ref) <= math.ulp(ref)

    def test_geometric_minus2_n10000(self):
        ref = closed_form_geometric(-2.0, 10**4)
        got = chi_sum(catalog_lookup("geometric", x=-2.0), 10**4)
        assert abs(got - ref) <= math.ulp(ref)


class TestDefinitionEquivalence:
    def test_grandi(self):
        g = catalog_lookup("grandi")
        assert abs(chi_sum(g, 100) - chi_limit(g, 100)) <= 1e-10

    def test_constant(self):
        spec = coefficient_series([3.5])
        for n in (1, 3, 40):
            assert chi_limit(spec, n) == pytest.approx(3.5, rel=1e-12)

    def test_geometric_half(self):
        s = catalog_lookup("geometric", x=0.5)
        assert abs(chi_sum(s, 50) - chi_limit(s, 50)) <= 1e-10

    def test_randomized_sequences(self):
        rng = random.Random(20240817)
        for _ in range(50):
            coeffs = [rng.uniform(-1, 1) for _ in range(64)]
            spec = coefficient_series(coeffs)
            for n in (16, 64, 256):
                a = chi_sum(spec, n)
                b = chi_limit(spec, n)
                assert abs(a - b) <= 1e-10 * (1 + abs(a))


class TestLinearity:
    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=8,
            max_size=24,
        ),
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=8,
            max_size=24,
        ),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    @settings(max_examples=30, deadline=None)
    def test_combination_commutes_with_sum(self, cs, ct, alpha, beta):
        s, t = coefficient_series(cs), coefficient_series(ct)
        mixed = combine([s, t], [alpha, beta])
        n = 32
        lhs = chi_sum(mixed, n)
        rhs = alpha * chi_sum(s, n) + beta * chi_sum(t, n)
        assert lhs == pytest.approx(rhs, abs=1e-10 * (1 + abs(rhs)))


class TestSweepAndClassification:
    def test_geometric_minus2_converges(self):
        r = chi_sweep(catalog_lookup("geometric", x=-2.0), (10, 20, 40, 80))
        assert r.verdict == CONVERGED
        errs = [abs(v - 1 / 3) for v in r.approximants]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_geometric_minus4_diverges(self):
        r = chi_sweep(catalog_lookup("geometric", x=-4.0), (10, 20, 40, 80))
        assert r.verdict == DIVERGING

    def test_geometric_zero_constant(self):
        r = chi_sweep(catalog_lookup("geometric", x=0.0), (5, 10, 20))
        assert r.approximants == (1.0, 1.0, 1.0)
        assert r.verdict == CONVERGED

    def test_classify_needs_three_points(self):
        with pytest.raises(DomainError):
            classify_convergence([1.0, 1.0], [10, 20])

    def test_classify_constant(self):
        assert classify_convergence([2.0, 2.0, 2.0], [1, 2, 3]) == CONVERGED

    def test_classify_doubling_differences(self):
        assert (
            classify_convergence([0.0, 1.0, 3.0, 7.0, 15.0], [1, 2, 3, 4, 5])
            == DIVERGING
        )

    def test_grid_validation(self):
        g = catalog_lookup("grandi")
        with pytest.raises(DomainError):
            chi_sweep(g, ())
        with pytest.raises(DomainError):
            chi_sweep(g, (10, 10, 20))

    def test_rate_halves_when_n_doubles(self):
        # O(1/n) regularity rate on a convergent geometric series.
        spec = catalog_lookup("geometric", x=0.5)
        errs = [abs(chi_sum(spec, n) - 2.0) for n in (100, 200, 400, 800)]
        for a, b in zip(errs, errs[1:]):
            assert a / b == pytest.approx(2.0, rel=0.2)

    def test_totally_regular_blowup_is_monotone(self):
        r = chi_sweep(catalog_lookup("geometric", x=2.0), (10, 20, 40, 80))
        assert all(v > 0 for v in r.approximants)
        assert all(b > a for a, b in zip(r.approximants, r.approximants[1:]))

    def test_error_estimate_attached(self):
        r = chi_sweep(catalog_lookup("geometric", x=-2.0), (10, 20, 40))
        assert r.error is not None
        assert r.error.predicted == pytest.approx((2 / 27) * 4 / 80, rel=1e-12)
        assert r.error.observed is not None
        assert r.error.ratio == pytest.approx(1.0, abs=0.25)


class TestRichardson:
    def test_exact_one_over_n_model(self):
        L, C = 0.75, 3.0
        v = lambda n: L + C / n
        assert richardson_accelerate(v(40), 40, v(80), 80) == pytest.approx(
            L, rel=1e-12
        )

    def test_improves_geometric(self):
        spec = catalog_lookup("geometric", x=-2.0)
        v40, v80 = chi_sum(spec, 40), chi_sum(spec, 80)
        accel = richardson_accelerate(v40, 40, v80, 80)
        assert abs(accel - 1 / 3) < abs(v80 - 1 / 3)

    def test_equal_values_fixed_point(self):
        assert richardson_accelerate(1.23, 10, 1.23, 20) == 1.23

    def test_equal_n_rejected(self):
        with pytest.raises(DomainError):
            richardson_accelerate(1.0, 10, 2.0, 10)


class TestSettledSumFastPath:
    """accelerate=True reports the ordinary sum once it has settled."""

    GRID = (25, 50, 100, 200, 400)

    @staticmethod
    def richardson_or_last(r):
        if not r.accelerated:
            return r.approximants[-1]
        (n1, n2), (v1, v2) = r.n_grid[-2:], r.approximants[-2:]
        return richardson_accelerate(v1, n1, v2, n2)

    @pytest.mark.parametrize(
        "name, x", [("geometric", 0.9), ("geometric", 0.5), ("log1p_taylor", 0.5)]
    )
    def test_fires_on_settled_series(self, name, x):
        spec = catalog_lookup(name, x=x)
        r = chi_sweep(spec, self.GRID, accelerate=True)
        assert r.accelerated
        assert r.value == partial_sums(spec, self.GRID[-1]).s[-1]
        assert r.value == pytest.approx(spec.exact_value, rel=1e-15)

    @pytest.mark.parametrize(
        "spec, grid",
        [
            (catalog_lookup("geometric", x=-0.99), GRID),
            (catalog_lookup("geometric", x=0.99), GRID),
            # Terms overflow from k = 567 on: not settled, and no error.
            (catalog_lookup("geometric", x=-3.5), (300, 600, 1200)),
            (catalog_lookup("grandi"), GRID),
            (catalog_lookup("alt_harmonic_numbers"), GRID),
        ],
        ids=["geometric-0.99", "geometric0.99", "geometric-3.5", "grandi",
             "alt_harmonic_numbers"],
    )
    def test_does_not_fire_on_unsettled_series(self, spec, grid):
        r = chi_sweep(spec, grid, accelerate=True)
        assert r.value == self.richardson_or_last(r)

    @pytest.mark.parametrize("x", [0.9, -2.0])
    def test_approximants_unchanged(self, x):
        spec = catalog_lookup("geometric", x=x)
        plain = chi_sweep(spec, self.GRID)
        fast = chi_sweep(spec, self.GRID, accelerate=True)
        assert fast.approximants == plain.approximants
        assert fast.verdict == plain.verdict
        assert not plain.accelerated and plain.value == plain.approximants[-1]


class TestCesaro:
    def test_grandi(self):
        assert cesaro_mean(catalog_lookup("grandi"), 999) == pytest.approx(
            0.5, abs=1e-3
        )

    def test_regular_on_convergent(self):
        assert cesaro_mean(catalog_lookup("geometric", x=0.5), 10**4) == pytest.approx(
            2.0, abs=1e-3
        )

    def test_constant(self):
        assert cesaro_mean(coefficient_series([4.0]), 17) == 4.0


class TestEulerTransform:
    def test_grandi_exact(self):
        assert euler_transform(catalog_lookup("grandi"), 8) == 0.5

    def test_geometric_minus2(self):
        assert euler_transform(
            catalog_lookup("geometric", x=-2.0), 30
        ) == pytest.approx(1 / 3, abs=1e-6)

    def test_n1_constant_b(self):
        # a_k = 5*(-1)^k gives constant b_k = 5; only the j=0 term survives.
        scaled = combine([catalog_lookup("grandi")], [5.0])
        assert euler_transform(scaled, 1) == pytest.approx(2.5, rel=1e-15)

    def test_convergent_geometric(self):
        assert euler_transform(
            catalog_lookup("geometric", x=0.5), 60
        ) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1100, 2000])
    @pytest.mark.parametrize("name", ["alt_log", "alt_harmonic_numbers"])
    def test_no_overflow_past_1024(self, name, n):
        # Unscaled forward differences grow like 2^j and overflow past
        # j of about 1024.
        spec = catalog_lookup(name)
        assert abs(euler_transform(spec, n) - spec.exact_value) <= 1e-12


class TestAbel:
    def test_grandi_extrapolated(self):
        v = abel_estimate(
            catalog_lookup("grandi"), (0.9, 0.99, 0.999), extrapolate=True
        )
        assert v == pytest.approx(0.5, abs=1e-3)

    def test_grandi_last_radius(self):
        v = abel_estimate(catalog_lookup("grandi"), (0.9, 0.99))
        assert v == pytest.approx(1 / 1.99, abs=1e-6)

    def test_alt_harmonic_numbers_closed_form(self):
        # sum_k (-1)^k H_{k+1} r^k = log(1 + r) / (r (1 + r)).
        r = 0.999
        v = abel_estimate(catalog_lookup("alt_harmonic_numbers"), (r,))
        assert v == pytest.approx(math.log1p(r) / (r * (1.0 + r)), rel=1e-12)

    def test_geometric_minus2_not_abel_summable(self):
        with pytest.raises(AbelRadiusError):
            abel_estimate(catalog_lookup("geometric", x=-2.0), (0.9,))

    def test_convergent_geometric(self):
        v = abel_estimate(
            catalog_lookup("geometric", x=0.5), (0.9, 0.99, 0.999), extrapolate=True
        )
        assert v == pytest.approx(2.0, abs=1e-2)

    def test_bad_radii(self):
        g = catalog_lookup("grandi")
        with pytest.raises(DomainError):
            abel_estimate(g, (0.99, 0.9))
        with pytest.raises(DomainError):
            abel_estimate(g, (1.5,))
