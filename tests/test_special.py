import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from chisum.exceptions import DomainError
from chisum.special import (
    EULER_GAMMA,
    bernoulli_gen_fn,
    bernoulli_numbers,
    harmonic,
    harmonic_numbers,
    solve_kappa,
    trigamma,
)

# Published table under the B_1 = +1/2 convention (odd entries >= 3 vanish).
PUBLISHED_BERNOULLI = {
    0: Fraction(1),
    1: Fraction(1, 2),
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
    14: Fraction(7, 6),
    16: Fraction(-3617, 510),
    20: Fraction(-174611, 330),
}


def bisect_kappa(tol):
    # Independent oracle for the boundary constant on [3, 4].
    lo, hi = 3.0, 4.0
    g = lambda k: k * math.log(k) - k - 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trigamma_series_oracle(z, terms=2 * 10**6):
    # Direct sum of 1/(z+k)^2 with an integral tail correction.
    head = math.fsum(1.0 / (z + k) ** 2 for k in range(terms))
    return head + 1.0 / (z + terms - 0.5)


class TestBernoulli:
    def test_first_entries(self):
        t = bernoulli_numbers(3)
        assert t.values == (1.0, 0.5, pytest.approx(1 / 6), 0.0)

    def test_against_published_table(self):
        t = bernoulli_numbers(20)
        for k, frac in PUBLISHED_BERNOULLI.items():
            assert t[k] == pytest.approx(float(frac), rel=1e-15)

    def test_m0(self):
        assert bernoulli_numbers(0).values == (1.0,)

    def test_odd_entries_exactly_zero(self):
        t = bernoulli_numbers(60)
        for k in range(3, 61, 2):
            assert t[k] == 0.0

    def test_precision_window(self):
        with pytest.raises(DomainError, match="precision"):
            bernoulli_numbers(61)
        with pytest.raises(DomainError):
            bernoulli_numbers(-1)


class TestHarmonic:
    def test_small(self):
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5

    def test_euler_asymptotic(self):
        assert abs(harmonic(10**6) - math.log(10**6) - EULER_GAMMA) <= 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            harmonic(0)


class TestHarmonicStream:
    def test_equals_harmonic_up_to_5000(self):
        stream = list(islice(harmonic_numbers(), 5000))
        assert stream == [harmonic(k) for k in range(1, 5001)]

    def test_equals_harmonic_at_sampled_large_k(self):
        stream = list(islice(harmonic_numbers(), 200_000))
        ks = random.Random(20240601).sample(range(1, 200_001), 200)
        assert [stream[k - 1] for k in ks] == [harmonic(k) for k in ks]


class TestTrigamma:
    def test_zeta2(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    def test_against_series_oracle(self):
        assert trigamma(1.0) == pytest.approx(trigamma_series_oracle(1.0), rel=1e-9)

    def test_z2(self):
        assert trigamma(2.0) == pytest.approx(math.pi**2 / 6 - 1.0, rel=1e-12)

    @pytest.mark.parametrize("z", [0.5, 1.0, 2.5, 7.0])
    def test_recurrence_consistency(self, z):
        assert trigamma(z) - trigamma(z + 1.0) == pytest.approx(
            1.0 / (z * z), rel=1e-12
        )

    def test_leading_asymptotic(self):
        assert trigamma(1e6) * 1e6 == pytest.approx(1.0, abs=1e-6)

    def test_pole_domain(self):
        with pytest.raises(DomainError):
            trigamma(0.0)
        with pytest.raises(DomainError):
            trigamma(-2.5)


class TestGeneratingFunction:
    # Reference values for the generating function at the table's
    # evaluation points, to 4 decimal places.
    EXACT_ROW = {
        -1.0: 0.6449,
        -0.7: 0.7255,
        -0.2: 0.9066,
        0.0: 1.0000,
        0.2: 1.1066,
        0.7: 1.4255,
        1.0: 1.6449,
    }

    @pytest.mark.parametrize("x,expected", sorted(EXACT_ROW.items()))
    def test_reference_row(self, x, expected):
        assert bernoulli_gen_fn(x) == pytest.approx(expected, abs=1e-4)

    def test_x1_is_zeta2(self):
        # h(1) = trigamma(2) + 1 = pi^2/6.
        assert bernoulli_gen_fn(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-12)

    @pytest.mark.parametrize("x", [0.2, 0.7, 1.0])
    def test_parity_identity(self, x):
        assert bernoulli_gen_fn(x) - bernoulli_gen_fn(-x) == pytest.approx(
            x, abs=1e-10
        )

    def test_continuity_at_zero(self):
        assert bernoulli_gen_fn(0.0) == 1.0
        # h(x) = 1 + x/2 + O(x**2) rounds to 1.0 here, though 1/x may not
        # be finite.
        for x in (5e-324, 1e-310, -1e-310, 2**-55):
            assert bernoulli_gen_fn(x) == 1.0
        assert bernoulli_gen_fn(1e-4) == pytest.approx(1.0, abs=1e-3)


class TestKappa:
    def test_rounded_value(self):
        assert round(solve_kappa(1e-4), 4) == 3.5911

    def test_residual(self):
        k = solve_kappa(1e-10)
        assert abs(k * math.log(k) - k - 1.0) <= 1e-10

    def test_against_bisection_oracle(self):
        assert abs(solve_kappa(1e-10) - bisect_kappa(1e-12)) <= 1e-10

    def test_inside_bracket(self):
        assert 3.0 < solve_kappa(1e-10) < 4.0

    def test_tol_domain(self):
        with pytest.raises(DomainError):
            solve_kappa(1e-16)


class TestEulerGamma:
    def test_literal(self):
        assert EULER_GAMMA == 0.5772156649015329

    def test_consistent_with_harmonic(self):
        assert abs(harmonic(10**6) - math.log(10**6) - EULER_GAMMA) <= 1e-6
