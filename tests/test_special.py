import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chisum.exceptions import DomainError
from chisum.special import (
    EULER_GAMMA,
    bernoulli_gen_fn,
    bernoulli_numbers,
    harmonic,
    harmonic_numbers,
    rounded,
    rounded_dot,
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


def fraction_to_double(q):
    """The reference rounding: float(q), or the infinity of q's sign where
    that overflows."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


# (num, den) with num / den a subnormal double or just below the
# smallest one: den is 2**1070..2**1140 times an odd cofactor.
_SUBNORMAL = st.builds(
    lambda num, k, f: (num * f, (f << k)),
    st.integers(-(2**60), 2**60),
    st.integers(1070, 1140),
    st.integers(1, 999).map(lambda f: 2 * f + 1),
)
# Exact halfway points between adjacent doubles m * 2**e and (m+1) * 2**e,
# as (num, den, m, e), scaled by a common factor f and signed; m has 53
# bits, or e = -1074 and the two neighbours are subnormal.
_TIES = st.builds(
    lambda me, f, sign: (
        sign * ((2 * me[0] + 1) << max(0, me[1] - 1)) * f,
        (1 << max(0, 1 - me[1])) * f,
        sign * me[0],
        me[1],
    ),
    st.one_of(
        st.tuples(st.integers(2**52, 2**53 - 1), st.integers(-1074, 970)),
        st.tuples(st.integers(0, 2**52 - 1), st.just(-1074)),
    ),
    st.integers(1, 10**6),
    st.sampled_from((1, -1)),
)


class TestRounding:
    @given(
        st.one_of(
            st.tuples(st.integers(-(2**1100), 2**1100), st.integers(1, 2**1100)),
            _SUBNORMAL,
        )
    )
    # Past double range on either side, and the tie between the largest
    # double and 2**1024, which rounds to even, past double range.
    @example((2**1024, 1))
    @example((-(2**1100), 3))
    @example((2**1024 - 2**970, 1))
    @settings(max_examples=500, deadline=None)
    def test_rounded_is_the_fraction_rounded(self, pair):
        num, den = pair
        assert repr(rounded(num, den)) == repr(fraction_to_double(Fraction(num, den)))

    @given(_TIES)
    @example((2**53 + 1, 2**53, 2**52, -52))  # 1 + 2**-53 rounds to 1.0
    @settings(max_examples=300, deadline=None)
    def test_ties_round_to_even(self, tie):
        num, den, m, e = tie
        even = m if m % 2 == 0 else m + (1 if m > 0 else -1)
        assert rounded(num, den) == math.ldexp(even, e)

    @given(
        st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(-(2**64), 2**64),
            ),
            max_size=30,
        ),
        st.integers(1, 2**300),
    )
    # Terms that cancel to a subnormal, and a sum past double range.
    @example([(1e-300, 1), (-1e-300, 1), (5e-324, 3)], 1)
    @example([(1.7e308, 1), (1.7e308, 1)], 1)
    @example([(-1.7e308, 2**64)], 1)
    @settings(max_examples=300, deadline=None)
    def test_rounded_dot_is_the_fraction_sum_rounded(self, pairs, scale):
        values = [v for v, _ in pairs]
        weights = [w for _, w in pairs]
        exact = sum((Fraction(v) * w for v, w in pairs), Fraction(0)) / scale
        got = rounded_dot(values, weights, scale)
        assert repr(got) == repr(fraction_to_double(exact))

    @pytest.mark.parametrize(
        "bad, error", [(math.inf, OverflowError), (math.nan, ValueError)]
    )
    def test_rounded_dot_rejects_a_value_that_is_not_finite(self, bad, error):
        with pytest.raises(error):
            rounded_dot([1.0, bad], [1, 1])
