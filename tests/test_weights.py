import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisum.cli import main
from chisum.exceptions import DomainError
from chisum.weights import (
    averaging_row,
    chi_row,
    exp_approx_gap,
    verify_toeplitz,
)


def closed_form_weight(n, k):
    # Independent oracle: n! / ((n-k)! n^k), valid for small n.
    return math.factorial(n) / (math.factorial(n - k) * n**k)


class TestChiWeight:
    # Single weights w(k) = chi_row(n)[k].

    def test_empty_product(self):
        assert chi_row(10)[0] == 1.0

    def test_first_factor_is_one(self):
        assert chi_row(10)[1] == 1.0

    def test_full_row_end_against_closed_form(self):
        assert chi_row(4)[4] == pytest.approx(closed_form_weight(4, 4), rel=1e-14)
        assert closed_form_weight(4, 4) == 0.09375

    def test_fixed_k_limit(self):
        # chi_row(n)[k] -> 1 as n grows, faster than 2k^2/n.
        w = chi_row(10**6)
        for k in range(21):
            assert w[k] >= 1 - 2 * k**2 / 10**6

    def test_no_overflow_past_factorial_range(self):
        w = chi_row(500)[500]
        assert 0.0 <= w < 1e-200


class TestChiRow:
    def test_n2(self):
        assert chi_row(2) == (1.0, 1.0, 0.5)

    def test_n1(self):
        assert chi_row(1) == (1.0, 1.0)

    def test_n3_first_moment_identity(self):
        w = chi_row(3)
        assert math.fsum(k * w[k] for k in range(4)) == pytest.approx(3.0, rel=1e-14)
        # hand values: 1*1 + 2*(2/3) + 3*(2/9) = 3
        assert w[2] == pytest.approx(2 / 3, rel=1e-15)
        assert w[3] == pytest.approx(2 / 9, rel=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            chi_row(0)
        with pytest.raises(DomainError):
            chi_row(-3)

    def test_rows_are_cached(self):
        assert chi_row(37) is chi_row(37)

    @given(st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_invariants(self, n):
        w = chi_row(n)
        assert len(w) == n + 1
        assert w[0] == 1.0
        assert w[1] == 1.0
        for k in range(1, n + 1):
            assert 0.0 <= w[k] <= 1.0
            assert w[k] <= w[k - 1]
            assert w[k] == pytest.approx(w[k - 1] * (1 - (k - 1) / n), abs=1e-300)
        assert abs(math.fsum(k * w[k] for k in range(n + 1)) - n) <= 1e-12 * n

    def test_first_moment_identity_all_n_to_1000(self):
        for n in range(1, 1001):
            w = chi_row(n)
            assert abs(math.fsum(k * wk for k, wk in enumerate(w)) - n) <= 1e-12 * n


def full_recurrence(n):
    # All n + 1 weights by the same running product, without the row's
    # stop at the underflow threshold.
    w = [1.0]
    for k in range(1, n + 1):
        w.append(w[-1] * (1.0 - (k - 1) / n))
    return w


class TestRowHead:
    # A row keeps the weights down to sys.float_info.min; every weight
    # past it counts as zero.

    @pytest.mark.parametrize("n", [1, 2, 400, 712, 713, 750, 2000, 20000, 10**5])
    def test_stored_weights_are_normal(self, n):
        w = chi_row(n)
        assert len(w) <= n + 1
        assert min(w) >= sys.float_info.min

    @pytest.mark.parametrize("n", [750, 2000, 20000, 10**5])
    def test_head_is_the_full_recurrence(self, n):
        w = chi_row(n)
        full = full_recurrence(n)
        assert list(w) == full[: len(w)]
        assert len(w) < n + 1
        assert max(full[len(w) :]) < sys.float_info.min

    def test_rows_end_from_n_713(self):
        assert len(chi_row(712)) == 713
        assert len(chi_row(713)) == 713

    def test_row_at_a_million_is_short(self):
        assert len(chi_row(10**6)) < 40_000

    @pytest.mark.parametrize("n,k", [(750, 300), (2000, 1425), (20000, 5000)])
    def test_chi_weight_is_the_recurrence(self, n, k):
        assert chi_row(n)[k] == full_recurrence(n)[k]

    def test_chi_weight_past_the_head_is_zero(self):
        # The head ends before the first weight below sys.float_info.min,
        # and every weight past it counts as zero.
        n = 2000
        w, full = chi_row(n), full_recurrence(n)
        assert w[-1] == full[len(w) - 1] > 0.0
        assert full[len(w)] < sys.float_info.min

    def test_averaging_row_sums_to_one_at_large_n(self):
        a = averaging_row(10**5)
        assert len(a) == len(chi_row(10**5))
        assert abs(math.fsum(a) - 1.0) <= 1e-12

    def test_cli_prints_n_plus_one_rows(self):
        out = io.StringIO()
        assert main(["--format", "json", "weights", "--n", "1000"], out=out) == 0
        data = json.loads(out.getvalue())["rows"]["data"]
        head = len(chi_row(1000))
        assert len(data) == 1001
        assert [r[0] for r in data] == list(range(1001))
        assert [r[1] for r in data[:head]] == list(chi_row(1000))
        assert all(r[1:] == [0.0, 0.0] for r in data[head:])


class TestAveragingRow:
    def test_n2(self):
        assert averaging_row(2) == (0.0, 0.5, 0.5)

    def test_n1(self):
        assert averaging_row(1) == (0.0, 1.0)

    def test_n3(self):
        a = averaging_row(3)
        assert a == pytest.approx((0.0, 1 / 3, 4 / 9, 2 / 9), rel=1e-14)

    def test_matches_weights_elementwise(self):
        n = 17
        a = averaging_row(n)
        w = chi_row(n)
        assert len(a) == len(w) == n + 1
        for k in range(n + 1):
            assert a[k] == pytest.approx(k * w[k] / n, abs=1e-300)

    @pytest.mark.parametrize("n", [1, 2, 5, 33, 100, 1000])
    def test_probability_row(self, n):
        a = averaging_row(n)
        assert a[0] == 0.0
        assert all(x >= 0.0 for x in a)
        assert abs(math.fsum(a) - 1.0) <= 1e-12

    def test_columns_vanish(self):
        # Fixed column k tends to 0 as n grows (entry is at most k/n once
        # the weight has saturated; small n can still sit below that).
        for k in range(1, 11):
            col = [averaging_row(n)[k] for n in (100, 1000, 10000)]
            assert all(b < a for a, b in zip(col, col[1:]))
            assert col[-1] <= k / 10000 + 1e-12


class TestVerifyToeplitz:
    def test_n2(self):
        d = verify_toeplitz(averaging_row(2))
        assert d.abs_row_sum == pytest.approx(1.0, abs=1e-12)
        assert d.row_sum == pytest.approx(1.0, abs=1e-12)
        assert d.max_entry == 0.5
        assert d.nonnegative

    def test_n1(self):
        d = verify_toeplitz(averaging_row(1))
        assert (d.abs_row_sum, d.row_sum, d.max_entry, d.nonnegative) == (
            1.0,
            1.0,
            1.0,
            True,
        )

    def test_n100_row_sum(self):
        d = verify_toeplitz(averaging_row(100))
        assert abs(d.row_sum - 1.0) <= 1e-12
        assert d.abs_row_sum == d.row_sum


class TestExpApproxGap:
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 100])
    def test_bound(self, n):
        assert exp_approx_gap(n, 10000) <= 1 / (math.e * n)

    def test_zero_endpoint(self):
        # Both sides equal 1 at x = 0; a 2-point grid sees the x=n endpoint.
        assert exp_approx_gap(1, 2) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_bad_args(self):
        with pytest.raises(DomainError):
            exp_approx_gap(0, 100)
        with pytest.raises(DomainError):
            exp_approx_gap(5, 1)

    @pytest.mark.parametrize("n", [2.5, 10.0, "10", None])
    def test_order_that_is_not_an_integer(self, n):
        with pytest.raises(DomainError, match="^n must be an integer"):
            exp_approx_gap(n, 10)
