import dataclasses
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import cycle, islice, pairwise
from operator import mul
from pathlib import Path
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chisum
from chisum.error_model import predicted_error
from chisum.exceptions import AbelRadiusError, DomainError, NumericError
from chisum.series import (
    _Constant,
    _Reciprocal,
    catalog_lookup,
    combine,
    load_custom,
    partial_sums,
)
from chisum.summation import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    _closed_part,
    _euler_mean,
    _exact_sum,
    _fixed_bits,
    _fixed_part,
    _fixed_sum,
    _HALF_LN_2PI,
    _kernel,
    _reciprocal_part,
    _settled_sum,
    _transient,
    _transient_log2,
    abel_estimate,
    cesaro_mean,
    chi_limit,
    chi_sum,
    chi_sweep,
    classify_convergence,
    euler_transform,
    richardson_accelerate,
)
from chisum.special import bernoulli_numbers, harmonic
from chisum.weights import averaging_row, chi_row, exp_approx_gap
from oracles import (
    DEFINITIONS,
    abel_sum,
    counted,
    euler_mean,
    moment_mean,
    moment_tolerance,
)


def coefficient_series(coeffs):
    return catalog_lookup("custom", coefficients=list(coeffs))


def _blocks(name, **params):
    """The catalog series name without its moment bound, so that Euler
    takes the mean of all n + 1 double terms and Abel its block loop."""
    return dataclasses.replace(catalog_lookup(name, **params), moment_bound=None)


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

    @pytest.mark.parametrize("method", [chi_sum, chi_limit])
    @pytest.mark.parametrize(
        "params",
        [
            {"coefficients": [1.0, math.nan], "x": 0.5},
            {"coefficients": [1.0, 1.0], "x": math.inf},
        ],
        ids=["nan-coefficient", "inf-x"],
    )
    def test_nonfinite_custom_input_names_index(self, params, method):
        # Only finite input has a rational form, so nothing is redone
        # exactly from a nan or an inf.
        spec = catalog_lookup("custom", **params)
        assert spec.rational is None
        with pytest.raises(NumericError, match="index 1$"):
            method(spec, 5)

    # Terms 2 * 3**k and -2 * 3**k: both overflow to opposite infinities at
    # k = 646, and the stream raises OverflowError from k = 647 on.
    OPPOSED = [
        load_custom({"coefficients": [c] * 700, "x": 3.0}) for c in (2.0, -2.0)
    ]

    def test_opposite_infinities_go_exact(self):
        c = combine(self.OPPOSED, [1.0, 1.0])
        assert chi_sum(c, 700) == 0.0
        assert chi_limit(c, 700) == 0.0
        assert _exact_sum(c, 700) == 0.0
        r = chi_sweep(c, (100, 200, 700), accelerate=True)
        assert r.approximants == (0.0, 0.0, 0.0)

    def test_opposite_infinities_without_rational_form(self):
        c = combine(self.OPPOSED + [catalog_lookup("alt_log")], [1.0, 1.0, 1.0])
        with pytest.raises(NumericError, match="index 646"):
            chi_sum(c, 700)

    def test_exact_result_out_of_range(self):
        # The exact sum is w_1 * 1e309, which no double can hold.
        huge = catalog_lookup("custom", coefficients=[0.0, 1e308], x=10.0)
        with pytest.raises(NumericError, match="overflows"):
            chi_sum(huge, 5)

    def test_weighted_sum_overflow_without_rational_form(self):
        # Every term is finite, but their weighted sum is not, and alt_log
        # leaves the combination no rational form to redo it from.
        both = combine(
            [catalog_lookup("alt_log"), load_custom({"coefficients": [1e308] * 3})],
            [1.0, 1.0],
        )
        with pytest.raises(NumericError, match="weighted sum overflows at order 5$"):
            chi_sum(both, 5)

    def test_weighted_sum_that_fsum_cannot_hold_without_rational_form(self):
        # fsum's partials overflow on 1e308 + 1e308, but the weighted sum,
        # 1e308 + 1e308 - 0.8e308 plus the log terms, is in range; the
        # averaging form's s_1 = 2e308 is not.
        both = combine(
            [
                catalog_lookup("alt_log"),
                load_custom({"coefficients": [1e308, 1e308, -1e308]}),
            ],
            [1.0, 1.0],
        )
        terms = islice(both.terms(), 6)
        exact = sum(map(mul, map(Fraction, chi_row(5)), map(Fraction, terms)))
        assert chi_sum(both, 5) == float(exact) == 1.2e308
        with pytest.raises(NumericError, match="^weighted sum overflows at order 5$"):
            chi_limit(both, 5)

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


def leaf_series():
    """A catalog series with a rational form, or a custom series with up
    to 3001 coefficients cycled from a short list."""
    xs = st.floats(min_value=-4.0, max_value=4.0)
    custom = st.builds(
        lambda cs, size, x: load_custom(
            {"coefficients": list(islice(cycle(cs), size)), "x": x}
        ),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=3001),
        xs,
    )
    return st.one_of(
        xs.map(lambda x: catalog_lookup("geometric", x=x)),
        xs.map(lambda x: catalog_lookup("log1p_taylor", x=x)),
        custom,
    )


@st.composite
def rational_series(draw):
    """A leaf series, or a combination of one to three of them."""
    if draw(st.booleans()):
        return draw(leaf_series())
    specs = draw(st.lists(leaf_series(), min_size=1, max_size=3))
    coefs = draw(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=len(specs),
            max_size=len(specs),
        )
    )
    return combine(specs, coefs)


class TestTermsPastTheRow:
    # chi_row(n) ends at the first weight below sys.float_info.min (k=1426
    # at n=2000, 5082 at n=20000); the weights past it count as zero.

    @pytest.mark.parametrize(
        "other,n,index",
        [
            # x**k overflows at k=10491, past the row at n=20000.
            (catalog_lookup("geometric", x=1.07), 20000, 10491),
            # 1e308 * 1.5**1500 is inf without an OverflowError.
            (load_custom({"coefficients": [0.0] * 1500 + [1e308], "x": 1.5}),
             2000, 1500),
        ],
    )
    def test_nonfinite_term_names_its_own_index(self, other, n, index):
        bad = combine([catalog_lookup("alt_log"), other], [1.0, 1.0])
        with pytest.raises(NumericError, match=f"index {index}$"):
            chi_sum(bad, n)

    @pytest.mark.parametrize("k", [1426, 1430, 1500])
    def test_huge_terms_past_the_row_are_not_dropped(self, k):
        # The true weight at k is below sys.float_info.min, but times 1e300
        # it is the whole sum; the row alone would give 0.0.
        spec = load_custom({"coefficients": [0.0] * k + [1e300]})
        n, w = 2000, Fraction(1)
        for j in range(k):
            w *= Fraction(n - j, n)
        ref = float(w * Fraction(1e300))
        assert ref > 0.0
        assert chi_sum(spec, n) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_only_the_tail_bound_overflows(self):
        # Every term is finite (x**20000 is about 4e307), but their
        # absolute sum past the row overflows; a series with no rational
        # form keeps its double result, as the weights there are zero.
        x, n = 1.03605, 20000
        alog = catalog_lookup("alt_log")
        both = combine([alog, catalog_lookup("geometric", x=x)], [1.0, 1.0])
        ref = closed_form_geometric(x, n) + chi_sum(alog, n)
        assert chi_sum(both, n) == pytest.approx(ref, rel=1e-12)

    def test_chi_limit_reports_partial_sums_past_the_row_without_rational_form(
        self,
    ):
        # Every term is finite, but s_k overflows from k=1801, where the
        # averaging weights are below sys.float_info.min yet times 2e308
        # need not be negligible; with no rational form to redo the sum
        # from, the double path raises rather than leave them out.
        spec = combine(
            [
                catalog_lookup("alt_log"),
                load_custom({"coefficients": [0.5] * 1800 + [1e308, 1e308]}),
            ],
            [1.0, 1.0],
        )
        assert math.isfinite(chi_sum(spec, 2000))
        overflow = "^weighted sum overflows at order 2000$"
        with pytest.raises(NumericError, match=overflow):
            chi_limit(spec, 2000)

    def test_chi_limit_ignores_partial_sums_past_the_row(self):
        # s_k overflows from k=1801, where the averaging weights are zero;
        # the full row gave 0 * inf = nan here.
        spec = load_custom({"coefficients": [0.5] * 1800 + [1e308, 1e308]})
        got = chi_limit(spec, 2000)
        assert math.isfinite(got)
        assert got == pytest.approx(chi_sum(spec, 2000), rel=1e-12)

    @pytest.mark.parametrize("huge", [1e300, 1e305])
    def test_bounded_terms_that_move_the_sum_go_exact(self, huge):
        # The term past the row adds 2.4e-10 of the sum at 1e300 and 2.4e-5
        # at 1e305.  Nothing cancels, so the cancellation ratio cannot see
        # it, and the double result left it out.
        spec = load_custom({"coefficients": [1.0] * 1426 + [huge]})
        assert chi_sum(spec, 2000) == _exact_sum(spec, 2000)

    @pytest.mark.parametrize("method", [chi_sum, chi_limit])
    @pytest.mark.parametrize(
        "spec",
        [
            catalog_lookup("geometric", x=0.9),
            load_custom({"coefficients": [0.0] * 1426 + [1e300]}),
        ],
        ids=["geometric", "custom-past-row"],
    )
    def test_rational_series_reads_no_term_and_builds_no_row(
        self, monkeypatch, method, spec
    ):
        want = method(spec, 60000)
        pulled = 0

        def terms():
            nonlocal pulled
            for t in spec.terms():
                pulled += 1
                yield t

        counted = dataclasses.replace(spec, terms=terms)
        monkeypatch.setattr("chisum.summation.chi_row", None)
        monkeypatch.setattr("chisum.summation.averaging_row", None)
        assert method(counted, 60000) == want
        assert pulled == 0


def integral_geometric(x, n):
    """S_n(x) = int_0^inf (1 + x*u/n)^n e^(-u) du, in 50 digits: the same
    function as closed_form_geometric (expand the power and integrate
    termwise), evaluated by quadrature."""
    with mpmath.workdps(50):
        c = mpmath.mpf(x) / n
        return float(
            mpmath.quad(lambda u: (1 + c * u) ** n * mpmath.exp(-u), [0, mpmath.inf])
        )


class TestInteriorClosedFormOracle:
    # Geometric inside the boundary, -2 < x <= 0.95, where the weighted
    # terms cancel little or not at all; the closed form shares no code
    # with the fixed-point kernel.
    @given(
        st.floats(min_value=-1.0, max_value=0.95),
        st.integers(min_value=750, max_value=20000),
    )
    @example(x=0.46875, n=8192)
    @settings(max_examples=40, deadline=None)
    def test_geometric_against_closed_form(self, x, n):
        try:
            ref = closed_form_geometric(x, n) if x != 0.0 else 1.0
        except (mpmath.mp.NoConvergence, ValueError):
            # gammainc's series fail for a few x > 0 with n/x far above n:
            # NoConvergence at x=0.5961102455617882, n=16503, and a
            # ValueError from hypercomb at x=0.46875, n=8192.
            ref = integral_geometric(x, n)
        spec = catalog_lookup("geometric", x=x)
        got = chi_sum(spec, n)
        assert got == pytest.approx(ref, rel=1e-13)
        assert chi_limit(spec, n) == got

    @given(
        st.floats(min_value=-1.0, max_value=0.95),
        st.integers(min_value=1, max_value=749),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_small_n_against_closed_form(self, x, n):
        try:
            ref = closed_form_geometric(x, n) if x != 0.0 else 1.0
        except (mpmath.mp.NoConvergence, ValueError):
            ref = integral_geometric(x, n)
        spec = catalog_lookup("geometric", x=x)
        got = chi_sum(spec, n)
        if ref == 0.0:  # x=-1 at n=1: S_1 = 1 + x is exactly 0
            assert got == 0.0 and chi_limit(spec, n) == 0.0
            return
        assert got == pytest.approx(ref, rel=1e-13)
        assert chi_limit(spec, n) == got

    # On (0.95, 1) the weights fall slowest, so the kernel reads the most
    # orders before its integer weights reach 0.
    @given(
        st.floats(min_value=0.95, max_value=1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=20000),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_just_below_one(self, x, n):
        try:
            ref = closed_form_geometric(x, n)
        except (mpmath.mp.NoConvergence, ValueError):
            ref = integral_geometric(x, n)
        spec = catalog_lookup("geometric", x=x)
        got = chi_sum(spec, n)
        assert got == pytest.approx(ref, rel=1e-13)
        assert chi_limit(spec, n) == got

    # On (-2, -1) the weighted terms cancel, which a double sum under the
    # weight row pays for (3e-10 off at x=-1.3, n=400); both forms are
    # correctly rounded.
    @given(
        st.floats(min_value=-2.0, max_value=-1.0, exclude_min=True, exclude_max=True),
        st.integers(min_value=1, max_value=20000),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_between_minus_two_and_minus_one(self, x, n):
        ref = closed_form_geometric(x, n)
        spec = catalog_lookup("geometric", x=x)
        got = chi_sum(spec, n)
        assert got == pytest.approx(ref, rel=1e-13)
        assert chi_limit(spec, n) == got

    @pytest.mark.parametrize("x, n", [(-1.3, 400), (-1.7, 100)])
    def test_cancelling_sums_are_correctly_rounded(self, x, n):
        # A double sum under the weight row is 3.0e-10 and 1.5e-10
        # relative off here.
        with mpmath.workdps(60):
            w, ref = mpmath.mpf(1), mpmath.mpf(1)
            for k in range(1, n + 1):
                w *= mpmath.mpf(n - k + 1) / n
                ref += w * mpmath.mpf(x) ** k
        spec = catalog_lookup("geometric", x=x)
        assert chi_sum(spec, n) == chi_limit(spec, n) == float(ref)

    def test_integral_matches_closed_form(self):
        for x, n in ((-1.0, 751), (0.3, 800), (0.95, 20000)):
            assert integral_geometric(x, n) == pytest.approx(
                closed_form_geometric(x, n), rel=1e-15
            )
        assert integral_geometric(0.5961102455617882, 16503) == pytest.approx(
            chi_sum(catalog_lookup("geometric", x=0.5961102455617882), 16503),
            rel=1e-13,
        )


@st.composite
def series_by_definition(draw, n):
    """A series with a rational form, and its term a_k as a Fraction
    written out from the series' definition, not from that form.  A custom
    series gets fewer than n + 1 coefficients, so its tail is zero."""
    kind = draw(st.sampled_from(("geometric", "log1p_taylor", "custom")))
    x = draw(st.floats(min_value=-4.0, max_value=4.0))
    fx = Fraction(x)
    if kind == "geometric":
        return catalog_lookup(kind, x=x), lambda k: fx**k
    if kind == "log1p_taylor":
        return catalog_lookup(kind, x=x), (
            lambda k: Fraction((-1) ** (k + 1), k) * fx**k if k else Fraction(0)
        )
    coeffs = draw(
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=n)
    )
    return load_custom({"coefficients": coeffs, "x": x}), (
        lambda k: Fraction(coeffs[k]) * fx**k if k < len(coeffs) else Fraction(0)
    )


def fixed_point(spec, n):
    """_fixed_sum with the product tree only as its fallback: at small n
    or large x it would otherwise go to the tree at once.  A constant
    part past |x| = 1 may take the closed form (_kernel)."""
    with mock.patch("chisum.summation._TREE_RATIO", 0):
        return _fixed_sum(spec, n)


def fixed_only(spec, n):
    """fixed_point with every part on _fixed_part."""
    with mock.patch(
        "chisum.summation._kernel",
        lambda parts, n, bits: [(_fixed_part, part, bits) for part in parts],
    ):
        return fixed_point(spec, n)


def closed_form(spec, n):
    """fixed_point with every constant part past |x| = 1 on the closed
    form, at any order."""
    with mock.patch("chisum.summation._CLOSED_WORK", 0):
        return fixed_point(spec, n)


KERNELS = pytest.mark.parametrize(
    "kernel", [_exact_sum, fixed_point], ids=["product_tree", "fixed_point"]
)


class TestExactKernelOracle:
    # S_n = sum_k a_k * (n)_k / n**k summed term by term in Fractions: an
    # oracle for both kernels, for every part kind, for the sum over parts,
    # and for the coefficient denominators that the kernels multiply by.
    @KERNELS
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_sum_of_the_definition(self, kernel, data):
        n = data.draw(st.integers(min_value=1, max_value=64))
        parts = data.draw(st.lists(series_by_definition(n), min_size=1, max_size=3))
        if len(parts) == 1:
            spec, a = parts[0]
        else:
            coefs = data.draw(
                st.lists(
                    st.floats(min_value=-3.0, max_value=3.0),
                    min_size=len(parts),
                    max_size=len(parts),
                )
            )
            spec = combine([s for s, _ in parts], coefs)

            def a(k):
                return sum(Fraction(c) * ak(k) for c, (_, ak) in zip(coefs, parts))

        direct, w = Fraction(0), Fraction(1)
        for k in range(n + 1):
            direct += w * a(k)
            w *= Fraction(n - k, n)
        assert kernel(spec, n) == float(direct)

    @KERNELS
    def test_overflow_message(self, kernel):
        # The exact sum is w_1 * 1e309, which no double can hold.
        huge = catalog_lookup("custom", coefficients=[0.0, 1e308], x=10.0)
        with pytest.raises(NumericError, match="^weighted sum overflows at order 5$"):
            kernel(huge, 5)


def past_one():
    """x in [-4.2, -1) or (1, 4]."""
    return st.one_of(
        st.floats(min_value=-4.2, max_value=-1.0, exclude_max=True),
        st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
    )


def boundary_leaf(x_geometric, x_log1p):
    """geometric and log1p_taylor on the given x, and custom series of up
    to 40 coefficients on x in [-4, 4]."""
    custom = st.builds(
        lambda cs, x: load_custom({"coefficients": cs, "x": x}),
        st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40),
        st.floats(min_value=-4.0, max_value=4.0),
    )
    return st.one_of(
        x_geometric.map(lambda x: catalog_lookup("geometric", x=x)),
        x_log1p.map(lambda x: catalog_lookup("log1p_taylor", x=x)),
        custom,
    )


@st.composite
def boundary_series(draw):
    """A leaf near or past the boundary, or a combination of two."""
    leaf = boundary_leaf(
        st.floats(min_value=-4.0, max_value=-1.5),
        st.floats(min_value=1.0, max_value=3.6),
    )
    if draw(st.booleans()):
        return draw(leaf)
    coefs = draw(
        st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=2, max_size=2)
    )
    return combine([draw(leaf), draw(leaf)], coefs)


def check_part_bound(kernel, part, n, bits):
    """kernel's (A, E, e) for part (x, c, _, _) at P = bits against the
    part's exact sum, sum_k c(k) (n)_k x**k / n**k in Fractions: within
    E units of A at the unit 2**e.  At a few bits the floors move A well
    away from the exact sum, so this checks the error bound itself, not
    only a rounded result."""
    x, c, _, _ = part
    a, err, e = kernel(part, n, bits)
    exact, w = Fraction(0), Fraction(1)
    for k in range(n + 1):
        exact += Fraction(*c(k)) * w
        w *= Fraction(n - k, n) * Fraction(x)
    assert abs(exact * Fraction(2) ** -e - a) <= err


class TestFixedKernel:
    # _fixed_sum against the product tree it falls back to: the same
    # double, bit for bit, or the same exception.
    @staticmethod
    def same(spec, n, *kernels):
        kernels = kernels or (fixed_point,)
        try:
            want = _exact_sum(spec, n)
        except NumericError as exc:
            for kernel in kernels:
                with pytest.raises(NumericError, match=f"^{exc}$"):
                    kernel(spec, n)
        else:
            for kernel in kernels:
                assert repr(kernel(spec, n)) == repr(want)

    @given(boundary_series(), st.integers(min_value=1, max_value=300))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_product_tree(self, spec, n):
        self.same(spec, n, fixed_point, fixed_only)

    @given(boundary_series(), st.integers(min_value=1000, max_value=2000))
    @settings(max_examples=8, deadline=None)
    def test_equals_the_product_tree_at_large_orders(self, spec, n):
        self.same(spec, n, fixed_point, fixed_only)

    @given(
        st.one_of(
            boundary_leaf(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
            # A constant coefficient other than 1, summed once and scaled.
            st.builds(
                lambda x, a: combine([catalog_lookup("geometric", x=x)], [a]),
                st.floats(-4.0, 4.0),
                st.floats(-1e3, 1e3),
            ),
        ),
        st.integers(min_value=1, max_value=120),
        st.integers(min_value=0, max_value=40),
    )
    # Large coefficients on falling weights: the floors past the largest
    # weight carry the error.
    @example(load_custom({"coefficients": [1e3] * 40, "x": 0.9}), 120, 0)
    @settings(max_examples=300, deadline=None)
    def test_part_bound_holds_at_low_precision(self, spec, n, extra):
        (part,) = spec.rational
        check_part_bound(_fixed_part, part, n, n.bit_length() + 2 + extra)

    @pytest.mark.parametrize(
        "name, x, n, want",
        [
            ("geometric", -3.3, 2000, 0.23248966294891435),
            ("geometric", -3.5, 400, 0.22198098326936083),
            ("log1p_taylor", 3.0, 400, None),  # the product tree's value
        ],
    )
    def test_settles_without_the_product_tree(self, monkeypatch, name, x, n, want):
        spec = catalog_lookup(name, x=x)
        want = _exact_sum(spec, n) if want is None else want
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        assert fixed_point(spec, n) == want

    @pytest.mark.parametrize("method", [chi_sum, chi_limit])
    def test_coefficient_far_out_settles_without_the_product_tree(
        self, monkeypatch, method
    ):
        # The only coefficient sits where the weight is about 1e-308, so a
        # precision sized by bound(0) alone does not settle.
        spec = load_custom({"coefficients": [0.0] * 1426 + [1e300]})
        want = _exact_sum(spec, 2000)
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        assert method(spec, 2000) == want

    def test_a_table_finds_its_near_order_once(self, monkeypatch):
        # _fixed_bits reads the order a _Table found when load_custom or
        # combine built it, and scans no coefficient; combine's scaled
        # table finds it again for its own top.
        spec = load_custom({"coefficients": [0.0] * 1426 + [1e300]})
        scaled = combine([spec], [3.0])
        monkeypatch.setattr("chisum.summation._first_near", None)
        assert spec.rational[0][1].near == scaled.rational[0][1].near == 1426
        assert _fixed_bits(spec, 2000) == _fixed_bits(scaled, 2000) == 1109

    @pytest.mark.parametrize(
        "spec, n, want",
        [
            # S_1 = 1 + 2**-53 is a tie between two doubles; it rounds to even.
            (load_custom({"coefficients": [1.0, 2.0**-53]}), 1, 1.0),
            # S_1 = 1 - 1 is exactly zero.
            (load_custom({"coefficients": [1.0, -1.0]}), 1, 0.0),
            (load_custom({"coefficients": [0.0, 0.0]}), 40, 0.0),
        ],
        ids=["midpoint", "zero", "all-zero"],
    )
    def test_unsettled_sums_fall_back(self, monkeypatch, spec, n, want):
        # Three precisions, then the tree.
        passes, calls = [], []
        monkeypatch.setattr(
            "chisum.summation._fixed_part",
            lambda *a: passes.append(a[-1]) or _fixed_part(*a),
        )
        monkeypatch.setattr(
            "chisum.summation._exact_sum",
            lambda s, m: calls.append(m) or _exact_sum(s, m),
        )
        assert repr(fixed_point(spec, n)) == repr(want)
        p = passes[0]
        assert passes == [p, 2 * p, 4 * p]
        assert calls == [n]

    @pytest.mark.parametrize("x, n", [(1e300, 40), (1e5, 60), (-3.3, 5)])
    def test_large_x_or_small_n_goes_to_the_tree_at_once(self, monkeypatch, x, n):
        # Ones at x = 1e300 and n = 2000 took 8.6 s in fixed point, where
        # the product tree needs 0.2 s (2 CPUs, Python 3.11).
        spec = catalog_lookup("custom", coefficients=[1.0] * (n + 1), x=x)
        monkeypatch.setattr("chisum.summation._fixed_part", None)
        self.same(spec, n, _fixed_sum)

    @pytest.mark.parametrize(
        "name, x, n",
        [("geometric", -20.0, 300), ("log1p_taylor", 10.0, 400)],
        ids=["closed-form", "recurrence"],
    )
    def test_own_kernel_comes_before_the_tree_rule(self, monkeypatch, name, x, n):
        # On the fixed kernel the tree rule would send these to the product
        # tree; the tree rule weighs only parts left on the fixed kernel.
        spec = catalog_lookup(name, x=x)
        want = _exact_sum(spec, n)
        monkeypatch.setattr("chisum.summation._fixed_part", None)
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        assert chi_sum(spec, n) == chi_limit(spec, n) == want

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        st.one_of(past_one(), st.floats(-4.0, 4.0)),
        st.integers(min_value=1, max_value=2000),
        st.booleans(),
    )
    # Their last two terms cancel exactly (n / (n - 5) = 3/2), leaving 0,
    # 1e-30 or 1e-10 of each: two or three passes, then the tree for 0.
    @example([0.0] * 5 + [1.0, -0.75], 2.0, 15, False)
    @example([1e-30] * 5 + [1.0, -0.75], 2.0, 15, False)
    @example([1e-10] * 5 + [1.0, -0.75], 2.0, 15, False)
    # At a subnormal x the cancelling coefficient is past double range.
    @example([1.0], 2.225073858507e-311, 1, True)
    @settings(max_examples=100, deadline=None)
    def test_truncated_tables_equal_the_product_tree(self, cs, x, n, cancel):
        # Past twice their length, where for |x| >= 2 the weights still
        # rise at the last coefficient and _fixed_bits guesses the scale
        # from that term; a tail whose last two terms cancel makes the
        # guess too large.
        n = max(n, 2 * len(cs))
        m = len(cs)  # c(m) (n)_m x**m = -c(m-1) (n)_(m-1) x**(m-1)
        if cancel and x and math.isfinite(last := -cs[-1] * n / (x * (n - m + 1))):
            cs = [*cs, last]
        spec = load_custom({"coefficients": cs, "x": x})
        self.same(spec, n, chi_sum, chi_limit, fixed_point)

    def test_truncated_ones_settle_at_one_small_precision(self, monkeypatch):
        # The last term sets the scale: 88 bits, not the 541 that the
        # largest weight alone would ask for.
        spec = load_custom({"coefficients": [1.0] * 600, "x": -2.0})
        want = _exact_sum(spec, 2000)
        passes = []
        monkeypatch.setattr(
            "chisum.summation._fixed_part",
            lambda *a: passes.append(a[-1]) or _fixed_part(*a),
        )
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        assert chi_sum(spec, 2000) == want
        assert passes == [88]

    def test_a_top_past_double_range_goes_to_the_tree_at_once(self, monkeypatch):
        # 1e10 * 1e300 leaves double range, so the part's top is inf and no
        # precision can be sized from it; the sum itself is in range.
        spec = load_custom({"coefficients": [0.0] + [1e300] * 800, "x": 1e-3})
        spec = combine([spec], [1e10])
        assert spec.rational[0][2] == math.inf
        want = _exact_sum(spec, 2000)
        monkeypatch.setattr("chisum.summation._fixed_part", None)
        assert chi_sum(spec, 2000) == want == 1.0010004994984988e307


@st.composite
def constant_parts(draw):
    """geometric past |x| = 1, or a combine of one or two of them."""
    xs = draw(st.lists(past_one(), min_size=1, max_size=2))
    specs = [catalog_lookup("geometric", x=x) for x in xs]
    if len(xs) == 1 and draw(st.booleans()):
        return specs[0]
    coefs = st.floats(min_value=-1e3, max_value=1e3)
    return combine(specs, draw(st.lists(coefs, min_size=len(xs), max_size=len(xs))))


class TestClosedForm:
    # _closed_part: S_n = T - R, the boundary transient minus the Kummer
    # series, for a constant part past |x| = 1.
    @given(constant_parts(), st.integers(min_value=1, max_value=3000))
    # Positive x, where T grows with n and sets the unit.
    @example(catalog_lookup("geometric", x=3.0), 700)
    @example(catalog_lookup("geometric", x=4.0), 2000)  # overflows
    @settings(max_examples=60, deadline=None)
    def test_equals_the_product_tree(self, spec, n):
        TestFixedKernel.same(spec, n, closed_form)

    @given(
        past_one(),
        st.sampled_from([(1, 1), (-3, 2), (7, 1), (1, 3 << 60)]),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=200, deadline=None)
    def test_part_bound_holds_at_low_precision(self, x, c, n, bits):
        # T is left out or cut short at a few bits, too.
        part = (x, _Constant(c), abs(c[0] / c[1]), math.inf)
        check_part_bound(_closed_part, part, n, bits)

    @given(
        past_one(),
        st.integers(min_value=1, max_value=3000),
        st.sampled_from([8, 96, 192, 384]),
    )
    @example(1e300, 2000, 96)
    @example(-1e300, 2001, 96)
    @example(1e100, 2000, 384)
    # b + 6 past _HALF_LN_2PI's digits: V = 0 and err = 2**b.
    @example(1e100, 2000, 400)
    @settings(max_examples=100, deadline=None)
    def test_transient_within_its_bound(self, x, n, bits):
        # T = n! (x/n)**n e**(n/x) at the unit _closed_part gives it,
        # against mpmath's log-gamma.
        e = max(0, math.ceil(_transient_log2(x, n))) - bits
        v, err = _transient(x, n, e, bits)
        with mpmath.workdps(bits // 3 + 60):
            n_, x_ = mpmath.mpf(n), mpmath.mpf(x)
            ln_t = mpmath.loggamma(n_ + 1) + n_ * mpmath.log(abs(x_) / n_) + n_ / x_
            t = mpmath.exp(ln_t - e * mpmath.log(2)) * (-1 if x < 0 and n & 1 else 1)
            assert abs(t) <= 2**bits
            assert abs(t - v) <= err

    @pytest.mark.parametrize(
        "x, want",
        [
            (-3.55, 0.21971333386777644),
            (-3.3, 0.23248966294891435),
            (-2.0, 0.3332592592647474),
        ],
    )
    def test_settles_without_the_other_kernels(self, monkeypatch, x, want):
        monkeypatch.setattr("chisum.summation._fixed_part", None)
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        assert chi_sum(catalog_lookup("geometric", x=x), 2000) == want

    @staticmethod
    def trace(monkeypatch, closed=_closed_part):
        """The kernels _fixed_sum calls, in order, with closed standing in
        for _closed_part."""
        calls = []
        for name, kernel in [
            ("_closed_part", closed),
            ("_fixed_part", _fixed_part),
            ("_exact_sum", _exact_sum),
        ]:
            monkeypatch.setattr(
                f"chisum.summation.{name}",
                lambda *a, name=name, kernel=kernel: calls.append(name) or kernel(*a),
            )
        return calls

    def test_unsettled_goes_to_the_tree(self, monkeypatch):
        # A bound that never settles: three closed passes, then the tree,
        # with no pass of the fixed kernel.
        calls = self.trace(monkeypatch, lambda *a: (0, 1 << 500, 0))
        spec = catalog_lookup("geometric", x=-3.3)
        assert chi_sum(spec, 2000) == 0.23248966294891435
        assert calls == ["_closed_part"] * 3 + ["_exact_sum"]

    def test_zero_sum_goes_to_the_tree(self, monkeypatch):
        # S_n = 0 exactly settles at no precision: three closed passes over
        # both parts, then the tree.
        spec = catalog_lookup("geometric", x=-3.0)
        spec = combine([spec, spec], [1.0, -1.0])
        calls = self.trace(monkeypatch)
        assert repr(chi_sum(spec, 2000)) == "0.0"
        assert calls == ["_closed_part"] * 6 + ["_exact_sum"]

    # x = 10 and -20 would go to the product tree if the tree rule were
    # weighed before the closed form.
    @pytest.mark.parametrize("x", [4.0, -5.0, 10.0, -20.0])
    def test_overflow_raises_after_one_closed_pass(self, monkeypatch, x):
        # Both ends past double range settle at once, which decides the
        # overflow: no other kernel runs.
        calls = self.trace(monkeypatch)
        message = "^weighted sum overflows at order 2000$"
        with pytest.raises(NumericError, match=message):
            chi_sum(catalog_lookup("geometric", x=x), 2000)
        assert calls == ["_closed_part"]

    @pytest.mark.parametrize("x", [1e300, -1e300, 1e100])
    def test_overflow_at_huge_x(self, x):
        # T has about 2 million bits here; it is scaled before it becomes
        # an integer.
        with pytest.raises(NumericError, match="^weighted sum overflows at order 2000$"):
            chi_sum(catalog_lookup("geometric", x=x), 2000)

    def test_half_ln_2pi_is_within_its_stated_error(self):
        with mpmath.workdps(140):
            off = mpmath.mpf(str(_HALF_LN_2PI)) - mpmath.log(2 * mpmath.pi) / 2
            assert abs(off) < mpmath.mpf(10) ** -120


def recurrence(spec, n):
    """fixed_point with every _Reciprocal part past |x| = 1 on the
    recurrence, at any order and precision."""
    with mock.patch("chisum.summation._RECIPROCAL_GAIN", -math.inf):
        with mock.patch("chisum.summation._CLOSED_WORK", 0):
            return fixed_point(spec, n)


@st.composite
def log1p_past_one(draw):
    """log1p_taylor at x in (1, 4], dyadic or with a full 53-bit mantissa
    (as the benchmark's x rounded to six decimals have), alone or scaled,
    or combined with a geometric series."""
    x = draw(
        st.one_of(
            st.floats(min_value=1.0, max_value=4.0, exclude_min=True),
            st.floats(min_value=1.000001, max_value=4.0).map(lambda x: round(x, 6)),
            st.integers(min_value=1, max_value=31).map(lambda i: 1.0 + i / 32 * 3),
        )
    )
    spec = catalog_lookup("log1p_taylor", x=x)
    how = draw(st.sampled_from(["alone", "scaled", "geometric"]))
    if how == "scaled":
        return combine([spec], [draw(st.floats(min_value=-1e3, max_value=1e3))])
    if how == "geometric":
        geo = catalog_lookup("geometric", x=draw(st.floats(-3.5, 0.9)))
        coefs = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=2))
        return combine([spec, geo], coefs)
    return spec


class TestReciprocalRecurrence:
    # _reciprocal_part: a part with c(k) = c/k past |x| = 1 (log1p_taylor)
    # as h times the sum of the geometric approximants G_m, run forward
    # while m |h| <= 1 and backward from the closed form's G_n after.
    @given(log1p_past_one(), st.integers(min_value=1, max_value=3000))
    @example(catalog_lookup("log1p_taylor", x=3.5), 2000)
    @example(catalog_lookup("log1p_taylor", x=1.0000001), 2000)
    @example(catalog_lookup("log1p_taylor", x=3.5911), 1000)
    @example(catalog_lookup("log1p_taylor", x=4.0), 2000)  # overflows
    @settings(max_examples=60, deadline=None)
    def test_equals_the_product_tree(self, spec, n):
        TestFixedKernel.same(spec, n, chi_sum, chi_limit, recurrence)

    @given(
        past_one(),
        st.sampled_from([(-1, 1), (3, 2), (-7, 1), (1, 3 << 60)]),
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=1, max_value=60),
    )
    @example(-3.5, (-1, 1), 150, 4)
    @example(3.5, (-1, 1), 150, 4)
    # y just past 1: nearly every step runs forward with m h close to 1,
    # where the floors' errors add up instead of dying out.
    @example(1.005, (-1, 1), 150, 4)
    @settings(max_examples=200, deadline=None)
    def test_part_bound_holds_at_low_precision(self, y, c, n, bits):
        part = (y, _Reciprocal(c), abs(c[0] / c[1]), math.inf)
        check_part_bound(_reciprocal_part, part, n, bits)

    @pytest.mark.parametrize(
        "x, n, kernel",
        [
            (3.5, 2000, _reciprocal_part),
            (-3.5, 2000, _reciprocal_part),  # log1p_taylor past x = -1
            # The fixed kernel needs few bits more than the recurrence.
            (1.1, 2000, _fixed_part),
            # G_n's transient is not negligible, and the fixed work small.
            (3.0, 150, _fixed_part),
            # So small that the product tree is the cheaper (_TREE_RATIO).
            (3.0, 50, None),
            # So large that the recurrence's integers would carry the
            # transient's 30,000 bits: the product tree is the cheaper.
            (1e5, 2000, None),
        ],
    )
    def test_route(self, x, n, kernel):
        spec = catalog_lookup("log1p_taylor", x=x)
        for s in (spec, combine([spec], [0.5])):
            ((_, c, _, _),) = s.rational
            assert type(c) is _Reciprocal
            routes = _kernel(s.rational, n, _fixed_bits(s, n))
            assert (routes[0][0] if routes else None) is kernel

    @pytest.mark.parametrize("x", [1.6, 2.5, 3.5, 3.55])
    def test_settles_without_the_other_kernels(self, monkeypatch, x):
        # The recurrence's first precision settles the sum.
        spec = catalog_lookup("log1p_taylor", x=x)
        want = _exact_sum(spec, 2000)
        calls = []
        monkeypatch.setattr("chisum.summation._fixed_part", None)
        monkeypatch.setattr("chisum.summation._exact_sum", None)
        monkeypatch.setattr(
            "chisum.summation._reciprocal_part",
            lambda *a: calls.append(a[-1]) or _reciprocal_part(*a),
        )
        assert chi_sum(spec, 2000) == want
        assert calls == [64 + 2 * (2000).bit_length()]


class TestOneKernel:
    # Every series with a rational form, through either defining form:
    # the product tree's double, bit for bit, or its exception.
    @given(rational_series(), st.integers(min_value=1, max_value=3000))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_product_tree(self, spec, n):
        TestFixedKernel.same(spec, n, chi_sum, chi_limit)


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

    @pytest.mark.parametrize(
        "spec,n",
        [
            # The partial sums cancel far: chi_limit takes the exact sum.
            (catalog_lookup("geometric", x=-3.5), 400),
            # x**k overflows inside the row.
            (catalog_lookup("geometric", x=-3.3), 2000),
            (catalog_lookup("geometric", x=-2.0), 1100),
            (catalog_lookup("log1p_taylor", x=3.0), 400),
            # The partial sums past the row are bounded, not dropped.
            (load_custom({"coefficients": [0.0] * 1426 + [1e300]}), 2000),
        ],
        ids=["geometric-3.5", "geometric-3.3", "geometric-2", "log1p_taylor3",
             "custom-past-row"],
    )
    def test_limit_shares_the_guard(self, spec, n):
        assert chi_limit(spec, n) == pytest.approx(chi_sum(spec, n), rel=1e-12)

    def test_limit_names_the_nonfinite_term(self):
        bad = combine(
            [catalog_lookup("alt_log"), catalog_lookup("geometric", x=1.07)],
            [1.0, 1.0],
        )
        with pytest.raises(NumericError, match="index 10491$"):
            chi_limit(bad, 20000)


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

    @staticmethod
    def ladder(approximants):
        # The two-branch rule classify_convergence replaced, kept as the
        # reference: two differences and three are read by separate rules.
        d = [abs(b - a) for a, b in zip(approximants, approximants[1:])]
        if d[-1] <= max(1e-6, 1e-4 * abs(approximants[-1])):
            return CONVERGED
        tail = d[-3:]
        if len(tail) == 3:
            if tail[0] <= tail[1] <= tail[2] and tail[2] >= 2.0 * tail[0]:
                return DIVERGING
            if tail[0] > tail[1] > tail[2]:
                return CONVERGED
        else:
            if tail[1] >= 2.0 * tail[0]:
                return DIVERGING
            if tail[1] < tail[0]:
                return CONVERGED
        return INCONCLUSIVE

    @given(
        st.lists(
            st.one_of(
                # Repeats give zero and tied differences; inf and nan give
                # inf and nan differences.
                st.sampled_from(
                    [0.0, 1.0, -1.0, 2.0, 3.0, 5.0, 1e-7, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]
                ),
                st.floats(),
            ),
            min_size=3,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_classify_matches_the_two_branch_ladder(self, approx):
        grid = list(range(1, len(approx) + 1))
        assert classify_convergence(approx, grid) == self.ladder(approx)

    def test_grid_validation(self):
        g = catalog_lookup("grandi")
        with pytest.raises(DomainError):
            chi_sweep(g, ())
        with pytest.raises(DomainError):
            chi_sweep(g, (10, 10, 20))

    @pytest.mark.parametrize("name", ["geometric", "alt_log"])
    def test_an_order_that_is_not_an_integer_raises(self, name):
        # A float order is refused, not truncated (99.9 to 99), by every
        # function that takes an order, and so are an unhashable order and
        # one below its least.
        spec = catalog_lookup(name, x=-2.0)
        with pytest.raises(DomainError, match="integer"):
            chi_sweep(spec, [99.9, 200.5, 400.7])
        methods = [
            (partial(chi_sum, spec), 1),
            (partial(chi_limit, spec), 1),
            (lambda n: chi_sweep(spec, [n]), 1),
            (partial(cesaro_mean, spec), 0),
            (partial(euler_transform, spec), 1),
            (partial(partial_sums, spec), 0),
            (chi_row, 1),
            (averaging_row, 1),
            (bernoulli_numbers, 0),
            (harmonic, 1),
            (partial(predicted_error, 1.0, 0.5, 0.0), 1),
            (partial(exp_approx_gap, 10), 2),
        ]
        for method, least in methods:
            for order in (100.5, "3", None, [3]):
                with pytest.raises(DomainError, match="integer"):
                    method(order)
            with pytest.raises(DomainError, match=f">= {least}, got {least - 1}$"):
                method(least - 1)

    def test_numpy_integer_orders_pass(self):
        np = pytest.importorskip("numpy")

        spec = catalog_lookup("geometric", x=-2.0)
        r = chi_sweep(spec, np.array([10, 20, 40]))
        assert r.n_grid == (10, 20, 40)
        assert all(type(n) is int for n in r.n_grid)
        assert r.approximants == chi_sweep(spec, (10, 20, 40)).approximants
        assert chi_sum(spec, np.int64(40)) == r.approximants[-1]

        # The same value, of the same Python types, as for the int order;
        # the numpy order comes first, so a cached row is built from it.
        half = catalog_lookup("geometric", x=-0.5)
        chi_row.cache_clear()
        methods = [
            (partial(chi_limit, spec), 40),
            (partial(cesaro_mean, half), 40),
            (partial(euler_transform, half), 20),
            (partial(euler_transform, half), 70),
            (partial(partial_sums, half), 40),
            (chi_row, 40),
            (averaging_row, 40),
            (bernoulli_numbers, 20),
            (harmonic, 40),
        ]
        for method, n in methods:
            got, want = method(np.int64(n)), method(n)
            got, want = (getattr(v, "values", v) for v in (got, want))
            assert got == want
            values = got if isinstance(got, tuple) else (got,)
            assert all(type(v) is float for v in values)

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
        assert r.error.predicted == pytest.approx((2 / 27) * 4 / 80, rel=1e-12)
        assert r.error.observed == 1 / 3 - r.approximants[-1]
        assert r.error.ratio == r.error.observed / r.error.predicted
        assert r.error.ratio == pytest.approx(1.0, abs=0.25)

    def test_observed_error_without_a_predictor(self):
        # alt_log has an exact value but no second derivative.
        spec = catalog_lookup("alt_log")
        r = chi_sweep(spec, (100, 200, 400))
        assert r.error.observed == spec.exact_value - r.approximants[-1]
        assert r.error.predicted is None
        assert r.error.ratio is None

    def test_no_observed_error_past_double_range(self):
        # exact - approximant overflows although both are finite.
        spec = load_custom({"coefficients": [1.7e308], "exact": -1.7e308})
        r = chi_sweep(spec, (1,))
        assert r.approximants == (1.7e308,)
        assert r.error.observed is None

    @pytest.mark.parametrize("grid", [(10,), (10, 20)])
    def test_no_verdict_below_three_orders(self, grid):
        r = chi_sweep(catalog_lookup("geometric", x=-2.0), grid)
        assert r.verdict is None


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


def stream_settled_sum(spec, n):
    """_settled_sum by the ratio test over the term stream alone, without
    ruling a series out from its rational form: the oracle for that
    shortcut."""
    if spec.asymptotic_only:
        return None
    rho = 0.0
    window = islice(spec.terms(), n // 2, n + 1)
    prev = abs(next(window))
    for t in window:
        cur = abs(t)
        if not 0.0 < cur < prev < math.inf:
            return None
        rho = max(rho, cur / prev)
        prev = cur
    s = partial_sums(spec, n)[-1]
    if not math.isfinite(s) or prev * rho / (1.0 - rho) > 0.5 * math.ulp(s):
        return None
    return s


def settle_x():
    """x where the shortcut is sharp: within 2**-38 of +-1, +-1 itself,
    past one, large enough that terms overflow, and inside (-1, 1)."""
    near = 2.0**-38
    return st.one_of(
        st.sampled_from([1.0, -1.0]),
        st.floats(min_value=1.0, max_value=1.0 + near),
        st.floats(min_value=-1.0 - near, max_value=-1.0),
        past_one(),
        st.builds(mul, st.sampled_from([1.0, -1.0]), st.floats(1e2, 1e300)),
        st.floats(min_value=-1.0, max_value=1.0),
    )


@st.composite
def settle_series(draw, n):
    """A series of one rational part at order n: geometric, log1p_taylor,
    or a custom table whose coefficients may be zero at n//2 or n//2 + 1
    or fall geometrically; maybe scaled by a one-series combine."""
    x = draw(settle_x())
    kind = draw(st.sampled_from(["geometric", "log1p_taylor", "custom", "falling"]))
    if kind in ("geometric", "log1p_taylor"):
        spec = catalog_lookup(kind, x=x)
    else:
        size = draw(st.integers(min_value=0, max_value=2 * n + 2))
        if kind == "falling":
            r = draw(st.floats(min_value=1e-3, max_value=1.0))
            coeffs = [r**k for k in range(size)]
        else:
            value = st.one_of(st.just(0.0), st.floats(-1e3, 1e3), st.just(1.0))
            coeffs = draw(st.lists(value, min_size=size, max_size=size))
        for k in draw(st.sets(st.sampled_from([n // 2, n // 2 + 1]))):
            if k < len(coeffs):
                coeffs[k] = 0.0
        spec = load_custom({"coefficients": coeffs, "x": x})
    if draw(st.booleans()):
        spec = combine([spec], [draw(st.one_of(st.just(0.0), st.floats(-1e3, 1e3)))])
    return spec


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
        assert r.value == partial_sums(spec, self.GRID[-1])[-1]
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

    @pytest.mark.parametrize(
        "grid, accelerated",
        [
            ((40,), False),  # one point: nothing to extrapolate
            ((20, 40), True),  # two points: Richardson, unchecked
            ((20, 40, 80), True),  # extrapolations agree within 4.8e-6
            ((5, 10, 20), False),  # extrapolations 0.108 apart
        ],
    )
    def test_geometric_minus2_outcomes(self, grid, accelerated):
        r = chi_sweep(catalog_lookup("geometric", x=-2.0), grid, accelerate=True)
        assert r.accelerated is accelerated
        assert r.value == self.richardson_or_last(r)

    def test_asymptotic_series_never_settles(self):
        # The partial sum s_2 = 1.0000005000001666 looks settled, but the
        # Bernoulli series only tracks its generating function.
        r = chi_sweep(catalog_lookup("bernoulli_power", x=1e-6), (2,), accelerate=True)
        assert not r.accelerated
        assert r.value == r.approximants[-1] == 1.0000005000000833

    def test_extrapolation_past_double_range_is_not_taken(self):
        # Both approximants are finite, but 200 * S_200 is not.
        spec = catalog_lookup("geometric", x=91.26)
        r = chi_sweep(spec, (100, 200), accelerate=True)
        assert r.approximants == (2.978085106126964e154, 4.997541475244785e307)
        assert not r.accelerated
        assert r.value == r.approximants[-1]

    # At |x| < 1, x**2 = 1.4 * 2**-1074 rounds to 2**-1074: the exact
    # terms grow by 1 + 2**-30, the stream's fall, and s_2 = 1 settles.
    TINY_X = math.sqrt(1.4) * 2.0**-537
    # Ratios 1 - 2**-45: below 1 + 2**-40, and the stream settles.
    SLOW = [1.0] + [1e-40 * (1.0 - k * 2.0**-45) for k in range(1, 10)]

    @given(st.data())
    # n = 1..3 at x = +-1 and -3, the first terms overflowing, and the two
    # cases above, which settle.
    @example(None)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_ratio_test_over_the_stream(self, data):
        if data is None:
            cases = [
                (catalog_lookup(name, x=x), n)
                for name in ("geometric", "log1p_taylor")
                for x in (1.0, -1.0, -3.0, 1e300)
                for n in (1, 2, 3)
            ]
            tiny = [1.0, 1.0, (1.0 + 2.0**-30) / self.TINY_X]
            cases += [
                (load_custom({"coefficients": tiny, "x": self.TINY_X}), 2),
                (load_custom({"coefficients": self.SLOW}), 4),
            ]
            assert [_settled_sum(*case) for case in cases[-2:]] == [1.0, 1.0]
        else:
            n = data.draw(st.integers(min_value=1, max_value=120))
            cases = [(data.draw(settle_series(n)), n)]
        for spec, n in cases:
            assert repr(_settled_sum(spec, n)) == repr(stream_settled_sum(spec, n))

    @pytest.mark.parametrize(
        "spec",
        [
            catalog_lookup("geometric", x=-3.0),
            catalog_lookup("log1p_taylor", x=3.0),
            load_custom({"coefficients": [1.0] * 600, "x": -2.0}),
        ],
        ids=["geometric", "log1p_taylor", "custom"],
    )
    def test_a_growing_part_reads_no_term(self, spec):
        assert _settled_sum(dataclasses.replace(spec, terms=None), 2000) is None

    @pytest.mark.parametrize(
        "spec, grid, want",
        [
            # Two parts: the first grows, but its weight is 1e-300.
            (
                combine(
                    [catalog_lookup("geometric", x=-1.5), catalog_lookup("geometric", x=0.5)],
                    [1e-300, 1.0],
                ),
                (100, 200, 400),
                2.0,
            ),
            # One part past |x| = 1 whose coefficients fall faster.
            (
                load_custom({"coefficients": [0.1**k for k in range(300)], "x": 2.0}),
                (50, 100, 200),
                1.25,
            ),
        ],
        ids=["two-parts", "falling-coefficients"],
    )
    def test_settles_where_a_part_grows_past_one(self, spec, grid, want):
        # Neither may be ruled out from its rational form.
        assert _settled_sum(spec, grid[-1]) == want
        r = chi_sweep(spec, grid, accelerate=True)
        assert r.accelerated and r.value == want

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

    def test_nonfinite_term_names_index(self):
        # a_1 = 1e300 * 1e10 is inf, and the partial sums gave a nan mean.
        spec = load_custom({"coefficients": [1e300] * 3, "x": 1e10})
        with pytest.raises(NumericError, match="index 1"):
            cesaro_mean(spec, 2)

    def test_term_past_double_range_names_index(self):
        with pytest.raises(NumericError, match="index 1024$"):
            cesaro_mean(catalog_lookup("geometric", x=2.0), 1100)

    def test_partial_sum_past_double_range(self):
        # s_1 = 2e308 is inf, and the mean was inf.
        with pytest.raises(NumericError, match="overflow by order 1"):
            cesaro_mean(coefficient_series([1e308, 1e308]), 1)

    def test_finite_partial_sums_whose_sum_overflows(self):
        # fsum of the partial sums 1e308, 1e308, 1e308 leaves double
        # range, but their mean does not.
        assert cesaro_mean(coefficient_series([1e308]), 2) == 1e308
        # The exact mean of 1.75e308, 2.4e307 and 2.4e307, rounded once;
        # dividing each partial sum first is 1 ulp off.
        spec = coefficient_series([1.7465889708633651e308, -1.5047479300669314e308])
        assert cesaro_mean(spec, 2) == 7.434236841520775e307


def fraction_difference_table(terms):
    """The Euler transform by its definition,
    sum_j (-1)^j (D^j b)(0) / 2^(j+1) with b_k = (-1)^k a_k, in Fractions."""
    b = [Fraction(t) * (-1) ** k for k, t in enumerate(terms)]
    total = Fraction(0)
    for j in range(len(b)):
        total += Fraction((-1) ** j * b[0], 2 ** (j + 1))
        b = [y - x for x, y in zip(b, b[1:])]
    return total


def float_difference_table(terms):
    """The same sum in doubles, each difference row halved as it is
    built, so row j holds (D^j b) / 2^j and does not overflow."""
    b = [(-1.0 if k & 1 else 1.0) * t for k, t in enumerate(terms)]
    total = 0.0
    sign = 0.5
    for _ in range(len(terms)):
        total += sign * b[0]
        sign = -sign
        b = [(y - x) * 0.5 for x, y in zip(b, b[1:])]
    return total


@st.composite
def euler_series(draw):
    kind = draw(
        st.sampled_from(
            ("grandi", "alt_log", "alt_harmonic_numbers", "geometric", "custom")
        )
    )
    if kind == "geometric":
        return _blocks(kind, x=draw(st.floats(min_value=-1.9, max_value=0.9)))
    if kind == "custom":
        coeffs = draw(
            st.lists(
                st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=201
            )
        )
        return coefficient_series(coeffs)
    return _blocks(kind)


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
        # 2^(n+1) and the binomial tails T_i leave double range from n of
        # about 1024, as the unscaled forward differences D^j b do.
        spec = _blocks(name)
        assert abs(euler_transform(spec, n) - spec.exact_value) <= 1e-12

    @given(euler_series(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_rounds_the_exact_difference_table(self, spec, n):
        terms = list(islice(spec.terms(), n + 1))
        assert euler_transform(spec, n) == float(fraction_difference_table(terms))

    @pytest.mark.parametrize("n", [1, 2, 50, 400, 1024, 1100, 2000])
    @pytest.mark.parametrize(
        "spec",
        [
            _blocks("alt_log"),
            _blocks("alt_harmonic_numbers"),
            catalog_lookup("geometric", x=-0.5),
        ],
        ids=["alt_log", "alt_harmonic_numbers", "geometric(-0.5)"],
    )
    def test_agrees_with_the_float_difference_table(self, spec, n):
        terms = list(islice(spec.terms(), n + 1))
        assert euler_transform(spec, n) == pytest.approx(
            float_difference_table(terms), rel=1e-12
        )

    @pytest.mark.parametrize(
        "spec, index",
        [
            (coefficient_series([1.0, 2.0, math.nan, 4.0]), 2),
            (coefficient_series([1.0, -math.inf]), 1),
            (coefficient_series([math.inf, math.nan]), 0),
            # a_1 = 1e300 * 1e10 is inf; the table returned inf.
            (load_custom({"coefficients": [1e300] * 3, "x": 1e10}), 1),
        ],
        ids=["nan", "-inf", "inf-then-nan", "product"],
    )
    def test_nonfinite_term_names_index(self, spec, index):
        with pytest.raises(NumericError, match=f"index {index}$"):
            euler_transform(spec, 2)

    def test_mean_past_double_range(self):
        # E_2 = 1.5 * 1.5e308 for constant terms.
        with pytest.raises(NumericError, match="overflows"):
            euler_transform(coefficient_series([1.5e308] * 3), 2)

    def test_stream_errors_pass_through(self):
        # 2**1024 is past double range: the stream yields inf there.
        with pytest.raises(NumericError, match="index 1024$"):
            euler_transform(catalog_lookup("geometric", x=2.0), 1100)
        with pytest.raises(DomainError):
            euler_transform(catalog_lookup("bernoulli_power", x=0.5), 61)
        with pytest.raises(DomainError):
            euler_transform(catalog_lookup("grandi"), 0)


def euler_outcome(terms) -> str:
    """What euler_transform must give for these terms, from the oracle:
    repr of the exact mean rounded once, or the NumericError message."""
    k = next((k for k, t in enumerate(terms) if not math.isfinite(t)), None)
    if k is not None:
        return f"non-finite term at index {k}"
    try:
        return repr(float(euler_mean(terms)))
    except OverflowError:
        return f"Euler mean overflows at order {len(terms) - 1}"


def euler_result(spec, n) -> str:
    try:
        return repr(euler_transform(spec, n))
    except NumericError as exc:
        return str(exc)


# Values that put a term's exponent at either end of double range.
EXTREMES = (1e300, -1e300, 1e-300, -1e-300, 5e-324, -2.5e-320, 1.0, -1.0, 0.0)

# The orders of TestEulerOracle's catalog cases; the last two series take
# 1024 and 2000 only, which keeps the test's time down.
EULER_ORDERS = (1024, 1100, 2000, 5000)


class TestEulerOracle:
    # euler_transform against the exact mean from math.comb (tests/oracles.py).
    # None of these series carries a moment bound (_blocks drops the
    # catalog's), so each mean is the exact dot over all n + 1 double
    # terms, whose binomial weights fall from about 1 at the first terms
    # to below 2**-1000 at the last.
    @pytest.mark.parametrize(
        "spec, n",
        [
            pytest.param(spec, n, id=f"{label}-{n}")
            for label, spec, orders in [
                ("alt_log", _blocks("alt_log"), EULER_ORDERS),
                ("alt_harmonic_numbers", _blocks("alt_harmonic_numbers"), EULER_ORDERS),
                ("grandi", _blocks("grandi"), EULER_ORDERS),
                ("geometric(-1.9)", catalog_lookup("geometric", x=-1.9), EULER_ORDERS),
                ("geometric(0.9)", catalog_lookup("geometric", x=0.9), EULER_ORDERS),
                ("log1p_taylor(0.5)", catalog_lookup("log1p_taylor", x=0.5), EULER_ORDERS[::2]),
                (
                    "geometric(-0.5)+alt_log",
                    combine(
                        [catalog_lookup("geometric", x=-0.5), catalog_lookup("alt_log")],
                        [1.0, 1.0],
                    ),
                    EULER_ORDERS[::2],
                ),
            ]
            for n in orders
        ],
    )
    def test_catalog_series(self, spec, n):
        terms = list(islice(spec.terms(), n + 1))
        assert euler_result(spec, n) == euler_outcome(terms)

    @given(
        st.integers(min_value=150, max_value=1200),
        st.lists(st.sampled_from(EXTREMES), min_size=1, max_size=8),
        st.booleans(),
    )
    @example(600, [1e300, 1e-300, 5e-324], True)  # huge terms at weight about 1
    @example(600, [1.0, 1e-300, 1e300], True)  # a huge block at weights near 0
    @example(600, [-1.0, 1.0, 5e-324, 1e-300, 1.0], False)  # tiny ones near n / 2
    @settings(max_examples=60, deadline=None)
    def test_terms_at_the_ends_of_double_range(self, n, blocks, alternate):
        # Consecutive blocks of the terms take each value in turn, so the
        # terms at weights near 1, near 1/2 and near 0 mix 1e300, 1e-300
        # and subnormals in every way.
        terms = [
            blocks[i * len(blocks) // (n + 1)] * (-1.0 if alternate and i & 1 else 1.0)
            for i in range(n + 1)
        ]
        assert euler_result(coefficient_series(terms), n) == euler_outcome(terms)


@st.composite
def euler_terms(draw):
    """n + 1 terms: a catalog series, or doubles m 2**e with |m| < 2**53
    and e anywhere from the subnormals to the top of double range, so
    that the terms can span every binade a double has."""
    n = draw(st.integers(min_value=1, max_value=400))
    kind = draw(st.sampled_from(("alt_log", "grandi", "geometric", "doubles")))
    if kind == "doubles":
        mantissa = st.integers(-(2**53) + 1, 2**53 - 1)
        return [
            math.ldexp(draw(mantissa), draw(st.integers(-1074, 971)))
            for _ in range(n + 1)
        ]
    x = draw(st.floats(-2.5, 1.0)) if kind == "geometric" else None
    spec = catalog_lookup(kind, x=x) if x is not None else catalog_lookup(kind)
    return list(islice(spec.terms(), n + 1))


class TestEulerKernel:
    @given(euler_terms())
    @example([5e-324, -2.5e-320, 1e-310] * 67)  # subnormals only
    # Terms whose exponents span more binades than a double holds.
    @example(list(islice(catalog_lookup("geometric", x=1.9e-23).terms(), 40)))
    @example([(-1.0) ** i for i in range(150)] + [1.7e308] + [0.0] * 50)
    @settings(max_examples=150, deadline=None)
    def test_exact_dot_on_drawn_terms(self, terms):
        n = len(terms) - 1
        assert euler_result(coefficient_series(terms), n) == euler_outcome(terms)

    @pytest.mark.parametrize("n", [250, 1024, 1500, 2000])
    @pytest.mark.parametrize("name", ["alt_log", "alt_harmonic_numbers", "grandi"])
    def test_settles_in_one_pass(self, monkeypatch, name, n):
        # The benchmark's Euler series, on the double terms, without their
        # moment bounds: one exact dot over the n + 1 terms, no retry.
        passes = []
        monkeypatch.setattr(
            "chisum.summation._euler_mean",
            lambda a, m: passes.append((len(a), m)) or _euler_mean(a, m),
        )
        spec = _blocks(name)
        assert euler_result(spec, n) == euler_outcome(list(islice(spec.terms(), n + 1)))
        assert passes == [(n + 1, n)]

    def test_cancellation_goes_to_the_exact_dot(self):
        # geometric(-1.9) at n = 1000: terms up to 1e278 and a mean of
        # 1.3e144, the rounded mean of the double terms.
        spec = catalog_lookup("geometric", x=-1.9)
        terms = list(islice(spec.terms(), 1001))
        assert euler_result(spec, 1000) == euler_outcome(terms) == "1.3462879452940162e+144"

    @pytest.mark.parametrize(
        "terms",
        [
            [0.0] * 1001,
            # 384 (1 + 2**-52): exactly halfway between two doubles.
            [1.0 + 2.0**-52] * 768,
            # A lone 1.7e308 at order 1500 of 2000 among terms of size 1:
            # its weight, about 2**-383, makes the mean about 8e192.
            [(-1.0) ** i for i in range(1500)] + [1.7e308] + [0.0] * 500,
        ],
        ids=["zero", "halfway", "lone-1.7e308"],
    )
    def test_zero_halfway_and_lone_huge_means(self, terms):
        n = len(terms) - 1
        assert euler_result(coefficient_series(terms), n) == euler_outcome(terms)

    def test_halfway_mean_is_halfway(self):
        mean = euler_mean([1.0 + 2.0**-52] * 768)
        low = float(mean)
        assert mean - Fraction(low) in (Fraction(math.ulp(low)) / 2, -Fraction(math.ulp(low)) / 2)


def _weighted(terms, r):
    """t_k * r**k with the powers as running products."""
    out, rk = [], 1.0
    for t in terms:
        out.append(t * rk)
        rk *= r
    return out


def _per_term_abel(spec, r):
    """The Abel sum at r of a series without a rational form, added term
    by term up to the first two consecutive terms at or below 1e-16 of
    the running sum; None when its stream ends first."""
    weighted, acc, rk, below = [], 0.0, 1.0, 0
    stream = spec.terms()
    while below < 2:
        try:
            t = next(stream) * rk
        except DomainError:  # a finite stream, such as bernoulli_power
            return None
        weighted.append(t)
        acc += t
        rk *= r
        below = below + 1 if abs(t) <= 1e-16 * abs(acc) else 0
    return math.fsum(weighted)


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
        want = math.log1p(r) / (r * (1.0 + r))
        assert v == pytest.approx(want, rel=0, abs=6 * math.ulp(want))

    @pytest.mark.parametrize(
        "spec",
        [catalog_lookup("grandi"), catalog_lookup("geometric", x=-1.0)],
        ids=["grandi", "geometric(-1)"],
    )
    def test_grandi_next_to_one(self, spec):
        # The moment route reads 65 terms at any radius; the block loop
        # would need more than 10**6 here.
        r = 0.99999999
        v = abel_estimate(spec, (r,))
        assert v == pytest.approx(1.0 / (1.0 + r), rel=0, abs=2 * math.ulp(v))

    def test_stream_that_ends_is_a_radius_error(self):
        # bernoulli_power has 61 terms; at r=0.9 the tail needs more.
        spec = catalog_lookup("bernoulli_power", x=0.5)
        with pytest.raises(AbelRadiusError, match="only 61 terms"):
            abel_estimate(spec, (0.9,))

    def test_overflowing_sum_stops_at_once(self):
        # Each term is finite, but their sum overflows at term 1, where the
        # compensation turns nan and no stop test could pass.
        base = load_custom({"coefficients": [1e308, 1e308]})
        pulled = []

        def terms():
            for t in base.terms():
                pulled.append(t)
                yield t

        spec = dataclasses.replace(base, terms=terms)
        with pytest.raises(
            AbelRadiusError, match=r"overflowed at radius 0\.9 \(term 1\)$"
        ):
            abel_estimate(spec, (0.9,))
        assert len(pulled) == 2

    def test_run_of_zero_coefficients_does_not_end_the_sum(self):
        # Two zero terms in a row used to stop the sum at 1.0.
        spec = load_custom({"coefficients": [1, 0, 0, 5]})
        assert abel_estimate(spec, (0.9,)) == pytest.approx(
            1 + 5 * 0.9**3, abs=1e-15
        )

    def test_zeros_at_a_divergent_radius_do_not_end_the_sum(self):
        # |x| r = 1.35 >= 1: the tail bound is inf, so the two zero terms
        # after a_0 do not stop the sum before a_4 = 1.35**4.
        spec = load_custom({"coefficients": [1, 0, 0, 0, 1], "x": 1.5})
        assert abel_estimate(spec, (0.9,)) == 4.3215062500000005

    def test_run_of_zeros_across_block_boundaries(self):
        # The zeros run from term 1 to term 700, across the ends of the
        # blocks of 2, 4, ..., 256 terms and into the block of 512.
        spec = load_custom({"coefficients": [1.0] + [0.0] * 700 + [5.0]})
        assert abel_estimate(spec, (0.999,)) == pytest.approx(
            1.0 + 5.0 * 0.999**701, rel=1e-15
        )

    def test_asymptotic_series_stops_in_its_small_terms(self):
        # At x r = 0.1485 the terms of bernoulli_power fall below the
        # threshold at k = 29 and 30, across the end of the block of 16,
        # then grow again; the 61-term stream ends inside the next block.
        spec = catalog_lookup("bernoulli_power", x=0.15)
        assert abel_estimate(spec, (0.99,)) == pytest.approx(
            _per_term_abel(spec, 0.99), rel=1e-15
        )

    def test_small_terms_inside_a_block_end_the_sum(self):
        # Terms 3 and 4 are below the threshold and term 5, in the same
        # block of 4, is not: the sum stops at term 4, as term by term.
        coeffs = [1.0, 1.0, 1.0, 1e-20, 1e-20] + [1.0] * 10
        spec = dataclasses.replace(load_custom({"coefficients": coeffs}), rational=None)
        want = math.fsum(c * 0.5**k for k, c in enumerate(coeffs[:5]))
        assert abel_estimate(spec, (0.5,)) == want

    @given(
        spec=st.one_of(
            # Without their moment bounds, so that they take the block loop.
            st.sampled_from([_blocks("grandi"), _blocks("alt_log")]),
            st.floats(-0.95, 0.95).map(lambda x: catalog_lookup("geometric", x=x)),
            st.floats(-0.25, 0.25).map(
                lambda x: catalog_lookup("bernoulli_power", x=x)
            ),
            st.builds(
                lambda c, x: load_custom({"coefficients": c, "x": x}),
                st.lists(st.floats(-1e3, 1e3), max_size=40),
                st.floats(-0.95, 0.95),
            ),
        ),
        r=st.floats(0.5, 0.999),
    )
    @example(spec=_blocks("alt_log"), r=0.999)
    @example(spec=catalog_lookup("bernoulli_power", x=0.15), r=0.99)
    @settings(max_examples=40, deadline=None)
    def test_matches_a_per_term_sum_to_the_same_order(self, spec, r):
        # The reference weights each term by the running product r**k, as
        # the blocks do, and sums them in one fsum: for a series with a
        # rational form up to the order the blocks stopped at, for any
        # other up to where a term-by-term loop stops (_per_term_abel).
        read = []

        def terms():
            for t in spec.terms():
                read.append(t)
                yield t

        try:
            v = abel_estimate(dataclasses.replace(spec, terms=terms), (r,))
        except AbelRadiusError as exc:
            assert spec.rational is None and "terms, too few" in str(exc)
            v = None
        if spec.rational is None:
            want = _per_term_abel(spec, r)
        else:
            want = math.fsum(_weighted(read, r))
        if want is None or v is None:
            assert want is v is None
            return
        # hi + lo carries the sum to about 106 bits, then hi rounds it.
        slack = 2.0**-90 * math.fsum(map(abs, _weighted(read, r)))
        assert abs(v - want) <= math.ulp(want) + slack

    def test_extrapolation_past_double_range(self):
        spec = load_custom({"coefficients": [1.7e308] + [0.0098e308] * 10})
        # Each radius value is finite, so only the extrapolation fails.
        assert math.isfinite(abel_estimate(spec, (0.99, 0.999)))
        with pytest.raises(AbelRadiusError, match="leaves double range$"):
            abel_estimate(spec, (0.9, 0.99, 0.999), extrapolate=True)

    def test_radius_too_close_to_one(self):
        # The Grandi stream without its moment bound: its terms times r**k
        # stay above the tail threshold for more than 10**6 terms.
        with pytest.raises(AbelRadiusError, match="did not reach its tail threshold"):
            abel_estimate(_blocks("grandi"), (0.99999999,))

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


MOMENT_SERIES = tuple(DEFINITIONS)
CLI_RADII = (0.9, 0.99, 0.999)
# Every catalog series that carries a moment bound: the last two are the
# Grandi stream under other names.
BOUNDED = {
    **{name: catalog_lookup(name) for name in MOMENT_SERIES},
    "alternating_unit": catalog_lookup("alternating_unit"),
    "geometric(-1)": catalog_lookup("geometric", x=-1.0),
}


class TestAbelMoments:
    @pytest.mark.parametrize("name", MOMENT_SERIES)
    def test_bound_holds_at_low_order(self, name):
        # The exact mean of the exact weighted terms against a direct sum
        # of the series, both in mpmath (tests/oracles.py), at orders where
        # the error is far above the oracles' own.
        bound = catalog_lookup(name).moment_bound
        for r in (0.3, 0.5, 0.9, 0.99, 0.999):
            for m in (4, 6, 8, 12, 16, 24, 32):
                error = abs(moment_mean(name, r, m) - abel_sum(name, r))
                assert error <= bound(m), (r, m)

    @pytest.mark.parametrize("name", MOMENT_SERIES)
    def test_value_at_the_cli_radii_is_the_bounded_mean(self, name):
        # Each radius's value is the correctly rounded mean of the double
        # terms it read, and lies within the bound, the terms' rounding and
        # half an ulp of the Abel sum; the three radii read 195 terms.
        spec, read = counted(catalog_lookup(name))
        total = 0
        for r in CLI_RADII:
            read.clear()
            v = abel_estimate(spec, (r,))
            b, m = [a * r**k for k, a in enumerate(read)], len(read) - 1
            total += len(read)
            assert v == float(euler_mean(b))
            assert spec.moment_bound(m) <= 1e-16 * abs(v)
            tol = moment_tolerance(name, r, b, spec.moment_bound(m), v)
            assert abs(Fraction(v) - abel_sum(name, r)) <= tol
        assert total <= 200

    def test_only_the_catalog_streams_carry_a_bound(self):
        grandi = catalog_lookup("grandi")
        value = abel_estimate(grandi, CLI_RADII, extrapolate=True)
        for spec in (grandi, BOUNDED["alternating_unit"], BOUNDED["geometric(-1)"]):
            assert [spec.moment_bound(m) for m in (4, 64)] == [2.0**-5, 2.0**-65]
            assert abel_estimate(spec, CLI_RADII, extrapolate=True) == value
        for x in (-0.999, -0.5, 0.5):
            assert catalog_lookup("geometric", x=x).moment_bound is None
        assert combine([grandi], [1.0]).moment_bound is None

    @pytest.mark.parametrize("name", BOUNDED)
    def test_each_bound_falls_to_zero_by_2048(self, name):
        # The doubling of _moment_mean ends because each bound is
        # non-increasing in m and 0.0 in double by m = 2048.
        bounds = list(map(BOUNDED[name].moment_bound, range(2049)))
        assert all(b >= c for b, c in pairwise(bounds))
        assert bounds[-1] == 0.0


class TestEulerMoments:
    @pytest.mark.parametrize("n", [64, 100, 1024, 2000, 5000])
    @pytest.mark.parametrize("name", MOMENT_SERIES)
    def test_value_is_the_bounded_mean_of_the_exact_series(self, name, n):
        # The value is the correctly rounded mean of the m + 1 double terms
        # it read, at most 129 of them, and lies within bound(m) + bound(n),
        # those terms' rounding and half an ulp of the exact series' E_n.
        spec, read = counted(catalog_lookup(name))
        v = euler_transform(spec, n)
        m = len(read) - 1
        assert m <= 128
        assert v == float(euler_mean(read))
        bound = spec.moment_bound(m) + spec.moment_bound(n)
        tol = moment_tolerance(name, 1.0, read, bound, v)
        assert abs(Fraction(v) - moment_mean(name, 1.0, n)) <= tol

    @pytest.mark.parametrize("n", [1, 2, 4, 8, 31, 32, 63])
    @pytest.mark.parametrize("name", MOMENT_SERIES)
    def test_below_64_the_mean_of_the_double_terms(self, name, n):
        spec = catalog_lookup(name)
        terms = list(islice(spec.terms(), n + 1))
        assert euler_transform(spec, n) == float(euler_mean(terms))


@pytest.mark.parametrize(
    "call",
    [
        lambda: chi_limit(catalog_lookup("grandi"), 0),
        lambda: richardson_accelerate(1.0, 0, 2.0, 10),
        lambda: cesaro_mean(catalog_lookup("grandi"), -1),
    ],
    ids=["chi_limit", "richardson", "cesaro"],
)
def test_order_out_of_range(call):
    with pytest.raises(DomainError, match=r"need n1? >= [01], got -?[01]$"):
        call()


def test_route_map_names_what_the_module_has():
    # The module docstring maps each route to the function that proves it,
    # so a kernel deleted without its line would leave the map stale.
    names = set(re.findall(r"\b_[A-Za-z]\w*", chisum.summation.__doc__))
    assert "_euler_mean" in names
    assert sorted(name for name in names if not hasattr(chisum.summation, name)) == []
