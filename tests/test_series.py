import json
import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chisum.exceptions import DomainError, SeriesFormatError, UnknownSeriesError
from chisum.series import (
    CATALOG_NAMES,
    catalog_lookup,
    combine,
    load_custom,
    partial_sums,
)
from chisum.special import EULER_GAMMA, harmonic
from chisum.summation import euler_transform


def head(spec, n):
    """a_0..a_{n-1}, read off a fresh stream."""
    return list(islice(spec.terms(), n))


class TestCatalog:
    def test_geometric(self):
        s = catalog_lookup("geometric", x=-2.0)
        assert head(s, 4)[3] == -8.0
        assert s.exact_value == pytest.approx(1 / 3, rel=1e-15)
        assert s.second_derivative == pytest.approx(2 / 27, rel=1e-15)

    def test_geometric_no_exact_past_one(self):
        assert catalog_lookup("geometric", x=2.0).exact_value is None

    def test_grandi(self):
        s = catalog_lookup("grandi")
        assert head(s, 2) == [1.0, -1.0]
        assert s.exact_value == 0.5

    def test_alternating_unit_matches_grandi(self):
        s = catalog_lookup("alternating_unit")
        g = catalog_lookup("grandi")
        assert head(s, 6) == head(g, 6)

    def test_alt_harmonic_numbers(self):
        s = catalog_lookup("alt_harmonic_numbers")
        assert head(s, 2) == [1.0, -1.5]
        assert s.exact_value == pytest.approx(math.log(2) / 2, rel=1e-15)

    def test_alt_log(self):
        s = catalog_lookup("alt_log")
        a = head(s, 3)
        assert a[0] == 0.0
        assert a[2] == pytest.approx(math.log(3), rel=1e-15)
        assert s.exact_value == pytest.approx(0.5 * math.log(2 / math.pi), rel=1e-15)

    def test_log1p_taylor(self):
        s = catalog_lookup("log1p_taylor", x=3.0)
        assert head(s, 3) == [0.0, 3.0, -4.5]
        assert s.exact_value == pytest.approx(math.log(4), rel=1e-15)
        assert s.second_derivative == pytest.approx(-1 / 16, rel=1e-15)

    def test_geometric_curvature_past_double_range(self):
        # 2/(1-x)**3 overflows from |x| of about 5.6e102; finite below.
        assert catalog_lookup("geometric", x=1e103).second_derivative is None
        assert catalog_lookup("geometric", x=-1e103).second_derivative is None
        x = 5e102
        curvature = catalog_lookup("geometric", x=x).second_derivative
        assert curvature == 2.0 / (1.0 - x) ** 3

    def test_log1p_curvature_past_double_range(self):
        # -1/(1+x)**2 overflows from |x| of about 1.3e154; finite below.
        s = catalog_lookup("log1p_taylor", x=1e155)
        assert s.second_derivative is None
        assert s.exact_value == math.log1p(1e155)
        x = 1e153
        assert catalog_lookup("log1p_taylor", x=x).second_derivative == (
            -1.0 / (1.0 + x) ** 2
        )

    def test_log1p_no_exact_outside_domain(self):
        assert catalog_lookup("log1p_taylor", x=-1.5).exact_value is None

    def test_bernoulli_power(self):
        s = catalog_lookup("bernoulli_power", x=1.0)
        assert head(s, 3)[2] == pytest.approx(1 / 6, rel=1e-15)
        assert s.asymptotic_only

    def test_unknown_name(self):
        with pytest.raises(UnknownSeriesError):
            catalog_lookup("borel")

    @pytest.mark.parametrize("name", ["geometric", "log1p_taylor", "bernoulli_power"])
    def test_missing_x(self, name):
        with pytest.raises(DomainError, match="needs x") as info:
            catalog_lookup(name)
        assert not isinstance(info.value, UnknownSeriesError)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_nonfinite_x(self, x):
        with pytest.raises(DomainError, match="finite x"):
            catalog_lookup("geometric", x=x)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_every_listed_name_builds(self, name):
        spec = catalog_lookup(name, x=0.5, coefficients=[1.0])
        assert spec.name == name


class TestPartialSums:
    def test_grandi(self):
        assert partial_sums(catalog_lookup("grandi"), 3) == (1.0, 0.0, 1.0, 0.0)

    def test_geometric_half(self):
        s = partial_sums(catalog_lookup("geometric", x=0.5), 2)
        assert s == (1.0, 1.5, 1.75)

    def test_bernoulli_magnitude(self):
        # The raw partial sum at n=30 is astronomically far from the
        # generating-function value the weighted sum tracks.
        s = partial_sums(catalog_lookup("bernoulli_power", x=1.0), 30)
        assert s[30] == pytest.approx(5.7e8, rel=0.02)

    def test_successive_difference_is_term(self):
        spec = catalog_lookup("geometric", x=-0.75)
        ps = partial_sums(spec, 50)
        a = head(spec, 51)
        for k in range(1, 51):
            assert ps[k] - ps[k - 1] == pytest.approx(a[k], rel=1e-12)

    @pytest.mark.parametrize(
        "name,params",
        [("geometric", {"x": 0.5}), ("geometric", {"x": -0.9}),
         ("log1p_taylor", {"x": 0.5})],
    )
    def test_classical_convergence_to_exact(self, name, params):
        spec = catalog_lookup(name, **params)
        s = partial_sums(spec, 2000)
        assert s[-1] == pytest.approx(spec.exact_value, abs=1e-6)

    def test_sums_past_double_range_are_not_finite(self):
        # s_1023 = 2**1024 - 1 rounds past double range; no exception.
        s = partial_sums(catalog_lookup("geometric", x=2.0), 1100)
        assert all(map(math.isfinite, s[:1023]))
        assert s[1023] == math.inf
        assert not any(map(math.isfinite, s[1023:]))

    def test_negative_n(self):
        with pytest.raises(DomainError):
            partial_sums(catalog_lookup("grandi"), -1)


class TestCombine:
    def test_linearity_of_terms(self):
        a = catalog_lookup("grandi")
        b = catalog_lookup("geometric", x=0.5)
        c = combine([a, b], [2.0, -3.0])
        for ck, ak, bk in zip(head(c, 10), head(a, 10), head(b, 10)):
            assert ck == pytest.approx(2.0 * ak - 3.0 * bk, rel=1e-15)

    def test_exact_value_combination(self):
        c = combine(
            [
                catalog_lookup("alt_harmonic_numbers"),
                catalog_lookup("alt_log"),
                catalog_lookup("grandi"),
            ],
            [1.0, -1.0, -EULER_GAMMA],
        )
        assert c.exact_value == pytest.approx(
            (math.log(math.pi) - EULER_GAMMA) / 2, abs=1e-12
        )
        assert c.exact_value == pytest.approx(0.2837571, abs=1e-7)

    def test_zero_combination(self):
        c = combine([catalog_lookup("grandi")], [0.0])
        assert head(c, 5) == [0.0] * 5
        assert c.exact_value == 0.0

    def test_scaling(self):
        c = combine([catalog_lookup("grandi")], [2.0])
        assert c.exact_value == 1.0

    def test_exact_absent_when_any_input_lacks_it(self):
        c = combine(
            [catalog_lookup("grandi"), catalog_lookup("geometric", x=2.0)],
            [1.0, 1.0],
        )
        assert c.exact_value is None

    def test_opposite_infinities_give_nan(self):
        parts = [load_custom({"coefficients": [c] * 700, "x": 3.0})
                 for c in (2.0, -2.0)]
        a = head(combine(parts, [1.0, 1.0]), 647)
        assert a[645] == 0.0
        assert math.isnan(a[646])

    @pytest.mark.parametrize(
        "values, want",
        [
            # fsum's partials overflow; the exact term is finite.
            ((1e308, 1e308, -1e308), 1e308),
            ((1e308, 1e308, -1.5e308), 0.5e308),
            # The exact term itself is past double range.
            ((1e308, 1e308, 1e308), math.inf),
            ((-1e308, -1e308, -1e308), -math.inf),
        ],
    )
    def test_overflowing_fsum_gives_the_exact_term(self, values, want):
        parts = [load_custom({"coefficients": [v]}) for v in values]
        c = combine(parts, [1.0] * len(values))
        assert head(c, 2) == [want, 0.0]
        if math.isfinite(want):
            # The Euler mean needs every term finite: (3 a_0 + a_1) / 4.
            assert euler_transform(c, 1) == float(Fraction(want) * 3 / 4)

    def test_part_stream_errors_pass_through(self):
        # Past its table the Bernoulli stream raises DomainError, which is
        # a ValueError; the combined stream does not turn it into nan.
        c = combine([catalog_lookup("bernoulli_power", x=0.5)], [1.0])
        with pytest.raises(DomainError, match="k=60"):
            head(c, 62)

    @pytest.mark.parametrize(
        "coefficients",
        [
            # 1.5e308 + 1.5e308: fsum's partials overflow.
            [1e308, 1e308],
            # 1.5 * 1.5e308 is inf already; with -1.5e308 as well, fsum
            # meets inf - inf.
            [1.5e308],
            [1.5e308, -1.5e308],
        ],
    )
    def test_exact_value_past_double_range_is_none(self, coefficients):
        third = catalog_lookup("geometric", x=1 / 3)  # exact value 1.5
        c = combine([third] * len(coefficients), coefficients)
        assert c.exact_value is None

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            combine([catalog_lookup("grandi")], [1.0, 2.0])
        with pytest.raises(DomainError):
            combine([], [])


def check_parts(spec):
    """Every part (x, c, top, end) of spec's rational form: top bounds
    |c(k)| below end, c(k) is 0 from end on, and a part with end > 0 has
    top > 0 (the kernel takes log2(top) of it)."""
    for x, c, top, end in spec.rational:
        assert end == math.inf or (isinstance(end, int) and end >= 0)
        assert end == 0 or top > 0.0
        for k in range(min(end, 200)):
            num, den = c(k)
            assert den > 0 and abs(Fraction(num, den)) <= top
        if end < math.inf:
            assert all(c(k)[0] == 0 for k in range(end, end + 5))


_RATIONAL_PARAMS = [
    ("geometric", {"x": -2.5}),
    ("geometric", {"x": 0.0}),
    ("grandi", {}),
    ("alternating_unit", {}),
    ("log1p_taylor", {"x": 3.0}),
    ("custom", {"coefficients": [1.5, -2.0, 0.0, 0.0], "x": 2.0}),  # trailing zeros
    ("custom", {"coefficients": [0.0, -0.0, 0.0]}),  # all zeros
    ("custom", {"coefficients": []}),
    ("custom", {"coefficients": [0.0] * 300 + [1e-300]}),  # ends past 200
]


class TestRationalParts:
    def test_every_catalog_series_with_a_rational_form_is_listed(self):
        listed = {name for name, _ in _RATIONAL_PARAMS}
        for name in CATALOG_NAMES:
            params = {"x": 0.5, "coefficients": [1.0]}
            if catalog_lookup(name, **params).rational is not None:
                assert name in listed

    @pytest.mark.parametrize("name, params", _RATIONAL_PARAMS)
    def test_catalog_and_custom_parts(self, name, params):
        check_parts(catalog_lookup(name, **params))

    @pytest.mark.parametrize(
        "coefficients, ends",
        [([1.5, -2.0, 0.0, 0.0], [2]), ([0.0, 0.0], [0]), ([], [0])],
    )
    def test_custom_end_is_one_past_the_last_nonzero(self, coefficients, ends):
        spec = load_custom({"coefficients": coefficients})
        assert [end for *_, end in spec.rational] == ends

    def test_a_zero_combination_coefficient_ends_its_parts_at_zero(self):
        parts = [
            catalog_lookup("geometric", x=-3.0),
            catalog_lookup("log1p_taylor", x=0.5),
            load_custom({"coefficients": [2.0, 0.0, 3.0]}),
        ]
        spec = combine(parts, [0.0, -2.5, 0.0])
        check_parts(spec)
        assert [(top, end) for _, _, top, end in spec.rational] == [
            (0.0, 0),
            (math.nextafter(2.5, math.inf), math.inf),
            (0.0, 0),
        ]

    @given(
        st.lists(
            st.lists(
                st.one_of(st.just(0.0), st.floats(-1e300, 1e300)), max_size=12
            ),
            min_size=1,
            max_size=3,
        ),
        st.lists(st.one_of(st.just(0.0), st.floats(-1e8, 1e8)), min_size=4),
        st.floats(-4.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_combined_parts(self, coefficient_lists, weights, x):
        specs = [load_custom({"coefficients": cs, "x": x}) for cs in coefficient_lists]
        specs.append(catalog_lookup("geometric", x=x))
        check_parts(combine(specs, weights[: len(specs)]))


class TestCustomSeries:
    DOC = {"coefficients": [1.0, -0.5, 0.25], "x": 2.0, "exact": 0.75}

    def test_from_dict(self):
        s = load_custom(self.DOC)
        assert head(s, 4) == [1.0, -1.0, 1.0, 0.0]  # 0.0 past the list
        assert s.exact_value == 0.75

    def test_from_file(self, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(json.dumps(self.DOC))
        s = load_custom(str(p))
        assert head(s, 2)[1] == -1.0

    def test_default_x_is_one(self):
        s = load_custom({"coefficients": [3.0, 4.0]})
        assert head(s, 2)[1] == 4.0
        assert s.exact_value is None

    def test_catalog_entry(self):
        s = catalog_lookup("custom", coefficients=[1, 1], x=0.5)
        assert head(s, 2)[1] == 0.5

    @pytest.mark.parametrize(
        "doc",
        [
            "not json at all {",
            '{"x": 1.0}',
            '{"coefficients": "nope"}',
            '{"coefficients": [1, 1], "x": "abc"}',
            '{"coefficients": [1, 1], "exact": "abc"}',
            '{"coefficients": [1, true]}',
            '{"coefficients": [1, 1], "x": false}',
            '{"coefficients": [1, 1], "exact": true}',
            '{"coefficients": [1, NaN]}',
            '{"coefficients": [1, 1], "x": Infinity}',
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(SeriesFormatError):
            load_custom(doc)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SeriesFormatError):
            load_custom(str(tmp_path / "absent.json"))


# One instance of every catalog entry, with the parameters it needs.
_PARAMS = {
    "geometric": {"x": -2.5},
    "log1p_taylor": {"x": 1.5},
    "bernoulli_power": {"x": 0.7},
    "custom": {"coefficients": [1.0, -2.0, 3.5], "x": 0.5},
}


def _bernoulli_exact(m):
    # B_0..B_m from sum_{j<=i} C(i+1, j) B_j = 0, then B_1 = +1/2.
    b = [Fraction(1)]
    for i in range(1, m + 1):
        b.append(-sum(math.comb(i + 1, j) * b[j] for j in range(i)) / (i + 1))
    b[1] = -b[1]
    return b


_BERNOULLI = _bernoulli_exact(60)


def _kth_term(name, k):
    """Independent oracle for a_k of the _PARAMS instance, exact where rational."""
    x = Fraction(_PARAMS.get(name, {}).get("x", 1.0))
    sign = -1 if k & 1 else 1
    if name == "geometric":
        return x**k
    if name in ("grandi", "alternating_unit"):
        return sign
    if name == "alt_harmonic_numbers":
        return sign * sum(Fraction(1, j) for j in range(1, k + 2))
    if name == "alt_log":
        return sign * math.log1p(k)
    if name == "log1p_taylor":
        return -sign * x**k / k if k else 0
    if name == "bernoulli_power":
        return _BERNOULLI[k] * x**k
    if name == "custom":
        coeffs = _PARAMS["custom"]["coefficients"]
        return Fraction(coeffs[k]) * x**k if k < len(coeffs) else 0
    raise AssertionError(f"no oracle for {name}")


class TestTermStreams:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_term_is_the_kth_stream_item(self, name):
        spec = catalog_lookup(name, **_PARAMS.get(name, {}))
        want = [float(_kth_term(name, k)) for k in range(61)]
        assert head(spec, 61) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_each_call_is_a_fresh_stream(self, name):
        spec = catalog_lookup(name, **_PARAMS.get(name, {}))
        first = spec.terms()
        a0 = next(first)
        assert next(spec.terms()) == a0

    def test_combination_streams_termwise(self):
        a = catalog_lookup("alt_harmonic_numbers")
        b = catalog_lookup("geometric", x=-2.0)
        c = combine([a, b], [2.0, -3.0])
        expected = [math.fsum((2.0 * s, -3.0 * t)) for s, t in
                    zip(islice(a.terms(), 50), islice(b.terms(), 50))]
        assert list(islice(c.terms(), 50)) == expected

    def test_bernoulli_stream_ends_with_domain_error(self):
        stream = catalog_lookup("bernoulli_power", x=0.5).terms()
        assert len(list(islice(stream, 61))) == 61
        with pytest.raises(DomainError, match="k=60"):
            next(stream)

    @pytest.mark.parametrize(
        "name, magnitude",
        [
            # log(k + 1) is how the stream is defined; log1p(k) differs
            # from it in the last bit at about 1% of k.
            ("alt_log", lambda k: math.log(k + 1)),
            ("alt_harmonic_numbers", lambda k: harmonic(k + 1)),
        ],
    )
    def test_alternating_streams_at_sampled_large_k(self, name, magnitude):
        # Both parities, and the powers of two at which the harmonic
        # stream's integer scale grows.
        ks = (0, 1, 2, 1023, 1024, 65535, 65536, 99_999, 524_287, 524_288,
              999_999, 10**6)
        stream, got, at = catalog_lookup(name).terms(), [], 0
        for k in ks:
            got.append(next(islice(stream, k - at, None)))
            at = k + 1
        assert got == [(-1.0) ** k * magnitude(k) for k in ks]

    def test_custom_stream_is_zero_past_coefficients(self):
        spec = catalog_lookup("custom", coefficients=[1.0, 2.0], x=3.0)
        assert list(islice(spec.terms(), 5)) == [1.0, 6.0, 0.0, 0.0, 0.0]



def _past_range(c, x, k):
    """What term k = c(k) * x**k of a stream must be, with c(k) and x
    exact: the term's infinity when the power or the term is past double
    range, nan where a zero coefficient meets an infinite power, "finite"
    well inside the range, and None near its edge, where rounding
    decides."""
    power, term = abs(x) ** k, c(k) * x**k
    edge, past = 2**1020, 2**1025
    if power >= past or (power < edge and abs(term) >= past):
        return "nan" if term == 0 else math.inf if term > 0 else -math.inf
    if max(power, abs(term)) < edge:
        return "finite"
    return None


_BIG = [1.0, -2.0, 0.0, 3.0, -1.0]
_OPPOSED = [load_custom({"coefficients": [c] * 700, "x": 3.0}) for c in (2.0, -2.0)]


class TestPastDoubleRange:
    """A term past double range is +-inf of the term's sign, or nan,
    never an OverflowError."""

    @pytest.mark.parametrize(
        "spec, c, x, n",
        [
            (catalog_lookup("geometric", x=-3.5), lambda k: 1, -3.5, 700),
            (catalog_lookup("geometric", x=2.0), lambda k: 1, 2.0, 1100),
            (catalog_lookup("log1p_taylor", x=-3.0),
             lambda k: Fraction((-1) ** (k + 1), k) if k else 0, -3.0, 700),
            (catalog_lookup("custom", coefficients=_BIG, x=1e200),
             lambda k: Fraction(_BIG[k]), 1e200, len(_BIG)),
            # B_k = 0 for odd k >= 3.
            (catalog_lookup("bernoulli_power", x=1e7),
             lambda k: _BERNOULLI[k], 1e7, 61),
            # 2 * 3**k - 2 * 3**k, whose parts reach opposite infinities.
            (combine(_OPPOSED, [1.0, 1.0]), lambda k: 0, 3.0, 700),
        ],
        ids=["geometric-3.5", "geometric2", "log1p_taylor-3", "custom1e200",
             "bernoulli_power1e7", "combine-opposed"],
    )
    def test_terms_past_double_range(self, spec, c, x, n):
        wants = [_past_range(c, Fraction(x), k) for k in range(n)]
        # Every stream reaches past double range within n terms.
        assert {"nan", math.inf, -math.inf} & set(wants)
        for k, (t, want) in enumerate(zip(head(spec, n), wants)):
            if want == "nan":
                assert math.isnan(t), k
            elif want == "finite":
                assert math.isfinite(t), k
            elif want is not None:
                assert t == want, k
