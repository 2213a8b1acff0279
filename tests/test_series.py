import json
import math
from itertools import islice

import pytest

from chisum.exceptions import DomainError, SeriesFormatError, UnknownSeriesError
from chisum.series import (
    CATALOG_NAMES,
    catalog_lookup,
    combine,
    load_custom,
    partial_sums,
)
from chisum.special import EULER_GAMMA


class TestCatalog:
    def test_geometric(self):
        s = catalog_lookup("geometric", x=-2.0)
        assert s.term(3) == -8.0
        assert s.exact_value == pytest.approx(1 / 3, rel=1e-15)
        assert s.second_derivative == pytest.approx(2 / 27, rel=1e-15)

    def test_geometric_no_exact_past_one(self):
        assert catalog_lookup("geometric", x=2.0).exact_value is None

    def test_grandi(self):
        s = catalog_lookup("grandi")
        assert (s.term(0), s.term(1)) == (1.0, -1.0)
        assert s.exact_value == 0.5

    def test_alternating_unit_matches_grandi(self):
        s = catalog_lookup("alternating_unit")
        g = catalog_lookup("grandi")
        assert [s.term(k) for k in range(6)] == [g.term(k) for k in range(6)]

    def test_alt_harmonic_numbers(self):
        s = catalog_lookup("alt_harmonic_numbers")
        assert s.term(0) == 1.0
        assert s.term(1) == -1.5
        assert s.exact_value == pytest.approx(math.log(2) / 2, rel=1e-15)

    def test_alt_log(self):
        s = catalog_lookup("alt_log")
        assert s.term(0) == 0.0
        assert s.term(2) == pytest.approx(math.log(3), rel=1e-15)
        assert s.exact_value == pytest.approx(0.5 * math.log(2 / math.pi), rel=1e-15)

    def test_log1p_taylor(self):
        s = catalog_lookup("log1p_taylor", x=3.0)
        assert s.term(0) == 0.0
        assert s.term(1) == 3.0
        assert s.term(2) == -4.5
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
        assert s.term(2) == pytest.approx(1 / 6, rel=1e-15)
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
        assert partial_sums(catalog_lookup("grandi"), 3).s == (1.0, 0.0, 1.0, 0.0)

    def test_geometric_half(self):
        s = partial_sums(catalog_lookup("geometric", x=0.5), 2).s
        assert s == (1.0, 1.5, 1.75)

    def test_bernoulli_magnitude(self):
        # The raw partial sum at n=30 is astronomically far from the
        # generating-function value the weighted sum tracks.
        s = partial_sums(catalog_lookup("bernoulli_power", x=1.0), 30).s
        assert s[30] == pytest.approx(5.7e8, rel=0.02)

    def test_successive_difference_is_term(self):
        spec = catalog_lookup("geometric", x=-0.75)
        ps = partial_sums(spec, 50).s
        for k in range(1, 51):
            assert ps[k] - ps[k - 1] == pytest.approx(spec.term(k), rel=1e-12)

    @pytest.mark.parametrize(
        "name,params",
        [("geometric", {"x": 0.5}), ("geometric", {"x": -0.9}),
         ("log1p_taylor", {"x": 0.5})],
    )
    def test_classical_convergence_to_exact(self, name, params):
        spec = catalog_lookup(name, **params)
        s = partial_sums(spec, 2000).s
        assert s[-1] == pytest.approx(spec.exact_value, abs=1e-6)

    def test_negative_n(self):
        with pytest.raises(DomainError):
            partial_sums(catalog_lookup("grandi"), -1)


class TestCombine:
    def test_linearity_of_terms(self):
        a = catalog_lookup("grandi")
        b = catalog_lookup("geometric", x=0.5)
        c = combine([a, b], [2.0, -3.0])
        for k in range(10):
            assert c.term(k) == pytest.approx(
                2.0 * a.term(k) - 3.0 * b.term(k), rel=1e-15
            )

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
        assert all(c.term(k) == 0.0 for k in range(5))
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

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            combine([catalog_lookup("grandi")], [1.0, 2.0])
        with pytest.raises(DomainError):
            combine([], [])


class TestCustomSeries:
    DOC = {"coefficients": [1.0, -0.5, 0.25], "x": 2.0, "exact": 0.75}

    def test_from_dict(self):
        s = load_custom(self.DOC)
        assert s.term(0) == 1.0
        assert s.term(1) == -1.0
        assert s.term(2) == 1.0
        assert s.term(3) == 0.0  # past the coefficient list
        assert s.exact_value == 0.75

    def test_from_file(self, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(json.dumps(self.DOC))
        s = load_custom(str(p))
        assert s.term(1) == -1.0

    def test_default_x_is_one(self):
        s = load_custom({"coefficients": [3.0, 4.0]})
        assert s.term(1) == 4.0
        assert s.exact_value is None

    def test_catalog_entry(self):
        s = catalog_lookup("custom", coefficients=[1, 1], x=0.5)
        assert s.term(1) == 0.5

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


class TestTermStreams:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_term_is_the_kth_stream_item(self, name):
        spec = catalog_lookup(name, **_PARAMS.get(name, {}))
        stream = list(islice(spec.terms(), 61))
        assert [spec.term(k) for k in range(61)] == stream

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_each_call_is_a_fresh_stream(self, name):
        spec = catalog_lookup(name, **_PARAMS.get(name, {}))
        first = spec.terms()
        next(first)
        assert next(spec.terms()) == spec.term(0)

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

    def test_custom_stream_is_zero_past_coefficients(self):
        spec = catalog_lookup("custom", coefficients=[1.0, 2.0], x=3.0)
        assert list(islice(spec.terms(), 5)) == [1.0, 6.0, 0.0, 0.0, 0.0]
