import io
import json
import os
import subprocess
import sys
import types
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chisum
from chisum.cli import EXIT_NUMERIC, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from chisum.series import CATALOG_NAMES
from chisum.special import bernoulli_gen_fn
from chisum.weights import averaging_row, verify_toeplitz


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not valid JSON")


def strict_json(text):
    """The document, parsed without Python's NaN and Infinity extension."""
    return json.loads(text, parse_constant=_not_json)


def run_json(*argv):
    code, text = run_cli("--format", "json", *argv)
    assert code == EXIT_OK
    return strict_json(text)


def test_only_the_cli_imports_numpy_and_mpmath():
    # The library needs only the standard library; chisum.cli imports both
    # unused, because the benchmark's CLI probe times their imports.
    code = (
        "import sys\n"
        "loaded = lambda: [m for m in ('mpmath', 'numpy') if m in sys.modules]\n"
        "import chisum\n"
        "print(loaded())\n"
        "import chisum.cli\n"
        "print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(chisum.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout == "[]\n['mpmath', 'numpy']\n"


def test_the_package_exports_its_modules_all():
    from chisum import error_model, exceptions, series, special, summation, weights

    modules = (error_model, exceptions, series, special, summation, weights)
    public = {
        name for name, value in vars(chisum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == {name for m in modules for name in m.__all__}
    for m in modules:
        for name in m.__all__:
            assert getattr(chisum, name) is getattr(m, name), name
    bound = {}
    exec("from chisum.exceptions import *", bound)
    del bound["__builtins__"]
    classes = (
        exceptions.DomainError, exceptions.UnknownSeriesError,
        exceptions.SeriesFormatError, exceptions.NumericError,
        exceptions.AbelRadiusError,
    )
    assert bound == {c.__name__: c for c in classes}


class TestSumCommand:
    def test_grandi_n100(self):
        doc = run_json("sum", "--series", "grandi", "--n", "100")
        assert doc["results"]["value"] == pytest.approx(0.4987, abs=1e-4)

    def test_geometric_error_fields(self):
        doc = run_json("sum", "--series", "geometric", "--x", "-2", "--n", "40")
        res = doc["results"]
        assert res["observed_error"] == pytest.approx(0.0037, abs=5e-5)
        assert res["predicted_error"] == pytest.approx(0.0037037, abs=1e-7)

    def test_geometric_x0(self):
        doc = run_json("sum", "--series", "geometric", "--x", "0", "--n", "5")
        assert doc["results"]["value"] == 1.0

    def test_grid_and_verdict(self):
        doc = run_json(
            "sum", "--series", "geometric", "--x", "-2",
            "--n-grid", "10,20,40,80",
        )
        assert doc["verdict"] == "converged"
        assert len(doc["rows"]["data"]) == 4

    def test_accelerate(self):
        doc = run_json(
            "sum", "--series", "geometric", "--x", "0.5",
            "--n-grid", "50,100,200", "--accelerate",
        )
        assert doc["results"]["value"] == pytest.approx(2.0, abs=1e-3)
        assert doc["results"].get("accelerated") is True

    def test_accelerated_past_double_range(self):
        # Richardson on 2.978e154 and 4.998e307 overflows; the raw last
        # approximant is reported instead of inf.
        code, text = run_cli(
            "sum", "--series", "geometric", "--x", "91.26",
            "--n-grid", "100,200", "--accelerate",
        )
        assert code == EXIT_OK
        assert "value = 4.997541475244785e+307\n" in text
        assert "accelerated" not in text

    def test_exact_near_zero_is_strict_json(self):
        # 1/x overflows for |x| below about 5.6e-309; h(x) rounds to 1.0.
        doc = run_json("sum", "--series", "bernoulli_power", "--x", "1e-310", "--n", "5")
        assert doc["results"]["exact"] == 1.0
        assert doc["results"]["observed_error"] == 0.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--series", "grandi", "--x=nan", "--n", "3"],
            ["--tol=inf", "kappa"],
        ],
        ids=["ignored-x", "tol"],
    )
    def test_nonfinite_option_exit_2(self, argv):
        # JSON output echoes its inputs, and has no nan or inf to echo.
        code, _ = run_cli("--format", "json", *argv)
        assert code == EXIT_USAGE

    def test_observed_error_past_double_range_is_left_out(self, tmp_path):
        # exact - value is 2e308, which no double holds.
        p = tmp_path / "series.json"
        p.write_text(json.dumps({"coefficients": [-1e308], "exact": 1e308}))
        doc = run_json("sum", "--series", "custom", "--file", str(p), "--n", "3")
        assert doc["results"]["value"] == -1e308
        assert "observed_error" not in doc["results"]

    def test_custom_without_file_exit_2(self):
        code, _ = run_cli("sum", "--series", "custom", "--n", "10")
        assert code == EXIT_USAGE

    def test_unknown_series_exit_2(self):
        code, _ = run_cli("sum", "--series", "nope", "--n", "10")
        assert code == EXIT_USAGE

    def test_missing_n_exit_2(self):
        code, _ = run_cli("sum", "--series", "grandi")
        assert code == EXIT_USAGE

    def test_malformed_custom_exit_3(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{ this is not json")
        code, _ = run_cli(
            "sum", "--series", "custom", "--file", str(p), "--n", "10"
        )
        assert code == EXIT_PARSE

    def test_numeric_failure_exit_4(self, tmp_path):
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"coefficients": [0.0, 1e308], "x": 10.0}))
        code, _ = run_cli(
            "sum", "--series", "custom", "--file", str(p), "--n", "10"
        )
        assert code == EXIT_NUMERIC

    def test_missing_x_exit_2(self):
        code, _ = run_cli("sum", "--series", "geometric", "--n", "40")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("x", ["nan", "inf"])
    def test_nonfinite_x_exit_2(self, x):
        code, _ = run_cli("sum", "--series", "geometric", f"--x={x}", "--n", "10")
        assert code == EXIT_USAGE

    def test_custom_coefficient_past_double_range_exit_3(self, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(json.dumps({"coefficients": [1, 10**400]}))
        code, _ = run_cli("sum", "--series", "custom", "--file", str(p), "--n", "10")
        assert code == EXIT_PARSE

    def test_custom_non_numeric_x_exit_3(self, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(json.dumps({"coefficients": [1.0, 1.0], "x": "abc"}))
        code, _ = run_cli("sum", "--series", "custom", "--file", str(p), "--n", "10")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "doc",
        [
            {"coefficients": [1, True]},
            {"coefficients": [1, 1], "x": False},
            {"coefficients": [1, 1], "exact": True},
        ],
    )
    def test_custom_boolean_exit_3(self, tmp_path, doc):
        p = tmp_path / "series.json"
        p.write_text(json.dumps(doc))
        code, _ = run_cli("sum", "--series", "custom", "--file", str(p), "--n", "10")
        assert code == EXIT_PARSE

    def test_overflowing_sum_exit_4(self, tmp_path):
        # Finite weighted terms whose running sum leaves double range.
        p = tmp_path / "huge.json"
        p.write_text(json.dumps({"coefficients": [1e308, 1e308]}))
        code, _ = run_cli("sum", "--series", "custom", "--file", str(p), "--n", "5")
        assert code == EXIT_NUMERIC

    def test_overflowing_comparison_exit_4(self):
        code, _ = run_cli(
            "sum", "--series", "geometric", "--x", "1e10", "--n", "40",
            "--compare", "cesaro",
        )
        assert code == EXIT_NUMERIC

    def test_geometric_past_curvature_range(self):
        # f''(x) = 2/(1-x)**3 leaves double range, but S_2 = 1 + x + x**2/2
        # does not; the sum prints without a predicted error.
        code, text = run_cli("sum", "--series", "geometric", "--x", "1e103", "--n", "2")
        assert code == EXIT_OK
        assert "value = 5e+205" in text
        assert "predicted_error" not in text

    def test_custom_cancelling_sum(self, tmp_path):
        # The double sum of this series cancels to 1.13e9; S_300 is 0.3328.
        p = tmp_path / "ones.json"
        p.write_text(json.dumps({"coefficients": [1.0] * 600, "x": -2.0}))
        code, text = run_cli(
            "sum", "--series", "custom", "--file", str(p), "--n", "300"
        )
        assert code == EXIT_OK
        assert "value = 0.33283950780099497\n" in text

    def test_custom_file(self, tmp_path):
        p = tmp_path / "series.json"
        p.write_text(json.dumps({"coefficients": [1.0, 0.0], "exact": 1.0}))
        doc = run_json("sum", "--series", "custom", "--file", str(p), "--n", "20")
        assert doc["results"]["value"] == pytest.approx(1.0, rel=1e-12)

    def test_deterministic(self):
        a = run_cli("--format", "json", "sum", "--series", "grandi", "--n", "50")
        b = run_cli("--format", "json", "sum", "--series", "grandi", "--n", "50")
        assert a == b

    def test_json_round_trip_precision(self):
        doc = run_json("sum", "--series", "grandi", "--n", "100")
        from chisum import catalog_lookup, chi_sum

        assert doc["results"]["value"] == chi_sum(catalog_lookup("grandi"), 100)


class TestCompareCommand:
    def test_grandi_all_methods(self):
        doc = run_json("compare", "--series", "grandi", "--n", "100")
        res = doc["results"]
        assert res["cesaro"] == pytest.approx(0.5, abs=1e-2)
        assert res["euler"] == 0.5
        assert res["abel"] == pytest.approx(0.5, abs=1e-3)

    def test_abel_failure_is_reported_not_fatal(self):
        doc = run_json("compare", "--series", "geometric", "--x", "-2", "--n", "40")
        assert "abel" not in doc["results"] or doc["results"]["abel"] is None
        assert "abel_error" in doc["results"]

    def test_abel_past_a_finite_stream_is_reported_not_fatal(self):
        doc = run_json(
            "compare", "--series", "bernoulli_power", "--x", "0.5", "--n", "20"
        )
        res = doc["results"]
        assert "61 terms" in res["abel_error"]
        assert {"value", "cesaro", "euler"} <= res.keys()

    def test_comparison_numeric_error_is_reported_not_fatal(self, tmp_path):
        # The partial sums overflow from s_1 on, so the Cesaro mean fails;
        # the chi sum and the Euler mean stay finite.
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"coefficients": [1e308, 1e308, -1e308, -1e308]}))
        doc = run_json(
            "sum", "--series", "custom", "--file", str(p), "--n", "3",
            "--compare", "cesaro,euler",
        )
        res = doc["results"]
        assert res["value"] == 1.1111111111111112e308
        assert res["euler"] == 1.25e308
        assert "cesaro" not in res
        assert "overflow" in res["cesaro_error"]

    def test_comparison_overflow_is_reported_not_fatal(self, tmp_path):
        # a_1 = 1e200 and a_2 = 1e400: the term stream raises OverflowError
        # in both methods, while the chi sum of the rational form is 1.0.
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"coefficients": [1.0, 0.0, 0.0], "x": 1e200}))
        doc = run_json(
            "sum", "--series", "custom", "--file", str(p), "--n", "2",
            "--compare", "cesaro,euler",
        )
        res = doc["results"]
        assert res["value"] == 1.0
        assert {"cesaro_error", "euler_error"} <= res.keys()
        assert not {"cesaro", "euler"} & res.keys()

    def test_terms_past_double_range_name_their_index(self):
        # 2**1024 is past double range; the chi sum is exact and finite.
        doc = run_json("compare", "--series", "geometric", "--x", "2", "--n", "1100")
        res = doc["results"]
        assert res["cesaro_error"] == res["euler_error"] == (
            "non-finite term at index 1024"
        )
        assert res["value"] == 1.5518486453371747e94

    def test_abel_reads_past_a_run_of_zero_coefficients(self, tmp_path):
        # The Abel sum of 1 + 5 r**3 is 6; stopping at the zero coefficients
        # gave 1.0.
        p = tmp_path / "z.json"
        p.write_text(json.dumps({"coefficients": [1, 0, 0, 5]}))
        res = run_json("compare", "--series", "custom", "--file", str(p),
                       "--n", "100")["results"]
        assert res["abel"] == pytest.approx(6.0, abs=1e-3)

    def test_abel_extrapolation_past_double_range_is_an_error(self, tmp_path):
        # Both radius values are finite; their extrapolation is not.
        p = tmp_path / "a.json"
        p.write_text(json.dumps({"coefficients": [1.7e308] + [0.0098e308] * 10}))
        res = run_json("compare", "--series", "custom", "--file", str(p),
                       "--n", "10")["results"]
        assert "abel" not in res
        assert "leaves double range" in res["abel_error"]

    def test_unknown_method(self):
        code, _ = run_cli(
            "sum", "--series", "grandi", "--n", "10", "--compare", "borel"
        )
        assert code == EXIT_USAGE


class TestTableCommand:
    def test_default_reproduces_reference_cells(self):
        doc = run_json("table")
        rows = {str(r[0]): r[1:] for r in doc["rows"]["data"]}
        header = doc["rows"]["header"]
        ix1 = header.index("x=1") - 1
        ixm1 = header.index("x=-1") - 1
        assert rows["30"][ix1] == pytest.approx(1.6425, abs=1e-4)
        assert rows["20"][ixm1] == pytest.approx(0.6407, abs=1e-4)
        assert rows["exact"][ix1] == pytest.approx(1.6449, abs=1e-4)

    def test_zero_column_is_one(self):
        doc = run_json("table")
        ix0 = doc["rows"]["header"].index("x=0") - 1
        for row in doc["rows"]["data"]:
            assert row[1:][ix0] == pytest.approx(1.0, rel=1e-12)

    def test_exact_row_is_the_generating_function(self):
        xs = (-1.0, -0.7, 1e-310, 0.2, 0.5, 1.0)
        x_list = "--x-list=" + ",".join(map(repr, xs))  # "=" lets it start with "-"
        doc = run_json("table", x_list, "--n-list", "20")
        exact = doc["rows"]["data"][-1]
        assert exact[0] == "exact"
        assert exact[1:] == [bernoulli_gen_fn(x) for x in xs]

    def test_exact_row_near_zero(self):
        code, text = run_cli(
            "--format", "csv", "table", "--x-list", "1e-310,0.5", "--n-list", "20"
        )
        assert code == EXIT_OK
        assert text.splitlines()[-1].startswith("exact,1.0,")

    def test_window_enforced(self, capsys):
        code, _ = run_cli("table", "--n-list", "65")
        assert code == EXIT_USAGE
        assert "k=60" in capsys.readouterr().err


class TestKappaCommand:
    def test_default_tol(self):
        doc = run_json("kappa")
        assert round(doc["results"]["kappa"], 4) == 3.5911

    def test_explicit_tol(self):
        doc = run_json("--tol", "1e-4", "kappa")
        assert doc["results"]["kappa"] == pytest.approx(3.5911, abs=1e-3)


class TestWeightsCommand:
    def test_n2(self):
        doc = run_json("weights", "--n", "2")
        data = doc["rows"]["data"]
        assert [r[1] for r in data] == [1.0, 1.0, 0.5]
        assert [r[2] for r in data] == [0.0, 0.5, 0.5]
        assert doc["results"]["row_sum"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 20, 1000])
    def test_results_are_the_toeplitz_diagnostics(self, n):
        doc = run_json("weights", "--n", str(n))
        assert doc["results"] == asdict(verify_toeplitz(averaging_row(n)))

    def test_n1(self):
        doc = run_json("weights", "--n", "1")
        assert [r[1] for r in doc["rows"]["data"]] == [1.0, 1.0]

    def test_n1000_first_moment(self):
        doc = run_json("weights", "--n", "1000")
        import math

        moment = math.fsum(k * row[1] for k, row in enumerate(doc["rows"]["data"]))
        assert abs(moment - 1000) <= 1e-9

    def test_invalid_n_exit_2(self):
        code, _ = run_cli("weights", "--n", "0")
        assert code == EXIT_USAGE


class TestErrorCommand:
    def test_geometric(self):
        doc = run_json("error", "--series", "geometric", "--x", "-2", "--n", "40")
        res = doc["results"]
        assert res["predicted_error"] == pytest.approx(0.0037037, abs=1e-7)
        assert res["observed_error"] == pytest.approx(0.0037, abs=5e-5)
        assert res["ratio"] == pytest.approx(1.0, abs=0.02)

    def test_series_without_curvature(self):
        code, _ = run_cli("error", "--series", "alt_log", "--n", "40")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv, message",
        [
            # f'' = 2 / (1 - x)**3 leaves double range at this x.
            (
                ("--series", "geometric", "--x", "1e300", "--n", "3"),
                "series 'geometric' has no finite second derivative at x = 1e+300",
            ),
            # The pole of log(1 + x).
            (
                ("--series", "log1p_taylor", "--x", "-1", "--n", "3"),
                "series 'log1p_taylor' has no finite second derivative at x = -1.0",
            ),
            # An x, but no f'' carried at any x.
            (
                ("--series", "bernoulli_power", "--x", "0.5", "--n", "3"),
                "series 'bernoulli_power' carries no closed-form second derivative",
            ),
            # Where the sweep would fail first (its sum overflows at order 2,
            # or needs terms past B_60), the message still names the
            # predictor.
            (
                ("--series", "geometric", "--x", "1e200", "--n", "2"),
                "series 'geometric' has no finite second derivative at x = 1e+200",
            ),
            (
                ("--series", "bernoulli_power", "--x", "0.5", "--n", "100"),
                "series 'bernoulli_power' carries no closed-form second derivative",
            ),
        ],
        ids=[
            "geometric-overflow", "log1p-pole", "bernoulli_power",
            "geometric-sum-overflow", "bernoulli_power-past-its-terms",
        ],
    )
    def test_unavailable_predictor_says_why(self, capsys, argv, message):
        code, _ = run_cli("error", *argv)
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"error: {message}; the predictor is unavailable\n"

    def test_matches_sum_near_boundary(self):
        # Double precision cancels here (terms near 1e80, result 0.22);
        # error and sum share the escalating evaluation.
        argv = ("--series", "geometric", "--x", "-3.5", "--n", "400")
        err = run_json("error", *argv)["results"]
        value = run_json("sum", *argv)["results"]["value"]
        assert err["approximant"] == value == 0.22198098326936083
        assert err["observed_error"] == pytest.approx(1 / 4.5 - value, rel=1e-15)


class TestFormats:
    def test_csv_has_header_and_rows(self):
        code, text = run_cli(
            "--format", "csv", "sum", "--series", "grandi", "--n-grid", "10,20,40"
        )
        assert code == EXIT_OK
        lines = text.strip().splitlines()
        assert lines[0] == "n,approximant"
        assert len(lines) == 4

    def test_csv_round_trips(self):
        _, text = run_cli("--format", "csv", "sum", "--series", "grandi", "--n", "64")
        from chisum import catalog_lookup, chi_sum

        value = float(text.strip().splitlines()[1].split(",")[1])
        assert value == chi_sum(catalog_lookup("grandi"), 64)

    def test_text_format_mentions_value(self):
        code, text = run_cli("sum", "--series", "grandi", "--n", "10")
        assert code == EXIT_OK
        assert "value" in text

    def test_text_format_prints_verdict(self):
        code, text = run_cli("sum", "--series", "geometric", "--x", "-2",
                             "--n-grid", "10,20,40,80")
        assert code == EXIT_OK
        assert text.endswith("verdict = converged\n")

    def test_json_is_single_document(self):
        _, text = run_cli("--format", "json", "kappa")
        json.loads(text)


class TestSignedValues:
    # A value that starts with a minus sign is the option's value, whether
    # or not argparse would take it for a negative number, and written
    # apart from its option or joined by "=".
    @pytest.mark.parametrize("joined", [False, True])
    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["sum", "--series", "geometric", "--x", "-1e-3", "--n", "10"],
             [["n", "approximant"], ["10", "0.9990008992805037"]]),
            (["table", "--x-list", "-1,0.5", "--n-list", "20"],
             [["n", "x=-1", "x=0.5"], ["20", "0.6406603293386889", "1.2882097226904177"],
              ["exact", "0.6449340668482506", "1.2898681336965012"]]),
        ],
        ids=["x", "x-list"],
    )
    def test_value_is_read(self, argv, joined, rows):
        if joined:
            i = next(i for i, a in enumerate(argv) if a.startswith("-") and a[1:2].isdigit())
            argv = argv[: i - 1] + [f"{argv[i - 1]}={argv[i]}"] + argv[i + 1:]
        code, text = run_cli("--format", "csv", *argv)
        assert code == EXIT_OK
        assert [line.split(",") for line in text.splitlines()] == rows

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["table", "--n-list", "-1,20"], "error: need n >= 1, got -1"),
            (["sum", "--series", "grandi", "--n-grid", "-5,10"],
             "error: need n >= 1, got -5"),
        ],
        ids=["n-list", "n-grid"],
    )
    def test_negative_order_list_is_a_domain_error(self, capsys, argv, message):
        # The list reaches the order check, which names the bad order.
        code, _ = run_cli(*argv)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.strip() == message

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--series", "geometric", "--x", "--n", "10"],
            ["sum", "--series", "geometric", "--x", "-inf", "--n", "10"],
            ["sum", "--series", "grandi", "--n", "-1e3"],
        ],
        ids=["option-after-x", "not-a-number-form", "other-option"],
    )
    def test_other_argparse_errors_stay(self, capsys, argv):
        code, _ = run_cli(*argv)
        assert code == EXIT_USAGE
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--x-l", "-1,0.5", "--n-list", "20"],
            ["table", "--x-l=-1,0.5", "--n-list", "20"],
        ],
        ids=["apart", "joined"],
    )
    def test_abbreviation_is_refused_either_way(self, capsys, argv):
        # No parser takes an abbreviated option, so a signed value reads
        # the same written apart from its option or joined by "=".
        code, _ = run_cli(*argv)
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --x-l" in capsys.readouterr().err


def test_module_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(chisum.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "chisum.cli", "--format", "json", "sum",
         "--series", "grandi", "--n", "100"],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert strict_json(done.stdout)["results"]["n"] == 100


# Inputs for the CLI fuzz test.
_NUMBER_TEXT = st.one_of(
    st.sampled_from(["abc", "nan", "inf", "-inf", "", "1e400", "-3.5", "0"]),
    st.floats().map(repr),
)
_ORDER_TEXT = st.integers(-2, 300).map(str)
_JSON_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)
)
_DOCUMENT = st.one_of(
    st.binary(max_size=60),
    st.recursive(
        _JSON_SCALAR,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=5), inner, max_size=4),
        max_leaves=8,
    ).map(lambda doc: json.dumps(doc).encode()),
    st.fixed_dictionaries(
        {"coefficients": st.lists(_JSON_SCALAR, max_size=8)},
        optional={"x": _JSON_SCALAR, "exact": _JSON_SCALAR},
    ).map(lambda doc: json.dumps(doc).encode()),
)


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(["sum", "compare", "error", "table", "kappa", "weights"])
    )
    argv = ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if command == "kappa" and draw(st.booleans()):
        argv += ["--tol=" + draw(_NUMBER_TEXT)]
    argv.append(command)
    if command == "kappa":
        return argv
    if command == "weights":
        return argv + ["--n", draw(_ORDER_TEXT)]
    if command == "table":
        if draw(st.booleans()):
            orders = draw(st.lists(_ORDER_TEXT, min_size=1, max_size=3))
            argv += ["--n-list", ",".join(orders)]
        if draw(st.booleans()):
            points = draw(st.lists(_NUMBER_TEXT, min_size=1, max_size=3))
            argv += ["--x-list", ",".join(points)]
        return argv
    series = draw(st.sampled_from(CATALOG_NAMES + ("nope",)))
    argv += ["--series", series]
    if draw(st.booleans()):
        argv.append("--x=" + draw(_NUMBER_TEXT))
    if series == "custom" and draw(st.booleans()):
        argv += ["--file", "{file}"]
    summing = command in ("sum", "compare")
    if summing and draw(st.booleans()):
        orders = draw(st.lists(_ORDER_TEXT, min_size=1, max_size=4))
        argv += ["--n-grid", ",".join(orders)]
    elif draw(st.integers(0, 9)):
        argv += ["--n", draw(_ORDER_TEXT)]
    if summing:
        if draw(st.booleans()):
            argv.append("--accelerate")
        methods = ["cesaro", "euler", "abel", "borel"]
        chosen = draw(st.lists(st.sampled_from(methods), max_size=3, unique=True))
        if chosen:
            argv += ["--compare", ",".join(chosen)]
    return argv


class TestFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=_argv(), document=_DOCUMENT)
    def test_exits_with_a_documented_code(self, tmp_path, argv, document):
        path = tmp_path / "series.json"
        path.write_bytes(document)
        argv = [str(path) if a == "{file}" else a for a in argv]
        out = io.StringIO()
        code = main(argv, out=out)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_NUMERIC)
        if code == EXIT_OK and argv[1] == "json":
            strict_json(out.getvalue())
