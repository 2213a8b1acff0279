"""Command-line interface.

Subcommands: sum, compare (sum with classical methods), table, kappa,
weights, error.  Output formats: text (human), json (one document), csv
(header row plus data rows); numbers in json/csv round-trip at full
double precision.

Exit codes: 0 ok, 2 usage or domain error, 3 input parse error,
4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys
from functools import partial
from typing import Optional, Sequence

# Unused: bench/run.py::cli_probe times both imports under chisum.cli, and
# raises KeyError when one of them is missing, so they stay, and stay in
# pyproject.toml's dependencies, until the probe reads 0.0 s for a module
# chisum.cli does not load.  The library itself imports neither.
import mpmath  # noqa: F401
import numpy  # noqa: F401

# Neither is called here: chisum.summation.chi_sweep decides every error
# number a command prints.  bench/spans.py wraps both under this module's
# name, so the bindings stay.
from .error_model import observed_error, predicted_error  # noqa: F401
from .exceptions import DomainError, SeriesFormatError
from .series import CATALOG_NAMES, catalog_lookup, load_custom
from .special import solve_kappa
from .summation import (
    abel_estimate,
    cesaro_mean,
    chi_sum,
    chi_sweep,
    euler_transform,
)
from .weights import averaging_row, chi_row, verify_toeplitz

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

_TABLE_DEFAULT_N = (20, 25, 30)
_TABLE_DEFAULT_X = (-1.0, -0.7, -0.2, 0.0, 0.2, 0.7, 1.0)
_ABEL_DEFAULT_RADII = (0.9, 0.99, 0.999)

# Options whose value may start with a minus sign.  argparse takes a value
# such as -1e-3 or -1,0.5 for an option, since only a plain negative
# number passes its test, so _signed_values joins it to its option.  No
# parser takes an abbreviated option (build_parser), so these are the
# only names it needs to join.
_SIGNED = ("--x", "--x-list", "--n-list", "--n-grid")

# Classical methods for --compare, each evaluated at the last grid order.
# The lambdas look the functions up when called, so wrappers installed on
# this module's names see the calls.
_COMPARE = {
    "cesaro": lambda spec, n: cesaro_mean(spec, n),
    "euler": lambda spec, n: euler_transform(spec, n),
    "abel": lambda spec, n: abel_estimate(
        spec, _ABEL_DEFAULT_RADII, extrapolate=True
    ),
}


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "json":
        json.dump(record, out, indent=2)
        out.write("\n")
    elif fmt == "csv":
        _emit_csv(record, out)
    else:
        _emit_text(record, out)


def _emit_csv(record: dict, out) -> None:
    rows = record.get("rows")
    writer = csv.writer(out, lineterminator="\n")
    if rows:
        writer.writerow(rows["header"])
        for row in rows["data"]:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    else:
        flat = dict(record.get("inputs", {}))
        flat.update(record.get("results", {}))
        keys = [k for k, v in flat.items() if not isinstance(v, (list, dict))]
        writer.writerow(keys)
        writer.writerow(
            [repr(flat[k]) if isinstance(flat[k], float) else flat[k] for k in keys]
        )


def _emit_text(record: dict, out) -> None:
    print(f"command: {record['command']}", file=out)
    for k, v in record.get("inputs", {}).items():
        print(f"  {k} = {v}", file=out)
    rows = record.get("rows")
    if rows:
        header = rows["header"]
        print("  " + "  ".join(str(h) for h in header), file=out)
        for row in rows["data"]:
            cells = (f"{v:.10g}" if isinstance(v, float) else str(v) for v in row)
            print("  " + "  ".join(cells), file=out)
    for k, v in record.get("results", {}).items():
        print(f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}", file=out)
    if record.get("verdict") is not None:
        print(f"verdict = {record['verdict']}", file=out)


def _finite(text: str) -> float:
    """A number option, which JSON output echoes: nan and inf are errors."""
    if math.isfinite(value := float(text)):
        return value
    raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")


def _parse_list(text: str, kind: type) -> tuple:
    try:
        return tuple(kind(s) for s in text.split(","))
    except ValueError as exc:
        what = "integer" if kind is int else "number"
        raise DomainError(f"bad {what} list {text!r}") from exc


def _signed_values(argv: Sequence[str]) -> list[str]:
    """argv with each _SIGNED option followed by a minus sign and a digit
    or point written as one OPTION=VALUE argument; every other argument
    is left for argparse to read, or to reject, as it stands."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED and re.match(r"-[0-9.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _resolve_series(args):
    if args.series == "custom":
        if not args.file:
            raise DomainError("custom series needs --file")
        return load_custom(args.file)
    return catalog_lookup(args.series, x=args.x)


def _cmd_sum(args) -> dict:
    methods = [m for m in args.compare.split(",") if m]
    unknown = [m for m in methods if m not in _COMPARE]
    if unknown:
        raise DomainError(f"unknown comparison methods {unknown}")
    if args.n is None and not args.n_grid:
        raise DomainError("need --n or --n-grid")
    spec = _resolve_series(args)
    grid = _parse_list(args.n_grid, int) if args.n_grid else (args.n,)
    result = chi_sweep(spec, grid, accelerate=args.accelerate)
    n_last = grid[-1]

    results = {"value": result.value, "n": n_last}
    if result.accelerated:
        results["accelerated"] = True
    if spec.exact_value is not None:
        results["exact"] = spec.exact_value
    err = result.error
    for key, value in (("observed_error", err.observed),
                       ("predicted_error", err.predicted), ("error_ratio", err.ratio)):
        if value is not None:
            results[key] = value
    for method in methods:
        try:
            results[method] = _COMPARE[method](spec, n_last)
        except ArithmeticError as exc:  # AbelRadiusError or NumericError
            results[f"{method}_error"] = str(exc)

    return {
        "command": "sum",
        "inputs": {
            "series": args.series,
            **({"x": args.x} if args.x is not None else {}),
            "n_grid": list(grid),
        },
        "results": results,
        "verdict": result.verdict,
        "rows": {
            "header": ["n", "approximant"],
            "data": [[n, v] for n, v in zip(grid, result.approximants)],
        },
    }


def _cmd_table(args) -> dict:
    n_list = _parse_list(args.n_list, int) if args.n_list else _TABLE_DEFAULT_N
    x_list = _parse_list(args.x_list, float) if args.x_list else _TABLE_DEFAULT_X
    header = ["n"] + [f"x={x:g}" for x in x_list]
    specs = [catalog_lookup("bernoulli_power", x=x) for x in x_list]
    data = [[n] + [chi_sum(spec, n) for spec in specs] for n in n_list]
    data.append(["exact"] + [spec.exact_value for spec in specs])
    return {
        "command": "table",
        "inputs": {"n_list": list(n_list), "x_list": list(x_list)},
        "results": {},
        "rows": {"header": header, "data": data},
    }


def _cmd_kappa(args) -> dict:
    value = solve_kappa(args.tol)
    return {
        "command": "kappa",
        "inputs": {"tol": args.tol},
        "results": {"kappa": value},
    }


def _cmd_weights(args) -> dict:
    w = chi_row(args.n)
    avg = averaging_row(args.n)
    return {
        "command": "weights",
        "inputs": {"n": args.n},
        "results": dataclasses.asdict(verify_toeplitz(avg)),
        "rows": {
            "header": ["k", "chi", "averaging"],
            # Both rows end where the weights underflow; the weights of
            # the rest of the n + 1 printed entries are zero.
            "data": [[k, w[k], avg[k]] if k < len(w) else [k, 0.0, 0.0]
                     for k in range(args.n + 1)],
        },
    }


def _cmd_error(args) -> dict:
    spec = _resolve_series(args)
    # Before the sweep, whose own failure would hide why there is no
    # predictor: geometric at x = 1e200 would exit 4 on an overflow at
    # order 2, and bernoulli_power at n = 100 on its 60 terms.
    if spec.second_derivative is None or spec.x is None:
        # geometric and log1p_taylor carry f'' in closed form, and lack it
        # only where it is not finite: at the pole, or past double range.
        if spec.name in ("geometric", "log1p_taylor"):
            why = f"has no finite second derivative at x = {spec.x!r}"
        else:
            why = "carries no closed-form second derivative"
        raise DomainError(f"series {args.series!r} {why}; the predictor is unavailable")
    result = chi_sweep(spec, (args.n,))
    err = result.error
    results = {
        "predicted_error": err.predicted,
        "n": args.n,
        "approximant": result.approximants[0],
    }
    if err.observed is not None:
        results["observed_error"] = err.observed
    if err.ratio is not None:
        results["ratio"] = err.ratio
    return {
        "command": "error",
        "inputs": {
            "series": args.series,
            **({"x": args.x} if args.x is not None else {}),
            "n": args.n,
        },
        "results": results,
    }


def _add_series_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--series", required=True, help=f"one of {CATALOG_NAMES}")
    p.add_argument("--x", type=_finite, default=None, help="series parameter")
    p.add_argument("--file", default=None, help="custom series JSON file")


def _add_sum_parser(sub, name: str, help: str, compare: str) -> None:
    p = sub.add_parser(name, help=help)
    _add_series_args(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-grid", default=None, help="comma-separated orders")
    p.add_argument("--accelerate", action="store_true")
    p.add_argument(
        "--compare",
        default=compare,
        help=f"comma-separated classical methods from {tuple(_COMPARE)}",
    )
    p.set_defaults(handler=_cmd_sum)


def build_parser() -> argparse.ArgumentParser:
    strict = partial(argparse.ArgumentParser, allow_abbrev=False)
    parser = strict(
        prog="chisum",
        description="Summation of divergent series by factorial-decay weights.",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    parser.add_argument("--tol", type=_finite, default=1e-10)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    _add_sum_parser(sub, "sum", "chi-sum a series", compare="")
    _add_sum_parser(
        sub,
        "compare",
        "chi-sum with all classical comparison methods",
        compare=",".join(_COMPARE),
    )

    p_table = sub.add_parser(
        "table", help="Bernoulli power-series table against its generating fn"
    )
    p_table.add_argument("--n-list", default=None)
    p_table.add_argument("--x-list", default=None)
    p_table.set_defaults(handler=_cmd_table)

    p_kappa = sub.add_parser("kappa", help="summability boundary constant")
    p_kappa.set_defaults(handler=_cmd_kappa)

    p_w = sub.add_parser("weights", help="weight and averaging rows at order n")
    p_w.add_argument("--n", type=int, required=True)
    p_w.set_defaults(handler=_cmd_weights)

    p_err = sub.add_parser("error", help="predicted vs observed error")
    _add_series_args(p_err)
    p_err.add_argument("--n", type=int, required=True)
    p_err.set_defaults(handler=_cmd_error)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(
            _signed_values(sys.argv[1:] if argv is None else argv)
        )
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        _emit(args.handler(args), args.format, out)
    except SeriesFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # NumericError, or a float overflow
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
