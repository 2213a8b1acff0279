"""Series catalog: the term streams exercised throughout the package,
plus user-supplied coefficient series.

A SeriesSpec bundles one term stream, a fresh iterator over a_0, a_1,
... per call, with whatever reference data is known for it: an exact
value (limit or antilimit), the second derivative of the generating
function at the evaluation point (for the asymptotic error predictor),
and, when every term is rational, the exact form the summation engine
uses when double precision cancels out.  Every consumer reads the terms
in order from one stream, so a term that builds on the one before it
(a harmonic number) costs O(1).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, count, cycle, islice, repeat
from operator import mul
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .exceptions import DomainError, SeriesFormatError, UnknownSeriesError

from .special import bernoulli_gen_fn, bernoulli_numbers, harmonic_numbers

# harmonic is not called here, but bench/spans.py wraps it under this
# module's name, so the binding stays.
from .special import harmonic  # noqa: F401

__all__ = [
    "SeriesSpec",
    "CATALOG_NAMES",
    "catalog_lookup",
    "load_custom",
    "partial_sums",
    "combine",
]

@dataclass(frozen=True)
class SeriesSpec:
    """A term stream with optional reference data.

    terms() returns a fresh, unbounded iterator over a_0, a_1, ...; it
    may raise OverflowError at a term past double range, and a series
    with finitely many terms defined raises DomainError past them.
    exact_value, when present, is the sanctioned assignment (ordinary
    limit or antilimit).  second_derivative is f''(x) of the generating
    function, used by the error predictor; it is None where it leaves
    double range.  rational, when present, holds parts (x, c, bound)
    with a_k = sum c(k) * x**k, c(k) rational, and bound(m) a float at
    least sup_{k>=m} |c(k)|, so that the terms past m can be bounded
    without reading them.
    """

    name: str
    terms: Callable[[], Iterator[float]]
    exact_value: Optional[float] = None
    second_derivative: Optional[float] = None
    x: Optional[float] = None
    rational: Optional[
        tuple[tuple[float, Callable[[int], Fraction], Callable[[int], float]], ...]
    ] = field(default=None, repr=False)
    asymptotic_only: bool = False


def _unless_overflow(value: Callable[[], float]) -> Optional[float]:
    """value(), or None where it leaves double range."""
    try:
        return value()
    except OverflowError:
        return None


def _geometric(x: float) -> SeriesSpec:
    return SeriesSpec(
        name="geometric",
        # x**k, not a running product, which rounds differently.
        terms=lambda: (x**k for k in count()),
        exact_value=1.0 / (1.0 - x) if x < 1.0 else None,
        second_derivative=(
            _unless_overflow(lambda: 2.0 / (1.0 - x) ** 3) if x != 1.0 else None
        ),
        x=x,
        rational=((x, lambda k: 1, lambda m: 1.0),),
    )


def _grandi(name: str = "grandi") -> SeriesSpec:
    # The Grandi series is geometric at x = -1; the cycle is cheaper per
    # term than x**k.
    return replace(_geometric(-1.0), name=name, terms=lambda: cycle((1.0, -1.0)))


def _alt_harmonic_numbers() -> SeriesSpec:
    return SeriesSpec(
        name="alt_harmonic_numbers",
        terms=lambda: (
            (-1.0 if k & 1 else 1.0) * h for k, h in enumerate(harmonic_numbers())
        ),
        exact_value=math.log(2.0) / 2.0,
    )


def _alt_log() -> SeriesSpec:
    return SeriesSpec(
        name="alt_log",
        terms=lambda: ((-1.0 if k & 1 else 1.0) * math.log(1.0 + k) for k in count()),
        exact_value=0.5 * math.log(2.0 / math.pi),
    )


def _log1p_taylor(x: float) -> SeriesSpec:
    def terms() -> Iterator[float]:
        yield 0.0
        for k in count(1):
            yield (-(x**k) if k & 1 == 0 else x**k) / k

    return SeriesSpec(
        name="log1p_taylor",
        terms=terms,
        exact_value=math.log1p(x) if x > -1.0 else None,
        second_derivative=(
            _unless_overflow(lambda: -1.0 / (1.0 + x) ** 2) if x != -1.0 else None
        ),
        x=x,
        # |c(k)| = 1/k <= 1.
        rational=(
            (x, lambda k: Fraction((-1) ** (k + 1), k) if k else 0, lambda m: 1.0),
        ),
    )


def _bernoulli_power(x: float) -> SeriesSpec:
    table = bernoulli_numbers(60)

    def terms() -> Iterator[float]:
        for k, b in enumerate(table.values):
            yield b * x**k
        raise DomainError(
            f"bernoulli_power terms available up to k={len(table) - 1}"
        )

    return SeriesSpec(
        name="bernoulli_power",
        terms=terms,
        exact_value=bernoulli_gen_fn(x),
        x=x,
        asymptotic_only=True,
    )


def _custom(
    coefficients: Sequence[float],
    x: Optional[float] = None,
    exact: Optional[float] = None,
) -> SeriesSpec:
    coeffs = tuple(float(c) for c in coefficients)
    xv = 1.0 if x is None else float(x)

    return SeriesSpec(
        name="custom",
        terms=lambda: chain((c * xv**k for k, c in enumerate(coeffs)), repeat(0.0)),
        exact_value=None if exact is None else float(exact),
        x=None if x is None else xv,
        # Only finite numbers have a rational form, as in combine.
        rational=(
            (
                (
                    xv,
                    lambda k: Fraction(coeffs[k]) if k < len(coeffs) else 0,
                    lambda m: max(map(abs, coeffs[m:]), default=0.0),
                ),
            )
            if all(map(math.isfinite, (xv, *coeffs)))
            else None
        ),
    )


# name -> (the parameters it needs, builder from the lookup's parameters)
_CATALOG: dict[str, tuple[tuple[str, ...], Callable[[dict], SeriesSpec]]] = {
    "geometric": (("x",), lambda p: _geometric(float(p["x"]))),
    "grandi": ((), lambda p: _grandi()),
    # Same term stream as the Grandi series, kept as its own name.
    "alternating_unit": ((), lambda p: _grandi(name="alternating_unit")),
    "alt_harmonic_numbers": ((), lambda p: _alt_harmonic_numbers()),
    "alt_log": ((), lambda p: _alt_log()),
    "log1p_taylor": (("x",), lambda p: _log1p_taylor(float(p["x"]))),
    "bernoulli_power": (("x",), lambda p: _bernoulli_power(float(p["x"]))),
    "custom": (
        ("coefficients",),
        lambda p: _custom(p["coefficients"], x=p.get("x"), exact=p.get("exact")),
    ),
}

CATALOG_NAMES = tuple(_CATALOG)


def catalog_lookup(name: str, **params) -> SeriesSpec:
    """Look up a catalog series by name.

    Parameterized entries take ``x``; ``custom`` takes ``coefficients``
    plus optional ``x`` and ``exact``.  Unknown names raise
    UnknownSeriesError; a missing parameter, or an x that is not finite,
    raises DomainError.  An evaluation point outside a series' validity
    simply leaves exact_value unset; it is not an error.
    """
    if name not in _CATALOG:
        raise UnknownSeriesError(f"unknown series {name!r}; known: {CATALOG_NAMES}")
    needs, build = _CATALOG[name]
    missing = [p for p in needs if params.get(p) is None]
    if missing:
        raise DomainError(f"series {name!r} needs {', '.join(missing)}")
    if "x" in needs and not math.isfinite(float(params["x"])):
        raise DomainError(f"series {name!r} needs a finite x, got {params['x']!r}")
    return build(params)


def _number(value, what: str) -> float:
    """A JSON number as a finite float; booleans are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SeriesFormatError(f"{what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SeriesFormatError(f"{what} must be finite, got {value!r}")
    return out


def load_custom(source) -> SeriesSpec:
    """Build a custom series from a JSON document.

    Accepts a path, a JSON string, or an already-parsed dict with keys
    {"coefficients": [...], "x": number?, "exact": number?}.  Every
    number must be finite, and JSON true/false are not numbers; anything
    else raises SeriesFormatError.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = None
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            try:
                text = Path(source).read_text()
            except (OSError, ValueError) as exc:  # ValueError: not UTF-8
                raise SeriesFormatError(f"cannot read {source}: {exc}") from exc
        else:
            text = source
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise SeriesFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "coefficients" not in doc:
        raise SeriesFormatError('custom series needs a "coefficients" list')
    coeffs = doc["coefficients"]
    if not isinstance(coeffs, list):
        raise SeriesFormatError('"coefficients" must be a list of numbers')
    x, exact = (
        None if doc.get(key) is None else _number(doc[key], f'"{key}"')
        for key in ("x", "exact")
    )
    return _custom(
        [_number(c, "each coefficient") for c in coeffs], x=x, exact=exact
    )


def _running_sums(spec: SeriesSpec) -> Iterator[float]:
    """s_0, s_1, ... with compensated accumulation, one term pulled per
    sum; an OverflowError from the term stream passes through."""
    acc = 0.0
    comp = 0.0
    for a in spec.terms():
        y = a - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        yield acc


def partial_sums(spec: SeriesSpec, n: int) -> tuple[float, ...]:
    """Prefix sums s[k] = a_0 + ... + a_k for k = 0..n, compensated."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    return tuple(islice(_running_sums(spec), n + 1))


def _product_up(a: float, b: float) -> float:
    """a * b rounded up, for a, b >= 0: never below the exact product,
    even where it underflows, and 0.0 only when a or b is."""
    return math.nextafter(a * b, math.inf) if a and b else 0.0


def combine(specs: Sequence[SeriesSpec], coefficients: Sequence[float]) -> SeriesSpec:
    """Termwise linear combination of series: its stream zips the inputs'
    streams, and term k is the fsum of the weighted terms k, or nan where
    they sit at opposite infinities.

    The exact value is the same combination when every input carries
    one, and so is the rational form (the inputs' parts scaled by finite
    coefficients); otherwise each is left unset.
    """
    if len(specs) != len(coefficients):
        raise DomainError(
            f"{len(specs)} series but {len(coefficients)} coefficients"
        )
    if not specs:
        raise DomainError("need at least one series")
    pairs = tuple(zip(coefficients, specs))
    coeffs = tuple(c for c, _ in pairs)

    def terms() -> Iterator[float]:
        for ts in zip(*(s.terms() for _, s in pairs)):
            try:
                t = math.fsum(map(mul, coeffs, ts))
            except ValueError:  # parts at opposite infinities
                t = math.nan
            yield t

    exact = None
    if all(s.exact_value is not None for s in specs):
        exact = math.fsum(c * s.exact_value for c, s in pairs)

    rational = None
    if all(s.rational for s in specs) and all(map(math.isfinite, coefficients)):
        rational = tuple(
            (
                x,
                lambda k, f=Fraction(c), part=part: f * part(k),
                lambda m, a=abs(c), bound=bound: _product_up(a, bound(m)),
            )
            for c, s in pairs
            for x, part, bound in s.rational
        )

    return SeriesSpec(
        name="combined(" + ",".join(s.name for s in specs) + ")",
        terms=terms,
        exact_value=exact,
        rational=rational,
        asymptotic_only=any(s.asymptotic_only for s in specs),
    )
