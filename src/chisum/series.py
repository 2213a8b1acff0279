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
from itertools import chain, count, cycle, islice, repeat
from operator import mul
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

from .exceptions import DomainError, SeriesFormatError, UnknownSeriesError, _order

from .special import bernoulli_gen_fn, bernoulli_numbers, harmonic_numbers, rounded_dot

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

    terms() returns a fresh, unbounded iterator over a_0, a_1, ...; a
    term past double range is +-inf or nan, never an exception, and a
    series with finitely many terms defined raises DomainError past them.
    exact_value, when present, is the sanctioned assignment (ordinary
    limit or antilimit).  second_derivative is f''(x) of the generating
    function, used by the error predictor; it is None where it leaves
    double range.  rational, when present, holds parts (x, c, top, end)
    with a_k = sum c(k) * x**k, c(k) a rational given as a pair of ints
    (numerator, denominator > 0), not necessarily in lowest terms, top a
    float at least every |c(k)|, and c(k) = 0 from order end on (end is
    math.inf when the coefficients never end, 0 for an all-zero part), so
    terms can be bounded without reading them.  A constant c is a
    _Constant, which the summation kernel reads once, not per term.
    """

    name: str
    terms: Callable[[], Iterator[float]]
    exact_value: Optional[float] = None
    second_derivative: Optional[float] = None
    x: Optional[float] = None
    rational: Optional[
        tuple[tuple[float, Callable[[int], tuple[int, int]], float, float], ...]
    ] = field(default=None, repr=False)
    asymptotic_only: bool = False


class _Constant(tuple):
    """A constant coefficient (numerator, denominator): the pair itself,
    and the function k -> pair of a rational part."""

    __slots__ = ()

    def __call__(self, k: int) -> _Constant:
        return self


def _unless_overflow(value: Callable[[], float]) -> Optional[float]:
    """value(), or None where it leaves double range."""
    try:
        return value()
    except OverflowError:
        return None


def _powers(x: float) -> Iterator[float]:
    """x**k for k = 0, 1, ... (not a running product, which rounds
    differently); past double range, copysign(inf, x)**k, signs intact."""
    try:
        for k in count():
            yield x**k
    except OverflowError:
        yield from map(pow, repeat(math.copysign(math.inf, x)), count(k))


def _geometric(x: float) -> SeriesSpec:
    return SeriesSpec(
        name="geometric",
        terms=lambda: _powers(x),
        exact_value=1.0 / (1.0 - x) if x < 1.0 else None,
        second_derivative=(
            _unless_overflow(lambda: 2.0 / (1.0 - x) ** 3) if x != 1.0 else None
        ),
        x=x,
        rational=((x, _Constant((1, 1)), 1.0, math.inf),),
    )


def _grandi(name: str = "grandi") -> SeriesSpec:
    # The Grandi series is geometric at x = -1; the cycle is cheaper per
    # term than x**k.
    return replace(_geometric(-1.0), name=name, terms=lambda: cycle((1.0, -1.0)))


def _alt_harmonic_numbers() -> SeriesSpec:
    return SeriesSpec(
        name="alt_harmonic_numbers",
        terms=lambda: map(mul, cycle((1.0, -1.0)), harmonic_numbers()),
        exact_value=math.log(2.0) / 2.0,
    )


def _alt_log() -> SeriesSpec:
    return SeriesSpec(
        name="alt_log",
        terms=lambda: map(mul, cycle((1.0, -1.0)), map(math.log, count(1.0))),
        exact_value=0.5 * math.log(2.0 / math.pi),
    )


def _log1p_taylor(x: float) -> SeriesSpec:
    def terms() -> Iterator[float]:
        yield 0.0
        for k, p in zip(count(1), islice(_powers(x), 1, None)):
            yield (p if k & 1 else -p) / k

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
            (x, lambda k: (1 if k & 1 else -1, k) if k else (0, 1), 1.0, math.inf),
        ),
    )


def _bernoulli_power(x: float) -> SeriesSpec:
    table = bernoulli_numbers(60)

    def terms() -> Iterator[float]:
        yield from map(mul, table.values, _powers(x))
        raise DomainError(f"bernoulli_power terms available up to k={len(table) - 1}")

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
    # Every coefficient from `end` on is zero, and the largest |c(k)|
    # bounds the others.
    end = len(coeffs) - next(
        (i for i, c in enumerate(reversed(coeffs)) if c), len(coeffs)
    )
    top = max(map(abs, coeffs), default=0.0)

    return SeriesSpec(
        name="custom",
        terms=lambda: chain(map(mul, coeffs, _powers(xv)), repeat(0.0)),
        exact_value=None if exact is None else float(exact),
        x=None if x is None else xv,
        # Only finite numbers have a rational form, as in combine.
        rational=(
            (
                (
                    xv,
                    lambda k: (
                        coeffs[k].as_integer_ratio() if k < len(coeffs) else (0, 1)
                    ),
                    top,
                    end,
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
    sum; once one is not finite (+-inf or nan), so is every later one."""
    acc = 0.0
    comp = 0.0
    for a in spec.terms():
        y = a - comp
        t = acc + y
        comp = (t - acc) - y
        acc = t
        yield acc


def partial_sums(spec: SeriesSpec, n: int) -> tuple[float, ...]:
    """Compensated prefix sums s_0..s_n, not finite from one past range
    on; a non-integer n, or n < 0, raises DomainError."""
    return tuple(islice(_running_sums(spec), _order(n, 0) + 1))


def _product_up(a: float, b: float) -> float:
    """a * b rounded up, for a, b >= 0: never below the exact product,
    even where it underflows, and 0.0 only when a or b is."""
    return math.nextafter(a * b, math.inf) if a and b else 0.0


def combine(specs: Sequence[SeriesSpec], coefficients: Sequence[float]) -> SeriesSpec:
    """Termwise linear combination of series: its stream zips the inputs'
    streams; term k is the fsum of the weighted terms k.  Where fsum
    overflows on finite weighted terms it is their exact sum, rounded
    once (+-inf past double range); where a weighted term is not finite
    it is their plain sum, +-inf or nan.

    The exact value is the same combination when every input carries
    one and it is in double range, and so is the rational form (the
    inputs' parts scaled by finite coefficients); otherwise each is unset.
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
            except (OverflowError, ValueError):  # past range, or inf - inf
                weighted = tuple(map(mul, coeffs, ts))
                t = (
                    rounded_dot(weighted, repeat(1))
                    if all(map(math.isfinite, weighted))
                    else sum(weighted)
                )
            yield t

    exact = None
    if all(s.exact_value is not None for s in specs):
        weighted = [c * s.exact_value for c, s in pairs]
        # A weighted value past range would give inf, or inf - inf in fsum.
        if not any(map(math.isinf, weighted)):
            exact = _unless_overflow(lambda: math.fsum(weighted))

    rational = None
    if all(s.rational for s in specs) and all(map(math.isfinite, coefficients)):
        rational = tuple(
            (
                x,
                # c * part(k): numerators and denominators multiplied.
                _Constant(map(mul, c.as_integer_ratio(), part))
                if isinstance(part, _Constant)
                else lambda k, f=c.as_integer_ratio(), part=part: (
                    tuple(map(mul, f, part(k)))
                ),
                _product_up(abs(c), top),
                end if c else 0,
            )
            for c, s in pairs
            for x, part, top, end in s.rational
        )

    return SeriesSpec(
        name="combined(" + ",".join(s.name for s in specs) + ")",
        terms=terms,
        exact_value=exact,
        rational=rational,
        asymptotic_only=any(s.asymptotic_only for s in specs),
    )
