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
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exceptions import DomainError, SeriesFormatError, UnknownSeriesError, _order

from .special import bernoulli_gen_fn, bernoulli_numbers, harmonic_numbers, rounded_mean

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
    terms can be bounded without reading them.  Each c is one of three
    tuple types: a constant c is a _Constant, which the summation kernel
    reads once, not per term; c(k) = c/k (0 at k = 0) is a _Reciprocal,
    which it can sum from c alone; and a finite list of coefficients is
    a _Table of their pairs, converted once.

    The stream of a series with one part is c(k) times x**k (pow, within
    a few ulps where it is normal, as it is for |x| >= 1, else +-inf)
    carried through monotone roundings only (a product, a quotient, an
    fsum of one term).  So where |x| >= 1 and
    |x| |c(k+1) / c(k)| >= 1 + 2**-40, |a_(k+1)| >= |a_k| or a term is
    not finite; summation._settled_sum relies on this.

    moment_bound, when present, is a function m -> a bound on
    |E_m - A(r)| for every r in (0, 1], where E_m is the (E,1) mean
    sum_{i<=m} b_i P(Bin(m+1, 1/2) > i) of the first m + 1 weighted terms
    b_k = a_k r**k, and A(r) = sum b_k (at r = 1, the series' Abel
    value).  summation.abel_estimate stops by it.  Proof, once for the
    three series that carry one: on the geometric series y**k the mean
    is E_m = (1 - u**(m+1)) / (1 - y) with u = (1 + y) / 2, since
    sum_{i<X} y**i = (1 - y**X) / (1 - y) and E[y**X] = u**(m+1) for X
    of law Bin(m+1, 1/2) (Hardy, Divergent Series, ch. 8); so its error
    is e(y) = u**(m+1) / (2 - 2u).  On y in [-1, 0], u is in [0, 1/2],
    and e and its derivative are nonnegative and grow with u, so
    e <= 2**-(m+1) and 0 <= e' <= (m+2) 2**-(m+1), their values at y = 0.
    - grandi, b_k = (-r)**k: the error is e(-r) <= 2**-(m+1).
    - alt_log, a_k = (-1)**k log(k+1) = int_0^1 ((-1)**k - (-t)**k) dnu(t)
      with dnu = dt / (-ln t) (Frullani): E_m and A are linear, so the
      error is int (e(-r) - e(-rt)) dnu, by the mean value theorem at
      most int r (1 - t) (m+2) 2**-(m+1) dnu <= (m+2) ln 2 2**-(m+1), as
      int_0^1 (1 - t) / (-ln t) dt = ln 2.
    - alt_harmonic_numbers, a_k = (-1)**k H_(k+1), with
      H_(k+1) = int_0^1 (1 - t**(k+1)) / (1 - t) dt: the error is
      int ((e(-r) - e(-rt)) / (1 - t) + e(-rt)) dt, its integrand at most
      (m+2) 2**-(m+1) + 2**-(m+1), so at most (m+3) 2**-(m+1).
    Each bound is of the stream as it is indexed here (a_0 the first
    term), and a replace() that changes the terms keeps it.
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
    moment_bound: Optional[Callable[[int], float]] = field(default=None, repr=False)


class _Constant(tuple):
    """A constant coefficient (numerator, denominator): the pair itself,
    and the function k -> pair of a rational part."""

    __slots__ = ()

    def __call__(self, k: int) -> _Constant:
        return self


class _Reciprocal(tuple):
    """A coefficient c/k for k >= 1, 0 at k = 0, held as the pair
    (numerator, denominator) of c, and the function k -> pair of a
    rational part."""

    __slots__ = ()

    def __call__(self, k: int) -> tuple[int, int]:
        return (self[0], self[1] * k) if k else (0, 1)


def _first_near(pairs: Iterable[tuple[int, tuple[int, int]]], top: float) -> int:
    """The first order k of the pairs (k, c(k)) whose coefficient is
    within about a factor 4 of top, by the bit lengths of its numerator
    and denominator; 0 if there is none.  summation._fixed_bits takes the
    sum's scale from it."""
    lb = math.log2(top) if top else 0.0  # top = 0: every c(k) is 0
    near = (
        k
        for k, (num, den) in pairs
        if num and abs(num).bit_length() - den.bit_length() >= lb - 1
    )
    return next(near, 0)


class _Table(tuple):
    """The coefficients of a truncated part, one pair (numerator,
    denominator) per order, converted once; as the function k -> pair of
    a rational part it gives (0, 1) past its end.  near is _first_near
    over the pairs, for the part's top, found once when the part is
    built: a scan per sum cost 0.4 ms of a 1.3 ms chi_sum for a part
    with one large coefficient at order 1426."""

    def __new__(cls, pairs: Iterable[tuple[int, int]], top: float) -> _Table:
        table = super().__new__(cls, pairs)
        table.near = _first_near(enumerate(table), top)
        return table

    def __call__(self, k: int) -> tuple[int, int]:
        return self[k] if k < len(self) else (0, 1)


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
    return replace(
        _geometric(-1.0),
        name=name,
        terms=lambda: cycle((1.0, -1.0)),
        moment_bound=lambda m: 2.0 ** -(m + 1),
    )


def _alt_harmonic_numbers() -> SeriesSpec:
    return SeriesSpec(
        name="alt_harmonic_numbers",
        terms=lambda: map(mul, cycle((1.0, -1.0)), harmonic_numbers()),
        exact_value=math.log(2.0) / 2.0,
        moment_bound=lambda m: (m + 3) * 2.0 ** -(m + 1),
    )


def _alt_log() -> SeriesSpec:
    return SeriesSpec(
        name="alt_log",
        terms=lambda: map(mul, cycle((1.0, -1.0)), map(math.log, count(1.0))),
        exact_value=0.5 * math.log(2.0 / math.pi),
        moment_bound=lambda m: (m + 2) * math.log(2.0) * 2.0 ** -(m + 1),
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
        # a_k = -(-x)**k / k, and |c(k)| = 1/k <= 1.
        rational=((-x, _Reciprocal((-1, 1)), 1.0, math.inf),),
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
    coeffs = tuple(map(float, coefficients))
    xv = 1.0 if x is None else float(x)
    # Every coefficient from `end` on is zero, and the largest |c(k)|
    # bounds the others.
    end = len(coeffs) - next(
        (i for i, c in enumerate(reversed(coeffs)) if c), len(coeffs)
    )
    top = max(map(abs, coeffs), default=0.0)
    # Only finite numbers have a rational form, as in combine.
    finite = math.isfinite(xv) and all(map(math.isfinite, coeffs))

    return SeriesSpec(
        name="custom",
        terms=lambda: chain(map(mul, coeffs, _powers(xv)), repeat(0.0)),
        exact_value=None if exact is None else float(exact),
        x=None if x is None else xv,
        rational=(
            ((xv, _Table(map(float.as_integer_ratio, coeffs), top), top, end),)
            if finite
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


def _numbers(values: list, what: str) -> list[float]:
    """_number of each value: the list is checked in bulk, and walked one
    value at a time only to name the first bad one."""
    if set(map(type, values)) <= {int, float}:
        try:
            out = list(map(float, values))
        except OverflowError:  # an int past double range
            pass
        else:
            if all(map(math.isfinite, out)):
                return out
    return [_number(v, what) for v in values]


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
    return _custom(_numbers(coeffs, "each coefficient"), x=x, exact=exact)


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


def _scaled_part(part, c: float):
    """The rational part (x, coefficient, top, end) times a finite c: the
    coefficient function k -> c * coefficient(k), with numerators and
    denominators multiplied (a _Constant or _Reciprocal scales its own
    pair, a _Table each of its pairs), top times |c| rounded up, and end
    0 where c is."""
    x, coefficient, top, end = part
    f, top = c.as_integer_ratio(), _product_up(abs(c), top)
    if isinstance(coefficient, _Table):
        coefficient = _Table((tuple(map(mul, f, pair)) for pair in coefficient), top)
    else:
        coefficient = type(coefficient)(map(mul, f, coefficient))
    return x, coefficient, top, end if c else 0


def combine(specs: Sequence[SeriesSpec], coefficients: Sequence[float]) -> SeriesSpec:
    """Termwise linear combination of series: its stream zips the inputs'
    streams, and term k is special.rounded_mean of the weighted terms k:
    their fsum, or their exact sum rounded once where fsum overflows on
    finite values, or their plain sum (+-inf or nan) where one is not.

    The exact value is the same combination, by the same rule, when every
    input carries one and it is in double range, and so is the rational
    form (the inputs' parts scaled by finite coefficients); otherwise
    each is unset.
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
                t = rounded_mean(tuple(map(mul, coeffs, ts)))
            yield t

    exact = None
    if all(s.exact_value is not None for s in specs):
        exact = rounded_mean([c * s.exact_value for c, s in pairs])
        exact = exact if math.isfinite(exact) else None

    rational = None
    if all(s.rational for s in specs) and all(map(math.isfinite, coefficients)):
        rational = tuple(_scaled_part(part, c) for c, s in pairs for part in s.rational)

    return SeriesSpec(
        name="combined(" + ",".join(s.name for s in specs) + ")",
        terms=terms,
        exact_value=exact,
        rational=rational,
        asymptotic_only=any(s.asymptotic_only for s in specs),
    )
