"""The chi summation engine: both definitional forms, grid sweeps with
convergence classification, Richardson acceleration, and the classical
comparison methods (Cesaro, Euler transform, Abel).

Every method reads the series in order from one term stream
(SeriesSpec.terms), pulling exactly the terms it uses, so an order-n
approximant costs O(n) term work; Abel takes a fresh stream per radius.

The weighted sums are badly conditioned near the summability boundary:
the terms grow like exp(c*n) before cancelling down to order one, which
destroys double precision long before the method itself fails.  Both
defining forms, chi_sum (the one evaluation path that sweeps and every
CLI command use) and chi_limit, therefore go through one guarded
weighted sum.  It estimates the cancellation (sum of absolute weighted
terms over the result) and, when the series has a rational form, redoes
the sum exactly in integers: the weights (n)_k / n**k are rational, so
S_n is a rational number, rounded to double once at the end.  The integers
come from a balanced product tree (binary splitting): each product joins
two halves of about equal size, where CPython's Karatsuba multiplication
is fast, so the cost grows far more slowly than the n**2 of adding one
term at a time to a growing integer.

Past the end of the weight row every weight is below sys.float_info.min,
so the terms there enter the guard only as a bound on what they could
add.  For a series with a rational form, chi_sum takes that bound in
closed form, a geometric sum in |x| times each part's coefficient bound,
and reads only the terms under the row: 8,982 of the 60,001 at
n = 60,000.  A sum that the bound could move is redone exactly.  chi_limit,
and chi_sum on a series without a rational form, read the values past
the row instead.

The Euler transform is always summed exactly: the (E,1) mean is a
weighted sum of a_0..a_n whose weights are binomial tails over
2**(n+1), so it is one integer sum over the double terms, rounded once,
in O(n) big-integer steps instead of a difference table.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import islice, pairwise
from operator import mul
from typing import Iterator, Optional, Sequence

from .error_model import ErrorEstimate, observed_error, predicted_error
from .exceptions import AbelRadiusError, DomainError, NumericError
from .series import SeriesSpec, _running_sums, partial_sums
from .weights import averaging_row, chi_row

__all__ = [
    "CONVERGED",
    "DIVERGING",
    "INCONCLUSIVE",
    "ChiResult",
    "chi_sum",
    "chi_limit",
    "chi_sweep",
    "classify_convergence",
    "richardson_accelerate",
    "cesaro_mean",
    "euler_transform",
    "abel_estimate",
]

CONVERGED = "converged"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"

# Cancellation ratio above which a double-precision weighted sum has lost
# roughly half its digits and is redone exactly.
_COND_LIMIT = 1e8


@dataclass(frozen=True)
class ChiResult:
    """Approximant history over an n-grid with a convergence verdict."""

    n_grid: tuple[int, ...]
    approximants: tuple[float, ...]
    value: float
    verdict: str
    error: Optional[ErrorEstimate] = None
    accelerated: bool = False


def _split(c, n: int, p: int, step: int, a: int, b: int):
    """(P, Q, B, T) of the index range [a, b) of one part, by halving.

    P = prod_{a<=j<b} (n-j)*p, Q = step**(b-a), B is the product of the
    denominators of c(a..b-1), and the range's sum
    sum_{a<=k<b} c(k) * prod_{a<=j<k} (n-j)*p / step equals T / (B*Q).
    """
    if b - a == 1:
        ck = c(a)
        return (n - a) * p, step, ck.denominator, ck.numerator * step
    m = (a + b) // 2
    P1, Q1, B1, T1 = _split(c, n, p, step, a, m)
    P2, Q2, B2, T2 = _split(c, n, p, step, m, b)
    # sum[a, b) = sum[a, m) + (P1 / Q1) * sum[m, b)
    return P1 * P2, Q1 * Q2, B1 * B2, T1 * B2 * Q2 + P1 * B1 * T2


def _exact_sum(spec: SeriesSpec, n: int) -> float:
    """S_n from the series' rational form in Python ints, rounded once.

    A part (x, c, _), with x = p/q and step = n*q, is
    sum_{k<=n} c(k) * (n)_k * p**k / step**k, the fraction T / (B*Q) of
    _split over [0, n+1).  Every (P, Q, B, T) is exact, so each part is
    exactly the same rational however the range is split; the parts are
    added by cross-multiplying, and the final int / int rounds correctly.
    """
    num, den = 0, 1
    for x, c, _ in spec.rational:
        p, q = x.as_integer_ratio()
        _, Q, B, T = _split(c, n, p, n * q, 0, n + 1)
        scale = B * Q
        num, den = num * scale + T * den, den * scale
    try:
        return num / den
    except OverflowError:
        raise NumericError(f"weighted sum overflows at order {n}") from None


def _first_nonfinite(spec: SeriesSpec, n: int) -> Optional[int]:
    """Index of the first of a_0..a_n that is not finite, or None when
    all of them are finite."""
    terms = enumerate(islice(spec.terms(), n + 1))
    return next((k for k, t in terms if not math.isfinite(t)), None)


def _tail_bound(spec: SeriesSpec, m: int, n: int) -> float:
    """An upper bound on sum_{k=m..n} |a_k| from spec's rational form,
    without reading a term.

    Each part (x, c, bound) adds bound(m) * sum_{k=m..n} |x|**k, whose
    closed form, with r = |x| and count = n - m + 1, is at most
    min(count, r**m / (1 - r)) for r < 1, count at r = 1, and
    min(count * r**n, r**(n+1) / (r - 1)) for r > 1.  A part with
    bound(m) = 0 adds nothing, before any power is taken.  The sum is
    rounded up by a relative 1e-9 for the rounding of the terms and of
    these formulas, and each part adds a few subnormal spacings per term
    for the terms that round below sys.float_info.min.  A power past
    double range makes the bound inf.
    """
    count = n - m + 1
    if count <= 0:
        return 0.0
    total = 0.0
    for x, _, bound in spec.rational:
        b = bound(m)
        if b == 0.0:
            continue
        r = abs(x)
        try:
            if r < 1.0:
                s = min(count, r**m / (1.0 - r))
            elif r == 1.0:
                s = count
            else:
                rn = r**n
                s = min(count * rn, rn * r / (r - 1.0))
        except OverflowError:
            return math.inf
        total += b * s + 4.0 * (b + 1.0) * count * math.ulp(0.0)
    return total * (1.0 + 1e-9)


def _guarded_sum(
    spec: SeriesSpec,
    n: int,
    row: Sequence[float],
    stream: Iterator[float],
    norm: float,
    tail: Optional[float] = None,
) -> float:
    """S_n as sum_k row[k] * x_k / norm over the first n + 1 values x_k of
    stream, a sequence built from spec's terms, with every weight past
    the row below sys.float_info.min.

    Sums the first len(row) values, weighted by the row, in double
    precision.  The values from there to x_n only count through tail, a
    bound on their absolute sum, since tail * sys.float_info.min bounds
    what they could add: when tail is given, no value past the row is
    read; otherwise they are read and summed in absolute value.  When a
    value is not finite, or the cancellation ratio (absolute-term sum,
    with that bound, over the sum) exceeds _COND_LIMIT, or the bound
    exceeds an epsilon of the sum, S_n is redone exactly from the series'
    rational form.  A series without one keeps its double result, so
    terms past the row large enough to move it are missed; for it a
    non-finite term raises NumericError naming its index.  A sum that
    leaves double range raises NumericError.
    """
    # The row comes first, so map stops after len(row) values and never
    # pulls the value past them; islice then stops at x_n.
    terms = list(map(mul, row, stream))
    if tail is None:
        tail = sum(map(abs, islice(stream, n + 1 - len(row))))
    # Sums of nonnegative terms, within n*eps of exact: good enough to
    # compare with _COND_LIMIT.  abs_sum is not finite when a term is not
    # (0 * inf is nan) or a sum leaves double range.
    past_row = sys.float_info.min * tail
    abs_sum = sum(map(abs, terms)) + past_row
    if not math.isfinite(abs_sum):
        if spec.rational is not None:
            return _exact_sum(spec, n)
        k = _first_nonfinite(spec, n)
        if k is not None:
            raise NumericError(f"non-finite weighted term at index {k}")
        if not math.isfinite(sum(map(abs, terms))):
            raise NumericError(f"weighted sum overflows at order {n}")
        # Only the bound on the values past the row overflowed.
    total = math.fsum(terms)
    if spec.rational is not None and (
        abs_sum > _COND_LIMIT * abs(total)
        or past_row > sys.float_info.epsilon * abs(total)
    ):
        return _exact_sum(spec, n)
    return total / norm


def chi_sum(spec: SeriesSpec, n: int) -> float:
    """chi approximant S_n = sum_{k=0..n} w(k) * a_k (first defining form).

    The guarded weighted sum of the terms a_0..a_n under chi_row(n):
    compensated double precision, with a bound on the terms past the
    row and an exact redo from the series' rational form when a term is
    not finite, the sum cancels, or the bound could move it.  A series
    with a rational form gets that bound in closed form (_tail_bound),
    so only the len(row) terms under the row are read; any other series
    reads its terms up to a_n.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    row = chi_row(n)
    tail = None if spec.rational is None else _tail_bound(spec, len(row), n)
    return _guarded_sum(spec, n, row, spec.terms(), 1.0, tail)


def chi_limit(spec: SeriesSpec, n: int) -> float:
    """Weighted average of the partial sums s_0..s_n under the averaging
    row (second defining form); algebraically equal to chi_sum.

    The same guarded weighted sum as chi_sum, over the partial sums and
    normalised by the row's sum.  Each averaging weight past the row is
    k*w(k)/n <= w(k) < sys.float_info.min, so the partial sums there are
    read and bounded, not dropped; one that overflows sends a series with
    a rational form to the exact sum, which is the same S_n as chi_sum's.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    a = averaging_row(n)
    return _guarded_sum(spec, n, a, _running_sums(spec), math.fsum(a))


def classify_convergence(
    approximants: Sequence[float], n_grid: Sequence[int]
) -> str:
    """Verdict from the successive differences of a grid of approximants.

    Converged when the last difference is within max(1e-6, 1e-4 * |last
    approximant|).  Otherwise the rule reads the last two or three
    differences: diverging when they are nondecreasing and the last is at
    least twice the first, converged when they are strictly decreasing,
    inconclusive otherwise.
    """
    if len(approximants) < 3 or len(approximants) != len(n_grid):
        raise DomainError("need at least 3 grid points with approximants")
    d = [
        abs(approximants[i + 1] - approximants[i])
        for i in range(len(approximants) - 1)
    ]
    if d[-1] <= max(1e-6, 1e-4 * abs(approximants[-1])):
        return CONVERGED
    tail = d[-3:]
    if all(a <= b for a, b in pairwise(tail)) and tail[-1] >= 2.0 * tail[0]:
        return DIVERGING
    if all(a > b for a, b in pairwise(tail)):
        return CONVERGED
    return INCONCLUSIVE


def richardson_accelerate(v1: float, n1: int, v2: float, n2: int) -> float:
    """Eliminate a C/n error term from two approximants."""
    if n2 <= n1:
        raise DomainError(f"need n2 > n1, got n1={n1}, n2={n2}")
    if n1 < 1:
        raise DomainError(f"need n1 >= 1, got {n1}")
    return (n2 * v2 - n1 * v1) / (n2 - n1)


def _settled_sum(spec: SeriesSpec, n: int) -> Optional[float]:
    """The ordinary partial sum s_n when the tail past n cannot move it,
    else None.

    Settled means, by the ratio test: every term a_k with n//2 <= k <= n
    is finite and nonzero, the ratios |a_{k+1} / a_k| there stay below
    some rho < 1, and the geometric tail bound |a_n| * rho / (1 - rho)
    is below half an ulp of s_n.  The bound takes the ratios past n to
    stay within rho, as they do for geometric and log-type terms.  A
    term or sum that is not finite means not settled; so does a series
    marked asymptotic only.
    """
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


def chi_sweep(
    spec: SeriesSpec, n_grid: Sequence[int], accelerate: bool = False
) -> ChiResult:
    """Approximants over an increasing n-grid, classified.

    With accelerate=True the reported value is the first of:
    - the ordinary partial sum up to the largest grid order, when it has
      settled (ratio-test tail bound below rounding): the method is
      regular (Silverman-Toeplitz), so the chi limit of a convergent
      series is its ordinary sum, and the 1/n expansion that Richardson
      relies on is only asymptotic near x = 1 (at x = 0.9 and n = 400 it
      leaves an error of 0.58);
    - the Richardson extrapolation of the last two approximants, when the
      grid has two points or the last two extrapolations agree to within
      the last raw difference (an oscillatory boundary term otherwise
      corrupts it);
    - the last raw approximant.
    accelerated says whether one of the first two was taken; approximants
    are the same with or without accelerate.
    """
    grid = tuple(int(n) for n in n_grid)
    if not grid:
        raise DomainError("empty n-grid")
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise DomainError("n-grid must be strictly increasing positive integers")
    approx = tuple(chi_sum(spec, n) for n in grid)
    verdict = classify_convergence(approx, grid) if len(grid) >= 3 else INCONCLUSIVE
    value = None
    if accelerate:
        value = _settled_sum(spec, grid[-1])
        if value is None and len(grid) >= 2:
            r = [
                richardson_accelerate(approx[i - 1], grid[i - 1], approx[i], grid[i])
                for i in range(max(1, len(grid) - 2), len(grid))
            ]
            if len(r) == 1 or abs(r[-1] - r[-2]) <= abs(approx[-1] - approx[-2]):
                value = r[-1] if math.isfinite(r[-1]) else None
    accelerated = value is not None
    if not accelerated:
        value = approx[-1]

    error = None
    if spec.second_derivative is not None and spec.x is not None:
        # Every catalog, custom and combined series is a power series
        # about 0, so that is the base point.
        predicted = predicted_error(
            spec.second_derivative, spec.x, 0.0, grid[-1]
        )
        observed = ratio = None
        if spec.exact_value is not None:
            observed = observed_error(approx[-1], spec.exact_value)
            if predicted != 0.0:
                ratio = observed / predicted
        error = ErrorEstimate(predicted=predicted, observed=observed, ratio=ratio)

    return ChiResult(
        n_grid=grid,
        approximants=approx,
        value=value,
        verdict=verdict,
        error=error,
        accelerated=accelerated,
    )


def cesaro_mean(spec: SeriesSpec, n: int) -> float:
    """Arithmetic mean of the partial sums s_0..s_n ((C,1) mean).

    A term that is not finite raises NumericError naming its index, and
    so does a partial sum past double range.  When only the sum of the
    partial sums leaves double range, each is divided by n + 1 first.
    """
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    sums = partial_sums(spec, n)
    try:
        mean = math.fsum(sums) / (n + 1)
    except OverflowError:
        mean = math.fsum(s / (n + 1) for s in sums)
    if not math.isfinite(mean):
        k = _first_nonfinite(spec, n)
        if k is not None:
            raise NumericError(f"non-finite term at index {k}")
        raise NumericError(f"partial sums overflow by order {n}")
    return mean


def euler_transform(spec: SeriesSpec, n: int) -> float:
    """(E,1) mean of a_0..a_n, the Euler transform
    sum_{j=0..n} (-1)^j (D^j b)(0) / 2^(j+1) of b_k = (-1)^k a_k, with D
    the forward difference; exact in the double terms, rounded once.

    Expanding the differences gives one weighted sum,
    E_n = sum_i a_i * T_i / 2^(n+1) with T_i = sum_{m=i+1..n+1} C(n+1, m),
    since sum_{j=i..n} C(j, i) / 2^(j+1) = P(Bin(n+1, 1/2) >= i+1)
    (Hardy, Divergent Series, ch. 8).  The terms are put over one
    power-of-two denominator and the walk from i = n down to 0 carries
    C(n+1, i+1) and T_i in Python ints, so the cost is O(n) big-integer
    steps, not the O(n**2) of the difference table, and the result is
    the correctly rounded mean of the double terms.  Its error is then
    the rounding of the terms: on alt_log at n = 100..2000 it is 12 to
    190 ulp from a 60-digit mean of the exact terms (the table's was 5
    to 156).  A term that is not finite raises NumericError naming its
    index; a mean past double range raises NumericError.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    a = list(islice(spec.terms(), n + 1))
    try:
        den = max(t.as_integer_ratio()[1] for t in a)
    except (OverflowError, ValueError):  # inf and nan have no ratio
        k = next(k for k, t in enumerate(a) if not math.isfinite(t))
        raise NumericError(f"non-finite term at index {k}") from None
    num = 0
    binom = tail = 1  # C(n+1, i+1) and T_i, at i = n
    for i in range(n, -1, -1):
        p, q = a[i].as_integer_ratio()
        num += p * (den // q) * tail
        binom = binom * (i + 1) // (n + 1 - i)
        tail += binom
    try:
        return num / (den << (n + 1))
    except OverflowError:
        raise NumericError(f"Euler mean overflows at order {n}") from None


def abel_estimate(
    spec: SeriesSpec, radii: Sequence[float], extrapolate: bool = False
) -> float:
    """Abel-style evaluation: A(r) = sum a_k r^k at each radius, by
    truncation once the terms fall below the machine tail.

    Returns A at the last radius, or the linear extrapolation of the
    last two values in (1 - r) -> 0 when extrapolate is set.  Raises
    AbelRadiusError when a term or the running sum of the inner series
    is not finite, or when it does not reach its tail threshold within
    10^6 terms or before its stream ends.
    """
    rs = tuple(float(r) for r in radii)
    if not rs or any(not (0.0 < r < 1.0) for r in rs):
        raise DomainError("radii must be in (0, 1)")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise DomainError("radii must be increasing")

    values = []
    for r in rs:
        acc = 0.0
        comp = 0.0
        rk = 1.0
        below = 0
        terms = spec.terms()
        for k in range(10**6):
            try:
                t = next(terms) * rk
            except DomainError:  # a finite stream, such as bernoulli_power
                raise AbelRadiusError(
                    f"inner series has only {k} terms, too few at radius {r}"
                ) from None
            y = t - comp
            s = acc + y
            # A term that is not finite makes s not finite too.
            if not math.isfinite(s):
                raise AbelRadiusError(
                    f"inner series overflowed at radius {r} (term {k})"
                )
            comp = (s - acc) - y
            acc = s
            rk *= r
            if abs(t) <= 1e-16 * abs(acc):
                below += 1
                if below >= 2:
                    break
            else:
                below = 0
        else:
            raise AbelRadiusError(
                f"inner series did not reach its tail threshold at radius {r}"
            )
        values.append(acc)

    if not extrapolate or len(values) == 1:
        return values[-1]
    t1, t2 = 1.0 - rs[-2], 1.0 - rs[-1]
    a1, a2 = values[-2], values[-1]
    return (a2 * t1 - a1 * t2) / (t1 - t2)
