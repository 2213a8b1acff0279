"""The chi summation engine: both definitional forms, grid sweeps with
convergence classification, Richardson acceleration, and the classical
comparison methods (Cesaro, Euler transform, Abel).

Every method reads the series in order from one term stream
(SeriesSpec.terms), pulling exactly the terms it uses, so an order-n
approximant costs O(n) term work; Abel takes a fresh stream per radius.

The weighted sums are badly conditioned near the summability boundary:
the terms grow like exp(c*n) before cancelling down to order one, which
destroys double precision long before the method itself fails.
chi_sum, the one evaluation path that sweeps and every CLI command use,
therefore estimates the cancellation (sum of absolute weighted terms
over the result) and, when the series has a rational form, redoes the
sum exactly in integers: the weights (n)_k / n**k are rational, so S_n
is a rational number, rounded to double once at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import mul
from typing import Optional, Sequence

from .error_model import ErrorEstimate, observed_error, predicted_error
from .exceptions import AbelRadiusError, DomainError, NumericError
from .series import SeriesSpec, partial_sums
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


def _exact_sum(spec: SeriesSpec, n: int) -> float:
    """S_n from the series' rational form in Python ints, rounded once.

    A part (x, c), with x = p/q and L the lcm of the denominators of
    c(0..n), is A / (L * (n*q)**n), built by the Horner step
    A <- A*n*q + L*c(k)*(n)_k*p**k.  The final int / int rounds correctly.
    """
    num, den = 0, 1
    for x, c in spec.rational:
        p, q = x.as_integer_ratio()
        coeffs = [c(k) for k in range(n + 1)]
        lcm = math.lcm(*(ck.denominator for ck in coeffs))
        acc, u, step = 0, lcm, n * q  # u = L * (n)_k * p**k
        for k, ck in enumerate(coeffs):
            acc = acc * step + ck.numerator * (u // ck.denominator)
            u *= (n - k) * p
        scale = lcm * step**n
        num, den = num * scale + acc * den, den * scale
    try:
        return num / den
    except OverflowError:
        raise NumericError(f"weighted sum overflows at order {n}") from None


def chi_sum(spec: SeriesSpec, n: int) -> float:
    """chi approximant S_n = sum_{k=0..n} w(k) * a_k (first defining form).

    Sums in double precision with compensated summation, over the first
    n + 1 items of one term stream.  When a weighted term is not finite,
    or the cancellation ratio (absolute-term sum over the result)
    exceeds _COND_LIMIT, the sum is redone exactly from the series'
    rational form.  A series without one keeps its double result; for
    it a non-finite term raises NumericError naming its index.  A sum
    that leaves double range raises NumericError.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    terms = []
    try:
        # The row comes first, so map stops after n + 1 terms and never
        # pulls a_{n+1}; extend keeps the terms made before an overflow.
        terms.extend(map(mul, chi_row(n).w, spec.terms()))
    except OverflowError:
        terms.append(math.inf)
    # A sum of nonnegative terms, within n*eps of exact: good enough to
    # compare with _COND_LIMIT, and not finite exactly when a term is
    # not or the sum leaves double range.
    abs_sum = sum(map(abs, terms))
    if not math.isfinite(abs_sum):
        if spec.rational is not None:
            return _exact_sum(spec, n)
        for k, t in enumerate(terms):
            if not math.isfinite(t):
                raise NumericError(f"non-finite weighted term at index {k}")
        raise NumericError(f"weighted sum overflows at order {n}")
    value = math.fsum(terms)
    if spec.rational is not None and abs_sum > _COND_LIMIT * abs(value):
        return _exact_sum(spec, n)
    return value


def chi_limit(spec: SeriesSpec, n: int) -> float:
    """Weighted average of the partial sums under the averaging row
    (second defining form); algebraically equal to chi_sum."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    a = averaging_row(n).a
    s = partial_sums(spec, n).s
    num = math.fsum(a[k] * s[k] for k in range(n + 1))
    den = math.fsum(a)
    return num / den


def classify_convergence(
    approximants: Sequence[float],
    n_grid: Sequence[int],
    abs_tol: float = 1e-6,
    rel_tol: float = 1e-4,
) -> str:
    """Verdict from the successive differences of a grid of approximants.

    Converged when the last difference is inside tolerance, or when the
    trailing differences are strictly shrinking.  Diverging when the
    trailing differences are nondecreasing and have at least doubled
    over the last three of them.  Inconclusive otherwise.
    """
    if len(approximants) < 3 or len(approximants) != len(n_grid):
        raise DomainError("need at least 3 grid points with approximants")
    d = [
        abs(approximants[i + 1] - approximants[i])
        for i in range(len(approximants) - 1)
    ]
    value = approximants[-1]
    if d[-1] <= max(abs_tol, rel_tol * abs(value)):
        return CONVERGED
    tail = d[-3:]
    if len(tail) == 3:
        if tail[0] <= tail[1] <= tail[2] and tail[2] >= 2.0 * tail[0]:
            return DIVERGING
        if tail[0] > tail[1] > tail[2]:
            return CONVERGED
    else:  # exactly 3 grid points: two differences
        if tail[1] >= 2.0 * tail[0]:
            return DIVERGING
        if tail[1] < tail[0]:
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
    term that overflows means not settled; so does a series marked
    asymptotic only.
    """
    if spec.asymptotic_only:
        return None
    rho = 0.0
    try:
        window = islice(spec.terms(), n // 2, n + 1)
        prev = abs(next(window))
        for t in window:
            cur = abs(t)
            if not 0.0 < cur < prev < math.inf:
                return None
            rho = max(rho, cur / prev)
            prev = cur
        s = partial_sums(spec, n).s[-1]
    except OverflowError:
        return None
    if not math.isfinite(s) or prev * rho / (1.0 - rho) > 0.5 * math.ulp(s):
        return None
    return s


def chi_sweep(
    spec: SeriesSpec, n_grid: Sequence[int], accelerate: bool = False
) -> ChiResult:
    """Approximants over an increasing n-grid, classified.

    With accelerate=True, when the ordinary partial sums up to the
    largest grid order have settled (ratio-test tail bound below
    rounding), the reported value is that ordinary sum: the method is
    regular (Silverman-Toeplitz), so the chi limit of a convergent
    series is its ordinary sum, and the 1/n expansion that Richardson
    relies on is only asymptotic near x = 1 (at x = 0.9 and n = 400 it
    leaves an error of 0.58).  Otherwise the reported value is the
    Richardson extrapolation of the last two approximants, but only when
    two consecutive extrapolations agree to within the last raw
    difference; an oscillatory boundary term otherwise corrupts the
    extrapolation and the last raw approximant is kept.  accelerated is
    set whenever value is not the last raw approximant; approximants
    are the same with or without accelerate.
    """
    grid = tuple(int(n) for n in n_grid)
    if not grid:
        raise DomainError("empty n-grid")
    if any(b <= a for a, b in zip(grid, grid[1:])) or grid[0] < 1:
        raise DomainError("n-grid must be strictly increasing positive integers")
    approx = tuple(chi_sum(spec, n) for n in grid)
    verdict = classify_convergence(approx, grid) if len(grid) >= 3 else INCONCLUSIVE
    value = approx[-1]
    accelerated = False
    settled = _settled_sum(spec, grid[-1]) if accelerate else None
    if settled is not None:
        value = settled
        accelerated = True
    elif accelerate and len(grid) >= 2:
        r_last = richardson_accelerate(approx[-2], grid[-2], approx[-1], grid[-1])
        if len(grid) >= 3:
            r_prev = richardson_accelerate(
                approx[-3], grid[-3], approx[-2], grid[-2]
            )
            if abs(r_last - r_prev) <= abs(approx[-1] - approx[-2]):
                value = r_last
                accelerated = True
        else:
            value = r_last
            accelerated = True

    error = None
    if spec.second_derivative is not None and spec.x is not None:
        predicted = predicted_error(
            spec.second_derivative, spec.x, spec.x0, grid[-1]
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
    """Arithmetic mean of the partial sums s_0..s_n ((C,1) mean)."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    s = partial_sums(spec, n).s
    return math.fsum(s) / (n + 1)


def euler_transform(spec: SeriesSpec, n: int) -> float:
    """Euler transform of an alternating series a_k = (-1)^k b_k.

    Evaluates sum_{j=0..n} (-1)^j (D^j b)(0) / 2^(j+1) with D the
    forward difference of b_k = (-1)^k a_k.  Each difference row is
    halved as it is built, so row j holds (D^j b) / 2^j: D^j b grows like
    2^j and would overflow from j of about 1024, and halving is exact.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    b = [(-1.0 if k & 1 else 1.0) * t for k, t in zip(range(n + 1), spec.terms())]
    total = 0.0
    sign = 0.5
    for _ in range(n + 1):
        total += sign * b[0]
        sign = -sign
        b = [(y - x) * 0.5 for x, y in zip(b, b[1:])]
    return total


def abel_estimate(
    spec: SeriesSpec, radii: Sequence[float], extrapolate: bool = False
) -> float:
    """Abel-style evaluation: A(r) = sum a_k r^k at each radius, by
    truncation once the terms fall below the machine tail.

    Returns A at the last radius, or the linear extrapolation of the
    last two values in (1 - r) -> 0 when extrapolate is set.  Raises
    AbelRadiusError when the inner series never reaches its tail
    threshold within 10^6 terms.
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
            except OverflowError:
                t = math.inf
            if not math.isfinite(t):
                raise AbelRadiusError(
                    f"inner series overflowed at radius {r} (term {k})"
                )
            y = t - comp
            s = acc + y
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
