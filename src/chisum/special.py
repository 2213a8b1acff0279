"""Special-function kernel: Bernoulli numbers, harmonic numbers (one at a
time, or as an O(1)-per-term stream), trigamma, the Euler-Maclaurin
generating function h, the boundary constant kappa, the rounding of every
exact sum (rounded, rounded_dot) and of every double sum (rounded_mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, repeat
from typing import Iterable, Iterator, Sequence

from .exceptions import DomainError, NumericError, _order

__all__ = [
    "BernoulliTable",
    "bernoulli_numbers",
    "harmonic",
    "harmonic_numbers",
    "trigamma",  # bernoulli_gen_fn needs it
    "bernoulli_gen_fn",
    "solve_kappa",
]

# Beyond index 60 the Bernoulli numbers grow past what double precision
# can represent with useful relative accuracy.
_BERNOULLI_MAX = 60


@dataclass(frozen=True)
class BernoulliTable:
    """Bernoulli numbers B_0..B_m under the B_1 = +1/2 convention."""

    values: tuple[float, ...]

    def __getitem__(self, k: int) -> float:
        return self.values[k]

    def __len__(self) -> int:
        return len(self.values)


@lru_cache(maxsize=1)
def _bernoulli() -> tuple[tuple[Fraction, ...], tuple[float, ...]]:
    # B_0..B_60 exact and as doubles, from the exact rational recurrence
    # sum_{j=0..m} C(m+1, j) B_j = m + 1 (the B_1 = +1/2 convention).
    b: list[Fraction] = [Fraction(1)]
    for i in range(1, _BERNOULLI_MAX + 1):
        s = sum(math.comb(i + 1, j) * b[j] for j in range(i))
        b.append(Fraction(i + 1 - s, i + 1))
    return tuple(b), tuple(map(float, b))


def bernoulli_numbers(m: int) -> BernoulliTable:
    """Bernoulli numbers B_0..B_m (B_1 = +1/2), exact rationals rounded
    to double precision.

    Raises DomainError unless m is an integer in 0..60: past 60 the
    magnitude growth of B_m exceeds double precision's useful accuracy.
    """
    m = _order(m, 0, "m")
    if m > _BERNOULLI_MAX:
        raise DomainError(
            f"m={m} exceeds the double-precision validity window "
            f"(m <= {_BERNOULLI_MAX})"
        )
    return BernoulliTable(values=_bernoulli()[1][: m + 1])


def harmonic(k: int) -> float:
    """Harmonic number H_k = sum_{j=1..k} 1/j, compensated; a non-integer
    k, or k < 1, raises DomainError."""
    k = _order(k, name="k")
    return math.fsum(1.0 / j for j in range(1, k + 1))


def harmonic_numbers() -> Iterator[float]:
    """The stream H_1, H_2, ..., each equal to harmonic(k), at O(1) a term.

    It keeps the running sum of the doubles 1/1..1/k exactly, as one
    integer acc scaled by 2**s: s = 52 + the bit length of j makes each
    1/j times 2**s an integer, so s grows by one (and acc shifts left)
    at each power of two.  int -> float conversion rounds correctly, so
    each value is the correctly rounded sum, the value harmonic(k)
    rounds to.
    """
    acc, s, top = 0, 53, 2  # sum so far = acc / 2**s; top = 2**(s - 52)
    for j in count(1):
        if j == top:
            acc, s, top = acc << 1, s + 1, top << 1
        acc += int(math.ldexp(1.0 / j, s))
        yield math.ldexp(float(acc), -s)


def rounded(num: int, den: int) -> float:
    """num / den for den > 0, correctly rounded; +-inf past double range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def rounded_dot(values: Iterable[float], weights: Iterable, scale: int = 1) -> float:
    """sum_i values[i] * weights[i] / scale, for finite doubles, int
    weights and an int scale > 0, summed exactly and rounded once; a value
    that is not finite raises OverflowError (inf) or ValueError (nan)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max((q for _, q in ratios), default=1)  # q is a power of two
    num = sum(p * (den // q) * w for (p, q), w in zip(ratios, weights))
    return rounded(num, den * scale)


def rounded_mean(values: Sequence[float], norm: float = 1.0) -> float:
    """math.fsum(values) / norm for norm > 0; where fsum overflows on finite
    values, their exact sum over norm rounded once (+-inf past double
    range), and where a value is not finite, their plain sum over norm."""
    try:
        return math.fsum(values) / norm
    except (OverflowError, ValueError):  # past range, or inf - inf
        if not all(map(math.isfinite, values)):
            return sum(values) / norm
        p, q = norm.as_integer_ratio()
        return rounded_dot(values, repeat(q), p)


_TRIGAMMA_SWITCH = 10.0


def trigamma(z: float) -> float:
    """Trigamma function (second derivative of log-gamma) for z > 0.

    Upward recurrence until z >= 10, then the asymptotic tail with the
    Bernoulli terms B_2..B_10; relative error is at the 1e-13 level.
    """
    if not z > 0.0:
        raise DomainError(f"trigamma needs z > 0, got {z}")
    acc = 0.0
    while z < _TRIGAMMA_SWITCH:
        acc += 1.0 / (z * z)
        z += 1.0
    s = 1.0 / z + 1.0 / (2.0 * z * z)
    z2 = z * z
    p = z * z2
    for b in _bernoulli()[1][2:11:2]:
        s += b / p
        p *= z2
    return acc + s


def bernoulli_gen_fn(x: float) -> float:
    """Generating function h(x) that the Bernoulli power series tracks
    asymptotically: (1/x) * trigamma(1 + 1/x) + x for x > 0.

    h(x) = 1 + x/2 + O(x**2) rounds to 1.0 for |x| < 2**-54, where 1/x
    may overflow.  For x < 0 the direct formula hits the trigamma pole,
    so the single-odd-term parity identity h(x) = h(-x) + x is used.
    """
    if abs(x) < 2**-54:
        return 1.0
    if x < 0.0:
        return bernoulli_gen_fn(-x) + x
    return (1.0 / x) * trigamma(1.0 + 1.0 / x) + x


def solve_kappa(tol: float) -> float:
    """Boundary constant kappa solving k*log(k) - k = 1, by Newton.

    The geometric series is summable by this method exactly for
    arguments in (-kappa, 1); kappa is about 3.5911.
    """
    if not tol >= 1e-15:
        raise DomainError(f"tolerance must be >= 1e-15, got {tol}")
    k = 3.5
    for _ in range(100):
        g = k * math.log(k) - k - 1.0
        if abs(g) <= tol:
            return k
        k -= g / math.log(k)
    raise NumericError("kappa Newton iteration failed to converge")

