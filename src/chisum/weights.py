"""Weight sequences of the chi summability method.

The method weights term k of a series by the running product

    w(k) = prod_{j=1..k} (1 - (j-1)/n),    w(0) = 1,

which decays factorially in k for fixed n and tends to 1 for fixed k as
n grows.  The equivalent averaging (matrix) form uses the normalized row
a(k) = k*w(k)/n, which is a probability row vector.

Since w(k) is about exp(-k**2 / (2n)), only the first O(sqrt(n)) weights
lie in the normal range of a double.  A row keeps that head: it ends
before the first weight below sys.float_info.min, and every weight past
it counts as exactly zero.  The recurrence cannot follow the weights
further.  A subnormal product keeps fewer bits at each step and then
sticks at the smallest subnormal, 5e-324, while the factor exceeds 1/2:
at n = 20000 it stores 5e-324 for k = 5202..10000, where the true weight
falls to about 1e-1332.  So a row stores no subnormal weight, and a
cached row at n = 10**6 holds 37,404 entries instead of n + 1.  Only a
series without a rational form is summed under a row; summation reads
its terms past the row only to check that they are finite.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .exceptions import _order

__all__ = [
    "ToeplitzDiagnostics",
    "chi_row",
    "averaging_row",
    "verify_toeplitz",
    "exp_approx_gap",  # only tests call it; it checks the limit behind the weights
]


@dataclass(frozen=True)
class ToeplitzDiagnostics:
    """Row diagnostics backing the three regularity conditions."""

    abs_row_sum: float
    row_sum: float
    max_entry: float
    nonnegative: bool


def chi_row(n: int) -> tuple[float, ...]:
    """Head of the weight row at order n: the tuple w[0], w[1], ... while
    the weights stay at or above sys.float_info.min; w[k] weights term k,
    and every term from len(w) to n has weight zero.

    Weights are built by the running product, never via factorials, so
    there is no overflow for n > 170.  The row holds all n + 1 weights
    up to n = 712 and ends before the first subnormal weight from n = 713
    on; every weight past it counts as zero (see the module docstring).
    A non-integer n, or n < 1, raises DomainError.
    """
    return _row(_order(n))


# Cached for calls that repeat an order back to back, as bernoulli_power
# at several x does; a sweep's orders rarely recur, and a row at
# n = 10**6 holds 37,404 floats.  Replaying the benchmark's regular
# cycle three times (seeds 6601 and 7) gives 270 and 273 hits at 4 rows
# against 283 and 279 at 64, so 4 rows keep nearly every reuse at a
# sixteenth of the memory.  lru_cache is safe for readers.  chi_row
# checks the order before the cache hashes it, so an unhashable order
# raises DomainError, not TypeError.
@lru_cache(maxsize=4)
def _row(n: int) -> tuple[float, ...]:
    w = [1.0]
    for k in range(1, n + 1):
        wk = w[-1] * (1.0 - (k - 1) / n)
        if wk < sys.float_info.min:
            break
        w.append(wk)
    return tuple(w)


# bench/run.py reads and resets the cache through chi_row, to measure how
# often a row is reused, so both methods stay bound on it.
chi_row.cache_info, chi_row.cache_clear = _row.cache_info, _row.cache_clear


def averaging_row(n: int) -> tuple[float, ...]:
    """Averaging-form row a[k] = k*w[k]/n over the head of chi_row(n);
    entries sum to 1, and every entry past the head is zero; n as in chi_row."""
    n = _order(n)
    return tuple(k * wk / n for k, wk in enumerate(chi_row(n)))


def verify_toeplitz(row: Sequence[float]) -> ToeplitzDiagnostics:
    """Diagnostics for the regular-matrix row conditions.

    For this method the entries are nonnegative, so the absolute row sum
    equals the row sum.
    """
    return ToeplitzDiagnostics(
        abs_row_sum=math.fsum(map(abs, row)),
        row_sum=math.fsum(row),
        max_entry=max(row),
        nonnegative=all(x >= 0.0 for x in row),
    )


def exp_approx_gap(n: int, samples: int) -> float:
    """Max of |(1 - x/n)^n - exp(-x)| over a uniform grid on [0, n].

    The analytic bound is 1/(e*n); callers assert the returned gap stays
    below it.  A non-integer n or samples, n < 1, or samples < 2, raises
    DomainError.
    """
    n = _order(n)
    samples = _order(samples, 2, "samples")
    gap = 0.0
    for i in range(samples):
        x = n * i / (samples - 1)
        g = abs((1.0 - x / n) ** n - math.exp(-x))
        if g > gap:
            gap = g
    return gap
