"""Asymptotic error predictor and empirical rate diagnostics.

For a power series of an analytic f evaluated at x from base point x0,
the leading error of the order-n approximant is

    f(x) - f_hat_n(x)  ~  f''(x) * (x - x0)^2 / (2n),

so the method approaches from below where f is convex and from above
where f is concave.  Everything here uses the f(x) - f_hat_n(x) sign
convention.  The empirical rate fit is the closed-form least-squares
line through (log n, log|e|), so the module needs only the standard
library.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .exceptions import DomainError, NumericError, _order

__all__ = ["ErrorEstimate", "RateFit", "predicted_error", "observed_error", "rate_fit"]


@dataclass(frozen=True)
class ErrorEstimate:
    """Predicted leading error and observed error, each None where unknown."""

    predicted: Optional[float] = None
    observed: Optional[float] = None

    @property
    def ratio(self) -> Optional[float]:
        """observed / predicted; None without either, or where predicted is 0."""
        if self.observed is None or not self.predicted:
            return None
        return self.observed / self.predicted


@dataclass(frozen=True)
class RateFit:
    """Power-law fit |error| ~ C / n^p."""

    C: float
    p: float


def predicted_error(f2_at_x: float, x: float, x0: float, n: int) -> float:
    """Leading asymptotic error f''(x) * (x - x0)^2 / (2n).  A non-integer
    n, or n < 1, raises DomainError."""
    return f2_at_x * (x - x0) ** 2 / (2.0 * _order(n))


def observed_error(approximant: float, exact: float) -> float:
    """Observed error exact - approximant (the f - f_hat convention)."""
    return exact - approximant


def rate_fit(n_grid: Sequence[int], errors: Sequence[float]) -> RateFit:
    """Least-squares fit of log|e| = log C - p*log n, in closed form.

    With u = log n, v = log|e| and u_bar, v_bar their means,

        p = -sum (u - u_bar)(v - v_bar) / sum (u - u_bar)**2,
        C = exp(v_bar + p * u_bar).

    Raises DomainError unless there are at least 3 (n, error) pairs,
    every order is finite and >= 1, the orders take at least two
    distinct values of log n, and the errors are finite, nonzero and of
    one sign (a sign change means the log-linear model does not apply).
    Raises NumericError when C lies outside the normal double range.
    """
    if len(n_grid) != len(errors) or len(errors) < 3:
        raise DomainError("need at least 3 (n, error) pairs")
    if not all(1 <= n < math.inf for n in n_grid):
        raise DomainError("orders must be finite and >= 1")
    u = [math.log(n) for n in n_grid]
    if len(set(u)) < 2:
        raise DomainError("need at least two distinct orders")
    if not all(0.0 < abs(e) < math.inf for e in errors):
        raise DomainError("errors must be finite and nonzero")
    if len({e > 0.0 for e in errors}) > 1:
        raise DomainError("errors change sign; power-law fit invalid")
    v = [math.log(abs(e)) for e in errors]
    u_bar, v_bar = math.fsum(u) / len(u), math.fsum(v) / len(v)
    du = [a - u_bar for a in u]
    p = -math.fsum(a * (b - v_bar) for a, b in zip(du, v)) / math.fsum(
        a * a for a in du
    )
    log_c = v_bar + p * u_bar
    try:
        C = math.exp(log_c)
    except OverflowError:
        C = math.inf
    if not sys.float_info.min <= C < math.inf:
        raise NumericError(f"C = exp({log_c!r}) lies outside the normal double range")
    return RateFit(C=C, p=p)
