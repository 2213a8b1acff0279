"""Reference values for the benchmark, computed with mpmath alone.

This module never imports chisum.  It evaluates each series from its
documented definition (the term streams as ``chisum/series.py`` describes
them) and each method from its mathematical definition:

- chi approximants ``S_n = sum_{k<=n} w_k a_k`` with
  ``w_k = prod_{j<=k} (1 - (j-1)/n)``: the geometric series by the closed
  form ``S_n(x) = (x/n)^n e^{n/x} Gamma(n+1, n/x)``, every other series by
  a direct sum at a working precision sized from the largest term;
- the Cesaro mean as the mean of the partial sums;
- the Euler transform through the identity
  ``E_n = sum_i a_i P(Bin(n+1, 1/2) >= i+1)``, exact binomial tails;
- the Abel sums ``A(r) = sum a_k r^k`` by a direct mpmath sum to below
  the working precision, then the stated linear extrapolation in
  ``1 - r``;
- Bernoulli numbers from ``mpmath.bernoulli`` (B_1 = +1/2), the generating
  function from ``psi(1, .)``, kappa by ``findroot``, and the rate fit by
  closed-form least squares.

Run as a script it reads the operation list (JSON) on stdin and writes one
expected-result dict per operation on stdout.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from functools import lru_cache

import mpmath

_GUARD_DPS = 30


def _key(series: dict) -> str:
    return json.dumps(series, sort_keys=True)


def _terms(series: dict):
    """Infinite stream of the series' terms a_0, a_1, ... as mpf."""
    name = series["name"]
    x = mpmath.mpf(series.get("x", 1.0))
    if name == "geometric":
        p = mpmath.mpf(1)
        while True:
            yield p
            p *= x
    elif name == "custom":
        x = mpmath.mpf(series["doc"].get("x", 1.0))
        p = mpmath.mpf(1)
        for c in series["doc"]["coefficients"]:
            yield mpmath.mpf(c) * p
            p *= x
        while True:
            yield mpmath.mpf(0)
    elif name == "grandi":
        k = 0
        while True:
            yield mpmath.mpf(-1 if k & 1 else 1)
            k += 1
    elif name == "alt_harmonic_numbers":
        h, k = mpmath.mpf(0), 0
        while True:
            h += mpmath.mpf(1) / (k + 1)
            yield -h if k & 1 else h
            k += 1
    elif name == "alt_log":
        k = 0
        while True:
            t = mpmath.log(1 + k)
            yield -t if k & 1 else t
            k += 1
    elif name == "log1p_taylor":
        yield mpmath.mpf(0)
        p, k = x, 1
        while True:
            yield p / k if k & 1 else -p / k
            p *= x
            k += 1
    elif name == "bernoulli_power":
        p, k = mpmath.mpf(1), 0
        while True:
            b = mpmath.bernoulli(k)
            yield (-b if k == 1 else b) * p
            p *= x
            k += 1
    elif name == "combine":
        streams = [_terms(s) for s in series["parts"]]
        coeffs = [mpmath.mpf(c) for c in series["coefficients"]]
        while True:
            yield mpmath.fsum(c * next(s) for c, s in zip(coeffs, streams))
    else:
        raise ValueError(f"no oracle for series {name!r}")


def _tame(series: dict) -> bool:
    """Terms of at most logarithmic growth: every weighted sum and every
    classical method over them cancels mildly, so a fixed working
    precision serves, and their term prefixes can be shared."""
    if series["name"] == "combine":
        return all(_tame(p) for p in series["parts"])
    return series["name"] in ("grandi", "alt_harmonic_numbers", "alt_log")


_PREFIXES: dict = {}


def _shared_terms(series: dict):
    """The term stream of a tame series, computed once at the guard
    precision and shared by every operation on that series."""
    stream, cached = _PREFIXES.setdefault(_key(series), (_terms(series), []))
    for k in itertools.count():
        if k == len(cached):
            with mpmath.workdps(_GUARD_DPS + 10):
                cached.append(next(stream))
        yield cached[k]


def _head(series: dict, n: int) -> list:
    """Terms a_0..a_n."""
    stream = _shared_terms(series) if _tame(series) else _terms(series)
    return list(itertools.islice(stream, n + 1))


def _weighted(terms: list, n: int) -> list:
    w, out = mpmath.mpf(1), []
    for k, a in enumerate(terms):
        if k:
            w *= 1 - mpmath.mpf(k - 1) / n
        out.append(w * a)
    return out


@lru_cache(maxsize=None)
def _approximant(key: str, n: int) -> float:
    series = json.loads(key)
    if series["name"] == "geometric":
        try:
            with mpmath.workdps(_GUARD_DPS):
                x = mpmath.mpf(series["x"])
                return float((x / n) ** n * mpmath.exp(n / x)
                             * mpmath.gammainc(n + 1, n / x))
        except mpmath.libmp.NoConvergence:
            pass  # rare at large n; the direct sum below is exact too
    extra = 0
    if not _tame(series):
        # A pass at low precision finds the largest weighted term; the sum
        # is then redone with that many extra digits.
        with mpmath.workdps(15):
            big = max(abs(t) for t in _weighted(_head(series, n), n))
        extra = max(0, int(mpmath.log10(big))) if big else 0
    with mpmath.workdps(_GUARD_DPS + extra + len(str(n))):
        return float(mpmath.fsum(_weighted(_head(series, n), n)))


def approximant(series: dict, n: int) -> float:
    return _approximant(_key(series), n)


def cesaro(series: dict, n: int) -> float:
    with mpmath.workdps(_GUARD_DPS):
        s, total = mpmath.mpf(0), mpmath.mpf(0)
        for a in _head(series, n):
            s += a
            total += s
        return float(total / (n + 1))


def euler(series: dict, n: int) -> float:
    # sum_j (-1)^j (D^j b)_0 / 2^(j+1) with b_k = (-1)^k a_k equals
    # sum_i a_i sum_{j=i..n} C(j, i) / 2^(j+1), and the inner sum is the
    # binomial tail P(Bin(n+1, 1/2) >= i+1) = T_i / 2^(n+1).
    tails = [0] * (n + 2)
    for m in range(n + 1, 0, -1):
        tails[m - 1] = tails[m] + math.comb(n + 1, m)
    with mpmath.workdps(_GUARD_DPS + len(str(n))):
        total = mpmath.fsum(a * tails[i] for i, a in enumerate(_head(series, n)))
        return float(total / mpmath.mpf(2) ** (n + 1))


# Random-access terms for the series the Abel operations use.
_TERM_AT = {
    "grandi": lambda k, x: (-1) ** k,
    "alt_log": lambda k, x: (-1) ** k * mpmath.log(1 + k),
    "geometric": lambda k, x: x**k,
}


@lru_cache(maxsize=None)
def _abel_sum(key: str, r: float) -> float:
    # A direct sum to below the working precision: mpmath.nsum's default
    # extrapolation returned 0.841572 for geometric x=-0.190208 at r=0.99,
    # where 1/(1 - x r) is 0.841534.  The terms of these series shrink
    # monotonically once they are that small.
    series = json.loads(key)
    term = _TERM_AT[series["name"]]
    with mpmath.workdps(_GUARD_DPS):
        x, rm = mpmath.mpf(series.get("x", 1)), mpmath.mpf(r)
        eps = mpmath.mpf(10) ** -(_GUARD_DPS + 5)
        total, rk, k, below = mpmath.mpf(0), mpmath.mpf(1), 0, 0
        while below < 2:
            t = term(k, x) * rk
            total += t
            below = below + 1 if abs(t) < eps else 0
            rk *= rm
            k += 1
        return float(total)


def abel(series: dict, radii) -> float:
    values = [_abel_sum(_key(series), r) for r in radii]
    if len(values) == 1:
        return values[0]
    t1, t2 = 1.0 - radii[-2], 1.0 - radii[-1]
    with mpmath.workdps(_GUARD_DPS):
        a1, a2 = mpmath.mpf(values[-2]), mpmath.mpf(values[-1])
        t1, t2 = mpmath.mpf(t1), mpmath.mpf(t2)
        return float((a2 * t1 - a1 * t2) / (t1 - t2))


def bernoulli_numbers(m: int) -> list:
    return [float(-mpmath.bernoulli(k) if k == 1 else mpmath.bernoulli(k))
            for k in range(m + 1)]


def bernoulli_gen_fn(x: float) -> float:
    with mpmath.workdps(_GUARD_DPS):
        if x == 0.0:
            return 1.0
        if x < 0.0:
            return float(bernoulli_gen_fn(-x) + mpmath.mpf(x))
        xm = mpmath.mpf(x)
        return float(mpmath.psi(1, 1 + 1 / xm) / xm + xm)


def rate_fit(grid, errors) -> list:
    with mpmath.workdps(_GUARD_DPS):
        xs = [mpmath.log(n) for n in grid]
        ys = [mpmath.log(abs(mpmath.mpf(e))) for e in errors]
        mx, my = mpmath.fsum(xs) / len(xs), mpmath.fsum(ys) / len(ys)
        slope = mpmath.fsum((a - mx) * (b - my) for a, b in zip(xs, ys)) / mpmath.fsum(
            (a - mx) ** 2 for a in xs
        )
        return [float(mpmath.exp(my - slope * mx)), float(-slope)]


def kappa() -> float:
    with mpmath.workdps(_GUARD_DPS):
        return float(mpmath.findroot(lambda k: k * mpmath.log(k) - k - 1, 3.5))


def weight_rows(n: int) -> tuple[list, list]:
    with mpmath.workdps(_GUARD_DPS):
        w, chi, avg = mpmath.mpf(1), [], []
        for k in range(n + 1):
            if k:
                w *= 1 - mpmath.mpf(k - 1) / n
            chi.append(float(w))
            avg.append(float(k * w / n))
        return chi, avg


def predicted_error(series: dict, n: int) -> float:
    x = mpmath.mpf(series["x"])
    f2 = 2 / (1 - x) ** 3 if series["name"] == "geometric" else -1 / (1 + x) ** 2
    return float(f2 * x**2 / (2 * n))


def expected(op: dict) -> dict:
    """Reference results for one operation, keyed like the runner's
    result dicts."""
    out = {}
    if op["requests"]:
        out["approx"] = [approximant(s, n) for s, n in op["requests"]]
    kind = op["kind"]
    command = op.get("command")
    if kind == "cesaro":
        out["cesaro"] = cesaro(op["series"], op["n"])
    elif kind == "euler":
        out["euler"] = euler(op["series"], op["n"])
    elif kind == "abel":
        out["abel"] = abel(op["series"], op["radii"])
    elif kind == "bernoulli":
        out["bernoulli"] = bernoulli_numbers(60)
    elif kind == "rate_fit":
        out["rate_fit"] = rate_fit(op["grid"], op["errors"])
    if kind == "bernoulli" or command == "table":
        out["gen_fn"] = [bernoulli_gen_fn(x) for x in op["xs"]]
    elif command == "kappa":
        out["kappa"] = kappa()
    elif command == "weights":
        out["chi"], out["averaging"] = weight_rows(op["n"])
    elif command == "error":
        out["predicted_error"] = predicted_error(op["series"], op["n"])
    elif command == "sum" and "radii" in op:
        out["cesaro"] = cesaro(op["series"], op["n"])
        out["euler"] = euler(op["series"], op["n"])
        out["abel"] = abel(op["series"], op["radii"])
    return out


if __name__ == "__main__":
    json.dump([expected(op) for op in json.load(sys.stdin)], sys.stdout)
