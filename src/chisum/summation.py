"""The chi summation engine: both definitional forms, grid sweeps with
convergence classification, Richardson acceleration, and the classical
comparison methods (Cesaro, Euler transform, Abel).

A map of the routes; the docstring of the function named proves each:
- chi_sum and chi_limit on a series with a rational form: _fixed_sum,
  which reads no term, sums each part by the kernel _kernel picks and
  settles their bounds at once (_settle);
- a constant part past |x| = 1: the closed form (_closed_part);
- a c/k part past |x| = 1: the geometric approximants (_reciprocal_part);
- any other part: fixed point (_fixed_part, sized by _fixed_bits);
- the product tree (_exact_sum): where _kernel finds it the cheaper, a
  coefficient bound past double range, or a sum _settle leaves open;
- chi_sum and chi_limit on any other series: a double sum of the term
  stream under the weight row (_guarded_sum);
- euler_transform: fixed point over the band of binomial weights that
  are neither 0 nor 1 (_euler_part, sized by _euler_fixed, settled by
  _settle); the exact dot over _binomial_tails where P is large against
  n or no pass settles; both through _euler_mean;
- abel_estimate on a series with a moment bound (grandi,
  alternating_unit, alt_log, alt_harmonic_numbers): at each radius the
  Euler mean of the first m + 1 weighted terms, m doubled until the
  bound proves it (_abel_moments); on any other series, blocks of the
  weighted terms summed to a tail threshold;
- cesaro_mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from functools import lru_cache
from itertools import accumulate, chain, compress, count, islice, pairwise, repeat
from operator import and_, le, mul
from typing import Iterator, Optional, Sequence

from .error_model import ErrorEstimate, observed_error, predicted_error
from .exceptions import AbelRadiusError, DomainError, NumericError, _order
from .series import (
    SeriesSpec,
    _Constant,
    _first_near,
    _Reciprocal,
    _running_sums,
    _Table,
    partial_sums,
)
from .special import _bernoulli, rounded, rounded_dot, rounded_mean
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

# Bits a growing weight of the fixed-point kernel may gain past its
# working precision before it is cut back.
_RENORM = 32

# A part on the fixed-point kernel works on P-bit integers for n terms;
# the product tree's integers gain s bits per term, those of n and of the
# numerator and denominator of the series' widest x.  Past
# P = n * s / _TREE_RATIO, _kernel sends a series with a part on the
# fixed kernel to the product tree; it takes the recurrence only for a
# part whose integers stay below 2P bits.  Geometric on the fixed kernel
# at n = 2000 (2 CPUs, Python 3.11): x = -3.59 gives P / (n s) = 0.008
# and the fixed point is 4x faster, x = -3.5 gives 0.05 and both take
# the same time, x = 1e5 gives 0.5 and the product tree is 10x faster.
_TREE_RATIO = 8

# The closed form (_closed_part) starts at this many bits below its
# part's scale.  _kernel gives it a part whose transient is below that
# (then a sum at n = 2000 takes 30-60 us), or where the fixed kernel's
# work n * P reaches _CLOSED_WORK, past which the closed form's flat
# 0.1-0.2 ms, most of it the transient's decimal ln and exp, is the
# smaller (geometric x in [-3.9, -1.1] and [1.1, 3], 2 CPUs, Python
# 3.11): geometric x = -3.55 crosses at n of about 300.
_CLOSED_BITS = 96
_CLOSED_WORK = 100_000

# A _Reciprocal part past |x| = 1 takes the recurrence (_reciprocal_part)
# when the fixed kernel needs at least this many times sqrt(n) bits more
# than it.  The recurrence takes n steps on small integers whatever x; the
# fixed kernel's steps and their size grow with x, its weights falling to
# 0 about sqrt(2 n P ln 2 / |x|) orders past their peak.  For log1p_taylor
# (2 CPUs, Python 3.11) the two cost the same at 25, 49, 75 and 119 bits
# more (x of about 1.55, 1.55, 1.4 and 1.35) for n = 200, 400, 1000 and
# 2000: 1.8 to 2.7 sqrt(n).  Past that the recurrence is 1.6x as fast at
# x = 1.7, n = 2000, and 3-7x for x from 2 to 3.5.
_RECIPROCAL_GAIN = 2.5

# ln(2 pi) / 2 to 120 decimals, 10**-120 from the exact value.
_HALF_LN_2PI = Decimal(
    "0.918938533204672741780329736405617639861397473637783412817151540482"
    "765695927260397694743298635954197622005646624634337446"
)
_HALF_LN_2PI_ERROR = -120 * math.log2(10)  # log2 of that distance


@dataclass(frozen=True)
class ChiResult:
    """An n-grid's approximants, value, verdict and error, as chi_sweep sets them."""

    n_grid: tuple[int, ...]
    approximants: tuple[float, ...]
    value: float
    verdict: Optional[str]
    error: ErrorEstimate
    accelerated: bool = False


def _split(c, n: int, p: int, step: int, a: int, b: int):
    """(P, Q, B, T) of the index range [a, b) of one part, by halving.

    P = prod_{a<=j<b} (n-j)*p, Q = step**(b-a), B is the product of the
    denominators of c(a..b-1), and the range's sum
    sum_{a<=k<b} c(k) * prod_{a<=j<k} (n-j)*p / step equals T / (B*Q).
    """
    if b - a == 1:
        num, den = c(a)
        return (n - a) * p, step, den, num * step
    m = (a + b) // 2
    P1, Q1, B1, T1 = _split(c, n, p, step, a, m)
    P2, Q2, B2, T2 = _split(c, n, p, step, m, b)
    # sum[a, b) = sum[a, m) + (P1 / Q1) * sum[m, b)
    return P1 * P2, Q1 * Q2, B1 * B2, T1 * B2 * Q2 + P1 * B1 * T2


def _exact_sum(spec: SeriesSpec, n: int) -> float:
    """S_n from the series' rational form in Python ints, rounded once.

    A part (x, c, _, _), with x = p/q and step = n*q, is
    sum_{k<=n} c(k) * (n)_k * p**k / step**k, the fraction T / (B*Q) of
    _split over [0, n+1), every order read whatever the part's end.  Each
    (P, Q, B, T) is exact, so each part is exactly the same rational
    however the range is split; the parts are added by cross-multiplying,
    and the final quotient is rounded once (rounded).  Each product joins
    two halves of about equal size, where CPython's Karatsuba
    multiplication is fast.
    """
    num, den = 0, 1
    for x, c, _, _ in spec.rational:
        p, q = x.as_integer_ratio()
        _, Q, B, T = _split(c, n, p, n * q, 0, n + 1)
        scale = B * Q
        num, den = num * scale + T * den, den * scale
    value = rounded(num, den)
    if math.isinf(value):
        raise NumericError(f"weighted sum overflows at order {n}")
    return value


def _fixed_bits(spec: SeriesSpec, n: int) -> int:
    """Starting precision P of _fixed_sum, in closed form; only the cost
    depends on P, never the result.

    The kernel keeps about P bits below the largest weighted term, and
    its error bound grows like n**2 units of the last of them times the
    largest coefficient bound B.  So P is 64 + 2 log2(n) guard bits over
    log2(W) + log2(B / S) + max(0, -log2(B)), with W the largest weight
    (n)_k |x|**k / n**k that meets a coefficient and S the sum's guessed
    scale.  W sits at the orders around k* = n (1 - 1/|x|), where the
    ratio |x| (n - k) / n of consecutive weights falls through 1, or at
    the last order before a part's coefficients end; for |x| <= 1 it is
    1.  S is taken from where the large coefficients sit: each part's
    top times the weight, if below 1, at the first order whose
    coefficient is within a factor 4 of top (_first_near; a _Table found
    it when it was built); and, for a part whose
    weights still rise at its last order (end - 1 <= k*, end <= n), its
    last term |c(end-1)| W(end-1), two bits lower, since the terms
    before it are smaller (600 ones at x = -2 and n = 2000: 88 bits,
    not 541).
    """
    ln2 = math.log(2.0)
    log_w, big, scale = 0.0, -math.inf, -math.inf  # log2 of W, B and S
    for x, c, top, end in spec.rational:
        end, r = min(end, n + 1), abs(x)
        if not end:  # a zero part
            continue

        def weight(k: int) -> float:  # log2 of (n)_k r**k / n**k
            lg = math.lgamma(n + 1) - math.lgamma(n - k + 1)
            return lg / ln2 + k * (math.log2(r) - math.log2(n))

        if r > 1.0:
            k = min(end - 1, int(n * (1.0 - 1.0 / r)))
            log_w = max(log_w, weight(k), weight(min(end - 1, k + 1)))
            if k == end - 1 and end <= n:  # still rising at its last order
                num, den = c(k)
                if num:
                    last = math.log2(abs(num)) - math.log2(den) + weight(k)
                    scale = max(scale, last - 2)
        lb = math.log2(top)
        big = max(big, lb)
        at = 0
        if isinstance(c, _Table):
            at = c.near if r and c.near < end else 0  # 0: none up to n
        elif r:
            at = _first_near(enumerate(map(c, range(end))), top)
        scale = max(scale, lb + min(0.0, weight(at)) if at else lb)
    extra = big - scale + max(0.0, -big) if scale > -math.inf else 0.0
    return 64 + 2 * n.bit_length() + math.ceil(log_w + extra)


def _fixed_part(part, n: int, bits: int) -> tuple[int, int, int]:
    """(A, E, e) for one part (x, c, top, end) at precision P = bits: its
    sum lies in [(A - E) * 2**e, (A + E) * 2**e].

    With x = p/q (q a power of two), the weight 2**P * (n)_k |x|**k / n**k
    runs as t_0 = 2**P and t_k = floor(t_{k-1} * r_k), with the ratio
    r_k = (n-k+1)|p| / (n*q) taken as // n and >> log2 q, and A adds
    +-floor(t_k * |num| / den) for c(k) = (num, den).  A constant c (a
    series._Constant) is read once: the loop sums the weights +-t_k
    alone, as the part (x, 1, 1, end), and _scaled multiplies that sum
    by c.  While the weights grow (the first k* ratios are >= 1) a t_k
    past P + _RENORM bits is cut back to P bits, and the sums with it, so
    the unit is 2**e with e the bits cut less P; from k* on the weights
    only fall and no cut happens.

    The loop stops at min(end, n + 1), from which every coefficient is
    zero or past the sum, or at the first t_k that is 0, after which
    every later one is.

    The bound: floors only round down, so every quantity is at most its
    exact value, and nested floors of nonnegatives are one floor.  Up to
    k*, each t_j >= 2**(P-1), so every weight is low by a relative
    rho <= k* * 2**(1-P); past k*, the ratios are <= 1 and each floor adds
    at most one unit, so weight k is low by rho times itself plus
    k - k* units.  A term's own floor adds less than one unit, and each
    cut of the two sums less than two.  With B = top >= |c(k)|, and
    ceil(B) >= 1 unless every c(k) is 0, E <= rho * (exact absolute sum)
    + R, where R = ceil(B) (m (m+1)/2 + 2 cuts) + (n+1) and m = end-1-k*
    counts the orders read past k*; the exact absolute sum is at most
    the computed one plus E, which gives E <= 2 rho * (computed sum) + 2 R
    for rho <= 1/2.
    """
    x, c, top, end = part
    p, q = x.as_integer_ratio()
    shift = q.bit_length() - 1
    ap = abs(p)
    odd = 1 if p < 0 else 0  # the sign of x**k flips with k
    const = isinstance(c, _Constant)
    top = 1.0 if const else top  # a constant part sums its weights alone
    # The pairs c(0), c(1), ... in order: a _Table's own, c/k's built at C
    # speed; a call per order would cost about twice as much.
    pairs = c
    if isinstance(c, _Reciprocal):
        pairs = chain([(0, 1)], zip(repeat(c[0]), map(mul, repeat(c[1]), count(1))))
    next_pair = None if const else iter(pairs).__next__
    # k* = the number of ratios (n-j+1)|p| / (n*q) >= 1, j = 1..n.
    peak = min(n, max(0, n + 1 + (-n * q // ap))) if ap else 0
    end = min(end, n + 1)
    limit = 1 << (bits + _RENORM)
    t = 1 << bits
    sums = [0, 0]  # the weighted terms added and subtracted
    cut = cuts = 0
    for k in range(end):
        if const:
            sums[k & odd] += t
        else:
            num, den = next_pair()
            if num:
                u = t if num == 1 or num == -1 else t * abs(num)
                if den != 1:
                    u //= den
                sums[(num < 0) ^ (k & odd)] += u
        t = t * ((n - k) * ap) // n >> shift
        if t >= limit:
            d = t.bit_length() - bits
            t >>= d
            sums[0] >>= d
            sums[1] >>= d
            cut += d
            cuts += 1
        elif not t:
            break
    pos, neg = sums
    m = max(0, end - 1 - peak)
    rest = math.ceil(top) * (m * (m + 1) // 2 + 2 * cuts) + n + 1
    err = (peak * (pos + neg) >> (bits - 2)) + 1 + 2 * rest
    if const:
        return _scaled(pos - neg, err, *c, cut - bits)
    return pos - neg, err, cut - bits


def _transient_log2(x: float, n: int) -> float:
    """An upper bound on log2 |T| for T = n! (x/n)**n e**(n/x), from
    Robbins' n! < sqrt(2 pi n) (n/e)**n e**(1/(12n)); the + 1 covers the
    rounding of these few float operations, whose terms stay far below
    2**40 for any n and x the kernels can sum."""
    lg = n * (math.log2(abs(x)) - math.log2(math.e) * (1.0 - 1.0 / x))
    return 0.5 * math.log2(2.0 * math.pi * n) + lg + math.log2(math.e) / (12 * n) + 1


@lru_cache(maxsize=64)
def _ln2(digits: int) -> Decimal:
    """ln 2 correctly rounded to digits digits, computed once per
    precision: decimal's ln takes about 60 us at 38 digits (2 CPUs,
    Python 3.11), and a sweep needs few precisions."""
    return Context(prec=digits).ln(2)


def _transient(x: float, n: int, e: int, b: int) -> tuple[int, int]:
    """(V, err) with |T * 2**-e - V| <= err, for T as in _transient_log2
    and |T| * 2**-e <= 2**b.

    ln |T| = ln(2 pi n) / 2 + n (ln|x| - 1 + 1/x) + sigma, where sigma,
    the Stirling series sum_k B_2k / (2k (2k-1) n**(2k-1)), stopped
    before its first term below 2**-(b+6), is off by less than that term
    (DLMF 5.11(ii): for n > 0 the remainder is below the first term left
    out).  Then |T| * 2**-e = sqrt(n) * exp(y - e ln 2) with
    y = ln(2 pi) / 2 + n (ln|x| - 1) + n/x + sigma, scaled inside decimal
    so that exp gives a number of about b bits, not of log2|T|.  decimal
    rounds ln, exp, sqrt and the four operations correctly, to within
    eps/2 of the result, eps = 10**(1-D).  Each result is below
    Y = n (|ln|x|| + 2) + 2 + |e|, an error in ln|x| (or in |x|, rounded
    to D digits first) is multiplied by n <= Y and one in ln 2 by
    |e| <= Y, so each of the N <= 70 operations that make y - e ln 2 (at
    most 58 for sigma, 8 more for y, then ln 2, its product with e and
    the difference) moves it by at most eps Y; D digits make
    N Y eps <= 2**-(b+6), and _HALF_LN_2PI is off by less than
    2**-(b+6) for b up to 392.  So y - e ln 2 is off by
    a <= 3 * 2**-(b+6), and the computed value, after three more
    roundings (exp, sqrt and their product), by a relative
    2 (a + 2 eps) < 2**-(b+2) of at most 2**b: a quarter unit, and less
    than two once floored.
    When b + 6 is past _HALF_LN_2PI's digits, or no Stirling term up to
    B_60 falls below 2**-(b+6) (n of about 12 and below at b = 96), V is
    0 and err is 2**b.
    """
    tol = -(b + 6)
    if _HALF_LN_2PI_ERROR > tol:
        return 0, 1 << b
    bern = _bernoulli()[0]
    y_max = n * (abs(math.log(abs(x))) + 2) + 2 + abs(e)
    digits = len(str(70 * math.ceil(y_max))) + math.ceil(-tol * math.log10(2)) + 1
    ctx = Context(prec=digits, Emax=MAX_EMAX, Emin=MIN_EMIN)
    sigma = 0
    for k in range(1, len(bern) // 2 + 1):  # B_2, B_4, ..., the table's last
        num, den = bern[2 * k].as_integer_ratio()
        den *= 2 * k * (2 * k - 1) * n ** (2 * k - 1)
        if abs(num).bit_length() - den.bit_length() + 1 <= tol:  # |term| < 2**tol
            break
        sigma = ctx.add(sigma, ctx.divide(num, den))
    else:
        return 0, 1 << b
    # |x| rounded to D digits first: ln of a 50-digit x can take twice as long.
    y = ctx.multiply(n, ctx.subtract(ctx.ln(ctx.plus(Decimal(abs(x)))), 1))
    y = ctx.add(ctx.add(y, ctx.divide(n, Decimal(x))), ctx.add(sigma, _HALF_LN_2PI))
    y = ctx.subtract(y, ctx.multiply(e, _ln2(digits)))
    num, den = ctx.multiply(ctx.exp(y), ctx.sqrt(n)).as_integer_ratio()
    v = num // den
    return (-v if x < 0 and n & 1 else v), 2


def _scaled(a: int, err: int, num: int, den: int, e: int) -> tuple[int, int, int]:
    """(A, E, e + k): a sum within err units of a at the unit 2**e, times
    num/den, at the unit 2**(e+k) with 2**(k-1) < |num/den| < 2**(k+1),
    so that A keeps the bits of a.  A = floor(a num / (den 2**k)), and E
    is err scaled the same way, rounded up, plus one for A's floor."""
    k = abs(num).bit_length() - den.bit_length()
    up, down = max(0, -k), max(0, k)
    a = (a * num << up) // (den << down)
    return a, (err * abs(num) << up) // (den << down) + 2, e + k


def _closed_part(part, n: int, bits: int) -> tuple[int, int, int]:
    """(A, E, e) for one part (x, c, _, math.inf) with a constant c and
    |x| > 1 at precision P = bits, as _fixed_part returns them: its sum
    lies in [(A - E) * 2**e, (A + E) * 2**e].

    With j = n - k the part is c S_n, S_n = n! (x/n)**n
    sum_{j<=n} (n/x)**j / j!: a truncated exponential, so
    S_n = T - R with the boundary transient T = n! (x/n)**n e**(n/x) and
    R = sum_{i>=1} z**i n! / (n+i)!, z = n/x, the Kummer series of the
    lower incomplete gamma function (DLMF 8.7.1).  R's ratios
    r_i = |z| / (n+i) fall from r_1 = n / (|x| (n+1)) < 1, so about
    P / log2|x| terms give P bits.

    The unit is 2**e, e = top - P, with 2**top >= max(1, |T|)
    (_transient_log2), so |S_n| is at most about 2**(P + 1) units.  R's
    magnitudes run, at G = max(-e, 0) bits, as u_0 = 2**G and
    u_i = floor(u_(i-1) * r_i) until the first u_m = 0, with x = p/q and
    r_i = n q / (|p| (n+i)).  Each floor takes less than one unit and
    r_i < 1, so u_i is low by less than i units; the terms before m are
    low by less than m (m-1)/2 units together, and the exact terms from m
    on, the first below m units, sum to less than m / (1 - r_1).  That
    sum, cut down to 2**e by one more floor when e > 0, adds at most two
    units more.  T is left out, as at most one unit, while its bound is
    below 2**e; otherwise _transient gives it within its err.  Last,
    T - R is scaled by c (_scaled).
    """
    x, (num, den), _, _ = part
    p, q = x.as_integer_ratio()
    nq, ap, odd = n * q, abs(p), 1 if p < 0 else 0  # odd: z**i flips sign
    bound = _transient_log2(x, n)
    e = max(0, math.ceil(bound)) - bits
    g = max(-e, 0)
    u, i, sums = 1 << g, 0, [0, 0]  # the terms added and subtracted
    while u:
        i += 1
        u = u * nq // (ap * (n + i))
        sums[i & odd] += u
    r = sums[0] - sums[1]
    err = i * (i - 1) // 2 - (-i * ap * (n + 1) // (ap * (n + 1) - nq))  # m = i
    if g + e:
        r, err = r >> (g + e), (err >> (g + e)) + 2
    t, et = _transient(x, n, e, bits) if bound >= e else (0, 1)
    return _scaled(t - r, err + et, num, den, e)


def _reciprocal_part(part, n: int, bits: int) -> tuple[int, int, int]:
    """(A, E, e) for one part (y, c, _, math.inf) with c(k) = c/k
    (a _Reciprocal) and |y| > 1 at precision P = bits, as _fixed_part
    returns them: its sum lies in [(A - E) * 2**e, (A + E) * 2**e].

    Since (n)_k / k = C(n, k) (k-1)!, the part is c times
    sum_{k=1..n} C(n, k) (k-1)! h**k = h sum_{m=0}^{n-1} G_m, h = y/n,
    by the hockey-stick identity, where G_m = sum_j (m)_j h**j is the
    geometric approximant S_m(y m / n), with G_0 = 1 and
    G_m = 1 + m h G_(m-1).  That step multiplies an error by m |h|, so it
    runs forward, G_1..G_m0, while m |h| <= 1, and backward (Miller's
    idea; Gautschi, SIAM Review 9, 1967), G_(m-1) = (G_m - 1) / (m h)
    from G_(n-1) down to G_(m0+1), where m |h| > 1 divides the error
    instead.  The backward run starts from G_n = S_n(y), which
    _closed_part gives within E_n at the unit 2**e (moved to 2**0 when
    e > 0, so that 1 is a whole number of units).

    The bound: each step's floor takes less than one unit, and neither
    direction lets an error grow, so the forward G_m are off by less than
    m units and the backward ones by less than E_n + (n - m).  Summed,
    with b = n - 1 - m0 the backward values, the G_m are off by at most
    m0 (m0+1)/2 + b E_n + b (b+1)/2 units.  The sum is then scaled by
    c h = num p / (den n q), y = p/q (_scaled).  The error is about
    n**2 / 2 units before the scaling divides it by about n / |y|, so P
    of 64 + 2 log2(n) bits leaves 64 and more over S_n's order-one scale.
    """
    y, (num, den), _, _ = part
    p, q = y.as_integer_ratio()
    nq = n * q
    g, err_n, e = _closed_part((y, _Constant((1, 1)), 1.0, math.inf), n, bits)
    if e > 0:
        g, err_n, e = g << e, err_n << e, 0
    one = 1 << -e
    m0 = min(n - 1, nq // abs(p))  # the last m with m |h| <= 1
    total = f = one  # G_0
    for m in range(1, m0 + 1):
        f = one + m * p * f // nq
        total += f
    for m in range(n, m0 + 1, -1):
        g = (g - one) * nq // (m * p)
        total += g
    b = n - 1 - m0
    err = m0 * (m0 + 1) // 2 + b * err_n + b * (b + 1) // 2
    return _scaled(total, err, num * p, den * nq, e)


def _kernel(parts, n: int, bits: int) -> Optional[list]:
    """The route (kernel, part, P) of each of a series' rational parts:
    the kernel _fixed_sum sums the part with, and its starting precision;
    or None where the series goes to the product tree.

    A part past |x| = 1 whose coefficients never end takes a kernel of its
    own where that is cheap: _closed_part at _CLOSED_BITS for a constant
    coefficient, or _reciprocal_part at 64 + 2 log2(n) bits for c/k where
    the fixed kernel needs _RECIPROCAL_GAIN sqrt(n) bits more and the
    product tree is not the cheaper; either only when its transient
    (_transient_log2) is below its first bit or the fixed kernel's work
    n * bits reaches _CLOSED_WORK.  Any other part takes _fixed_part at
    bits, unless the product tree is the cheaper (_TREE_RATIO)."""
    s = max(sum(map(int.bit_length, x.as_integer_ratio())) for x, *_ in parts)
    s += n.bit_length()
    routes = []
    for part in parts:
        x, c, _, end = part
        route = _fixed_part, part, bits
        if end == math.inf and abs(x) > 1.0:
            bound, kernel = _transient_log2(x, n), None
            if isinstance(c, _Constant):
                kernel, start = _closed_part, _CLOSED_BITS
            elif isinstance(c, _Reciprocal):
                start = 64 + 2 * n.bit_length()
                # Past 2**start the recurrence's integers carry the
                # transient's bits, about half of them on average over its
                # run.  For log1p_taylor the product tree is as fast from x
                # of about 1e3 at n = 2000 and 1e4 at n = 400 (2 CPUs,
                # Python 3.11).
                cheap = _TREE_RATIO * max(start, bound) <= 2 * n * s
                if cheap and bits - start >= _RECIPROCAL_GAIN * math.sqrt(n):
                    kernel = _reciprocal_part
            if kernel and (n * bits >= _CLOSED_WORK or bound < -start):
                route = kernel, part, start
        if route[0] is _fixed_part and _TREE_RATIO * bits > n * s:
            return None
        routes.append(route)
    return routes


def _settle(routes: list, n: int) -> Optional[float]:
    """The double that S_n rounds to, from the sums of the routes
    (kernel, part, P) at P, 2P and 4P, or None if no pass settles.

    Each kernel gives its part's sum within E units of A at the unit 2**e;
    put on the finest of their units, the parts' A and E add up, so the
    exact S_n lies in [(A - E) * 2**e, (A + E) * 2**e].  Rounding is
    monotone and rounded is correct, so when both ends round to the same
    nonzero double, S_n rounds to it too (Ziv's strategy).  A sum exactly
    zero, or exactly halfway between two doubles, settles at no precision.
    """
    for d in range(3):
        sums = [kernel(part, n, p << d) for kernel, part, p in routes]
        low = min(e for _, _, e in sums)
        total = sum(a << (e - low) for a, _, e in sums)
        err = sum(err << (e - low) for _, err, e in sums)
        up, den = 1 << max(0, low), 1 << max(0, -low)  # 2**low
        lo = rounded((total - err) * up, den)
        if lo and lo == rounded((total + err) * up, den):
            return lo
    return None


def _fixed_sum(spec: SeriesSpec, n: int) -> float:
    """S_n from the series' rational form, correctly rounded, as
    _exact_sum returns it: P sized by _fixed_bits, each part routed by
    _kernel, and the parts settled together (_settle).

    A part _kernel sends to the product tree, a top past double range (no
    P can be sized from it) and a sum that does not settle go to
    _exact_sum.  A sum that settles past double range raises NumericError
    at once, as _exact_sum does, since the proven bound already decides it.
    """
    routes = None
    if all(top < math.inf for _, _, top, _ in spec.rational):
        routes = _kernel(spec.rational, n, _fixed_bits(spec, n))
    value = _settle(routes, n) if routes else None
    if value is None:
        return _exact_sum(spec, n)
    if math.isinf(value):
        raise NumericError(f"weighted sum overflows at order {n}")
    return value


def _checked(value: float, spec: SeriesSpec, n: int, overflow: str) -> float:
    """value when it is finite; otherwise NumericError naming the first of
    a_0..a_n that is not finite, or, when all are, with message overflow."""
    if math.isfinite(value):
        return value
    terms = enumerate(islice(spec.terms(), n + 1))
    k = next((k for k, t in terms if not math.isfinite(t)), None)
    raise NumericError(overflow if k is None else f"non-finite term at index {k}")


def _guarded_sum(
    spec: SeriesSpec, n: int, row: Sequence[float], stream: Iterator[float], norm: float
) -> float:
    """S_n of spec, a series without a rational form, as
    sum_k row[k] * x_k / norm over the first n + 1 values x_k of stream,
    a sequence built from its terms, summed by special.rounded_mean.

    The values past the row, where every weight is below
    sys.float_info.min, are read only to check that they are finite, so
    terms there large enough to move the sum are missed.  A value that
    is not finite, or a sum past double range, raises NumericError
    (_checked), naming the first term that is not finite if there is one.
    """
    # The row comes first, so map stops after len(row) values and never
    # pulls the value past them; islice then stops at x_n.
    terms = list(map(mul, row, stream))
    past = all(map(math.isfinite, islice(stream, n + 1 - len(row))))
    value = rounded_mean(terms, norm) if past else math.nan
    return _checked(value, spec, n, f"weighted sum overflows at order {n}")


def chi_sum(spec: SeriesSpec, n: int) -> float:
    """chi approximant S_n = sum_{k=0..n} w(k) * a_k (first defining form).

    A series with a rational form gets S_n correctly rounded from
    _fixed_sum, which reads no term and builds no weight row.  Any other
    series takes the guarded double sum of the terms a_0..a_n under
    chi_row(n) (_guarded_sum).  A non-integer n, or n < 1, raises
    DomainError.
    """
    n = _order(n)
    if spec.rational is not None:
        return _fixed_sum(spec, n)
    return _guarded_sum(spec, n, chi_row(n), spec.terms(), 1.0)


def chi_limit(spec: SeriesSpec, n: int) -> float:
    """Weighted average of the partial sums s_0..s_n under the averaging
    row (second defining form); algebraically equal to chi_sum.

    A series with a rational form gets the same correctly rounded S_n as
    from chi_sum.  Any other series takes the guarded double sum over
    the partial sums, normalised by the row's sum.  Each averaging
    weight past the row is k*w(k)/n <= w(k) < sys.float_info.min, so the
    partial sums there are read and checked, not summed: one that is not
    finite raises NumericError, as a term past double range does.  A non-integer
    n, or n < 1, raises DomainError.
    """
    n = _order(n)
    if spec.rational is not None:
        return _fixed_sum(spec, n)
    a = averaging_row(n)
    return _guarded_sum(spec, n, a, _running_sums(spec), math.fsum(a))


def classify_convergence(approximants: Sequence[float], n_grid: Sequence[int]) -> str:
    """Verdict from the successive differences of a grid of approximants.

    Converged when the last difference is within max(1e-6, 1e-4 * |last
    approximant|).  Otherwise the rule reads the last two or three
    differences: diverging when they are nondecreasing and the last is at
    least twice the first, converged when they are strictly decreasing,
    inconclusive otherwise.
    """
    if len(approximants) < 3 or len(approximants) != len(n_grid):
        raise DomainError("need at least 3 grid points with approximants")
    d = [abs(b - a) for a, b in pairwise(approximants)]
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

    A series whose rational form is one part (x, c, _, _) with |x| >= 1
    is ruled out without reading a term when, at k = n//2, c(k) or
    c(k+1) is 0 or |x| |c(k+1) / c(k)| >= 1 + 2**-40 (in integers): then
    the first pair of the window has |a_k| = 0, a term that is not
    finite, or |a_(k+1)| >= |a_k| (SeriesSpec states the stream's
    accuracy), and the ratio test stops there.  Nothing wider is ruled
    out: parts can cancel (geometric -1.5 and 0.5 weighted 1e-300 and 1
    settle at n = 400), coefficients can fall faster than x**k grows
    (custom 0.1**k at x = 2 settles at n = 200), and at |x| < 1 x**k can
    leave the normal range, where a rounding is no longer a few ulps.
    """
    if spec.asymptotic_only:
        return None
    k = n // 2
    if spec.rational and len(spec.rational) == 1:
        x, c, _, _ = spec.rational[0]
        (num, den), (num1, den1) = c(k), c(k + 1)
        p, q = x.as_integer_ratio()
        if abs(p) >= q and (
            not num * num1
            or abs(p * num1 * den) << 40 >= ((1 << 40) + 1) * q * den1 * abs(num)
        ):
            return None
    rho = 0.0
    window = islice(spec.terms(), k, n + 1)
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
    are the same with or without accelerate.  The verdict is None below
    three orders; error.observed is exact - the last approximant where
    the exact value is known and the difference finite, error.predicted
    the leading error at the last order where f''(x) and x are known.  A
    non-integer order, or one below 1, raises DomainError.
    """
    grid = tuple(map(_order, n_grid))
    if not grid or any(b <= a for a, b in pairwise(grid)):
        raise DomainError("n-grid must be nonempty and strictly increasing")
    approx = tuple(chi_sum(spec, n) for n in grid)
    verdict = classify_convergence(approx, grid) if len(grid) >= 3 else None
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

    predicted = observed = None
    if spec.second_derivative is not None and spec.x is not None:
        # Every catalog, custom and combined series is a power series
        # about 0, so that is the base point.
        predicted = predicted_error(spec.second_derivative, spec.x, 0.0, grid[-1])
    if spec.exact_value is not None:
        observed = observed_error(approx[-1], spec.exact_value)
        if not math.isfinite(observed):  # a difference of two doubles may overflow
            observed = None

    return ChiResult(
        n_grid=grid,
        approximants=approx,
        value=value,
        verdict=verdict,
        error=ErrorEstimate(predicted=predicted, observed=observed),
        accelerated=accelerated,
    )


def cesaro_mean(spec: SeriesSpec, n: int) -> float:
    """Arithmetic mean of the partial sums s_0..s_n ((C,1) mean), by
    special.rounded_mean.  A term that is not finite raises NumericError
    naming its index, and so does a partial sum past double range; a
    non-integer n, or n < 0, raises DomainError.
    """
    n = _order(n, 0)
    mean = rounded_mean(partial_sums(spec, n), n + 1)
    return _checked(mean, spec, n, f"partial sums overflow by order {n}")


def _binomial_tails(n: int) -> Iterator[int]:
    """T_i = sum_{m=i+1..n+1} C(n+1, m) = T_{i-1} - C(n+1, i), i = 0..n."""
    tail, binom = (1 << (n + 1)) - 1, 1  # T_i and C(n+1, i), at i = 0
    for i in range(1, n + 2):
        yield tail
        binom = binom * (n + 2 - i) // i
        tail -= binom


def _floor_scaled(x: float, s: int) -> int:
    """floor(x * 2**s) for a finite double x."""
    p, q = x.as_integer_ratio()
    return (p << s) // q if s >= 0 else p // (q << -s)


def _abs_sum_up(values: Sequence[float], s: int) -> int:
    """An int at least 2**s times the exact sum of |values|, from their
    float sum: a float sum of m nonnegative doubles is at least the exact
    one over 1 + m 2**-52.  A value that is not finite raises
    OverflowError or ValueError."""
    total = -_floor_scaled(-sum(map(abs, values)), s)  # rounded up
    return (total * ((1 << 52) + len(values)) >> 52) + 1


def _euler_part(a: Sequence[float], n: int, bits: int) -> tuple[int, int, int]:
    """(A, E, e) for the Euler mean E_n = sum_i a_i w_i of the double
    terms a = a_0..a_n at precision P = bits, as _fixed_part returns
    them: E_n lies in [(A - E) * 2**e, (A + E) * 2**e].

    The weights w_i = sum_{m>i} p_m are the tails of the binomial pmf
    p_m = C(N, m) / 2**N, N = n + 1, whose mode is M = N // 2.  At the
    unit 2**-P the pmf starts from q_M = floor(C(N, M) 2**(P-N)) (one
    math.comb) and walks outward, q_(m+1) = floor(q_m (N-m) / (m+1)) up
    and q_(m-1) = floor(q_m m / (N-m+1)) down, to the first q that is 0,
    at m_hi above and m_lo below (N + 1 and -1 where the walk reaches the
    end).  No ratio exceeds 1, so each floor adds at most one unit to
    what the q before it lacks: 0 <= p_m 2**P - q_m < |m - M| + 1.  Past
    the walk the ratios keep falling, so sum_{m>=m_hi} p_m is at most
    p_(m_hi) (m_hi + 1) / (2 m_hi + 1 - N), and sum_{m<=m_lo} p_m, by
    the symmetry p_m = p_(N-m), at most
    p_(m_lo) (N - m_lo + 1) / (N - 2 m_lo + 1): tau_hi and tau_lo units,
    rounded up.

    So for i < M the weight 2**P - sum_{m_lo<m<=i} q_m is at most
    eps_lo = tau_lo + J (J + 3) / 2 units above the exact one, J the q's
    walked below M, and for i >= M the weight sum_{i<m<m_hi} q_m at most
    eps_hi = tau_hi + H (H + 3) / 2 below it, H those walked above.  The
    weight is 2**P for i <= m_lo and 0 for i >= m_hi - 1, so only the
    band between reads its terms one at a time.  A is 2**P (hi + lo),
    hi + lo the terms below M summed by two fsums (within 2**-53 |lo| of
    their sum), less each band term below M times its running sum of q,
    plus each band term from M on times its running sum from m_hi down.
    The band's terms are whole at the unit 2**-k, k = 53 less the binary
    exponent of its smallest nonzero |a_i|, so A's unit is 2**-(P+k).  E
    is eps_lo times a bound on sum_{i<M} |a_i| plus eps_hi times one on
    sum_{i>=M} |a_i| (_abs_sum_up), so a large term past the band widens
    E by its own size and can still decide the mean; plus 2**-53 |lo|
    and 2 for the floors of hi and lo.  Where the band's terms span more
    exponents than a double holds, ldexp raises OverflowError; a term
    that is not finite raises OverflowError or ValueError.
    """
    N, M = n + 1, (n + 1) // 2
    mode = math.comb(N, M)
    mode = mode >> (N - bits) if N >= bits else mode << (bits - N)
    below, t = [], mode  # q_(M-1), q_(M-2), ..., q_(m_lo+1)
    for m in range(M, 0, -1):
        t = t * m // (N - m + 1)
        if not t:
            break
        below.append(t)
    above, t = [], mode  # q_(M+1), ..., q_(m_hi-1)
    for m in range(M, N):
        t = t * (N - m) // (m + 1)
        if not t:
            break
        above.append(t)
    j, h = len(below), len(above)
    m_lo, m_hi = M - 1 - j, M + 1 + h
    eps_lo, eps_hi = j * (j + 3) // 2, h * (h + 3) // 2
    if m_lo >= 0:  # + tau_lo, -(-x // y) rounding x / y up
        eps_lo += -(-(M - m_lo + 1) * (N - m_lo + 1) // (N - 2 * m_lo + 1))
    if m_hi <= N:
        eps_hi += -(-(m_hi - M + 1) * (m_hi + 1) // (2 * m_hi + 1 - N))
    head, tail = a[:M], a[M:]
    low, high = a[m_lo + 1 : M], a[M : m_hi - 1]
    small = min(filter(None, map(abs, chain(low, high))), default=1.0)
    k = 53 - math.frexp(small)[1]
    s = bits + k
    hi = math.fsum(head)
    lo = math.fsum(chain(head, (-hi,)))
    lo_units = _floor_scaled(lo, s)
    total = _floor_scaled(hi, s) + lo_units
    whole = map(int, map(math.ldexp, low, repeat(k)))
    total -= sum(map(mul, whole, accumulate(reversed(below))))
    whole = map(int, map(math.ldexp, reversed(high), repeat(k)))
    total += sum(map(mul, whole, accumulate(reversed(above))))
    err = eps_lo * _abs_sum_up(head, k) + eps_hi * _abs_sum_up(tail, k)
    return total, err + (abs(lo_units) >> 53) + 3, -s


# Euler's mean takes the fixed-point kernel while _EULER_RATIO times its
# precision is at most n + 1.  Below that the exact dot over
# _binomial_tails is as fast or faster (2 CPUs, Python 3.11): grandi,
# whose terms are small integers, at n = 100, 150 and 200 takes 42, 63
# and 80 us exact against 54, 68 and 81 us in fixed point at P = 88-89,
# and the fixed point wins from n = 250 (93 against 102 us); alt_log
# wins from n = 100 (68 against 77 us) and by 1.5x at n = 200.
_EULER_RATIO = 2


def _euler_fixed(a: Sequence[float], n: int) -> Optional[float]:
    """E_n of the terms a, correctly rounded, from _euler_part settled by
    _settle; None where a term is not finite, P is past
    (n + 1) / _EULER_RATIO, the band's terms span more exponents than a
    double holds, or no pass settles (a mean of 0, or one halfway
    between two doubles).

    E is at most about n P / 4 units per unit of sum |a_i|, so P is
    64 + 2 log2(n) guard bits over log2(sum |a_i| / S), with S the scale
    E_n is guessed at: the larger of |a_0 + ... + a_(M-1)| and |a_M| / 2.
    E_n is the binomial average of the partial sums around M, and those
    of an alternating series swing about their limit by half a term.  A
    sum that cancels far below that goes to the exact dot at once:
    geometric x = -1.9 at n = 1000, with terms up to 1e278, gets P = 550.
    """
    m = (n + 1) // 2
    l1 = sum(map(abs, a))  # inf or nan where a term is not finite
    scale = max(abs(sum(a[:m])), abs(a[m]) / 2)
    if not (math.isfinite(l1) and 0.0 < scale < math.inf):
        return None
    bits = 64 + 2 * n.bit_length()
    bits += max(0, math.ceil(math.log2(l1) - math.log2(scale)))
    if _EULER_RATIO * bits > n + 1:
        return None
    try:
        return _settle([(_euler_part, a, bits)], n)
    except OverflowError:  # ldexp past double range
        return None


def _euler_mean(a: Sequence[float], n: int) -> float:
    """E_n of the double terms a = a_0..a_n, correctly rounded: by
    _euler_fixed, else the exact dot over _binomial_tails; nan where a
    term is not finite."""
    mean = _euler_fixed(a, n)
    if mean is None:
        try:
            mean = rounded_dot(a, _binomial_tails(n), 1 << (n + 1))
        except (OverflowError, ValueError):  # inf and nan have no ratio
            mean = math.nan
    return mean


def euler_transform(spec: SeriesSpec, n: int) -> float:
    """(E,1) mean of a_0..a_n, the Euler transform
    sum_{j=0..n} (-1)^j (D^j b)(0) / 2^(j+1) of b_k = (-1)^k a_k, with D
    the forward difference; exact in the double terms, rounded once.

    Expanding the differences gives one weighted sum,
    E_n = sum_i a_i * T_i / 2^(n+1) with T_i = sum_{m=i+1..n+1} C(n+1, m),
    since sum_{j=i..n} C(j, i) / 2^(j+1) = P(Bin(n+1, 1/2) >= i+1)
    (Hardy, Divergent Series, ch. 8).  Where its terms allow,
    _euler_fixed settles E_n in fixed point over the band of weights
    that are neither 0 nor 1 at P bits (_euler_part): O(n) term reads at
    C speed and O(sqrt(n P)) steps on P-bit integers.  Otherwise
    rounded_dot puts the terms over one power-of-two denominator and
    _binomial_tails walks T_0..T_n, n steps on (n+1)-bit integers, so
    O(n**2) bit operations.  Both give the correctly rounded mean of the
    double terms.  Its error is then the rounding of the terms: on
    alt_log at n = 100..2000 it is 12 to 190 ulp from a 60-digit mean of
    the exact terms (the difference table's was 5 to 156).  A term that
    is not finite raises NumericError naming its index; a mean past
    double range raises NumericError, and a non-integer n, or n < 1,
    DomainError.
    """
    n = _order(n)
    a = list(islice(spec.terms(), n + 1))
    return _checked(_euler_mean(a, n), spec, n, f"Euler mean overflows at order {n}")


# Abel's inner series ends once its rest falls below _ABEL_TOL of the
# running sum, and fails after _ABEL_TERMS terms.  A series with a
# moment bound starts its Euler mean at order _ABEL_FIRST.
_ABEL_TOL = 1e-16
_ABEL_TERMS = 10**6
_ABEL_FIRST = 4


def _abel_tail(spec: SeriesSpec, r: float, k: int) -> float:
    """A bound on sum_{j>k} |a_j| r**j from spec's rational form: each
    part (x, c, top, end) with k+1 < end adds top * z**(k+1) / (1 - z),
    z = |x| r, and is inf when z >= 1."""
    parts = [(t, abs(x) * r) for x, _, t, end in spec.rational if k + 1 < end]
    if any(z >= 1.0 for _, z in parts):
        return math.inf
    return sum(t * z ** (k + 1) / (1.0 - z) for t, z in parts)


def _small_pair(block: list, hi: float, before: bool) -> int:
    """The count of block's terms, summed on from hi, up to the first that
    and the term before it (for the first, `before`) are both at or below
    _ABEL_TOL of the running sum; 0 when there is none."""
    # No running sum exceeds |hi| + len * max|t|, and a pair of terms has
    # one at an even index: when none of those is at or below twice
    # _ABEL_TOL of that bound, the per-term scan is skipped.
    bound = abs(hi) + len(block) * math.hypot(*block)
    if abs(min(block[::2], key=abs)) > 2 * _ABEL_TOL * bound:
        return 0
    sums = islice(accumulate(block, initial=hi), 1, None)
    small = list(map(le, map(abs, block), map(mul, map(abs, sums), repeat(_ABEL_TOL))))
    return next(compress(count(1), map(and_, chain((before,), small), small)), 0)


def _abel_moments(spec: SeriesSpec, r: float) -> float:
    """A(r) for a series with a moment bound: E_m, the correctly rounded
    (E,1) mean (_euler_mean) of the m + 1 double terms a_k * r**k, at the
    first m of _ABEL_FIRST, 2 _ABEL_FIRST, 4 _ABEL_FIRST, ... whose
    spec.moment_bound(m) is at most _ABEL_TOL |E_m|.  So A(r) lies within
    that bound (proved in the SeriesSpec docstring) of the Abel sum of
    the exact terms, plus the rounding of the m + 1 double terms.  No
    Euler weight exceeds 1, so |E_m| <= sum |b_k|, and E_m is computed
    only at orders whose bound is within _ABEL_TOL of that sum.  Each
    catalog bound is 0.0 in double by m = 2048 and the catalog's terms
    are finite, so the doubling ends."""
    weighted = map(mul, spec.terms(), map(pow, repeat(r), count()))
    m, b = _ABEL_FIRST, list(islice(weighted, _ABEL_FIRST + 1))
    while True:
        bound = spec.moment_bound(m)
        if bound <= _ABEL_TOL * math.fsum(map(abs, b)):
            mean = _euler_mean(b, m)
            if bound <= _ABEL_TOL * abs(mean):
                return mean
        b.extend(islice(weighted, m))
        m *= 2


def abel_estimate(
    spec: SeriesSpec, radii: Sequence[float], extrapolate: bool = False
) -> float:
    """Abel-style evaluation: A(r) = sum a_k r^k at each radius.

    A series with a moment bound (grandi, alternating_unit, alt_log,
    alt_harmonic_numbers) takes A(r) as the Euler mean of its first
    m + 1 weighted terms, m doubled from _ABEL_FIRST until the proven
    bound on the mean's error falls below 1e-16 of it (_abel_moments):
    65 terms a radius at the CLI's radii.  Its value is then the Abel
    sum of the exact series to within that bound and the rounding of
    the double terms, not a truncation of the double series.

    Any other series reads a fresh stream at each radius in blocks of
    2, 4, ... up to 512 terms weighted by the running products r**k, by
    truncation once the rest falls below 1e-16 of the running sum;
    math.fsum adds each block to hi + lo, which carries the sum of the
    weighted terms read to about 106 bits, hi rounded to double.  A
    series with a rational form stops at the end of a block whose last
    term and rest, bounded in closed form (_abel_tail), fall below the
    threshold, so a run of zero coefficients does not end the sum.  Any
    other series stops at its first two consecutive terms below it
    (_small_pair), wherever in a block they fall: an asymptotic series'
    small terms may not last.

    Returns A at the last radius, or the linear extrapolation of the
    last two values in (1 - r) -> 0 when extrapolate is set.  Raises
    AbelRadiusError when a term or the running sum of the inner series
    is not finite, when it does not reach its tail threshold within
    10^6 terms or before its stream ends, or when the extrapolation
    leaves double range.
    """
    rs = tuple(float(r) for r in radii)
    if not rs or any(not (0.0 < r < 1.0) for r in rs):
        raise DomainError("radii must be in (0, 1)")
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise DomainError("radii must be increasing")

    values = []
    for r in rs:
        if spec.moment_bound:
            values.append(_abel_moments(spec, r))
            continue
        # map pulls one power per term it reads, so the powers are the
        # running products 1, r, r*r, ... however the blocks fall.
        weighted = map(mul, spec.terms(), accumulate(repeat(r), mul, initial=1.0))
        hi = lo = 0.0
        k, m, below = 0, 2, False  # terms read, next block length, last small
        while k < _ABEL_TERMS:
            m, block, end = min(m, _ABEL_TERMS - k), [], 0
            try:  # extend keeps the terms read before an exception
                block.extend(islice(weighted, m))
            except DomainError:  # a finite stream, such as bernoulli_power
                pass
            short = len(block) < m
            if spec.rational is None and block:
                end = _small_pair(block, hi, below)
                del block[end or len(block) :]
            try:
                s = math.fsum(chain((hi, lo), block))
                lo = math.fsum(chain((hi, lo, -s), block))
            except (OverflowError, ValueError):  # past range, or inf - inf
                s = math.inf
            if not math.isfinite(s):  # name the first running sum past range
                sums = enumerate(accumulate(block, initial=hi), k - 1)
                k = next((j for j, t in sums if not math.isfinite(t)), k + m - 1)
                raise AbelRadiusError(
                    f"inner series overflowed at radius {r} (term {k})"
                )
            hi, k, m = s, k + len(block), min(2 * m, 512)
            small = _ABEL_TOL * abs(hi)
            below = bool(block) and abs(block[-1]) <= small
            if end or spec.rational and below and _abel_tail(spec, r, k - 1) <= small:
                break
            if short:
                raise AbelRadiusError(
                    f"inner series has only {k} terms, too few at radius {r}"
                )
        else:
            raise AbelRadiusError(
                f"inner series did not reach its tail threshold at radius {r}"
            )
        values.append(hi)

    if not extrapolate or len(values) == 1:
        return values[-1]
    t1, t2 = 1.0 - rs[-2], 1.0 - rs[-1]
    a1, a2 = values[-2], values[-1]
    value = (a2 * t1 - a1 * t2) / (t1 - t2)
    if not math.isfinite(value):
        raise AbelRadiusError(
            f"extrapolation from radii {rs[-2]} and {rs[-1]} leaves double range"
        )
    return value
