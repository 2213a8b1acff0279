"""Oracles outside the library: each computes a method's value from its
definition, without calling chisum, for the tests to check the library
and its pins against: exactly, in Fractions from math.comb, or in mpmath
far past double precision."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count, cycle, islice

import mpmath


@lru_cache(maxsize=8)
def _binomial_tails(big_n: int) -> tuple[int, ...]:
    """T_i = sum_{m=i+1..N} C(N, m) for i = 0..N-1, each C(N, m) from
    math.comb."""
    tails = accumulate(math.comb(big_n, m) for m in range(big_n, 0, -1))
    return tuple(reversed(tuple(tails)))


def euler_mean(terms) -> Fraction:
    """The (E,1) mean of the double terms a_0..a_n, exactly:
    sum_i a_i T_i / 2**N with N = n + 1 and T_i / 2**N the binomial tail
    P(Bin(N, 1/2) >= i+1) (Hardy, Divergent Series, ch. 8).  Every term's
    denominator is a power of two, so the numerators are put over the
    largest."""
    ratios = [Fraction(a) for a in terms]
    den = max(r.denominator for r in ratios)
    tails = _binomial_tails(len(ratios))
    num = sum(r.numerator * (den // r.denominator) * t for r, t in zip(ratios, tails))
    return Fraction(num, den << len(ratios))


def _alt_log():
    for k in count():
        yield (-1) ** k * mpmath.log(k + 1)


def _alt_harmonic_numbers():
    h = mpmath.mpf(0)
    for k in count():
        h += mpmath.mpf(1) / (k + 1)
        yield (-1) ** k * h


# name -> the terms a_0, a_1, ... in mpmath, from each series' definition
# and at the working precision the caller sets.
DEFINITIONS = {
    "grandi": lambda: cycle((1, -1)),
    "alt_log": _alt_log,
    "alt_harmonic_numbers": _alt_harmonic_numbers,
}


def _fraction(x) -> Fraction:
    man, exp = x.man_exp  # of |x|
    return (-1 if x < 0 else 1) * Fraction(man) * Fraction(2) ** exp


@lru_cache(maxsize=None)
def abel_sum(name: str, r: float, digits: int = 20) -> Fraction:
    """sum_k a_k r**k for the series name, to a relative 10**-digits or
    so: its terms from DEFINITIONS summed one by one at digits + 5
    digits, up to the first that is below 10**-digits of the sum and no
    larger than the one before.  The ratio |a_(k+1)| r / |a_k| of these
    alternating series does not grow with k, so from there on their
    terms fall in size and the rest is smaller than that term."""
    with mpmath.workdps(digits + 5):
        eps, rk = mpmath.mpf(10) ** -digits, mpmath.mpf(1)
        total, last = mpmath.mpf(0), mpmath.inf
        for a in DEFINITIONS[name]():
            t = a * rk
            total += t
            if abs(t) < eps * abs(total) and abs(t) <= last:
                return _fraction(total)
            last, rk = abs(t), rk * r


def moment_mean(name: str, r: float, m: int, digits: int = 40) -> Fraction:
    """The (E,1) mean of the exact weighted terms a_k r**k, k = 0..m, of
    the series name, to a relative 10**-digits or so."""
    tails = _binomial_tails(m + 1)
    with mpmath.workdps(digits):
        terms = zip(count(), DEFINITIONS[name](), tails)
        total = mpmath.fsum(a * mpmath.mpf(r) ** k * t for k, a, t in terms)
        return _fraction(total / mpmath.mpf(2) ** (m + 1))
