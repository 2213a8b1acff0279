"""Oracles outside the library: each computes a method's value from its
definition in exact arithmetic, without calling chisum, for the tests to
check the library and its pins against."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate


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
