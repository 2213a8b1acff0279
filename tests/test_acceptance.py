"""Acceptance gate: eleven end-to-end criteria, one test each.

Every test prints exactly one line, `[acceptance] criterion NN <label>:
PASS|FAIL`, with the failing sub-checks appended.  Run with `pytest -s`
to see the lines for passing criteria too.
"""

import math
import random
import time

from chisum.error_model import observed_error, predicted_error, rate_fit
from chisum.series import catalog_lookup, combine
from chisum.special import bernoulli_gen_fn, solve_kappa
from chisum.summation import chi_limit, chi_sum, chi_sweep
from chisum.weights import averaging_row, chi_row, exp_approx_gap

# The Euler-Mascheroni constant, rounded to double precision.
EULER_GAMMA = 0.5772156649015329


def _report(num: int, label: str, failures: list) -> None:
    status = "FAIL" if failures else "PASS"
    line = f"[acceptance] criterion {num:02d} {label}: {status}"
    if failures:
        line += " -- " + "; ".join(failures)
    print(line, flush=True)
    assert not failures, line


# Reference table for the Bernoulli power series, frozen to 4 decimals:
# weighted sums at n = 20, 25, 30 and the generating-function row.
_TABLE_X = (-1.0, -0.7, -0.2, 0.0, 0.2, 0.7, 1.0)
_TABLE_ROWS = {
    20: (0.6407, 0.7227, 0.9063, 1.000, 1.1063, 1.4227, 1.6407),
    25: (0.6415, 0.7233, 0.9064, 1.000, 1.1064, 1.4233, 1.6415),
    30: (0.6425, 0.7236, 0.9064, 1.000, 1.1064, 1.4236, 1.6425),
}
_TABLE_EXACT = (0.6449, 0.7255, 0.9066, 1.000, 1.1066, 1.4255, 1.6449)


def test_criterion_01_bernoulli_table():
    failures = []
    for n, row in sorted(_TABLE_ROWS.items()):
        for x, want in zip(_TABLE_X, row):
            got = chi_sum(catalog_lookup("bernoulli_power", x=x), n)
            if abs(got - want) > 1e-4:
                failures.append(f"n={n} x={x}: {got:.4f} != {want:.4f}")
    for x, want in zip(_TABLE_X, _TABLE_EXACT):
        got = bernoulli_gen_fn(x)
        if abs(got - want) > 1e-4:
            failures.append(f"exact x={x}: {got:.4f} != {want:.4f}")
    _report(1, "bernoulli power-series table", failures)


def test_criterion_02_alternating_examples_n100():
    cases = [
        ("alt_harmonic_numbers", 0.3476),
        ("alt_log", -0.2261),
        ("grandi", 0.4987),
    ]
    failures = []
    for name, want in cases:
        got = chi_sum(catalog_lookup(name), 100)
        if abs(got - want) > 1e-4:
            failures.append(f"{name}: {got:.4f} != {want:.4f}")
    _report(2, "alternating examples at n=100", failures)


def test_criterion_03_geometric_error_check():
    failures = []
    spec = catalog_lookup("geometric", x=-2.0)
    obs = observed_error(chi_sum(spec, 40), 1.0 / 3.0)
    pred = predicted_error(spec.second_derivative, -2.0, 0.0, 40)
    if abs(obs - 0.0037) > 5e-5:
        failures.append(f"observed {obs:.6f} != 0.0037")
    if abs(pred - 0.0037037) > 1e-7:
        failures.append(f"predicted {pred:.8f} != 0.0037037")
    if abs(obs / pred - 1.0) > 0.02:
        failures.append(f"ratio {obs / pred:.4f} off by more than 2%")
    _report(3, "geometric error prediction at n=40", failures)


def test_criterion_04_log_error_check():
    failures = []
    spec = catalog_lookup("log1p_taylor", x=3.0)
    obs = observed_error(chi_sum(spec, 30), math.log(4.0))
    pred = predicted_error(spec.second_derivative, 3.0, 0.0, 30)
    if abs(obs - (-0.0091)) > 5e-5:
        failures.append(f"observed {obs:.6f} != -0.0091")
    if abs(pred - (-0.009375)) > 1e-7:
        failures.append(f"predicted {pred:.8f} != -0.009375")
    _report(4, "log error prediction at n=30", failures)


def test_criterion_05_boundary_constant():
    failures = []
    k = solve_kappa(1e-10)
    lo, hi = 3.0, 4.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if mid * math.log(mid) - mid - 1.0 < 0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    if abs(k - oracle) > 1e-10:
        failures.append(f"{k!r} vs bisection {oracle!r}")
    if round(k, 4) != 3.5911:
        failures.append(f"rounds to {round(k, 4)} != 3.5911")
    _report(5, "summability boundary constant", failures)


def test_criterion_06_first_moment_and_form_equivalence():
    failures = []
    for n in range(1, 1001):
        w = chi_row(n)
        gap = abs(math.fsum(k * wk for k, wk in enumerate(w)) - n)
        if gap > 1e-12 * n:
            failures.append(f"first moment off at n={n}: {gap:g}")
            break
    rng = random.Random(20240817)
    for i in range(50):
        spec = catalog_lookup(
            "custom", coefficients=[rng.uniform(-1, 1) for _ in range(64)]
        )
        a, b = chi_sum(spec, 64), chi_limit(spec, 64)
        if abs(a - b) > 1e-10 * (1 + abs(a)):
            failures.append(f"forms disagree on sequence {i}: {a!r} vs {b!r}")
            break
    _report(6, "first-moment identity and definitional equivalence", failures)


def test_criterion_07_averaging_row_conditions():
    failures = []
    for n in list(range(1, 201)) + [1000]:
        a = averaging_row(n)
        if any(x < 0.0 for x in a):
            failures.append(f"negative entry at n={n}")
            break
        if abs(math.fsum(a) - 1.0) > 1e-12:
            failures.append(f"row sum off at n={n}")
            break
    # Form equivalence (criterion 06, by summation by parts) forces
    # a_n(k) = w_n(k) - w_n(k+1) = k*w_n(k)/n, so 0 <= a_n(k) <= k/n since
    # w <= 1: every column vanishes at rate 1/n, which is what
    # Silverman-Toeplitz asks of a column.  A column need not decrease
    # from the start (a_10(7) = 0.0423 < a_100(7) = 0.0565).  Since
    # d/dn log a_n(k) = (1/n)(-1 + sum_{j<k} j/(n-j)) and that sum is at
    # most k(k-1)/(2(n-k+1)), it decreases once n > (k-1)(k+2)/2.
    ns = (10, 100, 1000, 10000)
    for k in range(11):
        col = [averaging_row(n)[k] for n in ns]
        tail = [a for n, a in zip(ns, col) if n > (k - 1) * (k + 2) / 2]
        if any(not 0.0 <= a <= k / n + 1e-12 for n, a in zip(ns, col)):
            failures.append(f"column k={k} outside [0, k/n]: {col}")
        elif any(b > a for a, b in zip(tail, tail[1:])):
            failures.append(f"column k={k} not decreasing past the threshold: {col}")
        elif col[-1] > k / 10000 + 1e-12:
            failures.append(f"column k={k} not vanishing: {col[-1]:g}")
    _report(7, "averaging rows are a regular scheme", failures)


def test_criterion_08_exponential_approximation_bound():
    failures = []
    for n in (1, 2, 5, 10, 100):
        gap = exp_approx_gap(n, 10000)
        bound = 1.0 / (math.e * n)
        if gap > bound:
            failures.append(f"n={n}: gap {gap:g} > {bound:g}")
    _report(8, "uniform exponential approximation bound", failures)


def test_criterion_09_geometric_summability_region():
    failures = []
    grid = (25, 50, 100, 200, 400)
    start = time.monotonic()
    for x in (-3.5, -3.0, -2.0, 0.9):
        r = chi_sweep(catalog_lookup("geometric", x=x), grid, accelerate=True)
        if r.verdict != "converged":
            failures.append(f"x={x}: verdict {r.verdict}")
        err = abs(r.value - 1.0 / (1.0 - x))
        if err > 1e-3:
            failures.append(f"x={x}: accelerated error {err:g} > 1e-3")
    for x in (-3.7, -4.0, 1.0, 2.0):
        r = chi_sweep(catalog_lookup("geometric", x=x), grid)
        if r.verdict != "diverging":
            failures.append(f"x={x}: verdict {r.verdict}")
    elapsed = time.monotonic() - start
    if elapsed > 5.0:
        failures.append(f"took {elapsed:.2f}s > 5s")
    _report(9, "geometric summability region", failures)


def test_criterion_10_linear_combination_value():
    failures = []
    spec = combine(
        [
            catalog_lookup("alt_harmonic_numbers"),
            catalog_lookup("alt_log"),
            catalog_lookup("grandi"),
        ],
        [1.0, -1.0, -EULER_GAMMA],
    )
    want = (math.log(math.pi) - EULER_GAMMA) / 2.0
    got = chi_sum(spec, 400)
    if abs(want - 0.2837571) > 1e-7:
        failures.append(f"closed form {want:.7f} != 0.2837571")
    if abs(got - want) > 5e-4:
        failures.append(f"value {got:.7f} off from {want:.7f}")
    _report(10, "linear combination of summable series", failures)


def test_criterion_11_error_rate_law():
    failures = []
    grid = (50, 100, 200, 400)
    spec = catalog_lookup("geometric", x=-2.0)
    errs = [observed_error(v, 1.0 / 3.0) for v in chi_sweep(spec, grid).approximants]
    fit = rate_fit(grid, errs)
    if not 0.9 <= fit.p <= 1.1:
        failures.append(f"exponent {fit.p:.4f} outside [0.9, 1.1]")
    if abs(fit.C - 4.0 / 27.0) > 0.15 * (4.0 / 27.0):
        failures.append(f"constant {fit.C:.5f} off 4/27 by more than 15%")
    _report(11, "first-order error rate law", failures)
