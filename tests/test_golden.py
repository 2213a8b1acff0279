"""Golden bit-identity pins: results of the summation engine as exact
float.hex strings, or the exception class where it raises.

The values were generated at commit f87737d (the last commit before
series became term streams) by running this module as a script against
that commit's source:

    PYTHONPATH=src python tests/test_golden.py

A performance change must keep every pin; a change that moves one on
purpose says which and why.  The script ends by listing each pin whose
outcome differs from GOLDEN, with its distance in ulp.

Moved on purpose: four euler_transform pins, when a series with a
moment bound began to take, from order 64 on, the correctly rounded
mean of its first 65 double terms (summation._moment_mean), which lies
within the two moment bounds, those terms' rounding and half an ulp of
the exact series' (E,1) mean.  Each new value is 6.8 ulp
(alt_harmonic_numbers) or 8.8 ulp (alt_log) from a 40-digit mpmath
mean of the exact terms at the same n (tests/oracles.py::moment_mean),
the same at n = 100 and 1500; the old ones, the rounded mean of the
n + 1 double terms, were 3.2 and 15.2 ulp, and 12.2 and 30.8 ulp, from
it.  They were re-pinned by running this script:

    alt_harmonic_numbers n=100   0x1.62e42fefa39ecp-2  -> 0x1.62e42fefa39f6p-2 (+10 ulp)
    alt_harmonic_numbers n=1500  0x1.62e42fefa39e0p-2  -> 0x1.62e42fefa39f6p-2 (+22 ulp)
    alt_log n=100               -0x1.ce6bb25aa1322p-3  -> -0x1.ce6bb25aa130dp-3 (+21 ulp)
    alt_log n=1500              -0x1.ce6bb25aa12f7p-3  -> -0x1.ce6bb25aa130dp-3 (-22 ulp)

The n = 1 and 2 pins and every grandi pin, 0.5 on both routes, are
unchanged.

Moved on purpose: four euler_transform pins, when the Euler transform
became one exact binomial-weighted sum of the double terms, rounded
once, in place of the halved float difference table.  The new value is
the correctly rounded (E,1) mean of the terms; neither is closer to the
mean of the exact terms (on alt_log at n = 100..2000 the table was 5 to
156 ulp off, the sum is 12 to 190), since the rounding of the terms sets
both errors.  They were re-pinned by running this script:

    alt_harmonic_numbers n=100   0x1.62e42fefa39e6p-2  -> 0x1.62e42fefa39ecp-2 (+6 ulp)
    alt_harmonic_numbers n=1500  0x1.62e42fefa3993p-2  -> 0x1.62e42fefa39e0p-2 (+77 ulp)
    alt_log n=100               -0x1.ce6bb25aa131bp-3  -> -0x1.ce6bb25aa1322p-3 (-7 ulp)
    alt_log n=1500              -0x1.ce6bb25aa12e1p-3  -> -0x1.ce6bb25aa12f7p-3 (-22 ulp)

Every other pin, the n = 1 and 2 and every grandi Euler pin among them,
is unchanged.

Moved on purpose: 32 pins, 31 chi_sum ones and chi_limit grandi n=100,
when chi_sum and chi_limit began to take every series with a rational
form straight to the fixed-point kernel instead of a double sum under
the weight row.  Each new value is S_n correctly rounded, the double the
product tree (_exact_sum) returns, as tests/test_summation.py holds; the
old ones carried the rounding of the double weights and terms, largest
where the weighted terms cancel (x = -2 at n = 50).  Distances are in
ulp of the signed value.  They were re-pinned by running this script:

    chi_limit grandi n=100                              0x1.feb780bf0c40dp-2 -> 0x1.feb780bf0c40ep-2 (+1 ulp)
    chi_sum geometric(-0.7) n=1100                      0x1.2d2149f95aef3p-1 -> 0x1.2d2149f95aef2p-1 (-1 ulp)
    chi_sum geometric(-0.7) n=400                       0x1.2d0c782d24759p-1 -> 0x1.2d0c782d24758p-1 (-1 ulp)
    chi_sum geometric(-1.0) n=2000                      0x1.ffef9d2bf99fcp-2 -> 0x1.ffef9d2bf99eap-2 (-18 ulp)
    chi_sum geometric(-1.0) n=400                       0x1.ffae07618d108p-2 -> 0x1.ffae07618d105p-2 (-3 ulp)
    chi_sum geometric(-1.0) n=5                         0x1.e4f765fd8adadp-2 -> 0x1.e4f765fd8adacp-2 (-1 ulp)
    chi_sum geometric(-1.0) n=50                        0x1.fd6d617375dc4p-2 -> 0x1.fd6d617375dc5p-2 (+1 ulp)
    chi_sum geometric(-1.5) n=5                         0x1.710cb295e9e1fp-2 -> 0x1.710cb295e9e1bp-2 (-4 ulp)
    chi_sum geometric(-1.5) n=50                        0x1.96a4e145ac71dp-2 -> 0x1.96a4e145ac718p-2 (-5 ulp)
    chi_sum geometric(-2.0) n=5                         0x1.a027525460ac0p-3 -> 0x1.a027525460aa6p-3 (-26 ulp)
    chi_sum geometric(-2.0) n=50                        0x1.524cb404f4fb7p-2 -> 0x1.524cb404e43ebp-2 (-68,556 ulp)
    chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=5   -0x1.190c0ad03d98cp-2 -> -0x1.190c0ad03d9a9p-2 (-29 ulp)
    chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=50  -0x1.0963560f35533p-3 -> -0x1.0963560f77e45p-3 (-272,658 ulp)
    chi_sum geometric(-3.123457) n=5                    -0x1.0b1ec7591def0p+1 -> -0x1.0b1ec7591def7p+1 (-7 ulp)
    chi_sum geometric(-3.5) n=5                         -0x1.28bac710cb28cp+2 -> -0x1.28bac710cb296p+2 (-10 ulp)
    chi_sum geometric(-3.59) n=5                        -0x1.5faae8e5a5982p+2 -> -0x1.5faae8e5a598cp+2 (-10 ulp)
    chi_sum geometric(0.5) n=2000                       0x1.ffbea08e594a0p+0 -> 0x1.ffbea08e5949fp+0 (-1 ulp)
    chi_sum geometric(2.0) n=400                        0x1.1415c0a2ddc97p+117 -> 0x1.1415c0a2ddc9ap+117 (+3 ulp)
    chi_sum geometric(2.0) n=50                         0x1.0f1a7cee05fc4p+18 -> 0x1.0f1a7cee05fc3p+18 (-1 ulp)
    chi_sum grandi n=100                                0x1.feb780bf0c40dp-2 -> 0x1.feb780bf0c40ep-2 (+1 ulp)
    chi_sum grandi n=2000                               0x1.ffef9d2bf99fcp-2 -> 0x1.ffef9d2bf99eap-2 (-18 ulp)
    chi_sum grandi n=400                                0x1.ffae07618d108p-2 -> 0x1.ffae07618d105p-2 (-3 ulp)
    chi_sum grandi n=5                                  0x1.e4f765fd8adadp-2 -> 0x1.e4f765fd8adacp-2 (-1 ulp)
    chi_sum grandi n=50                                 0x1.fd6d617375dc4p-2 -> 0x1.fd6d617375dc5p-2 (+1 ulp)
    chi_sum log1p_taylor(-2.5) n=400                    -0x1.34981e05f8b47p+180 -> -0x1.34981e05f8b4bp+180 (-4 ulp)
    chi_sum log1p_taylor(-2.5) n=50                     -0x1.11482fdc7d18cp+22 -> -0x1.11482fdc7d18bp+22 (+1 ulp)
    chi_sum log1p_taylor(-3.0) n=400                    -0x1.d00c9854c04d6p+246 -> -0x1.d00c9854c04ddp+246 (-7 ulp)
    chi_sum log1p_taylor(-3.0) n=50                     -0x1.35484ef4210a1p+30 -> -0x1.35484ef4210a0p+30 (+1 ulp)
    chi_sum log1p_taylor(0.5) n=50                      0x1.a057256b0168cp-2 -> 0x1.a057256b0168bp-2 (-1 ulp)
    chi_sum log1p_taylor(1.5) n=50                      0x1.d6fe5f0ca030fp-1 -> 0x1.d6fe5f0ca030ep-1 (-1 ulp)
    chi_sum log1p_taylor(2.0) n=5                       0x1.2862f5989df10p+0 -> 0x1.2862f5989df11p+0 (+1 ulp)
    chi_sum log1p_taylor(2.0) n=50                      0x1.1a6336edf8456p+0 -> 0x1.1a6336edf8b63p+0 (+1,805 ulp)

Every other pin is unchanged.
"""

import math
import struct
from fractions import Fraction

import mpmath
import pytest

from chisum.series import catalog_lookup, combine
from chisum.summation import (
    _exact_sum,
    cesaro_mean,
    chi_limit,
    chi_sum,
    euler_transform,
)
from oracles import counted, euler_mean, moment_mean, moment_tolerance

GEOMETRIC_X = (-3.59, -3.5, -3.123457, -2.0, -1.5, -1.0, -0.7, 0.5, 2.0)
LOG1P_X = (-3.0, -2.5, 0.5, 1.5, 2.0)
CHI_ORDERS = (5, 50, 400, 1100, 2000)
ALTERNATING = ("alt_harmonic_numbers", "alt_log", "grandi")
CLASSICAL_ORDERS = (1, 2, 100, 1500)
METHODS = {
    "chi_sum": chi_sum,
    "chi_limit": chi_limit,
    "cesaro_mean": cesaro_mean,
    "euler_transform": euler_transform,
}


def _series():
    """label -> a builder of the series, for the chi_sum probe set."""
    out = {f"geometric({x})": (lambda x=x: catalog_lookup("geometric", x=x))
           for x in GEOMETRIC_X}
    out.update({f"log1p_taylor({x})": (lambda x=x: catalog_lookup("log1p_taylor", x=x))
                for x in LOG1P_X})
    out["grandi"] = lambda: catalog_lookup("grandi")
    out["geometric(-2.0)-0.5*log1p_taylor(1.5)"] = lambda: combine(
        [catalog_lookup("geometric", x=-2.0), catalog_lookup("log1p_taylor", x=1.5)],
        [1.0, -0.5],
    )
    return out


def cases() -> dict:
    """case id -> a zero-argument call that yields the pinned result."""
    out = {}
    for label, build in _series().items():
        for n in CHI_ORDERS:
            out[f"chi_sum {label} n={n}"] = lambda b=build, n=n: chi_sum(b(), n)
    for method, fn in METHODS.items():
        for name in ALTERNATING:
            for n in CLASSICAL_ORDERS:
                out[f"{method} {name} n={n}"] = (
                    lambda fn=fn, name=name, n=n: fn(catalog_lookup(name), n)
                )
    return out


def outcome(call) -> str:
    """float.hex of the result, or the name of the exception raised."""
    try:
        return float.hex(call())
    except Exception as exc:  # noqa: BLE001 - the class is what is pinned
        return type(exc).__name__


GOLDEN = {
    'cesaro_mean alt_harmonic_numbers n=1': '0x1.0000000000000p-2',
    'cesaro_mean alt_harmonic_numbers n=100': '0x1.72d358fb9c22ap-2',
    'cesaro_mean alt_harmonic_numbers n=1500': '0x1.646be61806b51p-2',
    'cesaro_mean alt_harmonic_numbers n=2': '0x1.38e38e38e38e3p-1',
    'cesaro_mean alt_log n=1': '-0x1.62e42fefa39efp-2',
    'cesaro_mean alt_log n=100': '-0x1.b62cff6782ff2p-3',
    'cesaro_mean alt_log n=1500': '-0x1.cbdf326c25f08p-3',
    'cesaro_mean alt_log n=2': '-0x1.88c82c19bcf6bp-4',
    'cesaro_mean grandi n=1': '0x1.0000000000000p-1',
    'cesaro_mean grandi n=100': '0x1.0288df0cac5b4p-1',
    'cesaro_mean grandi n=1500': '0x1.002ba95bed949p-1',
    'cesaro_mean grandi n=2': '0x1.5555555555555p-1',
    'chi_limit alt_harmonic_numbers n=1': '-0x1.0000000000000p-1',
    'chi_limit alt_harmonic_numbers n=100': '0x1.61284e97ed982p-2',
    'chi_limit alt_harmonic_numbers n=1500': '0x1.62c6a5dd083e3p-2',
    'chi_limit alt_harmonic_numbers n=2': '0x1.aaaaaaaaaaaaap-2',
    'chi_limit alt_log n=1': '-0x1.62e42fefa39efp-1',
    'chi_limit alt_log n=100': '-0x1.cfc3280fd94d5p-3',
    'chi_limit alt_log n=1500': '-0x1.ce8293fa0018ap-3',
    'chi_limit alt_log n=2': '-0x1.269621134db90p-3',
    'chi_limit grandi n=1': '0x0.0p+0',
    'chi_limit grandi n=100': '0x1.feb780bf0c40ep-2',
    'chi_limit grandi n=1500': '0x1.ffea26a9aa4c5p-2',
    'chi_limit grandi n=2': '0x1.0000000000000p-1',
    'chi_sum alt_harmonic_numbers n=1': '-0x1.0000000000000p-1',
    'chi_sum alt_harmonic_numbers n=100': '0x1.61284e97ed983p-2',
    'chi_sum alt_harmonic_numbers n=1500': '0x1.62c6a5dd083d1p-2',
    'chi_sum alt_harmonic_numbers n=2': '0x1.aaaaaaaaaaaaap-2',
    'chi_sum alt_log n=1': '-0x1.62e42fefa39efp-1',
    'chi_sum alt_log n=100': '-0x1.cfc3280fd94dap-3',
    'chi_sum alt_log n=1500': '-0x1.ce8293fa0019ep-3',
    'chi_sum alt_log n=2': '-0x1.269621134db90p-3',
    'chi_sum geometric(-0.7) n=1100': '0x1.2d2149f95aef2p-1',
    'chi_sum geometric(-0.7) n=2000': '0x1.2d26a3a1776bbp-1',
    'chi_sum geometric(-0.7) n=400': '0x1.2d0c782d24758p-1',
    'chi_sum geometric(-0.7) n=5': '0x1.224e852f65848p-1',
    'chi_sum geometric(-0.7) n=50': '0x1.2c261307f2407p-1',
    'chi_sum geometric(-1.0) n=1100': '0x1.ffe234428b5aap-2',
    'chi_sum geometric(-1.0) n=2000': '0x1.ffef9d2bf99eap-2',
    'chi_sum geometric(-1.0) n=400': '0x1.ffae07618d105p-2',
    'chi_sum geometric(-1.0) n=5': '0x1.e4f765fd8adacp-2',
    'chi_sum geometric(-1.0) n=50': '0x1.fd6d617375dc5p-2',
    'chi_sum geometric(-1.5) n=1100': '0x1.9977477b9977dp-2',
    'chi_sum geometric(-1.5) n=2000': '0x1.9986b978de593p-2',
    'chi_sum geometric(-1.5) n=400': '0x1.993b3331a3cbfp-2',
    'chi_sum geometric(-1.5) n=5': '0x1.710cb295e9e1bp-2',
    'chi_sum geometric(-1.5) n=50': '0x1.96a4e145ac718p-2',
    'chi_sum geometric(-2.0) n=1100': '0x1.5532071acdfe0p-2',
    'chi_sum geometric(-2.0) n=2000': '0x1.5541ea4e866d0p-2',
    'chi_sum geometric(-2.0) n=400': '0x1.54f43e3e9dee8p-2',
    'chi_sum geometric(-2.0) n=5': '0x1.a027525460aa6p-3',
    'chi_sum geometric(-2.0) n=50': '0x1.524cb404e43ebp-2',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=1100': '-0x1.000ef7f24c761p-3',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=2000': '-0x1.ffb7c42894b0bp-4',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=400': '-0x1.00d5ac3d1ba68p-3',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=5': '-0x1.190c0ad03d9a9p-2',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=50': '-0x1.0963560f77e45p-3',
    'chi_sum geometric(-3.123457) n=1100': '0x1.f0695f24b770bp-3',
    'chi_sum geometric(-3.123457) n=2000': '0x1.f087355296474p-3',
    'chi_sum geometric(-3.123457) n=400': '0x1.eff5637324a84p-3',
    'chi_sum geometric(-3.123457) n=5': '-0x1.0b1ec7591def7p+1',
    'chi_sum geometric(-3.123457) n=50': '0x1.ef37a85a6b2b6p-3',
    'chi_sum geometric(-3.5) n=1100': '0x1.c6dc62eeb5487p-3',
    'chi_sum geometric(-3.5) n=2000': '0x1.c6f935745ac4fp-3',
    'chi_sum geometric(-3.5) n=400': '0x1.c69df73bce7eep-3',
    'chi_sum geometric(-3.5) n=5': '-0x1.28bac710cb296p+2',
    'chi_sum geometric(-3.5) n=50': '0x1.d19aa26af62f0p+1',
    'chi_sum geometric(-3.59) n=1100': '0x1.ae6db456434b4p+5',
    'chi_sum geometric(-3.59) n=2000': '0x1.9541ea8054da2p+5',
    'chi_sum geometric(-3.59) n=400': '0x1.57aa152333059p+5',
    'chi_sum geometric(-3.59) n=5': '-0x1.5faae8e5a598cp+2',
    'chi_sum geometric(-3.59) n=50': '0x1.19e4bf2f69044p+4',
    'chi_sum geometric(0.5) n=1100': '0x1.ff89619a431cbp+0',
    'chi_sum geometric(0.5) n=2000': '0x1.ffbea08e5949fp+0',
    'chi_sum geometric(0.5) n=400': '0x1.febc5597e304ep+0',
    'chi_sum geometric(0.5) n=5': '0x1.c5f06f6944674p+0',
    'chi_sum geometric(0.5) n=50': '0x1.f6a5656bb86fdp+0',
    'chi_sum geometric(2.0) n=1100': '0x1.dc22b88002d46p+312',
    'chi_sum geometric(2.0) n=2000': '0x1.14fbeef6feb5cp+564',
    'chi_sum geometric(2.0) n=400': '0x1.1415c0a2ddc9ap+117',
    'chi_sum geometric(2.0) n=5': '0x1.cae7d566cf41fp+3',
    'chi_sum geometric(2.0) n=50': '0x1.0f1a7cee05fc3p+18',
    'chi_sum grandi n=1': '0x0.0p+0',
    'chi_sum grandi n=100': '0x1.feb780bf0c40ep-2',
    'chi_sum grandi n=1100': '0x1.ffe234428b5aap-2',
    'chi_sum grandi n=1500': '0x1.ffea26a9aa4c5p-2',
    'chi_sum grandi n=2': '0x1.0000000000000p-1',
    'chi_sum grandi n=2000': '0x1.ffef9d2bf99eap-2',
    'chi_sum grandi n=400': '0x1.ffae07618d105p-2',
    'chi_sum grandi n=5': '0x1.e4f765fd8adacp-2',
    'chi_sum grandi n=50': '0x1.fd6d617375dc5p-2',
    'chi_sum log1p_taylor(-2.5) n=1100': '-0x1.f036df6b88c50p+498',
    'chi_sum log1p_taylor(-2.5) n=2000': '-0x1.26a4aeee67bb8p+909',
    'chi_sum log1p_taylor(-2.5) n=400': '-0x1.34981e05f8b4bp+180',
    'chi_sum log1p_taylor(-2.5) n=5': '-0x1.4400000000000p+3',
    'chi_sum log1p_taylor(-2.5) n=50': '-0x1.11482fdc7d18bp+22',
    'chi_sum log1p_taylor(-3.0) n=1100': '-0x1.449b61b0e5dcap+682',
    'chi_sum log1p_taylor(-3.0) n=2000': 'NumericError',
    'chi_sum log1p_taylor(-3.0) n=400': '-0x1.d00c9854c04ddp+246',
    'chi_sum log1p_taylor(-3.0) n=5': '-0x1.0ac9afe1da7b1p+4',
    'chi_sum log1p_taylor(-3.0) n=50': '-0x1.35484ef4210a0p+30',
    'chi_sum log1p_taylor(0.5) n=1100': '0x1.9f3f7cfd50a13p-2',
    'chi_sum log1p_taylor(0.5) n=2000': '0x1.9f398730daf30p-2',
    'chi_sum log1p_taylor(0.5) n=400': '0x1.9f56adf36663ep-2',
    'chi_sum log1p_taylor(0.5) n=5': '0x1.ab40f66a55087p-2',
    'chi_sum log1p_taylor(0.5) n=50': '0x1.a057256b0168bp-2',
    'chi_sum log1p_taylor(1.5) n=1100': '0x1.d5398313f4391p-1',
    'chi_sum log1p_taylor(1.5) n=2000': '0x1.d52fdb58ab993p-1',
    'chi_sum log1p_taylor(1.5) n=400': '0x1.d55f145d2bc1cp-1',
    'chi_sum log1p_taylor(1.5) n=5': '0x1.e91fb3fa6defcp-1',
    'chi_sum log1p_taylor(1.5) n=50': '0x1.d6fe5f0ca030ep-1',
    'chi_sum log1p_taylor(2.0) n=1100': '0x1.194be5b039b7fp+0',
    'chi_sum log1p_taylor(2.0) n=2000': '0x1.1945f0026b8a2p+0',
    'chi_sum log1p_taylor(2.0) n=400': '0x1.196315849f2d5p+0',
    'chi_sum log1p_taylor(2.0) n=5': '0x1.2862f5989df11p+0',
    'chi_sum log1p_taylor(2.0) n=50': '0x1.1a6336edf8b63p+0',
    'euler_transform alt_harmonic_numbers n=1': '0x1.8000000000000p-2',
    'euler_transform alt_harmonic_numbers n=100': '0x1.62e42fefa39f6p-2',
    'euler_transform alt_harmonic_numbers n=1500': '0x1.62e42fefa39f6p-2',
    'euler_transform alt_harmonic_numbers n=2': '0x1.6aaaaaaaaaaaap-2',
    'euler_transform alt_log n=1': '-0x1.62e42fefa39efp-3',
    'euler_transform alt_log n=100': '-0x1.ce6bb25aa130dp-3',
    'euler_transform alt_log n=1500': '-0x1.ce6bb25aa130dp-3',
    'euler_transform alt_log n=2': '-0x1.ac89b834770d3p-3',
    'euler_transform grandi n=1': '0x1.0000000000000p-1',
    'euler_transform grandi n=100': '0x1.0000000000000p-1',
    'euler_transform grandi n=1500': '0x1.0000000000000p-1',
    'euler_transform grandi n=2': '0x1.0000000000000p-1',
}

CASES = cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_bit_identical(case):
    assert outcome(CASES[case]) == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(CASES)


# Every series of the chi_sum probe set, grandi among them, has a rational
# form.
RATIONAL = _series()


@pytest.mark.parametrize(
    "case",
    sorted(
        c for c in CASES
        if c.startswith("chi_") and c.split(" ", 1)[1].rsplit(" n=", 1)[0] in RATIONAL
    ),
)
def test_chi_pin_is_the_product_tree(case):
    # Each is S_n correctly rounded, or the product tree's exception.
    label, n = case.split(" ", 1)[1].rsplit(" n=", 1)
    assert outcome(lambda: _exact_sum(RATIONAL[label](), int(n))) == GOLDEN[case]


def _log1p_term(x: float, k: int):
    """(-1)**(k+1) x**k / k, and 0 at k = 0, in mpmath's precision."""
    return (-1) ** (k + 1) * mpmath.mpf(x) ** k / k if k else mpmath.mpf(0)


# label -> a_k, built from the definition of each series, not from its
# rational form, for every pin that has a log1p_taylor part.
DEFINITION = {f"log1p_taylor({x})": (lambda k, x=x: _log1p_term(x, k)) for x in LOG1P_X}
DEFINITION["geometric(-2.0)-0.5*log1p_taylor(1.5)"] = (
    lambda k: mpmath.mpf(-2) ** k - _log1p_term(1.5, k) / 2
)


def _definition_sum(term, n: int) -> str:
    """S_n = sum_{k<=n} (n)_k / n**k a_k in mpmath, as outcome pins it.

    The sum is taken at P and 2P bits, P doubling from 64, until the
    2P-bit value, widened by four times the two values' distance, rounds
    to one double at both ends.  Past double range it is NumericError,
    as chi_sum raises.
    """
    prec = 64
    while prec <= 1 << 16:
        sums = []
        for p in (prec, 2 * prec):
            with mpmath.workprec(p):
                total, w = mpmath.mpf(0), mpmath.mpf(1)
                for k in range(n + 1):
                    total += w * term(k)
                    w = w * (n - k) / n
                sums.append(total)
        with mpmath.workprec(2 * prec):
            lo, hi = sums
            err = 4 * abs(hi - lo) + abs(hi) * mpmath.ldexp(1, -prec)
            ends = {float(hi - err), float(hi + err)}
        if len(ends) == 1:
            value = ends.pop()
            return "NumericError" if math.isinf(value) else float.hex(value)
        prec *= 2
    raise AssertionError(f"no precision up to {prec // 2} bits settles")


@pytest.mark.parametrize(
    "case",
    sorted(c for c in CASES if c.startswith("chi_") and "log1p_taylor" in c),
)
def test_log1p_taylor_pin_is_the_definition_in_mpmath(case):
    label, n = case.split(" ", 1)[1].rsplit(" n=", 1)
    assert _definition_sum(DEFINITION[label], int(n)) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith("euler_")))
def test_euler_pin_is_the_exact_mean(case):
    # The correctly rounded (E,1) mean of the double terms euler_transform
    # reads, from math.comb and Fractions (tests/oracles.py): all n + 1, or,
    # on a series with a moment bound, the first m + 1.  Those lie within
    # the bounds at m and n, their rounding and half an ulp of the exact
    # series' mean at order n.
    name, n = case.split(" ", 1)[1].rsplit(" n=", 1)
    (spec, read), n = counted(catalog_lookup(name)), int(n)
    euler_transform(spec, n)
    assert float.hex(float(euler_mean(read))) == GOLDEN[case]
    m, pin = len(read) - 1, float.fromhex(GOLDEN[case])
    if m < n:
        bound = spec.moment_bound(m) + spec.moment_bound(n)
        tol = moment_tolerance(name, 1.0, read, bound, pin)
        assert abs(Fraction(pin) - moment_mean(name, 1.0, n)) <= tol


def _ordinal(x: float) -> int:
    """x's place among the doubles in order, 0 at +-0.0."""
    (i,) = struct.unpack("<q", struct.pack("<d", x))
    return i if i >= 0 else -(i & (2**63 - 1))


def _moved(case: str, now: str) -> str:
    """A line naming the pin case that now has outcome now, as the
    "Moved on purpose" lists above give it."""
    was = GOLDEN.get(case)
    line = f"    {case:52} {was} -> {now}"
    try:
        ulps = _ordinal(float.fromhex(now)) - _ordinal(float.fromhex(was))
    except (TypeError, ValueError):  # an exception's name, or a new case
        return line
    return f"{line} ({ulps:+,} ulp)"


if __name__ == "__main__":
    outcomes = {case: outcome(CASES[case]) for case in sorted(CASES)}
    for case, now in outcomes.items():
        print(f"    {case!r}: {now!r},")
    moved = [_moved(c, now) for c, now in outcomes.items() if now != GOLDEN.get(c)]
    print(f"\n{len(moved)} pins differ from GOLDEN" + (":" if moved else "."))
    for line in moved:
        print(line)
