"""Golden bit-identity pins: results of the summation engine as exact
float.hex strings, or the exception class where it raises.

The values were generated at commit f87737d (the last commit before
series became term streams) by running this module as a script against
that commit's source:

    PYTHONPATH=src python tests/test_golden.py

A performance change must keep every pin; a change that moves one on
purpose says which and why.
"""

import pytest

from chisum.series import catalog_lookup, combine
from chisum.summation import cesaro_mean, chi_limit, chi_sum, euler_transform

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
    'chi_limit grandi n=100': '0x1.feb780bf0c40dp-2',
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
    'chi_sum geometric(-0.7) n=1100': '0x1.2d2149f95aef3p-1',
    'chi_sum geometric(-0.7) n=2000': '0x1.2d26a3a1776bbp-1',
    'chi_sum geometric(-0.7) n=400': '0x1.2d0c782d24759p-1',
    'chi_sum geometric(-0.7) n=5': '0x1.224e852f65848p-1',
    'chi_sum geometric(-0.7) n=50': '0x1.2c261307f2407p-1',
    'chi_sum geometric(-1.0) n=1100': '0x1.ffe234428b5aap-2',
    'chi_sum geometric(-1.0) n=2000': '0x1.ffef9d2bf99fcp-2',
    'chi_sum geometric(-1.0) n=400': '0x1.ffae07618d108p-2',
    'chi_sum geometric(-1.0) n=5': '0x1.e4f765fd8adadp-2',
    'chi_sum geometric(-1.0) n=50': '0x1.fd6d617375dc4p-2',
    'chi_sum geometric(-1.5) n=1100': '0x1.9977477b9977dp-2',
    'chi_sum geometric(-1.5) n=2000': '0x1.9986b978de593p-2',
    'chi_sum geometric(-1.5) n=400': '0x1.993b3331a3cbfp-2',
    'chi_sum geometric(-1.5) n=5': '0x1.710cb295e9e1fp-2',
    'chi_sum geometric(-1.5) n=50': '0x1.96a4e145ac71dp-2',
    'chi_sum geometric(-2.0) n=1100': '0x1.5532071acdfe0p-2',
    'chi_sum geometric(-2.0) n=2000': '0x1.5541ea4e866d0p-2',
    'chi_sum geometric(-2.0) n=400': '0x1.54f43e3e9dee8p-2',
    'chi_sum geometric(-2.0) n=5': '0x1.a027525460ac0p-3',
    'chi_sum geometric(-2.0) n=50': '0x1.524cb404f4fb7p-2',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=1100': '-0x1.000ef7f24c761p-3',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=2000': '-0x1.ffb7c42894b0bp-4',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=400': '-0x1.00d5ac3d1ba68p-3',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=5': '-0x1.190c0ad03d98cp-2',
    'chi_sum geometric(-2.0)-0.5*log1p_taylor(1.5) n=50': '-0x1.0963560f35533p-3',
    'chi_sum geometric(-3.123457) n=1100': '0x1.f0695f24b770bp-3',
    'chi_sum geometric(-3.123457) n=2000': '0x1.f087355296474p-3',
    'chi_sum geometric(-3.123457) n=400': '0x1.eff5637324a84p-3',
    'chi_sum geometric(-3.123457) n=5': '-0x1.0b1ec7591def0p+1',
    'chi_sum geometric(-3.123457) n=50': '0x1.ef37a85a6b2b6p-3',
    'chi_sum geometric(-3.5) n=1100': '0x1.c6dc62eeb5487p-3',
    'chi_sum geometric(-3.5) n=2000': '0x1.c6f935745ac4fp-3',
    'chi_sum geometric(-3.5) n=400': '0x1.c69df73bce7eep-3',
    'chi_sum geometric(-3.5) n=5': '-0x1.28bac710cb28cp+2',
    'chi_sum geometric(-3.5) n=50': '0x1.d19aa26af62f0p+1',
    'chi_sum geometric(-3.59) n=1100': '0x1.ae6db456434b4p+5',
    'chi_sum geometric(-3.59) n=2000': '0x1.9541ea8054da2p+5',
    'chi_sum geometric(-3.59) n=400': '0x1.57aa152333059p+5',
    'chi_sum geometric(-3.59) n=5': '-0x1.5faae8e5a5982p+2',
    'chi_sum geometric(-3.59) n=50': '0x1.19e4bf2f69044p+4',
    'chi_sum geometric(0.5) n=1100': '0x1.ff89619a431cbp+0',
    'chi_sum geometric(0.5) n=2000': '0x1.ffbea08e594a0p+0',
    'chi_sum geometric(0.5) n=400': '0x1.febc5597e304ep+0',
    'chi_sum geometric(0.5) n=5': '0x1.c5f06f6944674p+0',
    'chi_sum geometric(0.5) n=50': '0x1.f6a5656bb86fdp+0',
    'chi_sum geometric(2.0) n=1100': '0x1.dc22b88002d46p+312',
    'chi_sum geometric(2.0) n=2000': '0x1.14fbeef6feb5cp+564',
    'chi_sum geometric(2.0) n=400': '0x1.1415c0a2ddc97p+117',
    'chi_sum geometric(2.0) n=5': '0x1.cae7d566cf41fp+3',
    'chi_sum geometric(2.0) n=50': '0x1.0f1a7cee05fc4p+18',
    'chi_sum grandi n=1': '0x0.0p+0',
    'chi_sum grandi n=100': '0x1.feb780bf0c40dp-2',
    'chi_sum grandi n=1100': '0x1.ffe234428b5aap-2',
    'chi_sum grandi n=1500': '0x1.ffea26a9aa4c5p-2',
    'chi_sum grandi n=2': '0x1.0000000000000p-1',
    'chi_sum grandi n=2000': '0x1.ffef9d2bf99fcp-2',
    'chi_sum grandi n=400': '0x1.ffae07618d108p-2',
    'chi_sum grandi n=5': '0x1.e4f765fd8adadp-2',
    'chi_sum grandi n=50': '0x1.fd6d617375dc4p-2',
    'chi_sum log1p_taylor(-2.5) n=1100': '-0x1.f036df6b88c50p+498',
    'chi_sum log1p_taylor(-2.5) n=2000': '-0x1.26a4aeee67bb8p+909',
    'chi_sum log1p_taylor(-2.5) n=400': '-0x1.34981e05f8b47p+180',
    'chi_sum log1p_taylor(-2.5) n=5': '-0x1.4400000000000p+3',
    'chi_sum log1p_taylor(-2.5) n=50': '-0x1.11482fdc7d18cp+22',
    'chi_sum log1p_taylor(-3.0) n=1100': '-0x1.449b61b0e5dcap+682',
    'chi_sum log1p_taylor(-3.0) n=2000': 'NumericError',
    'chi_sum log1p_taylor(-3.0) n=400': '-0x1.d00c9854c04d6p+246',
    'chi_sum log1p_taylor(-3.0) n=5': '-0x1.0ac9afe1da7b1p+4',
    'chi_sum log1p_taylor(-3.0) n=50': '-0x1.35484ef4210a1p+30',
    'chi_sum log1p_taylor(0.5) n=1100': '0x1.9f3f7cfd50a13p-2',
    'chi_sum log1p_taylor(0.5) n=2000': '0x1.9f398730daf30p-2',
    'chi_sum log1p_taylor(0.5) n=400': '0x1.9f56adf36663ep-2',
    'chi_sum log1p_taylor(0.5) n=5': '0x1.ab40f66a55087p-2',
    'chi_sum log1p_taylor(0.5) n=50': '0x1.a057256b0168cp-2',
    'chi_sum log1p_taylor(1.5) n=1100': '0x1.d5398313f4391p-1',
    'chi_sum log1p_taylor(1.5) n=2000': '0x1.d52fdb58ab993p-1',
    'chi_sum log1p_taylor(1.5) n=400': '0x1.d55f145d2bc1cp-1',
    'chi_sum log1p_taylor(1.5) n=5': '0x1.e91fb3fa6defcp-1',
    'chi_sum log1p_taylor(1.5) n=50': '0x1.d6fe5f0ca030fp-1',
    'chi_sum log1p_taylor(2.0) n=1100': '0x1.194be5b039b7fp+0',
    'chi_sum log1p_taylor(2.0) n=2000': '0x1.1945f0026b8a2p+0',
    'chi_sum log1p_taylor(2.0) n=400': '0x1.196315849f2d5p+0',
    'chi_sum log1p_taylor(2.0) n=5': '0x1.2862f5989df10p+0',
    'chi_sum log1p_taylor(2.0) n=50': '0x1.1a6336edf8456p+0',
    'euler_transform alt_harmonic_numbers n=1': '0x1.8000000000000p-2',
    'euler_transform alt_harmonic_numbers n=100': '0x1.62e42fefa39e6p-2',
    'euler_transform alt_harmonic_numbers n=1500': '0x1.62e42fefa3993p-2',
    'euler_transform alt_harmonic_numbers n=2': '0x1.6aaaaaaaaaaaap-2',
    'euler_transform alt_log n=1': '-0x1.62e42fefa39efp-3',
    'euler_transform alt_log n=100': '-0x1.ce6bb25aa131bp-3',
    'euler_transform alt_log n=1500': '-0x1.ce6bb25aa12e1p-3',
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


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {outcome(CASES[case])!r},")
