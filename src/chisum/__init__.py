"""chisum: summation of divergent series by factorial-decay weights.

The method weights term k of a series by the running product
prod_{j=1..k} (1 - (j-1)/n) and takes n to infinity.  It is a linear,
regular averaging method that sums the geometric series on (-kappa, 1)
with kappa about 3.5911, strictly beyond the Abel method's reach, and
its leading error decays like f''(x) (x - x0)^2 / (2n).
"""

from .error_model import (
    ErrorEstimate,
    RateFit,
    observed_error,
    predicted_error,
    rate_fit,
)
from .exceptions import (
    AbelRadiusError,
    DomainError,
    NumericError,
    SeriesFormatError,
    UnknownSeriesError,
)
from .series import (
    CATALOG_NAMES,
    SeriesSpec,
    catalog_lookup,
    combine,
    load_custom,
    partial_sums,
)
from .special import (
    BernoulliTable,
    bernoulli_gen_fn,
    bernoulli_numbers,
    harmonic,
    harmonic_numbers,
    solve_kappa,
    trigamma,
)
from .summation import (
    CONVERGED,
    DIVERGING,
    INCONCLUSIVE,
    ChiResult,
    abel_estimate,
    cesaro_mean,
    chi_limit,
    chi_sum,
    chi_sweep,
    classify_convergence,
    euler_transform,
    richardson_accelerate,
)
from .weights import (
    ToeplitzDiagnostics,
    averaging_row,
    chi_row,
    exp_approx_gap,
    verify_toeplitz,
)

__version__ = "0.1.0"
