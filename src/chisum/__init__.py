"""chisum: summation of divergent series by factorial-decay weights.

The method weights term k of a series by the running product
prod_{j=1..k} (1 - (j-1)/n) and takes n to infinity.  It is a linear,
regular averaging method that sums the geometric series on (-kappa, 1)
with kappa about 3.5911, strictly beyond the Abel method's reach, and
its leading error decays like f''(x) (x - x0)^2 / (2n).
"""

from .error_model import *  # noqa: F403
from .exceptions import *  # noqa: F403
from .series import *  # noqa: F403
from .special import *  # noqa: F403
from .summation import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"
