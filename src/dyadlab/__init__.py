"""Dyadic (XOR) harmonic analysis on the 2**n-cell grid.

Walsh functions and the fast Walsh transform, dyadic convolution, dense
grid operators with Hilbert-Schmidt metrics, and the best approximation of
classical cyclic operators by dyadic convolution symbols.
"""

from . import best_approx, dyadic, operators, verify, walsh
from .best_approx import *  # noqa: F403
from .dyadic import *  # noqa: F403
from .operators import *  # noqa: F403
from .verify import *  # noqa: F403
from .walsh import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        *best_approx.__all__,
        *dyadic.__all__,
        *operators.__all__,
        *verify.__all__,
        *walsh.__all__,
    }
)
