"""Decay kinetics of entangled metastable atom pairs.

Pairs of ortho and para metastable atoms decay with entanglement-modified
rates.  This package derives those rates, evaluates the closed-form
population and photon-count curves, cross-checks them with an event-driven
Monte Carlo simulator, and decides from photon streams alone whether a
preparation was entangled.

The package exports every name in its modules' ``__all__`` lists.
"""

from . import analyzer, errors, kinetics, montecarlo, rates
from .analyzer import *  # noqa: F403
from .errors import *  # noqa: F403
from .kinetics import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .rates import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *analyzer.__all__,
    *errors.__all__,
    *kinetics.__all__,
    *montecarlo.__all__,
    *rates.__all__,
]
