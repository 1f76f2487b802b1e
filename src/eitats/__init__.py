"""Objective discrimination of induced-transparency mechanisms.

Generates pump-probe absorption profiles, fits the two competing
transparency lineshape models, and decides between them (or declares the
data inconclusive) with information-criterion weights, including the
per-point variant that stays informative for noisy data.

The package exports each module's ``__all__``, the one list of that
module's public names.
"""

__version__ = "0.1.0"

from . import fitter, lineshape, models, selection, simulation
from .lineshape import *  # noqa: F403
from .models import *  # noqa: F403
from .fitter import *  # noqa: F403
from .selection import *  # noqa: F403
from .simulation import *  # noqa: F403

__all__ = [
    "__version__",
    *lineshape.__all__,
    *models.__all__,
    *fitter.__all__,
    *selection.__all__,
    *simulation.__all__,
]
