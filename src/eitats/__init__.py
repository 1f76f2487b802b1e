"""Objective discrimination of induced-transparency mechanisms.

Generates pump-probe absorption profiles, fits the two competing
transparency lineshape models, and decides between them (or declares the
data inconclusive) with information-criterion weights, including the
per-point variant that stays informative for noisy data.
"""

__version__ = "0.1.0"

from .fitter import (
    DegenerateDataError,
    FitConfig,
    FitConvergenceError,
    FitResult,
    fit,
    fit_many,
    initial_guesses,
    variance_floor,
)
from .lineshape import (
    CircuitParams,
    DegeneratePoleError,
    PoleDecomposition,
    Spectrum,
    TlaParams,
    absorption_profile,
    default_grid,
    pole_decomposition,
    susceptibility,
    transmission_profile,
    transparency_depth,
)
from .models import (
    AtsParams,
    EitLimit,
    EitParams,
    ModelKind,
    canonicalize,
    eval_ats,
    eval_eit,
    evaluate,
    jacobian,
)
from .selection import (
    DEFAULT_MARGIN,
    SelectionReport,
    Verdict,
    aic_least_squares,
    akaike_weights,
    discriminate,
    discriminate_many,
    eit_threshold,
    noise_threshold,
    per_point_weights,
)
from .simulation import BoundaryResult, NoiseSpec, SweepResult, add_noise, sweep_gbc_boundary, sweep_omega

__all__ = [
    "__version__",
    "TlaParams",
    "CircuitParams",
    "PoleDecomposition",
    "Spectrum",
    "DegeneratePoleError",
    "default_grid",
    "susceptibility",
    "pole_decomposition",
    "absorption_profile",
    "transmission_profile",
    "transparency_depth",
    "ModelKind",
    "EitParams",
    "EitLimit",
    "AtsParams",
    "eval_eit",
    "eval_ats",
    "evaluate",
    "jacobian",
    "canonicalize",
    "FitConfig",
    "FitResult",
    "FitConvergenceError",
    "DegenerateDataError",
    "fit",
    "fit_many",
    "initial_guesses",
    "variance_floor",
    "Verdict",
    "SelectionReport",
    "DEFAULT_MARGIN",
    "aic_least_squares",
    "akaike_weights",
    "per_point_weights",
    "eit_threshold",
    "noise_threshold",
    "discriminate",
    "discriminate_many",
    "NoiseSpec",
    "SweepResult",
    "BoundaryResult",
    "add_noise",
    "sweep_omega",
    "sweep_gbc_boundary",
]
