"""Information-criterion model selection and the transparency verdict.

For a least-squares fit the information value is N*log(ssr/N) + 2K
(natural log, K fitting parameters).  Relative model likelihoods are
softmax weights of -I/2, computed with a max shift so arbitrarily large
information gaps stay finite.  The per-point variant divides I by N
first, which keeps noisy-data comparisons from binarizing as N grows.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fitter import FitConfig, FitConvergenceError, FitResult, _exp, fit_many, variance_floor
# Not called here.  The benchmark's tracer (perfbench/spans.py) patches
# eitats.selection.fit, and its smoke test reads the name.
from .fitter import fit  # noqa: F401
from .lineshape import Spectrum
from .models import ModelKind

__all__ = [
    "Verdict",
    "SelectionReport",
    "aic_least_squares",
    "akaike_weights",
    "per_point_weights",
    "eit_threshold",
    "noise_threshold",
    "discriminate",
    "discriminate_many",
    "DEFAULT_MARGIN",
    "MAX_MARGIN",
    "MAX_SIGMA",
]

DEFAULT_MARGIN = 0.1
MAX_MARGIN = 1.0  # margins lie in [0, MAX_MARGIN)
MAX_SIGMA = 0.5  # relative noise levels lie in [0, MAX_SIGMA)


class Verdict(Enum):
    EIT = "EIT"
    ATS = "ATS"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class SelectionReport:
    """Information values, both weight families, and the verdict.

    Dict fields are keyed by model name ("eit", "ats"); a model that
    failed to fit carries None entries and is listed in ``fit_failures``.
    """

    aic: dict[str, float | None]
    akaike_weights: dict[str, float | None]
    per_point_aic: dict[str, float | None]
    per_point_weights: dict[str, float | None]
    verdict: Verdict
    inconclusive_margin: float
    fits: dict[str, FitResult | None]
    fit_failures: dict[str, str]


def aic_least_squares(ssr: float, n: int, k: int) -> float:
    """Information value n*ln(ssr/n) + 2k of a least-squares fit.

    ``ssr`` must be positive; callers floor exact-fit residuals first
    (see :func:`eitats.fitter.variance_floor`).
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not ssr > 0:
        raise ValueError("ssr must be positive; floor exact-fit residuals first")
    return n * math.log(ssr / n) + 2 * k


def akaike_weights(aics) -> np.ndarray:
    """Relative likelihood of each model: softmax of -I/2.

    Evaluated with the minimum information subtracted first, so any
    spread of finite inputs produces finite weights summing to 1.
    """
    info = np.asarray(aics, dtype=float)
    if info.size == 0:
        raise ValueError("need at least one information value")
    if not np.all(np.isfinite(info)):
        raise ValueError("information values must be finite")
    w = _exp(-(info - info.min()) / 2.0)
    return w / w.sum()


def per_point_weights(aics, n: int) -> np.ndarray:
    """Softmax of -I/(2N): the noise-robust per-point weight family."""
    if n <= 0:
        raise ValueError("n must be positive")
    return akaike_weights(np.asarray(aics, dtype=float) / n)


def eit_threshold(gamma_ab: float, gamma_bc: float) -> float:
    """Pump strength below which both resonances decay through one channel:
    (gamma_ab - gamma_bc) / 2."""
    if gamma_bc < 0:
        raise ValueError("gamma_bc must be >= 0")
    if gamma_bc > gamma_ab:
        raise ValueError("threshold undefined for gamma_bc > gamma_ab")
    return (gamma_ab - gamma_bc) / 2.0


def noise_threshold(gamma_ab: float, gamma_bc: float, sigma: float) -> float:
    """Pump strength below which the induced dip hides under relative noise
    of scale sigma: sqrt(2*sigma*gamma_ab*gamma_bc / (1 - 2*sigma))."""
    if not 0 <= sigma < MAX_SIGMA:
        raise ValueError(f"sigma must lie in [0, {MAX_SIGMA:g}), got {sigma}")
    if gamma_ab < 0 or gamma_bc < 0:
        raise ValueError("rates must be nonnegative")
    return math.sqrt(2.0 * sigma * gamma_ab * gamma_bc / (1.0 - 2.0 * sigma))


def _report(data: Spectrum, outcomes: dict[str, FitResult | Exception], margin: float) -> SelectionReport:
    """Weights and verdict from both models' fit outcomes on one spectrum.

    A fit that raised is recorded as a failure; if both did, the spectrum
    has no verdict and :class:`FitConvergenceError` is raised.
    """
    fits = {name: o if isinstance(o, FitResult) else None for name, o in outcomes.items()}
    failures = {name: str(o) for name, o in outcomes.items() if fits[name] is None}
    if all(f is None for f in fits.values()):
        raise FitConvergenceError(f"both model fits failed: {failures}")

    n = data.n_points
    floor = variance_floor(data.values) * n
    fitted = [kind for kind in ModelKind if fits[kind.value] is not None]
    info = np.array([aic_least_squares(max(fits[kind.value].ssr, floor), n, kind.k) for kind in fitted])

    def table(values: np.ndarray) -> dict[str, float | None]:
        """``{eit, ats}``: the fitted models' ``values`` in order, None for a failed model."""
        by_name = {kind.value: float(v) for kind, v in zip(fitted, values)}
        return {kind.value: by_name.get(kind.value) for kind in ModelKind}

    aic, pp_aic = table(info), table(info / n)
    weights, pp_weights = table(akaike_weights(info)), table(per_point_weights(info, n))

    # A failed model weighs 0, so a lone survivor (weight 1) clears any margin.
    diff = (pp_weights["eit"] or 0.0) - (pp_weights["ats"] or 0.0)
    if abs(diff) < margin:
        verdict = Verdict.INCONCLUSIVE
    else:
        verdict = Verdict.EIT if diff > 0 else Verdict.ATS

    return SelectionReport(
        aic=aic,
        akaike_weights=weights,
        per_point_aic=pp_aic,
        per_point_weights=pp_weights,
        verdict=verdict,
        inconclusive_margin=margin,
        fits=fits,
        fit_failures=failures,
    )


def discriminate(
    data: Spectrum,
    cfg: FitConfig | None = None,
    margin: float = DEFAULT_MARGIN,
) -> SelectionReport:
    """Fit both models and report which transparency mechanism the data favor.

    The verdict is Inconclusive when the per-point weights differ by less
    than ``margin``; otherwise it names the model with the larger weight.
    If exactly one model fails to fit, the survivor wins by default and
    the failure is recorded; if both fail, :class:`FitConvergenceError`
    is raised.  This is :func:`discriminate_many` on one spectrum.
    """
    return discriminate_many([data], cfg, margin)[0]


def discriminate_many(
    spectra: Sequence[Spectrum],
    cfg: FitConfig | None = None,
    margin: float = DEFAULT_MARGIN,
) -> list[SelectionReport]:
    """:func:`discriminate` on each of many spectra sharing one detuning grid.

    Each model is fitted to all spectra in one :func:`eitats.fitter.fit_many`
    call, which returns a failed fit as its exception, so every report
    equals the one this gives for that spectrum alone.  Raises
    :class:`FitConvergenceError` for the first spectrum on which both fits
    fail, and ValueError if the spectra do not share one detuning grid or
    ``margin`` lies outside [0, MAX_MARGIN).
    """
    if not 0 <= margin < MAX_MARGIN:
        raise ValueError(f"margin must lie in [0, {MAX_MARGIN:g}), got {margin}")
    per_model = {kind.value: fit_many(kind, spectra, cfg) for kind in ModelKind}
    return [
        _report(data, {name: outcomes[i] for name, outcomes in per_model.items()}, margin)
        for i, data in enumerate(spectra)
    ]
