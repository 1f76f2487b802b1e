"""Noise injection and pump-strength sweeps.

Noise is multiplicative Gaussian: every sample is scaled by (1 + xi) with
xi drawn per point from N(0, sigma^2).  Draws come from a counter-based
generator keyed on (seed, replicate), so any replicate of any sweep point
can be regenerated in isolation and results never depend on execution
order.

A sweep builds all of its spectra before fitting any, then hands them to
the fitter together: spectra on one grid share every solver iteration,
and each still gets exactly the result it would get alone.  A dephasing
boundary runs one such sweep per dephasing value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fitter import FitConfig
from .lineshape import Spectrum, TlaParams, absorption_profile, default_grid, transparency_depth
from .selection import DEFAULT_MARGIN, discriminate_many

__all__ = [
    "MAX_SIGMA",
    "NoiseSpec",
    "SweepResult",
    "BoundaryResult",
    "add_noise",
    "sweep_omega",
    "sweep_gbc_boundary",
]


MAX_SIGMA = 0.5  # relative noise levels lie in [0, MAX_SIGMA)


@dataclass(frozen=True)
class NoiseSpec:
    """Relative noise level, stream seed, and replicate count."""

    sigma: float = 0.0
    seed: int = 0
    n_replicates: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.sigma < MAX_SIGMA:
            raise ValueError(f"sigma must lie in [0, {MAX_SIGMA:g}), got {self.sigma}")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.n_replicates < 1:
            raise ValueError(f"n_replicates must be >= 1, got {self.n_replicates}")


@dataclass(frozen=True)
class SweepResult:
    """Plot-ready table of a pump-strength sweep.

    ``axis`` holds the swept pump values, and each weight array one
    (eit, ats) pair per axis point, averaged over replicates when noise
    is on.  ``crossover`` is the interpolated pump value where the
    per-point weights cross, or None if they do not; ``fit_failures``
    counts the failed fits per axis point.
    """

    axis: np.ndarray
    per_point_weights: np.ndarray
    akaike_weights: np.ndarray
    crossover: float | None
    fit_failures: np.ndarray


@dataclass(frozen=True)
class BoundaryResult:
    """Weight-crossing pump strength across two-photon dephasing values.

    ``axis`` holds the dephasing values, ``boundary_omega`` the crossover
    found at each (NaN where the weights do not cross), and
    ``transparency`` the induced-dip depth at that crossover.
    """

    axis: np.ndarray
    boundary_omega: np.ndarray
    transparency: np.ndarray


def add_noise(data: Spectrum, spec: NoiseSpec, replicate: int = 0) -> Spectrum:
    """One noisy replicate of a spectrum: values scaled by (1 + xi) per point.

    The stream is keyed on (spec.seed, replicate); the same pair always
    reproduces the same replicate.  Negative outputs are kept as drawn.
    """
    if not 0 <= replicate < spec.n_replicates:
        raise ValueError(f"replicate {replicate} outside [0, {spec.n_replicates})")
    if spec.sigma == 0.0:
        values = data.values.copy()
    else:
        key = (int(spec.seed) << 64) | int(replicate)
        rng = np.random.Generator(np.random.Philox(key=key))
        xi = rng.normal(0.0, spec.sigma, size=data.n_points)
        values = data.values * (1.0 + xi)
    meta = dict(data.meta)
    meta.update({"noise_sigma": spec.sigma, "noise_seed": spec.seed, "replicate": replicate})
    return Spectrum(deltas=data.deltas.copy(), values=values, sigma_exp=spec.sigma, meta=meta)


def _interp_crossover(axis: np.ndarray, diff: np.ndarray) -> float | None:
    """First sign change of diff along axis, linearly interpolated."""
    for i in range(diff.size - 1):
        a, b = diff[i], diff[i + 1]
        if np.isnan(a) or np.isnan(b):
            continue
        if a == 0.0:
            return float(axis[i])
        if a * b < 0:
            t = a / (a - b)
            return float(axis[i] + t * (axis[i + 1] - axis[i]))
    if diff.size and diff[-1] == 0.0:
        return float(axis[-1])
    return None


def _increasing(values, name: str) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0 or not np.all(np.diff(values) > 0):
        raise ValueError(f"{name} must be a nonempty strictly increasing 1-D sequence")
    return values


def sweep_omega(
    gamma_ab: float,
    gamma_bc: float,
    noise: NoiseSpec,
    omegas,
    cfg: FitConfig | None = None,
    margin: float = DEFAULT_MARGIN,
    grid=None,
) -> SweepResult:
    """Run the discrimination test across pump strengths at resonant drive.

    Each pump value generates its profile on ``grid`` (default: the
    default detuning grid), applies noise (averaging both weight families
    over replicates when there are several), and records the resulting
    weights.  Every (pump value x replicate) spectrum is built first and
    all are discriminated in one :func:`eitats.selection.discriminate_many`
    call, with ``cfg`` defaulting to ``FitConfig()`` as everywhere else.
    Fit failures are counted per axis point; a failed model contributes
    the survivor-wins weights of its replicate.  If both fits of any
    spectrum fail, the :class:`eitats.fitter.FitConvergenceError` of the
    first such spectrum is raised.
    """
    omegas = _increasing(omegas, "omegas")
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)

    n_omega = omegas.size
    n_rep = 1 if noise.sigma == 0.0 else noise.n_replicates
    spectra = []
    for omega in omegas:
        p = TlaParams(omega=float(omega), delta1=0.0, gamma_ab=gamma_ab, gamma_bc=gamma_bc)
        base = absorption_profile(p, grid)
        if noise.sigma == 0.0:
            spectra.append(base)
        else:
            spectra.extend(add_noise(base, noise, r) for r in range(n_rep))
    reports = discriminate_many(spectra, cfg, margin)

    pp = np.empty((n_omega, 2))
    aw = np.empty((n_omega, 2))
    failures = np.zeros(n_omega, dtype=int)
    for i in range(n_omega):
        pp_acc = np.zeros(2)
        aw_acc = np.zeros(2)
        for report in reports[i * n_rep : (i + 1) * n_rep]:
            failures[i] += len(report.fit_failures)
            pp_acc += [report.per_point_weights["eit"] or 0.0, report.per_point_weights["ats"] or 0.0]
            aw_acc += [report.akaike_weights["eit"] or 0.0, report.akaike_weights["ats"] or 0.0]
        pp[i] = pp_acc / n_rep
        aw[i] = aw_acc / n_rep

    crossover = _interp_crossover(omegas, pp[:, 0] - pp[:, 1])
    return SweepResult(
        axis=omegas,
        per_point_weights=pp,
        akaike_weights=aw,
        crossover=crossover,
        fit_failures=failures,
    )


def sweep_gbc_boundary(
    gamma_ab: float,
    gbc_values,
    noise: NoiseSpec,
    omegas=None,
    cfg: FitConfig | None = None,
    margin: float = DEFAULT_MARGIN,
) -> BoundaryResult:
    """Locate the weight-crossing pump strength as the two-photon dephasing varies.

    Runs a pump sweep on the default detuning grid at each dephasing value
    (``omegas`` defaulting to 0.05:1.5:0.01; each sweep's fits share
    lockstep batches, see :func:`sweep_omega`), extracts its crossover, and
    records the induced-transparency depth evaluated there.  One sweep is
    held at a time, so memory grows with the pump axis, not the whole grid.
    """
    gbc_values = _increasing(gbc_values, "gbc_values")
    if np.any(gbc_values >= gamma_ab):
        raise ValueError("each gamma_bc must be below gamma_ab")
    if omegas is None:
        omegas = default_grid(0.05, 1.5, 0.01)
    boundary = np.full(gbc_values.size, np.nan)
    depth = np.full(gbc_values.size, np.nan)
    for i, gbc in enumerate(gbc_values):
        crossover = sweep_omega(gamma_ab, float(gbc), noise, omegas, cfg, margin).crossover
        if crossover is not None:
            boundary[i] = crossover
            depth[i] = transparency_depth(TlaParams(omega=crossover, gamma_ab=gamma_ab, gamma_bc=float(gbc)))
    return BoundaryResult(axis=gbc_values, boundary_omega=boundary, transparency=depth)
