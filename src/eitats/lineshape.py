"""Analytic lineshapes of a pump-probe three-level system.

The weak probe's linear response is a single complex function of the
two-photon detuning; its imaginary part is the absorption profile.  The
response factors into two complex resonances ("decaying dressed states"),
which is what makes the broad-plus-narrow versus split-doublet structure
of the profile explicit.  A driven-circuit transmission measurement maps
onto the same mathematics, so it is generated here as well.

All rates share one unit system (dimensionless model units or MHz); the
functions are unit-agnostic.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
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
]


class DegeneratePoleError(ValueError):
    """Both resonances coincide (exceptional point); no decomposition exists."""


def _check_rates(params, positive: tuple[str, ...], nonnegative: tuple[str, ...]) -> None:
    """Reject the first field, in field order, that is out of its range or not finite."""
    for f in fields(params):
        value = getattr(params, f.name)
        if f.name in positive and not value > 0:
            raise ValueError(f"{f.name} must be > 0, got {value}")
        if f.name in nonnegative and value < 0:
            raise ValueError(f"{f.name} must be >= 0, got {value}")
        if not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite")


@dataclass(frozen=True)
class TlaParams:
    """Rates of the driven three-level system.

    Parameters
    ----------
    alpha : float
        Probe Rabi frequency (overall amplitude of the response), > 0.
    omega : float
        Pump Rabi frequency, >= 0.  Controls the dressed-state separation.
    delta1 : float
        One-photon detuning of the pump.
    gamma_ab : float
        Dephasing rate of the probed transition, > 0.
    gamma_bc : float
        Dephasing rate of the two-photon coherence, >= 0.
    """

    alpha: float = 1.0
    omega: float = 0.0
    delta1: float = 0.0
    gamma_ab: float = 1.0
    gamma_bc: float = 0.1

    def __post_init__(self) -> None:
        _check_rates(self, positive=("alpha", "gamma_ab"), nonnegative=("omega", "gamma_bc"))


@dataclass(frozen=True)
class CircuitParams:
    """Rates of the driven-circuit transmission analog.

    gamma_rel is the population relaxation rate of the probed transition;
    gamma_ab and gamma_bc are the dephasing rates; omega is the
    control-field amplitude.  Same unit conventions as :class:`TlaParams`.
    """

    gamma_rel: float
    gamma_ab: float
    gamma_bc: float
    omega: float = 0.0

    def __post_init__(self) -> None:
        _check_rates(self, positive=("gamma_rel", "gamma_ab"), nonnegative=("gamma_bc", "omega"))


@dataclass(frozen=True)
class PoleDecomposition:
    """The two complex resonances of the probe response and their strengths.

    The response divided by its amplitude equals
    ``s_plus / (delta - delta_plus) + s_minus / (delta - delta_minus)``;
    the strengths always sum to exactly 1.
    """

    delta_plus: complex
    delta_minus: complex
    s_plus: complex
    s_minus: complex


@dataclass
class Spectrum:
    """A sampled profile: detuning grid, values, optional noise scale.

    The grid must be strictly increasing and the same length as the
    values, and every value must be finite.  ``sigma_exp``, if given, is a
    finite nonnegative relative noise scale carried for reporting only.
    """

    deltas: np.ndarray
    values: np.ndarray
    sigma_exp: float | None = None

    def __post_init__(self) -> None:
        deltas = np.asarray(self.deltas, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if deltas.ndim != 1 or values.ndim != 1:
            raise ValueError("deltas and values must be one-dimensional")
        if deltas.size != values.size:
            raise ValueError(
                f"length mismatch: {deltas.size} deltas vs {values.size} values"
            )
        if deltas.size == 0:
            raise ValueError("spectrum must contain at least one point")
        if not np.all(np.isfinite(deltas)):
            raise ValueError("deltas must be finite")
        if not np.all(np.isfinite(values)):
            i = int(np.argmin(np.isfinite(values)))
            raise ValueError(f"values must be finite, got {values[i]} at index {i}")
        if not np.all(np.diff(deltas) > 0):
            raise ValueError("deltas must be strictly increasing")
        if self.sigma_exp is not None and not 0 <= self.sigma_exp < np.inf:
            raise ValueError(f"sigma_exp must be finite and >= 0, got {self.sigma_exp}")
        self.deltas = deltas
        self.values = values

    @property
    def n_points(self) -> int:
        return int(self.deltas.size)


def default_grid(lo: float = -5.0, hi: float = 5.0, step: float = 0.05) -> np.ndarray:
    """Uniform detuning grid from lo to hi inclusive (default 201 points).

    ``step`` must divide ``hi - lo`` up to rounding; a step that does not
    is rejected rather than silently replaced by the nearest one that does.
    A grid with ``lo == -hi`` is exactly mirror-symmetric, ``g == -g[::-1]``
    (``linspace`` alone rounds some of -x and x differently), so the fitter
    can fold it onto ``|delta|``; any other grid is ``np.linspace``'s.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and np.isfinite(step)):
        raise ValueError("grid bounds and step must be finite")
    if step <= 0 or hi <= lo:
        raise ValueError("grid requires hi > lo and step > 0")
    steps = (hi - lo) / step
    n = round(steps)
    # Decimal bounds and steps are inexact in binary: 0.05:1.5:0.01 is
    # 144.99999999999997 steps, so a relative slack of 1e-9 per step.
    if abs(steps - n) > 1e-9 * n:
        raise ValueError(f"step {step:g} does not divide hi - lo = {hi - lo:g}")
    grid = np.linspace(lo, hi, n + 1)
    return (grid - grid[::-1]) / 2.0 if lo == -hi else grid


def susceptibility(p: TlaParams, delta):
    """Probe-transition coherence at two-photon detuning ``delta``.

    Evaluates ``alpha / [delta + delta1 - i*gamma_ab
    - omega**2 / (delta - i*gamma_bc)]``.  The imaginary part is the
    absorption (amplitude convention: the proportionality constant is 1).

    ``delta`` may be a scalar or an array; the return type follows.

    Raises
    ------
    ValueError
        If ``gamma_bc == 0`` and the pump is on and ``delta == 0``
        (the pump term is singular there), or if the evaluation would
        divide by a vanishing denominator.
    """
    d = np.asarray(delta, dtype=float)
    if not np.all(np.isfinite(d)):
        raise ValueError("delta must be finite")
    if p.omega > 0 and p.gamma_bc == 0.0 and np.any(d == 0.0):
        idx = int(np.argmax(np.atleast_1d(d) == 0.0))
        raise ValueError(
            "singular evaluation: pump term diverges at delta=0 when gamma_bc=0 "
            f"(grid index {idx})"
        )
    if p.omega > 0:
        pump = p.omega**2 / (d - 1j * p.gamma_bc)
    else:
        pump = 0.0
    den = d + p.delta1 - 1j * p.gamma_ab - pump
    mag = np.abs(den)
    if np.any(mag < np.finfo(float).tiny):
        idx = int(np.argmax(np.atleast_1d(mag) < np.finfo(float).tiny))
        raise ValueError(f"singular evaluation: denominator underflow at grid index {idx}")
    out = p.alpha / den
    if np.ndim(delta) == 0:
        return complex(out)
    return out


def pole_decomposition(p: TlaParams) -> PoleDecomposition:
    """Split the probe response into its two complex resonances.

    The poles are ``-delta1/2 + i*(gamma_ab+gamma_bc)/2 +/- r`` with
    ``r = sqrt(omega**2 + (delta1 - i*gamma_ab + i*gamma_bc)**2 / 4)``
    on the principal branch, so ``delta_plus - delta_minus == 2*r``.
    Strengths are ``+/- (pole - i*gamma_bc) / (delta_plus - delta_minus)``.

    Raises
    ------
    DegeneratePoleError
        If the pole separation is below ``1e-10 * (gamma_ab + gamma_bc)``;
        this happens exactly at resonant drive with the pump at half the
        dephasing-rate difference.
    """
    centre = -0.5 * p.delta1 + 0.5j * (p.gamma_ab + p.gamma_bc)
    root = cmath.sqrt(p.omega**2 + 0.25 * (p.delta1 - 1j * (p.gamma_ab - p.gamma_bc)) ** 2)
    delta_plus = centre + root
    delta_minus = centre - root
    separation = delta_plus - delta_minus
    if abs(separation) < 1e-10 * (p.gamma_ab + p.gamma_bc):
        raise DegeneratePoleError(
            f"poles coincide to within tolerance at omega={p.omega}, delta1={p.delta1}"
        )
    s_plus = (delta_plus - 1j * p.gamma_bc) / separation
    s_minus = -(delta_minus - 1j * p.gamma_bc) / separation
    return PoleDecomposition(delta_plus, delta_minus, s_plus, s_minus)


def absorption_profile(p: TlaParams, grid) -> Spectrum:
    """Absorption profile Im(susceptibility) sampled on ``grid``."""
    grid = np.asarray(grid, dtype=float)
    values = np.imag(susceptibility(p, grid))
    return Spectrum(deltas=grid, values=values)


def transmission_profile(c: CircuitParams, grid) -> Spectrum:
    """Absorption-like profile 1 - Re(t) of the circuit transmission.

    The transmission coefficient is
    ``t = 1 - (gamma_rel/2) / [gamma_ab + i*delta
    + omega**2 / (gamma_bc + i*delta)]``.  Returning ``1 - Re(t)``
    orients the curve as a positive peak with a central dip, so it can be
    fitted exactly like an absorption profile.  It is formed in real
    arithmetic, ``(gamma_rel/2) (gamma_bc Dr + delta Di) / (Dr**2 + Di**2)``
    with ``Dr + i Di = (gamma_ab + i delta)(gamma_bc + i delta) + omega**2``,
    each operation correctly rounded whatever SIMD loops numpy dispatches.
    """
    d = np.asarray(grid, dtype=float)
    if c.omega > 0:
        dr = (c.gamma_ab * c.gamma_bc + c.omega * c.omega) - d * d
        di = d * (c.gamma_ab + c.gamma_bc)
        values = (c.gamma_rel / 2.0) * (c.gamma_bc * dr + d * di) / (dr * dr + di * di)
    else:
        values = (c.gamma_rel / 2.0) * c.gamma_ab / (c.gamma_ab * c.gamma_ab + d * d)
    return Spectrum(deltas=d, values=values)


def transparency_depth(p: TlaParams) -> float:
    """Relative suppression of on-resonance absorption by the pump.

    Equals ``1 - A(0, omega) / A(0, 0)``, which reduces to
    ``omega**2 / (gamma_ab*gamma_bc + omega**2)`` and lies in [0, 1).
    Defined for resonant drive (``delta1 == 0``) and ``gamma_bc > 0``.
    """
    if p.delta1 != 0.0:
        raise ValueError("transparency depth is defined for resonant drive (delta1=0)")
    if not p.gamma_bc > 0:
        raise ValueError("transparency depth requires gamma_bc > 0")
    w2 = p.omega**2
    return w2 / (p.gamma_ab * p.gamma_bc + w2)
