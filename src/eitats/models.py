"""Parametric lineshape models for the two transparency mechanisms.

The interference-type model is a broad positive Lorentzian minus a narrow
negative one, both centred at zero detuning (4 parameters).  The
splitting-type model is a pair of equal-width positive Lorentzians shifted
symmetrically from the origin (3 parameters).  Amplitudes enter squared,
so their sign never matters; widths enter squared as well, which is what
lets the fitter work in an unconstrained parameter space.

Evaluation and analytic Jacobians accept scalar or array detunings.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ModelKind",
    "EitParams",
    "AtsParams",
    "eval_eit",
    "eval_ats",
    "evaluate",
    "jacobian",
    "canonicalize",
    "as_array",
    "params_from_array",
]


class ModelKind(Enum):
    """The two competing lineshape models and their parameter counts."""

    EIT = "eit"
    ATS = "ats"

    @property
    def k(self) -> int:
        """Number of fitting parameters (4 for EIT, 3 for ATS)."""
        return 4 if self is ModelKind.EIT else 3


@dataclass(frozen=True)
class EitParams:
    """Signed Lorentzian pair at the origin: c_plus**2/(g_plus**2+d**2) - c_minus**2/(g_minus**2+d**2)."""

    c_plus: float
    c_minus: float
    g_plus: float
    g_minus: float

    def __post_init__(self) -> None:
        if not self.g_plus > 0 or not self.g_minus > 0:
            raise ValueError(f"widths must be > 0, got {self.g_plus}, {self.g_minus}")


@dataclass(frozen=True)
class AtsParams:
    """Equal-width Lorentzian doublet at +-d0: c**2 * [L(d-d0) + L(d+d0)]."""

    c: float
    g: float
    d0: float

    def __post_init__(self) -> None:
        if not self.g > 0:
            raise ValueError(f"width must be > 0, got {self.g}")


def eval_eit(m: EitParams, delta):
    """Evaluate the signed-pair model; even in delta."""
    d2 = np.square(np.asarray(delta, dtype=float))
    out = m.c_plus**2 / (m.g_plus**2 + d2) - m.c_minus**2 / (m.g_minus**2 + d2)
    return float(out) if np.ndim(delta) == 0 else out


def eval_ats(m: AtsParams, delta):
    """Evaluate the shifted-doublet model; even in delta, nonnegative."""
    d = np.asarray(delta, dtype=float)
    out = m.c**2 * (1.0 / (m.g**2 + (d - m.d0) ** 2) + 1.0 / (m.g**2 + (d + m.d0) ** 2))
    return float(out) if np.ndim(delta) == 0 else out


def as_array(params: EitParams | AtsParams) -> np.ndarray:
    """Flatten model parameters into the fitter's raw vector."""
    if isinstance(params, EitParams):
        return np.array([params.c_plus, params.c_minus, params.g_plus, params.g_minus])
    if isinstance(params, AtsParams):
        return np.array([params.c, params.g, params.d0])
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def params_from_array(model: ModelKind, x) -> EitParams | AtsParams:
    """Inverse of :func:`as_array`; validates widths."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.k,):
        raise ValueError(f"expected {model.k} parameters for {model.value}, got {x.shape}")
    if model is ModelKind.EIT:
        return EitParams(*(float(v) for v in x))
    return AtsParams(*(float(v) for v in x))


def canonicalize(model: ModelKind, x) -> EitParams | AtsParams:
    """Map a raw fitted vector onto the canonical representative.

    Both models are invariant under sign flips of every amplitude and
    width (they enter squared), and the doublet is even in its offset, so
    the canonical form takes absolute values throughout.  The +/- labels
    of the signed pair follow the formula's signs and are never swapped;
    fits to absorption-like data land on the broad-positive ordering on
    their own.
    """
    x = np.abs(np.asarray(x, dtype=float))
    return params_from_array(model, x)


def _eval_array(model: ModelKind, x: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Model values for a stack of raw vectors ``x`` of shape (s, k); shape (s, n)."""
    d = deltas[None, :]
    if model is ModelKind.EIT:
        cp, cm, gp, gm = (x[:, i : i + 1] for i in range(4))
        d2 = d * d
        return cp * cp / (gp * gp + d2) - cm * cm / (gm * gm + d2)
    c, g, d0 = (x[:, i : i + 1] for i in range(3))
    return c * c * (1.0 / (g * g + (d - d0) ** 2) + 1.0 / (g * g + (d + d0) ** 2))


def _jacobian_array(model: ModelKind, x: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Analytic d(model)/d(params) for a stack of raw vectors; shape (s, k, n).

    Parameters sit on the middle axis so that the fitter's normal
    equations are batched matrix products over contiguous rows.  Each
    column is written straight into the result, since a fitting batch can
    hold hundreds of rows.
    """
    d = deltas[None, :]
    jac = np.empty((x.shape[0], model.k, deltas.size))
    if model is ModelKind.EIT:
        cp, cm, gp, gm = (x[:, i : i + 1] for i in range(4))
        d2 = d * d
        lp = 1.0 / (gp * gp + d2)
        lm = 1.0 / (gm * gm + d2)
        np.multiply(2.0 * cp, lp, out=jac[:, 0])
        np.multiply(-2.0 * cm, lm, out=jac[:, 1])
        np.multiply(-2.0 * gp * cp * cp * lp, lp, out=jac[:, 2])
        np.multiply(2.0 * gm * cm * cm * lm, lm, out=jac[:, 3])
        return jac
    c, g, d0 = (x[:, i : i + 1] for i in range(3))
    lm_ = 1.0 / (g * g + (d - d0) ** 2)
    lp_ = 1.0 / (g * g + (d + d0) ** 2)
    np.multiply(2.0 * c, lm_ + lp_, out=jac[:, 0])
    np.multiply(-2.0 * g * c * c, lm_ * lm_ + lp_ * lp_, out=jac[:, 1])
    np.multiply(c * c, 2.0 * (d - d0) * lm_ * lm_ - 2.0 * (d + d0) * lp_ * lp_, out=jac[:, 2])
    return jac


def evaluate(model: ModelKind, params, delta):
    """Evaluate either model from a dataclass or a raw parameter vector."""
    x = as_array(params) if isinstance(params, (EitParams, AtsParams)) else np.asarray(params, dtype=float)
    d = np.asarray(delta, dtype=float)
    out = _eval_array(model, x[None, :], d.reshape(-1))[0]
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def jacobian(model: ModelKind, params, delta) -> np.ndarray:
    """Gradient of the model value with respect to each parameter.

    Returns shape (k,) for scalar ``delta`` and (n, k) for an array.
    """
    x = as_array(params) if isinstance(params, (EitParams, AtsParams)) else np.asarray(params, dtype=float)
    if x.shape != (model.k,):
        raise ValueError(f"expected {model.k} parameters for {model.value}, got {x.shape}")
    d = np.asarray(delta, dtype=float)
    jac = _jacobian_array(model, x[None, :], d.reshape(-1))[0].T
    return jac[0] if d.ndim == 0 else jac
