"""Parametric lineshape models for the two transparency mechanisms.

The interference-type model is a broad positive Lorentzian minus a narrow
negative one, both centred at zero detuning (4 parameters).  The
splitting-type model is a pair of equal-width positive Lorentzians shifted
symmetrically from the origin (3 parameters).  Amplitudes enter squared,
so their sign never matters; widths enter squared as well, and the doublet
depends on its offset only through its square.

Both models are linear in their squared amplitudes ``alpha = c**2`` once
the nonlinear parameters ``theta`` are fixed: the model is
``sum_i alpha_i * Phi_i(theta)``.  One batched kernel, :func:`_basis`,
holds the Lorentzian formulas: it returns the columns ``Phi`` and their
derivatives with respect to ``theta``.  The fitter profiles the amplitudes
out through it, and evaluation and analytic Jacobians in the raw
parameters (which accept scalar or array detunings, and reject a raw
vector of the wrong length) are built from it.
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
    return evaluate(ModelKind.EIT, m, delta)


def eval_ats(m: AtsParams, delta):
    """Evaluate the shifted-doublet model; even in delta, nonnegative."""
    return evaluate(ModelKind.ATS, m, delta)


def as_array(params: EitParams | AtsParams) -> np.ndarray:
    """Flatten model parameters into the fitter's raw vector."""
    if isinstance(params, EitParams):
        return np.array([params.c_plus, params.c_minus, params.g_plus, params.g_minus])
    if isinstance(params, AtsParams):
        return np.array([params.c, params.g, params.d0])
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


def _raw(model: ModelKind, params) -> np.ndarray:
    """The raw vector of a dataclass or sequence, checked to hold ``model.k`` entries."""
    x = as_array(params) if isinstance(params, (EitParams, AtsParams)) else np.asarray(params, dtype=float)
    if x.shape != (model.k,):
        raise ValueError(f"expected {model.k} parameters for {model.value}, got {x.shape}")
    return x


def canonicalize(model: ModelKind, x) -> EitParams | AtsParams:
    """Map a raw fitted vector onto the canonical representative.

    Both models are invariant under sign flips of every amplitude and
    width (they enter squared), and the doublet is even in its offset, so
    the canonical form takes absolute values throughout.  The +/- labels
    of the signed pair follow the formula's signs and are never swapped;
    fits to absorption-like data land on the broad-positive ordering on
    their own.
    """
    x = np.abs(_raw(model, x))
    cls = EitParams if model is ModelKind.EIT else AtsParams
    return cls(*(float(v) for v in x))


# For each nonlinear parameter, the one column it moves: EIT's g_plus and
# g_minus each shape their own lobe, the doublet's g and u shape its only
# column.  The column count is the number of amplitudes.
_COLUMN_OF = {ModelKind.EIT: (0, 1), ModelKind.ATS: (0, 0)}


def _basis(
    model: ModelKind, theta: np.ndarray, deltas: np.ndarray, derivatives: bool = False, empty=np.empty, weight=1.0
):
    """Model columns at the nonlinear parameters ``theta`` of shape (s, 2).

    EIT: ``theta = (g_plus, g_minus)``, columns ``L(g_plus)`` and
    ``-L(g_minus)`` with ``L(g) = 1/(g**2 + d**2)``.  ATS: ``theta = (g, u)``
    with ``u = d0**2 >= 0``, one column ``L_g(d - d0) + L_g(d + d0)``.

    Returns the columns, shape (s, p, n), and with ``derivatives`` also
    ``dphi`` of shape (s, 2, n): ``dphi[:, j]`` is the derivative with
    respect to ``theta_j`` of column ``_COLUMN_OF[model][j]``, the only
    column ``theta_j`` moves.  Both are multiplied by ``weight``, a scalar
    or one factor per detuning (the fitter's square-root multiplicities);
    it enters the Lorentzians' numerators, so a weight of 1 changes no bit.

    Both are stored column by column, as a (p, s, n) block seen through a
    transpose, so that ``phi[:, j]`` is a contiguous (s, n) array: numpy
    runs elementwise work on a strided column several times slower.  Each
    block of s rows, the doublet's scratch rows included, comes from
    ``empty(shape)`` and is filled in place, so a caller that passes
    reused buffers allocates none here.
    """
    s, n = theta.shape[0], deltas.size
    g = theta[:, 0:1]
    if model is ModelKind.EIT:
        d2 = deltas * deltas
        gm = theta[:, 1:2]
        phi = empty((2, s, n))
        for col, width, numerator in ((phi[0], g, weight), (phi[1], gm, -weight)):
            np.add(width * width, d2, out=col)
            np.divide(numerator, col, out=col)
        if not derivatives:
            return phi.transpose(1, 0, 2)
        dphi = empty((2, s, n))
        for col, dcol, scale in ((phi[0], dphi[0], -2.0 * g), (phi[1], dphi[1], 2.0 * gm)):
            np.multiply(scale, col, out=dcol)
            dcol *= col
            dcol /= weight  # the product of two columns carries the weight twice
        return phi.transpose(1, 0, 2), dphi.transpose(1, 0, 2)
    # The doublet is even in the detuning, so |d| is used: then d0 >= 0
    # makes L(|d| + d0) the smaller Lorentzian, and du below has no
    # cancellation at either peak (d = +-d0).
    a = np.abs(deltas)
    gg = g * g
    d0 = np.sqrt(theta[:, 1:2])
    lm, lp = empty((2, s, n))
    np.subtract(a, d0, out=lm)
    np.add(a, d0, out=lp)
    for lor in (lm, lp):  # weight / (g**2 + (|d| -+ d0)**2)
        np.square(lor, out=lor)
        np.add(gg, lor, out=lor)
        np.divide(weight, lor, out=lor)
    phi = empty((1, s, n))
    np.add(lm, lp, out=phi[0])
    if not derivatives:
        return phi.transpose(1, 0, 2)
    dphi = empty((2, s, n))
    dg, du = dphi
    # d/du = (d/dd0) / (2 d0), with the 1/d0 cancelled analytically, so it
    # stays finite at d0 = 0 where the doublet merges:
    # du = 4 |d| (|d| - d0) lm lp (lm + lp) - 2 lp**2, factors applied left
    # to right (lm + lp is phi), each weighted product divided back to one weight.
    np.subtract(a, d0, out=du)
    np.multiply(4.0 * a / (weight * weight), du, out=du)
    du *= lm
    du *= lp
    du *= phi[0]
    np.multiply(2.0 / weight, lp, out=dg)
    dg *= lp
    du -= dg
    # dg = -2 g (lm**2 + lp**2)
    lm *= lm
    lp *= lp
    np.add(lm, lp, out=dg)
    np.multiply(-2.0 * g, dg, out=dg)
    dg /= weight
    return phi.transpose(1, 0, 2), dphi.transpose(1, 0, 2)


def _split(model: ModelKind, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw vectors (s, k) as nonlinear parameters (s, 2) and squared amplitudes (s, p)."""
    if model is ModelKind.EIT:
        return x[:, 2:4], np.square(x[:, 0:2])
    return np.column_stack((x[:, 1], np.square(x[:, 2]))), np.square(x[:, 0:1])


def _join(model: ModelKind, theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_split` on the canonical branch (nonnegative amplitudes and offset)."""
    if model is ModelKind.EIT:
        return np.column_stack((np.sqrt(alpha), theta))
    return np.column_stack((np.sqrt(alpha[:, 0]), theta[:, 0], np.sqrt(theta[:, 1])))


def evaluate(model: ModelKind, params, delta):
    """Evaluate either model from a dataclass or a raw parameter vector of ``model.k`` entries."""
    x = _raw(model, params)[None, :]
    d = np.asarray(delta, dtype=float)
    theta, alpha = _split(model, x)
    out = np.einsum("sp,spn->sn", alpha, _basis(model, theta, d.reshape(-1)))[0]
    return float(out[0]) if d.ndim == 0 else out.reshape(d.shape)


def jacobian(model: ModelKind, params, delta) -> np.ndarray:
    """Gradient of the model value with respect to each parameter.

    Returns shape (k,) for scalar ``delta`` and (n, k) for an array.
    Amplitude rows are ``2 c Phi``; width and offset rows are the squared
    amplitude times the column derivative, times ``du/dd0 = 2 d0`` for the
    doublet's offset.
    """
    x = _raw(model, params)[None, :]
    d = np.asarray(delta, dtype=float)
    theta, alpha = _split(model, x)
    phi, dphi = _basis(model, theta, d.reshape(-1), derivatives=True)
    p = phi.shape[1]
    jac = np.empty((1, model.k, d.size))
    np.multiply(2.0 * x[:, :p, None], phi, out=jac[:, :p])
    scale = alpha[:, list(_COLUMN_OF[model])]
    if model is ModelKind.ATS:
        scale[:, 1] *= 2.0 * x[:, 2]
    np.multiply(scale[:, :, None], dphi, out=jac[:, p:])
    return jac[0, :, 0] if d.ndim == 0 else jac[0].T
