"""Parametric lineshape models for the two transparency mechanisms.

The interference-type model is a broad positive Lorentzian minus a narrow
negative one, both centred at zero detuning (4 parameters).  The
splitting-type model is a pair of equal-width positive Lorentzians shifted
symmetrically from the origin (3 parameters).  Amplitudes enter squared,
so their sign never matters; widths enter squared as well, and the doublet
depends on its offset only through its square.

Both models are linear in their squared amplitudes ``alpha = c**2`` once
the nonlinear parameters ``theta`` are fixed: the model is
``sum_i alpha_i * Phi_i(theta)``.  Two batched kernels hold the
Lorentzian formulas: :func:`_columns` returns the columns ``Phi`` and
:func:`_derivatives` their derivatives with respect to ``theta``.  The
fitter profiles the amplitudes out through them, and evaluation and
analytic Jacobians in the raw parameters (which accept scalar or array
detunings, and reject a raw vector of the wrong length) are built from
them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

__all__ = [
    "ModelKind",
    "EitParams",
    "EitLimit",
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


class EitLimit(NamedTuple):
    """The signed pair's merged-width limit: a/(g**2+d**2) + b/(g**2+d**2)**2.

    As ``g_minus -> g_plus = g`` with ``c_minus**2 (g_plus**2 - g_minus**2)
    -> -b`` and ``c_plus**2 - c_minus**2 -> a`` the pair tends to this
    curve; either sign of ``a`` and ``b`` is a limit of some pair.  A
    report writes it as the list ``[a, b, g]``.
    """

    a: float
    b: float
    g: float


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


def _columns(model: ModelKind, theta: np.ndarray, deltas: np.ndarray, empty=np.empty, weight=1.0) -> np.ndarray:
    """Model columns at the nonlinear parameters ``theta`` of shape (s, 2), with what their derivatives need.

    EIT: ``theta = (g_plus, g_minus)``, columns ``L(g_plus)`` and
    ``-L(g_minus)`` with ``L(g) = 1/(g**2 + d**2)``.  ATS: ``theta = (g, u)``
    with ``u = d0**2 >= 0``, one column ``L_g(d - d0) + L_g(d + d0)``
    followed by its two Lorentzians ``L_g(|d| - d0)`` and ``L_g(|d| + d0)``,
    from which :func:`_derivatives` forms its derivatives.  Returns shape
    (s, c, n), the model's columns first; all are multiplied by ``weight``,
    a scalar or one factor per detuning (the fitter's square-root
    multiplicities).  It enters the Lorentzians' numerators, so a weight of
    1 changes no bit.

    The result is stored column by column, as one (c, s, n) block from
    ``empty(shape)`` seen through a transpose, so that ``cols[:, j]`` is a
    contiguous (s, n) array: numpy runs elementwise work on a strided
    column several times slower.  A caller that passes reused buffers
    allocates nothing here.
    """
    s, n = theta.shape[0], deltas.size
    g = theta[:, 0:1]
    if model is ModelKind.EIT:
        d2 = deltas * deltas
        cols = empty((2, s, n))
        for col, width, numerator in ((cols[0], g, weight), (cols[1], theta[:, 1:2], -weight)):
            np.add(width * width, d2, out=col)
            np.divide(numerator, col, out=col)
        return cols.transpose(1, 0, 2)
    # The doublet is even in the detuning, so |d| is used: then d0 >= 0
    # makes L(|d| + d0) the smaller Lorentzian, and the offset derivative
    # has no cancellation at either peak (d = +-d0).
    a = np.abs(deltas)
    gg = g * g
    d0 = np.sqrt(theta[:, 1:2])
    cols = empty((3, s, n))
    phi, lm, lp = cols
    np.subtract(a, d0, out=lm)
    np.add(a, d0, out=lp)
    for lor in (lm, lp):  # weight / (g**2 + (|d| -+ d0)**2)
        np.square(lor, out=lor)
        np.add(gg, lor, out=lor)
        np.divide(weight, lor, out=lor)
    np.add(lm, lp, out=phi)
    return cols.transpose(1, 0, 2)


def _derivatives(
    model: ModelKind, theta: np.ndarray, deltas: np.ndarray, cols: np.ndarray, empty=np.empty, weight=1.0
) -> np.ndarray:
    """``dphi`` (s, 2, n) from what :func:`_columns` returned at ``theta``.

    ``dphi[:, j]`` is the derivative with respect to ``theta_j`` of column
    ``_COLUMN_OF[model][j]``, the only column ``theta_j`` moves, weighted
    as the columns are and stored as they are.  Of the doublet's ``cols``
    only its two Lorentzians are read, and they are overwritten; its
    column's block may already hold something else.
    """
    s, n = theta.shape[0], deltas.size
    g = theta[:, 0:1]
    dphi = empty((2, s, n))
    if model is ModelKind.EIT:
        for col, dcol, scale in ((cols[:, 0], dphi[0], -2.0 * g), (cols[:, 1], dphi[1], 2.0 * theta[:, 1:2])):
            np.multiply(scale, col, out=dcol)
            dcol *= col
            dcol /= weight  # the product of two columns carries the weight twice
        return dphi.transpose(1, 0, 2)
    a = np.abs(deltas)
    d0 = np.sqrt(theta[:, 1:2])
    lm, lp = cols[:, 1], cols[:, 2]
    dg, du = dphi
    # d/du = (d/dd0) / (2 d0), with the 1/d0 cancelled analytically, so it
    # stays finite at d0 = 0 where the doublet merges:
    # du = 4 |d| (|d| - d0) lm lp (lm + lp) - 2 lp**2, factors applied left
    # to right (lm + lp, the column, formed in dg as _columns forms it),
    # each weighted product divided back to one weight.
    np.subtract(a, d0, out=du)
    np.multiply(4.0 * a / (weight * weight), du, out=du)
    du *= lm
    du *= lp
    np.add(lm, lp, out=dg)
    du *= dg
    np.multiply(2.0 / weight, lp, out=dg)
    dg *= lp
    du -= dg
    # dg = -2 g (lm**2 + lp**2)
    lm *= lm
    lp *= lp
    np.add(lm, lp, out=dg)
    np.multiply(-2.0 * g, dg, out=dg)
    dg /= weight
    return dphi.transpose(1, 0, 2)


def _split(model: ModelKind, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Raw vectors (s, k) as nonlinear parameters (s, 2) and squared amplitudes (s, p)."""
    if model is ModelKind.EIT:
        return x[:, 2:4], np.square(x[:, 0:2])
    return np.column_stack((x[:, 1], np.square(x[:, 2]))), np.square(x[:, 0:1])


# Relative width offset of the signed pair that stands for a limit form
# (see _join).
_LIMIT_OFFSET = 1e-6


def _join(model: ModelKind, theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_split` on the canonical branch (nonnegative amplitudes and offset).

    An EIT row with equal widths holds the limit form's ``(a, b)`` in
    ``alpha`` (see :class:`EitLimit`); it becomes the signed pair with
    ``g_minus = g (1 -+ _LIMIT_OFFSET)``, narrower for ``b < 0`` and wider
    otherwise, ``c_minus**2 = |b| / |g**2 - g_minus**2|`` (raised to ``-a``
    if ``c_plus**2`` would be negative) and ``c_plus**2 = a + c_minus**2``,
    whose curve is the limit's to about ``_LIMIT_OFFSET`` of its lobes.
    """
    if model is ModelKind.ATS:
        return np.column_stack((np.sqrt(alpha[:, 0]), theta[:, 0], np.sqrt(theta[:, 1])))
    on = theta[:, 0] == theta[:, 1]
    x = np.column_stack((np.sqrt(np.where(on[:, None], 0.0, alpha)), theta))
    if on.any():
        (a, b), g = alpha[on].T, theta[on, 0]
        g_minus = g * (1.0 + np.copysign(_LIMIT_OFFSET, b))
        c_minus_sq = np.maximum(np.abs(b) / np.abs((g - g_minus) * (g + g_minus)), -a)
        x[on] = np.column_stack((np.sqrt(a + c_minus_sq), np.sqrt(c_minus_sq), g, g_minus))
    return x


def evaluate(model: ModelKind, params, delta):
    """Evaluate either model from a dataclass or a raw parameter vector of ``model.k`` entries."""
    x = _raw(model, params)[None, :]
    d = np.asarray(delta, dtype=float)
    theta, alpha = _split(model, x)
    p = alpha.shape[1]
    out = np.einsum("sp,spn->sn", alpha, _columns(model, theta, d.reshape(-1))[:, :p])[0]
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
    cols = _columns(model, theta, d.reshape(-1))
    p = alpha.shape[1]
    phi = cols[:, :p]
    dphi = _derivatives(model, theta, d.reshape(-1), cols)
    jac = np.empty((1, model.k, d.size))
    np.multiply(2.0 * x[:, :p, None], phi, out=jac[:, :p])
    scale = alpha[:, list(_COLUMN_OF[model])]
    if model is ModelKind.ATS:
        scale[:, 1] *= 2.0 * x[:, 2]
    np.multiply(scale[:, :, None], dphi, out=jac[:, p:])
    return jac[0, :, 0] if d.ndim == 0 else jac[0].T
