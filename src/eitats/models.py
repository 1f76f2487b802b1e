"""Parametric lineshape models for the two transparency mechanisms.

The interference-type model is a broad positive Lorentzian minus a narrow
negative one, both centred at zero detuning (4 parameters).  The
splitting-type model is a pair of equal-width positive Lorentzians shifted
symmetrically from the origin (3 parameters).  Amplitudes enter squared,
so their sign never matters; widths enter squared as well, and the doublet
depends on its offset only through its square.

Both models are linear in coefficients ``alpha`` once two nonlinear
parameters ``theta = (g, u)`` are fixed: the model is ``sum_i alpha_i *
Phi_i(theta)``.  For the doublet ``alpha`` is its squared amplitude; the
signed pair is fitted in the mean and squared half-gap of its widths,
where its columns stay smooth as the widths merge (see :func:`_columns`).
Two batched kernels hold the formulas: :func:`_columns` returns the
columns and :func:`_derivatives` the derivatives of a curve ``alpha .
Phi`` with respect to ``theta``.  The fitter profiles ``alpha`` out through them.  Evaluation
and analytic Jacobians in the raw parameters accept scalar or array
detunings and reject a raw vector of the wrong length.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
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
    if isinstance(params, (EitParams, AtsParams)):
        return np.array([getattr(params, f.name) for f in fields(params)])
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


class _Grid(NamedTuple):
    """A detuning grid as the kernels read it: points, a weight per point, and factors that depend on them alone.

    ``weight`` is a scalar or one factor per point (the fitter's square-root
    multiplicities); it enters the Lorentzians' numerators, so a weight of 1
    changes no bit.  :func:`_grid` forms the factors once per grid.
    """

    deltas: np.ndarray
    weight: np.ndarray | float
    d2: np.ndarray  # deltas**2
    a: np.ndarray  # |deltas|
    eit_w: np.ndarray | float  # -2 / weight**3: EIT's W, P**2 having carried the weight four times
    ats_du: np.ndarray  # 4 |deltas| / weight**2, the ATS offset derivative's factor
    ats_lp: np.ndarray | float  # 2 / weight, its lp**2 term's


def _grid(deltas: np.ndarray, weight=1.0) -> _Grid:
    """The :class:`_Grid` of points ``deltas`` (n,) with weight ``weight``."""
    a = np.abs(deltas)
    w2 = weight * weight
    return _Grid(deltas, weight, deltas * deltas, a, -2.0 / (w2 * weight), 4.0 * a / w2, 2.0 / weight)


def _lorentzians(widths: np.ndarray, grid: _Grid, out: np.ndarray) -> np.ndarray:
    """``weight / (w**2 + d**2)`` for widths (2, s, 1), into ``out`` (2, s, n)."""
    np.add(widths * widths, grid.d2, out=out)
    return np.divide(grid.weight, out, out=out)


def _columns(model: ModelKind, theta: np.ndarray, grid: _Grid, empty=np.empty) -> np.ndarray:
    """Model columns at the nonlinear parameters ``theta`` of shape (s, 2), then the two Lorentzians behind them.

    Both models take ``theta = (g, u)`` with ``u >= 0``, and ``L_w(d) =
    1/(w**2 + d**2)``.  EIT: ``g`` is the mean of the two widths and ``u =
    x**2`` their squared half-gap, so the widths are ``g + x`` and ``g -
    x``; with ``L1 = L_{g+x}`` and ``L2 = L_{g-x}`` the columns are ``L1 +
    L2`` and ``L1 L2``, which is ``(L2 - L1) / (4 g x)``, followed by
    ``L1`` and ``L2``.  At ``u = 0`` the widths merge, and the columns are
    the closure's ``2 L_g`` and ``L_g**2`` with no special case.  ATS:
    ``u = d0**2``, one column ``L_g(d - d0) + L_g(d + d0)`` followed by its
    two Lorentzians ``L_g(|d| - d0)`` and ``L_g(|d| + d0)``.
    :func:`_derivatives` forms the derivatives from the two Lorentzians
    alone.  Returns shape (s, c, n), the model's columns first; all are
    multiplied by the grid's weight.

    The result is stored column by column, as one (c, s, n) block from
    ``empty(shape)`` seen through a transpose, so that ``cols[:, j]`` is a
    contiguous (s, n) array: numpy runs elementwise work on a strided
    column several times slower.  A caller that passes reused buffers
    allocates nothing here.
    """
    s, n = theta.shape[0], grid.deltas.size
    g = theta[:, 0:1]
    if model is ModelKind.EIT:
        x = np.sqrt(theta[:, 1:2])
        cols = empty((4, s, n))
        phi0, phi1, l1, l2 = cols
        widths = np.empty((2, s, 1))
        np.add(g, x, out=widths[0])
        np.subtract(g, x, out=widths[1])
        _lorentzians(widths, grid, cols[2:])
        np.add(l1, l2, out=phi0)
        np.multiply(l1, l2, out=phi1)
        phi1 /= grid.weight  # the product of two Lorentzians carries the weight twice
        return cols.transpose(1, 0, 2)
    # The doublet is even in the detuning, so |d| is used: then d0 >= 0
    # makes L(|d| + d0) the smaller Lorentzian, and the offset derivative
    # has no cancellation at either peak (d = +-d0).
    gg = g * g
    d0 = np.sqrt(theta[:, 1:2])
    cols = empty((3, s, n))
    phi, lm, lp = cols
    np.subtract(grid.a, d0, out=lm)
    np.add(grid.a, d0, out=lp)
    lor = cols[1:]  # weight / (g**2 + (|d| -+ d0)**2)
    np.square(lor, out=lor)
    np.add(gg, lor, out=lor)
    np.divide(grid.weight, lor, out=lor)
    np.add(lm, lp, out=phi)
    return cols.transpose(1, 0, 2)


def _derivatives(
    model: ModelKind, theta: np.ndarray, grid: _Grid, lor: np.ndarray, alpha: np.ndarray, empty=np.empty
) -> np.ndarray:
    """``J`` (s, 2, n): ``J[:, j]`` is the derivative of the curve ``alpha . Phi`` in ``theta_j`` with ``alpha`` held.

    ``lor`` (s, 2, n), the two Lorentzians :func:`_columns` returned at
    ``theta``, is overwritten; ``J`` is weighted as the columns are and
    stored as they are.  The EIT rows hold it up to a combination of the
    columns, which Kaufman's projection removes: with ``P = L1 L2`` and
    ``A = d**2 + g**2 + u`` the columns are ``2 A P`` and ``P``, and with
    ``W = -2 (2 alpha[0] A + alpha[1]) P**2`` what is left is ``2 g (d**2 +
    g**2 - u) W`` for ``g`` and ``(d**2 - g**2 + u) W`` for ``u``.  No
    term divides by ``x``.
    """
    s, n = theta.shape[0], grid.deltas.size
    g, u = theta[:, 0:1], theta[:, 1:2]
    jac = empty((2, s, n))
    dg, du = jac
    if model is ModelKind.EIT:
        d2, gg, a0 = grid.d2, g * g, 2.0 * alpha[:, 0:1]
        m = gg - u
        l1, l2 = lor[:, 0], lor[:, 1]
        np.multiply(l1, l2, out=l1)
        np.multiply(d2, a0, out=du)
        du += a0 * (gg + u) + alpha[:, 1:2]
        du *= l1
        du *= l1
        du *= grid.eit_w  # W
        np.add(d2, m, out=dg)
        dg *= 2.0 * g
        dg *= du
        np.subtract(d2, m, out=l2)
        du *= l2
        return jac.transpose(1, 0, 2)
    d0 = np.sqrt(u)
    lm, lp = lor[:, 0], lor[:, 1]
    # d/du = (d/dd0) / (2 d0), with the 1/d0 cancelled analytically, so it
    # stays finite at d0 = 0 where the doublet merges:
    # du = 4 |d| (|d| - d0) lm lp (lm + lp) - 2 lp**2, factors applied left
    # to right (lm + lp, the column, formed in dg as _columns forms it),
    # each weighted product divided back to one weight.
    np.subtract(grid.a, d0, out=du)
    np.multiply(grid.ats_du, du, out=du)
    du *= lm
    du *= lp
    np.add(lm, lp, out=dg)
    du *= dg
    np.multiply(grid.ats_lp, lp, out=dg)
    dg *= lp
    du -= dg
    # dg = -2 g (lm**2 + lp**2)
    lor *= lor
    np.add(lm, lp, out=dg)
    np.multiply(-2.0 * g, dg, out=dg)
    dg /= grid.weight
    jac *= alpha[None, :, 0:1]
    return jac.transpose(1, 0, 2)


def _lobes(theta: np.ndarray, alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """EIT rows' ``(p1, p2)``: ``alpha . Phi = p1 L1 + p2 L2``, both ``alpha[0]`` where ``u = 0`` (no pair)."""
    u = theta[:, 1]
    h = np.divide(alpha[:, 1], 4.0 * theta[:, 0] * np.sqrt(u), out=np.zeros(u.shape), where=u > 0.0)
    return alpha[:, 0] - h, alpha[:, 0] + h


# Relative width offset of the signed pair that stands for a limit form
# (see _join).
_LIMIT_OFFSET = 1e-6


def _join(model: ModelKind, theta: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Raw vectors (s, k) of rows ``theta`` (s, 2) and ``alpha`` (s, p), with nonnegative amplitudes and offset.

    An EIT row with ``u > 0`` is the signed pair whose ``g_plus`` is the
    width with the positive coefficient (see :func:`_lobes`).  A row with
    ``u = 0`` is the limit form ``a L(g) + b L(g)**2`` with ``(a, b) = (2
    alpha[0], alpha[1])`` (see :class:`EitLimit`); it becomes the
    signed pair with ``g_minus = g (1 -+ _LIMIT_OFFSET)``, narrower for ``b
    < 0`` and wider otherwise, ``c_minus**2 = |b| / |g**2 - g_minus**2|``
    (raised to ``-a`` if ``c_plus**2`` would be negative) and ``c_plus**2
    = a + c_minus**2``, whose curve is the limit's to about
    ``_LIMIT_OFFSET`` of its lobes.
    """
    if model is ModelKind.ATS:
        return np.column_stack((np.sqrt(alpha[:, 0]), theta[:, 0], np.sqrt(theta[:, 1])))
    g, x = theta[:, 0], np.sqrt(theta[:, 1])
    p1, p2 = _lobes(theta, alpha)
    first = p1 >= p2  # L1 = L(g + x) carries the positive lobe
    plus, minus = np.sqrt(np.maximum(np.where(first, p1, p2), 0.0)), np.sqrt(np.maximum(-np.where(first, p2, p1), 0.0))
    out = np.column_stack((plus, minus, np.where(first, g + x, g - x), np.where(first, g - x, g + x)))
    on = x == 0.0
    if on.any():
        a, b, g = 2.0 * alpha[on, 0], alpha[on, 1], g[on]
        g_minus = g * (1.0 + np.copysign(_LIMIT_OFFSET, b))
        c_minus_sq = np.maximum(np.abs(b) / np.abs((g - g_minus) * (g + g_minus)), -a)
        out[on] = np.column_stack((np.sqrt(a + c_minus_sq), np.sqrt(c_minus_sq), g, g_minus))
    return out


def evaluate(model: ModelKind, params, delta):
    """Evaluate either model from a dataclass or a raw parameter vector of ``model.k`` entries.

    The signed pair is drawn from its own widths, not from their mean and
    half-gap, whose rounding would cost the narrower lobe digits.
    """
    x = _raw(model, params)[None, :]
    d = _grid(np.asarray(delta, dtype=float).reshape(-1))
    if model is ModelKind.EIT:
        coef = np.square(x[:, :2]) * [1.0, -1.0]
        cols = _lorentzians(x[:, 2:].T[:, :, None], d, np.empty((2, 1, d.deltas.size))).transpose(1, 0, 2)
    else:
        c, g, d0 = x[0]
        coef, cols = np.array([[c * c]]), _columns(model, np.array([[g, d0 * d0]]), d)[:, :1]
    out = np.einsum("sp,spn->sn", coef, cols)[0]
    return float(out[0]) if np.ndim(delta) == 0 else out.reshape(np.shape(delta))


def jacobian(model: ModelKind, params, delta) -> np.ndarray:
    """Gradient of the model value with respect to each parameter.

    Returns shape (k,) for scalar ``delta`` and (n, k) for an array.
    Amplitude rows are ``2 c`` times the lobe or column they scale.  Each
    EIT lobe ``+-c**2 L(g)`` moves with its own width, by ``-+2 g c**2
    L(g)**2``; the doublet's width and offset rows are its squared
    amplitude times the column derivative, times ``du/dd0 = 2 d0`` for the
    offset.
    """
    x = _raw(model, params)
    d = _grid(np.asarray(delta, dtype=float).reshape(-1))
    if model is ModelKind.EIT:
        lobes = _lorentzians(x[2:, None, None], d, np.empty((2, 1, d.deltas.size)))[:, 0]
        sign = np.array([[1.0], [-1.0]])
        widths = -2.0 * sign * x[2:, None] * lobes * lobes
        jac = np.concatenate((sign * 2.0 * x[:2, None] * lobes, np.square(x[:2, None]) * widths))
    else:
        theta = np.array([[x[1], x[2] * x[2]]])
        cols = _columns(model, theta, d)[0]
        dphi = _derivatives(model, theta, d, cols[None, 1:], np.ones((1, 1)))[0]
        scale = x[0] * x[0] * np.array([1.0, 2.0 * x[2]])
        jac = np.concatenate((2.0 * x[0] * cols[:1], scale[:, None] * dphi))
    return jac[:, 0] if np.ndim(delta) == 0 else jac.T
