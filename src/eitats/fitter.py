"""Damped least-squares fitting of the lineshape models, by variable projection.

Both models are linear in their amplitudes once two nonlinear parameters
``(g, u)`` with ``u >= 0`` are fixed, so only those are iterated: for EIT
the mean ``g`` of the two widths and their squared half-gap ``u``, for ATS
the width and ``u = d0**2``.  At every trial point the amplitudes are
solved in closed form as a 1- or 2-column least-squares problem, and
steps use Kaufman's projected Jacobian (separable least squares: Golub &
Pereyra, SIAM J. Numer. Anal. 10, 1973; Kaufman, BIT 15, 1975).  Fitting
``u`` removes the doublet's stationary plane ``d0 = 0`` and makes the
pair's merged widths a bound, ``u = 0``, which both models hold by
projected steps.  The same steps hold both models in a box set by the
grid's reach ``R = max|delta|``: ``|g| <= 2 R`` and ``0 <= u <= R**2``.
Lines far wider than the grid, or split beyond it, fit nothing it can
resolve, and a start that walks there sets the passes of its whole run.
The information criterion still counts every amplitude (K = 4 and 3):
profiling them out does not change what is fitted.

Steps follow a Levenberg-Marquardt schedule (Madsen, Nielsen & Tingleff,
*Methods for Non-Linear Least Squares Problems*, 2004, 3.2; see
:func:`_lm_run_batch`) from several starts: a deterministic, data-driven
guess and seeded log-uniform perturbations of it.  Every start of every
spectrum handed to :func:`fit_many` runs in one vectorized loop, one
two-level trial per start per pass, up to ``_MAX_BATCH_ROWS`` at once with
the rest entering free slots as others stop: a pass costs mostly a fixed
number of small numpy calls, which many spectra share.  A row reads only
its own data, so its result depends neither on what else runs nor on its slot.

Both models are even in the detuning, so the loop runs on the folded
grid of :func:`_fold`: on a mirror-symmetric grid that halves the points
every pass profiles, while every SSR it compares, stops on or reports is
still the full grid's.

The passes reuse one workspace (:class:`_Workspace`), so a pass
allocates no row-sized array, which the C allocator would hand back to
the kernel and fault in again.

On some spectra the interference model has no interior minimum: the SSR
keeps falling as the widths merge and the amplitudes grow without bound.
That valley ends at the signed pair's closure ``a L(g) + b L(g)**2``
(Golub & Pereyra, *Inverse Problems* 19, 2003; Osborne & Smyth, *SIAM J.
Sci. Comput.* 16, 1995), in ``(g, u)`` the bound ``u = 0``, where the
columns are smooth (:func:`~eitats.models._columns`), so a row reaches
the valley's limit exactly and leaves it where that lowers the SSR.
The lowest SSR over the starts wins, converged or not; ``converged``,
``iterations`` and ``stop`` (one of ``STOP_REASONS``) report how the
winning start ended, ``limit`` the limit form ``(a, b, g)`` of an EIT
winner with merged widths, and parameters are returned in canonical
nonnegative form, a limit as the signed pair of
:func:`~eitats.models._join`.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lineshape import Spectrum
from .models import (
    AtsParams,
    EitLimit,
    EitParams,
    ModelKind,
    _columns,
    _derivatives,
    _Grid,
    _grid,
    _join,
    canonicalize,
)

__all__ = [
    "STOP_REASONS",
    "FitConfig",
    "FitResult",
    "FitConvergenceError",
    "DegenerateDataError",
    "fit",
    "fit_many",
    "initial_guesses",
    "variance_floor",
]

# Damping of a start's first step and its bounds, and the relative SSR
# drop, made or (before a trial, see _lm_run_batch) predicted, at or
# below which a start ends (a tolerance stop).
_INITIAL_DAMPING = 1e-3
_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
# A pass's two levels of each row, as factors of its damping.
_LEVELS = np.array([[1.0], [10.0]])
# A taken level's next damping, as factors of it, by its gain ratio: below
# 1/4, from 1/4 up to 3/4, above 3/4 (the bounds for searchsorted).
_GAIN_BOUNDS, _GAIN_FACTORS = np.array([0.25, np.nextafter(0.75, 1.0)]), np.array([10.0, 1.0, 0.1])
_RELATIVE_TOLERANCE = 1e-12
# Slots in _lm_run_batch's row pool: the most rows (starts x spectra)
# active at once, so its workspace is at most 4.2 MiB on the default grid
# (101 folded points) whatever the number of spectra and starts.
_MAX_BATCH_ROWS = 256
# Why a start stopped, as ``_lm_run_batch`` codes it: the SSR stopped
# falling by the relative tolerance, or its next step predicts so, the
# gradient fell below its tolerance, no step at any damping up to the
# ceiling lowered the SSR, the iteration cap was reached, or the point
# went non-finite.  The first three count as converged.
STOP_REASONS = ("tolerance", "gradient", "damping", "cap", "non-finite")
_TOLERANCE, _GRADIENT, _DAMPING, _CAP, _NON_FINITE = range(len(STOP_REASONS))
# Starts whose final SSR is within this relative distance of the best one
# are counted as agreeing with it.
_AGREEMENT_RTOL = 1e-6
# Seeds and replicate indices lie in [0, _SEED_LIMIT), for the 128-bit noise
# key (seed << 64) | replicate; a fit seed too, as the CLI's --seed is both.
_SEED_LIMIT = 2**64
# libm's exp, element by element: numpy's SIMD exp rounds by the host's dispatch target.
_exp = np.vectorize(math.exp, otypes=[float])


def _is_integer(value) -> bool:
    """True for an integer of any integral type but ``bool``, which ``numbers`` counts as one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed(name: str, value, limit: int = _SEED_LIMIT) -> None:
    """Reject a seed or replicate index that is not an integer in [0, limit)."""
    if not _is_integer(value) or not 0 <= value < limit:
        raise ValueError(f"{name} must be a nonnegative integer below {limit}, got {value!r}")


class FitConvergenceError(RuntimeError):
    """Every start failed to produce a usable minimum."""


class DegenerateDataError(ValueError):
    """The data carry no shape information (all values equal)."""


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs; defaults are deliberate and reproducible."""

    max_iterations: int = 1000
    n_starts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("max_iterations", "n_starts"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        _check_seed("seed", self.seed)


@dataclass(frozen=True)
class FitResult:
    """Best fit over all starts, with residual statistics."""

    params: EitParams | AtsParams
    ssr: float
    sigma_hat_sq: float
    n_points: int
    converged: bool
    n_starts_agreeing: int
    iterations: int  # trial passes the winning start made
    stop: str  # why the winning start stopped, one of STOP_REASONS
    # The winning EIT start's limit form if it ended with merged widths,
    # where ``params`` is the signed pair that stands for it; else None.
    limit: EitLimit | None


def variance_floor(values) -> float:
    """Floor for the residual variance before it enters a logarithm.

    Exact-model fits drive the estimated variance to zero; flooring it at
    1e-30 times the squared data scale, or at the smallest normal float where
    that underflows (data below about 1e-147), keeps downstream information
    values finite without affecting any non-exact fit.
    """
    return max(1e-30 * float(np.max(np.square(np.asarray(values, dtype=float)))), np.finfo(float).tiny)


def _half_width_outward(deltas: np.ndarray, values: np.ndarray, peak_idx: int) -> float:
    """Distance from the peak to where the profile falls to half, scanning
    away from the origin; falls back to a quarter of the grid span."""
    half = values[peak_idx] / 2.0
    n = values.size
    step = 1 if deltas[peak_idx] >= 0 else -1
    j = peak_idx + step
    while 0 <= j < n:
        if values[j] <= half:
            return abs(deltas[j] - deltas[peak_idx])
        j += step
    return (deltas[-1] - deltas[0]) / 4.0


def _first_guess_ats(deltas: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    peak_idx = int(np.argmax(values))
    g = max(_half_width_outward(deltas, values, peak_idx), float(deltas[1] - deltas[0]))
    return g, abs(float(deltas[peak_idx]))


def _first_guess_eit(deltas: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    peak = max(float(np.max(values)), np.finfo(float).tiny)
    centre_idx = int(np.argmin(np.abs(deltas)))
    centre = float(values[centre_idx])
    span = deltas[-1] - deltas[0]
    # Broad width: outermost half-maximum crossing.
    above = np.abs(deltas[values >= peak / 2.0])
    g_broad = float(np.max(above)) if above.size else span / 4.0
    g_broad = max(g_broad, float(deltas[1] - deltas[0]))
    # Narrow width: where the central dip recovers halfway to the peak.
    if peak > centre:
        risen = np.abs(deltas[values >= (centre + peak) / 2.0])
        g_narrow = float(np.min(risen)) if risen.size else g_broad / 2.0
        g_narrow = max(g_narrow, float(deltas[1] - deltas[0]) / 2.0)
    else:
        g_narrow = g_broad / 2.0
    return g_broad, g_narrow


def initial_guesses(model: ModelKind, data: Spectrum, n: int, seed: int) -> np.ndarray:
    """Starts as rows ``theta = (g, u)`` (n, 2): a data-driven guess and n-1 seeded perturbations of it.

    Each perturbation scales the two widths, or the doublet's width and
    offset, by factors drawn uniformly in log space between 1/4 and 4, so
    the starts cover both the compact and the nearly-degenerate corners of
    parameter space.  A start draws ``model.k`` factors and uses the last two.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_seed("seed", seed)
    first_guess = _first_guess_ats if model is ModelKind.ATS else _first_guess_eit
    base = np.array(first_guess(data.deltas, data.values))
    seed_base = base.copy()
    if model is ModelKind.ATS and seed_base[1] == 0.0:
        # Single-peaked data puts the offset guess exactly at zero, the
        # bound u = 0, which multiplicative perturbations can never leave;
        # explore unresolved splittings up to the width scale instead.
        seed_base[1] = seed_base[0]
    rng = np.random.default_rng(seed)
    log4 = np.log(4.0)
    # One draw of all n - 1 starts' factors is the stream of one draw per start.
    factors = _exp(rng.uniform(-log4, log4, size=(n - 1, model.k)))[:, -2:]
    w = np.vstack((base, seed_base * factors))
    if model is ModelKind.ATS:
        return np.column_stack((w[:, 0], np.square(w[:, 1])))
    half = (w[:, 1] - w[:, 0]) / 2.0
    return np.column_stack(((w[:, 0] + w[:, 1]) / 2.0, half * half))


@np.errstate(divide="ignore", invalid="ignore")
def _damped_step(jtj: np.ndarray, diag: np.ndarray, grad: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve ``(jtj + lam diag(diag)) x = grad`` for s 2x2 systems at each of L damping levels.

    ``jtj`` (s, 2, 2), ``diag`` and ``grad`` (s, 2) hold the rows' systems
    and ``lam`` (L, s) their levels; returns the steps (L, s, 2).  The
    elimination below keeps every product at the scale of the entries,
    where a determinant ``a d - b c`` overflows near the float limit.  A
    system with a zero pivot (its inf or nan unwarned) takes its lstsq step.
    """
    h00, h01, h10, h11 = jtj[:, 0, 0], jtj[:, 0, 1], jtj[:, 1, 0], jtj[:, 1, 1]
    a = h00 + lam * diag[:, 0]
    l = h10 / a
    u = h11 + lam * diag[:, 1] - l * h01
    step = np.empty(lam.shape + (2,))
    x1 = np.divide(grad[:, 1] - l * grad[:, 0], u, out=step[..., 1])
    np.divide(grad[:, 0] - h01 * x1, a, out=step[..., 0])
    if np.count_nonzero(a) < a.size or np.count_nonzero(u) < u.size:  # a zero pivot (nan is not one)
        for level, row in zip(*((a == 0.0) | (u == 0.0)).nonzero()):
            system = jtj[row] + np.diag(lam[level, row] * diag[row])
            step[level, row] = np.linalg.lstsq(system, grad[row], rcond=None)[0]
    return step


# Below this sine of the angle between EIT's second basis direction and
# its first, the pair is treated as one column (see _profile).
_COLLINEAR_SIN = 1e-8


def _profile(model: ModelKind, theta: np.ndarray, grid: _Grid, y: np.ndarray, empty=np.empty):
    """Profile the column coefficients out at the nonlinear parameters ``theta`` (s, 2).

    Each row's ``alpha`` minimises ``|y - Phi alpha|`` over the curves the
    model can draw.  Returns ``(alpha, ssr, resid, cols, alone)``: ``cols``
    (s, p + 2, n) holds an orthonormal basis of the columns in use, the
    unused ones zeroed, written over the p columns, then the two Lorentzians
    (see :func:`~eitats.models._columns`), and ``alone`` (s,) +1
    or -1 where a row with ``u > 0`` is fitted by ``L1`` or ``L2`` alone,
    else 0; with ``resid`` they are what :func:`_normal_equations` needs.
    Arrays of s rows come from ``empty``.  ``Phi`` is weighted by the
    grid's weight, and so must ``y`` be.

    The doublet's squared amplitude is the nonnegative one-column solve.
    The pair's columns ``L1 + L2`` and ``L1 L2`` stay apart as the
    widths merge, where the amplitudes of ``L1`` and ``L2`` grow like ``1
    / x`` while the lobes cancel; the residual comes from the Gram-Schmidt
    form ``y - Q Q^T y``, so it never forms them.  The curve ``p1 L1 + p2
    L2`` is a signed pair, one lobe of each sign in either order, iff ``p1
    p2 <= 0``, which is ``16 g**2 u alpha[0]**2 <= alpha[1]**2``: at ``u = 0``
    always, the closure ``a L(g) + b L(g)**2``.  Otherwise, or where the
    second column lies within ``_COLLINEAR_SIN`` of the first (both widths
    far wider than the grid), the row takes the better of ``L1`` and
    ``L2`` alone, with either sign, and the other's coefficient in
    :func:`~eitats.models._lobes` is exactly 0.
    """
    s, n = theta.shape[0], grid.deltas.size
    cols = _columns(model, theta, grid, empty=empty)
    p = model.k - 2  # every parameter beyond theta's two is profiled
    q = cols[:, :p]  # the columns, made the basis here; the derivatives read only the Lorentzians
    resid = empty((s, n))  # scratch until it holds the residual
    alone = np.zeros(s)
    if model is ModelKind.ATS:
        norm = np.sqrt(np.einsum("spn,spn->sp", q, q))
        q /= norm[:, :, None]
        z = np.maximum(np.einsum("spn,sn->sp", q, y), 0.0)
        alpha = z / norm
    else:
        first, e = q[:, 0], q[:, 1]
        norm = np.sqrt(np.einsum("sn,sn->s", first, first))
        first /= norm[:, None]
        r01 = np.einsum("sn,sn->s", first, e)
        e -= np.multiply(r01[:, None], first, out=resid)
        r11 = np.sqrt(np.einsum("sn,sn->s", e, e))
        e /= r11[:, None]
        z = np.einsum("spn,sn->sp", q, y)
        alpha = np.empty((s, 2))
        alpha[:, 0], alpha[:, 1] = (z[:, 0] - r01 * z[:, 1] / r11) / norm, z[:, 1] / r11
        spans = r11 > _COLLINEAR_SIN * np.hypot(r01, r11)  # r11 over the second column's norm
        lone = ~(spans & (theta[:, 1] * np.square(4.0 * theta[:, 0] * alpha[:, 0]) <= np.square(alpha[:, 1])))
        if np.count_nonzero(lone):
            lor = cols[lone, p:]
            lor_norm = np.sqrt(np.einsum("spn,spn->sp", lor, lor))
            lor_z = np.einsum("spn,sn->sp", lor, y[lone]) / lor_norm
            second = np.abs(lor_z[:, 1]) > np.abs(lor_z[:, 0])
            pick = (np.arange(second.size), second.astype(int))
            q[lone, 0] = lor[pick] / lor_norm[pick][:, None]
            q[lone, 1] = 0.0
            z[lone, 0], z[lone, 1] = lor_z[pick], 0.0
            # p L1 = (p/2) (L1 + L2) - 4 g x (p/2) L1 L2, and L2 alike with +4 g x.
            sign, half, x = np.where(second, 1.0, -1.0), lor_z[pick] / lor_norm[pick] / 2.0, np.sqrt(theta[lone, 1])
            alpha_1 = sign * (4.0 * theta[lone, 0] * x) * half
            alpha_0 = sign * np.divide(alpha_1, 4.0 * theta[lone, 0] * x, out=sign * half, where=x > 0.0)
            alpha[lone, 0], alpha[lone, 1] = alpha_0, alpha_1
            alone[lone] = np.where(x > 0.0, -sign, 0.0)
    np.subtract(y, np.einsum("sp,spn->sn", z, q, out=resid), out=resid)
    ssr = np.einsum("sn,sn->s", resid, resid)
    if model is ModelKind.ATS and np.count_nonzero(z > 0.0) < s:
        q[z <= 0.0] = 0.0
    return alpha, ssr, resid, cols, alone


def _normal_equations(
    model: ModelKind, theta: np.ndarray, grid: _Grid, alpha, resid, cols, alone, empty
) -> tuple[np.ndarray, np.ndarray]:
    """``J^T r`` (s, 2) and ``J^T J`` (s, 2, 2) at a point :func:`_profile` returned.

    ``J`` (s, 2, n) is Kaufman's Jacobian ``P (dPhi/dtheta alpha)``, ``P``
    the projector onto the complement of the basis ``q`` in ``cols``, with
    ``dPhi`` formed from the Lorentzians after it (overwritten), weighted
    as they are, in blocks from ``empty``.  An EIT row fitted by one
    Lorentzian ``p L(w)``, ``w = g + alone x`` (``p = 2 alpha[0]``, see
    :func:`_profile`), moves with that width alone: its row for ``g`` is
    ``p dL/dw`` and for ``u`` that over ``2 alone x``.  The pair's rows
    would not do: they hold the derivative only up to the pair's columns,
    and with ``alpha`` held they move the other coefficient off 0.
    """
    q, lor = cols[:, :-2], cols[:, -2:]
    lone = alone.nonzero()[0]
    if lone.size:
        side, x = alone[lone], np.sqrt(theta[lone, 1])
        lobe = lor[lone, (side < 0.0).astype(int)]
        lobe_g = (-4.0 * alpha[lone, 0] * (theta[lone, 0] + side * x))[:, None] * lobe * lobe / grid.weight
    jac = _derivatives(model, theta, grid, lor, alpha, empty=empty)
    if lone.size:
        jac[lone, 0] = lobe_g
        jac[lone, 1] = lobe_g / (2.0 * side * x)[:, None]
    # einsum's own loops, not one BLAS call per row, so no BLAS kernel moves the bits.
    jac -= np.einsum("skp,spn->skn", np.einsum("spn,skn->skp", q, jac), q, out=empty(jac.shape))
    return np.einsum("skn,sn->sk", jac, resid), np.einsum("skn,sln->skl", jac, jac)


# Floats per solver row and folded grid point that a pass takes from the
# workspace: for each trial row the data, residual and columns (6 for EIT,
# 5 for ATS), and for the normal equations at the accepted point its
# residual and columns, the Jacobian and the projection (9 and 8).
_WORKSPACE_PER_ROW = {ModelKind.EIT: 2 * 6 + 9, ModelKind.ATS: 2 * 5 + 8}


class _Workspace:
    """The row buffers of one :func:`_lm_run_batch` call, reused by every pass.

    One flat float64 arena, sized for a full pass (two damping levels in
    every slot of the row pool), is handed out front to back: :meth:`empty`
    returns the next contiguous block of a shape and :meth:`rewind` starts
    the next pass at the front.
    """

    def __init__(self, size: int) -> None:
        self._arena = np.empty(size)
        self._top = 0

    def empty(self, shape: tuple[int, ...]) -> np.ndarray:
        start, self._top = self._top, self._top + math.prod(shape)
        return self._arena[start : self._top].reshape(shape)

    def rewind(self) -> None:
        self._top = 0


def _fold(deltas: np.ndarray, values: np.ndarray) -> tuple[_Grid, np.ndarray, np.ndarray]:
    """Fold the detuning axis onto ``|delta|``, where both models are evaluated.

    Returns the folded grid (a :class:`~eitats.models._Grid`): the
    distinct values of ``|delta|`` in the order they first occur on the
    grid, weighted by the square root ``sqrt(w)`` of each one's
    multiplicity; then every spectrum of ``values`` (m, n) as ``sqrt(w)`` times
    its mean over the samples that share a value (m, n_folded), and each
    spectrum's squared distance to those means (m,), its part odd in the
    detuning.  Any even model's SSR on the full grid is that distance plus
    its SSR against the folded data with its columns weighted by
    ``sqrt(w)``.  On a grid with no mirrored pair every ``w`` is 1, the
    folded grid is the grid, and the distance is 0.
    """
    a = np.abs(deltas)
    _, first, inverse = np.unique(a, return_index=True, return_inverse=True)
    keep = np.sort(first)  # the folded points, in grid order
    inverse = np.searchsorted(keep, first[inverse])  # each sample's folded point
    count = np.bincount(inverse).astype(float)
    total = np.zeros((values.shape[0], keep.size))
    np.add.at(total, (slice(None), inverse), values)
    odd = values - (total / count)[:, inverse]
    weight = np.sqrt(count)
    return _grid(a[keep], weight), total / weight, np.einsum("mn,mn->m", odd, odd)


# Overflow far out or near the float limit gives non-finite values, which
# stop a row; the warnings are silenced once, for the body.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lm_run_batch(
    model: ModelKind,
    theta0: np.ndarray,
    deltas: np.ndarray,
    values: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance every start ``theta0`` (s, 2) of :func:`initial_guesses` through the damped descent.

    ``values`` (m, n), m dividing s, holds the data: the rows split into m
    consecutive groups of s/m, group j fitting ``values[j]``.

    The descent runs on the folded grid of :func:`_fold`, each SSR with its
    spectrum's odd part added back, and the gradient stop at the full data's scale.

    At most ``_MAX_BATCH_ROWS`` rows are active.  At the top of each pass,
    pending rows fill the free slots in row order, each with its start's
    profile and normal equations, and a row leaves its slot when it stops.
    Each pass first solves every row's damped steps; then, before its
    trial, a row stops if its SSR or normal equations are not finite,
    else by the gradient test, else by the tolerance where its lower
    level predicts an SSR drop of at most ``_RELATIVE_TOLERANCE`` times
    its even SSR (the folded one: no step lowers the odd part), if it took
    a level at its last pass (its damping did not just climb) and fits ATS
    or sits on the EIT bound ``u = 0`` (off it the last trial below
    decides).  After its trial a row stops by the tolerance where its SSR
    fell by at most that fraction, else at the damping ceiling, else by
    the cap once it has made ``max_iterations`` trials.
    Every pass gives each active row one trial, one of its iterations, at
    two damping levels, ``lam`` and ``10 lam``, all rows' levels profiled
    in one call.  A row takes the lower level whose SSR does not rise, and
    that level's gain ratio, the SSR drop achieved over the drop ``J^T J``
    predicted (the drops the stop above tests), sets the row's next
    damping: 10 times the level below 1/4, a tenth of it above 3/4, else
    the level itself (Madsen et al., 3.2).  A row that rejects both levels
    tries ``100 lam`` next.  A row's damping, and whether it took a level,
    are its only schedule state, and when every row fits in the pool, the
    run makes as many trial passes as its slowest row would alone.
    The accepted trial's profile holds the residual, basis and Lorentzians
    there, so the next normal equations are formed from it and no point is
    profiled or evaluated twice.  A pass's numpy calls do not grow with its
    rows: the pool's state is packed in one array, each row's outcome is
    taken in one gather, and what few rows need (the bound, a stop, the
    damping ceiling, EIT's bound rules) runs behind one test each.

    Both models hold their box, ``|g| <= 2 R`` and ``0 <= u <= R**2`` for
    the grid's reach ``R = max|delta|``, by projected steps: a start
    enters at its projection onto the box, every trial is projected onto
    it, and a component on a face whose descent points out of the box is
    active, so it leaves the step and the gradient stop (at ``u = 0``,
    descent pointing to ``u < 0``).  Four rules of the EIT model's own
    make rows reach its bound, merged widths, and leave it cleanly.  Off the bound a row steps in ``x = sqrt(u)``,
    by ``dx = du / (2 x)``: Marquardt's damping is invariant to the
    scaling ``diag(1, 2 x)``, so that is the step in ``(g, x)``, and a
    path that holds one width is straight; where the u-step would reach
    the bound, the trial goes where that line meets it.  A trial with
    ``|g| < x`` becomes ``(x, g**2)``, the same two widths, which keeps
    rows off the second merge line ``g = 0``.  A row that steps along the
    bound gets the secant curvature of its last two gradients there in
    ``g`` where that is positive, since Kaufman's ``J^T J`` underestimates
    it.  A row that the gradient test stops off the bound first makes a
    last trial on it, where its step's line meets it (below the trial if
    the step raises ``u``), and ends there if the SSR rises by no more
    than the gradient tolerance: near merged widths, where exact limit
    data have their minimum, the gradient in ``log u`` cannot tell ``u``
    from 0, and the x-steps only halve the gap.

    Returns columns of the rows' records: ``(theta, alpha, ssr, iterations,
    stop)``, ``theta`` (s, 2) where the row stopped, ``alpha`` (s, p) its
    column coefficients there, and ``stop`` indexing ``STOP_REASONS``; a
    start stopped non-finite keeps the SSR it was profiled at, inf or nan.
    A row's outcome depends neither on what else runs nor on its slot.
    """
    n_rows = theta0.shape[0]
    group = n_rows // values.shape[0]
    if group * values.shape[0] != n_rows:
        raise ValueError(f"{values.shape[0]} data vectors do not split {n_rows} rows evenly")
    owner = np.arange(n_rows) // group
    # g * theta, the gradient in the log of each parameter, scales as the
    # data squared in any units of data and detuning (cf. MINPACK's gtol);
    # the scale, the full data's, is clamped where its square would overflow.
    scale = np.minimum(np.max(np.abs(values), axis=1), np.sqrt(np.finfo(float).max))
    grad_tol = 1e-12 * np.square(scale)
    eit = model is ModelKind.EIT
    p = model.k - 2
    grid, values, odd = _fold(deltas, values)
    n = grid.deltas.size
    # The box every row is held in, from the grid's reach R = max|delta|: |g| <= 2 R, 0 <= u <= R**2.
    reach = float(np.max(grid.deltas))  # the folded grid is |delta|
    low, high = np.array([-2.0 * reach, 0.0]), np.array([2.0 * reach, reach * reach])
    slots = min(n_rows, _MAX_BATCH_ROWS)
    ws = _Workspace(_WORKSPACE_PER_ROW[model] * slots * n)
    # Each row has one record from its start to its stop: in ``records``
    # theta, then the damping, predicted-drop tolerance, alpha and SSR that
    # an accepted trial hands on (its outcome), then the gradient, J^T J,
    # gradient tolerance and odd part; in ``ledger`` its index, spectrum,
    # iterations and stop.  The pool, ``state`` and ``book``, holds the
    # active rows' records in row order.
    THETA, LAM, SETTLE, ALPHA, SSR = slice(0, 2), 2, 3, slice(4, 4 + p), 4 + p
    OUTCOME, GRAD, JTJ, TOL, ODD = slice(0, 5 + p), slice(5 + p, 7 + p), slice(7 + p, 11 + p), 11 + p, 12 + p
    ROW, SPECTRUM, ITERATIONS, STOP = range(4)
    records, ledger = np.empty((n_rows, 13 + p)), np.zeros((n_rows, 4), dtype=int)
    records[:, THETA], records[:, LAM], records[:, SETTLE] = np.clip(theta0, low, high), _INITIAL_DAMPING, -np.inf
    records[:, TOL], records[:, ODD] = grad_tol[owner], odd[owner]
    ledger[:, ROW], ledger[:, SPECTRUM] = np.arange(n_rows), owner
    state, book = records[:0], ledger[:0]
    admitted = 0  # rows [0, admitted) have entered a slot
    tiny, positions = np.finfo(float).tiny, np.arange(slots)

    def leave(going, code):
        """Write the pool rows ``going`` back to their records, stopped by ``code``; returns the rows kept."""
        nonlocal state, book
        book[going, STOP] = code
        out, kept = book[going, ROW], ~going
        records[out], ledger[out] = state[going], book[going]
        state, book = state[kept], book[kept]
        return kept

    while admitted < n_rows or len(book):
        # Pending rows fill the free slots, in row order.
        if admitted < n_rows and len(book) < slots:
            new = slice(admitted, min(n_rows, admitted + slots - len(book)))
            admitted, spectra = new.stop, ledger[new, SPECTRUM]
            state, book = np.concatenate((state, records[new])), np.concatenate((book, ledger[new]))
            entering = state[len(book) - spectra.size :]
            ws.rewind()
            # mode="clip" writes straight into out ("raise" would buffer); every index is in range.
            y = values.take(spectra, axis=0, out=ws.empty((spectra.size, n)), mode="clip")
            alpha, ssr, resid, cols, alone = _profile(model, entering[:, THETA], grid, y, ws.empty)
            grad, jtj = _normal_equations(model, entering[:, THETA], grid, alpha, resid, cols, alone, ws.empty)
            np.add(ssr, entering[:, ODD], out=entering[:, SSR])
            entering[:, ALPHA], entering[:, GRAD], entering[:, JTJ] = alpha, grad, jtj.reshape(-1, 4)
        # theta and grad do not change when a row rejects both levels, so neither
        # does anything below up to the trial, and such a row passes the tests again.
        theta, g, h = state[:, THETA], state[:, GRAD], state[:, JTJ]
        # A component on a face of the box with descent pointing out of it
        # (at u = 0, to u < 0) is active: it leaves the step (a projected
        # Newton step), so the other parameter is still optimised, and only
        # the free components count below.
        # Masking the stored gradient and J^T J is the same as masking a
        # copy: a rejecting row masks them again, and an accepted one replaces them.
        bound = theta == np.where(g <= 0.0, low, high)  # every row is in the box
        if np.count_nonzero(bound):
            g[bound] = 0.0
            h[bound[:, 0] | bound[:, 1], 1:3] = 0.0
        scaled = np.abs(g * theta)
        flat = np.maximum(scaled[:, 0], scaled[:, 1]) < state[:, TOL]
        # Flat directions (e.g. the width of a lobe whose amplitude is
        # zero) get a floor on J^T J's diagonal so the damped system stays solvable.
        floor = 1e-12 * np.maximum(np.maximum(h[:, 0], h[:, 3]), tiny)
        diag = np.maximum(h[:, ::3], floor[:, None])
        lam_trial = np.multiply(state[:, LAM], _LEVELS)  # each row's two levels, lower first
        step = _damped_step(h.reshape(-1, 2, 2), diag, g, lam_trial)
        # J^T J predicts each level an SSR drop of h.(g + lam D h), since (J^T J + lam D) h = g.
        predicted = np.einsum("lsi,lsi->ls", step, diag * step * lam_trial[:, :, None] + g)
        # The stops before the trial, in the order above: the rows ``ending``, each stopped by ``code``.
        ending, code = predicted[0] <= state[:, SETTLE], _TOLERANCE  # SETTLE: -inf unless its last pass took a level
        if eit:
            ending &= theta[:, 1] == 0.0
        equations, final = state[:, SSR : JTJ.stop], False
        if np.count_nonzero(flat) or np.count_nonzero(np.isfinite(equations)) < equations.size:
            finite = np.isfinite(equations).all(axis=1)
            flat &= finite
            # A flat EIT row off the bound makes a last trial on it first (below).
            last = flat & (theta[:, 1] > 0.0) & eit
            ending = (ending | flat | ~finite) & ~last
            code = np.where(finite, np.where(flat, _GRADIENT, _TOLERANCE), _NON_FINITE)[ending]
            final = last.any()
        if np.count_nonzero(ending):
            kept = leave(ending, code)
            step, lam_trial, predicted = step[:, kept], lam_trial[:, kept], predicted[:, kept]
            if final:
                last = last[kept]
            theta, g = state[:, THETA], state[:, GRAD]
        k = len(book)
        if k == 0:
            continue
        book[:, ITERATIONS] += 1  # every row left makes this pass's trial
        # Each row's three outcomes: its trial at either level, and its
        # rejection of both, which keeps its point.
        outcomes = np.empty((3 * k, 5 + p))
        trial = outcomes[: 2 * k, THETA]
        t_trial = trial.reshape(2, k, 2)
        np.add(theta, step, out=t_trial)
        if eit and np.count_nonzero(theta[:, 1]):
            # Off the bound an EIT row steps in x = sqrt(u), to (g + dg, (x + dx)**2):
            # Marquardt's damping is invariant to scaling, so dx = du / (2 x).  Where
            # the u-step reaches the bound, or a last trial's lowers u, the trial goes
            # where that line meets u = 0.  A last trial (off the bound) is on it.
            x = np.sqrt(theta[:, 1])
            off = x > 0.0
            u_step = t_trial[..., 1]
            meet = off & (u_step <= 0.0)
            if final:
                meet |= last & (u_step < theta[:, 1])
            moved = np.count_nonzero(meet)
            if moved:
                reach = theta[:, 1] / (theta[:, 1] - u_step)
                t_trial[..., 0] = np.where(meet, theta[:, 0] + reach * step[..., 0], t_trial[..., 0])
            t_trial[..., 1] = np.where(off, np.square(x + step[..., 1] / (2.0 * x)), u_step)
            if final:
                meet |= last
            if moved or final:
                t_trial[..., 1][meet] = 0.0
        trial.clip(low, high, out=trial)  # projected step: into the box
        if eit:
            # Widths g + x and g - x are those of (|g|, u), and of (x, g**2) where |g| < x.
            mean, half = np.abs(trial[:, 0], out=trial[:, 0]), np.sqrt(trial[:, 1])
            mirror = mean < half
            if np.count_nonzero(mirror):
                swapped = mean[mirror]
                trial[mirror, 0], trial[mirror, 1] = half[mirror], swapped * swapped
        ws.rewind()
        y = values.take(np.concatenate((book[:, SPECTRUM],) * 2), axis=0, out=ws.empty((2 * k, n)), mode="clip")
        alpha_t, ssr_t, resid_t, cols_t, alone_t = _profile(model, trial, grid, y, ws.empty)
        levels = outcomes.reshape(3, k, 5 + p)
        ssr_trial = np.add(ssr_t.reshape(2, k), state[:, ODD], out=levels[:2, :, SSR])
        levels[:2, :, ALPHA] = alpha_t.reshape(2, k, p)
        # Each level's predicted-drop tolerance: the relative one times its even SSR.
        np.multiply(ssr_t.reshape(2, k), _RELATIVE_TOLERANCE, out=levels[:2, :, SETTLE])
        # Each level's gain ratio, its SSR drop over the predicted one, sets its next damping.
        rho = (state[:, SSR] - ssr_trial) / predicted
        # searchsorted puts a NaN ratio last; it is 0/0 where a taken level
        # left the SSR as it was, and that row stops by the tolerance.
        factor = _GAIN_FACTORS.take(_GAIN_BOUNDS.searchsorted(rho, side="right"))
        np.maximum(np.multiply(lam_trial, factor, out=factor), _DAMPING_MIN, out=factor)
        np.minimum(factor, _DAMPING_MAX, out=levels[:2, :, LAM])
        levels[2] = state[:, OUTCOME]
        np.multiply(lam_trial[1], 10.0, out=levels[2, :, LAM])
        levels[2, :, SETTLE] = -np.inf  # after a rejection, the damping has climbed
        # A row takes its lower level whose SSR does not rise, else rejects
        # both; a last trial, one whose SSR rises by no more than the gradient
        # test counts as flat.  Every row's SSR is finite, so an SSR at most
        # it is too, but a ceiling raised by the tolerance may overflow.
        ceiling = state[:, SSR] + np.where(last, state[:, TOL], 0.0) if final else state[:, SSR]
        ok = np.empty((3, k), dtype=bool)
        ok[2] = True
        np.less_equal(ssr_trial, ceiling, out=ok[:2])
        if final:
            ok[:2] &= np.isfinite(ssr_trial)
        if np.count_nonzero(lam_trial[1] > _DAMPING_MAX):
            ok[1] &= lam_trial[1] <= _DAMPING_MAX  # a row stops before trying a level past the ceiling
        taken = ok.argmax(axis=0)
        j = taken * k + positions[:k]  # each row's outcome
        chosen, took = outcomes[j], taken < 2
        done = state[:, SSR] - chosen[:, SSR] <= _RELATIVE_TOLERANCE * np.maximum(chosen[:, SSR], tiny)
        if final:
            done |= last
        done &= took
        # No descent direction at any damping: numerically stationary.  (Only
        # a rejection can pass the ceiling; a row's damping is at most it.)
        dead = chosen[:, LAM] > _DAMPING_MAX
        go, going = took & ~done, done | dead
        # A row that has made its last trial leaves too; the pool's first row has made the most.
        if book[0, ITERATIONS] == cfg.max_iterations:
            capped = book[:, ITERATIONS] == cfg.max_iterations
            go &= ~capped
            going |= capped
        # An EIT row that steps along the bound gets the secant curvature of
        # its last two gradients there; Kaufman's J^T J underestimates it.
        along = eit and (theta[:, 1] == 0.0) & (chosen[:, 1] == 0.0) & go
        secant = (along, theta[:, 0].copy(), g[:, 0].copy()) if eit and np.count_nonzero(along) else None
        state[:, OUTCOME] = chosen
        n_go = np.count_nonzero(go)
        if n_go:
            at = slice(None) if n_go == k else go
            j = j[at]
            # The accepted rows' residuals and columns, the columns stored one
            # by one as _columns stores them (mode="clip": see the admission).
            resid_j = resid_t.take(j, axis=0, out=ws.empty((j.size, n)), mode="clip")
            block = ws.empty((cols_t.shape[1], j.size, n))
            cols_j = cols_t.transpose(1, 0, 2).take(j, axis=1, out=block, mode="clip").transpose(1, 0, 2)
            equations = (state[at, THETA], grid, state[at, ALPHA], resid_j, cols_j, alone_t[j])
            grad, jtj = _normal_equations(model, *equations, ws.empty)
            state[at, GRAD], state[at, JTJ] = grad, jtj.reshape(-1, 4)
            if secant is not None:
                along, width, slope = secant
                curvature = (slope - state[:, GRAD.start]) / (state[:, 0] - width)
                use = along & (curvature > 0.0) & np.isfinite(curvature)
                state[use, JTJ.start] = curvature[use]
        if final:
            going |= last
        if np.count_nonzero(going):
            code = np.where(done, _TOLERANCE, np.where(dead, _DAMPING, _CAP))
            if final:
                code[last] = _GRADIENT
            leave(going, code[going])

    return records[:, THETA], records[:, ALPHA], records[:, SSR], ledger[:, ITERATIONS], ledger[:, STOP]


def _best_of(
    model: ModelKind,
    theta: np.ndarray,
    alpha: np.ndarray,
    ssr: np.ndarray,
    iterations: np.ndarray,
    stop: np.ndarray,
    n: int,
) -> FitResult:
    """The lowest-SSR row of one spectrum's :func:`_lm_run_batch` state, the lowest index breaking exact ties.

    Only that row is read out: its raw vector, whether it converged, and an
    EIT row's limit form ``(a, b, g)`` if it ended on the bound ``u = 0``.
    """
    usable = np.isfinite(ssr)
    if not usable.any():
        raise FitConvergenceError(f"no usable minimum fitting {model.value} ({ssr.size} starts)")
    best = int(np.argmin(np.where(usable, ssr, np.inf)))  # argmin keeps the lowest index on ties
    best_ssr = float(ssr[best])
    agreeing = int(np.sum(usable & (ssr <= best_ssr * (1.0 + _AGREEMENT_RTOL) + np.finfo(float).tiny)))
    limit = None
    if model is ModelKind.EIT and theta[best, 1] == 0.0:
        form = EitLimit(2.0 * float(alpha[best, 0]), float(alpha[best, 1]), float(theta[best, 0]))
        limit = form if np.isfinite(form).all() else None
    return FitResult(
        params=canonicalize(model, _join(model, theta[best : best + 1], alpha[best : best + 1])[0]),
        ssr=best_ssr,
        sigma_hat_sq=best_ssr / n,
        n_points=n,
        converged=bool(stop[best] < _CAP),
        n_starts_agreeing=agreeing,
        iterations=int(iterations[best]),
        stop=STOP_REASONS[stop[best]],
        limit=limit,
    )


def fit_many(
    model: ModelKind, spectra: Sequence[Spectrum], cfg: FitConfig | None = None
) -> list[FitResult | Exception]:
    """Fit one model to many spectra on one detuning grid, in one solver run.

    Every start of every spectrum becomes one row of a single
    :func:`_lm_run_batch` call, whose pool of ``_MAX_BATCH_ROWS`` slots
    takes in rows as others stop, so the per-pass interpreter cost is
    shared by many spectra and memory stays bounded for any number of
    spectra or starts.  A row reads only its own data, which makes each
    result identical to :func:`fit` on that spectrum alone, whatever else
    is in the pool and whichever slot the row had.

    Returns one entry per spectrum, in order: its :class:`FitResult`, or
    the exception :func:`fit` would raise for it.

    Raises
    ------
    ValueError
        If the spectra do not all share one detuning grid.
    """
    cfg = cfg or FitConfig()
    if not spectra:
        return []
    deltas = spectra[0].deltas
    if any(not np.array_equal(s.deltas, deltas) for s in spectra[1:]):
        raise ValueError("fit_many needs every spectrum on one detuning grid")
    n = deltas.size
    if n <= model.k:
        return [ValueError(f"need more than {model.k} points to fit {model.value}, got {n}") for _ in spectra]
    degenerate = [bool(np.all(s.values == s.values[0])) for s in spectra]
    out: list = [DegenerateDataError("all data values are equal; nothing to fit") if d else None for d in degenerate]
    todo = [i for i, d in enumerate(degenerate) if not d]
    if todo:
        theta0 = np.concatenate([initial_guesses(model, spectra[i], cfg.n_starts, cfg.seed) for i in todo])
        values = np.stack([spectra[i].values for i in todo])
        run = _lm_run_batch(model, theta0, deltas, values, cfg)
    for j, i in enumerate(todo):
        rows = slice(j * cfg.n_starts, (j + 1) * cfg.n_starts)
        try:
            out[i] = _best_of(model, *(a[rows] for a in run), n)
        except (FitConvergenceError, ValueError) as exc:  # ValueError: a width rounded to zero
            out[i] = exc
    return out


def fit(model: ModelKind, data: Spectrum, cfg: FitConfig | None = None) -> FitResult:
    """Maximum-likelihood (unweighted least squares) fit of one model.

    Runs ``cfg.n_starts`` damped descents and keeps the lowest SSR, with
    the lowest start index breaking exact ties, so the outcome does not
    depend on evaluation order.  Residuals are data minus model on the
    spectrum's own grid.  This is :func:`fit_many` on one spectrum.

    Raises
    ------
    DegenerateDataError
        If all data values are equal (no shape to fit).
    FitConvergenceError
        If every start fails (non-finite outcome).
    ValueError
        If the spectrum has too few points for the model.
    """
    result = fit_many(model, [data], cfg)[0]
    if isinstance(result, Exception):
        raise result
    return result
