"""Damped least-squares fitting of the lineshape models, by variable projection.

Both models are linear in their squared amplitudes once the widths and
the doublet's offset are fixed, so only those are iterated: ``(g_plus,
g_minus)`` for EIT, ``(g, u)`` with ``u = d0**2 >= 0`` for ATS.  At every
trial point the amplitudes are solved in closed form as a 1- or 2-column
nonnegative least-squares problem, and steps use Kaufman's projected
Jacobian (separable least squares: Golub & Pereyra, SIAM J. Numer. Anal.
10, 1973; Kaufman, BIT 15, 1975).  Fitting ``u`` instead of ``d0``
removes the stationary plane ``d0 = 0``; ``u`` is held at its bound 0 by
projected steps.  The information criterion still counts every amplitude
(K = 4 and 3): profiling them out does not change what is fitted.

Steps follow a plain Levenberg-Marquardt schedule (x10 damping on a
rejected step, /10 on an accepted one) from several starts: a
deterministic, data-driven guess and seeded log-uniform perturbations of
it.  The rejections are taken two damping levels at a time, and each
accepted point's normal equations come from the profile that accepted it
(see :func:`_lm_run_batch`), so an iteration usually profiles once.
Every start of every spectrum handed to :func:`fit_many` advances in
lockstep through one vectorized loop, so the per-iteration interpreter
cost is paid once per batch, not once per spectrum.  Each row reads only
its own data, so a result never depends on what it was batched with.

On some spectra the interference model has no interior minimum: the SSR
keeps falling as the widths merge and the amplitudes grow without bound.
The descent follows that valley until the SSR stops falling by the
relative tolerance and converges there; :func:`_profile` says how the
solve stays accurate in that limit.  The lowest SSR over the starts wins,
converged or not; ``converged``, ``iterations`` and ``stop`` (one of
``STOP_REASONS``) report how the winning start ended, and parameters are
returned in canonical nonnegative form.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lineshape import Spectrum
from .models import _COLUMN_OF, AtsParams, EitParams, ModelKind, _basis, _join, _split, canonicalize

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
# drop at or below which an accepted step ends a start (a tolerance stop).
_INITIAL_DAMPING = 1e-3
_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
_RELATIVE_TOLERANCE = 1e-12
# Rows (starts x spectra) advanced together by fit_many.  Past a few
# hundred rows the per-iteration interpreter cost is amortised and larger
# batches only add memory traffic; 512 is 32 spectra of 16 starts.
_MAX_BATCH_ROWS = 512
# Why a start stopped, as ``_lm_run_batch`` codes it: the SSR stopped
# falling by the relative tolerance, the gradient fell below its
# tolerance, no step at any damping up to the ceiling lowered the SSR, the
# iteration cap was reached, or the point went non-finite.  The first
# three count as converged.
STOP_REASONS = ("tolerance", "gradient", "damping", "cap", "non-finite")
_TOLERANCE, _GRADIENT, _DAMPING, _CAP, _NON_FINITE = range(len(STOP_REASONS))
# Starts whose final SSR is within this relative distance of the best one
# are counted as agreeing with it.
_AGREEMENT_RTOL = 1e-6


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
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class FitResult:
    """Best fit over all starts, with residual statistics."""

    params: EitParams | AtsParams
    ssr: float
    sigma_hat_sq: float
    n_points: int
    converged: bool
    n_starts_agreeing: int
    iterations: int  # iterations the winning start ran
    stop: str  # why the winning start stopped, one of STOP_REASONS


def variance_floor(values) -> float:
    """Floor for the residual variance before it enters a logarithm.

    Exact-model fits drive the estimated variance to zero; flooring it at
    1e-30 times the squared data scale keeps downstream information
    values finite without affecting any non-exact fit.
    """
    return 1e-30 * float(np.max(np.square(np.asarray(values, dtype=float))))


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


def _first_guess_ats(deltas: np.ndarray, values: np.ndarray) -> np.ndarray:
    peak_idx = int(np.argmax(values))
    peak = max(float(values[peak_idx]), np.finfo(float).tiny)
    d0 = abs(float(deltas[peak_idx]))
    g = max(_half_width_outward(deltas, values, peak_idx), float(deltas[1] - deltas[0]))
    # Peak height is c^2/g^2 for a separated doublet and 2c^2/g^2 for a
    # coincident one; interpolate between the two limits.
    doubling = 1.0 + g * g / (g * g + 4.0 * d0 * d0)
    c = g * np.sqrt(peak / doubling)
    return np.array([c, g, d0])


def _first_guess_eit(deltas: np.ndarray, values: np.ndarray) -> np.ndarray:
    peak = max(float(np.max(values)), np.finfo(float).tiny)
    centre_idx = int(np.argmin(np.abs(deltas)))
    centre = float(values[centre_idx])
    span = deltas[-1] - deltas[0]
    # Broad width: outermost half-maximum crossing.
    above = np.abs(deltas[values >= peak / 2.0])
    g_broad = float(np.max(above)) if above.size else span / 4.0
    g_broad = max(g_broad, float(deltas[1] - deltas[0]))
    # Narrow width: where the central dip recovers halfway to the peak.
    dip = peak - centre
    if dip > 0:
        risen = np.abs(deltas[values >= (centre + peak) / 2.0])
        g_narrow = float(np.min(risen)) if risen.size else g_broad / 2.0
        g_narrow = max(g_narrow, float(deltas[1] - deltas[0]) / 2.0)
    else:
        g_narrow = g_broad / 2.0
    c_plus = g_broad * np.sqrt(peak)
    c_minus = g_narrow * np.sqrt(max(dip, 1e-6 * peak))
    return np.array([c_plus, c_minus, g_broad, g_narrow])


def initial_guesses(model: ModelKind, data: Spectrum, n: int, seed: int) -> list[np.ndarray]:
    """Data-driven first guess plus n-1 seeded log-uniform perturbations.

    The perturbations scale each component by a factor drawn uniformly in
    log space between 1/4 and 4, so the starts cover both the compact and
    the nearly-degenerate corners of parameter space.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if model is ModelKind.ATS:
        base = _first_guess_ats(data.deltas, data.values)
    else:
        base = _first_guess_eit(data.deltas, data.values)
    seed_base = base.copy()
    if model is ModelKind.ATS and seed_base[2] == 0.0:
        # Single-peaked data puts the offset guess exactly at zero, which is
        # a stationary plane of the objective (the model is even in the
        # offset) that multiplicative perturbations can never leave; explore
        # unresolved splittings up to the width scale instead.
        seed_base[2] = seed_base[1]
    guesses = [base]
    rng = np.random.default_rng(seed)
    log4 = np.log(4.0)
    for _ in range(n - 1):
        factors = np.exp(rng.uniform(-log4, log4, size=base.size))
        guesses.append(seed_base * factors)
    return guesses


def _damped_step(jtj: np.ndarray, diag: np.ndarray, grad: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Solve the damped normal equations for a stack of systems."""
    k = jtj.shape[-1]
    systems = jtj + lam[:, None, None] * diag[:, :, None] * np.eye(k)
    try:
        return np.linalg.solve(systems, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        steps = np.empty_like(grad)
        for i in range(systems.shape[0]):
            try:
                steps[i] = np.linalg.solve(systems[i], grad[i])
            except np.linalg.LinAlgError:
                steps[i], *_ = np.linalg.lstsq(systems[i], grad[i], rcond=None)
        return steps


# Below this sine of the angle between EIT's second basis direction and
# its first, the pair is treated as one column (see _profile).
_COLLINEAR_SIN = 1e-8


def _profile(model: ModelKind, theta: np.ndarray, deltas: np.ndarray, y: np.ndarray):
    """Profile the squared amplitudes out at the nonlinear parameters ``theta`` (s, 2).

    Each row's amplitudes ``alpha >= 0`` minimise ``|y - Phi alpha|``: the
    unconstrained solve if it is nonnegative, else the better single
    column.  Returns ``(alpha, ssr, resid, q)``, ``q`` (s, p, n) being an
    orthonormal basis of the columns in use with the unused ones zeroed:
    with ``resid`` it is what :func:`_normal_equations` needs at this point.

    The EIT valley leads to ``g_minus -> g_plus``, where ``L(g_plus)`` and
    ``-L(g_minus)`` turn parallel and the amplitudes grow like
    ``1/(g_plus - g_minus)`` while the lobes cancel; a solve in those two
    columns loses as many digits as the widths share.  The pair is
    therefore solved in the basis ``L(g_plus)``, ``E = L(g_minus) -
    L(g_plus)`` of the same plane, with ``E = (g_plus**2 - g_minus**2)
    L(g_plus) L(g_minus)`` formed without a difference of near-equal
    numbers.  ``E`` does not turn parallel to ``L(g_plus)`` (``E / (g_plus
    - g_minus)`` tends to the width derivative), and the residual comes
    from the Gram-Schmidt form ``y - Q Q^T y``, so it never forms the
    large amplitudes; only they, recovered from the coefficients in that
    basis, carry the growth.  Where ``E`` still lies within
    ``_COLLINEAR_SIN`` of ``L(g_plus)`` (equal widths, or both far wider
    than the grid), the pair counts as one column.
    """
    phi = _basis(model, theta, deltas)
    if model is ModelKind.EIT:
        gp, gm = theta[:, 0:1], theta[:, 1:2]
        e = (gp - gm) * (gp + gm) * phi[:, 0] * -phi[:, 1]
    norm = np.sqrt(np.einsum("spn,spn->sp", phi, phi))
    q = phi
    q /= norm[:, :, None]  # unit columns; below, the basis of the columns in use
    z = np.einsum("spn,sn->sp", q, y)  # coefficient of each unit column alone
    if model is ModelKind.ATS:
        z = np.maximum(z, 0.0)
        alpha = z / norm
        in_use = z > 0.0
    else:
        e_norm = np.sqrt(np.einsum("sn,sn->s", e, e))
        r01 = np.einsum("sn,sn->s", q[:, 0], e)
        e -= r01[:, None] * q[:, 0]
        r11 = np.sqrt(np.einsum("sn,sn->s", e, e))
        e /= r11[:, None]
        z_e = np.einsum("sn,sn->s", e, y)
        # Model = b0 L(g_plus) + b1 E, so alpha = (b0 - b1, -b1).
        alpha_minus = -z_e / r11
        alpha_pair = np.column_stack(((z[:, 0] - r01 * z_e / r11) / norm[:, 0] + alpha_minus, alpha_minus))
        pair = (r11 > _COLLINEAR_SIN * e_norm) & np.all(alpha_pair >= 0.0, axis=1)
        first = np.maximum(z[:, 0], 0.0) >= np.maximum(z[:, 1], 0.0)
        single = np.column_stack((np.where(first, np.maximum(z[:, 0], 0.0), 0.0), np.where(first, 0.0, z[:, 1])))
        q[pair, 1] = e[pair]
        z = np.where(pair[:, None], np.column_stack((z[:, 0], z_e)), single)
        alpha = np.where(pair[:, None], alpha_pair, single / norm)
        in_use = pair[:, None] | (z > 0.0)
    resid = y - np.einsum("sp,spn->sn", z, q)
    ssr = np.einsum("sn,sn->s", resid, resid)
    q *= in_use[:, :, None]
    return alpha, ssr, resid, q


def _normal_equations(
    model: ModelKind, theta: np.ndarray, deltas: np.ndarray, alpha: np.ndarray, resid: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``J^T r`` (s, 2) and ``J^T J`` (s, 2, 2) at a point :func:`_profile` returned.

    ``J`` (s, 2, n) is Kaufman's Jacobian ``P (dPhi/dtheta alpha)``, ``P``
    the projector onto the complement of ``q``'s columns.
    """
    _, jac = _basis(model, theta, deltas, derivatives=True)
    jac *= alpha[:, list(_COLUMN_OF[model])][:, :, None]
    jac -= (q.transpose(0, 2, 1) @ (q @ jac.transpose(0, 2, 1))).transpose(0, 2, 1)
    return (jac @ resid[:, :, None])[:, :, 0], jac @ jac.transpose(0, 2, 1)


# Overflow far out or near the float limit gives non-finite values, which
# the rows' checks stop on; the warnings are silenced once, for the body.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _lm_run_batch(
    model: ModelKind,
    x0: np.ndarray,
    deltas: np.ndarray,
    values: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance every row of ``x0`` (shape (s, k)) through the damped descent in lockstep.

    ``values`` holds the data: shape (m, n) with m dividing s splits the
    rows into m consecutive groups of s/m, group j fitting ``values[j]``
    (m = s gives every row its own data, and a spectrum's starts share one
    copy of it); a one-dimensional ``values`` is shared by every row.
    Only the widths and offset of a start are used (see :func:`_profile`).

    Each row carries the normal equations of its current point.  An
    iteration tries damped steps on a ladder, two damping levels ``lam``
    and ``10 lam`` per pass, both profiled in one call, and takes the
    lower level whose SSR does not rise; a row whose two levels both rise
    climbs to ``100 lam`` for the next pass.  This is the sequence of
    trials the plain x10 schedule makes one level at a time, so it reaches
    the same points.  The accepted trial's profile already holds the
    residual and basis there, so the next normal equations are formed from
    it and no point is profiled twice.

    Returns (params, ssr, converged, iterations, stop) per row, the
    parameters as canonical raw vectors and ``stop`` indexing
    ``STOP_REASONS``.  A row reads nothing of the other rows, so its
    outcome does not depend on what it is batched with; rows that stop
    simply drop out of the active set.
    """
    n_rows = x0.shape[0]
    values = np.atleast_2d(values)
    group = n_rows // values.shape[0]
    if group * values.shape[0] != n_rows:
        raise ValueError(f"{values.shape[0]} data vectors do not split {n_rows} rows evenly")
    owner = np.arange(n_rows) // group
    theta, _ = _split(model, np.array(x0, dtype=float))
    alpha, ssr, resid, q = _profile(model, theta, deltas, values[owner])
    grad, jtj = _normal_equations(model, theta, deltas, alpha, resid, q)
    del resid, q
    stop = np.full(n_rows, _CAP)
    iterations = np.zeros(n_rows, dtype=int)
    active = np.isfinite(ssr)
    stop[~active] = _NON_FINITE
    ssr = np.where(active, ssr, np.inf)
    lam = np.full(n_rows, _INITIAL_DAMPING)
    # The SSR's gradient scales as the data squared; the scale is clamped
    # where its square would overflow, so the tolerance stays finite.
    scale = np.clip(np.max(np.abs(values), axis=1), 1.0, np.sqrt(np.finfo(float).max))
    grad_tol = 1e-12 * np.square(scale)[owner]
    tiny = np.finfo(float).tiny

    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        iterations[idx] += 1
        g, h = grad[idx], jtj[idx]
        if model is ModelKind.ATS:
            # At u = 0 with descent pointing to u < 0 the bound is active:
            # u leaves the step (a projected Newton step), so the width is
            # still optimised, and only the free components count below.
            bound = (theta[idx, 1] == 0.0) & (g[:, 1] <= 0.0)
            g[bound, 1] = 0.0
            h[bound, 0, 1] = h[bound, 1, 0] = 0.0
        bad = ~np.all(np.isfinite(g), axis=1) | ~np.all(np.isfinite(h), axis=(1, 2))
        flat = ~bad & (np.max(np.abs(g), axis=1) < grad_tol[idx])
        stop[idx[bad]] = _NON_FINITE
        stop[idx[flat]] = _GRADIENT
        active[idx[bad | flat]] = False
        keep = ~(bad | flat)
        if not keep.all():
            idx, g, h = idx[keep], g[keep], h[keep]
            if idx.size == 0:
                continue
        ta = theta[idx]
        diag = np.diagonal(h, axis1=1, axis2=2).copy()
        # Flat directions (e.g. the width of a lobe whose amplitude is
        # zero) get a floor so the damped system stays solvable.
        floor = 1e-12 * np.maximum(diag.max(axis=1), tiny)
        diag = np.maximum(diag, floor[:, None])

        pending = np.ones(idx.size, dtype=bool)
        ssr_old = ssr[idx]
        lam_local = lam[idx]
        while pending.any():
            p = np.flatnonzero(pending)
            both = np.concatenate((p, p))  # the ladder's two levels, lower first
            lam_trial = np.concatenate((lam_local[p], lam_local[p] * 10.0))
            t_trial = ta[both] + _damped_step(h[both], diag[both], g[both], lam_trial)
            if model is ModelKind.ATS:
                np.maximum(t_trial[:, 1], 0.0, out=t_trial[:, 1])  # projected step: u = d0**2 >= 0
            alpha_t, ssr_t, resid_t, q_t = _profile(model, t_trial, deltas, values[owner[idx[both]]])
            ok = np.isfinite(ssr_t) & (ssr_t <= ssr_old[both])
            ok[p.size :] &= lam_trial[p.size :] <= _DAMPING_MAX  # a row stops before trying a level past the ceiling
            ok = ok.reshape(2, p.size)
            took = ok.any(axis=0)
            j = np.argmax(ok, axis=0)[took] * p.size + np.flatnonzero(took)  # trial row taken
            a = p[took]
            ga = idx[a]
            theta[ga] = t_trial[j]
            alpha[ga] = alpha_t[j]
            ssr[ga] = ssr_t[j]
            lam[ga] = np.maximum(lam_trial[j] / 10.0, _DAMPING_MIN)
            pending[a] = False
            done = ssr_old[a] - ssr[ga] <= _RELATIVE_TOLERANCE * np.maximum(ssr[ga], tiny)
            stop[ga[done]] = _TOLERANCE
            active[ga[done]] = False
            j, ga = j[~done], ga[~done]
            if ga.size:
                grad[ga], jtj[ga] = _normal_equations(model, t_trial[j], deltas, alpha_t[j], resid_t[j], q_t[j])
            del resid_t, q_t
            rej = p[~took]
            lam_local[rej] = lam_trial[p.size :][~took] * 10.0
            dead = rej[lam_local[rej] > _DAMPING_MAX]
            # No descent direction at any damping: numerically stationary.
            stop[idx[dead]] = _DAMPING
            active[idx[dead]] = False
            pending[dead] = False

    converged = np.isin(stop, (_TOLERANCE, _GRADIENT, _DAMPING))
    return _join(model, theta, alpha), ssr, converged, iterations, stop


def _best_of(
    model: ModelKind,
    x: np.ndarray,
    ssr: np.ndarray,
    converged: np.ndarray,
    iterations: np.ndarray,
    stop: np.ndarray,
    n: int,
) -> FitResult:
    """The lowest-SSR start of one spectrum, the lowest index breaking exact ties."""
    usable = np.isfinite(ssr)
    if not usable.any():
        raise FitConvergenceError(f"no usable minimum fitting {model.value} ({ssr.size} starts)")
    best = int(np.argmin(np.where(usable, ssr, np.inf)))  # argmin keeps the lowest index on ties
    best_ssr = float(ssr[best])
    agreeing = int(np.sum(usable & (ssr <= best_ssr * (1.0 + _AGREEMENT_RTOL) + np.finfo(float).tiny)))
    return FitResult(
        params=canonicalize(model, x[best]),
        ssr=best_ssr,
        sigma_hat_sq=best_ssr / n,
        n_points=n,
        converged=bool(converged[best]),
        n_starts_agreeing=agreeing,
        iterations=int(iterations[best]),
        stop=STOP_REASONS[stop[best]],
    )


def fit_many(
    model: ModelKind, spectra: Sequence[Spectrum], cfg: FitConfig | None = None
) -> list[FitResult | Exception]:
    """Fit one model to many spectra on one detuning grid, in lockstep.

    Every start of every spectrum becomes one row of a lockstep batch.  A
    batch holds whole spectra, as many as fit in ``_MAX_BATCH_ROWS`` rows
    (at least one), so the per-iteration interpreter cost is paid once per
    batch rather than once per spectrum.  A row reads only its own data,
    which makes each result identical to :func:`fit` on that spectrum
    alone, whatever the batch holds.

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
    out: list[FitResult | Exception] = [None] * len(spectra)  # type: ignore[list-item]
    todo = []
    for i, data in enumerate(spectra):
        if np.all(data.values == data.values[0]):
            out[i] = DegenerateDataError("all data values are equal; nothing to fit")
        else:
            todo.append(i)

    per_batch = max(1, _MAX_BATCH_ROWS // cfg.n_starts)
    for lo in range(0, len(todo), per_batch):
        batch = todo[lo : lo + per_batch]
        x0 = np.concatenate([np.stack(initial_guesses(model, spectra[i], cfg.n_starts, cfg.seed)) for i in batch])
        values = np.stack([spectra[i].values for i in batch])
        x, ssr, converged, iterations, stop = _lm_run_batch(model, x0, deltas, values, cfg)
        for j, i in enumerate(batch):
            rows = slice(j * cfg.n_starts, (j + 1) * cfg.n_starts)
            try:
                out[i] = _best_of(model, x[rows], ssr[rows], converged[rows], iterations[rows], stop[rows], n)
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
