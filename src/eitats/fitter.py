"""Damped least-squares fitting of the lineshape models.

A plain Levenberg-Marquardt loop (multiplicative damping on the normal
equations, x10 on a rejected step, /10 on an accepted one) run from
several starting points.  The first start is a deterministic, data-driven
guess; the rest are seeded log-uniform perturbations of it.  Every start
of every spectrum handed to :func:`fit_many` advances in lockstep through
one vectorized loop - lockstep across starts *and* spectra - which is what
keeps parameter sweeps cheap: the per-iteration interpreter cost is paid
once per batch, not once per spectrum.  Each row of the batch reads only
its own data, so a result never depends on what it was batched with.  A
scalar reference implementation of the same schedule is kept alongside
for verification.

Widths and amplitudes are fitted unconstrained - the models depend only
on their squares - and folded to the canonical nonnegative representative
at readout.

The best run wins by SSR whether or not it met a convergence criterion
before the iteration cap: the interference-type model has flat valleys
(nearly cancelling lobes) where the minimum is approached but never
attained, and discarding a capped run there would hand victory to a far
worse local minimum.  The returned ``converged`` flag reports the best
run's status honestly.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .lineshape import Spectrum
from .models import AtsParams, EitParams, ModelKind, _eval_array, _jacobian_array, canonicalize

__all__ = [
    "FitConfig",
    "FitResult",
    "FitConvergenceError",
    "DegenerateDataError",
    "fit",
    "fit_many",
    "initial_guesses",
    "variance_floor",
]

_DAMPING_MAX = 1e15
_DAMPING_MIN = 1e-15
# Rows (starts x spectra) advanced together by fit_many.  Past a few
# hundred rows the per-iteration interpreter cost is amortised and larger
# batches only add memory traffic; 512 is 32 spectra of 16 starts.
_MAX_BATCH_ROWS = 512
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
    relative_tolerance: float = 1e-12
    initial_damping: float = 1e-3
    n_starts: int = 16
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if not self.relative_tolerance > 0:
            raise ValueError("relative_tolerance must be positive")
        if not self.initial_damping > 0:
            raise ValueError("initial_damping must be positive")
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


def _lm_run_batch(
    model: ModelKind,
    x0: np.ndarray,
    deltas: np.ndarray,
    values: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance every row of ``x0`` (shape (s, k)) through the damped descent in lockstep.

    ``values`` holds the data: shape (m, n) with m dividing s splits the
    rows into m consecutive groups of s/m, group j fitting ``values[j]``
    (m = s gives every row its own data, and a spectrum's starts share one
    copy of it); a one-dimensional ``values`` is shared by every row.
    Returns (params, ssr, converged) per row.  Each row follows exactly the
    schedule of :func:`_lm_run_reference` and reads nothing of the other
    rows, so its outcome does not depend on what it is batched with; rows
    that converge or blow up simply drop out of the active set.
    """
    n_rows = x0.shape[0]
    values = np.atleast_2d(values)
    group = n_rows // values.shape[0]
    if group * values.shape[0] != n_rows:
        raise ValueError(f"{values.shape[0]} data vectors do not split {n_rows} rows evenly")
    owner = np.arange(n_rows) // group
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        resid = values[owner] - _eval_array(model, x, deltas)
        ssr = np.einsum("sn,sn->s", resid, resid)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.isfinite(ssr)
    ssr = np.where(np.isfinite(ssr), ssr, np.inf)
    lam = np.full(n_rows, cfg.initial_damping)
    grad_tol = 1e-12 * np.maximum(1.0, np.max(np.square(values), axis=1))[owner]
    tiny = np.finfo(float).tiny

    for _ in range(cfg.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        jac = _jacobian_array(model, x[idx], deltas)
        grad = (jac @ (resid if idx.size == n_rows else resid[idx])[:, :, None])[:, :, 0]
        jtj = jac @ jac.transpose(0, 2, 1)
        del jac  # the iteration's largest array; not needed by the trial steps
        bad = ~np.all(np.isfinite(grad), axis=1)
        flat = ~bad & (np.max(np.abs(grad), axis=1) < grad_tol[idx])
        converged[idx[flat]] = True
        active[idx[bad | flat]] = False
        keep = ~(bad | flat)
        if not keep.all():
            idx, grad, jtj = idx[keep], grad[keep], jtj[keep]
            if idx.size == 0:
                continue
        xa = x[idx]
        diag = np.diagonal(jtj, axis1=1, axis2=2).copy()
        # Flat directions (e.g. the doublet offset at zero) get a floor so
        # the damped system stays solvable.
        floor = 1e-12 * np.maximum(diag.max(axis=1), tiny)
        diag = np.maximum(diag, floor[:, None])

        pending = np.ones(idx.size, dtype=bool)
        accepted = np.zeros(idx.size, dtype=bool)
        ssr_old = ssr[idx]
        lam_local = lam[idx]
        while pending.any():
            p = np.flatnonzero(pending)
            x_trial = xa[p] + _damped_step(jtj[p], diag[p], grad[p], lam_local[p])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                resid_trial = values[owner[idx[p]]] - _eval_array(model, x_trial, deltas)
                ssr_trial = np.einsum("sn,sn->s", resid_trial, resid_trial)
            ok = np.isfinite(ssr_trial) & (ssr_trial <= ssr_old[p])
            acc = p[ok]
            ga = idx[acc]
            x[ga] = x_trial[ok]
            resid[ga] = resid_trial[ok]
            ssr[ga] = ssr_trial[ok]
            accepted[acc] = True
            pending[acc] = False
            rej = p[~ok]
            lam_local[rej] *= 10.0
            dead = rej[lam_local[rej] > _DAMPING_MAX]
            if dead.size:
                # No descent direction at any damping: numerically stationary.
                converged[idx[dead]] = True
                active[idx[dead]] = False
                pending[dead] = False

        if accepted.any():
            a = np.flatnonzero(accepted)
            ga = idx[a]
            drop = ssr_old[a] - ssr[ga]
            lam[ga] = np.maximum(lam_local[a] / 10.0, _DAMPING_MIN)
            done = drop <= cfg.relative_tolerance * np.maximum(ssr[ga], tiny)
            converged[ga[done]] = True
            active[ga[done]] = False

    return x, ssr, converged


def _lm_run_reference(
    model: ModelKind,
    x0: np.ndarray,
    deltas: np.ndarray,
    values: np.ndarray,
    cfg: FitConfig,
) -> tuple[np.ndarray, float, bool, list[float]]:
    """Scalar single-start descent; returns (x, ssr, converged, ssr history).

    Same schedule and model kernel as the batch engine (one row), kept as
    an independent check of the lockstep bookkeeping and for
    per-iteration diagnostics.
    """
    x = np.array(x0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        resid = values - _eval_array(model, x[None, :], deltas)[0]
        ssr = float(resid @ resid)
    if not np.isfinite(ssr):
        return x, np.inf, False, [ssr]
    lam = cfg.initial_damping
    grad_tol = 1e-12 * max(1.0, float(np.max(np.square(values))))
    tiny = np.finfo(float).tiny
    history = [ssr]
    converged = False

    for _ in range(cfg.max_iterations):
        jac = _jacobian_array(model, x[None, :], deltas)[0]
        grad = jac @ resid
        if not np.all(np.isfinite(grad)):
            break
        if float(np.max(np.abs(grad))) < grad_tol:
            converged = True
            break
        jtj = jac @ jac.T
        diag = np.diag(jtj).copy()
        floor = 1e-12 * max(float(diag.max()), tiny)
        diag[diag < floor] = floor

        accepted = False
        while lam <= _DAMPING_MAX:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jtj + lam * np.diag(diag), grad, rcond=None)
            x_trial = x + step
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                resid_trial = values - _eval_array(model, x_trial[None, :], deltas)[0]
                ssr_trial = float(resid_trial @ resid_trial) if np.all(np.isfinite(resid_trial)) else np.inf
            if np.isfinite(ssr_trial) and ssr_trial <= ssr:
                accepted = True
                break
            lam *= 10.0

        if not accepted:
            converged = True
            break

        drop = ssr - ssr_trial
        x, resid, ssr = x_trial, resid_trial, ssr_trial
        history.append(ssr)
        lam = max(lam / 10.0, _DAMPING_MIN)
        if drop <= cfg.relative_tolerance * max(ssr, tiny):
            converged = True
            break

    return x, ssr, converged, history


def _best_of(model: ModelKind, x: np.ndarray, ssr: np.ndarray, converged: np.ndarray, n: int) -> FitResult:
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
        x, ssr, converged = _lm_run_batch(model, x0, deltas, values, cfg)
        for j, i in enumerate(batch):
            rows = slice(j * cfg.n_starts, (j + 1) * cfg.n_starts)
            try:
                out[i] = _best_of(model, x[rows], ssr[rows], converged[rows], n)
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
