"""Fitting engine: exact recovery, determinism, descent behavior, guesses,
frozen per-row solver output, stop reasons, and batch invariance of the
lockstep engine."""
import json
import math
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitats import fitter
from eitats.fitter import (
    DegenerateDataError,
    STOP_REASONS,
    FitConfig,
    FitConvergenceError,
    _damped_step,
    _lm_run_batch,
    _profile,
    fit,
    fit_many,
    initial_guesses,
    variance_floor,
)
from eitats.cli import CIRCUIT_GRID, CIRCUIT_PRESET, ingest_spectrum
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid, transmission_profile
from eitats.models import (
    AtsParams,
    EitParams,
    ModelKind,
    _columns,
    _derivatives,
    _grid,
    _join,
    _lobes,
    as_array,
    eval_ats,
    eval_eit,
    evaluate,
)
from eitats.simulation import NoiseSpec, add_noise


def ats_spectrum(params=AtsParams(0.5, 1.0, 2.0), grid=None):
    grid = default_grid() if grid is None else grid
    return Spectrum(deltas=grid, values=eval_ats(params, grid))


class TestExactRecovery:
    def test_doublet_parameters_recovered(self):
        truth = AtsParams(0.5, 1.0, 2.0)
        res = fit(ModelKind.ATS, ats_spectrum(truth))
        assert res.converged
        assert res.params.c == pytest.approx(truth.c, abs=1e-6)
        assert res.params.g == pytest.approx(truth.g, abs=1e-6)
        assert res.params.d0 == pytest.approx(truth.d0, abs=1e-6)
        assert res.ssr <= 1e-18

    def test_signed_pair_parameters_recovered(self):
        truth = EitParams(1.2, 0.8, 1.5, 0.3)
        grid = default_grid()
        data = Spectrum(deltas=grid, values=eval_eit(truth, grid))
        res = fit(ModelKind.EIT, data)
        assert res.converged
        for got, want in zip(as_array(res.params), as_array(truth)):
            assert got == pytest.approx(want, abs=1e-6)
        assert res.ssr <= 1e-18

    def test_solver_floor_invariant(self):
        rng = np.random.default_rng(31)
        grid = default_grid()
        for _ in range(5):
            truth = AtsParams(*rng.uniform(0.3, 2.0, size=3))
            data = ats_spectrum(truth, grid)
            res = fit(ModelKind.ATS, data)
            assert res.ssr <= 1e-15 * data.n_points * float(np.max(data.values)) ** 2

    def test_generated_profile_fits(self):
        # Strong pump: the doublet model describes the physics well.
        data = absorption_profile(TlaParams(omega=3.0, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        res = fit(ModelKind.ATS, data)
        assert res.converged
        assert res.params.d0 == pytest.approx(3.0, rel=0.1)


class TestFitResult:
    def test_variance_consistency(self):
        res = fit(ModelKind.ATS, absorption_profile(TlaParams(omega=1.0), default_grid()))
        assert res.sigma_hat_sq * res.n_points == pytest.approx(res.ssr, rel=1e-12)

    def test_determinism(self):
        data = absorption_profile(TlaParams(omega=0.9), default_grid())
        cfg = FitConfig(n_starts=8, seed=5)
        a = fit(ModelKind.EIT, data, cfg)
        b = fit(ModelKind.EIT, data, cfg)
        assert a == b  # bit-identical dataclasses

    def test_agreement_count_positive(self):
        res = fit(ModelKind.ATS, ats_spectrum())
        assert 1 <= res.n_starts_agreeing <= 16

    def test_starts_at_the_rounding_floor_agree_on_exact_data(self):
        # On exact data the starts that reach the fit end at the rounding
        # floor, far apart relative to each other: every start within the
        # variance floor times the points of the best agrees with it.
        data = absorption_profile(TlaParams(omega=0.05), default_grid())
        x0 = initial_guesses(ModelKind.EIT, data, 16, 0)
        ssr = _lm_run_batch(ModelKind.EIT, x0, data.deltas, data.values[None], FitConfig())[2]
        floor = variance_floor(data.values) * data.n_points
        assert ssr.min() * 1e-6 < floor
        agreeing = fit(ModelKind.EIT, data).n_starts_agreeing
        assert agreeing == np.count_nonzero(ssr <= ssr.min() + floor) > 1


# Per-start SSRs (5 starts, seed 1) of the four-/three-parameter descent
# that variable projection replaced, frozen from it on two problems: a
# benign one (weak pump, cap 400) and a hard one (the EIT flat valley,
# cap 150).
FROZEN_SSR = {
    (0.3, 400): {
        ModelKind.EIT: [8.54153657491664e-26, 0.7068661569234851, 0.6418282554716382, 0.641826226370841,
                        5.607345033083437e-31],
        ModelKind.ATS: [0.38474420166275264, 2.5101491211551585, 0.3847442016627587, 0.3847442016627559,
                        0.3847442016627518],
    },
    (1.2, 150): {
        ModelKind.EIT: [2.76953088855081, 8.34094674671925, 2.7700738472273594, 2.769743163597878,
                        2.769424221566558],
        ModelKind.ATS: [0.8410080756382401, 0.84100807563824, 0.841008075638257, 0.841008075638239,
                        10.548911318860224],
    },
}


def rounding_floor(values):
    """SSR of an exact fit whose every residual is 10 ulps of the data scale."""
    return values.size * (10.0 * np.finfo(float).eps * float(np.max(np.abs(values)))) ** 2


def ssr_by_cap(model, data, x0, caps):
    """Each row's SSR after ``cap`` iterations, one row of the result per cap."""
    return np.stack(
        [_lm_run_batch(model, x0, data.deltas, data.values[None], FitConfig(max_iterations=cap))[2] for cap in caps]
    )


CONVERGED = ("tolerance", "gradient", "damping")


def raw_rows(model, state):
    """``_lm_run_batch``'s state read out per row, as ``_best_of`` reads the
    winner: (raw vectors, ssr, converged, iterations, stop, limit), a row's
    limit form nan unless it ended on the EIT bound u = 0."""
    theta, alpha, ssr, iterations, stop = state
    converged = np.isin(stop, [STOP_REASONS.index(reason) for reason in CONVERGED])
    limit = np.full((theta.shape[0], 3), np.nan)
    if model is ModelKind.EIT:
        on = theta[:, 1] == 0.0
        limit[on] = np.column_stack((2.0 * alpha[on, 0], alpha[on, 1], theta[on, 0]))
    return _join(model, theta, alpha), ssr, converged, iterations, stop, limit


def noisy_replicate(omega, seed, replicate):
    """A 10%-noise replicate drawn as criterion 5 draws them (there with noise seed 42)."""
    noise = NoiseSpec(sigma=0.1, seed=seed, n_replicates=100)
    return add_noise(absorption_profile(TlaParams(omega=omega), default_grid()), noise, replicate)


class TestDescentBehaviour:
    def test_accepted_steps_never_increase_ssr(self):
        # Runs are deterministic, so the first k iterations under cap k + 1
        # are those under cap k: an accepted step that raised the SSR shows
        # as a rise from one cap to the next.
        data = absorption_profile(TlaParams(omega=1.1), default_grid())
        for model in (ModelKind.EIT, ModelKind.ATS):
            x0 = initial_guesses(model, data, 4, 3)
            assert np.all(np.diff(ssr_by_cap(model, data, x0, range(1, 52)), axis=0) <= 0)

    @pytest.mark.parametrize(
        ("omega", "cap"),
        [(0.3, 400), (1.2, 150)],
        ids=["benign", "flat_valley"],
    )
    def test_each_start_reaches_the_frozen_ssr_without_rising(self, omega, cap):
        # Exact fits (EIT below the pump threshold) reach the rounding
        # floor, where the frozen SSRs (down to 5.6e-31) are rounding noise.
        data = absorption_profile(TlaParams(omega=omega), default_grid())
        for model in (ModelKind.EIT, ModelKind.ATS):
            x0 = initial_guesses(model, data, 5, 1)
            cfg = FitConfig(max_iterations=cap)
            _, ssr, converged, *_ = raw_rows(model, _lm_run_batch(model, x0, data.deltas, data.values[None], cfg))
            bound = np.maximum(np.array(FROZEN_SSR[omega, cap][model]) * (1.0 + 1e-9), rounding_floor(data.values))
            assert np.all(ssr <= bound), (model, ssr, bound)
            assert converged.all()
            assert np.all(np.diff(ssr_by_cap(model, data, x0, range(1, 52)), axis=0) <= 0)

    def test_width_is_still_fitted_with_the_offset_at_its_bound(self):
        # A noisy single peak: the best doublet has d0 = 0, where descent
        # points to u = d0**2 < 0.  The frozen SSR is what the retired
        # descent reached with d0 held on its stationary plane d0 = 0.
        data = noisy_replicate(0.0, 42, 41)
        res = fit(ModelKind.ATS, data, FitConfig(max_iterations=300))
        assert res.converged and res.params.d0 == 0.0
        assert res.ssr <= 0.45954434282255163 * (1.0 + 1e-9)


# Problems whose every row of _lm_run_batch output is frozen in
# data/solver_rows.json, from 16 starts of fit seed 0: (model, pump omega,
# noise seed, replicate, cap); omega None is the circuit curve, omega
# SHIFTED the noisy circuit fixture with every detuning moved by +0.1 (a
# two-sided grid on which no two points mirror each other), noise seed
# None a noiseless spectrum.  Every row stays in the box of the grid's
# reach R = max|delta|, |g| <= 2 R and 0 <= u <= R**2.
SHIFTED = "shifted fixture"
FROZEN_PROBLEMS = {
    "circuit_eit": (ModelKind.EIT, None, None, 0, 1000),
    "circuit_ats": (ModelKind.ATS, None, None, 0, 1000),
    # Criterion-5 replicate: the doublet fit ends on its bound u = 0.
    "offset_bound_ats": (ModelKind.ATS, 0.0, 42, 41, 300),
    # Every start, the winner (start 11) included, stops at the cap.
    "capped_eit": (ModelKind.EIT, 0.1, 0, 82, 20),
    # Run with climbing_profile (solver_rows): every start still descending at
    # pass CLIMB, start 2 among them, climbs to the damping ceiling, and the
    # others stop by the tolerance but start 7, which the gradient test stops
    # on the face g = 2 R.
    "damping_eit": (ModelKind.EIT, 1.44, None, 0, 300),
    "unmirrored_eit": (ModelKind.EIT, SHIFTED, None, 0, 1000),
    "unmirrored_ats": (ModelKind.ATS, SHIFTED, None, 0, 1000),
}
FROZEN_ROWS = json.loads((Path(__file__).parent / "data" / "solver_rows.json").read_text(encoding="utf-8"))
# Inside the box no start of these problems climbs to the damping ceiling
# on its own, so the tests of that stop make one climb.  Start 2 of the
# damping problem descends for 14 trials; from pass CLIMB on its trials
# are made to raise its SSR.
CLIMBER, CLIMB = 2, 10


def climbing_profile(fits=None):
    """``_profile`` that, from pass ``CLIMB`` on, raises the SSR of every trial
    of a row fitting the folded data ``fits`` (of every row if None), so that
    such a row rejects both levels until its damping passes the ceiling.

    Returns it and the list it counts its calls in: the admission, then one
    per pass, when every row enters at once.
    """
    calls = []

    def profile(model, theta, grid, y, *rest):
        out = _profile(model, theta, grid, y, *rest)
        if len(calls) >= CLIMB:
            out[1][slice(None) if fits is None else (y == fits).all(axis=1)] = 1e300
        calls.append(None)
        return out

    return profile, calls


def box(deltas):
    """The solver's box on a grid: the bounds of (g, u), |g| <= 2 R and 0 <= u <= R**2, R = max|delta|."""
    reach = float(np.max(np.abs(deltas)))
    return np.array([-2.0 * reach, 0.0]), np.array([2.0 * reach, reach * reach])


def frozen_problem(name):
    """The spectrum, model, starts and config of one frozen problem."""
    model, omega, seed, replicate, cap = FROZEN_PROBLEMS[name]
    if omega is None:
        data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
    elif omega == SHIFTED:
        fixture = ingest_spectrum(Path(__file__).parent / "data" / "circuit_noisy.csv")
        data = Spectrum(deltas=fixture.deltas + 0.1, values=fixture.values)
    elif seed is None:
        data = absorption_profile(TlaParams(omega=omega), default_grid())
    else:
        data = noisy_replicate(omega, seed, replicate)
    return model, data, initial_guesses(model, data, 16, 0), FitConfig(max_iterations=cap)


def solver_rows(name):
    """Every row _lm_run_batch returns on a frozen problem, the damping
    problem's run with :func:`climbing_profile`, floats as float.hex; a row
    that ends on the EIT bound u = 0 also holds its limit form."""
    model, data, x0, cfg = frozen_problem(name)
    with mock.patch.object(fitter, "_profile", climbing_profile()[0] if name == "damping_eit" else _profile):
        state = _lm_run_batch(model, x0, data.deltas, data.values[None], cfg)
    x, ssr, converged, iterations, stop, limit = raw_rows(model, state)
    rows = []
    for i in range(x.shape[0]):
        row = {
            "params": [float(v).hex() for v in x[i]],
            "ssr": float(ssr[i]).hex(),
            "converged": bool(converged[i]),
            "iterations": int(iterations[i]),
            "stop": STOP_REASONS[stop[i]],
        }
        if np.isfinite(limit[i]).all():
            row["limit"] = [float(v).hex() for v in limit[i]]
        rows.append(row)
    return rows


class TestFrozenRows:
    @pytest.mark.parametrize("name", FROZEN_PROBLEMS)
    def test_every_row_is_bit_identical_to_the_frozen_output(self, name):
        rows = solver_rows(name)
        assert rows == FROZEN_ROWS[name]
        for row in rows:
            assert row["converged"] == (row["stop"] not in ("cap", "non-finite"))

    def test_frozen_problems_stop_as_described(self):
        stops = {name: [row["stop"] for row in FROZEN_ROWS[name]] for name in FROZEN_PROBLEMS}
        assert stops["capped_eit"].count("cap") == 16
        assert min(FROZEN_ROWS["capped_eit"], key=lambda row: float.fromhex(row["ssr"]))["stop"] == "cap"
        assert stops["damping_eit"][CLIMBER] == "damping"
        best = min(FROZEN_ROWS["offset_bound_ats"], key=lambda row: float.fromhex(row["ssr"]))
        assert best["params"][2] == "0x0.0p+0"


class TestScheduling:
    def test_a_batch_makes_as_many_passes_as_its_slowest_row_alone(self, monkeypatch):
        """Start 2 of the frozen damping problem climbs to the damping ceiling
        from pass CLIMB on, while other starts still descend.  It fits the
        data doubled, which tells its rows apart and moves no step.

        A pass gives every active row one trial, so a row that accepts
        never waits while another climbs: the batch profiles 19 times, as
        start 2 does alone.  A nested loop that ran each iteration's damping
        ladder until every row had accepted or died would wait for the
        climbing rows of every iteration.
        """
        model, data, x0, cfg = frozen_problem("damping_eit")
        values = np.repeat(data.values[None], x0.shape[0], axis=0)
        values[CLIMBER] *= 2.0
        fits = fitter._fold(data.deltas, values[CLIMBER : CLIMBER + 1])[1][0]

        def passes(rows):
            profile, calls = climbing_profile(fits)
            monkeypatch.setattr(fitter, "_profile", profile)
            stop = _lm_run_batch(model, x0[rows], data.deltas, values[rows], cfg)[4]
            return len(calls), stop

        batch, stop = passes(slice(None))
        alone = [passes(slice(i, i + 1))[0] for i in range(x0.shape[0])]
        assert batch == max(alone) == alone[CLIMBER] == 19
        assert STOP_REASONS[stop[CLIMBER]] == "damping"

    def test_every_trial_pass_is_an_iteration(self, monkeypatch):
        """Start 2 of the frozen damping problem, made to climb from pass
        CLIMB on, ends with a run of passes that reject both levels.  Those
        trials count as iterations too, so a start's iterations are its
        trials, and the cap bounds them."""
        model, data, x0, cfg = frozen_problem("damping_eit")
        calls = []

        def counted(*args):
            calls.append(None)
            return _damped_step(*args)

        monkeypatch.setattr(fitter, "_damped_step", counted)
        for cap, reason in ((15, "cap"), (cfg.max_iterations, "damping")):
            calls.clear()
            monkeypatch.setattr(fitter, "_profile", climbing_profile()[0])
            rows = x0[CLIMBER : CLIMBER + 1]
            *_, iterations, stop = _lm_run_batch(model, rows, data.deltas, data.values[None], FitConfig(cap))
            assert STOP_REASONS[stop[0]] == reason
            assert iterations[0] == len(calls) <= cap


class TestBox:
    @settings(max_examples=30, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        omega=st.floats(0.0, 2.0),
        sigma=st.floats(0.0, 0.3),
        noise_seed=st.integers(0, 2**32 - 1),
        fit_seed=st.integers(0, 2**32 - 1),
        lo=st.floats(-8.0, 1.0),
        span=st.floats(1.0, 12.0),
        points=st.integers(20, 200),
    )
    def test_every_row_ends_inside_the_box(self, model, omega, sigma, noise_seed, fit_seed, lo, span, points):
        # Random grids, one-sided ones among them, and seeded starts, which
        # may begin outside the box.
        grid = np.linspace(lo, lo + span, points)
        data = add_noise(absorption_profile(TlaParams(omega=omega), grid), NoiseSpec(sigma=sigma, seed=noise_seed), 0)
        x0 = initial_guesses(model, data, 8, fit_seed)
        theta = _lm_run_batch(model, x0, data.deltas, data.values[None], FitConfig(max_iterations=300))[0]
        low, high = box(data.deltas)
        assert np.all((low <= theta) & (theta <= high)), (theta, low, high)

    def test_the_damping_problem_s_walker_ends_inside_the_box_converged(self):
        # Without the box start 7 walked to a negative lobe near 8.9e3 wide
        # on the +-5 grid and climbed to the damping ceiling there.
        model, data, x0, cfg = frozen_problem("damping_eit")
        theta, _, _, iterations, stop = _lm_run_batch(model, x0[7:8], data.deltas, data.values[None], cfg)
        low, high = box(data.deltas)
        assert np.all((low <= theta) & (theta <= high)), theta
        assert STOP_REASONS[stop[0]] in CONVERGED and iterations[0] < cfg.max_iterations

    @pytest.mark.parametrize("omega", [1.22, 1.23])
    def test_the_default_sweep_s_ats_walkers_end_inside_the_box_converged(self, omega):
        # Without the box start 10 of fit seed 1 walked to a doublet of width
        # about 28 and offset about 10.8 on the +-5 grid and ran to the cap.
        omegas = default_grid(0.05, 1.5, 0.01)
        omega = float(omegas[np.argmin(np.abs(omegas - omega))])  # the sweep's own value
        data = absorption_profile(TlaParams(omega=omega), default_grid())
        x0 = initial_guesses(ModelKind.ATS, data, 16, 1)[10:11]
        cfg = FitConfig(max_iterations=300)
        theta, _, _, iterations, stop = _lm_run_batch(ModelKind.ATS, x0, data.deltas, data.values[None], cfg)
        low, high = box(data.deltas)
        assert np.all((low <= theta) & (theta <= high)), theta
        assert STOP_REASONS[stop[0]] in CONVERGED and iterations[0] < cfg.max_iterations

    def test_no_circuit_ats_start_is_lost_on_a_face(self):
        # Start 13 reaches the corner (g, u) = (-2 R, 0) after 2 iterations.
        # Its next trial, projected back onto the corner, dropped the SSR by
        # nothing, and a test of that actual drop stopped it there at SSR 5.5.
        model, data, x0, cfg = frozen_problem("circuit_ats")
        theta, _, ssr, _, _ = _lm_run_batch(model, x0, data.deltas, data.values[None], cfg)
        low, high = box(data.deltas)
        assert np.all((low < theta) & (theta < high)), theta
        assert np.all(ssr <= ssr.min() * (1.0 + fitter._AGREEMENT_RTOL)), ssr


# The EIT fit on the circuit curve and its noisy fixture walks the flat
# valley to equal widths, the bound u = 0, from every start.
VALLEY_DATA = {
    "circuit": lambda: transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID)),
    "fixture": lambda: ingest_spectrum(Path(__file__).parent / "data" / "circuit_noisy.csv"),
}


class TestDampingSchedule:
    def test_a_row_s_next_damping_follows_the_gain_ratio_of_the_level_it_took(self, monkeypatch):
        """From one pass to the next a row's lower level moves to 10, 1 or
        1/10 times the level it took, as that level's gain ratio (the SSR
        drop achieved over the drop J^T J predicts) is below 1/4, up to 3/4
        or above, unless a bound on the damping clamps it; after rejecting
        both levels it moves to 100 times its lower level.  The capped
        problem's winning start makes all four moves."""
        model, data, x0, cfg = frozen_problem("capped_eit")
        odd = fitter._fold(data.deltas, data.values[None])[2][0]
        systems, ssr = [], []

        def recorded_step(jtj, diag, grad, lam):
            step = _damped_step(jtj, diag, grad, lam)
            systems.append((diag[0].copy(), grad[0].copy(), lam[:, 0].copy(), step[:, 0].copy()))  # the one row's
            return step

        def recorded_profile(*args, **kwargs):
            out = _profile(*args, **kwargs)
            ssr.append(out[1] + odd)  # the admitted start's SSR, then its two trials'
            return out

        monkeypatch.setattr(fitter, "_damped_step", recorded_step)
        monkeypatch.setattr(fitter, "_profile", recorded_profile)
        _lm_run_batch(model, x0[11:12], data.deltas, data.values[None], cfg)
        current, factors = ssr[0][0], set()
        for (diag, grad, lam, step), trial, following in zip(systems, ssr[1:], systems[1:]):
            assert lam[1] == 10.0 * lam[0]
            taken = trial <= current
            if taken.any():
                level = int(taken.argmax())
                h = step[level]
                gain = (current - trial[level]) / (h @ grad + lam[level] * h @ (diag * h))
                factor = 10.0 if gain < 0.25 else 0.1 if gain > 0.75 else 1.0
                want = np.clip(factor * lam[level], fitter._DAMPING_MIN, fitter._DAMPING_MAX)
                current = trial[level]
            else:
                factor, want = 100.0, 100.0 * lam[0]
            factors.add(factor)
            assert following[2][0] == pytest.approx(want, rel=1e-12, abs=0.0)
        assert factors == {10.0, 1.0, 0.1, 100.0}

    @pytest.mark.parametrize("name", VALLEY_DATA)
    def test_every_valley_start_ends_on_the_diagonal_by_tolerance_within_20_iterations(self, name):
        # With the plain x10 schedule these starts ran up to 84 iterations,
        # and with the sqrt(10) rule up to 35 while the walk along the
        # valley had no end but the tolerance stop.
        data = VALLEY_DATA[name]()
        x0 = np.concatenate([initial_guesses(ModelKind.EIT, data, 16, seed) for seed in range(6)])
        state = _lm_run_batch(ModelKind.EIT, x0, data.deltas, data.values[None], FitConfig())
        _, _, _, iterations, stop, limit = raw_rows(ModelKind.EIT, state)
        assert np.all(stop == STOP_REASONS.index("tolerance"))
        assert np.isfinite(limit).all()
        assert iterations.max() <= 20, iterations.max()


class TestStopReasons:
    @pytest.mark.parametrize("reason", STOP_REASONS)
    def test_the_winner_reports_why_it_stopped(self, reason):
        cfg = FitConfig()
        guesses, profile = initial_guesses, _profile
        if reason == "tolerance":
            model, data = ModelKind.EIT, transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
        elif reason == "gradient":  # an exact fit: the gradient vanishes first
            model, data = ModelKind.ATS, ats_spectrum()
        elif reason == "damping":  # the only start is one made to climb to the ceiling
            model, data, x0, cfg = frozen_problem("damping_eit")
            cfg = FitConfig(max_iterations=cfg.max_iterations, n_starts=1)
            profile = climbing_profile()[0]

            def guesses(*args):
                return x0[CLIMBER : CLIMBER + 1]

        elif reason == "cap":
            model, data, _, cfg = frozen_problem("capped_eit")
        else:  # narrow lines scaled by 1e152: the normal equations overflow, the SSR stays finite
            model, cfg = ModelKind.ATS, FitConfig(n_starts=4)
            data = ats_spectrum(AtsParams(1.0, 0.1, 1.0))
            data = Spectrum(deltas=data.deltas, values=1e152 * data.values)
        with mock.patch.object(fitter, "initial_guesses", guesses), mock.patch.object(fitter, "_profile", profile):
            res = fit(model, data, cfg)
        assert res.stop == reason
        assert res.converged == (reason not in ("cap", "non-finite"))
        assert np.isfinite(res.ssr)
        assert (res.iterations == cfg.max_iterations) == (reason == "cap")

    def test_the_cap_stops_a_row_before_the_gradient_test(self):
        """Row 0 of an exact doublet fit is flat after its 4th trial.  At a cap
        of 4 the cap, tested first, stops it at that same point."""
        data = ats_spectrum(AtsParams(1.0, 0.5, 1.5))
        x0 = initial_guesses(ModelKind.ATS, data, 8, 0)
        free, capped = (
            _lm_run_batch(ModelKind.ATS, x0, data.deltas, data.values[None], FitConfig(max_iterations=cap))
            for cap in (1000, 4)
        )
        assert (STOP_REASONS[free[4][0]], free[3][0]) == ("gradient", 4)
        assert (STOP_REASONS[capped[4][0]], capped[3][0]) == ("cap", 4)
        for got, want in zip(capped[:3], free[:3]):  # theta, alpha and SSR
            assert got[0].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("name, confirmed", [("circuit_ats", set()), ("circuit_eit", set())])
    def test_a_predicted_tolerance_stop_makes_no_confirming_trial(self, name, confirmed):
        """Every start of these fits stops by the tolerance.  All but the
        ``confirmed`` ones stop before a trial, as their next step predicts
        no SSR drop beyond it.  At a cap of a start's iterations n such a
        start stops by the cap, decided after its n-th trial, at the same
        point; a start whose n-th trial's drop stopped it still reports the
        tolerance."""
        model, data, x0, cfg = frozen_problem(name)
        free = _lm_run_batch(model, x0, data.deltas, data.values[None], cfg)
        assert np.all(free[4] == STOP_REASONS.index("tolerance"))
        stops = set()
        for row in range(x0.shape[0]):
            capped = FitConfig(max_iterations=int(free[3][row]))
            alone = _lm_run_batch(model, x0[row : row + 1], data.deltas, data.values[None], capped)
            for got, want in zip(alone[:4], free[:4]):  # theta, alpha, SSR and iterations
                assert got[0].tobytes() == want[row].tobytes()
            stops.add((row, STOP_REASONS[alone[4][0]]))
        assert stops == {(row, "tolerance" if row in confirmed else "cap") for row in range(x0.shape[0])}


def damped_systems(rng, s, scale=1.0, parallel=1.0):
    """``s`` damped systems as the solver forms them: ``J^T J`` of a 3x2 ``J``
    whose second column leaves the first's direction by ``parallel``, all
    times ``scale``, its diagonal floored as in :func:`_lm_run_batch`, and
    right-hand sides at the same scale."""
    j = rng.normal(size=(s, 3, 2))
    j[:, :, 1] = j[:, :, 0] + parallel * j[:, :, 1]
    jtj = scale * (j.transpose(0, 2, 1) @ j)
    diag = np.diagonal(jtj, axis1=1, axis2=2).copy()
    diag = np.maximum(diag, 1e-12 * diag.max(axis=1, keepdims=True))
    return jtj, diag, scale * rng.normal(size=(s, 2))


class TestDampedStep:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-150.0, 150.0),
        log_parallel=st.floats(-8.0, 0.0),
        log_lam=st.floats(-15.0, 15.0),
    )
    def test_each_step_solves_its_system_to_rounding(self, seed, log_scale, log_parallel, log_lam):
        # Backward error: each step is the exact solution of a system within
        # a few ulps of its own, at any scale and conditioning.
        jtj, diag, grad = damped_systems(np.random.default_rng(seed), 8, 10.0**log_scale, 10.0**log_parallel)
        lam = 10.0**log_lam * np.array([[1.0], [10.0]]) * np.ones(8)
        steps = _damped_step(jtj, diag, grad, lam)
        systems = jtj + lam[:, :, None, None] * (diag[:, :, None] * np.eye(2))
        residual = np.abs((systems @ steps[..., None])[..., 0] - grad)
        bound = (np.abs(systems) @ np.abs(steps)[..., None])[..., 0] + np.abs(grad)
        assert np.all(residual <= 1e-13 * bound)

    def test_both_levels_in_one_call_equal_one_level_per_call(self):
        jtj, diag, grad = damped_systems(np.random.default_rng(3), 16, parallel=1e-4)
        lam = 10.0 ** np.random.default_rng(4).uniform(-15.0, 15.0, size=16)
        both = _damped_step(jtj, diag, grad, np.stack((lam, 10.0 * lam)))
        assert np.array_equal(both[0], _damped_step(jtj, diag, grad, lam[None])[0])
        assert np.array_equal(both[1], _damped_step(jtj, diag, grad, 10.0 * lam[None])[0])

    @pytest.mark.parametrize(
        "system",
        [
            [[1.0, 2.0], [2.0, 4.0]],  # rank 1: the second pivot is zero
            [[1e-300, 2e-300], [2e-300, 4e-300]],  # so is it here, where trace**2 underflows
            [[0.0, 0.0], [0.0, 3.0]],  # the first pivot is zero
            [[0.0, 0.0], [0.0, 0.0]],  # no step
        ],
    )
    def test_a_singular_system_takes_its_least_squares_step_alone(self, system):
        # The closed-form minimum-norm step, against LAPACK's lstsq (the solver calls none).
        jtj, diag, grad = damped_systems(np.random.default_rng(5), 6)
        jtj[4] = system  # undamped below
        diag[4] = 0.0
        lam = np.full((2, 6), 1e-3)
        lam[1] *= 10.0
        steps = _damped_step(jtj, diag, grad, lam)
        others = np.arange(6) != 4
        assert np.array_equal(steps[:, others], _damped_step(jtj[others], diag[others], grad[others], lam[:, others]))
        want = np.linalg.lstsq(jtj[4], grad[4], rcond=None)[0]
        assert np.all(np.abs(steps[:, 4] - want) <= 4.0 * np.spacing(np.abs(want)))


# Profiled EIT SSR on the circuit curve at widths (6.357, 6.357 - delta),
# computed from the same data in 60-digit arithmetic (mpmath).
COLLINEAR_SSR = {
    1e-2: 0.07734809304360012,
    1e-4: 0.07734592502683174,
    1e-6: 0.07734592338872565,
    1e-8: 0.07734592337434561,
    1e-10: 0.07734592337420201,
    1e-12: 0.07734592337420057,
}


def mean_and_gap(widths):
    """Rows of EIT nonlinear parameters (g, u) for rows of widths (w1, w2)."""
    widths = np.asarray(widths, dtype=float)
    return np.column_stack((widths.mean(axis=1), np.square((widths[:, 0] - widths[:, 1]) / 2.0)))


class TestProfile:
    def test_profiled_ssr_keeps_full_precision_as_the_widths_merge(self):
        # The flat valley's limit: the amplitudes grow like 1/delta while
        # the residual must stay as accurate as for well-separated widths.
        # Profiled as the solver profiles it: on the folded grid, with the
        # data's odd part added back.
        data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
        grid, values, odd = fitter._fold(data.deltas, data.values[None])
        assert grid.deltas.size == 121
        for delta, want in COLLINEAR_SSR.items():
            theta = mean_and_gap([[6.357, 6.357 - delta]])
            alpha, ssr, *_ = _profile(ModelKind.EIT, theta, grid, values)
            assert ssr[0] + odd[0] == pytest.approx(want, rel=1e-13)
            assert np.all(_join(ModelKind.EIT, theta, alpha)[:, :2] > 0.0)  # both lobes in use

    def test_a_row_that_keeps_one_lobe_is_profiled_in_that_lorentzian_alone(self):
        # Against an inverted profile no signed pair beats a single negative
        # lobe: the row keeps the better of its two Lorentzians with its own
        # sign, the other's coefficient exactly 0, whatever the second basis
        # column held before.  For widths (3, 0.5) and (1.5, 0.8) that is the
        # narrow one; for (2, 0.4) the broad one.  The data's own width, 1,
        # lies between each pair's: at that width the best pair would be a
        # single lobe only up to rounding.
        grid = default_grid()
        y = -absorption_profile(TlaParams(omega=0.0), grid).values
        widths = np.array([[3.0, 0.5], [2.0, 0.4], [1.5, 0.8]])
        theta = mean_and_gap(widths)
        alpha, ssr, *_ = _profile(ModelKind.EIT, theta, _grid(grid), np.repeat(y[None], 3, axis=0))
        assert np.all(np.prod(_lobes(theta, alpha), axis=0) == 0.0)
        signed_pair = _join(ModelKind.EIT, theta, alpha)
        for row, pair in enumerate(widths):
            fits = []
            for width in pair:
                lorentzian = 1.0 / (width**2 + grid**2)
                c = -np.dot(lorentzian, y) / np.dot(lorentzian, lorentzian)
                fits.append((np.sum(np.square(y + c * lorentzian)), c, width))
            best_ssr, c, width = min(fits)
            assert ssr[row] == pytest.approx(best_ssr, rel=1e-12, abs=1e-28)
            c_plus, c_minus, _, g_minus = signed_pair[row]
            assert c_plus == 0.0 and c_minus**2 == pytest.approx(c, rel=1e-12)
            assert g_minus == pytest.approx(width, rel=1e-15)
        assert signed_pair[0, 3] == 0.5 and signed_pair[1, 3] == 2.0


class TestLimitForm:
    @settings(max_examples=40, deadline=None)
    @given(
        g=st.floats(0.3, 3.0),
        height=st.floats(0.5, 2.0),
        square=st.floats(0.2, 1.0).flatmap(lambda r: st.sampled_from([r, -r])),
        start=st.floats(0.95, 1.05),
    )
    # Starts where the bound secant, ungated, made J^T J indefinite: the step
    # predicted a negative drop, and the row stopped by the tolerance after
    # one iteration, its limit form 2e-3 and 6.4e-5 off.
    @example(g=1.0, height=1.0, square=-0.53125, start=1.03125)
    @example(g=2.0, height=1.0, square=-0.400390625, start=1.0053855626977344)
    def test_exact_limit_data_return_their_limit_form(self, g, height, square, start):
        # Data a L(g) + b L(g)**2, either sign of b, fitted from a start on
        # the bound u = 0 within 5% of g (farther out, where |b| is small,
        # lies a second minimum of the closure with b of the other sign).
        # The fit stops on the gradient or tolerance test, which leaves the
        # parameters within about 1e-9 of exact; a row that left the bound
        # and stops by the gradient just off it ends on it by its last trial.
        a, b = height * g**2, square * height * g**4
        grid = default_grid()
        lorentzian = 1.0 / (g * g + grid * grid)
        values = a * lorentzian + b * lorentzian**2
        x0 = np.array([[start * g, 0.0]])
        state = _lm_run_batch(ModelKind.EIT, x0, grid, values[None], FitConfig())
        x, ssr, converged, _, _, limit = raw_rows(ModelKind.EIT, state)
        assert converged[0]
        assert limit[0] == pytest.approx([a, b, g], rel=1e-7)
        assert ssr[0] <= 1e-12 * np.sum(values * values)
        # The signed pair that stands for it draws the same curve.
        pair = evaluate(ModelKind.EIT, np.abs(x[0]), grid)
        assert np.max(np.abs(pair - values)) <= 1e-5 * np.max(np.abs(values))

    @pytest.mark.parametrize(
        ("g", "square"), [(0.5, 0.5), (0.5, -0.5), (1.0, 0.5), (1.0, -0.5), (2.0, 0.5), (2.0, -0.5)]
    )
    def test_exact_limit_data_fitted_from_the_seeded_starts_return_their_limit_form(self, g, square):
        a, b = g**2, square * g**4
        grid = default_grid()
        lorentzian = 1.0 / (g * g + grid * grid)
        res = fit(ModelKind.EIT, Spectrum(deltas=grid, values=a * lorentzian + b * lorentzian**2))
        assert res.limit is not None
        assert list(res.limit) == pytest.approx([a, b, g], rel=1e-7)

    def test_the_circuit_limit_form_does_not_depend_on_the_fit_seed(self):
        # Before the closure each seed stopped at another point of the flat
        # valley: c_plus was 5924.85, 6411.05 and 6244.08 at seeds 0-2.
        data = VALLEY_DATA["circuit"]()
        results = [fit(ModelKind.EIT, data, FitConfig(seed=seed)) for seed in range(6)]
        first = results[0]
        assert first.limit is not None and first.limit.b < 0.0  # g_minus narrower: the published ordering
        assert first.ssr == pytest.approx(0.0773459206068606, rel=1e-13)
        for res in results[1:]:
            assert res.ssr == pytest.approx(first.ssr, rel=1e-13)
            for field in ("a", "b", "g"):
                assert getattr(res.limit, field) == pytest.approx(getattr(first.limit, field), rel=1e-8)
            assert as_array(res.params) == pytest.approx(as_array(first.params), rel=1e-8)

    def test_a_start_reaches_a_broad_negative_lobe_with_the_other_ordering_of_the_widths(self):
        # Criterion-5 replicate 98 (omega = 0): the best fit has a broad
        # negative lobe (g_minus 7.01).  Clipping onto the bound every step
        # that passes the merged widths traps the start at 0.2883550735.
        res = fit(ModelKind.EIT, noisy_replicate(0.0, 42, 98), FitConfig(seed=0))
        assert res.ssr <= 0.2869761762 * (1.0 + 1e-9)
        assert res.limit is None
        assert res.params.g_minus == pytest.approx(7.01, rel=1e-3) and res.params.g_minus > res.params.g_plus

    def test_a_row_on_the_bound_leaves_it_for_a_nearby_minimum_with_separated_widths(self):
        # Criterion-5 replicate 82 (omega = 0): a row that reached merged
        # widths and could move only along them ended at 0.1861835952, at
        # g = 1.137; the minimum with widths 1.03 and 3.78 is lower.
        res = fit(ModelKind.EIT, noisy_replicate(0.0, 42, 82), FitConfig(seed=0))
        assert res.ssr <= 0.1859838974 * (1.0 + 1e-9)
        assert res.limit is None
        assert sorted((res.params.g_plus, res.params.g_minus)) == pytest.approx([1.034, 3.777], rel=1e-3)


# Both models are even in the detuning, so on a mirror-symmetric grid an
# odd addition is orthogonal to every model: it leaves an exact fit's
# parameters where they are and raises its SSR by its squared norm.  The
# additions stay comparable to the data: one far larger raises the full
# SSR so much that the relative tolerance stop ends the descent early.
EVEN_TRUTHS = {ModelKind.EIT: EitParams(1.2, 0.8, 1.5, 0.3), ModelKind.ATS: AtsParams(0.5, 1.0, 2.0)}
LOBES = {ModelKind.EIT: (("c_plus", "g_plus"), ("c_minus", "g_minus")), ModelKind.ATS: (("c", "g"),)}


class TestFoldedGrid:
    @settings(max_examples=15, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        amplitude=st.floats(0.01, 0.3).flatmap(lambda a: st.sampled_from([a, -a])),
        scale=st.floats(0.5, 3.0),
    )
    def test_an_odd_addition_raises_the_best_ssr_by_its_squared_norm(self, model, amplitude, scale):
        grid = default_grid()
        odd = amplitude * grid * np.exp(-np.square(grid / scale))
        assert np.array_equal(odd, -odd[::-1])
        even = evaluate(model, EVEN_TRUTHS[model], grid)
        base = fit(model, Spectrum(deltas=grid, values=even))
        moved = fit(model, Spectrum(deltas=grid, values=even + odd))
        assert moved.ssr == pytest.approx(base.ssr + np.sum(odd * odd), rel=1e-12)
        for _, width in LOBES[model]:
            assert getattr(moved.params, width) == pytest.approx(getattr(base.params, width), rel=1e-9)

    @pytest.mark.parametrize("name", FROZEN_PROBLEMS)
    def test_the_reported_ssr_is_the_full_grid_ssr_of_the_reported_parameters(self, name):
        model, data, _, cfg = frozen_problem(name)
        res = fit(model, data, cfg)
        fitted = evaluate(model, res.params, data.deltas)
        # evaluate adds the lobes c**2 L one by one, so on the EIT valley,
        # where lobes of height ~3e5 cancel to data of order 1, each value
        # is off by a few ulps of the highest lobe (a doublet's peak is at
        # most twice c**2 / g**2), and the SSR by at most twice the
        # residual's norm times that.
        lobe = max((getattr(res.params, c) / getattr(res.params, g)) ** 2 for c, g in LOBES[model])
        ulps = 2.0 * np.sqrt(res.ssr * data.n_points) * 8.0 * np.finfo(float).eps * lobe
        assert np.sum(np.square(data.values - fitted)) == pytest.approx(res.ssr, rel=1e-13, abs=ulps)


# Data a profiled row may be drawn against, on the default grid: EIT-like
# and ATS-like profiles, a noisy replicate, and an inverted profile whose
# amplitudes all clip to zero.
PROFILE_DATA = np.stack(
    [absorption_profile(TlaParams(omega=w), default_grid()).values for w in (0.2, 0.9, 2.0)]
    + [noisy_replicate(0.6, 3, 1).values, -absorption_profile(TlaParams(omega=0.5), default_grid()).values]
)
WIDTH = st.floats(0.01, 100.0)
PROFILE_THETA = {
    ModelKind.EIT: st.one_of(
        st.tuples(WIDTH, st.floats(0.0, 1e4)),  # any (g, u), g < sqrt(u) included
        WIDTH.map(lambda g: (g, 0.0)),  # merged widths: the closure a L + b L**2
        # both widths far wider than the grid: one column
        st.floats(1e6, 1e8).flatmap(lambda g: st.tuples(st.just(g), st.floats(0.0, g * g / 4.0))),
    ),
    ModelKind.ATS: st.one_of(st.tuples(WIDTH, st.floats(0.0, 100.0)), WIDTH.map(lambda g: (g, 0.0))),  # u = 0
}


def profile_stack(model):
    """Rows of (theta, index into PROFILE_DATA)."""
    return st.lists(st.tuples(PROFILE_THETA[model], st.integers(0, len(PROFILE_DATA) - 1)), min_size=1, max_size=40)


def profiled_rows(model, rows, empty=np.empty):
    """Each row's profile outputs as bytes, profiling the rows as one stack."""
    theta = np.array([t for t, _ in rows], dtype=float)
    y = empty((len(rows), PROFILE_DATA.shape[1]))
    y[:] = PROFILE_DATA[[k for _, k in rows]]
    with np.errstate(all="ignore"):  # a one-column row divides zero by zero in the unused direction
        outputs = _profile(model, theta, _grid(default_grid()), y, empty)
    return [tuple(out[i].tobytes() for out in outputs) for i in range(len(rows))]


def workspace_tops(run):
    """Call ``run()`` with each ``_Workspace`` recording its top after every block it hands out."""
    tops = []

    class Spy(fitter._Workspace):
        def empty(self, shape):
            block = super().empty(shape)
            tops.append(self._top)
            return block

    with mock.patch.object(fitter, "_Workspace", Spy):
        run()
    return tops


class TestWorkspace:
    @settings(max_examples=60, deadline=None)
    @given(model=st.sampled_from(list(ModelKind)), data=st.data())
    def test_profile_rows_do_not_depend_on_the_stack_or_the_workspace_history(self, model, data):
        rows = data.draw(profile_stack(model))
        order = data.draw(st.permutations(range(len(rows))))
        others = data.draw(profile_stack(model)) + rows[::-1]
        alone = [profiled_rows(model, [row])[0] for row in rows]
        shuffled = profiled_rows(model, [rows[i] for i in order])
        assert shuffled == [alone[i] for i in order]
        # A larger call with other data dirties every block of the workspace first.
        ws = fitter._Workspace(fitter._WORKSPACE_PER_ROW[model] * len(others) * PROFILE_DATA.shape[1])
        theta = np.array([t for t, _ in others], dtype=float)
        with np.errstate(all="ignore"):
            y = PROFILE_DATA[[k for _, k in others]]
            alpha, _, resid, cols, one_lobe = _profile(model, theta, _grid(default_grid()), y, ws.empty)
            fitter._normal_equations(model, theta, _grid(default_grid()), alpha, resid, cols, one_lobe, ws.empty)
        ws.rewind()
        assert profiled_rows(model, [rows[i] for i in order], ws.empty) == [alone[i] for i in order]

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_a_batch_repeats_exactly_after_another_batch(self, model):
        a = absorption_profile(TlaParams(omega=0.9), default_grid())
        b = noisy_replicate(0.3, 5, 2)
        x0_a = initial_guesses(model, a, 4, 0)
        x0_b = initial_guesses(model, b, 12, 1)
        cfg = FitConfig(max_iterations=40)
        first = _lm_run_batch(model, x0_a, a.deltas, a.values[None], cfg)
        _lm_run_batch(model, x0_b, b.deltas, b.values[None], cfg)
        again = _lm_run_batch(model, x0_a, a.deltas, a.values[None], cfg)
        for x, y in zip(first, again):
            assert x.tobytes() == y.tobytes()

    @pytest.mark.parametrize("name", ["circuit_eit", "offset_bound_ats"])
    def test_the_workspace_is_sized_for_the_first_pass(self, name):
        # Too small, and a pass runs out of it; too large, and every batch
        # holds memory it never touches.  The solver works on the folded
        # grid: a mirror-symmetric grid of n points (n odd, the centre
        # included) has (n + 1) / 2 distinct values of |delta|.  In both
        # problems, on some pass of the first 20 iterations every start takes a trial.
        model, data, x0, _ = frozen_problem(name)
        cfg = FitConfig(max_iterations=20)
        tops = workspace_tops(lambda: _lm_run_batch(model, x0, data.deltas, data.values[None], cfg))
        assert max(tops) == fitter._WORKSPACE_PER_ROW[model] * x0.shape[0] * (data.n_points + 1) // 2

    @pytest.mark.parametrize("model", list(ModelKind))
    def test_the_pool_bounds_the_workspace_for_any_number_of_starts(self, model):
        # 12 starts of one spectrum share a pool of 8 rows: the workspace
        # never holds more than 8 rows' worth, whatever the start count.
        data = noisy_replicate(0.3, 5, 2)
        cfg = FitConfig(max_iterations=20, n_starts=12)
        with mock.patch.object(fitter, "_MAX_BATCH_ROWS", 8):
            tops = workspace_tops(lambda: fit_many(model, [data], cfg))
        assert max(tops) <= fitter._WORKSPACE_PER_ROW[model] * 8 * data.n_points


def reference_normal_equations(model, theta, grid, y, alpha, alone):
    """``J^T r`` and ``J^T J`` row by row, with an explicit projector ``I - Q Q^T``.

    ``Q`` comes from ``np.linalg.qr`` of the columns a row uses: both
    EIT columns, or the one Lorentzian of a row fitted by it alone (whose
    derivative is formed here), or the ATS column where its amplitude is
    positive, else none; ``r`` is ``y`` projected by the same projector.
    """
    cols = _columns(model, theta, grid)
    jac = _derivatives(model, theta, grid, cols[:, -2:].copy(), alpha)
    grad, jtj = np.empty((len(theta), 2)), np.empty((len(theta), 2, 2))
    for i, (g, u) in enumerate(theta):
        if model is ModelKind.ATS:
            basis = cols[i, :1] if alpha[i, 0] > 0.0 else cols[i, :0]
        elif alone[i]:
            w = g + alone[i] * np.sqrt(u)
            lobe = grid.weight / (w * w + grid.d2)
            basis = lobe[None]
            d_g = 2.0 * alpha[i, 0] * -2.0 * w * lobe * lobe / grid.weight  # p dL/dw, p = 2 alpha[0]
            jac[i] = d_g, d_g * alone[i] / (2.0 * np.sqrt(u))
        else:
            basis = cols[i, :2]
        q = np.linalg.qr(basis.T)[0]
        projector = np.eye(grid.deltas.size) - q @ q.T
        j = jac[i] @ projector
        grad[i], jtj[i] = j @ (projector @ y[i]), j @ j.T
    return grad, jtj


class TestNormalEquations:
    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_the_normal_equations_match_an_explicit_projection(self, model, seed):
        # Random (g, u), one row in four at u = 0, on the folded profile data
        # (weights sqrt(2) but at the centre); errors relative to |J| |y| and |J|**2.
        rng, s = np.random.default_rng(seed), 400
        grid, folded, _ = fitter._fold(default_grid(), PROFILE_DATA)
        theta = np.exp(rng.uniform(np.log([0.1, 1e-4]), np.log([5.0, 25.0]), (s, 2)))
        theta[::4, 1] = 0.0
        y = folded[rng.integers(0, len(folded), s)]
        with np.errstate(all="ignore"):  # a one-column row divides zero by zero in the unused direction
            alpha, _, resid, cols, alone = _profile(model, theta, grid, y)
            grad, jtj = fitter._normal_equations(model, theta, grid, alpha, resid, cols, alone, np.empty)
        if model is ModelKind.EIT:
            assert np.count_nonzero(alone) >= 10  # rows fitted by one Lorentzian
        else:
            assert 0 < np.count_nonzero(alpha[:, 0] > 0.0) < s  # rows with and without their column
        want_grad, want_jtj = reference_normal_equations(model, theta, grid, y, alpha, alone)
        size = np.sqrt(want_jtj[:, 0, 0] + want_jtj[:, 1, 1])  # |J| per row
        assert np.all(np.abs(grad - want_grad) <= 1e-10 * (size * np.linalg.norm(y, axis=1))[:, None])
        assert np.all(np.abs(jtj - want_jtj) <= 1e-10 * (size * size)[:, None, None])
        assert np.array_equal(jtj, jtj.transpose(0, 2, 1))  # exactly symmetric


# Few starts and a short cap keep the property test fast; some starts
# still stop at the cap, where rounding differences would show.
BATCH_CFG = FitConfig(max_iterations=60, n_starts=3, seed=2)
FLAT = 7  # index of the all-equal spectrum in the pool


@pytest.fixture(scope="module")
def pool():
    """Noiseless profiles across the crossover, noisy replicates, one
    profile on a 1000x larger scale (its rows get a larger gradient
    tolerance), and one flat spectrum."""
    grid = default_grid()
    spectra = [absorption_profile(TlaParams(omega=w), grid) for w in (0.2, 0.6, 0.9, 1.3)]
    noise = NoiseSpec(sigma=0.1, seed=4, n_replicates=2)
    spectra += [add_noise(spectra[1], noise, r) for r in range(2)]
    spectra.append(absorption_profile(TlaParams(alpha=1000.0, omega=2.0), grid))
    spectra.append(Spectrum(deltas=grid, values=np.full(grid.size, 0.4)))
    assert len(spectra) == FLAT + 1
    return spectra


@pytest.fixture(scope="module")
def alone(pool):
    """Each spectrum fitted on its own with fit(); the reference outcomes."""
    out = {}
    for model in ModelKind:
        out[model] = []
        for data in pool:
            try:
                out[model].append(fit(model, data, BATCH_CFG))
            except DegenerateDataError as exc:
                out[model].append(exc)
    return out


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want  # bit-identical dataclasses


class TestBatchInvariance:
    @settings(max_examples=50, deadline=None)
    @given(
        model=st.sampled_from(list(ModelKind)),
        order=st.permutations(range(FLAT + 1)),
        size=st.integers(1, FLAT + 1),
        cap=st.sampled_from([1, BATCH_CFG.n_starts, 2 * BATCH_CFG.n_starts + 1, 512]),
    )
    def test_any_subset_in_any_order_matches_fit_alone(self, pool, alone, model, order, size, cap):
        chosen = order[:size]
        with mock.patch.object(fitter, "_MAX_BATCH_ROWS", cap):
            results = fit_many(model, [pool[i] for i in chosen], BATCH_CFG)
        assert len(results) == size
        for i, got in zip(chosen, results):
            assert_same_outcome(got, alone[model][i])

    def test_pool_larger_than_one_batch(self, pool, alone):
        with mock.patch.object(fitter, "_MAX_BATCH_ROWS", 2 * BATCH_CFG.n_starts):
            results = fit_many(ModelKind.EIT, pool, BATCH_CFG)
        assert isinstance(results[FLAT], DegenerateDataError)
        for got, want in zip(results, alone[ModelKind.EIT]):
            assert_same_outcome(got, want)

    def test_spectra_on_different_grids_rejected(self, pool):
        other = absorption_profile(TlaParams(omega=0.6), default_grid(-4.0, 4.0, 0.05))
        with pytest.raises(ValueError, match="one detuning grid"):
            fit_many(ModelKind.ATS, [pool[0], other], BATCH_CFG)

    def test_one_dimensional_values_broadcast_to_every_row(self, pool):
        data = pool[2]
        x0 = initial_guesses(ModelKind.ATS, data, 4, 0)
        shared = _lm_run_batch(ModelKind.ATS, x0, data.deltas, data.values[None], BATCH_CFG)
        per_row = _lm_run_batch(ModelKind.ATS, x0, data.deltas, np.tile(data.values, (4, 1)), BATCH_CFG)
        for a, b in zip(shared, per_row):
            assert np.array_equal(a, b)


class TestInitialGuesses:
    def test_single_guess_is_deterministic(self):
        data = ats_spectrum()
        one = initial_guesses(ModelKind.ATS, data, 1, 99)
        again = initial_guesses(ModelKind.ATS, data, 1, 123)
        assert len(one) == 1
        assert np.array_equal(one[0], again[0])  # first guess ignores the seed

    def test_doublet_offset_guess_near_peak(self):
        data = ats_spectrum(AtsParams(0.5, 1.0, 3.0))
        first = initial_guesses(ModelKind.ATS, data, 1, 0)[0]
        assert abs(np.sqrt(first[1]) - 3.0) <= 1.0  # u = d0**2

    def test_single_peak_guess_offset_near_argmax(self):
        data = ats_spectrum(AtsParams(0.5, 1.0, 0.0))
        first = initial_guesses(ModelKind.ATS, data, 1, 0)[0]
        assert abs(np.sqrt(first[1])) <= 0.5

    def test_perturbations_are_seeded(self):
        data = ats_spectrum()
        a = initial_guesses(ModelKind.ATS, data, 6, 42)
        b = initial_guesses(ModelKind.ATS, data, 6, 42)
        c = initial_guesses(ModelKind.ATS, data, 6, 43)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    @pytest.mark.parametrize("model", list(ModelKind))
    @pytest.mark.parametrize("n", [1, 2, 16, 40])
    def test_perturbations_drawn_at_once_equal_one_draw_per_start(self, model, n):
        # The draws of all starts in one call are the stream of one call per
        # start, as the starts were first drawn; the first start is not drawn.
        for data in (ats_spectrum(), absorption_profile(TlaParams(omega=0.4), default_grid())):
            for seed in range(5):
                theta = initial_guesses(model, data, n, seed)
                rng, log4 = np.random.default_rng(seed), np.log(4.0)
                first_guess = fitter._first_guess_ats if model is ModelKind.ATS else fitter._first_guess_eit
                seed_base = np.array(first_guess(data.deltas, data.values))
                if model is ModelKind.ATS and seed_base[1] == 0.0:
                    seed_base[1] = seed_base[0]
                for i in range(1, n):
                    # Exponentiated by libm, as the code does: numpy's SIMD exp may round otherwise.
                    w = seed_base * np.array([math.exp(v) for v in rng.uniform(-log4, log4, size=model.k)])[-2:]
                    if model is ModelKind.ATS:
                        want = [w[0], w[1] * w[1]]
                    else:
                        half = (w[1] - w[0]) / 2.0  # squared as the code squares it: a scalar ** 2 may round otherwise
                        want = [(w[0] + w[1]) / 2.0, half * half]
                    assert theta[i].tolist() == want

    def test_perturbation_factors_bounded(self):
        data = ats_spectrum()
        theta = initial_guesses(ModelKind.ATS, data, 64, 7)
        guesses = np.column_stack((theta[:, 0], np.sqrt(theta[:, 1])))  # the width and offset
        base = guesses[0]
        for g in guesses[1:]:
            ratio = g / base
            assert np.all(ratio >= 0.25 - 1e-12)
            assert np.all(ratio <= 4.0 + 1e-12)


class TestErrors:
    def test_too_few_points(self):
        grid = np.linspace(-1, 1, 4)
        data = Spectrum(deltas=grid, values=eval_ats(AtsParams(1.0, 1.0, 0.5), grid))
        with pytest.raises(ValueError, match="more than"):
            fit(ModelKind.EIT, data)

    def test_degenerate_data(self):
        data = Spectrum(deltas=np.linspace(-1, 1, 21), values=np.full(21, 0.7))
        with pytest.raises(DegenerateDataError):
            fit(ModelKind.ATS, data)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FitConfig(n_starts=0)
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize("field", ["max_iterations", "n_starts"])
    @pytest.mark.parametrize(
        "value", [2.5, 3.0, np.float64(3.0), "5", None, True], ids=["half", "whole", "numpy", "text", "none", "bool"]
    )
    def test_a_non_integer_count_is_rejected_when_built_by_name(self, field, value):
        # Before, max_iterations=2.5 never met the cap and "5" failed at the
        # first comparison; n_starts=2.5 failed only at fit time, in numpy.
        # A bool is a numbers.Integral, and True used to pass for 1.
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got {re.escape(repr(value))}$"):
            FitConfig(**{field: value})

    def test_numpy_integer_counts_are_accepted(self):
        cfg = FitConfig(max_iterations=np.int64(5), n_starts=np.int32(2))
        assert fit(ModelKind.ATS, ats_spectrum(), cfg).iterations <= 5

    def test_fractional_fit_seed_is_rejected_when_built(self):
        message = r"^seed must be a nonnegative integer below 18446744073709551616, got 1.5$"
        with pytest.raises(ValueError, match=message):
            FitConfig(seed=1.5)

    @pytest.mark.parametrize("seed", [1.5, 2**70, False], ids=["fractional", "past_the_noise_key", "bool"])
    def test_a_starts_seed_outside_the_fit_seed_domain_is_rejected_by_name(self, seed):
        # Before, 1.5 failed inside numpy with a TypeError, and 2**70 and False drew starts.
        message = rf"^seed must be a nonnegative integer below 18446744073709551616, got {seed!r}$"
        with pytest.raises(ValueError, match=message):
            initial_guesses(ModelKind.ATS, ats_spectrum(), 4, seed)

    def test_solver_entry_checks(self):
        data = ats_spectrum()
        with pytest.raises(ValueError, match="n must be >= 1"):
            initial_guesses(ModelKind.ATS, data, 0, 0)
        assert fit_many(ModelKind.ATS, []) == []
        theta0 = initial_guesses(ModelKind.ATS, data, 3, 0)
        with pytest.raises(ValueError, match="2 data vectors do not split 3 rows evenly"):
            _lm_run_batch(ModelKind.ATS, theta0, data.deltas, np.stack((data.values, data.values)), FitConfig())

    @pytest.mark.filterwarnings("error")
    def test_data_near_the_float_limit_stop_without_a_warning(self):
        # Scaled by 1e152 the damped systems of the EIT fit overflow; by
        # 1e154 the data's squares do.  At 1e152 each fit still ends as at
        # unit scale: the same stop, the same widths and offset, the SSR
        # scaled by the factor squared.  The iteration of the ATS fit's
        # gradient stop is not compared: that fit is exact, so it is set by
        # rounding.  Nor are the EIT amplitudes, set by where the tolerance
        # stop ends its walk along the flat valley to equal widths.
        data = ats_spectrum(AtsParams(1.0, 0.5, 1.5))

        def fit_scaled(model, factor):
            return fit(model, Spectrum(deltas=data.deltas, values=factor * data.values))

        eit, eit_scaled = fit_scaled(ModelKind.EIT, 1.0), fit_scaled(ModelKind.EIT, 1e152)
        ats, ats_scaled = fit_scaled(ModelKind.ATS, 1.0), fit_scaled(ModelKind.ATS, 1e152)
        assert (eit.stop, eit_scaled.stop, ats.stop, ats_scaled.stop) == ("tolerance",) * 2 + ("gradient",) * 2
        for width in ("g_plus", "g_minus"):
            assert getattr(eit_scaled.params, width) == pytest.approx(getattr(eit.params, width), rel=1e-9)
        assert eit_scaled.ssr / 1e304 == pytest.approx(eit.ssr, rel=1e-12)
        assert as_array(ats_scaled.params) / [1e76, 1.0, 1.0] == pytest.approx(as_array(ats.params), rel=1e-9)
        assert ats_scaled.ssr <= rounding_floor(1e152 * data.values)
        assert fit_scaled(ModelKind.ATS, 1e154).stop == "non-finite"
        with pytest.raises(FitConvergenceError, match="no usable minimum"):
            fit_scaled(ModelKind.EIT, 1e154)

    @pytest.mark.parametrize(
        ("params", "factor"), [(AtsParams(1.0, 0.1, 1.0), 1e152), (AtsParams(1.0, 0.5, 1.5), 1e154)]
    )
    def test_starts_at_the_float_limit_stop_in_the_pass_they_enter(self, params, factor):
        # One test stops a row whose SSR or normal equations are not finite
        # before its trial.  The doublet's first start keeps a finite SSR and
        # overflows in its normal equations; every other start's SSR overflows.
        data = ats_spectrum(params)
        data = Spectrum(deltas=data.deltas, values=factor * data.values)
        for model in ModelKind:
            x0 = initial_guesses(model, data, 4, 0)
            _, _, ssr, iterations, stop = _lm_run_batch(model, x0, data.deltas, data.values[None], FitConfig())
            assert np.all(stop == STOP_REASONS.index("non-finite")), (model, stop)
            assert np.all(iterations == 0), (model, iterations)
            assert np.isfinite(ssr).tolist() == [model is ModelKind.ATS, False, False, False], (model, ssr)


def test_variance_floor_scales_with_data():
    assert variance_floor([0.0, 2.0]) == pytest.approx(4e-30)
    assert variance_floor([-3.0, 1.0]) == pytest.approx(9e-30)
    assert variance_floor([1e-160, 0.0]) == np.finfo(float).tiny  # where 1e-30 v**2 underflows
