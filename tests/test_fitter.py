"""Fitting engine: exact recovery, determinism, descent behavior, guesses,
frozen per-row solver output, stop reasons, and batch invariance of the
lockstep engine."""
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from eitats.cli import CIRCUIT_GRID, CIRCUIT_PRESET
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid, transmission_profile
from eitats.models import AtsParams, EitParams, ModelKind, as_array, eval_ats, eval_eit
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
        [_lm_run_batch(model, x0, data.deltas, data.values, FitConfig(max_iterations=cap))[1] for cap in caps]
    )


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
            x0 = np.stack(initial_guesses(model, data, 4, 3))
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
            x0 = np.stack(initial_guesses(model, data, 5, 1))
            _, ssr, converged, *_ = _lm_run_batch(model, x0, data.deltas, data.values, FitConfig(max_iterations=cap))
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
# noise seed, replicate, cap); omega None is the circuit curve, noise seed
# None a noiseless spectrum.
FROZEN_PROBLEMS = {
    "circuit_eit": (ModelKind.EIT, None, None, 0, 1000),
    "circuit_ats": (ModelKind.ATS, None, None, 0, 1000),
    # Criterion-5 replicate: the doublet fit ends on its bound u = 0.
    "offset_bound_ats": (ModelKind.ATS, 0.0, 42, 41, 300),
    # The winner and 14 other starts stop at the cap.
    "capped_eit": (ModelKind.EIT, 0.1, 0, 82, 300),
    # Start 7 stops at the damping ceiling.
    "damping_eit": (ModelKind.EIT, 1.35, None, 0, 300),
}
FROZEN_ROWS = json.loads((Path(__file__).parent / "data" / "solver_rows.json").read_text(encoding="utf-8"))


def frozen_problem(name):
    """The spectrum, model, starts and config of one frozen problem."""
    model, omega, seed, replicate, cap = FROZEN_PROBLEMS[name]
    if omega is None:
        data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
    elif seed is None:
        data = absorption_profile(TlaParams(omega=omega), default_grid())
    else:
        data = noisy_replicate(omega, seed, replicate)
    return model, data, np.stack(initial_guesses(model, data, 16, 0)), FitConfig(max_iterations=cap)


def solver_rows(name):
    """Every row _lm_run_batch returns on a frozen problem, floats as float.hex."""
    model, data, x0, cfg = frozen_problem(name)
    x, ssr, converged, iterations, stop = _lm_run_batch(model, x0, data.deltas, data.values, cfg)
    return [
        {
            "params": [float(v).hex() for v in x[i]],
            "ssr": float(ssr[i]).hex(),
            "converged": bool(converged[i]),
            "iterations": int(iterations[i]),
            "stop": STOP_REASONS[stop[i]],
        }
        for i in range(x.shape[0])
    ]


class TestFrozenRows:
    @pytest.mark.parametrize("name", FROZEN_PROBLEMS)
    def test_every_row_is_bit_identical_to_the_frozen_output(self, name):
        rows = solver_rows(name)
        assert rows == FROZEN_ROWS[name]
        for row in rows:
            assert row["converged"] == (row["stop"] not in ("cap", "non-finite"))

    def test_frozen_problems_stop_as_described(self):
        stops = {name: [row["stop"] for row in FROZEN_ROWS[name]] for name in FROZEN_PROBLEMS}
        assert stops["capped_eit"].count("cap") == 15
        assert stops["damping_eit"][7] == "damping"
        best = min(FROZEN_ROWS["offset_bound_ats"], key=lambda row: float.fromhex(row["ssr"]))
        assert best["params"][2] == "0x0.0p+0"


class TestStopReasons:
    @pytest.mark.parametrize("reason", STOP_REASONS)
    def test_the_winner_reports_why_it_stopped(self, reason):
        cfg = FitConfig()
        guesses = initial_guesses
        if reason == "tolerance":
            model, data = ModelKind.EIT, transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
        elif reason == "gradient":  # an exact fit: the gradient vanishes first
            model, data = ModelKind.ATS, ats_spectrum()
        elif reason == "damping":  # the only start is one that stops at the ceiling
            model, data, x0, cfg = frozen_problem("damping_eit")
            cfg = FitConfig(max_iterations=cfg.max_iterations, n_starts=1)

            def guesses(*args):
                return [x0[7]]

        elif reason == "cap":
            model, data, _, cfg = frozen_problem("capped_eit")
        else:  # narrow lines scaled by 1e152: the normal equations overflow, the SSR stays finite
            model, cfg = ModelKind.ATS, FitConfig(n_starts=4)
            data = ats_spectrum(AtsParams(1.0, 0.1, 1.0))
            data = Spectrum(deltas=data.deltas, values=1e152 * data.values)
        with mock.patch.object(fitter, "initial_guesses", guesses):
            res = fit(model, data, cfg)
        assert res.stop == reason
        assert res.converged == (reason not in ("cap", "non-finite"))
        assert np.isfinite(res.ssr)
        assert (res.iterations == cfg.max_iterations) == (reason == "cap")


class TestDampedStep:
    def test_a_singular_system_falls_back_to_least_squares_alone(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3, 2))
        jtj = a.transpose(0, 2, 1) @ a
        diag = np.diagonal(jtj, axis1=1, axis2=2).copy()
        grad = rng.normal(size=(6, 2))
        lam = np.full(6, 1e-3)
        jtj[4] = [[1.0, 2.0], [2.0, 4.0]]  # rank 1, and undamped below
        diag[4] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(jtj[4], grad[4])
        steps = _damped_step(jtj, diag, grad, lam)
        others = np.arange(6) != 4
        systems = jtj + lam[:, None, None] * diag[:, :, None] * np.eye(2)
        assert np.array_equal(steps[others], np.linalg.solve(systems[others], grad[others][..., None])[..., 0])
        assert np.array_equal(steps[4], np.linalg.lstsq(jtj[4], grad[4], rcond=None)[0])


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


class TestProfile:
    def test_profiled_ssr_keeps_full_precision_as_the_widths_merge(self):
        # The flat valley's limit: the amplitudes grow like 1/delta while
        # the residual must stay as accurate as for well-separated widths.
        data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
        for delta, want in COLLINEAR_SSR.items():
            alpha, ssr, *_ = _profile(ModelKind.EIT, np.array([[6.357, 6.357 - delta]]), data.deltas, data.values[None])
            assert ssr[0] == pytest.approx(want, rel=1e-13)
            assert np.all(alpha > 0.0)


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
        x0 = np.stack(initial_guesses(ModelKind.ATS, data, 4, 0))
        shared = _lm_run_batch(ModelKind.ATS, x0, data.deltas, data.values, BATCH_CFG)
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
        assert abs(first[2] - 3.0) <= 1.0

    def test_single_peak_guess_offset_near_argmax(self):
        data = ats_spectrum(AtsParams(0.5, 1.0, 0.0))
        first = initial_guesses(ModelKind.ATS, data, 1, 0)[0]
        assert abs(first[2]) <= 0.5

    def test_perturbations_are_seeded(self):
        data = ats_spectrum()
        a = initial_guesses(ModelKind.ATS, data, 6, 42)
        b = initial_guesses(ModelKind.ATS, data, 6, 42)
        c = initial_guesses(ModelKind.ATS, data, 6, 43)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(a[1], c[1])

    def test_perturbation_factors_bounded(self):
        data = ats_spectrum()
        guesses = initial_guesses(ModelKind.ATS, data, 64, 7)
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

    @pytest.mark.filterwarnings("error")
    def test_data_near_the_float_limit_stop_without_a_warning(self):
        # Scaled by 1e152 the damped systems of the EIT fit overflow; by
        # 1e154 the data's squares do.  Each fit still ends as before.
        data = ats_spectrum(AtsParams(1.0, 0.5, 1.5))

        def fit_scaled(model, factor):
            return fit(model, Spectrum(deltas=data.deltas, values=factor * data.values))

        eit, ats = fit_scaled(ModelKind.EIT, 1e152), fit_scaled(ModelKind.ATS, 1e152)
        assert (eit.stop, eit.iterations, ats.stop, ats.iterations) == ("tolerance", 21, "gradient", 10)
        assert fit_scaled(ModelKind.ATS, 1e154).stop == "non-finite"
        with pytest.raises(FitConvergenceError, match="no usable minimum"):
            fit_scaled(ModelKind.EIT, 1e154)


def test_variance_floor_scales_with_data():
    assert variance_floor([0.0, 2.0]) == pytest.approx(4e-30)
    assert variance_floor([-3.0, 1.0]) == pytest.approx(9e-30)
