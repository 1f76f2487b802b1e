"""Fitting engine: exact recovery, determinism, descent behavior, guesses,
and batch invariance of the lockstep engine."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitats import fitter
from eitats.fitter import (
    DegenerateDataError,
    FitConfig,
    _lm_run_batch,
    _lm_run_reference,
    fit,
    fit_many,
    initial_guesses,
    variance_floor,
)
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid
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


class TestDescentBehaviour:
    def test_accepted_steps_never_increase_ssr(self):
        data = absorption_profile(TlaParams(omega=1.1), default_grid())
        cfg = FitConfig(max_iterations=200)
        for model in (ModelKind.EIT, ModelKind.ATS):
            for x0 in initial_guesses(model, data, 4, 3):
                _, _, _, history = _lm_run_reference(model, x0, data.deltas, data.values, cfg)
                diffs = np.diff(history)
                assert np.all(diffs <= 0)

    def test_batch_engine_matches_reference(self):
        # Benign problems: descents terminate well before the cap, so the
        # two engines must agree on outcome and status.
        cfg = FitConfig(max_iterations=400)
        data = absorption_profile(TlaParams(omega=0.3), default_grid())
        for model in (ModelKind.EIT, ModelKind.ATS):
            x0 = np.stack(initial_guesses(model, data, 5, 1))
            _, bssr, bconv = _lm_run_batch(model, x0, data.deltas, data.values, cfg)
            for i in range(5):
                _, sssr, sconv, _ = _lm_run_reference(model, x0[i], data.deltas, data.values, cfg)
                assert bconv[i] == sconv
                assert bssr[i] == pytest.approx(sssr, rel=1e-6, abs=1e-25)

    def test_batch_engine_matches_reference_in_hard_regime(self):
        # Flat-valley descents diverge at rounding level between the two
        # engines, so only the reached depth is comparable, not the
        # per-iteration trajectory.
        cfg = FitConfig(max_iterations=150)
        data = absorption_profile(TlaParams(omega=1.2), default_grid())
        for model in (ModelKind.EIT, ModelKind.ATS):
            x0 = np.stack(initial_guesses(model, data, 5, 1))
            _, bssr, _ = _lm_run_batch(model, x0, data.deltas, data.values, cfg)
            for i in range(5):
                _, sssr, _, _ = _lm_run_reference(model, x0[i], data.deltas, data.values, cfg)
                assert bssr[i] == pytest.approx(sssr, rel=1e-4)


# Few starts and a short cap keep the property test fast; the flat-valley
# EIT fits still stop at the cap, where rounding differences would show.
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
        with pytest.raises(ValueError):
            FitConfig(relative_tolerance=0.0)


def test_variance_floor_scales_with_data():
    assert variance_floor([0.0, 2.0]) == pytest.approx(4e-30)
    assert variance_floor([-3.0, 1.0]) == pytest.approx(9e-30)
