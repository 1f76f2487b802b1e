"""Noise stream determinism and the pump-strength / dephasing sweeps."""
import numpy as np
import pytest

import eitats.simulation
from eitats.fitter import FitConfig
from eitats.lineshape import TlaParams, absorption_profile, default_grid
from eitats.selection import discriminate, discriminate_many
from eitats.simulation import (
    BoundaryResult,
    NoiseSpec,
    _interp_crossover,
    add_noise,
    sweep_gbc_boundary,
    sweep_omega,
)

FAST = FitConfig(max_iterations=200)


def base_profile(omega=0.5):
    return absorption_profile(TlaParams(omega=omega, gamma_ab=1.0, gamma_bc=0.1), default_grid())


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        data = base_profile()
        noisy = add_noise(data, NoiseSpec(sigma=0.0, seed=1), 0)
        assert np.array_equal(noisy.values, data.values)
        assert np.array_equal(noisy.deltas, data.deltas)

    def test_same_key_reproduces(self):
        data = base_profile()
        spec = NoiseSpec(sigma=0.1, seed=7, n_replicates=3)
        a = add_noise(data, spec, 1)
        b = add_noise(data, spec, 1)
        assert np.array_equal(a.values, b.values)

    def test_replicates_differ(self):
        data = base_profile()
        spec = NoiseSpec(sigma=0.1, seed=7, n_replicates=3)
        a = add_noise(data, spec, 0)
        b = add_noise(data, spec, 1)
        assert not np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        data = base_profile()
        a = add_noise(data, NoiseSpec(sigma=0.1, seed=1), 0)
        b = add_noise(data, NoiseSpec(sigma=0.1, seed=2), 0)
        assert not np.array_equal(a.values, b.values)

    def test_relative_noise_mean_within_standard_error(self):
        data = base_profile()
        spec = NoiseSpec(sigma=0.1, seed=11)
        noisy = add_noise(data, spec, 0)
        xi = noisy.values / data.values - 1.0
        assert abs(xi.mean()) <= 3 * 0.1 / np.sqrt(data.n_points)
        assert xi.std() == pytest.approx(0.1, rel=0.35)

    def test_noise_scale_recorded(self):
        noisy = add_noise(base_profile(), NoiseSpec(sigma=0.05, seed=3), 0)
        assert noisy.sigma_exp == 0.05

    def test_replicate_bounds_enforced(self):
        with pytest.raises(ValueError, match="replicate"):
            add_noise(base_profile(), NoiseSpec(sigma=0.1, seed=1, n_replicates=2), 2)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(sigma=0.1, n_replicates=0)
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            NoiseSpec(seed=-1)

    # The stream's 128-bit key is (seed << 64) | replicate, so each must be an integer below 2**64.
    def test_fractional_seed_is_rejected_not_truncated(self):
        message = r"^seed must be a nonnegative integer below 18446744073709551616, got 1.5$"
        with pytest.raises(ValueError, match=message):
            NoiseSpec(sigma=0.1, seed=1.5)

    def test_fractional_replicate_is_rejected_not_truncated(self):
        spec = NoiseSpec(sigma=0.1, seed=1, n_replicates=2)
        with pytest.raises(ValueError, match=r"^replicate must be a nonnegative integer below 2, got 1.7$"):
            add_noise(base_profile(), spec, 1.7)

    def test_a_bool_is_not_a_seed_a_replicate_or_a_count(self):
        # bool is a numbers.Integral, so True used to pass for 1.
        limit = 18446744073709551616
        with pytest.raises(ValueError, match=rf"^seed must be a nonnegative integer below {limit}, got True$"):
            NoiseSpec(sigma=0.1, seed=True)
        with pytest.raises(ValueError, match=rf"^n_replicates must be an integer in \[1, {limit}\], got True$"):
            NoiseSpec(sigma=0.1, n_replicates=True)
        with pytest.raises(ValueError, match=r"^replicate must be a nonnegative integer below 2, got True$"):
            add_noise(base_profile(), NoiseSpec(sigma=0.1, n_replicates=2), True)

    def test_seed_beyond_the_key_is_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be a nonnegative integer below 18446744073709551616, got"):
            NoiseSpec(sigma=0.1, seed=2**64)

    def test_replicate_cannot_spill_into_the_seed(self):
        # Replicate 2**64 of seed 0 would draw the key of replicate 0 of seed 1.
        with pytest.raises(ValueError, match=r"^n_replicates must be an integer in \[1, 18446744073709551616\], got"):
            NoiseSpec(sigma=0.1, seed=0, n_replicates=2**64 + 1)

    def test_largest_seed_and_replicate_draw(self):
        spec = NoiseSpec(sigma=0.1, seed=2**64 - 1, n_replicates=2**64)
        last = add_noise(base_profile(), spec, 2**64 - 1)
        assert not np.array_equal(last.values, add_noise(base_profile(), spec, 0).values)


class TestSweepOmega:
    def test_region_structure_coarse(self):
        omegas = np.array([0.2, 0.4, 0.7, 1.0, 1.3])
        result = sweep_omega(1.0, 0.1, NoiseSpec(), omegas, FAST)
        w = result.per_point_weights
        # Shared-reservoir region: doublet model shut out.
        assert w[0, 1] <= 1e-3
        assert w[1, 1] <= 1e-3
        # Beyond the crossing: doublet model dominates.
        assert w[3, 1] > w[3, 0]
        assert w[4, 1] > w[4, 0]
        assert result.crossover is not None
        assert 0.7 <= result.crossover <= 1.0
        # Both weight families sum to one per axis point.
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(result.akaike_weights.sum(axis=1), 1.0, atol=1e-12)

    def test_sweep_is_deterministic(self):
        omegas = np.array([0.3, 0.9])
        noise = NoiseSpec(sigma=0.05, seed=13, n_replicates=3)
        a = sweep_omega(1.0, 0.1, noise, omegas, FAST)
        b = sweep_omega(1.0, 0.1, noise, omegas, FAST)
        assert np.array_equal(a.per_point_weights, b.per_point_weights)
        assert np.array_equal(a.akaike_weights, b.akaike_weights)

    def test_noise_degrades_separation(self):
        # Averaged weight separation shrinks as the noise level grows.  Per
        # pump value: the clean profile, then 12 replicates at each sigma.
        spectra = []
        for omega in (0.2, 0.6):
            data = absorption_profile(TlaParams(omega=omega, gamma_ab=1.0, gamma_bc=0.1), default_grid())
            spectra.append(data)
            for sigma in (0.01, 0.1):
                spec = NoiseSpec(sigma=sigma, seed=3, n_replicates=12)
                spectra.extend(add_noise(data, spec, r) for r in range(12))
        reports = discriminate_many(spectra, FAST)
        gaps = [abs(rep.per_point_weights["eit"] - rep.per_point_weights["ats"]) for rep in reports]
        for g in (gaps[:25], gaps[25:]):
            separations = [g[0], float(np.mean(g[1:13])), float(np.mean(g[13:]))]
            assert separations[0] >= separations[1] >= separations[2]

    def test_matches_per_spectrum_loop(self):
        # Reference: discriminate each (pump value, replicate) spectrum on
        # its own in a plain loop and average, as sweep_omega did before it
        # batched the fits.  Batching must not change a single bit.
        cfg = FitConfig(max_iterations=100, n_starts=6)
        omegas = np.array([0.3, 0.9])
        noise = NoiseSpec(sigma=0.1, seed=5, n_replicates=3)
        pp = np.empty((2, 2))
        aw = np.empty((2, 2))
        failures = np.zeros(2, dtype=int)
        for i, omega in enumerate(omegas):
            base = absorption_profile(TlaParams(omega=float(omega), gamma_ab=1.0, gamma_bc=0.1), default_grid())
            pp_acc = np.zeros(2)
            aw_acc = np.zeros(2)
            for r in range(noise.n_replicates):
                report = discriminate(add_noise(base, noise, r), cfg)
                failures[i] += len(report.fit_failures)
                pp_acc += [report.per_point_weights["eit"] or 0.0, report.per_point_weights["ats"] or 0.0]
                aw_acc += [report.akaike_weights["eit"] or 0.0, report.akaike_weights["ats"] or 0.0]
            pp[i] = pp_acc / noise.n_replicates
            aw[i] = aw_acc / noise.n_replicates

        result = sweep_omega(1.0, 0.1, noise, omegas, cfg)
        assert np.array_equal(result.per_point_weights, pp)
        assert np.array_equal(result.akaike_weights, aw)
        assert np.array_equal(result.fit_failures, failures)
        assert result.crossover == _interp_crossover(omegas, pp[:, 0] - pp[:, 1])

    @pytest.mark.parametrize(
        ("diff", "crossover"),
        [
            ([0.4, 0.0, -0.2, -0.3], 1.0),  # exact zero at an interior point
            ([0.4, 0.2, 0.1, 0.0], 3.0),  # exact zero at the last point
            ([0.4, 0.2, -0.2, -0.3], 1.5),
            ([0.4, 0.2, 0.1, 0.05], None),
        ],
    )
    def test_interp_crossover(self, diff, crossover):
        assert _interp_crossover(np.arange(4.0), np.array(diff)) == crossover

    def test_rejects_unsorted_omegas(self):
        with pytest.raises(ValueError, match="increasing"):
            sweep_omega(1.0, 0.1, NoiseSpec(), [0.5, 0.3], FAST)


class TestBoundarySweep:
    def test_boundary_decreases_with_two_photon_dephasing(self):
        omegas = default_grid(0.6, 1.3, 0.05)
        result = sweep_gbc_boundary(1.0, [0.01, 0.1], NoiseSpec(), omegas, FAST)
        lo, hi = result.boundary_omega
        assert np.isfinite(lo) and np.isfinite(hi)
        assert lo > hi  # cleaner two-photon coherence raises the crossing
        assert result.transparency[0] > result.transparency[1]
        assert isinstance(result, BoundaryResult)

    def test_rejects_dephasing_at_or_above_probe_rate(self):
        with pytest.raises(ValueError, match="^each gamma_bc must be below gamma_ab = 1.0, got gamma_bc = 1.0$"):
            sweep_gbc_boundary(1.0, [0.5, 1.0], NoiseSpec(), [0.5, 1.0], FAST)

    def test_rejects_unsorted_omegas_before_any_fit(self, monkeypatch):
        monkeypatch.setattr(eitats.simulation, "discriminate_many", None)
        with pytest.raises(ValueError, match="omegas must be"):
            sweep_gbc_boundary(1.0, [0.1, 0.2], NoiseSpec(), [0.5, 0.3], FAST)

    @pytest.mark.parametrize("gbc_values, first", [([0.0, 0.1], "0.0"), ([-0.1, 0.1], "-0.1")])
    def test_rejects_dephasing_at_or_below_zero_before_any_fit(self, monkeypatch, gbc_values, first):
        """The transparency depth at a crossing needs gamma_bc > 0."""
        monkeypatch.setattr(eitats.simulation, "discriminate_many", None)
        with pytest.raises(ValueError, match=f"^each gamma_bc must be above 0, got gamma_bc = {first}$"):
            sweep_gbc_boundary(1.0, gbc_values, NoiseSpec(), [0.5, 1.0], FAST)
