"""Information values, both weight families, thresholds, verdicts, and the
invariances of the test under units and the sign of the detuning."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eitats.cli import CIRCUIT_GRID, CIRCUIT_PRESET, ingest_spectrum
from eitats.fitter import FitConfig, FitConvergenceError
from eitats.lineshape import Spectrum, TlaParams, absorption_profile, default_grid, transmission_profile
from eitats.models import AtsParams, EitParams, as_array, eval_ats, eval_eit
from eitats.selection import (
    DEFAULT_MARGIN,
    Verdict,
    aic_least_squares,
    akaike_weights,
    discriminate,
    discriminate_many,
    eit_threshold,
    noise_threshold,
    per_point_weights,
)
from eitats.simulation import NoiseSpec, add_noise


class TestInformationValue:
    def test_unit_variance(self):
        assert aic_least_squares(ssr=100.0, n=100, k=3) == pytest.approx(6.0, abs=1e-12)

    def test_e_squared_variance(self):
        n = 57
        assert aic_least_squares(ssr=n * math.e**2, n=n, k=4) == pytest.approx(2 * n + 8, rel=1e-12)

    def test_zero_ssr_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            aic_least_squares(0.0, 10, 3)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            aic_least_squares(1.0, 0, 3)
        with pytest.raises(ValueError):
            aic_least_squares(1.0, 10, -1)


class TestWeights:
    def test_equal_information_splits_evenly(self):
        assert np.allclose(akaike_weights([3.7, 3.7]), [0.5, 0.5], atol=1e-15)

    @pytest.mark.parametrize(
        ("weights", "message"),
        [
            (lambda: akaike_weights([]), "need at least one information value"),
            (lambda: akaike_weights([1.0, math.inf]), "information values must be finite"),
            (lambda: per_point_weights([1.0, 2.0], 0), "n must be positive"),
        ],
    )
    def test_argument_validation(self, weights, message):
        with pytest.raises(ValueError, match=message):
            weights()

    def test_two_model_closed_form(self):
        w = akaike_weights([1.0, 3.0])
        expected = 1.0 / (1.0 + math.exp(-1.0))
        assert w[0] == pytest.approx(expected, rel=1e-12)
        assert w[1] == pytest.approx(1.0 - expected, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(vals=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    def test_normalization(self, vals):
        for w in (akaike_weights(vals), per_point_weights(vals, 201)):
            assert np.all(np.isfinite(w))
            assert np.all((w >= 0.0) & (w <= 1.0))
            assert abs(w.sum() - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(vals=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6), shift=st.floats(-1e3, 1e3))
    @example(vals=[-31.0, 7.5, 44.2, -0.3], shift=123.456)
    def test_shift_invariance(self, vals, shift):
        shifted = np.asarray(vals) + shift
        assert np.max(np.abs(akaike_weights(vals) - akaike_weights(shifted))) <= 1e-12
        assert np.max(np.abs(per_point_weights(vals, 77) - per_point_weights(shifted, 77))) <= 1e-12

    def test_monotonicity(self):
        w0 = akaike_weights([10.0, 12.0, 14.0])
        w1 = akaike_weights([9.0, 12.0, 14.0])
        assert w1[0] > w0[0]

    def test_huge_information_gap_stays_finite(self):
        w = akaike_weights([0.0, 2000.0])
        assert w[0] == 1.0
        assert w[1] == 0.0

    def test_per_point_equal_split(self):
        assert np.allclose(per_point_weights([5.0, 5.0], 100), [0.5, 0.5], atol=1e-15)

    def test_binarization_vs_per_point_saturation(self):
        # Fixed variance ratio (close to 1 so the growth is visible):
        # plain weights binarize with n; per-point weights approach the
        # square-root-of-variance-ratio split.
        s1, s2, k1, k2 = 1.0, 1.02, 4, 3
        limit = math.sqrt(s2 / s1)
        gaps, ratios = [], []
        for n in (100, 1000, 10000):
            i1 = aic_least_squares(n * s1, n, k1)
            i2 = aic_least_squares(n * s2, n, k2)
            w = akaike_weights([i1, i2])
            gaps.append(w[0])
            ratios.append(math.exp(-(i1 - i2) / (2 * n)))
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 1.0 - 1e-12
        errs = [abs(r - limit) for r in ratios]
        assert errs[0] > errs[1] > errs[2]
        w_limit = limit / (1.0 + limit)
        wp = per_point_weights([aic_least_squares(10000 * s1, 10000, k1),
                                aic_least_squares(10000 * s2, 10000, k2)], 10000)
        assert wp[0] == pytest.approx(w_limit, rel=1e-3)

    def test_per_point_ratio_convergence(self):
        s1, s2, k1, k2 = 0.5, 1.0, 4, 3
        limit = math.sqrt(s2 / s1)
        errs = []
        for n in (201, 2001, 20001):
            i1 = aic_least_squares(n * s1, n, k1)
            i2 = aic_least_squares(n * s2, n, k2)
            ratio = math.exp(-(i1 - i2) / (2 * n))
            errs.append(abs(ratio - limit))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3 * limit


class TestThresholds:
    def test_eit_threshold_reference_value(self):
        assert eit_threshold(1.0, 0.1) == pytest.approx(0.45, abs=1e-15)

    def test_eit_threshold_equal_rates(self):
        assert eit_threshold(1.0, 1.0) == 0.0

    def test_eit_threshold_circuit_rates(self):
        assert eit_threshold(7.2, 6.912) == pytest.approx(0.144, abs=1e-12)
        assert eit_threshold(7.2, 6.912) == pytest.approx(0.15, abs=0.01)

    def test_eit_threshold_domain(self):
        with pytest.raises(ValueError, match="undefined"):
            eit_threshold(1.0, 1.5)
        with pytest.raises(ValueError, match="gamma_bc must be >= 0"):
            eit_threshold(1.0, -0.1)

    def test_noise_threshold_values(self):
        assert noise_threshold(1.0, 0.1, 0.0) == 0.0
        assert noise_threshold(1.0, 0.1, 0.1) == pytest.approx(math.sqrt(0.025), abs=1e-12)
        assert noise_threshold(1.0, 0.1, 0.01) == pytest.approx(0.045175395145262566, rel=1e-12)

    def test_noise_threshold_domain(self):
        with pytest.raises(ValueError, match="sigma"):
            noise_threshold(1.0, 0.1, 0.5)
        with pytest.raises(ValueError, match="sigma"):
            noise_threshold(1.0, 0.1, -0.01)
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            noise_threshold(-1.0, 0.1, 0.1)
        with pytest.raises(ValueError, match="rates must be nonnegative"):
            noise_threshold(1.0, -0.1, 0.1)


class TestDiscriminate:
    def test_weak_pump_verdict(self):
        data = absorption_profile(TlaParams(omega=0.2, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        report = discriminate(data)
        assert report.verdict is Verdict.EIT
        assert report.per_point_weights["ats"] < 0.5
        assert report.aic["eit"] < report.aic["ats"]

    def test_strong_pump_verdict(self):
        data = absorption_profile(TlaParams(omega=3.0, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        report = discriminate(data)
        assert report.verdict is Verdict.ATS
        assert report.aic["ats"] < report.aic["eit"]

    def test_noisy_weak_pump_is_inconclusive(self):
        data = absorption_profile(TlaParams(omega=0.0, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        noisy = add_noise(data, NoiseSpec(sigma=0.1, seed=0), 0)
        report = discriminate(noisy)
        assert report.verdict is Verdict.INCONCLUSIVE
        assert report.per_point_weights["eit"] == pytest.approx(0.5, abs=report.inconclusive_margin)
        assert report.per_point_weights["ats"] == pytest.approx(0.5, abs=report.inconclusive_margin)

    def test_weight_vectors_normalized(self):
        data = absorption_profile(TlaParams(omega=0.7), default_grid())
        report = discriminate(data)
        assert abs(sum(report.akaike_weights.values()) - 1.0) <= 1e-12
        assert abs(sum(report.per_point_weights.values()) - 1.0) <= 1e-12

    def test_plain_weights_saturate_on_either_side_of_the_crossing(self):
        # Noiseless 201-point profiles: total certainty for the signed
        # pair up to pump 0.8, for the doublet from 0.9 on.
        for omega in (0.5, 0.8):
            data = absorption_profile(TlaParams(omega=omega, gamma_ab=1.0, gamma_bc=0.1), default_grid())
            report = discriminate(data)
            assert report.akaike_weights["eit"] == pytest.approx(1.0, abs=1e-6), omega
        for omega in (0.9, 1.2):
            data = absorption_profile(TlaParams(omega=omega, gamma_ab=1.0, gamma_bc=0.1), default_grid())
            report = discriminate(data)
            assert report.akaike_weights["ats"] == pytest.approx(1.0, abs=1e-6), omega

    def test_survivor_wins_when_one_model_cannot_fit(self):
        # Four points: enough for the 3-parameter doublet, too few for the
        # 4-parameter signed pair.
        grid = np.linspace(-2, 2, 4)
        data = Spectrum(deltas=grid, values=eval_ats(AtsParams(0.8, 1.0, 1.0), grid))
        for margin in (DEFAULT_MARGIN, 0.99):  # the survivor's weight of 1 clears any margin
            report = discriminate(data, margin=margin)
            assert report.verdict is Verdict.ATS
            assert "eit" in report.fit_failures
            assert report.akaike_weights["eit"] is None
            assert report.per_point_weights["ats"] == 1.0

    def test_exact_fit_is_floored_not_infinite(self):
        grid = default_grid()
        data = Spectrum(deltas=grid, values=eval_ats(AtsParams(0.5, 1.0, 2.0), grid))
        report = discriminate(data)
        assert np.isfinite(report.aic["ats"])
        assert report.verdict is Verdict.ATS
        assert report.akaike_weights["ats"] == pytest.approx(1.0, abs=1e-12)

    def test_exact_data_of_tiny_magnitude_get_a_report(self):
        # Below about 1e-147 the variance floor's 1e-30 max v**2 underflows,
        # as does an exact fit's SSR; the floor is then the smallest normal
        # float.  At 1e-150 the other model's SSR is still above it.
        grid = default_grid()
        exact = {
            Verdict.ATS: eval_ats(AtsParams(0.5, 1.0, 2.0), grid),
            Verdict.EIT: eval_eit(EitParams(1.0, 0.6, 1.0, 0.2), grid),
        }
        for verdict, values in exact.items():
            assert discriminate(Spectrum(deltas=grid, values=values)).verdict is verdict
            assert discriminate(Spectrum(deltas=grid, values=1e-150 * values)).verdict is verdict
            report = discriminate(Spectrum(deltas=grid, values=1e-300 * values))
            assert np.isfinite([report.aic["eit"], report.aic["ats"]]).all()

    def test_margin_validation(self):
        data = absorption_profile(TlaParams(omega=0.5), default_grid())
        with pytest.raises(ValueError, match="margin"):
            discriminate(data, margin=1.5)

    def test_custom_margin_changes_verdict(self):
        data = absorption_profile(TlaParams(omega=0.8, gamma_ab=1.0, gamma_bc=0.1), default_grid())
        cfg = FitConfig()
        strict = discriminate(data, cfg, margin=0.0001)
        lax = discriminate(data, cfg, margin=0.999)
        assert strict.verdict in (Verdict.EIT, Verdict.ATS)
        assert lax.verdict is Verdict.INCONCLUSIVE


class TestDiscriminateMany:
    CFG = FitConfig(max_iterations=80, n_starts=4)

    def test_reports_equal_single_spectrum_reports(self):
        grid = default_grid()
        weak = absorption_profile(TlaParams(omega=0.2, gamma_ab=1.0, gamma_bc=0.1), grid)
        spectra = [
            weak,
            absorption_profile(TlaParams(omega=1.2, gamma_ab=1.0, gamma_bc=0.1), grid),
            add_noise(weak, NoiseSpec(sigma=0.1, seed=9), 0),
        ]
        many = discriminate_many(spectra, self.CFG, margin=0.2)
        assert many == [discriminate(data, self.CFG, margin=0.2) for data in spectra]

    def test_survivor_wins_as_in_discriminate(self):
        grid = np.linspace(-2, 2, 4)
        spectra = [Spectrum(deltas=grid, values=eval_ats(AtsParams(0.8, 1.0, d0), grid)) for d0 in (0.5, 1.0)]
        many = discriminate_many(spectra, self.CFG)
        assert many == [discriminate(data, self.CFG) for data in spectra]
        assert all(report.verdict is Verdict.ATS and "eit" in report.fit_failures for report in many)

    def test_both_fits_failing_raises_as_discriminate_does(self):
        grid = default_grid()
        flat = Spectrum(deltas=grid, values=np.full(grid.size, 0.3))
        with pytest.raises(FitConvergenceError) as single:
            discriminate(flat, self.CFG)
        good = absorption_profile(TlaParams(omega=0.5), grid)
        with pytest.raises(FitConvergenceError, match="both model fits failed") as batched:
            discriminate_many([good, flat], self.CFG)
        assert str(batched.value) == str(single.value)

    def test_margin_validation(self):
        with pytest.raises(ValueError, match="margin"):
            discriminate_many([absorption_profile(TlaParams(omega=0.5), default_grid())], margin=-0.1)


# The test has no preferred unit of signal or detuning and no preferred
# sign of detuning.  Rescaling changes each solver step by rounding only,
# so the weights agree to rounding.  A fit stops where its SSR stops
# falling, so the widths and offset agree only to where that happens, as
# does the doublet's amplitude; the signed pair's amplitudes grow like
# 1/(g_plus - g_minus) along the EIT valley, which magnifies that spread.
# Largest errors over 500 random draws of the strategy below: weights
# 8.9e-16, widths and offset 3.8e-9 relative, amplitudes 8.1e-4 (EIT) and
# 2.6e-9 (ATS) relative.
WEIGHT_TOL = 1e-12
SHAPE_RTOL = 1e-7
AMPLITUDE_RTOL = {"eit": 1e-2, "ats": 1e-7}
# Per model: the amplitudes, then the widths and offset, of the raw vector.
AMPLITUDES = {"eit": slice(0, 2), "ats": slice(0, 1)}
SHAPE = {"eit": slice(2, 4), "ats": slice(1, 3)}


@pytest.fixture(scope="module")
def untransformed():
    """Each spectrum the invariance tests transform, with its report."""
    spectra = {
        "circuit": transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID)),  # EIT winner on its valley
        "fixture": ingest_spectrum(Path(__file__).parent / "data" / "circuit_noisy.csv"),  # Inconclusive
        "pump_1.2": absorption_profile(TlaParams(omega=1.2), default_grid()),  # ATS
    }
    return {name: (data, discriminate(data)) for name, data in spectra.items()}


def transformed(data, c, s, mirror):
    """The report on ``data`` with its values times c, its detunings times s, mirrored if asked."""
    deltas, values = data.deltas * s, data.values * c
    if mirror:
        deltas, values = -deltas[::-1], values[::-1]
    return discriminate(Spectrum(deltas=deltas, values=values))


invariance = given(
    name=st.sampled_from(["circuit", "fixture", "pump_1.2"]),
    c=st.floats(-6.0, 8.0).map(lambda e: 10.0**e),
    s=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    mirror=st.booleans(),
)


class TestInvariance:
    # Below c = 1e-5 an absolute gradient tolerance stops every start of
    # the circuit curve at its first iteration, so those scales always run.
    @settings(max_examples=12, deadline=None)
    @invariance
    @example(name="circuit", c=1e-6, s=1.0, mirror=False)
    @example(name="circuit", c=1e-5, s=1.0, mirror=False)
    def test_verdict_and_weights_do_not_depend_on_units_or_mirroring(self, untransformed, name, c, s, mirror):
        data, want = untransformed[name]
        got = transformed(data, c, s, mirror)
        assert got.verdict is want.verdict
        for model in ("eit", "ats"):
            assert got.akaike_weights[model] == pytest.approx(want.akaike_weights[model], rel=0, abs=WEIGHT_TOL)
            assert got.per_point_weights[model] == pytest.approx(want.per_point_weights[model], rel=0, abs=WEIGHT_TOL)

    @settings(max_examples=12, deadline=None)
    @invariance
    @example(name="circuit", c=1e-6, s=1.0, mirror=False)
    def test_widths_scale_with_the_detunings_and_amplitudes_with_the_signal(self, untransformed, name, c, s, mirror):
        # A Lorentzian a**2 / (g**2 + d**2) keeps its values times c under
        # d, g -> s d, s g when a -> sqrt(c) s a.
        data, report = untransformed[name]
        got = transformed(data, c, s, mirror)
        for model in ("eit", "ats"):
            want, have = as_array(report.fits[model].params), as_array(got.fits[model].params)
            np.testing.assert_allclose(have[SHAPE[model]], s * want[SHAPE[model]], rtol=SHAPE_RTOL, atol=0)
            amplitudes = np.sqrt(c) * s * want[AMPLITUDES[model]]
            np.testing.assert_allclose(have[AMPLITUDES[model]], amplitudes, rtol=AMPLITUDE_RTOL[model], atol=0)

    @settings(max_examples=12, deadline=None)
    @given(name=st.sampled_from(["circuit", "fixture", "pump_1.2"]), k=st.integers(-100, 100))
    @example(name="circuit", k=-100)
    @example(name="pump_1.2", k=100)
    def test_scaling_the_signal_by_a_power_of_two_changes_no_fit(self, untransformed, name, k):
        # Times 2**k every product and sum rounds as before, so each fit
        # stops where it did with the same widths and offset, and its SSR
        # is the old one times 2**(2k) exactly.
        data, want = untransformed[name]
        got = discriminate(Spectrum(deltas=data.deltas, values=np.ldexp(data.values, k)))
        assert got.verdict is want.verdict
        for model in ("eit", "ats"):
            have, ref = got.fits[model], want.fits[model]
            assert as_array(have.params)[SHAPE[model]].tolist() == as_array(ref.params)[SHAPE[model]].tolist()
            for field in ("iterations", "stop", "n_starts_agreeing"):
                assert getattr(have, field) == getattr(ref, field)
            assert have.ssr == np.ldexp(ref.ssr, 2 * k)
            assert got.akaike_weights[model] == pytest.approx(want.akaike_weights[model], rel=0, abs=WEIGHT_TOL)
            assert got.per_point_weights[model] == pytest.approx(want.per_point_weights[model], rel=0, abs=WEIGHT_TOL)
