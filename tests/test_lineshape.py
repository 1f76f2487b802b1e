"""Lineshape generators: pointwise values, pole structure, and symmetries."""
import cmath

import numpy as np
import pytest

from eitats.lineshape import (
    CircuitParams,
    DegeneratePoleError,
    Spectrum,
    TlaParams,
    absorption_profile,
    default_grid,
    pole_decomposition,
    susceptibility,
    transmission_profile,
    transparency_depth,
)


def random_params(rng, n):
    """Valid parameter draws, kept away from the exceptional point."""
    out = []
    while len(out) < n:
        p = TlaParams(
            alpha=float(rng.uniform(0.2, 2.0)),
            omega=float(rng.uniform(0.0, 3.0)),
            delta1=float(rng.uniform(-2.0, 2.0)),
            gamma_ab=float(rng.uniform(0.2, 2.0)),
            gamma_bc=float(rng.uniform(0.01, 1.0)),
        )
        d = pole_decomposition(p)
        if abs(d.delta_plus - d.delta_minus) > 1e-3 * (p.gamma_ab + p.gamma_bc):
            out.append(p)
    return out


class TestSusceptibility:
    def test_no_pump_on_resonance(self):
        p = TlaParams(alpha=1.0, omega=0.0, delta1=0.0, gamma_ab=1.0, gamma_bc=0.1)
        val = susceptibility(p, 0.0)
        assert val == pytest.approx(1j, abs=1e-15)
        assert val.imag == pytest.approx(1.0, abs=1e-15)

    def test_pumped_on_resonance_closed_form(self):
        p = TlaParams(alpha=1.0, omega=0.5, delta1=0.0, gamma_ab=1.0, gamma_bc=0.1)
        # alpha / (gamma_ab + omega^2/gamma_bc) on resonance
        assert susceptibility(p, 0.0).imag == pytest.approx(1.0 / 3.5, rel=1e-12)

    def test_off_resonance_value(self):
        # Frozen from an independent symbol-by-symbol evaluation.
        p = TlaParams(alpha=1.0, omega=1.0, delta1=0.3, gamma_ab=1.0, gamma_bc=0.1)
        val = susceptibility(p, 0.7)
        assert val.real == pytest.approx(-0.25, rel=1e-12)
        assert val.imag == pytest.approx(0.75, rel=1e-12)

    def test_scalar_and_array_inputs(self):
        p = TlaParams(omega=0.7)
        scalar = susceptibility(p, 0.3)
        arr = susceptibility(p, np.array([0.3, 0.4]))
        assert isinstance(scalar, complex)
        assert arr.shape == (2,)
        assert arr[0] == scalar

    def test_singular_pump_term_rejected(self):
        p = TlaParams(omega=0.5, gamma_bc=0.0)
        with pytest.raises(ValueError, match="singular"):
            susceptibility(p, 0.0)

    def test_denominator_underflow_rejected(self):
        # The smallest subnormal dephasing leaves |den| = 5e-324 at delta = 0.
        with pytest.raises(ValueError, match="singular evaluation: denominator underflow at grid index 0"):
            susceptibility(TlaParams(gamma_ab=5e-324), 0.0)

    def test_no_pump_allows_gamma_bc_zero_at_origin(self):
        p = TlaParams(omega=0.0, gamma_bc=0.0, gamma_ab=2.0)
        assert susceptibility(p, 0.0) == pytest.approx(0.5j, abs=1e-15)

    def test_rejects_nonfinite_detuning(self):
        with pytest.raises(ValueError, match="finite"):
            susceptibility(TlaParams(), np.inf)


class TestPoleDecomposition:
    def test_no_pump_poles_sit_at_dephasing_rates(self):
        d = pole_decomposition(TlaParams(omega=0.0, delta1=0.0, gamma_ab=1.0, gamma_bc=0.1))
        assert d.delta_plus == pytest.approx(1j, abs=1e-14)
        assert d.delta_minus == pytest.approx(0.1j, abs=1e-14)
        assert d.s_plus == pytest.approx(1.0, abs=1e-14)
        assert d.s_minus == pytest.approx(0.0, abs=1e-14)

    def test_strong_pump_asymptote(self):
        d = pole_decomposition(TlaParams(omega=3.0, delta1=0.0, gamma_ab=1.0, gamma_bc=0.1))
        assert d.delta_plus.real == pytest.approx(3.0, rel=0.02)
        assert d.delta_plus.imag == pytest.approx(0.55, rel=0.02)
        assert d.delta_minus.real == pytest.approx(-3.0, rel=0.02)

    def test_strength_sum_is_one(self):
        rng = np.random.default_rng(7)
        for p in random_params(rng, 50):
            d = pole_decomposition(p)
            assert abs(d.s_plus + d.s_minus - 1.0) <= 1e-12

    def test_principal_branch_orientation(self):
        rng = np.random.default_rng(8)
        for p in random_params(rng, 20):
            d = pole_decomposition(p)
            root = cmath.sqrt(p.omega**2 + 0.25 * (p.delta1 - 1j * (p.gamma_ab - p.gamma_bc)) ** 2)
            assert d.delta_plus - d.delta_minus == pytest.approx(2 * root, rel=1e-12)

    def test_poles_decay(self):
        rng = np.random.default_rng(9)
        for p in random_params(rng, 20):
            d = pole_decomposition(p)
            assert d.delta_plus.imag > 0
            assert d.delta_minus.imag > 0

    def test_exceptional_point_raises(self):
        with pytest.raises(DegeneratePoleError):
            pole_decomposition(TlaParams(omega=0.45, delta1=0.0, gamma_ab=1.0, gamma_bc=0.1))

    def test_shared_reservoir_region_structure(self):
        # Resonant drive below half the dephasing-rate difference: poles on
        # the imaginary axis, strengths real.
        rng = np.random.default_rng(10)
        for _ in range(30):
            gamma_ab = float(rng.uniform(0.5, 2.0))
            gamma_bc = float(rng.uniform(0.0, 0.4)) * gamma_ab
            omega = float(rng.uniform(0.05, 0.95)) * (gamma_ab - gamma_bc) / 2.0
            d = pole_decomposition(TlaParams(omega=omega, delta1=0.0, gamma_ab=gamma_ab, gamma_bc=gamma_bc))
            assert abs(d.delta_plus.real) <= 1e-10
            assert abs(d.delta_minus.real) <= 1e-10
            assert abs(d.s_plus.imag) <= 1e-10
            assert abs(d.s_minus.imag) <= 1e-10


class TestAbsorptionProfile:
    def test_default_grid_has_201_points(self):
        grid = default_grid()
        assert grid.size == 201
        assert grid[0] == -5.0
        assert grid[-1] == 5.0
        assert np.allclose(np.diff(grid), 0.05)

    @pytest.mark.parametrize(
        ("lo", "hi", "step", "size"), [(0.05, 1.5, 0.01, 146), (0.7, 0.95, 0.05, 6), (0.0, 0.1, 0.1, 2)]
    )
    def test_a_step_that_divides_the_span_up_to_rounding_is_kept(self, lo, hi, step, size):
        # 0.05:1.5:0.01 is 144.99999999999997 steps in binary.
        grid = default_grid(lo, hi, step)
        assert grid.size == size and grid[0] == lo and grid[-1] == hi

    @pytest.mark.parametrize(("half", "step"), [(5.0, 0.05), (30.0, 0.25), (4.0, 0.05), (1.5, 0.01), (2.4, 0.3)])
    def test_a_grid_centred_on_zero_is_exactly_mirror_symmetric(self, half, step):
        # np.linspace(-5, 5, 201) rounds -4.95 and 4.95 differently.
        grid = default_grid(-half, half, step)
        assert np.array_equal(grid, -grid[::-1])
        assert np.max(np.abs(grid - np.linspace(-half, half, grid.size))) <= 4 * np.finfo(float).eps * half

    @pytest.mark.parametrize(
        ("lo", "hi", "step"),
        [(0.05, 1.5, 0.01), (0.7, 0.95, 0.05), (0.0, 0.1, 0.1), (-4.0, 5.0, 0.05), (-5.0, 4.9, 0.1)],
    )
    def test_any_other_grid_is_linspace_byte_for_byte(self, lo, hi, step):
        grid = default_grid(lo, hi, step)
        assert grid.tobytes() == np.linspace(lo, hi, grid.size).tobytes()

    @pytest.mark.parametrize(("step", "text"), [(0.7, "0.7"), (0.3, "0.3"), (3.0, "3")])
    def test_a_step_that_does_not_divide_the_span_is_rejected(self, step, text):
        # These used to sweep [0, 1] and steps of 1/3 and 1 instead.
        with pytest.raises(ValueError, match=f"^step {text} does not divide hi - lo = 1$"):
            default_grid(0.0, 1.0, step)

    def test_resonant_profile_is_even(self):
        data = absorption_profile(TlaParams(omega=0.8, delta1=0.0), default_grid())
        assert np.max(np.abs(data.values - data.values[::-1])) <= 1e-12

    def test_positive_for_finite_two_photon_dephasing(self):
        rng = np.random.default_rng(11)
        grid = default_grid()
        for p in random_params(rng, 20):
            assert np.all(absorption_profile(p, grid).values > 0)

    def test_matches_pole_resummation(self):
        rng = np.random.default_rng(12)
        grid = default_grid()
        for p in random_params(rng, 200):
            d = pole_decomposition(p)
            direct = susceptibility(p, grid)
            resummed = p.alpha * (d.s_plus / (grid - d.delta_plus) + d.s_minus / (grid - d.delta_minus))
            rel = np.abs(direct - resummed) / np.abs(direct)
            assert np.max(rel) <= 1e-10

    def test_error_carries_grid_index(self):
        p = TlaParams(omega=0.5, gamma_bc=0.0)
        with pytest.raises(ValueError, match="grid index 100"):
            absorption_profile(p, default_grid())


class TestTransmissionProfile:
    def test_no_pump_dip_value(self):
        c = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=0.0)
        data = transmission_profile(c, default_grid(-30, 30, 0.25))
        centre = data.values[data.n_points // 2]
        assert centre == pytest.approx((11.0 / 2.0) / 7.2, rel=1e-12)

    def test_pumped_curve_has_central_transparency_window(self):
        # The window is shallow for these rates (strong two-photon
        # dephasing) but the maxima must sit clearly off centre.
        c = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
        data = transmission_profile(c, default_grid(-30, 30, 0.25))
        centre = data.values[data.n_points // 2]
        peak_at = data.deltas[np.argmax(data.values)]
        assert abs(peak_at) > 3.0
        assert centre < 0.95 * np.max(data.values)

    def test_far_detuned_transparency(self):
        c = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
        data = transmission_profile(c, default_grid(-2000, 2000, 100))
        assert abs(data.values[0]) < 1e-3
        assert abs(data.values[-1]) < 1e-3

    @pytest.mark.parametrize(
        ("grid", "message"),
        [([0.0, 1.0, 0.5], "deltas must be strictly increasing"), ([[0.0, 1.0]], "must be one-dimensional")],
    )
    def test_grid_is_checked_by_spectrum(self, grid, message):
        c = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
        with pytest.raises(ValueError, match=message):
            transmission_profile(c, grid)

    def test_ideal_two_photon_coherence_is_fully_transparent_at_centre(self):
        c = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.0, omega=6.0)
        data = transmission_profile(c, default_grid(-1, 1, 0.5))
        assert data.values[2] == 0.0


class TestTransparencyDepth:
    def test_zero_without_pump(self):
        assert transparency_depth(TlaParams(omega=0.0)) == 0.0

    def test_closed_form_value(self):
        p = TlaParams(omega=0.5, gamma_ab=1.0, gamma_bc=0.1)
        assert transparency_depth(p) == pytest.approx(0.25 / 0.35, rel=1e-12)

    def test_matches_two_evaluation_definition(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            p = TlaParams(
                omega=float(rng.uniform(0.0, 2.0)),
                delta1=0.0,
                gamma_ab=float(rng.uniform(0.3, 2.0)),
                gamma_bc=float(rng.uniform(0.05, 1.0)),
            )
            off = TlaParams(omega=0.0, delta1=0.0, gamma_ab=p.gamma_ab, gamma_bc=p.gamma_bc)
            direct = 1.0 - susceptibility(p, 0.0).imag / susceptibility(off, 0.0).imag
            assert transparency_depth(p) == pytest.approx(direct, abs=1e-12)

    def test_noise_threshold_rearrangement(self):
        # depth equals 2*sigma exactly at omega^2 = 2*sigma*g_ab*g_bc/(1-2*sigma)
        omega = np.sqrt(0.025)
        p = TlaParams(omega=omega, gamma_ab=1.0, gamma_bc=0.1)
        assert transparency_depth(p) == pytest.approx(0.2, abs=1e-12)

    def test_requires_resonant_drive(self):
        with pytest.raises(ValueError, match="resonant"):
            transparency_depth(TlaParams(omega=0.5, delta1=0.1))

    def test_requires_finite_two_photon_dephasing(self):
        with pytest.raises(ValueError, match="gamma_bc"):
            transparency_depth(TlaParams(omega=0.5, gamma_bc=0.0))


class TestValidation:
    def test_spectrum_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            Spectrum(deltas=np.array([0.0, 1.0, 0.5]), values=np.zeros(3))

    def test_spectrum_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            Spectrum(deltas=np.array([0.0, 1.0]), values=np.zeros(3))

    def test_spectrum_rejects_an_empty_grid(self):
        with pytest.raises(ValueError, match="spectrum must contain at least one point"):
            Spectrum(deltas=np.array([]), values=np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrum_rejects_nonfinite_detunings(self, bad):
        with pytest.raises(ValueError, match="deltas must be finite"):
            Spectrum(deltas=np.array([0.0, bad, 2.0]), values=np.zeros(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_spectrum_rejects_nonfinite_values(self, bad):
        with pytest.raises(ValueError, match="finite.*index 1"):
            Spectrum(deltas=np.array([0.0, 1.0, 2.0]), values=np.array([0.1, bad, 0.2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.1])
    def test_spectrum_rejects_noise_scale_that_is_not_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="sigma_exp must be finite and >= 0"):
            Spectrum(deltas=np.array([0.0, 1.0, 2.0]), values=np.zeros(3), sigma_exp=bad)

    def test_tla_params_reject_bad_rates(self):
        with pytest.raises(ValueError):
            TlaParams(gamma_ab=0.0)
        with pytest.raises(ValueError):
            TlaParams(gamma_bc=-0.1)
        with pytest.raises(ValueError):
            TlaParams(alpha=0.0)
        with pytest.raises(ValueError):
            TlaParams(omega=-1.0)

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"alpha": 0.0}, "alpha must be > 0, got 0.0"),
            ({"alpha": float("nan")}, "alpha must be > 0, got nan"),
            ({"alpha": float("inf")}, "alpha must be finite"),
            ({"omega": -1.0}, "omega must be >= 0, got -1.0"),
            ({"omega": float("nan")}, "omega must be finite"),
            ({"delta1": float("-inf")}, "delta1 must be finite"),
            ({"gamma_ab": -1.0}, "gamma_ab must be > 0, got -1.0"),
            ({"gamma_bc": float("inf")}, "gamma_bc must be finite"),
            # Several bad fields: the first in field order is reported.
            ({"gamma_bc": -0.1, "omega": float("inf")}, "omega must be finite"),
        ],
    )
    def test_tla_params_name_the_first_bad_field(self, kwargs, message):
        with pytest.raises(ValueError) as info:
            TlaParams(**kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"gamma_rel": 0.0}, "gamma_rel must be > 0, got 0.0"),
            ({"gamma_ab": float("nan")}, "gamma_ab must be > 0, got nan"),
            ({"gamma_bc": -0.1}, "gamma_bc must be >= 0, got -0.1"),
            ({"omega": float("inf")}, "omega must be finite"),
            ({"gamma_rel": float("inf"), "gamma_ab": 0.0}, "gamma_rel must be finite"),
        ],
    )
    def test_circuit_params_name_the_first_bad_field(self, kwargs, message):
        rates = {"gamma_rel": 1.0, "gamma_ab": 1.0, "gamma_bc": 0.1, **kwargs}
        with pytest.raises(ValueError) as info:
            CircuitParams(**rates)
        assert str(info.value) == message

    def test_circuit_params_reject_bad_rates(self):
        with pytest.raises(ValueError):
            CircuitParams(gamma_rel=0.0, gamma_ab=1.0, gamma_bc=0.1)
        with pytest.raises(ValueError):
            CircuitParams(gamma_rel=1.0, gamma_ab=1.0, gamma_bc=-0.1)
