"""Model evaluation, symmetries, and analytic Jacobians vs finite differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitats.models import (
    AtsParams,
    EitParams,
    ModelKind,
    as_array,
    canonicalize,
    eval_ats,
    eval_eit,
    evaluate,
    jacobian,
)


def raw_vectors(model):
    """Raw parameter vectors of either sign: amplitudes, nonzero widths, offset."""
    amplitude = st.floats(-1e3, 1e3)
    width = st.floats(1e-3, 1e3).flatmap(lambda g: st.sampled_from([g, -g]))
    parts = [amplitude, amplitude, width, width] if model is ModelKind.EIT else [amplitude, width, st.floats(-1e3, 1e3)]
    return st.tuples(*parts).map(np.array)


def finite_difference(model, x, delta, h_rel=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        h = h_rel * max(abs(x[i]), 1.0)
        up, dn = x.copy(), x.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (evaluate(model, up, delta) - evaluate(model, dn, delta)) / (2 * h)
    return out


class TestEvaluation:
    def test_identical_lobes_cancel(self):
        m = EitParams(1.0, 1.0, 2.0, 2.0)
        for d in (0.0, 0.7, 3.2):
            assert eval_eit(m, d) == 0.0

    def test_signed_pair_centre_value(self):
        # Frozen from direct evaluation of the two quotients.
        m = EitParams(2.14, 1.89, 0.581, 0.520)
        assert eval_eit(m, 0.0) == pytest.approx(0.35630412970812486, rel=1e-12)

    def test_decay_at_large_detuning(self):
        m = EitParams(2.14, 1.89, 0.581, 0.520)
        assert abs(eval_eit(m, 1e6)) < 1e-10
        a = AtsParams(0.5, 1.0, 3.0)
        assert abs(eval_ats(a, 1e6)) < 1e-10

    def test_coincident_doublet_doubles(self):
        assert eval_ats(AtsParams(1.0, 1.0, 0.0), 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_doublet_peak_value(self):
        assert eval_ats(AtsParams(0.5, 1.0, 3.0), 3.0) == pytest.approx(0.25675675675675674, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(list(ModelKind)), x=st.data(), d=st.floats(-1e3, 1e3))
    def test_both_models_even_in_detuning(self, model, x, d):
        raw = x.draw(raw_vectors(model))
        assert evaluate(model, raw, d) == evaluate(model, raw, -d)

    def test_doublet_nonnegative(self):
        rng = np.random.default_rng(22)
        grid = np.linspace(-10, 10, 101)
        for _ in range(20):
            a = AtsParams(*rng.uniform(0.1, 3.0, size=3))
            assert np.all(eval_ats(a, grid) >= 0)

    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(list(ModelKind)), x=st.data())
    def test_sign_flips_change_nothing(self, model, x):
        # Amplitudes and widths enter squared and the doublet is even in
        # its offset, so any component's sign is immaterial.
        raw = x.draw(raw_vectors(model))
        i = x.draw(st.integers(0, model.k - 1))
        flipped = raw.copy()
        flipped[i] = -flipped[i]
        grid = np.linspace(-5, 5, 41)
        assert np.array_equal(evaluate(model, raw, grid), evaluate(model, flipped, grid))
        assert canonicalize(model, raw) == canonicalize(model, flipped)

    def test_array_evaluation_matches_scalar(self):
        grid = np.linspace(-3, 3, 13)
        m = EitParams(1.0, 0.5, 2.0, 0.4)
        vals = eval_eit(m, grid)
        assert vals[4] == eval_eit(m, float(grid[4]))


class TestJacobian:
    def test_amplitude_gradient_at_centre(self):
        m = EitParams(1.7, 0.4, 2.0, 0.5)
        jac = jacobian(ModelKind.EIT, m, 0.0)
        assert jac[0] == pytest.approx(2 * 1.7 / 4.0, rel=1e-14)

    def test_sign_antisymmetry_of_lobes(self):
        jac = jacobian(ModelKind.EIT, EitParams(1.0, 1.0, 1.0, 1.0), 0.0)
        assert jac[0] == pytest.approx(2.0, rel=1e-14)
        assert jac[1] == pytest.approx(-2.0, rel=1e-14)

    def test_doublet_jacobian_matches_finite_differences(self):
        x = np.array([0.5, 1.0, 3.0])
        for d in (0.0, 1.5, 3.0, -2.0):
            jac = jacobian(ModelKind.ATS, x, d)
            fd = finite_difference(ModelKind.ATS, x, d)
            assert np.allclose(jac, fd, rtol=1e-6, atol=1e-12)

    def test_randomized_jacobians_match_finite_differences(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = float(rng.uniform(-5, 5))
            for model in (ModelKind.EIT, ModelKind.ATS):
                x = rng.uniform(0.3, 3.0, size=model.k)
                jac = jacobian(model, x, d)
                fd = finite_difference(model, x, d)
                scale = np.maximum(np.abs(fd), 1e-8)
                assert np.max(np.abs(jac - fd) / scale) <= 1e-6

    def test_array_detuning_shape(self):
        grid = np.linspace(-2, 2, 9)
        jac = jacobian(ModelKind.ATS, AtsParams(0.5, 1.0, 1.0), grid)
        assert jac.shape == (9, 3)

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError, match="expected 4"):
            jacobian(ModelKind.EIT, [1.0, 2.0, 3.0], 0.0)

    @pytest.mark.parametrize("function", [evaluate, jacobian])
    @pytest.mark.parametrize(
        ("model", "params", "shape"),
        [
            (ModelKind.ATS, [0.5, 1.0, 2.0, 3.0], "(4,)"),
            (ModelKind.EIT, [1.0, 2.0, 3.0, 4.0, 5.0], "(5,)"),
            (ModelKind.EIT, AtsParams(0.5, 1.0, 2.0), "(3,)"),
            (ModelKind.ATS, EitParams(1.0, 2.0, 3.0, 4.0), "(4,)"),
        ],
    )
    def test_raw_vector_length_checked(self, function, model, params, shape):
        message = f"expected {model.k} parameters for {model.value}, got {shape}"
        with pytest.raises(ValueError) as info:
            function(model, params, np.linspace(-1.0, 1.0, 5))
        assert str(info.value) == message


class TestParameterHandling:
    def test_kind_parameter_counts(self):
        assert ModelKind.EIT.k == 4
        assert ModelKind.ATS.k == 3

    def test_canonicalize_folds_signs(self):
        m = canonicalize(ModelKind.EIT, [-1.0, 2.0, -3.0, 4.0])
        assert m == EitParams(1.0, 2.0, 3.0, 4.0)
        a = canonicalize(ModelKind.ATS, [0.5, -1.0, -2.0])
        assert a == AtsParams(0.5, 1.0, 2.0)

    def test_canonicalize_preserves_model_values(self):
        rng = np.random.default_rng(24)
        grid = np.linspace(-4, 4, 33)
        for _ in range(20):
            raw = rng.uniform(-3, 3, size=4)
            raw[2:] = np.where(raw[2:] == 0, 0.5, raw[2:])
            m = canonicalize(ModelKind.EIT, raw)
            assert np.allclose(evaluate(ModelKind.EIT, raw, grid), eval_eit(m, grid), rtol=0, atol=0)

    def test_round_trip_through_array(self):
        m = EitParams(1.0, 2.0, 3.0, 4.0)
        assert canonicalize(ModelKind.EIT, as_array(m)) == m

    def test_widths_must_be_positive(self):
        with pytest.raises(ValueError):
            EitParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AtsParams(1.0, -1.0, 0.0)
