"""Model evaluation, symmetries, and analytic Jacobians vs finite differences."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitats.models import (
    AtsParams,
    EitParams,
    ModelKind,
    _columns,
    _derivatives,
    _grid,
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
        with pytest.raises(TypeError, match="unsupported parameter type object"):
            as_array(object())

    def test_widths_must_be_positive(self):
        with pytest.raises(ValueError):
            EitParams(1.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            AtsParams(1.0, -1.0, 0.0)


GRID = np.linspace(-10.0, 10.0, 201)


def column_difference(model, theta, j, h):
    """Central difference of the model's columns in theta_j, or the second-order one-sided one at u < 2 h."""
    p = 2 if model is ModelKind.EIT else 1

    def columns(shift):
        moved = theta.copy()
        moved[0, j] += shift
        return _columns(model, moved, _grid(GRID))[0, :p]

    if j == 1 and theta[0, 1] < 2.0 * h:
        return (-3.0 * columns(0.0) + 4.0 * columns(h) - columns(2.0 * h)) / (2.0 * h)
    return (columns(h) - columns(-h)) / (2.0 * h)


class TestKernel:
    @settings(max_examples=200, deadline=None)
    @given(model=st.sampled_from(list(ModelKind)), data=st.data())
    def test_derivatives_match_central_differences_of_the_columns(self, model, data):
        # EIT: two widths, or one merged width (u = 0); steps on the scale of
        # the narrower width and of the distance g**2 - u to the point where
        # it would be 0.  ATS: a width and u = d0**2 from 0 to 1e4, with
        # steps that move d0 by a small part of the width.
        width = st.floats(1e-2, 1e2)
        if model is ModelKind.EIT:
            w1, w2 = data.draw(st.one_of(st.tuples(width, width), width.map(lambda w: (w, w))))
            g, u = (w1 + w2) / 2.0, ((w1 - w2) / 2.0) ** 2
            steps = (1e-5 * min(w1, w2), 1e-5 * w1 * w2)
        else:
            g, u = data.draw(width), data.draw(st.one_of(st.just(0.0), st.floats(1e-4, 1e4)))
            steps = (1e-5 * g, 1e-5 * g * max(g, np.sqrt(u)))
        theta = np.array([[g, u]])
        cols = _columns(model, theta, _grid(GRID))
        p = 2 if model is ModelKind.EIT else 1
        # Holding alpha = e_i, the derivatives of the curve are those of
        # column i; EIT's up to a combination of the columns, so for EIT both
        # sides are compared after the columns are projected out.
        dphi = [_derivatives(model, theta, _grid(GRID), cols[:, p:].copy(), np.eye(p)[i : i + 1])[0] for i in range(p)]
        basis = np.linalg.qr(cols[0, :p].T)[0] if model is ModelKind.EIT else np.zeros((GRID.size, 0))
        for j, h in enumerate(steps):
            fd = column_difference(model, theta, j, h)
            for i in range(p):
                # truncation, and the rounding of the columns divided by the step
                bound = 1e-6 * np.max(np.abs(fd[i])) + 10.0 * np.finfo(float).eps * np.max(np.abs(cols[0, i])) / h
                error = dphi[i][j] - fd[i]
                assert np.max(np.abs(error - basis @ (basis.T @ error))) <= bound, (j, i)

    @settings(max_examples=200, deadline=None)
    @given(
        amplitudes=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        widths=st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
    )
    def test_the_eit_kernel_at_the_mean_and_squared_half_gap_reproduces_evaluate(self, amplitudes, widths):
        # theta = (g, u) holds the widths g +- sqrt(u), each to a few ulps of
        # the wider one, and alpha . Phi is the pair's curve; writing a lobe
        # as half the sum and half the difference of the columns costs the
        # narrower lobe the square of the width ratio in rounding.  Both
        # bounds are below 1e-12 relative while the widths differ by less
        # than a factor of 20.
        raw = np.array([*amplitudes, *widths])
        c_plus, c_minus, g_plus, g_minus = raw
        half = (g_minus - g_plus) / 2.0  # signed: L1, at the wider width, is L(g_plus) where that is g_plus
        theta = np.array([[(g_plus + g_minus) / 2.0, half * half]])
        plus_sq, minus_sq = c_plus**2, c_minus**2
        alpha = np.array([[(plus_sq - minus_sq) / 2.0, 2.0 * theta[0, 0] * half * (plus_sq + minus_sq)]])
        cols = _columns(ModelKind.EIT, theta, _grid(GRID))[0]
        ratio, eps = max(widths) / min(widths), np.finfo(float).eps
        plus, minus = 1.0 / (g_plus**2 + GRID**2), 1.0 / (g_minus**2 + GRID**2)
        wide, narrow = (plus, minus) if g_plus >= g_minus else (minus, plus)
        assert np.max(np.abs(cols[2] - wide)) <= 8.0 * eps * ratio * np.max(wide)
        assert np.max(np.abs(cols[3] - narrow)) <= 8.0 * eps * ratio * np.max(narrow)
        lobe = max(c_plus**2 * np.max(plus), c_minus**2 * np.max(minus))
        curve = evaluate(ModelKind.EIT, raw, GRID)
        tiny = np.finfo(float).tiny  # subnormal amplitudes round to whole subnormals
        assert np.max(np.abs(alpha[0] @ cols[:2] - curve)) <= 8.0 * eps * (1.0 + ratio**2) * lobe + tiny
