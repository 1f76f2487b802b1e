"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 is split. 4 checks the doublet-model parameters, the per-point
weight and the verdict directly. 4b checks the published signed-pair vector
(25.4, 24.2, 6.36, 6.15) by what least squares determines on the circuit
curve, not by the fitted vector itself: that objective has no interior
minimum there, so the fitted amplitudes are wherever the solver's
stopping rule ends the descent along a flat valley towards equal widths
(see test_criterion_4_eit_parameters_as_published).
"""
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from eitats.cli import CIRCUIT_GRID, CIRCUIT_PRESET, RunConfig, run
from eitats.fitter import fit
from eitats.lineshape import (
    Spectrum,
    TlaParams,
    default_grid,
    pole_decomposition,
    susceptibility,
    transmission_profile,
)
from eitats.models import AtsParams, EitParams, ModelKind, eval_ats, eval_eit, evaluate, jacobian
from eitats.selection import eit_threshold, noise_threshold
from eitats.simulation import NoiseSpec, sweep_omega

OMEGA_GRID = default_grid(0.05, 1.5, 0.01)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def noiseless_sweep():
    return sweep_omega(1.0, 0.1, NoiseSpec(), OMEGA_GRID)


def test_criterion_1_threshold_formulas():
    eit = eit_threshold(1.0, 0.1)
    noise = noise_threshold(1.0, 0.1, 0.1)
    ok = eit == 0.45 and abs(noise - math.sqrt(0.025)) <= 1e-12
    _report("1 (threshold formulas)", ok, f"eit_threshold={eit!r}, noise_threshold={noise!r}")


def test_criterion_2_crossover_reproduction(noiseless_sweep):
    crossover = noiseless_sweep.crossover
    # The plain-weight transition point, interpolated the same way.
    aw = noiseless_sweep.akaike_weights
    diff = aw[:, 0] - aw[:, 1]
    idx = np.flatnonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))
    assert idx.size, "no transition in the plain weights"
    i = idx[0]
    t = diff[i] / (diff[i] - diff[i + 1])
    aw_cross = float(OMEGA_GRID[i] + t * (OMEGA_GRID[i + 1] - OMEGA_GRID[i]))
    ok = abs(crossover - 0.86) <= 0.05 and abs(aw_cross - 0.86) <= 0.05
    _report(
        "2 (crossover at 0.86 +/- 0.05)",
        ok,
        f"per-point crossing at {crossover:.4f}, plain-weight transition at {aw_cross:.4f}",
    )


def test_criterion_3_region_structure(noiseless_sweep):
    w = noiseless_sweep.per_point_weights
    low = OMEGA_GRID <= 0.40
    high = OMEGA_GRID >= 0.95
    max_low = float(np.max(w[low, 1]))
    ats_dominates = bool(np.all(w[high, 1] > w[high, 0]))
    ok = max_low <= 1e-3 and ats_dominates
    _report(
        "3 (three-region structure)",
        ok,
        f"max w_ats below 0.40 = {max_low:.2e}; ats dominates above 0.95 = {ats_dominates}",
    )


@pytest.fixture(scope="module")
def circuit_report():
    return run(RunConfig(command="circuit"))


def test_criterion_4_circuit_case_study(circuit_report):
    sel = circuit_report.selection
    ats = circuit_report.fits["ats"]["params"]
    ats_ref = {"c": 4.42, "g": 7.1, "d0": 6.1}
    ats_ok = all(abs(ats[k] / v - 1.0) <= 0.03 for k, v in ats_ref.items())
    w_eit = sel["per_point_weights"]["eit"]
    ok = ats_ok and abs(w_eit - 0.03) <= 0.02 and sel["verdict"] == "ATS"
    _report(
        "4 (circuit case study: doublet fit, weight, verdict)",
        ok,
        f"ats=({ats['c']:.3f}, {ats['g']:.3f}, {ats['d0']:.3f}) vs (4.42, 7.1, 6.1); "
        f"w_eit={w_eit:.4f} vs 0.03 +/- 0.02; verdict={sel['verdict']}",
    )


def test_criterion_4_eit_parameters_as_published(circuit_report):
    """Published signed-pair values for the circuit curve, checked by what
    least squares determines there.

    The fitted vector itself is not determined: the signed-pair objective
    has no interior minimum on this curve. The SSR keeps falling as both
    amplitudes grow together and the two widths merge. The solver profiles
    the amplitudes out and follows that valley until the SSR stops falling
    by its relative tolerance, then reports convergence: about (3551,
    3551, 6.35720, 6.35719) at SSR 0.0773459206, the same at caps 1000 and
    5000. How far along the valley that is, is set by the tolerance, not
    by the data; a solver that stops at its cap reports any point along it
    ((12.9, 10.4, 6.85, 5.86) at 50 iterations and (90.7, 90.4, 6.365,
    6.349) at 1000 for the one this package used before, at SSRs from
    0.07853 down to 0.0773462). Comparing the vector with the published
    one would test the stopping rule, not the method.

    What is determined, and what the published numbers agree with:

    1. At fixed widths the model is linear in c_plus**2 and c_minus**2. At
       the published widths (6.36, 6.15) the closed-form optimal amplitudes
       are nonnegative and come to (25.55, 24.39), within 3% of (25.4,
       24.2). Fitting 1-|t|**2 or 1-|t| instead of 1-Re(t) moves them 14-16%.
    2. The fit reaches at least as low an SSR as that published point
       (0.0782). The SSR of 0.172 at exactly (25.4, 24.2, 6.36, 6.15) is
       a rounding artefact: the two large amplitudes nearly cancel, and
       the SSR falls to 0.0782 inside the box of vectors that round to the
       published three significant figures.
    3. All points along the valley draw nearly the same curve. The fitted
       curve lies 0.84% of the data's peak from the published-point curve,
       and every point the earlier solver stopped at, from cap 50 to 5000,
       lay 0.82-0.85% from it; 2% leaves room for solver detail and still
       rejects the competing local basin (SSR 0.1888, widths near 23.4 and
       23.6), which lies 19% away.
    4. The fit keeps the published ordering, broad positive lobe over
       narrow negative one: c_plus >= c_minus and g_plus >= g_minus.
    """
    c_ref = np.array([25.4, 24.2])
    g_plus, g_minus = 6.36, 6.15
    data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
    d2 = np.square(data.deltas)
    basis = np.column_stack([1.0 / (g_plus**2 + d2), -1.0 / (g_minus**2 + d2)])
    c_sq = np.linalg.lstsq(basis, data.values, rcond=None)[0]
    amps = np.sqrt(np.maximum(c_sq, 0.0))
    amps_ok = bool(np.all(c_sq >= 0.0) and np.all(np.abs(amps / c_ref - 1.0) <= 0.03))
    published_curve = basis @ c_sq
    published_ssr = float(np.sum(np.square(data.values - published_curve)))

    fitted = circuit_report.fits["eit"]
    eit = fitted["params"]
    ssr_ok = fitted["ssr"] <= published_ssr
    gap = float(np.max(np.abs(eval_eit(EitParams(**eit), data.deltas) - published_curve)))
    gap /= float(np.max(data.values))
    curve_ok = gap <= 0.02
    order_ok = eit["c_plus"] >= eit["c_minus"] and eit["g_plus"] >= eit["g_minus"]

    ok = amps_ok and ssr_ok and curve_ok and order_ok
    _report(
        "4b (circuit case study: signed-pair parameter vector)",
        ok,
        f"optimal amplitudes at widths (6.36, 6.15) = ({amps[0]:.2f}, {amps[1]:.2f}) "
        f"vs (25.4, 24.2) +/- 3%: {amps_ok}; "
        f"fit ssr {fitted['ssr']:.6f} <= {published_ssr:.6f}: {ssr_ok}; "
        f"curve gap {gap:.2%} of peak <= 2%: {curve_ok}; "
        f"c_plus >= c_minus and g_plus >= g_minus: {order_ok}",
    )


def test_criterion_5_noisy_inconclusiveness():
    noise = NoiseSpec(sigma=0.1, seed=42, n_replicates=100)
    threshold = noise_threshold(1.0, 0.1, 0.1)
    omegas = np.array([0.0, 0.1])
    assert np.all(omegas <= threshold)
    result = sweep_omega(1.0, 0.1, noise, omegas)
    w = result.per_point_weights
    centred = bool(np.all(np.abs(w - 0.5) <= 0.05))
    inconclusive = bool(np.all(np.abs(w[:, 0] - w[:, 1]) < 0.1))
    ok = centred and inconclusive
    _report(
        "5 (noisy weak pump inconclusive)",
        ok,
        f"mean weights at omega={omegas.tolist()}: {np.round(w, 4).tolist()} (0.5 +/- 0.05 each)",
    )


def test_criterion_6_partial_fraction_oracle():
    rng = np.random.default_rng(2024)
    grid = default_grid()
    worst_resum = 0.0
    worst_sum = 0.0
    count = 0
    while count < 1000:
        p = TlaParams(
            alpha=float(rng.uniform(0.2, 2.0)),
            omega=float(rng.uniform(0.0, 3.0)),
            delta1=float(rng.uniform(-2.0, 2.0)),
            gamma_ab=float(rng.uniform(0.2, 2.0)),
            gamma_bc=float(rng.uniform(0.01, 1.0)),
        )
        d = pole_decomposition(p)
        if abs(d.delta_plus - d.delta_minus) < 1e-3 * (p.gamma_ab + p.gamma_bc):
            continue  # exceptional-point neighborhood is excluded by contract
        count += 1
        direct = susceptibility(p, grid)
        resummed = p.alpha * (d.s_plus / (grid - d.delta_plus) + d.s_minus / (grid - d.delta_minus))
        worst_resum = max(worst_resum, float(np.max(np.abs(direct - resummed) / np.abs(direct))))
        worst_sum = max(worst_sum, abs(d.s_plus + d.s_minus - 1.0))
    ok = worst_resum <= 1e-10 and worst_sum <= 1e-12
    _report(
        "6 (partial-fraction oracle, 1000 draws)",
        ok,
        f"max resummation error {worst_resum:.2e} (<=1e-10); max strength-sum error {worst_sum:.2e} (<=1e-12)",
    )


def _load_grid_oracle():
    path = Path(__file__).parents[1] / "tools" / "grid_search_oracle.py"
    spec = importlib.util.spec_from_file_location("grid_search_oracle", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_criterion_7_fitter_integrity():
    # Zero-noise self-fits recover the generating parameters.
    grid = default_grid()
    rng = np.random.default_rng(77)
    recovery_ok = True
    for _ in range(3):
        truth = np.array([rng.uniform(0.3, 1.5), rng.uniform(0.5, 2.0), rng.uniform(0.5, 3.0)])
        data = Spectrum(deltas=grid, values=eval_ats(AtsParams(*truth), grid))
        res = fit(ModelKind.ATS, data)
        recovery_ok &= bool(np.all(np.abs(np.array([res.params.c, res.params.g, res.params.d0]) - truth) <= 1e-6))
    eit_truth = (1.1, 0.6, 1.8, 0.4)
    data = Spectrum(deltas=grid, values=eval_eit(EitParams(*eit_truth), grid))
    res = fit(ModelKind.EIT, data)
    got = (res.params.c_plus, res.params.c_minus, res.params.g_plus, res.params.g_minus)
    recovery_ok &= all(abs(a - b) <= 1e-6 for a, b in zip(got, eit_truth))

    # Analytic Jacobians match central finite differences.
    jac_ok = True
    for _ in range(200):
        d = float(rng.uniform(-5, 5))
        for model in (ModelKind.EIT, ModelKind.ATS):
            x = rng.uniform(0.3, 3.0, size=model.k)
            fd = np.empty(model.k)
            for i in range(model.k):
                h = 1e-6 * max(abs(x[i]), 1.0)
                up, dn = x.copy(), x.copy()
                up[i] += h
                dn[i] -= h
                fd[i] = (evaluate(model, up, d) - evaluate(model, dn, d)) / (2 * h)
            scale = np.maximum(np.abs(fd), 1e-8)
            jac_ok &= bool(np.max(np.abs(jacobian(model, x, d) - fd) / scale) <= 1e-6)

    # The damped descent never underperforms the dense grid search.
    oracle = _load_grid_oracle()
    grid_ssr, grid_best = oracle.grid_search(50)
    lm = fit(ModelKind.ATS, oracle.oracle_problem())
    oracle_ok = lm.ssr <= grid_ssr

    ok = recovery_ok and jac_ok and oracle_ok
    _report(
        "7 (fitter integrity)",
        ok,
        f"self-fit recovery={recovery_ok}; jacobians vs fd={jac_ok}; "
        f"lm ssr {lm.ssr:.6f} <= grid-oracle ssr {grid_ssr:.6f} at {grid_best}",
    )


def test_criterion_8_per_point_convergence():
    s1, s2, k1, k2 = 0.5, 1.0, 4, 3
    limit = math.sqrt(s2 / s1)
    errs = []
    for n in (201, 2001, 20001):
        i1 = n * math.log(s1) + 2 * k1
        i2 = n * math.log(s2) + 2 * k2
        ratio = math.exp(-(i1 - i2) / (2 * n))
        errs.append(abs(ratio - limit))
    ok = errs[0] > errs[1] > errs[2] and errs[2] <= 1e-3 * limit
    _report(
        "8 (per-point weight ratio convergence)",
        ok,
        f"|ratio - sqrt(variance ratio)| over N in (201, 2001, 20001): "
        f"{errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}",
    )
