#!/usr/bin/env python3
"""Count the solver's work and its kernel-side memory cost on fixed fit shapes.

Runs one pass of each of the benchmark's shapes, of the criterion-2
and criterion-5 sweeps and of a dephasing boundary, all with fit seed 1:

- ``verdict``: the circuit curve and the noisy circuit fixture, cap 1000;
- ``sweep``: the noiseless 6-spectrum sweep 0.7:0.95:0.05, cap 300;
- ``noisy``: 2 pump values x 2 replicates at 10% noise (noise seed 1), cap 300;
- ``default-sweep``: the 146-point sweep 0.05:1.5:0.01, cap 300;
- ``criterion-5``: pump 0 and 0.1 x 100 replicates at 10% noise (noise
  seed 42), cap 1000;
- ``boundary``: the default sweep's pump values at each two-photon
  dephasing 0.02:0.3:0.04 (8 sweeps), noiseless, cap 300.

For each it prints the solver's trial passes, the passes that profile a
trial (a pass whose rows all stop before their trial solves its damped
steps but profiles nothing), in all and per model (``passes_eit``,
``passes_ats``: the model whose fits make most passes is where a
per-pass saving lands), the ``_profile`` calls (those passes plus the
passes that admit new rows), the rows they profiled, their ratio
(``rows/call``: how full the solver's passes are, two trial rows per
active start), the profiled rows times the solver's grid points (``points``: the folded grid's, so
121 per row on the 241-point circuit grid and 101 on the 201-point
default one) and the iterations summed over every solver row, counted on a first (warm-up)
pass; then how many EIT rows end with merged widths, on the bound ``u =
0`` (``eit_on_bound``, of ``eit_rows``), where the valley of the signed
pair ends, the mean iterations of those rows and of the other EIT rows
(``it_on_bound``, ``it_rest``), and the iterations of the slowest EIT and
ATS rows (``it_max_eit``, ``it_max_ats``: on a shape whose rows all fit in
the solver's pool, that row sets the number of passes of its model's run),
and the rows of each model that end on an upper face of the solver's box,
``|g| = 2 R`` or ``u = R**2`` with ``R = max|delta|`` (``on_box_eit``,
``on_box_ats``: how often the box binds); and then the minor page faults
and system seconds per pass from ``getrusage(RUSAGE_SELF)`` over
``--repeats`` more passes.  The counts repeat exactly from run to run,
and on x86-64-v3 hosts and later whatever OpenBLAS kernel or numpy SIMD
target the host gets.  Below x86-64-v3 they move (the ``verdict``
shape's do with numpy's ``X86_V3`` loops disabled), other architectures
are untested, and ``_damped_step``'s zero-pivot fallback still calls
LAPACK.  The faults show how much of a pass goes to the
allocator handing memory back to the kernel and faulting it in again,
which wall time on a shared machine cannot resolve.  ``COUNTS.json`` at the checkout root records
the counts of every shape (``tools/refreeze.py`` rewrites it), and
``tests/test_solver_counts.py`` recomputes them for the three benchmark
shapes.

With ``--pass-cost`` it prints instead, for each model, what one solver
pass costs: a fixed part (``fixed_us``) and a part per active row
(``row_us``).  Each round of timings runs one 16-start problem (the
circuit curve, fit seed 1, cap 1000) with its spectrum replicated 1 to
16 times in one run, and a least-squares line through its
``process_time`` per pass against the mean active rows per pass gives
that round's intercept and slope.  The rows are independent, so every
replication makes the same passes and only the rows per pass grow.
``fixed_us`` and ``row_us`` are the medians of those per-round fits, and
``fixed_q`` and ``row_q`` their quartiles (first/median/third): on a
machine whose speed drifts, a change smaller than that spread is not
resolved by one invocation.  A pass whose fixed part dominates is bound
by the interpreter's per-call cost, not by arithmetic.  Each round also
runs the single problem once more under the probe, and splits its
process time per pass into ``_profile``, ``_normal_equations``,
``_damped_step`` and the rest of the loop (``profile_q``, ``normal_q``,
``step_q``, ``rest_q``, quartiles across rounds): where in a pass a
change lands.  The probe's own cost, a few microseconds a pass, falls in
the phases and the rest.

Both modes read one probe (:class:`Probe`): it wraps
``fitter._lm_run_batch``, ``_profile``, ``_normal_equations`` and
``_damped_step`` once each, counts the work above from their arguments
and results, and adds up the process time spent in each.  It wraps them
in this process only, and no file is written; ``tools/compare_trees.py``
wraps each tree's ``fitter`` with it too.

Run from the checkout root:  python tools/solver_counts.py [--repeats 3] [--only sweep] [--pass-cost]
"""
import argparse
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from eitats import cli, fitter  # noqa: E402
from eitats.fitter import FitConfig, initial_guesses  # noqa: E402
from eitats.lineshape import default_grid, transmission_profile  # noqa: E402
from eitats.models import ModelKind  # noqa: E402
from eitats.selection import discriminate  # noqa: E402
from eitats.simulation import NoiseSpec, sweep_gbc_boundary, sweep_omega  # noqa: E402

SEED = 1
FIXTURE = ROOT / "tests" / "data" / "circuit_noisy.csv"


def verdict():
    circuit = transmission_profile(cli.CIRCUIT_PRESET, default_grid(*cli.CIRCUIT_GRID))
    for data in (circuit, cli.ingest_spectrum(FIXTURE)):
        discriminate(data, FitConfig(seed=SEED))


def _sweep(omegas, noise=NoiseSpec(), cap=300):
    sweep_omega(1.0, 0.1, noise, default_grid(*omegas), FitConfig(max_iterations=cap, seed=SEED))


def boundary():
    gbc, omegas = default_grid(0.02, 0.3, 0.04), default_grid(0.05, 1.5, 0.01)
    sweep_gbc_boundary(1.0, gbc, NoiseSpec(), omegas, FitConfig(max_iterations=300, seed=SEED))


SHAPES = {
    "verdict": verdict,
    "sweep": lambda: _sweep((0.7, 0.95, 0.05)),
    "noisy": lambda: _sweep((0.0, 0.1, 0.1), NoiseSpec(sigma=0.1, seed=SEED, n_replicates=2)),
    "default-sweep": lambda: _sweep((0.05, 1.5, 0.01)),
    "criterion-5": lambda: _sweep((0.0, 0.1, 0.1), NoiseSpec(sigma=0.1, seed=42, n_replicates=100), 1000),
    "boundary": boundary,
}


WRAPPED = ("_lm_run_batch", "_profile", "_normal_equations", "_damped_step")
PHASES = WRAPPED[1:]  # of a pass; the rest of it is the loop's own


class Probe:
    """Wraps each of ``WRAPPED`` in a tree's ``fitter`` once, to count its work and add up each one's process time."""

    def __init__(self, module=fitter):
        self.module = module
        self.steps = self.admissions = self.profile_calls = self.profiled_rows = self.points = self.iterations = 0
        self._resid = None  # the last _profile call's residual
        self.eit_iterations = {True: [], False: []}  # EIT rows' iterations, by whether they end on the bound
        self.it_max_ats = 0
        self.on_box = {"eit": 0, "ats": 0}  # rows that end on an upper face of the box
        self.passes_by_model = {"eit": 0, "ats": 0}
        self.spent = dict.fromkeys(WRAPPED, 0.0)
        self._originals = {name: getattr(module, name) for name in WRAPPED}

    @property
    def passes(self) -> int:
        """The trial passes: every ``_profile`` call but the admissions'."""
        return self.profile_calls - self.admissions

    def _count(self, name, args, out):
        if name == "_damped_step":  # one call a pass, whether or not it makes a trial
            self.steps += 1
        elif name == "_profile":
            theta, grid = args[1], args[2]
            self.profile_calls += 1
            self.profiled_rows += theta.shape[0]
            self.points += theta.shape[0] * grid.deltas.size
            self._resid = out[2]
        elif name == "_normal_equations":
            # An admission hands its profile's residual straight on; a trial, its accepted rows' copy.
            self.admissions += args[4] is self._resid
        elif name == "_lm_run_batch":
            model, deltas, theta, iterations = args[0], args[2], out[0], out[3]
            reach = float(np.max(np.abs(deltas)))
            on_face = (np.abs(theta[:, 0]) == 2.0 * reach) | (theta[:, 1] == reach * reach)
            self.on_box[model.value] += int(np.count_nonzero(on_face))
            # The passes that no earlier run took are this one's.
            self.passes_by_model[model.value] += self.passes - sum(self.passes_by_model.values())
            self.iterations += int(np.sum(iterations))
            if model.value == "eit":  # the tree's own ModelKind
                on = theta[:, 1] == 0.0
                for where in (True, False):
                    self.eit_iterations[where].extend(iterations[on == where].tolist())
            else:
                self.it_max_ats = max(self.it_max_ats, int(iterations.max()))

    def _wrap(self, name):
        inner = self._originals[name]

        def call(*args, **kwargs):
            start = time.process_time()
            out = inner(*args, **kwargs)
            self.spent[name] += time.process_time() - start
            self._count(name, args, out)
            return out

        return call

    def __enter__(self):
        for name in WRAPPED:
            setattr(self.module, name, self._wrap(name))
        return self

    def __exit__(self, *exc):
        for name, inner in self._originals.items():
            setattr(self.module, name, inner)


def _mean(iterations):
    return round(float(np.mean(iterations)), 1) if iterations else None


def count(shape) -> dict:
    """The solver's work on one pass of ``shape``; it repeats exactly on x86-64-v3 hosts and later."""
    with Probe() as probe:
        shape()
    return {
        "passes": probe.passes,
        "passes_eit": probe.passes_by_model["eit"],
        "passes_ats": probe.passes_by_model["ats"],
        "profile_calls": probe.profile_calls,
        "profiled_rows": probe.profiled_rows,
        "rows/call": round(probe.profiled_rows / probe.profile_calls, 1),
        "points": probe.points,
        "iterations": probe.iterations,
        "eit_rows": sum(len(v) for v in probe.eit_iterations.values()),
        "eit_on_bound": len(probe.eit_iterations[True]),
        "it_on_bound": _mean(probe.eit_iterations[True]),
        "it_rest": _mean(probe.eit_iterations[False]),
        "it_max_eit": max(probe.eit_iterations[True] + probe.eit_iterations[False], default=0),
        "it_max_ats": probe.it_max_ats,
        "on_box_eit": probe.on_box["eit"],
        "on_box_ats": probe.on_box["ats"],
    }


def measure(shape, repeats: int) -> dict:
    """:func:`count`, then the page faults and system time of ``repeats`` more passes."""
    counts = count(shape)
    before = resource.getrusage(resource.RUSAGE_SELF)
    for _ in range(repeats):
        shape()
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {
        **counts,
        "minflt/pass": round((after.ru_minflt - before.ru_minflt) / repeats),
        "sys_s/pass": round((after.ru_stime - before.ru_stime) / repeats, 3),
    }


REPLICATIONS = (1, 2, 4, 8, 12, 16)  # 16 x 16 starts fill the default pool of 256 slots


def pass_cost(model: ModelKind, repeats: int) -> dict:
    """Fixed and per-row process time of one solver pass, from replications of one problem."""
    circuit = transmission_profile(cli.CIRCUIT_PRESET, default_grid(*cli.CIRCUIT_GRID))
    cfg = FitConfig(seed=SEED)
    theta0 = initial_guesses(model, circuit, cfg.n_starts, cfg.seed)
    runs, rows_per_pass = [], []
    for m in REPLICATIONS:
        args = (model, np.tile(theta0, (m, 1)), circuit.deltas, np.tile(circuit.values, (m, 1)), cfg)
        with Probe() as probe:
            fitter._lm_run_batch(*args)
        runs.append(args)
        # Each pass profiles two trial rows per active row, and admission profiles each row once.
        rows_per_pass.append((probe.profiled_rows - m * cfg.n_starts) / 2 / probe.passes)
    # Rounds run every replication once, and the single problem once more
    # probed by phase, so a machine that changes speed slows all of them alike.
    times, phases = [[] for _ in runs], []
    for _ in range(repeats):
        for args, samples in zip(runs, times):
            start = time.process_time()
            fitter._lm_run_batch(*args)
            samples.append(time.process_time() - start)
        with Probe() as probe:
            fitter._lm_run_batch(*runs[0])
        spent = [probe.spent[name] for name in PHASES]
        phases.append([*spent, probe.spent["_lm_run_batch"] - sum(spent)])
    round_row_s, round_fixed_s = np.polyfit(rows_per_pass, np.array(times) / probe.passes, 1)
    row_s, fixed_s = np.median(round_row_s), np.median(round_fixed_s)

    def quartiles(seconds, digits):
        return "/".join(f"{q * 1e6:.{digits}f}" for q in np.percentile(seconds, (25, 50, 75)))

    phase_s = np.array(phases) / probe.passes
    return {
        "passes": probe.passes,
        "rows/pass": f"{rows_per_pass[0]:.1f}-{rows_per_pass[-1]:.1f}",
        "fixed_us": round(fixed_s * 1e6, 1),
        "fixed_q": quartiles(round_fixed_s, 0),
        "row_us": round(row_s * 1e6, 2),
        "row_q": quartiles(round_row_s, 2),
        "fixed_share@16": f"{fixed_s / (fixed_s + row_s * rows_per_pass[0]):.0%}",
        **{f"{name}_q": quartiles(phase_s[:, i], 0) for i, name in enumerate(("profile", "normal", "step", "rest"))},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3, help="timed passes after the warm-up (default 3)")
    parser.add_argument("--only", choices=SHAPES, action="append", help="run only this shape (repeatable)")
    parser.add_argument("--pass-cost", action="store_true", help="print each model's fixed and per-row cost of a pass")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if args.pass_cost:
        costs = {model.value: pass_cost(model, max(args.repeats, 5)) for model in ModelKind}
        names = list(next(iter(costs.values())))
        print(f"{'model':<6}", *(f"{c:>15}" for c in names))
        for model, cost in costs.items():
            print(f"{model:<6}", *(f"{v:>15}" for v in cost.values()))
        return
    rows = {name: measure(SHAPES[name], args.repeats) for name in args.only or SHAPES}
    print(f"{'shape':<14}", *(f"{c:>13}" for c in next(iter(rows.values()))))
    for name, m in rows.items():
        print(f"{name:<14}", *(f"{'nan' if v is None else v:>13}" for v in m.values()))


if __name__ == "__main__":
    main()
