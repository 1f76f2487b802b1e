"""Benchmark of the ``discriminator`` CLI, end to end and per layer.

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 30 --trace 0

Run from anywhere inside a full checkout; the package is imported from the
checkout's ``src/``.  One run:

1. times set-up: a fresh interpreter imports eitats and builds the
   workload's inputs, five times, median reported;
2. runs a reference pass with fit seed 0 (also the warm-up) and, where
   the pass's own reports carry no fits, single verdicts on its spectra;
   the sum of their best-fit SSRs is ``ssr_total``;
3. runs passes in a closed loop for ``--seconds``, pass ``k`` seeded with
   ``seed * 1000 + k``.  With ``--trace 1`` each pass is run a second
   time under the tracer, so tracing overhead is traced minus untraced
   wall on the same inputs.

Every CLI call is checked by the workload's gates.  The last line of
standard output is the result: end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``.  The line before it holds the run's
details (machine, sample counts, per-fit records, gate messages).  A run
whose gates fail prints ``"correct": false`` with no metrics and exits 1.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from calibrate import Clock

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_SEED = 0
SETUP_REPEATS = 5
MAX_PASSES = 999  # keeps pass seeds seed * 1000 + k distinct across seeds

SETUP_CODE = """
import sys, time
from pathlib import Path
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
root = Path(sys.argv[3])
workloads.WORKLOADS[sys.argv[4]](root, root).build_inputs()
elapsed = time.perf_counter() - start
import calibrate
print(elapsed, calibrate.current_speed())
"""

# Computed, not measured: floating-point operations and array elements
# read or written per detuning point by the numpy expressions in
# eitats.models, for one evaluate plus one jacobian call, averaged over the
# two models (evaluate EIT 6/14, ATS 10/21; jacobian EIT 11/33, ATS 24/61).
KERNEL_POINTS = 201
KERNEL_FLOPS_PER_POINT = (6 + 10 + 11 + 24) / 2
KERNEL_ELEMENTS_PER_POINT = (14 + 21 + 33 + 61) / 2


@dataclass
class Pass:
    spectra: int = 0
    calibrated: list[float] = field(default_factory=list)  # seconds per CLI call
    raw: list[float] = field(default_factory=list)  # wall seconds per CLI call
    elapsed: float = 0.0  # wall seconds of the whole pass, probes and checks included
    reports: list[dict[str, Any]] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.calibrated)


class Runner:
    """Calls the CLI for one workload and tallies attempts, failures and gate problems."""

    def __init__(self, workload: Any, main: Any) -> None:
        self.workload = workload
        self.main = main
        self.clock = Clock()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, call: Any, tracer: Any = None) -> tuple[float, float, dict[str, Any] | None]:
        """(wall, calibrated seconds, parsed report or None) of one CLI call."""
        main = self.main if tracer is None else tracer.wrap(self.main, "cli.main")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code, wall, calibrated = self.clock.call(main, call.argv)
        self.attempted += call.spectra
        if code != 0:
            self.failed += call.spectra
            self.problems.append(f"`{' '.join(call.argv)}` exited {code}: {err.getvalue().strip()[:400]}")
            return wall, calibrated, None
        report = json.loads(out.getvalue())
        outcome = self.workload.check(call, report)
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        return wall, calibrated, report

    def run_pass(self, seed: int, tracer: Any = None) -> Pass:
        start = time.perf_counter()
        done = Pass()
        for call in self.workload.calls(seed):
            wall, calibrated, report = self.call(call, tracer)
            done.spectra += call.spectra
            done.raw.append(wall)
            done.calibrated.append(calibrated)
            if report is not None:
                done.reports.append(report)
        done.elapsed = time.perf_counter() - start
        return done


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count) of the highest percentile with >= 10 samples above it.

    With 10 or fewer samples there is no such percentile; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def setup_seconds(workload: str) -> list[tuple[float, float]]:
    """(wall, calibrated) seconds for fresh interpreters to import eitats and build the inputs."""
    argv = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(BENCH_DIR), str(ROOT), workload]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall, speed = (float(x) for x in done.stdout.split())
        times.append((wall, wall * speed))
    return times


def ssr_total(reports: list[dict[str, Any]]) -> float:
    return sum(
        fit["ssr"] for report in reports for fit in (report.get("fits") or {}).values() if fit is not None
    )


def kernel_probe(batches: int = 7, calls: int = 300) -> dict[str, float]:
    """Per-call time of eitats.models.evaluate and .jacobian on 201 points."""
    import eitats.models as models
    from eitats import default_grid

    grid = default_grid()
    cases = (
        (models.ModelKind.EIT, models.EitParams(1.0, 0.6, 1.0, 0.2)),
        (models.ModelKind.ATS, models.AtsParams(0.7, 0.6, 0.9)),
    )

    def per_call_us(name: str) -> float:
        fn = getattr(models, name, None)
        if fn is None:
            return 0.0
        samples = []
        for _ in range(batches):
            start = time.perf_counter()
            for _ in range(calls):
                for kind, params in cases:
                    fn(kind, params, grid)
            samples.append((time.perf_counter() - start) / (calls * len(cases)) * 1e6)
        return statistics.median(samples)

    return {
        "models.evaluate_us": per_call_us("evaluate"),
        "models.jacobian_us": per_call_us("jacobian"),
        "models.flops_per_call": KERNEL_FLOPS_PER_POINT * KERNEL_POINTS,
        "models.bytes_per_call": 8 * KERNEL_ELEMENTS_PER_POINT * KERNEL_POINTS,
    }


def machine() -> dict[str, Any]:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ[name] for name in threads if name in os.environ},
        "note": "no CPU pinning and no machine setting changed; one process, one calling thread",
    }


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verdict", "sweep", "noisy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "eitats" / "__init__.py").is_file():
        print(f"perfbench: no eitats package under {ROOT / 'src'}; run inside a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src")]
    import eitats.cli
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    setup = setup_seconds(args.workload)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](ROOT, Path(tmp))
        runner = Runner(workload, eitats.cli.main)
        reference = runner.run_pass(REFERENCE_SEED)
        for call in workload.ssr_calls(REFERENCE_SEED):
            report = runner.call(call)[2]
            if report is not None:
                reference.reports.append(report)

        plain: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.perf_counter() + args.seconds
        for k in range(1, MAX_PASSES + 1):
            seed = args.seed * 1000 + k
            plain.append(runner.run_pass(seed))
            if tracer is not None:
                with tracer.patched():
                    traced.append(runner.run_pass(seed, tracer))
            if time.perf_counter() >= deadline:
                break
    problems = runner.problems + workload.finish()

    latencies = [s for p in plain for s in p.calibrated]
    tail_value, tail_percentile, n_latencies = tail(latencies)
    details: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "passes": len(plain),
        "setup_s_samples": [calibrated for _, calibrated in setup],
        "setup_raw_s_samples": [wall for wall, _ in setup],
        "pass_walls_s": [p.wall for p in plain],
        "pass_raw_walls_s": [sum(p.raw) for p in plain],
        "latencies_s": latencies,
        "latency_tail_s": tail_value,
        "latency_tail_percentile": tail_percentile,
        "latency_samples": n_latencies,
        "problems": problems[:20],
    }
    if tracer is not None:
        details["fits"] = [asdict(f) for f in tracer.fits]
    print(json.dumps({"details": details}))

    if problems:
        for problem in problems[:20]:
            print(f"perfbench: gate failed: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": runner.attempted, "failed": runner.failed, "metrics": {}}))
        return 1

    if tracer is None:
        values = {
            "setup_s": statistics.median(calibrated for _, calibrated in setup),
            "wall_s": statistics.median(p.wall for p in plain),
            "spectra_per_s": sum(p.spectra for p in plain) / sum(p.wall for p in plain),
            "latency_p50_s": statistics.median(latencies),
            "ssr_total": ssr_total(reference.reports),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        values = layer_metrics(tracer, len(traced))
        elapsed = statistics.fmean(p.elapsed for p in traced)
        values.update(
            {
                "trace.wall_s": statistics.median(p.wall for p in traced),
                "trace.untraced_wall_s": statistics.median(p.wall for p in plain),
                "trace.overhead_s": statistics.median(t.wall - p.wall for t, p in zip(traced, plain)),
                "trace.accounted_ratio": values["trace.self_sum_s"] / elapsed,
                "trace.passes": float(len(traced)),
            }
        )
        values.update(kernel_probe())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": True, "attempted": runner.attempted, "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
