"""Smoke test of the benchmark: tracer bookkeeping and one short run per output mode.

    python -m pytest perfbench/test_smoke.py -q
"""
from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import eitats.cli  # noqa: E402
import eitats.selection  # noqa: E402
from calibrate import Clock  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("cli.main", 0.0, None, None, end=10.0),
        Span("selection.discriminate", 1.0, 0, 0, end=9.0),
        Span("fitter.fit", 2.0, 1, 0, end=5.0),
        Span("fitter.fit", 5.0, 1, 0, end=8.0),
    ]
    assert self_times(spans) == [2.0, 2.0, 3.0, 3.0]


def test_patched_names_are_restored_and_spectra_get_ids():
    fit, ingest = eitats.selection.fit, eitats.cli.ingest_spectrum
    tracer = Tracer()
    main = tracer.wrap(lambda path: eitats.cli.ingest_spectrum(path), "cli.main")
    with tracer.patched():
        assert eitats.selection.fit is not fit
        main(ROOT / "tests" / "data" / "circuit_noisy.csv")
    assert eitats.selection.fit is fit and eitats.cli.ingest_spectrum is ingest
    main, read = tracer.spans
    assert (read.name, read.parent, read.spectrum) == ("cli.ingest", 0, 0)
    metrics = layer_metrics(tracer, 1)
    assert metrics["cli.calls"] == 1 and metrics["cli.ingest_s"] == pytest.approx(read.seconds)
    assert metrics["fitter.fit_calls.eit"] == 0 and metrics["fitter.converged_ratio.eit"] == 0.0


def test_missing_call_site_reads_as_zero_calls(monkeypatch):
    monkeypatch.delattr(eitats.cli, "sweep_omega")
    tracer = Tracer()
    with tracer.patched():
        assert not hasattr(eitats.cli, "sweep_omega")
    assert layer_metrics(tracer, 1)["simulation.self_s"] == 0.0


def test_clock_returns_the_result_and_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    result, wall, calibrated = Clock().call(sum, range(10**6))
    assert result == sum(range(10**6)) and wall > 0 and calibrated > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0.1"]
    return subprocess.run([*argv, "--trace", str(trace)], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize(("trace", "kind"), [(0, "end_to_end"), (1, "per_layer")])
def test_one_short_run_prints_every_named_metric(trace, kind):
    done = _run(ROOT, "noisy", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
    for metric in SPEC[kind]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "verdict", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
