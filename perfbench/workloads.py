"""The benchmark's workloads: the CLI calls of one pass and the gates on their output.

Every workload drives ``eitats.cli.main`` in-process, one call after the
other (a closed loop with a single caller).  A pass is a fixed list of CLI
calls whose fit starts, and on ``noisy`` whose noise, come from the pass
seed.  Importing this module imports ``eitats.cli``, so the set-up probe
times that import.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import eitats.cli
from eitats import NoiseSpec, TlaParams, absorption_profile, add_noise, default_grid

FIXTURE = Path("tests") / "data" / "circuit_noisy.csv"
GAMMAS = ["--gamma-ab", "1", "--gamma-bc", "0.1"]
# The CLI sweep defaults to the 1000-iteration cap while sweep_omega
# defaults to 300; the sweep workloads pass the bulk-scan cap explicitly.
SWEEP_CAP = ["--max-iterations", "300"]

CIRCUIT_ATS = {"c": 4.42, "g": 7.1, "d0": 6.1}


@dataclass(frozen=True)
class Call:
    argv: list[str]
    spectra: int  # discriminations the call makes


@dataclass
class Outcome:
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def _parse_axis(text: str) -> np.ndarray:
    lo, hi, step = (float(part) for part in text.split(":"))
    return default_grid(lo, hi, step)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _has_failure(report: dict[str, Any]) -> bool:
    return bool(report["selection"]["fit_failures"])


class Verdict:
    """Single-spectrum verdicts at the default cap, circuit and noisy fixture alternating."""

    name = "verdict"

    def __init__(self, root: Path, tmp: Path) -> None:
        self.fixture = root / FIXTURE

    def build_inputs(self) -> None:
        eitats.cli.transmission_profile(eitats.cli.CIRCUIT_PRESET, default_grid(*eitats.cli.CIRCUIT_GRID))
        eitats.cli.ingest_spectrum(self.fixture)

    def calls(self, seed: int) -> list[Call]:
        return [
            Call(["circuit", "--seed", str(seed)], 1),
            Call(["discriminate", "--input", str(self.fixture), "--seed", str(seed)], 1),
        ]

    def ssr_calls(self, seed: int) -> list[Call]:
        return []

    def check(self, call: Call, report: dict[str, Any]) -> Outcome:
        sel = report["selection"]
        out = Outcome(failed=int(_has_failure(report)))
        if call.argv[0] == "circuit":
            w_eit = sel["per_point_weights"]["eit"]
            ats = report["fits"]["ats"]["params"]
            if sel["verdict"] != "ATS":
                out.problems.append(f"circuit verdict {sel['verdict']}, expected ATS")
            if w_eit is None or abs(w_eit - 0.03) > 0.02:
                out.problems.append(f"circuit per-point w_eit {w_eit}, expected 0.03 +/- 0.02")
            off = {k: ats[k] for k, ref in CIRCUIT_ATS.items() if abs(ats[k] / ref - 1.0) > 0.03}
            if off:
                out.problems.append(f"circuit ATS parameters {off} off the reference {CIRCUIT_ATS} by > 3%")
        elif sel["verdict"] != "Inconclusive":
            out.problems.append(f"fixture verdict {sel['verdict']}, expected Inconclusive")
        return out

    def finish(self) -> list[str]:
        return []


class Sweep:
    """Noiseless pump sweep across the weight crossover, bulk-scan cap."""

    name = "sweep"
    OMEGAS = "0.7:0.95:0.05"

    def __init__(self, root: Path, tmp: Path) -> None:
        self.csv = tmp / "sweep.csv"
        self.spectrum = tmp / "probe.csv"
        self.axis = _parse_axis(self.OMEGAS)

    def build_inputs(self) -> None:
        for omega in self.axis:
            absorption_profile(TlaParams(omega=float(omega), gamma_ab=1.0, gamma_bc=0.1), default_grid())

    def calls(self, seed: int) -> list[Call]:
        argv = ["sweep", *GAMMAS, "--omegas", self.OMEGAS, *SWEEP_CAP, "--seed", str(seed), "--output", str(self.csv)]
        return [Call(argv, self.axis.size)]

    def ssr_calls(self, seed: int) -> list[Call]:
        """Single verdicts on the pass's spectra, for their best-fit SSRs."""
        calls = []
        for omega in self.axis:
            calls.append(Call(["generate", *GAMMAS, "--omega", repr(float(omega)), "--output", str(self.spectrum)], 0))
            calls.append(Call(["discriminate", "--input", str(self.spectrum), *SWEEP_CAP, "--seed", str(seed)], 1))
        return calls

    def check(self, call: Call, report: dict[str, Any]) -> Outcome:
        if call.argv[0] == "generate":
            return Outcome()
        if call.argv[0] == "discriminate":
            return Outcome(failed=int(_has_failure(report)))
        rows = _read_csv(self.csv)
        out = Outcome(failed=sum(int(row["fit_failures"]) > 0 for row in rows))
        crossover = report["summary"]["crossover"]
        if len(rows) != self.axis.size:
            out.problems.append(f"sweep table has {len(rows)} rows, expected {self.axis.size}")
        if crossover is None or abs(crossover - 0.86) > 0.05:
            out.problems.append(f"sweep crossover {crossover}, expected 0.86 +/- 0.05")
        return out

    def finish(self) -> list[str]:
        return []


class Noisy:
    """Replicate-averaged weights at weak pump under 10% multiplicative noise."""

    name = "noisy"
    OMEGAS = "0:0.1:0.1"
    SIGMA = 0.1
    REPLICATES = 2

    def __init__(self, root: Path, tmp: Path) -> None:
        self.csv = tmp / "noisy.csv"
        self.spectrum = tmp / "probe.csv"
        self.axis = _parse_axis(self.OMEGAS)
        self.weight_sums = np.zeros((self.axis.size, 2))
        self.passes = 0

    def build_inputs(self) -> None:
        noise = NoiseSpec(sigma=self.SIGMA, seed=0, n_replicates=self.REPLICATES)
        for omega in self.axis:
            base = absorption_profile(TlaParams(omega=float(omega), gamma_ab=1.0, gamma_bc=0.1), default_grid())
            for r in range(self.REPLICATES):
                add_noise(base, noise, r)

    def _noise_args(self, seed: int) -> list[str]:
        return ["--sigma", repr(self.SIGMA), "--seed", str(seed)]

    def calls(self, seed: int) -> list[Call]:
        argv = [
            "sweep", *GAMMAS, "--omegas", self.OMEGAS, "--replicates", str(self.REPLICATES), *SWEEP_CAP,
            *self._noise_args(seed), "--output", str(self.csv),
        ]
        return [Call(argv, self.axis.size * self.REPLICATES)]

    def ssr_calls(self, seed: int) -> list[Call]:
        """Single verdicts on the pass's noisy replicates, for their best-fit SSRs."""
        calls = []
        for omega in self.axis:
            for r in range(self.REPLICATES):
                generate = ["generate", *GAMMAS, "--omega", repr(float(omega)), *self._noise_args(seed)]
                calls.append(Call([*generate, "--replicate", str(r), "--output", str(self.spectrum)], 0))
                calls.append(Call(["discriminate", "--input", str(self.spectrum), *SWEEP_CAP, "--seed", str(seed)], 1))
        return calls

    def check(self, call: Call, report: dict[str, Any]) -> Outcome:
        if call.argv[0] == "generate":
            return Outcome()
        if call.argv[0] == "discriminate":
            return Outcome(failed=int(_has_failure(report)))
        rows = _read_csv(self.csv)
        if len(rows) != self.axis.size:
            return Outcome(problems=[f"noisy table has {len(rows)} rows, expected {self.axis.size}"])
        self.weight_sums += [[float(row["w_ppt_eit"]), float(row["w_ppt_ats"])] for row in rows]
        self.passes += 1
        # A discrimination with both fits failed raises, so each failed
        # replicate adds exactly one to its row's count.
        return Outcome(failed=sum(int(row["fit_failures"]) for row in rows))

    def finish(self) -> list[str]:
        """Criterion-5 gate on the weights averaged over every pass."""
        if not self.passes:
            return ["no noisy pass completed"]
        # Every pass averages the same number of replicates.
        mean = self.weight_sums / self.passes
        problems = []
        if np.any(np.abs(mean - 0.5) > 0.05):
            problems.append(f"noisy mean weights {mean.round(4).tolist()}, expected 0.5 +/- 0.05")
        if np.any(np.abs(mean[:, 0] - mean[:, 1]) >= 0.1):
            problems.append(f"noisy mean weights {mean.round(4).tolist()} are not inconclusive")
        return problems


WORKLOADS = {w.name: w for w in (Verdict, Sweep, Noisy)}
