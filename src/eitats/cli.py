"""Command-line front end: spectra in, reports and tables out.

Commands
--------
generate      write a synthetic absorption spectrum (optionally noisy)
fit           fit one or both models to a spectrum file
discriminate  full model-selection report for a spectrum file
sweep         weights vs pump strength, written as a CSV table
boundary      weight-crossing pump strength vs two-photon dephasing
circuit       preset: driven-circuit transmission case study

Spectrum files are CSV with header ``delta,value`` or
``delta,value,sigma``.  Reports are JSON and echo the fully resolved
configuration, so re-running a report's config reproduces it exactly.
All file writes are atomic (temp file + rename); the exit status is 0
exactly when every requested artifact was written.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from . import __version__
from .fitter import FitConfig, FitResult, fit
from .lineshape import (
    CircuitParams,
    Spectrum,
    TlaParams,
    absorption_profile,
    default_grid,
    transmission_profile,
)
from .models import EitParams, ModelKind
from .selection import DEFAULT_MARGIN, SelectionReport, discriminate
from .simulation import NoiseSpec, SweepResult, add_noise, sweep_gbc_boundary, sweep_omega

__all__ = ["RunConfig", "Report", "SpectrumParseError", "ingest_spectrum", "write_spectrum", "run", "main"]

# Circuit case-study preset: reported device rates (MHz over 2*pi) and the
# detuning window used for the theoretical curve.
CIRCUIT_PRESET = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
CIRCUIT_GRID = (-30.0, 30.0, 0.25)


class SpectrumParseError(ValueError):
    """A spectrum file could not be parsed."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation: command plus every knob it uses."""

    command: str
    gamma_ab: float = 1.0
    gamma_bc: float = 0.1
    omega: float = 0.0
    delta1: float = 0.0
    alpha: float = 1.0
    gamma_rel: float = CIRCUIT_PRESET.gamma_rel
    sigma: float = 0.0
    seed: int = 0
    replicate: int = 0
    replicates: int = 1
    starts: int = 16
    max_iterations: int = 1000
    margin: float = DEFAULT_MARGIN
    grid: str = "-5:5:0.05"
    omegas: str = "0.05:1.5:0.01"
    gbc: str = "0.02:0.3:0.02"
    model: str = "both"
    input: str | None = None
    output: str | None = None
    write_spectrum: str | None = None


@dataclass(frozen=True)
class Report:
    """Self-contained record of one run."""

    config: RunConfig
    version: str
    seed: int
    fits: dict[str, Any] | None = None
    selection: dict[str, Any] | None = None
    summary: dict[str, Any] | None = None
    outputs: tuple[str, ...] = ()


def _parse_range(text: str, name: str) -> np.ndarray:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"{name} must be lo:hi:step, got {text!r}") from exc
    return default_grid(lo, hi, step)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str | Path, text: str) -> str:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
    return str(path)


def write_spectrum(data: Spectrum, path: str | Path) -> str:
    """Write a spectrum as CSV; numbers keep full double precision."""
    lines = []
    if data.sigma_exp is not None:
        lines.append("delta,value,sigma")
        sig = _fmt(data.sigma_exp)
        for d, v in zip(data.deltas, data.values):
            lines.append(f"{_fmt(d)},{_fmt(v)},{sig}")
    else:
        lines.append("delta,value")
        for d, v in zip(data.deltas, data.values):
            lines.append(f"{_fmt(d)},{_fmt(v)}")
    return _atomic_write(path, "\n".join(lines) + "\n")


def ingest_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum CSV (``delta,value[,sigma]`` with header).

    Rows are sorted by detuning; duplicate detunings are rejected, and so
    is a non-finite number (``nan``, ``inf``), naming its line.  A
    per-point sigma column is collapsed to its RMS, since the reported
    noise scale is a single number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpectrumParseError(f"cannot read {path}: {exc}") from exc

    reader = csv.reader(text.splitlines())
    try:
        header = next(reader)
    except StopIteration:
        raise SpectrumParseError(f"{path}: empty file") from None
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["delta", "value"] or len(cols) > 3 or (len(cols) == 3 and cols[2] != "sigma"):
        raise SpectrumParseError(
            f"{path}: line 1: header must be 'delta,value' or 'delta,value,sigma', got {','.join(cols)}"
        )
    want = len(cols)

    rows: list[tuple[float, ...]] = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != want:
            raise SpectrumParseError(f"{path}: line {lineno}: expected {want} columns, got {len(row)}")
        try:
            numbers = tuple(float(cell) for cell in row)
        except ValueError as exc:
            raise SpectrumParseError(f"{path}: line {lineno}: {exc}") from exc
        for name, number in zip(cols, numbers):
            if not math.isfinite(number):
                raise SpectrumParseError(f"{path}: line {lineno}: {name} must be finite, got {number}")
        rows.append(numbers)

    if len(rows) < 5:
        raise SpectrumParseError(f"{path}: need at least 5 data rows, got {len(rows)}")
    rows.sort(key=lambda r: r[0])
    deltas = np.array([r[0] for r in rows])
    values = np.array([r[1] for r in rows])
    if np.any(np.diff(deltas) == 0):
        dup = float(deltas[np.argmax(np.diff(deltas) == 0)])
        raise SpectrumParseError(f"{path}: duplicate detuning {dup}")
    sigma_exp = None
    if want == 3:
        sigma_exp = float(math.sqrt(np.mean(np.square([r[2] for r in rows]))))
    return Spectrum(deltas=deltas, values=values, sigma_exp=sigma_exp, meta={"source": str(path)})


def _fit_result_dict(res: FitResult | None) -> dict[str, Any] | None:
    if res is None:
        return None
    p = res.params
    if isinstance(p, EitParams):
        params = {"c_plus": p.c_plus, "c_minus": p.c_minus, "g_plus": p.g_plus, "g_minus": p.g_minus}
    else:
        params = {"c": p.c, "g": p.g, "d0": p.d0}
    return {
        "model": "eit" if isinstance(p, EitParams) else "ats",
        "params": params,
        "ssr": res.ssr,
        "sigma_hat_sq": res.sigma_hat_sq,
        "n_points": res.n_points,
        "converged": res.converged,
        "n_starts_agreeing": res.n_starts_agreeing,
    }


def _selection_dict(report: SelectionReport) -> dict[str, Any]:
    return {
        "aic": report.aic,
        "akaike_weights": report.akaike_weights,
        "per_point_aic": report.per_point_aic,
        "per_point_weights": report.per_point_weights,
        "verdict": report.verdict.value,
        "inconclusive_margin": report.inconclusive_margin,
        "fit_failures": report.fit_failures,
    }


def _report_dict(report: Report) -> dict[str, Any]:
    out: dict[str, Any] = {
        "config": asdict(report.config),
        "version": report.version,
        "seed": report.seed,
        "outputs": list(report.outputs),
    }
    if report.fits is not None:
        out["fits"] = report.fits
    if report.selection is not None:
        out["selection"] = report.selection
    if report.summary is not None:
        out["summary"] = report.summary
    return out


def _fit_config(config: RunConfig) -> FitConfig:
    return FitConfig(
        max_iterations=config.max_iterations,
        n_starts=config.starts,
        seed=config.seed,
    )


def _noise_spec(config: RunConfig) -> NoiseSpec:
    n_needed = max(config.replicates, config.replicate + 1)
    return NoiseSpec(sigma=config.sigma, seed=config.seed, n_replicates=n_needed)


def _tla_params(config: RunConfig) -> TlaParams:
    return TlaParams(
        alpha=config.alpha,
        omega=config.omega,
        delta1=config.delta1,
        gamma_ab=config.gamma_ab,
        gamma_bc=config.gamma_bc,
    )


def _require(config: RunConfig, field: str) -> str:
    value = getattr(config, field)
    if not value:
        raise ValueError(f"command '{config.command}' requires --{field}")
    return value


def _write_sweep_csv(result: SweepResult, path: str | Path) -> str:
    lines = ["omega,w_ppt_eit,w_ppt_ats,w_akaike_eit,w_akaike_ats,fit_failures"]
    for i, x in enumerate(result.axis):
        lines.append(
            ",".join(
                [
                    _fmt(float(x)),
                    _fmt(result.per_point_weights[i, 0]),
                    _fmt(result.per_point_weights[i, 1]),
                    _fmt(result.akaike_weights[i, 0]),
                    _fmt(result.akaike_weights[i, 1]),
                    str(int(result.fit_failures[i])),
                ]
            )
        )
    return _atomic_write(path, "\n".join(lines) + "\n")


def _write_boundary_csv(result: SweepResult, path: str | Path) -> str:
    lines = ["gamma_bc,omega_crossover,transparency_depth"]
    for i, x in enumerate(result.axis):
        lines.append(
            ",".join([_fmt(float(x)), _fmt(float(result.boundary_omega[i])), _fmt(float(result.transparency[i]))])
        )
    return _atomic_write(path, "\n".join(lines) + "\n")


def _run_generate(config: RunConfig) -> Report:
    out_path = _require(config, "output")
    grid = _parse_range(config.grid, "--grid")
    data = absorption_profile(_tla_params(config), grid)
    if config.sigma > 0:
        data = add_noise(data, _noise_spec(config), config.replicate)
    written = write_spectrum(data, out_path)
    summary = {
        "n_points": data.n_points,
        "value_min": float(np.min(data.values)),
        "value_max": float(np.max(data.values)),
    }
    return Report(config=config, version=__version__, seed=config.seed, summary=summary, outputs=(written,))


def _run_fit(config: RunConfig) -> Report:
    data = ingest_spectrum(_require(config, "input"))
    cfg = _fit_config(config)
    kinds = {
        "eit": [ModelKind.EIT],
        "ats": [ModelKind.ATS],
        "both": [ModelKind.EIT, ModelKind.ATS],
    }.get(config.model)
    if kinds is None:
        raise ValueError(f"--model must be eit, ats, or both, got {config.model!r}")
    fits = {kind.value: _fit_result_dict(fit(kind, data, cfg)) for kind in kinds}
    return Report(config=config, version=__version__, seed=config.seed, fits=fits)


def _run_discriminate(config: RunConfig, data: Spectrum | None = None) -> Report:
    if data is None:
        data = ingest_spectrum(_require(config, "input"))
    report = discriminate(data, _fit_config(config), config.margin)
    return Report(
        config=config,
        version=__version__,
        seed=config.seed,
        fits={name: _fit_result_dict(res) for name, res in report.fits.items()},
        selection=_selection_dict(report),
    )


def _run_sweep(config: RunConfig) -> Report:
    out_path = _require(config, "output")
    omegas = _parse_range(config.omegas, "--omegas")
    grid = _parse_range(config.grid, "--grid")
    result = sweep_omega(
        config.gamma_ab,
        config.gamma_bc,
        _noise_spec(config),
        omegas,
        _fit_config(config),
        config.margin,
        grid,
    )
    written = _write_sweep_csv(result, out_path)
    summary = {"crossover": result.crossover, "n_axis_points": int(result.axis.size)}
    return Report(config=config, version=__version__, seed=config.seed, summary=summary, outputs=(written,))


def _run_boundary(config: RunConfig) -> Report:
    out_path = _require(config, "output")
    gbc_values = _parse_range(config.gbc, "--gbc")
    omegas = _parse_range(config.omegas, "--omegas")
    result = sweep_gbc_boundary(
        config.gamma_ab, gbc_values, _noise_spec(config), omegas, _fit_config(config), config.margin
    )
    written = _write_boundary_csv(result, out_path)
    summary = {
        "n_axis_points": int(result.axis.size),
        "boundary_min": float(np.nanmin(result.boundary_omega)),
        "boundary_max": float(np.nanmax(result.boundary_omega)),
    }
    return Report(config=config, version=__version__, seed=config.seed, summary=summary, outputs=(written,))


def _run_circuit(config: RunConfig) -> Report:
    grid = default_grid(*CIRCUIT_GRID)
    data = transmission_profile(CIRCUIT_PRESET, grid)
    outputs: tuple[str, ...] = ()
    if config.write_spectrum:
        outputs = (write_spectrum(data, config.write_spectrum),)
    base = _run_discriminate(config, data)
    preset = {
        "gamma_rel": CIRCUIT_PRESET.gamma_rel,
        "gamma_ab": CIRCUIT_PRESET.gamma_ab,
        "gamma_bc": CIRCUIT_PRESET.gamma_bc,
        "omega": CIRCUIT_PRESET.omega,
        "grid": f"{CIRCUIT_GRID[0]}:{CIRCUIT_GRID[1]}:{CIRCUIT_GRID[2]}",
        "units": "MHz (rates over 2*pi)",
    }
    return Report(
        config=config,
        version=__version__,
        seed=config.seed,
        fits=base.fits,
        selection=base.selection,
        summary={"preset": preset, "n_points": data.n_points},
        outputs=outputs,
    )


_COMMANDS = {
    "generate": _run_generate,
    "fit": _run_fit,
    "discriminate": _run_discriminate,
    "sweep": _run_sweep,
    "boundary": _run_boundary,
    "circuit": _run_circuit,
}


def run(config: RunConfig) -> Report:
    """Execute one resolved command; writes artifacts, returns the report."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        raise ValueError(f"unknown command {config.command!r}")
    return handler(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discriminator",
        description="Objective EIT-vs-ATS discrimination for absorption/transmission spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig(command="_")

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--gamma-ab", type=float, default=defaults.gamma_ab, help="probed-transition dephasing rate")
        p.add_argument("--gamma-bc", type=float, default=defaults.gamma_bc, help="two-photon dephasing rate")
        p.add_argument("--omega", type=float, default=defaults.omega, help="pump Rabi frequency")
        p.add_argument("--delta1", type=float, default=defaults.delta1, help="one-photon detuning")
        p.add_argument("--alpha", type=float, default=defaults.alpha, help="probe Rabi frequency (amplitude)")
        p.add_argument("--sigma", type=float, default=defaults.sigma, help="relative noise level")
        p.add_argument("--seed", type=int, default=defaults.seed, help="seed for noise and fit starts")
        p.add_argument("--replicate", type=int, default=defaults.replicate, help="noise replicate index")
        p.add_argument("--replicates", type=int, default=defaults.replicates, help="replicates to average in sweeps")
        p.add_argument("--starts", type=int, default=defaults.starts, help="multi-start count for the fitter")
        p.add_argument("--max-iterations", type=int, default=defaults.max_iterations, help="fitter iteration cap")
        p.add_argument("--margin", type=float, default=defaults.margin, help="inconclusive margin on weight gap")
        p.add_argument("--grid", default=defaults.grid, help="detuning grid lo:hi:step")
        p.add_argument("--omegas", default=defaults.omegas, help="pump sweep lo:hi:step")
        p.add_argument("--gbc", default=defaults.gbc, help="dephasing sweep lo:hi:step")
        p.add_argument("--model", default=defaults.model, choices=("eit", "ats", "both"), help="model(s) to fit")
        p.add_argument("--input", default=None, help="input spectrum CSV")
        p.add_argument("--output", default=None, help="output artifact path")
        p.add_argument("--write-spectrum", dest="write_spectrum", default=None, help="also dump the generated spectrum CSV")
        return p

    add("generate", "write a synthetic absorption spectrum")
    add("fit", "fit model(s) to a spectrum file")
    add("discriminate", "model-selection report for a spectrum file")
    add("sweep", "weights vs pump strength (CSV table)")
    add("boundary", "crossover pump strength vs two-photon dephasing (CSV table)")
    add("circuit", "driven-circuit transmission case study")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        gamma_ab=args.gamma_ab,
        gamma_bc=args.gamma_bc,
        omega=args.omega,
        delta1=args.delta1,
        alpha=args.alpha,
        gamma_rel=CIRCUIT_PRESET.gamma_rel,
        sigma=args.sigma,
        seed=args.seed,
        replicate=args.replicate,
        replicates=args.replicates,
        starts=args.starts,
        max_iterations=args.max_iterations,
        margin=args.margin,
        grid=args.grid,
        omegas=args.omegas,
        gbc=args.gbc,
        model=args.model,
        input=args.input,
        output=args.output,
        write_spectrum=args.write_spectrum,
    )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        report = run(config)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}, "config": asdict(config)}
        print(json.dumps(error, indent=2), file=sys.stderr)
        return 1
    report_dict = _report_dict(report)
    if config.command in ("fit", "discriminate", "circuit") and config.output:
        report_dict["outputs"] = report_dict["outputs"] + [config.output]
        _atomic_write(config.output, json.dumps(report_dict, indent=2) + "\n")
    print(json.dumps(report_dict, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
