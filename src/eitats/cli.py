"""Command-line front end: spectra in, reports and tables out.

Commands
--------
generate      write a synthetic absorption spectrum (optionally noisy)
fit           fit one or both models to a spectrum file
discriminate  full model-selection report for a spectrum file
sweep         weights vs pump strength, written as a CSV table
boundary      weight-crossing pump strength vs two-photon dephasing
circuit       preset: driven-circuit transmission case study

Each subcommand takes only the flags its handler reads (``_COMMANDS``);
argparse rejects any other.  Spectrum files are CSV with header
``delta,value`` or ``delta,value,sigma``.  Reports are JSON and echo the
command and every one of its flags, so re-running a report's config
reproduces it exactly.  All file writes are atomic (temp file + rename);
the exit status is 0 exactly when every requested artifact was written.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, NamedTuple

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
from .selection import DEFAULT_MARGIN, MAX_MARGIN, SelectionReport, discriminate
from .simulation import MAX_SIGMA, NoiseSpec, add_noise, sweep_gbc_boundary, sweep_omega

__all__ = ["RunConfig", "Report", "SpectrumParseError", "ingest_spectrum", "write_spectrum", "run", "main"]

# Circuit case-study preset: reported device rates (MHz over 2*pi) and the
# detuning window used for the theoretical curve.
CIRCUIT_PRESET = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
CIRCUIT_GRID = (-30.0, 30.0, 0.25)


class SpectrumParseError(ValueError):
    """A spectrum file could not be parsed."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation.

    Each command reads only its own flags (``_COMMANDS``); the other
    fields keep their defaults and are neither used nor echoed.
    """

    command: str
    gamma_ab: float = 1.0
    gamma_bc: float = 0.1
    omega: float = 0.0
    delta1: float = 0.0
    alpha: float = 1.0
    sigma: float = 0.0
    seed: int = 0
    replicate: int = 0
    replicates: int = 1
    starts: int = FitConfig.n_starts
    max_iterations: int = FitConfig.max_iterations
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
    try:
        os.replace(tmp, path)
    except OSError:
        tmp.unlink()
        raise
    return str(path)


def _write_table(path: str | Path, header: str, *columns) -> str:
    """CSV with one row per index of the equal-length numeric ``columns``."""
    lines = [header, *(",".join(_fmt(float(x)) for x in row) for row in zip(*columns))]
    return _atomic_write(path, "\n".join(lines) + "\n")


def write_spectrum(data: Spectrum, path: str | Path) -> str:
    """Write a spectrum as CSV; numbers keep full double precision."""
    if data.sigma_exp is None:
        return _write_table(path, "delta,value", data.deltas, data.values)
    return _write_table(path, "delta,value,sigma", data.deltas, data.values, np.full(data.n_points, data.sigma_exp))


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
        # RMS scaled by the largest magnitude, so that squaring can neither
        # overflow nor underflow; a constant column comes back exactly.
        sigmas = np.array([r[2] for r in rows])
        scale = float(np.max(np.abs(sigmas)))
        sigma_exp = scale * math.sqrt(np.mean(np.square(sigmas / scale))) if scale > 0 else 0.0
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
        "iterations": res.iterations,
        "stop": res.stop,
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


def _config_dict(config: RunConfig) -> dict[str, Any]:
    """The command and the flags it reads, in ``RunConfig`` field order."""
    flags = _COMMANDS[config.command].flags
    return {"command": config.command, **{name: getattr(config, name) for name in flags}}


def _report_json(report: Report) -> str:
    out: dict[str, Any] = {
        "config": _config_dict(report.config),
        "version": report.version,
        "outputs": list(report.outputs),
    }
    if report.fits is not None:
        out["fits"] = report.fits
    if report.selection is not None:
        out["selection"] = report.selection
    if report.summary is not None:
        out["summary"] = report.summary
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def _require(config: RunConfig, field: str) -> str:
    value = getattr(config, field)
    if not value:
        raise ValueError(f"command '{config.command}' requires --{field}")
    return value


def _run_generate(config: RunConfig, _: None, noise: NoiseSpec) -> Report:
    out_path = _require(config, "output")
    grid = _parse_range(config.grid, "--grid")
    params = TlaParams(
        alpha=config.alpha, omega=config.omega, delta1=config.delta1, gamma_ab=config.gamma_ab, gamma_bc=config.gamma_bc
    )
    data = absorption_profile(params, grid)
    if noise.sigma > 0:  # a noiseless spectrum is written without a sigma column
        data = add_noise(data, noise, config.replicate)
    written = write_spectrum(data, out_path)
    summary = {
        "n_points": data.n_points,
        "value_min": float(np.min(data.values)),
        "value_max": float(np.max(data.values)),
    }
    return Report(config=config, version=__version__, summary=summary, outputs=(written,))


def _run_fit(config: RunConfig, cfg: FitConfig, _: None) -> Report:
    data = ingest_spectrum(_require(config, "input"))
    kinds = list(ModelKind) if config.model == "both" else [ModelKind(config.model)]
    fits = {kind.value: _fit_result_dict(fit(kind, data, cfg)) for kind in kinds}
    return Report(config=config, version=__version__, fits=fits)


def _selection_fields(config: RunConfig, cfg: FitConfig, data: Spectrum) -> dict[str, Any]:
    """The ``fits`` and ``selection`` of a report discriminating ``data``."""
    report = discriminate(data, cfg, config.margin)
    return {
        "fits": {name: _fit_result_dict(res) for name, res in report.fits.items()},
        "selection": _selection_dict(report),
    }


def _run_discriminate(config: RunConfig, cfg: FitConfig, _: None) -> Report:
    data = ingest_spectrum(_require(config, "input"))
    return Report(config=config, version=__version__, **_selection_fields(config, cfg, data))


def _run_sweep(config: RunConfig, cfg: FitConfig, noise: NoiseSpec) -> Report:
    out_path = _require(config, "output")
    omegas = _parse_range(config.omegas, "--omegas")
    grid = _parse_range(config.grid, "--grid")
    result = sweep_omega(config.gamma_ab, config.gamma_bc, noise, omegas, cfg, config.margin, grid)
    written = _write_table(
        out_path,
        "omega,w_ppt_eit,w_ppt_ats,w_akaike_eit,w_akaike_ats,fit_failures",
        result.axis,
        *result.per_point_weights.T,
        *result.akaike_weights.T,
        result.fit_failures,
    )
    summary = {"crossover": result.crossover, "n_axis_points": int(result.axis.size)}
    return Report(config=config, version=__version__, summary=summary, outputs=(written,))


def _run_boundary(config: RunConfig, cfg: FitConfig, noise: NoiseSpec) -> Report:
    out_path = _require(config, "output")
    gbc_values = _parse_range(config.gbc, "--gbc")
    omegas = _parse_range(config.omegas, "--omegas")
    result = sweep_gbc_boundary(config.gamma_ab, gbc_values, noise, omegas, cfg, config.margin)
    written = _write_table(
        out_path, "gamma_bc,omega_crossover,transparency_depth", result.axis, result.boundary_omega, result.transparency
    )
    crossed = result.boundary_omega[~np.isnan(result.boundary_omega)]
    summary = {
        "n_axis_points": int(result.axis.size),
        "boundary_min": float(crossed.min()) if crossed.size else None,
        "boundary_max": float(crossed.max()) if crossed.size else None,
    }
    return Report(config=config, version=__version__, summary=summary, outputs=(written,))


def _run_circuit(config: RunConfig, cfg: FitConfig, _: None) -> Report:
    grid = default_grid(*CIRCUIT_GRID)
    data = transmission_profile(CIRCUIT_PRESET, grid)
    outputs: tuple[str, ...] = ()
    if config.write_spectrum:
        outputs = (write_spectrum(data, config.write_spectrum),)
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
        summary={"preset": preset, "n_points": data.n_points},
        outputs=outputs,
        **_selection_fields(config, cfg, data),
    )


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: reports must stay strict JSON, which has no nan or inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# Every flag once, as argparse keywords; its default is the RunConfig
# field of the same name, and ``--max-iterations`` sets ``max_iterations``.
_FLAGS: dict[str, dict[str, Any]] = {
    "gamma_ab": {"type": _finite_float, "help": "probed-transition dephasing rate"},
    "gamma_bc": {"type": _finite_float, "help": "two-photon dephasing rate"},
    "omega": {"type": _finite_float, "help": "pump Rabi frequency"},
    "delta1": {"type": _finite_float, "help": "one-photon detuning"},
    "alpha": {"type": _finite_float, "help": "probe Rabi frequency (amplitude)"},
    "sigma": {"type": _finite_float, "help": "relative noise level"},
    "seed": {"type": int, "help": "seed for noise and fit starts"},
    "replicate": {"type": int, "help": "noise replicate index"},
    "replicates": {"type": int, "help": "replicates to average in sweeps"},
    "starts": {"type": int, "help": "multi-start count for the fitter"},
    "max_iterations": {"type": int, "help": "fitter iteration cap"},
    "margin": {"type": _finite_float, "help": "inconclusive margin on weight gap"},
    "grid": {"help": "detuning grid lo:hi:step"},
    "omegas": {"help": "pump sweep lo:hi:step"},
    "gbc": {"help": "dephasing sweep lo:hi:step"},
    "model": {"choices": ("eit", "ats", "both"), "help": "model(s) to fit"},
    "input": {"help": "input spectrum CSV"},
    "output": {"help": "output artifact path (the JSON report for fit, discriminate and circuit)"},
    "write_spectrum": {"help": "also dump the generated spectrum CSV"},
}


# Lower bound of each integer flag, checked before any work starts.
_AT_LEAST = {"seed": 0, "replicate": 0, "replicates": 1, "starts": 1, "max_iterations": 1}
# Upper bound of each fractional flag, which lies in [0, bound): the
# library's own bounds, checked here too so a bad value fails by its flag.
_BELOW = {"sigma": MAX_SIGMA, "margin": MAX_MARGIN}


class _Command(NamedTuple):
    # Called with the config, its FitConfig if the command fits and its
    # NoiseSpec if it makes noise (else None), both built before any work.
    handler: Callable[[RunConfig, FitConfig | None, NoiseSpec | None], Report]
    help: str
    flags: tuple[str, ...]  # in RunConfig field order, the order they are echoed in


_COMMANDS = {
    "generate": _Command(
        _run_generate,
        "write a synthetic absorption spectrum",
        ("gamma_ab", "gamma_bc", "omega", "delta1", "alpha", "sigma", "seed", "replicate", "grid", "output"),
    ),
    "fit": _Command(
        _run_fit, "fit model(s) to a spectrum file", ("seed", "starts", "max_iterations", "model", "input", "output")
    ),
    "discriminate": _Command(
        _run_discriminate,
        "model-selection report for a spectrum file",
        ("seed", "starts", "max_iterations", "margin", "input", "output"),
    ),
    "sweep": _Command(
        _run_sweep,
        "weights vs pump strength (CSV table)",
        ("gamma_ab", "gamma_bc", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "grid",
         "omegas", "output"),
    ),
    "boundary": _Command(
        _run_boundary,
        "crossover pump strength vs two-photon dephasing (CSV table)",
        ("gamma_ab", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "omegas", "gbc",
         "output"),
    ),
    "circuit": _Command(
        _run_circuit,
        "driven-circuit transmission case study",
        ("seed", "starts", "max_iterations", "margin", "output", "write_spectrum"),
    ),
}


def run(config: RunConfig) -> Report:
    """Execute one resolved command; writes artifacts, returns the report.

    A flag value out of range, or a path to write whose directory does not
    exist, is rejected by its flag before any work starts.  For ``fit``,
    ``discriminate`` and ``circuit``, ``output`` receives the JSON report,
    which lists it among its outputs.
    """
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ValueError(f"unknown command {config.command!r}")
    for name in ("output", "write_spectrum"):
        path = getattr(config, name)
        if name in command.flags and path and not Path(path).parent.is_dir():
            raise ValueError(f"--{name.replace('_', '-')} {path}: directory {Path(path).parent} does not exist")
    for name, low in _AT_LEAST.items():
        if name in command.flags and getattr(config, name) < low:
            raise ValueError(f"--{name.replace('_', '-')} must be >= {low}, got {getattr(config, name)}")
    for name, high in _BELOW.items():
        if name in command.flags and not 0 <= getattr(config, name) < high:
            raise ValueError(f"--{name} must lie in [0, {high:g}), got {getattr(config, name)}")
    cfg = noise = None
    if "starts" in command.flags:
        cfg = FitConfig(max_iterations=config.max_iterations, n_starts=config.starts, seed=config.seed)
    if "sigma" in command.flags:
        n_replicates = config.replicates if "replicates" in command.flags else config.replicate + 1
        noise = NoiseSpec(sigma=config.sigma, seed=config.seed, n_replicates=n_replicates)
    report = command.handler(config, cfg, noise)
    if config.command in ("fit", "discriminate", "circuit") and config.output:
        report = replace(report, outputs=(*report.outputs, config.output))
        _atomic_write(config.output, _report_json(report))
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discriminator",
        description="Objective EIT-vs-ATS discrimination for absorption/transmission spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig(command="_")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            p.add_argument("--" + flag.replace("_", "-"), default=getattr(defaults, flag), **_FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    config = RunConfig(**vars(_build_parser().parse_args(argv)))
    try:
        text = _report_json(run(config))
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}, "config": _config_dict(config)}
        print(json.dumps(error, indent=2, allow_nan=False), file=sys.stderr)
        return 1
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
