"""Command-line front end: spectra in, reports and tables out.

Commands
--------
generate      write a synthetic absorption spectrum (optionally noisy)
fit           fit one or both models to a spectrum file
discriminate  full model-selection report for a spectrum file
sweep         weights vs pump strength, written as a CSV table
boundary      weight-crossing pump strength vs two-photon dephasing
circuit       preset: driven-circuit transmission case study

Each flag is declared once, on its ``RunConfig`` field.  Each subcommand
takes only the flags its handler reads (``_COMMANDS``); argparse rejects
any other.  Spectrum files are CSV with header ``delta,value`` or
``delta,value,sigma``.  Reports are JSON and echo the command and every
one of its flags, so re-running a report's config reproduces it exactly;
their ``fits`` and ``selection`` are the fields of ``FitResult`` and
``SelectionReport``.  All file writes are atomic (temp file + rename);
the exit status is 0 exactly when every requested artifact was written.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, NamedTuple

import numpy as np

from . import __version__
from .fitter import _SEED_LIMIT, FitConfig, FitResult, fit
from .lineshape import (
    CircuitParams,
    Spectrum,
    TlaParams,
    absorption_profile,
    default_grid,
    transmission_profile,
)
from .models import ModelKind
from .selection import DEFAULT_MARGIN, MAX_MARGIN, MAX_SIGMA, discriminate
from .simulation import NoiseSpec, add_noise, sweep_gbc_boundary, sweep_omega

__all__ = ["RunConfig", "Report", "SpectrumParseError", "ingest_spectrum", "write_spectrum", "run", "main"]

# Circuit case-study preset: reported device rates (MHz over 2*pi) and the
# detuning window used for the theoretical curve.
CIRCUIT_PRESET = CircuitParams(gamma_rel=11.0, gamma_ab=7.2, gamma_bc=0.96 * 7.2, omega=6.0)
CIRCUIT_GRID = (-30.0, 30.0, 0.25)


class SpectrumParseError(ValueError):
    """A spectrum file could not be parsed."""


def _finite_float(text: str) -> float:
    """argparse type for real-valued flags: reports must stay strict JSON, which has no nan or inf."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _flag(default: Any, help: str, *, at_least=None, at_most=None, below=None, **argparse_kw: Any):
    """A ``RunConfig`` field that is also a flag: ``argparse_kw`` (type or
    choices) and ``help`` go to argparse; ``run`` rejects a value outside
    ``[at_least, at_most]`` or ``[0, below)`` by its flag before any work."""
    metadata = {"argparse": {**argparse_kw, "help": help}, "at_least": at_least, "at_most": at_most, "below": below}
    return field(default=default, metadata=metadata)


def _option(name: str) -> str:
    return "--" + name.replace("_", "-")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved invocation; every field but ``command`` is a flag.

    Each command reads only its own flags (``_COMMANDS``); the other
    fields keep their defaults and are neither used nor echoed.  The
    defaults and upper bounds are the library's own, the bounds checked
    here too so that a bad value fails by its flag.
    """

    command: str
    gamma_ab: float = _flag(TlaParams.gamma_ab, "probed-transition dephasing rate", type=_finite_float)
    gamma_bc: float = _flag(TlaParams.gamma_bc, "two-photon dephasing rate", type=_finite_float)
    omega: float = _flag(TlaParams.omega, "pump Rabi frequency", type=_finite_float)
    delta1: float = _flag(TlaParams.delta1, "one-photon detuning", type=_finite_float)
    alpha: float = _flag(TlaParams.alpha, "probe Rabi frequency (amplitude)", type=_finite_float)
    sigma: float = _flag(NoiseSpec.sigma, "relative noise level", type=_finite_float, below=MAX_SIGMA)
    seed: int = _flag(NoiseSpec.seed, "seed for noise and fit starts", type=int, at_least=0, at_most=_SEED_LIMIT - 1)
    replicate: int = _flag(0, "noise replicate index", type=int, at_least=0, at_most=_SEED_LIMIT - 1)
    replicates: int = _flag(
        NoiseSpec.n_replicates, "replicates to average in sweeps", type=int, at_least=1, at_most=_SEED_LIMIT
    )
    starts: int = _flag(FitConfig.n_starts, "multi-start count for the fitter", type=int, at_least=1)
    max_iterations: int = _flag(FitConfig.max_iterations, "fitter iteration cap", type=int, at_least=1)
    margin: float = _flag(DEFAULT_MARGIN, "inconclusive margin on weight gap", type=_finite_float, below=MAX_MARGIN)
    grid: str = _flag("-5:5:0.05", "detuning grid lo:hi:step")
    omegas: str = _flag("0.05:1.5:0.01", "pump sweep lo:hi:step")
    gbc: str = _flag("0.02:0.3:0.02", "dephasing sweep lo:hi:step")
    model: str = _flag("both", "model(s) to fit", choices=("eit", "ats", "both"))
    input: str | None = _flag(None, "input spectrum CSV")
    output: str | None = _flag(None, "output artifact path (the JSON report for fit, discriminate and circuit)")
    write_spectrum: str | None = _flag(None, "also dump the generated spectrum CSV")


@dataclass(frozen=True)
class Report:
    """Self-contained record of one run."""

    config: RunConfig
    fits: dict[str, Any] | None = None
    selection: dict[str, Any] | None = None
    summary: dict[str, Any] | None = None
    outputs: tuple[str, ...] = ()


def _parse_range(text: str, name: str) -> np.ndarray:
    try:
        lo, hi, step = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise ValueError(f"{name} must be lo:hi:step, got {text!r}") from exc
    try:
        return default_grid(lo, hi, step)
    except ValueError as exc:
        raise ValueError(f"{name} {text}: {exc}") from exc


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str | Path, text: str) -> str:
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
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


def _records(path: Path, text: str):
    """Each CSV record of ``text`` with its line number.

    A record that spans lines, through a line break inside quotes, is
    rejected at its first line: every line after it would be misnumbered.
    So is one the CSV reader refuses (a field over its size limit).
    """
    reader = csv.reader(text.splitlines(keepends=True))  # with the breaks kept, line_num counts lines
    lineno = 0
    try:
        for lineno, row in enumerate(reader, start=1):
            if reader.line_num > lineno:
                raise SpectrumParseError(f"{path}: line {lineno}: a quoted field runs on to line {reader.line_num}")
            yield lineno, row
    except csv.Error as exc:
        raise SpectrumParseError(f"{path}: line {lineno + 1}: {exc}") from exc


def ingest_spectrum(path: str | Path) -> Spectrum:
    """Read a spectrum CSV (``delta,value[,sigma]`` with header).

    Each line is checked as it is read, and the first bad one is named: a
    line of the wrong width, a cell that is not a number, a non-finite
    number (``nan``, ``inf``) or a negative sigma, a quoted field that runs
    on to the next line, and bytes that are not UTF-8.  Rows are sorted by
    detuning, and duplicate detunings are rejected.  A per-point sigma
    column is collapsed to its RMS, since the reported noise scale is a
    single number.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")  # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
    except OSError as exc:
        raise SpectrumParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # exc.object and exc.start both begin after a byte-order mark; the
        # bad byte's line is the last of the good bytes before it plus one.
        lineno = len((exc.object[: exc.start] + b".").decode().splitlines())
        raise SpectrumParseError(f"{path}: line {lineno}: not UTF-8 text ({exc.reason})") from exc

    records = _records(path, text)
    _, header = next(records, (None, None))
    if header is None:
        raise SpectrumParseError(f"{path}: empty file")
    cols = [c.strip().lower() for c in header]
    if cols[:2] != ["delta", "value"] or len(cols) > 3 or (len(cols) == 3 and cols[2] != "sigma"):
        raise SpectrumParseError(
            f"{path}: line 1: header must be 'delta,value' or 'delta,value,sigma', got {','.join(cols)}"
        )

    table = []
    for lineno, row in records:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(cols):
            raise SpectrumParseError(f"{path}: line {lineno}: expected {len(cols)} columns, got {len(row)}")
        try:
            cells = [float(cell) for cell in row]
        except ValueError as exc:
            raise SpectrumParseError(f"{path}: line {lineno}: {exc}") from exc
        for name, cell in zip(cols, cells):
            if not math.isfinite(cell) or (name == "sigma" and cell < 0):
                rule = "must be >= 0" if math.isfinite(cell) else "must be finite"
                raise SpectrumParseError(f"{path}: line {lineno}: {name} {rule}, got {cell}")
        table.append(cells)
    if len(table) < 5:
        raise SpectrumParseError(f"{path}: need at least 5 data rows, got {len(table)}")
    table = np.array(table)
    deltas, values, *sigmas = table[np.argsort(table[:, 0], kind="stable")].T.copy()
    if np.any(np.diff(deltas) == 0):
        dup = float(deltas[np.argmax(np.diff(deltas) == 0)])
        raise SpectrumParseError(f"{path}: duplicate detuning {dup}")
    sigma_exp = None
    if sigmas:
        # RMS scaled by the largest magnitude, so that squaring can neither
        # overflow nor underflow; a constant column comes back exactly.
        sigmas = sigmas[0]
        scale = float(np.max(np.abs(sigmas)))
        sigma_exp = scale * math.sqrt(np.mean(np.square(sigmas / scale))) if scale > 0 else 0.0
    return Spectrum(deltas=deltas, values=values, sigma_exp=sigma_exp)


def _config_dict(config: RunConfig) -> dict[str, Any]:
    """The command and the flags it reads, in ``RunConfig`` field order."""
    flags = _COMMANDS[config.command].flags
    return {"command": config.command, **{f.name: getattr(config, f.name) for f in fields(config) if f.name in flags}}


def _report_json(report: Report) -> str:
    out: dict[str, Any] = {
        "config": _config_dict(report.config),
        "version": __version__,
        "outputs": list(report.outputs),
    }
    if report.fits is not None:
        out["fits"] = report.fits
    if report.selection is not None:
        out["selection"] = report.selection
    if report.summary is not None:
        out["summary"] = report.summary
    return json.dumps(out, indent=2, allow_nan=False) + "\n"


def _require(config: RunConfig, name: str) -> str:
    value = getattr(config, name)
    if not value:
        raise ValueError(f"command '{config.command}' requires {_option(name)}")
    return value


def _run_generate(config: RunConfig, _: None, noise: NoiseSpec) -> dict[str, Any]:
    out_path = _require(config, "output")
    grid = _parse_range(config.grid, "--grid")
    data = absorption_profile(TlaParams(**{f.name: getattr(config, f.name) for f in fields(TlaParams)}), grid)
    if noise.sigma > 0:  # a noiseless spectrum is written without a sigma column
        data = add_noise(data, noise, config.replicate)
    written = write_spectrum(data, out_path)
    summary = {
        "n_points": data.n_points,
        "value_min": float(np.min(data.values)),
        "value_max": float(np.max(data.values)),
    }
    return {"summary": summary, "outputs": (written,)}


def _fits_dict(fits: dict[str, FitResult | None]) -> dict[str, Any]:
    return {name: None if res is None else {"model": name, **asdict(res)} for name, res in fits.items()}


def _run_fit(config: RunConfig, cfg: FitConfig, _: None) -> dict[str, Any]:
    data = ingest_spectrum(_require(config, "input"))
    kinds = list(ModelKind) if config.model == "both" else [ModelKind(config.model)]
    return {"fits": _fits_dict({kind.value: fit(kind, data, cfg) for kind in kinds})}


def _selection_fields(config: RunConfig, cfg: FitConfig, data: Spectrum) -> dict[str, Any]:
    """The ``fits`` and ``selection`` of a report discriminating ``data``."""
    report = discriminate(data, cfg, config.margin)
    selection = {f.name: getattr(report, f.name) for f in fields(report) if f.name != "fits"}
    selection["verdict"] = report.verdict.value  # keeps its place in field order
    return {"fits": _fits_dict(report.fits), "selection": selection}


def _run_discriminate(config: RunConfig, cfg: FitConfig, _: None) -> dict[str, Any]:
    data = ingest_spectrum(_require(config, "input"))
    return _selection_fields(config, cfg, data)


def _run_sweep(config: RunConfig, cfg: FitConfig, noise: NoiseSpec) -> dict[str, Any]:
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
    return {"summary": summary, "outputs": (written,)}


def _run_boundary(config: RunConfig, cfg: FitConfig, noise: NoiseSpec) -> dict[str, Any]:
    out_path = _require(config, "output")
    gbc_values = _parse_range(config.gbc, "--gbc")
    if gbc_values[0] <= 0.0:
        raise ValueError(f"--gbc {config.gbc}: each value must be above 0")
    if gbc_values[-1] >= config.gamma_ab:
        raise ValueError(f"--gbc {config.gbc}: each value must be below --gamma-ab {config.gamma_ab}")
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
    return {"summary": summary, "outputs": (written,)}


def _run_circuit(config: RunConfig, cfg: FitConfig, _: None) -> dict[str, Any]:
    data = transmission_profile(CIRCUIT_PRESET, default_grid(*CIRCUIT_GRID))
    outputs = (write_spectrum(data, config.write_spectrum),) if config.write_spectrum else ()
    preset = {**asdict(CIRCUIT_PRESET), "grid": ":".join(map(str, CIRCUIT_GRID)), "units": "MHz (rates over 2*pi)"}
    summary = {"preset": preset, "n_points": data.n_points}
    return {"summary": summary, "outputs": outputs, **_selection_fields(config, cfg, data)}


class _Command(NamedTuple):
    # Called with the config, its FitConfig if the command fits and its
    # NoiseSpec if it makes noise (else None), both built before any work;
    # returns the report's payload (fits, selection, summary, outputs).
    handler: Callable[[RunConfig, FitConfig | None, NoiseSpec | None], dict[str, Any]]
    help: str
    flags: frozenset[str]


_COMMANDS = {
    "generate": _Command(
        _run_generate,
        "write a synthetic absorption spectrum",
        frozenset({"gamma_ab", "gamma_bc", "omega", "delta1", "alpha", "sigma", "seed", "replicate", "grid", "output"}),
    ),
    "fit": _Command(
        _run_fit,
        "fit model(s) to a spectrum file",
        frozenset({"seed", "starts", "max_iterations", "model", "input", "output"}),
    ),
    "discriminate": _Command(
        _run_discriminate,
        "model-selection report for a spectrum file",
        frozenset({"seed", "starts", "max_iterations", "margin", "input", "output"}),
    ),
    "sweep": _Command(
        _run_sweep,
        "weights vs pump strength (CSV table)",
        frozenset({"gamma_ab", "gamma_bc", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "grid",
                   "omegas", "output"}),
    ),
    "boundary": _Command(
        _run_boundary,
        "crossover pump strength vs two-photon dephasing (CSV table)",
        frozenset({"gamma_ab", "sigma", "seed", "replicates", "starts", "max_iterations", "margin", "omegas", "gbc",
                   "output"}),
    ),
    "circuit": _Command(
        _run_circuit,
        "driven-circuit transmission case study",
        frozenset({"seed", "starts", "max_iterations", "margin", "output", "write_spectrum"}),
    ),
}


def _check_paths(config: RunConfig, flags: frozenset[str]) -> None:
    """Reject a path to write that is a directory, lies in a directory that
    does not exist, or names the same file as another path flag."""
    paths = {name: getattr(config, name) for name in ("input", "output", "write_spectrum")}
    paths = {name: text for name, text in paths.items() if name in flags and text}
    for name, text in paths.items():
        if name == "input":
            continue
        path = Path(text)
        if path.is_dir():
            raise ValueError(f"{_option(name)} {text}: is a directory")
        if not path.parent.is_dir():
            raise ValueError(f"{_option(name)} {text}: directory {path.parent} does not exist")
        for other, other_text in paths.items():
            if other != name and Path(other_text).resolve() == path.resolve():
                raise ValueError(f"{_option(name)} {text}: same file as {_option(other)}")


def run(config: RunConfig) -> Report:
    """Execute one resolved command; writes artifacts, returns the report.

    A flag value out of range, or a path to write that is a directory, lies
    in a directory that does not exist or names the same file as another
    path flag, is rejected by its flag before any work starts.  For
    ``fit``, ``discriminate`` and ``circuit``, ``output`` receives the JSON
    report, which lists it among its outputs.
    """
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ValueError(f"unknown command {config.command!r}")
    _check_paths(config, command.flags)
    for f in fields(RunConfig):
        if f.name not in command.flags:
            continue
        value = getattr(config, f.name)
        low, high, below = (f.metadata[key] for key in ("at_least", "at_most", "below"))
        if low is not None and value < low:
            raise ValueError(f"{_option(f.name)} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ValueError(f"{_option(f.name)} must be <= {high}, got {value}")
        if below is not None and not 0 <= value < below:
            raise ValueError(f"{_option(f.name)} must lie in [0, {below:g}), got {value}")
    cfg = noise = None
    if "starts" in command.flags:
        cfg = FitConfig(max_iterations=config.max_iterations, n_starts=config.starts, seed=config.seed)
    if "sigma" in command.flags:
        n_replicates = config.replicates if "replicates" in command.flags else config.replicate + 1
        noise = NoiseSpec(sigma=config.sigma, seed=config.seed, n_replicates=n_replicates)
    report = Report(config=config, **command.handler(config, cfg, noise))
    if config.command in ("fit", "discriminate", "circuit") and config.output:
        report = replace(report, outputs=(*report.outputs, config.output))
        _atomic_write(config.output, _report_json(report))
    return report


@functools.cache  # built on the first call, not at import; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discriminator",
        description="Objective EIT-vs-ATS discrimination for absorption/transmission spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for f in fields(RunConfig):
            if f.name in command.flags:
                p.add_argument(_option(f.name), default=f.default, **f.metadata["argparse"])
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
