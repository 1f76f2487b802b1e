"""In-memory spans around the calls the CLI makes into each eitats module.

The tracer replaces a public function at the name its caller looks it up
by (``eitats.simulation.discriminate``, not ``eitats.selection.discriminate``)
and puts the original back on exit.  A name that no longer exists is skipped,
so a call site removed by a later change reads as zero calls.

Every span keeps its parent and the id of the spectrum it works on.
Functions that return a spectrum mint a new id for the returned object;
functions that take one inherit its id, or their parent's.
"""
from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# (module, attribute its callers look up, span name).  The layer is the
# span name up to the first dot; cli.ingest is reported apart from cli.
PATCH_POINTS = (
    ("eitats.cli", "ingest_spectrum", "cli.ingest"),
    ("eitats.cli", "transmission_profile", "lineshape.profile"),
    ("eitats.cli", "sweep_omega", "simulation.sweep"),
    ("eitats.cli", "discriminate", "selection.discriminate"),
    ("eitats.simulation", "absorption_profile", "lineshape.profile"),
    ("eitats.simulation", "add_noise", "simulation.add_noise"),
    ("eitats.simulation", "discriminate", "selection.discriminate"),
    ("eitats.selection", "fit", "fitter.fit"),
)
PRODUCERS = frozenset({"cli.ingest", "lineshape.profile", "simulation.add_noise"})
MODELS = ("eit", "ats")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    spectrum: int | None
    end: float = 0.0
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class FitRecord:
    """One call into the fitter, as its caller saw it."""

    span: int
    spectrum: int | None
    model: str
    seconds: float
    n_starts: int
    ssr: float | None
    converged: bool | None
    n_starts_agreeing: int | None
    error: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fits: list[FitRecord] = []
        self._stack: list[int] = []
        self._spectra: dict[int, tuple[Any, int]] = {}
        self._next_spectrum = 0

    def wrap(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, args, kwargs, None, exc)
                raise
            self._close(index, args, kwargs, result, None)
            return result

        return traced

    @contextmanager
    def patched(self) -> Iterator["Tracer"]:
        """Wrap every patch point that exists; restore all of them on exit."""
        saved = []
        try:
            for module_name, attr, name in PATCH_POINTS:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)
            # Spectrum ids hold references; release them between passes.
            self._spectra.clear()

    def _spectrum_of(self, args: tuple, kwargs: dict) -> int | None:
        for value in (*args, *kwargs.values()):
            entry = self._spectra.get(id(value))
            if entry is not None and entry[0] is value:
                return entry[1]
        return None

    def _open(self, name: str, args: tuple, kwargs: dict) -> int:
        parent = self._stack[-1] if self._stack else None
        spectrum = self._spectrum_of(args, kwargs)
        if spectrum is None and parent is not None:
            spectrum = self.spans[parent].spectrum
        self.spans.append(Span(name, time.perf_counter(), parent, spectrum))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int, args: tuple, kwargs: dict, result: Any, error: BaseException | None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if error is not None:
            span.error = type(error).__name__
        if span.name in PRODUCERS and result is not None:
            span.spectrum = self._next_spectrum
            self._spectra[id(result)] = (result, self._next_spectrum)
            self._next_spectrum += 1
        if span.name == "fitter.fit":
            self.fits.append(_fit_record(index, span, args, kwargs, result))


def _fit_record(index: int, span: Span, args: tuple, kwargs: dict, result: Any) -> FitRecord:
    model = args[0] if args else kwargs.get("model")
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg")
    if cfg is None:
        from eitats.fitter import FitConfig

        cfg = FitConfig()
    return FitRecord(
        span=index,
        spectrum=span.spectrum,
        model=getattr(model, "value", str(model)),
        seconds=span.seconds,
        n_starts=int(cfg.n_starts),
        ssr=getattr(result, "ssr", None),
        converged=getattr(result, "converged", None),
        n_starts_agreeing=getattr(result, "n_starts_agreeing", None),
        error=span.error,
    )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, n_passes: int) -> dict[str, float]:
    """Per-pass counts and times of each layer, and fit statistics per model.

    Counts and times are totals divided by the number of traced passes;
    ``*_p50_s`` are medians over single calls.  Self times of all layers
    add up to the time spent inside ``cli.main``.
    """
    spans = tracer.spans
    own = self_times(spans)

    def total(values) -> float:
        return sum(values) / n_passes

    def named(prefix: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s.name == prefix or s.name.startswith(prefix + ".")]

    discriminate = named("selection.discriminate")
    add_noise = named("simulation.add_noise")
    profile = named("lineshape.profile")
    out = {
        "cli.calls": total(1 for i in named("cli.main")),
        "cli.ingest_s": total(own[i] for i in named("cli.ingest")),
        "cli.self_s": total(own[i] for i in named("cli.main")),
        "selection.discriminate_calls": total(1 for i in discriminate),
        "selection.discriminate_p50_s": _p50([spans[i].seconds for i in discriminate]),
        "selection.self_s": total(own[i] for i in discriminate),
        "simulation.add_noise_calls": total(1 for i in add_noise),
        "simulation.add_noise_s": total(spans[i].seconds for i in add_noise),
        "simulation.self_s": total(own[i] for i in named("simulation")),
        "lineshape.profile_calls": total(1 for i in profile),
        "lineshape.profile_s": total(spans[i].seconds for i in profile),
    }
    for model in MODELS:
        fits = [f for f in tracer.fits if f.model == model]
        done = [f for f in fits if f.error is None]
        out[f"fitter.fit_calls.{model}"] = total(1 for f in fits)
        out[f"fitter.fit_s.{model}"] = total(f.seconds for f in fits)
        out[f"fitter.fit_p50_s.{model}"] = _p50([f.seconds for f in fits])
        out[f"fitter.starts.{model}"] = total(f.n_starts for f in fits)
        out[f"fitter.converged_ratio.{model}"] = sum(bool(f.converged) for f in done) / len(done) if done else 0.0
        out[f"fitter.agreeing_mean.{model}"] = statistics.fmean(f.n_starts_agreeing or 0 for f in done) if done else 0.0
        out[f"fitter.ssr_total.{model}"] = total(f.ssr or 0.0 for f in done)
        out[f"fitter.failures.{model}"] = total(1 for f in fits if f.error is not None)
    out["trace.spectra"] = total(1 for _ in {spans[i].spectrum for i in discriminate})
    out["trace.self_sum_s"] = total(own)
    return out
