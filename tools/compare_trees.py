#!/usr/bin/env python3
"""Time two source trees against each other on one benchmark workload, in one process.

    python tools/compare_trees.py PARENT CHANGE --workload sweep

PARENT and CHANGE are checkouts, each with ``src/eitats``.  Both packages
are imported into this process under module names of their own, and the
workload's benchmark CLI calls (``perfbench/workloads.py``, reading this
checkout's fixture) run at pass seeds 1841000-1841039, the two trees
interleaved call by call, with the tree that goes first alternating.  It
prints each tree's median ``process_time`` per call, the median of the
per-call ratios CHANGE/PARENT, the calls each tree ran faster, and the
calls whose reports are byte-identical.  It also prints each tree's
trial ``_profile`` calls and ``_damped_step`` calls summed over the
compared calls, counted by ``tools/solver_counts.py``'s probe on that
tree's ``fitter``, so a speed difference can be traced to the passes
that made it; the probe's few microseconds a pass fall on both trees.

Interleaving puts both trees on the same drift of a shared machine's
speed, which separate invocations do not, so it resolves a change of a
few per cent that one ``tools/solver_counts.py --pass-cost`` invocation
cannot.  Run it with PARENT and a copy of PARENT for the control: how far
the ratio reads from 1 with no change.  It is a probe, not a speed
record: a speed claim still rests on the benchmark's pairs.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tools")]

import solver_counts  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(1841000, 1841040)


def load_tree(checkout: Path, name: str):
    """Import ``checkout``'s ``src/eitats`` as the package ``name`` and return its ``cli`` module."""
    init = checkout / "src" / "eitats" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"{checkout}: no src/eitats/__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run(cli, argv: list[str]) -> tuple[float, str]:
    """Process seconds and stdout of one CLI call; a failing call stops the comparison."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.process_time()
        code = cli.main(argv)
        spent = time.process_time() - start
    if code:
        raise SystemExit(f"`{' '.join(argv)}` exited {code}: {err.getvalue().strip()[:400]}")
    return spent, out.getvalue()


def compare(clis: list, calls: list[list[str]]) -> tuple[list[list[float]], int]:
    """Each tree's process seconds per call, the trees alternating first, and the calls with equal reports."""
    times, equal = [[], []], 0
    for k, argv in enumerate(calls):
        order = (0, 1) if k % 2 == 0 else (1, 0)
        reports = [None, None]
        for side in order:
            spent, reports[side] = run(clis[side], argv)
            times[side].append(spent)
        equal += reports[0] == reports[1]
    return times, equal


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent tree")
    parser.add_argument("change", type=Path, help="checkout of the changed tree")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    args = parser.parse_args(argv)
    names = ("eitats_parent", "eitats_change")
    clis = [load_tree(path.resolve(), name) for path, name in zip((args.parent, args.change), names)]
    probes = [solver_counts.Probe(importlib.import_module(f"{name}.fitter")) for name in names]
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.WORKLOADS[args.workload](ROOT, Path(tmp))
        for call in workload.calls(0):  # warm-up, untimed
            for cli in clis:
                run(cli, call.argv)
        calls = [call.argv for seed in SEEDS for call in workload.calls(seed)]
        with probes[0], probes[1]:
            (parent, change), equal = compare(clis, calls)
    ratios = [c / p for p, c in zip(parent, change)]
    won = sum(c < p for p, c in zip(parent, change))
    print(f"workload {args.workload}: {len(calls)} calls per tree, pass seeds {SEEDS[0]}-{SEEDS[-1]}")
    for label, path, times, probe in zip(("parent", "change"), (args.parent, args.change), (parent, change), probes):
        print(f"{label}  {path}  median {statistics.median(times) * 1e3:.2f} ms")
        print(f"{label}  {probe.passes} trial _profile calls, {probe.steps} _damped_step calls")
    print(f"change/parent: median ratio {statistics.median(ratios):.4f}, change faster in {won} of {len(calls)} calls")
    print(f"reports byte-identical in {equal} of {len(calls)} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
