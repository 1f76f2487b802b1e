#!/usr/bin/env python3
"""Rewrite the three frozen records with the builders the tests check them by.

- ``tests/data/solver_rows.json``: every row ``_lm_run_batch`` returns on
  the problems in ``FROZEN_PROBLEMS`` (``tests/test_fitter.py``);
- ``tests/data/cli_reports.json``: the exit code, stdout, stderr and every
  written file of each invocation in ``GOLDEN_ARGVS`` (``tests/test_cli.py``),
  run in a fresh directory with help wrapped at 80 columns;
- ``COUNTS.json``: the solver's work on every shape of
  ``tools/solver_counts.py``.

Rewrite them only with a change that moves fits, reports or work counts
on purpose, and say which entries moved and why (``git diff`` shows them).
The frozen bits repeat on x86-64-v3 hosts and later, whatever OpenBLAS
kernel or numpy SIMD target the host gets (``tests/test_other_hosts.py``
checks one other class).  Below x86-64-v3 they do not: there even the
noisy fixture's recipe test fails.  Other architectures are untested,
and ``_damped_step``'s zero-pivot fallback still calls LAPACK.

Run from the checkout root:  python tools/refreeze.py
"""
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "tools")]

import solver_counts  # noqa: E402
from test_cli import GOLDEN, golden_transcript  # noqa: E402
from test_fitter import FROZEN_PROBLEMS, solver_rows  # noqa: E402

SOLVER_ROWS = ROOT / "tests" / "data" / "solver_rows.json"
COUNTS = ROOT / "COUNTS.json"


def solver_rows_text() -> str:
    blocks = []
    for name in FROZEN_PROBLEMS:
        rows = ",\n".join("    " + json.dumps(row) for row in solver_rows(name))
        blocks.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def cli_reports_text() -> str:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            records = golden_transcript()
        finally:
            os.chdir(ROOT)
    return json.dumps(records, indent=1) + "\n"


def counts_text() -> str:
    counts = {name: solver_counts.count(shape) for name, shape in solver_counts.SHAPES.items()}
    return json.dumps(counts, indent=1) + "\n"


def main() -> None:
    records = {SOLVER_ROWS: solver_rows_text, GOLDEN: cli_reports_text, COUNTS: counts_text}
    for path, build in records.items():
        path.write_text(build(), encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
