#!/usr/bin/env python3
"""Rewrite the three frozen records with the builders the tests check them by.

- ``tests/data/solver_rows.json``: every row ``_lm_run_batch`` returns on
  the problems in ``FROZEN_PROBLEMS`` (``tests/test_fitter.py``);
- ``tests/data/cli_reports.json``: the exit code, stdout, stderr and every
  written file of each invocation in ``GOLDEN_ARGVS`` (``tests/test_cli.py``),
  run in a fresh directory with help wrapped at 80 columns;
- ``COUNTS.json``: the solver's work on every shape of
  ``tools/solver_counts.py``.

For each record it prints what moved against the file it replaces: the
rows that moved per frozen problem, the invocations that moved by argv,
and each changed ``COUNTS.json`` field as old -> new.

Rewrite them only with a change that moves fits, reports or work counts
on purpose, and say which entries moved and why.  The frozen bits repeat
on every x86-64 host, below x86-64-v3 too, whatever OpenBLAS kernel or
numpy SIMD target it gets (``tests/test_other_hosts.py`` imitates two
other classes): the circuit curve is formed in real arithmetic and the
solver calls no LAPACK routine.  Other architectures are untested.

Run from the checkout root:  python tools/refreeze.py
"""
import json
import os
import shlex
import sys
import tempfile
from itertools import zip_longest
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


def rows_moved(old, new):
    for name, rows in new.items():
        moved = sum(a != b for a, b in zip_longest(old.get(name, []), rows))
        yield f"{name}: {moved} of {len(rows)} rows moved"


def invocations_moved(old, new):
    before = {tuple(record["argv"]): record for record in old}
    moved = [record["argv"] for record in new if before.get(tuple(record["argv"])) != record]
    yield f"{len(moved)} of {len(new)} invocations moved"
    yield from (f"moved: {shlex.join(argv)}" for argv in moved)


def fields_moved(old, new):
    changes = [
        f"{shape} {field}: {old.get(shape, {}).get(field)} -> {value}"
        for shape, counts in new.items()
        for field, value in counts.items()
        if old.get(shape, {}).get(field) != value
    ]
    return changes or ["no field moved"]


def main() -> None:
    records = {
        SOLVER_ROWS: (solver_rows_text, rows_moved, {}),
        GOLDEN: (cli_reports_text, invocations_moved, []),
        COUNTS: (counts_text, fields_moved, {}),
    }
    for path, (build, moved, empty) in records.items():
        old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else empty
        text = build()
        path.write_text(text, encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
        for line in moved(old, json.loads(text)):
            print(f"  {line}")


if __name__ == "__main__":
    main()
