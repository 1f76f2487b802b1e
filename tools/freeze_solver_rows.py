#!/usr/bin/env python3
"""Rewrite tests/data/solver_rows.json, the frozen per-row solver output.

``tests/test_fitter.py`` checks that every row ``_lm_run_batch`` returns
on the problems in its ``FROZEN_PROBLEMS`` is bit-identical to this
file, so refactors of the solver cannot move a fit unnoticed.  Rewrite
the file only with a change that moves fits on purpose, and say which
rows moved and why.

Run from the checkout root:  python tools/freeze_solver_rows.py
"""
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_fitter import FROZEN_PROBLEMS, solver_rows  # noqa: E402


def main() -> None:
    path = ROOT / "tests" / "data" / "solver_rows.json"
    blocks = []
    for name in FROZEN_PROBLEMS:
        rows = ",\n".join("    " + json.dumps(row) for row in solver_rows(name))
        blocks.append(f"  {json.dumps(name)}: [\n{rows}\n  ]")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
