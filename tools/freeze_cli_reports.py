#!/usr/bin/env python3
"""Rewrite tests/data/cli_reports.json, the frozen CLI transcript.

``tests/test_cli.py`` runs every invocation in its ``GOLDEN_ARGVS`` and
checks that the exit code, stdout, stderr and every written file match
this file byte for byte, so refactors of the CLI cannot change a report
unnoticed.  Rewrite the file only with a change that alters reports on
purpose, and say which entries moved and why.

Run from the checkout root:  python tools/freeze_cli_reports.py
"""
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_cli import GOLDEN, golden_transcript  # noqa: E402


def main() -> None:
    os.environ["COLUMNS"] = "80"  # argparse wraps help to the terminal width
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        records = golden_transcript()
        os.chdir(ROOT)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({len(records)} invocations)")


if __name__ == "__main__":
    main()
