"""The checked-in work record: COUNTS.json holds the solver's counts on
``tools/solver_counts.py``'s shapes, and the three benchmark shapes must
still make exactly those counts.  A change that moves the solver's paths
rewrites the file with ``python tools/refreeze.py``."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("solver_counts", ROOT / "tools" / "solver_counts.py")
solver_counts = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(solver_counts)

RECORD = json.loads((ROOT / "COUNTS.json").read_text(encoding="utf-8"))


def test_the_record_covers_every_shape():
    assert list(RECORD) == list(solver_counts.SHAPES)


@pytest.mark.parametrize("shape", ["verdict", "sweep", "noisy"])
def test_a_benchmark_shape_makes_exactly_its_recorded_counts(shape):
    assert solver_counts.count(solver_counts.SHAPES[shape]) == RECORD[shape]
