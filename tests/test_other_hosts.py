"""The frozen bits on another host class: the frozen solver rows and the
benchmark shapes' counts, recomputed in a process that imitates an
x86-64-v3 host without AVX512, OpenBLAS on its Haswell kernels and numpy
on its AVX2 loops.  Only that process gets the two settings."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
IMITATION = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


@pytest.mark.skipif(not __cpu_features__.get("AVX512F"), reason="a host without AVX512 is the imitation itself")
def test_the_frozen_bits_repeat_on_haswell_blas_kernels_and_avx2_loops():
    tests = ["tests/test_fitter.py::TestFrozenRows", "tests/test_solver_counts.py"]
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env={**os.environ, **IMITATION}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:]
