"""The frozen bits on other x86-64 host classes: the frozen solver rows,
the benchmark shapes' counts, the noisy fixture's recipe and the CLI
transcript, recomputed in a process that imitates another host.  One
imitation is an x86-64-v3 host without AVX512 (OpenBLAS on its Haswell
kernels, numpy on its AVX2 loops); the other is a host below x86-64-v3
(numpy's X86_V3 loops off as well).  Only that process gets the settings."""
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
TESTS = [
    "tests/test_fitter.py::TestFrozenRows",
    "tests/test_solver_counts.py",
    "tests/test_cli.py::TestCircuitPreset::test_the_noisy_fixture_is_rebuilt_from_its_recipe",
    "tests/test_cli.py::test_cli_output_is_byte_identical_to_the_frozen_transcript",
]
# Each imitation, and the CPU feature whose absence makes the host one already.
IMITATIONS = {
    "avx2": ({"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}, "AVX512F"),
    "below-v3": ({"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}, "AVX2"),
}


@pytest.mark.parametrize("host", IMITATIONS)
def test_the_frozen_bits_repeat_on_haswell_blas_kernels_and_narrower_loops(host):
    numpy_setting, feature = IMITATIONS[host]
    if not __cpu_features__.get(feature):
        pytest.skip(f"a host without {feature} is the imitation itself")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", **numpy_setting}
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *TESTS]
    done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:]
