"""The golden suites hold whichever SIMD kernels NumPy dispatches to.

A recorded digest must not depend on the host's instruction set. NumPy
picks its sort, among others, by what the CPU offers, and an unstable
sort breaks ties in an order of its own: the vocabulary and the
memory-aware table order once did, so a runner without AVX-512 recorded
other digests than one with it. Here the golden suites run again in a
subprocess with NumPy's AVX-512 kernels switched off
(``NPY_DISABLE_CPU_FEATURES``); on a CPU where NumPy finds no AVX-512
there is nothing to switch off, and the test skips.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # NumPy 1.x
    from numpy.core._multiarray_umath import __cpu_features__

TESTS = Path(__file__).parent
#: every AVX-512 level NumPy dispatches to, the group and its members
WITHOUT_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="NumPy dispatches no AVX-512 here")
def test_golden_suites_hold_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": WITHOUT_AVX512}
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            str(TESTS / "test_golden_corpora.py"), str(TESTS / "test_golden_pipeline.py"),
            str(TESTS / "test_train_kernels.py"), "-k", "golden",
        ],
        capture_output=True, text=True, timeout=600, env=env, cwd=TESTS.parent,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
