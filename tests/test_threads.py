"""BLAS runs on the thread count that the environment names.

`import normda` pins BLAS to one thread unless the caller chose a count
(normda/__init__.py). The pin holds only if it is set before numpy and
scipy load OpenBLAS, which tests/conftest.py arranges for this suite.
Run this test with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and
MKL_NUM_THREADS unset to check the pin itself.
"""

import ctypes
import os
from pathlib import Path

import numpy as np
import pytest

# The thread-count getter of the OpenBLAS builds that numpy and scipy wheels
# bundle (64-bit and 32-bit integer interfaces), then of a plain OpenBLAS.
GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def openblas_thread_counts() -> dict[str, int]:
    """The thread count of each OpenBLAS, bundled with numpy or scipy, that
    this process has loaded, keyed by library file name."""
    site = Path(np.__file__).parent.parent
    counts = {}
    for lib in sorted(site.glob("*/.dylibs/*openblas*")) + sorted(site.glob("*.libs/*openblas*")):
        try:
            # RTLD_NOLOAD opens a library only if it is already loaded: a
            # fresh load would read today's environment and prove nothing.
            handle = ctypes.CDLL(str(lib), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        getter = next((getattr(handle, name) for name in GETTERS if hasattr(handle, name)), None)
        if getter is not None:
            counts[lib.name] = getter()
    return counts


def test_openblas_runs_on_the_thread_count_the_environment_names():
    counts = openblas_thread_counts()
    if not counts:
        pytest.skip("no loaded OpenBLAS with a get_num_threads symbol in numpy's or scipy's bundled libraries")
    pinned = int(os.environ["OPENBLAS_NUM_THREADS"])
    assert counts == dict.fromkeys(counts, pinned)
