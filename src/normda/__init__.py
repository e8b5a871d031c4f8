"""normda: benchmarking split-aware z-score normalization strategies against
shallow and deep domain-adaptation methods on multi-domain data.

Import each name from the module that defines it (`normda.bench`,
`normda.dataset`, ...); the package root re-exports nothing."""

import os

# BLAS runs on one thread unless the caller chose a count. A multi-threaded
# BLAS rounds differently, and Platt's early stops turn last-bit differences
# into different cells, so without this the cells would depend on the
# machine's core count. BLAS reads the variables when numpy and scipy load
# it, so this holds only if neither is imported before normda.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# `import normda` loads every library module (bench and what it imports, and
# features), so features' scipy.signal import is paid at import time, not at
# a run's first filter, and tracers that wrap functions by module find them all.
from . import bench, features
