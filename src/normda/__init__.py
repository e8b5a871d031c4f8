"""normda: benchmarking split-aware z-score normalization strategies against
shallow and deep domain-adaptation methods on multi-domain data.

Import each name from the module that defines it (`normda.bench`,
`normda.dataset`, ...); the package root re-exports nothing."""

# `import normda` loads every library module (bench and what it imports, and
# features), so features' scipy.signal import is paid at import time, not at
# a run's first filter, and tracers that wrap functions by module find them all.
from . import bench, features
