"""EEG-style feature extraction: bandpass filtering, per-band differential
entropy, and common spatial patterns.

Differential entropy uses the Gaussian closed form 0.5 ln(2 pi e sigma^2)
(natural log) on the population variance of the band-limited signal.
Filtering is zero-phase (forward pass then time-reversed pass), which
doubles the effective filter order.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.signal import butter, filtfilt

from .errors import ConfigError, DegenerateDataError, ShapeError
from .shallow import _fix_signs

DE_SIGMA_FLOOR = 1e-12
FILTER_ORDER = 5

STANDARD_BANDS = (
    ("delta", 1.0, 3.0),
    ("theta", 4.0, 7.0),
    ("alpha", 8.0, 13.0),
    ("beta", 14.0, 30.0),
    ("gamma", 31.0, 50.0),
)


@dataclass(frozen=True)
class SignalEpoch:
    """A channels-by-time sample block with its sampling rate in Hz."""

    samples: np.ndarray
    fs: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 2 or samples.shape[1] < 2:
            raise ConfigError("samples must be channels x time with >= 2 samples")
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ConfigError(f"sampling rate must be positive and finite, got {self.fs!r}")
        if not np.isfinite(samples).all():
            raise ConfigError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def n_channels(self) -> int:
        return self.samples.shape[0]


@dataclass(frozen=True)
class BandSpec:
    name: str
    low: float
    high: float

    def __post_init__(self):
        if not 0 < self.low < self.high:
            raise ConfigError(f"band {self.name!r}: need 0 < low < high")


def standard_bands() -> list[BandSpec]:
    """Delta through gamma as used for differential-entropy features."""
    return [BandSpec(name, lo, hi) for name, lo, hi in STANDARD_BANDS]


def butter_bandpass(epoch: SignalEpoch, low: float, high: float) -> SignalEpoch:
    """Zero-phase Butterworth bandpass of order FILTER_ORDER across every channel."""
    nyquist = epoch.fs / 2.0
    if not 0 < low < high < nyquist:
        raise ConfigError(
            f"band [{low}, {high}] Hz must satisfy 0 < low < high < {nyquist} (Nyquist)"
        )
    b, a = _bandpass_design(low, high, epoch.fs)
    filtered = filtfilt(b, a, epoch.samples, axis=1)
    return SignalEpoch(filtered, epoch.fs)


@functools.lru_cache(maxsize=64)
def _bandpass_design(low: float, high: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Butterworth (b, a) for one band at one sampling rate.

    A feature run filters every epoch with the same few bands, so each
    design is computed once per process. The arrays are shared by every
    caller and therefore read-only.
    """
    b, a = butter(FILTER_ORDER, [low, high], btype="bandpass", fs=fs)
    b.setflags(write=False)
    a.setflags(write=False)
    return b, a


def differential_entropy(epoch: SignalEpoch, bands: Sequence[BandSpec | None]) -> np.ndarray:
    """Per-channel, per-band Gaussian differential entropy, channel-major.

    A None entry means no filtering (full-spectrum entropy). Zero-variance
    bands are floored at sigma 1e-12 and flagged with a warning.
    """
    if not bands:
        raise ConfigError("at least one band is required")
    values = np.empty((epoch.n_channels, len(bands)))
    for j, band in enumerate(bands):
        sig = epoch if band is None else butter_bandpass(epoch, band.low, band.high)
        var = sig.samples.var(axis=1, ddof=0)
        floored = np.maximum(var, DE_SIGMA_FLOOR**2)
        if np.any(var < DE_SIGMA_FLOOR**2):
            name = band.name if band is not None else "all"
            warnings.warn(f"zero-variance channel in band {name!r}; entropy floored")
        values[:, j] = 0.5 * np.log(2.0 * math.pi * math.e * floored)
    return values.reshape(-1)


@dataclass(frozen=True)
class CspModel:
    """Spatial filters picked from the extremes of the eigenvalue spectrum,
    in alternating (largest, smallest, ...) order."""

    filters: np.ndarray  # (n_components, n_channels)


def _mean_normalized_cov(trials: Sequence[SignalEpoch]) -> np.ndarray:
    covs = []
    for trial in trials:
        x = trial.samples - trial.samples.mean(axis=1, keepdims=True)
        c = x @ x.T
        tr = np.trace(c)
        if tr <= 0:
            raise DegenerateDataError("trial has zero spatial covariance")
        covs.append(c / tr)
    return np.mean(covs, axis=0)


def csp_fit(
    trials_a: Sequence[SignalEpoch], trials_b: Sequence[SignalEpoch], n_components: int = 2
) -> CspModel:
    """Solve cov_a w = lambda (cov_a + cov_b) w on class-averaged normalized
    covariances; keep the n_components/2 largest and smallest eigenvectors."""
    if not trials_a or not trials_b:
        raise ConfigError("both classes need at least one trial")
    channels = trials_a[0].n_channels
    if any(t.n_channels != channels for t in list(trials_a) + list(trials_b)):
        raise ShapeError("all trials must share the channel count")
    if n_components < 2 or n_components % 2 or n_components > channels:
        raise ConfigError("n_components must be even, >= 2 and <= channel count")

    cov_a = _mean_normalized_cov(trials_a)
    cov_b = _mean_normalized_cov(trials_b)
    pooled = cov_a + cov_b
    try:
        eigvals, eigvecs = scipy.linalg.eigh(cov_a, pooled)
    except scipy.linalg.LinAlgError:
        # Rank-deficient pooled covariance: ridge by a sliver of its trace.
        pooled = pooled + 1e-9 * np.trace(pooled) * np.eye(channels)
        try:
            eigvals, eigvecs = scipy.linalg.eigh(cov_a, pooled)
        except scipy.linalg.LinAlgError as exc:
            raise DegenerateDataError(f"pooled covariance is singular: {exc}") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    if np.all(np.abs(eigvals - 0.5) < 1e-6):
        warnings.warn("classes have identical spatial covariance; filters are non-discriminative")

    half = n_components // 2
    picked = []
    for i in range(half):
        picked.append(eigvecs[:, i])  # large eigenvalue: class-a-dominant
        picked.append(eigvecs[:, channels - 1 - i])  # small: class-b-dominant
    return CspModel(_fix_signs(np.array(picked).T).T)


def csp_features(epoch: SignalEpoch, model: CspModel) -> np.ndarray:
    """Log of each filtered component's variance share: ln(var_k / sum var)."""
    if epoch.n_channels != model.filters.shape[1]:
        raise ShapeError("epoch channel count does not match the fitted filters")
    z = model.filters @ epoch.samples
    var = z.var(axis=1, ddof=0)
    total = var.sum()
    if total <= 0:
        raise DegenerateDataError("epoch has zero variance after spatial filtering")
    return np.log(var / total)
