"""EEG-style feature extraction: bandpass filtering, per-band differential
entropy, and common spatial patterns.

Differential entropy uses the Gaussian closed form 0.5 ln(2 pi e sigma^2)
(natural log) on the population variance of the band-limited signal.
Filtering is zero-phase (forward pass then time-reversed pass), which
doubles the effective filter order: scipy.signal.filtfilt's default
odd-padded method, run step by step so each band design computes its
initial-state vector once. differential_entropy extends an epoch once for
all of its bands, filters each band from that extension into one
(bands, channels, time) array, and takes one variance over it;
butter_bandpass runs the same extension and passes for one band. Both
raise NumericError, naming the band, when finite samples overflow the
filter.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.signal import butter, lfilter, lfilter_zi

from .errors import (
    ConfigError, DegenerateDataError, NumericError, ShapeError, bounded, check_field_types, check_type, feature_rows
)
from .shallow import _fix_signs

DE_SIGMA_FLOOR = 1e-12
FILTER_ORDER = 5
# filtfilt's default padding: three times the band-pass filter's 2 * order + 1
# taps at each end. An epoch must be longer than the pad.
PADLEN = 3 * (2 * FILTER_ORDER + 1)

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
    fs: float = bounded(low=0, above=True)

    def __post_init__(self):
        check_field_types(self)
        samples = feature_rows(self.samples, "samples", nonempty=True)
        if samples.shape[1] < 2:
            raise ConfigError(f"samples must have at least 2 time samples, got shape {samples.shape}")
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
        check_field_types(self)
        if not 0 < self.low < self.high:
            raise ConfigError(f"band {self.name!r}: need 0 < low < high")


def standard_bands() -> list[BandSpec]:
    """Delta through gamma as used for differential-entropy features."""
    return [BandSpec(name, lo, hi) for name, lo, hi in STANDARD_BANDS]


class _Design(NamedTuple):
    """A band's Butterworth (b, a) and `zi`, the filter's step-response
    steady state (lfilter_zi) as a row."""

    b: np.ndarray
    a: np.ndarray
    zi: np.ndarray


@functools.lru_cache(maxsize=64)
def _bandpass_design(low: float, high: float, fs: float) -> _Design:
    """Butterworth (b, a) for one band at one sampling rate, with its zi.

    A feature run filters every epoch with the same few bands, so each
    design is computed once per process. The arrays are shared by every
    caller and therefore read-only.
    """
    b, a = butter(FILTER_ORDER, [low, high], btype="bandpass", fs=fs)
    design = _Design(b, a, lfilter_zi(b, a).reshape(1, -1))
    for arr in design:
        arr.setflags(write=False)
    return design


def butter_bandpass(epoch: SignalEpoch, low: float, high: float) -> SignalEpoch:
    """Zero-phase Butterworth bandpass of order FILTER_ORDER across every
    channel. Raises NumericError when the filtered samples overflow float64."""
    check_type(epoch, "epoch", SignalEpoch)
    check_type(low, "low", "float")
    check_type(high, "high", "float")
    design = _checked_design(epoch, low, high)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _zero_phase(design, _odd_extension(epoch.samples))
    if not np.isfinite(out).all():
        raise NumericError(f"band [{low}, {high}] Hz: the filtered samples overflow float64")
    return SignalEpoch(out, epoch.fs)


def _checked_design(epoch: SignalEpoch, low: float, high: float) -> _Design:
    """The band's design, once the band fits below Nyquist and the epoch is
    longer than the pad."""
    nyquist = epoch.fs / 2.0
    if not 0 < low < high < nyquist:
        raise ConfigError(
            f"band [{low}, {high}] Hz must satisfy 0 < low < high < {nyquist} (Nyquist)"
        )
    length = epoch.samples.shape[1]
    if length <= PADLEN:
        raise ConfigError(
            f"band-pass filtering needs epochs of at least {PADLEN + 1} samples, got {length}"
        )
    return _bandpass_design(low, high, epoch.fs)


def _odd_extension(x: np.ndarray) -> np.ndarray:
    """filtfilt's odd extension of each row by PADLEN samples at each end."""
    return np.concatenate(
        (2 * x[:, :1] - x[:, PADLEN:0:-1], x, 2 * x[:, -1:] - x[:, -2 : -(PADLEN + 2) : -1]), axis=1
    )


def _zero_phase(design: _Design, ext: np.ndarray) -> np.ndarray:
    """scipy.signal.filtfilt(b, a, x, axis=1) on the odd extension `ext` of
    x, step by step: a forward and a backward pass, each started from the
    steady state zi scaled by its first sample, then the pad removed."""
    b, a, zi = design
    y, _ = lfilter(b, a, ext, axis=1, zi=zi * ext[:, :1])
    y, _ = lfilter(b, a, y[:, ::-1], axis=1, zi=zi * y[:, -1:])
    return y[:, ::-1][:, PADLEN:-PADLEN]


def differential_entropy(epoch: SignalEpoch, bands: Sequence[BandSpec]) -> np.ndarray:
    """Per-channel, per-band Gaussian differential entropy, channel-major.

    Zero-variance bands are floored at sigma 1e-12 and flagged with a
    warning. Raises NumericError, naming the band, when a band's filtered
    samples or their variance overflow float64.
    """
    check_type(epoch, "epoch", SignalEpoch)
    if not bands:
        raise ConfigError("at least one band is required")
    if not isinstance(bands, Sequence) or not all(isinstance(band, BandSpec) for band in bands):
        raise ConfigError(f"bands must be a sequence of BandSpecs, got {bands!r}")
    designs = [_checked_design(epoch, band.low, band.high) for band in bands]
    x = epoch.samples
    filtered = np.empty((len(bands), *x.shape))
    with np.errstate(over="ignore", invalid="ignore"):
        ext = _odd_extension(x)
        for j, design in enumerate(designs):
            filtered[j] = _zero_phase(design, ext)
        var = filtered.var(axis=-1, ddof=0)  # (bands, channels)
    finite = np.isfinite(var).all(axis=1)
    if not finite.all():
        name = bands[int(finite.argmin())].name
        raise NumericError(f"band {name!r}: the filtered samples or their variance overflow float64")
    for band, band_var in zip(bands, var):
        if np.any(band_var < DE_SIGMA_FLOOR**2):
            warnings.warn(f"zero-variance channel in band {band.name!r}; entropy floored")
    values = 0.5 * np.log(2.0 * math.pi * math.e * np.maximum(var, DE_SIGMA_FLOOR**2))
    return values.T.reshape(-1)


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
    check_type(n_components, "n_components", "int")
    if not trials_a or not trials_b:
        raise ConfigError("both classes need at least one trial")
    trials = [*trials_a, *trials_b]
    for trial in trials:
        check_type(trial, "each trial", SignalEpoch)
    channels = trials[0].n_channels
    if any(t.n_channels != channels for t in trials):
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
    check_type(epoch, "epoch", SignalEpoch)
    if epoch.n_channels != model.filters.shape[1]:
        raise ShapeError("epoch channel count does not match the fitted filters")
    z = model.filters @ epoch.samples
    var = z.var(axis=1, ddof=0)
    total = var.sum()
    if total <= 0:
        raise DegenerateDataError("epoch has zero variance after spatial filtering")
    return np.log(var / total)
