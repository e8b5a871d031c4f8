import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.signal import butter, filtfilt, lfilter

import normda.features as features
from normda.errors import ConfigError, DegenerateDataError, NumericError, ShapeError
from normda.features import (
    DE_SIGMA_FLOOR,
    FILTER_ORDER,
    PADLEN,
    BandSpec,
    SignalEpoch,
    _bandpass_design,
    butter_bandpass,
    csp_features,
    csp_fit,
    differential_entropy,
    standard_bands,
)


def tone(freq, fs=250.0, seconds=4.0, channels=1):
    t = np.arange(int(fs * seconds)) / fs
    sig = np.sin(2 * np.pi * freq * t)
    return SignalEpoch(np.tile(sig, (channels, 1)), fs)


def rms(x):
    return float(np.sqrt(np.mean(x**2)))


# ---------------------------------------------------------------------------
# Butterworth bandpass


def test_passband_tone_retained():
    epoch = tone(20.0)
    out = butter_bandpass(epoch, 8.0, 30.0)
    assert rms(out.samples) >= 0.9 * rms(epoch.samples)


def test_stopband_tone_suppressed():
    epoch = tone(2.0)
    out = butter_bandpass(epoch, 8.0, 30.0)
    assert rms(out.samples) <= 0.1 * rms(epoch.samples)


def test_zero_signal_passes_through_as_zero():
    epoch = SignalEpoch(np.zeros((3, 500)), 250.0)
    out = butter_bandpass(epoch, 8.0, 30.0)
    np.testing.assert_allclose(out.samples, 0.0, atol=1e-12)


def test_band_outside_nyquist_rejected():
    epoch = tone(20.0, fs=100.0)
    for _ in range(2):  # a cached design for this fs must not bypass the check
        butter_bandpass(epoch, 8.0, 30.0)
        with pytest.raises(ConfigError):
            butter_bandpass(epoch, 8.0, 60.0)
        with pytest.raises(ConfigError):
            butter_bandpass(epoch, 30.0, 8.0)


def test_bandpass_design_is_read_only():
    b, a, zi = _bandpass_design(8.0, 13.0, 200.0)
    for arr in (b, a, zi):
        with pytest.raises(ValueError):
            arr[..., 0] = 1.0


def test_bandpass_design_computed_once_per_band_and_rate():
    rng = np.random.default_rng(4)
    _bandpass_design.cache_clear()
    for _ in range(50):
        differential_entropy(SignalEpoch(rng.normal(size=(2, 200)), 200.0), standard_bands())
    info = _bandpass_design.cache_info()
    assert (info.misses, info.hits) == (5, 245)


@pytest.mark.parametrize("fs", [128.0, 200.0, 250.0])
def test_bandpass_matches_scipy_filtfilt_bitwise(fs):
    rng = np.random.default_rng(int(fs))
    for n in (PADLEN + 1, PADLEN + 2, 100, 2 * int(fs) + 1):
        samples = rng.normal(size=(3, n))
        for band in standard_bands():
            b, a = butter(FILTER_ORDER, [band.low, band.high], btype="bandpass", fs=fs)
            expected = filtfilt(b, a, samples, axis=1)
            got = butter_bandpass(SignalEpoch(samples, fs), band.low, band.high).samples
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_bandpass_rejects_epochs_no_longer_than_the_pad():
    epoch = SignalEpoch(np.random.default_rng(6).normal(size=(2, PADLEN)), 200.0)
    with pytest.raises(ConfigError, match=f"at least {PADLEN + 1} samples, got {PADLEN}"):
        differential_entropy(epoch, standard_bands())
    with pytest.raises(ConfigError, match=f"at least {PADLEN + 1} samples, got {PADLEN}"):
        butter_bandpass(epoch, 8.0, 13.0)


def test_zero_phase_no_lag_on_passband_tone():
    epoch = tone(20.0)
    out = butter_bandpass(epoch, 8.0, 30.0)
    a = epoch.samples[0] - epoch.samples[0].mean()
    b = out.samples[0] - out.samples[0].mean()
    # inspect lags within one period; the peak must sit at zero lag
    lags = range(-12, 13)
    corrs = [np.dot(a[max(0, -l) : len(a) - max(0, l)], b[max(0, l) : len(b) - max(0, -l)]) for l in lags]
    assert lags[int(np.argmax(corrs))] == 0


# ---------------------------------------------------------------------------
# Differential entropy


def test_de_unit_gaussian_matches_closed_form():
    # Each band's entropy is 0.5 ln(2 pi e var) of the band-passed signal.
    rng = np.random.default_rng(0)
    epoch = SignalEpoch(rng.normal(size=(2, 10_000)), 200.0)
    bands = standard_bands()
    de = differential_entropy(epoch, bands).reshape(2, len(bands))
    for j, band in enumerate(bands):
        var = butter_bandpass(epoch, band.low, band.high).samples.var(axis=1)
        np.testing.assert_array_equal(de[:, j], 0.5 * np.log(2 * math.pi * math.e * var))


def test_de_scaling_adds_log_factor():
    rng = np.random.default_rng(1)
    samples = rng.normal(size=(2, 2000))
    fs = 200.0
    bands = standard_bands()
    base = differential_entropy(SignalEpoch(samples, fs), bands)
    doubled = differential_entropy(SignalEpoch(2.0 * samples, fs), bands)
    np.testing.assert_allclose(doubled - base, math.log(2.0), atol=1e-9)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 3: the (b, a) delta-band design is unstable at 200 Hz, "
    "so DE(g*x) - DE(x) misses log g when g is not a power of two",
)
@pytest.mark.parametrize("gain", [3.0, 1.6])
def test_de_scaling_adds_log_factor_for_inexact_gains(gain):
    # Scaling by 2 is exact in binary floating point and hides the defect.
    rng = np.random.default_rng(11)
    bands = standard_bands()
    for _ in range(10):
        samples = rng.normal(size=(4, 200))
        base = differential_entropy(SignalEpoch(samples, 200.0), bands)
        scaled = differential_entropy(SignalEpoch(gain * samples, 200.0), bands)
        np.testing.assert_allclose(scaled - base, math.log(gain), rtol=0, atol=1e-9)


def test_de_feature_layout_matches_62_channel_five_band_montage():
    rng = np.random.default_rng(2)
    epoch = SignalEpoch(rng.normal(size=(62, 400)), 200.0)
    de = differential_entropy(epoch, standard_bands())
    assert de.shape == (310,)


def test_de_shift_invariance():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=(1, 1500))
    fs = 200.0
    bands = [BandSpec("alpha", 8.0, 13.0)]
    a = differential_entropy(SignalEpoch(samples, fs), bands)
    b = differential_entropy(SignalEpoch(samples + 42.0, fs), bands)
    np.testing.assert_allclose(a, b, atol=1e-9)


def test_de_bit_identical_to_fresh_designs_across_rates():
    # The reference designs every filter anew, so a design cached for one
    # sampling rate and reused at another would show as a mismatch.
    rng = np.random.default_rng(5)
    bands = standard_bands()
    for channels, fs in [(1, 200.0), (4, 250.0), (4, 200.0), (1, 250.0)] * 2:
        samples = rng.normal(size=(channels, int(2 * fs)))
        expected = np.empty((channels, len(bands)))
        for j, band in enumerate(bands):
            b, a = butter(FILTER_ORDER, [band.low, band.high], btype="bandpass", fs=fs)
            var = filtfilt(b, a, samples, axis=1).var(axis=1, ddof=0)
            expected[:, j] = 0.5 * np.log(2.0 * math.pi * math.e * np.maximum(var, DE_SIGMA_FLOOR**2))
        assert np.array_equal(differential_entropy(SignalEpoch(samples, fs), bands), expected.reshape(-1))


def test_de_zero_variance_floored_and_flagged():
    epoch = SignalEpoch(np.zeros((1, 500)), 200.0)
    with pytest.warns(UserWarning, match="zero-variance"):
        de = differential_entropy(epoch, [BandSpec("alpha", 8.0, 13.0)])
    assert de[0] == pytest.approx(0.5 * math.log(2 * math.pi * math.e * 1e-24))


def test_de_filters_each_band_with_two_lfilter_passes(monkeypatch):
    calls = []

    def counted_lfilter(*args, **kwargs):
        calls.append(args)
        return lfilter(*args, **kwargs)

    monkeypatch.setattr(features, "lfilter", counted_lfilter)
    epoch = SignalEpoch(np.random.default_rng(7).normal(size=(3, 200)), 200.0)
    bands = standard_bands()
    for chosen, passes in [(bands, 10), ([bands[0]], 2), ([bands[2], bands[0], bands[2]], 6)]:
        calls.clear()
        differential_entropy(epoch, chosen)
        assert len(calls) == passes


def test_de_zero_epoch_warns_once_per_band_in_band_order():
    epoch = SignalEpoch(np.zeros((2, 500)), 200.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        differential_entropy(epoch, [standard_bands()[1], standard_bands()[0]])
    assert [str(w.message) for w in caught] == [
        "zero-variance channel in band 'theta'; entropy floored",
        "zero-variance channel in band 'delta'; entropy floored",
    ]


def test_de_band_past_nyquist_raises_the_bandpass_message():
    epoch = tone(20.0, fs=100.0)
    with pytest.raises(ConfigError) as bandpass:
        butter_bandpass(epoch, 31.0, 50.0)
    assert str(bandpass.value) == "band [31.0, 50.0] Hz must satisfy 0 < low < high < 50.0 (Nyquist)"
    with pytest.raises(ConfigError) as de:
        differential_entropy(epoch, standard_bands())
    assert str(de.value) == str(bandpass.value)


@pytest.mark.parametrize(
    "filtering, band",
    [
        (lambda epoch: butter_bandpass(epoch, 8.0, 13.0), r"\[8.0, 13.0\] Hz"),
        (lambda epoch: differential_entropy(epoch, [BandSpec("theta", 4.0, 7.0)] + standard_bands()), "'theta'"),
    ],
    ids=["butter_bandpass", "differential_entropy"],
)
def test_filter_overflow_raises_numeric_error_naming_the_band(filtering, band):
    # Finite samples near the float64 limit overflow the odd extension and
    # the filter; the error blames the band, not the samples.
    signs = np.sign(np.random.default_rng(9).normal(size=(2, 200)))
    with pytest.raises(NumericError, match=f"^band {band}: .*overflow float64$"):
        filtering(SignalEpoch(1e308 * signs, 200.0))


def test_band_spec_validation():
    with pytest.raises(ConfigError):
        BandSpec("bad", 10.0, 5.0)
    with pytest.raises(ConfigError):
        BandSpec("bad", 0.0, 5.0)


# ---------------------------------------------------------------------------
# CSP


def two_channel_trials(seed=0, n_trials=30, t=200):
    # class A varies only on channel 1, class B only on channel 2
    rng = np.random.default_rng(seed)
    trials_a, trials_b = [], []
    for _ in range(n_trials):
        a = np.vstack([rng.normal(size=t) * 3.0, rng.normal(size=t) * 0.3])
        b = np.vstack([rng.normal(size=t) * 0.3, rng.normal(size=t) * 3.0])
        trials_a.append(SignalEpoch(a, 250.0))
        trials_b.append(SignalEpoch(b, 250.0))
    return trials_a, trials_b


def test_csp_separates_single_channel_classes():
    trials_a, trials_b = two_channel_trials()
    model = csp_fit(trials_a, trials_b, n_components=2)
    top = model.filters[0]
    var_a = np.mean([np.var(top @ t.samples) for t in trials_a])
    var_b = np.mean([np.var(top @ t.samples) for t in trials_b])
    assert var_a / var_b > 10.0


def test_csp_identical_classes_flagged_and_orthonormal():
    trials_a, _ = two_channel_trials(seed=1)
    with pytest.warns(UserWarning, match="non-discriminative"):
        model = csp_fit(trials_a, [SignalEpoch(t.samples.copy(), t.fs) for t in trials_a], 2)
    cov = np.mean(
        [
            (t.samples - t.samples.mean(1, keepdims=True)) @ (t.samples - t.samples.mean(1, keepdims=True)).T
            / np.trace((t.samples - t.samples.mean(1, keepdims=True)) @ (t.samples - t.samples.mean(1, keepdims=True)).T)
            for t in trials_a
        ],
        axis=0,
    )
    pooled = 2 * cov
    gram = model.filters @ pooled @ model.filters.T
    np.testing.assert_allclose(gram, np.eye(2), atol=1e-9)


def test_csp_filter_shape_on_22_channels():
    rng = np.random.default_rng(4)
    trials_a = [SignalEpoch(rng.normal(size=(22, 100)), 250.0) for _ in range(5)]
    trials_b = [SignalEpoch(rng.normal(size=(22, 100)), 250.0) for _ in range(5)]
    model = csp_fit(trials_a, trials_b, n_components=2)
    assert model.filters.shape == (2, 22)


def test_csp_class_swap_reverses_component_order():
    trials_a, trials_b = two_channel_trials(seed=2)
    ab = csp_fit(trials_a, trials_b, 2)
    ba = csp_fit(trials_b, trials_a, 2)
    np.testing.assert_allclose(ab.filters[0], ba.filters[1], atol=1e-9)
    np.testing.assert_allclose(ab.filters[1], ba.filters[0], atol=1e-9)


def test_csp_validation():
    trials_a, trials_b = two_channel_trials(seed=3, n_trials=2)
    with pytest.raises(ConfigError):
        csp_fit(trials_a, trials_b, n_components=3)  # odd
    with pytest.raises(ConfigError):
        csp_fit([], trials_b, n_components=2)


def test_csp_ridges_a_singular_pooled_covariance(monkeypatch):
    # A duplicated channel makes the pooled covariance singular, so the
    # first generalized eigensolve fails and the ridged one runs.
    calls = []
    eigh = scipy.linalg.eigh

    def counted_eigh(*args, **kwargs):
        calls.append(args)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eigh", counted_eigh)
    rng = np.random.default_rng(0)

    def trial(scale):
        x = rng.normal(size=(2, 100)) * scale
        return SignalEpoch(np.vstack([x, x[:1]]), 250.0)

    model = csp_fit([trial([[3.0], [1.0]]) for _ in range(5)], [trial([[1.0], [3.0]]) for _ in range(5)], 2)
    assert len(calls) == 2
    assert model.filters.shape == (2, 3) and np.isfinite(model.filters).all()


def test_csp_features_normalization_identity():
    trials_a, trials_b = two_channel_trials(seed=5)
    model = csp_fit(trials_a, trials_b, 2)
    feats = csp_features(trials_a[0], model)
    assert np.exp(feats).sum() == pytest.approx(1.0, abs=1e-9)


def test_csp_features_zero_epoch_rejected():
    trials_a, trials_b = two_channel_trials(seed=6)
    model = csp_fit(trials_a, trials_b, 2)
    with pytest.raises(DegenerateDataError):
        csp_features(SignalEpoch(np.zeros((2, 100)), 250.0), model)


def test_csp_features_amplitude_invariant():
    trials_a, trials_b = two_channel_trials(seed=7)
    model = csp_fit(trials_a, trials_b, 2)
    base = csp_features(trials_a[0], model)
    doubled = csp_features(SignalEpoch(2.0 * trials_a[0].samples, 250.0), model)
    np.testing.assert_allclose(doubled, base, atol=1e-9)


def test_csp_features_channel_mismatch():
    trials_a, trials_b = two_channel_trials(seed=8)
    model = csp_fit(trials_a, trials_b, 2)
    with pytest.raises(ShapeError):
        csp_features(SignalEpoch(np.zeros((3, 100)), 250.0), model)
