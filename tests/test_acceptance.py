"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines; a failing assert marks the criterion red.
"""

import math
import time
from pathlib import Path

import numpy as np

from gradcheck import class_grads, cross_entropy, cross_entropy_grad, dann_batch_grads, max_relative_error
from normda.bench import (
    ExperimentConfig,
    FitProblem,
    MethodSpec,
    fit_method,
    format_cell,
    report_csv,
    run_experiment,
)
from normda.dataset import (
    DomainDataset,
    SyntheticShiftConfig,
    generate_synthetic,
    loso_folds,
)
from normda.deep import (
    DannModel,
    MlpSpec,
    TrainConfig,
    backward,
    forward,
    init_mlp,
    network_specs,
    train_dann,
)
from normda.cli import _read_config
from normda.features import BandSpec, SignalEpoch, butter_bandpass, csp_fit, differential_entropy
from normda.normalize import NormStrategy, apply_strategy
from normda.shallow import KernelSpec, kpca_fit, kpca_transform, mmd_sq, tca_fit, tca_transform
from normda.svm import svm_predict, svm_train
from test_svm import kkt_holds

LINEAR = KernelSpec("linear")
HEADLINE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "headline.json"


def ok(criterion, detail):
    print(f"\n[acceptance {criterion}] PASS: {detail}")


def test_criterion_1_normalization_dominance():
    cfg = _read_config(HEADLINE_CONFIG)
    start = time.perf_counter()
    report = run_experiment(cfg, jobs=1)
    elapsed = time.perf_counter() - start

    z2_svm = report.cell("Z2", "noDA-SVM").mean
    nonorm_tca = report.cell("noNorm", "TCA-SVM").mean
    nonorm_svm = report.cell("noNorm", "noDA-SVM").mean
    assert z2_svm >= nonorm_tca + 0.10, (z2_svm, nonorm_tca)
    assert z2_svm >= nonorm_svm + 0.20, (z2_svm, nonorm_svm)
    assert elapsed < 300.0
    ok(
        1,
        f"Z2/noDA-SVM {z2_svm:.3f} >= noNorm/TCA-SVM {nonorm_tca:.3f}+0.10 "
        f"and >= noNorm/noDA-SVM {nonorm_svm:.3f}+0.20 in {elapsed:.0f}s",
    )


def test_criterion_2_z2_standardization_exactness():
    ds = generate_synthetic(SyntheticShiftConfig(
        n_subjects=4, n_sessions=2, n_classes=3, samples_per_class_per_domain=15,
        dim=5, domain_shift_scale=7.0, domain_scale_jitter=0.3, seed=21,
    ))
    worst_mean, worst_std = 0.0, 0.0
    for fold in loso_folds(ds):
        train, test = apply_strategy(ds, fold, NormStrategy.Z2)
        for side, idx in ((train, fold.train_idx), (test, fold.test_idx)):
            subs, sess = ds.subjects[idx], ds.sessions[idx]
            for key in {(int(a), int(b)) for a, b in zip(subs, sess)}:
                block = side[(subs == key[0]) & (sess == key[1])]
                worst_mean = max(worst_mean, float(np.abs(block.mean(axis=0)).max()))
                worst_std = max(worst_std, float(np.abs(block.std(axis=0) - 1.0).max()))
    assert worst_mean < 1e-9 and worst_std < 1e-9
    ok(2, f"max |mean| {worst_mean:.2e}, max |std-1| {worst_std:.2e} over all domain blocks")


def test_criterion_3_mmd_correctness():
    for seed in range(50):
        X = np.random.default_rng(seed).normal(size=(8, 3))
        assert abs(mmd_sq(X, X, LINEAR)) < 1e-12
    assert mmd_sq(np.array([[0.0]]), np.array([[2.0]]), LINEAR) == 4.0
    assert mmd_sq(np.array([[0.0], [2.0]]), np.array([[1.0], [3.0]]), LINEAR) == 1.0
    rng = np.random.default_rng(99)
    A, B = rng.normal(size=(11, 4)), rng.normal(size=(7, 4))
    for k in (LINEAR, KernelSpec("rbf", 0.5)):
        assert mmd_sq(A, B, k) == mmd_sq(B, A, k)
    ok(3, "identity zero for 50 sets, hand-expanded cases exact, symmetry exact")


def test_criterion_4_tca_shift_reduction():
    ratios = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        Xs = rng.normal(size=(60, 5))
        Xt = rng.normal(size=(60, 5))
        Xt[:, 0] += 10.0
        raw = mmd_sq(Xs, Xt, LINEAR)
        model = tca_fit(Xs, Xt, LINEAR, dim=2, mu_reg=1.0)
        projected = mmd_sq(tca_transform(model, Xs), tca_transform(model, Xt), LINEAR)
        ratios.append(projected / raw)
        assert projected <= 0.5 * raw, (seed, projected, raw)
    ok(4, f"projected/raw MMD ratio <= {max(ratios):.2e} across 10 seeds (bound 0.5)")


def test_criterion_5_kpca_pca_equivalence():
    worst = 1.0
    for seed in range(20):
        X = np.random.default_rng(seed).normal(size=(30, 5))
        scores = kpca_transform(kpca_fit(X, LINEAR, dim=5), X)
        Xc = X - X.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(Xc.T @ Xc)
        ref = Xc @ eigvecs[:, np.argsort(eigvals)[::-1]]
        for j in range(scores.shape[1]):
            corr = abs(np.corrcoef(scores[:, j], ref[:, j])[0, 1])
            worst = min(worst, corr)
            assert corr > 1 - 1e-9, (seed, j, corr)
    ok(5, f"per-component |correlation| with direct PCA >= {worst:.12f} on 20 matrices")


def test_criterion_6_gradient_fidelity():
    rng = np.random.default_rng(0)
    checked_total, worst = 0, 0.0

    # plain MLP cross-entropy
    spec = MlpSpec((6, 8, 4), activation="leaky_relu")
    mlp = init_mlp(spec, 1)
    X = rng.normal(size=(10, 6))
    y = rng.integers(0, 4, 10)
    probs, cache = forward(spec, mlp.params, X)
    grads, _ = backward(spec, mlp.params, cache, cross_entropy_grad(probs, y))
    err, n = max_relative_error(
        mlp.params, grads, lambda p: cross_entropy(forward(spec, p, X)[0], y)
    )
    worst, checked_total = max(worst, err), checked_total + n

    # GRL composite objective w.r.t. extractor parameters
    lam = 1.3
    init_rng = np.random.default_rng(2)
    specs = (MlpSpec((5, 6), head="identity"), MlpSpec((6, 3)), MlpSpec((6, 2)))
    model = DannModel(*(init_mlp(spec, init_rng) for spec in specs), lam, (0, 1, 2))
    Xs, ys, Xt = rng.normal(size=(9, 5)), rng.integers(0, 3, 9), rng.normal(size=(6, 5))
    egrads, _, _ = dann_batch_grads(model, Xs, ys, Xt)

    def composite(ext_params):
        feats, _ = forward(model.extractor.spec, ext_params, Xs)
        class_loss = cross_entropy(forward(model.predictor.spec, model.predictor.params, feats)[0], ys)
        feats_all, _ = forward(model.extractor.spec, ext_params, np.vstack([Xs, Xt]))
        dom_probs = forward(model.domain_classifier.spec, model.domain_classifier.params, feats_all)[0]
        dom_loss = cross_entropy(dom_probs, np.array([0] * 9 + [1] * 6))
        return class_loss - lam * dom_loss

    err, n = max_relative_error(model.extractor.params, egrads, composite)
    worst, checked_total = max(worst, err), checked_total + n

    # adversarial discriminator loss
    disc = init_mlp(MlpSpec((4, 6, 2), activation="sigmoid"), 3)
    feats = rng.normal(size=(12, 4))
    d_labels = rng.integers(0, 2, 12)
    dprobs, dcache = forward(disc.spec, disc.params, feats)
    dgrads, _ = backward(disc.spec, disc.params, dcache, cross_entropy_grad(dprobs, d_labels))
    err, n = max_relative_error(
        disc.params, dgrads, lambda p: cross_entropy(forward(disc.spec, p, feats)[0], d_labels)
    )
    worst, checked_total = max(worst, err), checked_total + n

    assert checked_total >= 100
    assert worst < 1e-4
    ok(6, f"max relative error {worst:.2e} over {checked_total} coordinates, three losses")


def test_criterion_7_dann_alignment():
    rng = np.random.default_rng(4)
    X = np.vstack([rng.normal(size=(60, 3)) + [2, 0, 0], rng.normal(size=(60, 3)) - [2, 0, 0]])
    y = np.array([0] * 60 + [1] * 60)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=60, patience=20)
    (trained,) = train_dann([(X, y, X.copy(), 1)], cfg, (), 8, "relu", 1.0)
    feats, _ = forward(trained.extractor.spec, trained.extractor.params, X)
    dprobs, _ = forward(
        trained.domain_classifier.spec, trained.domain_classifier.params, np.vstack([feats, feats])
    )
    domain_acc = float(np.mean(np.argmax(dprobs, axis=1) == np.array([0] * len(X) + [1] * len(X))))
    assert 0.4 <= domain_acc <= 0.6

    init_rng = np.random.default_rng(2)
    specs = network_specs(3, 2, (), 8, "relu")
    zero = DannModel(*(init_mlp(spec, init_rng) for spec in specs), 0.0, (0, 1))
    plain_e, _ = class_grads(zero.extractor, zero.predictor, X[:32], y[:32])
    dann_e, _, _ = dann_batch_grads(zero, X[:32], y[:32], X[32:64])
    for (pw, pb), (dw, db) in zip(plain_e, dann_e):
        np.testing.assert_array_equal(pw, dw)
        np.testing.assert_array_equal(pb, db)
    ok(7, f"domain accuracy {domain_acc:.2f} in [0.4, 0.6]; lambda=0 extractor grads bit-equal")


def test_criterion_8_svm_soundness():
    rng = np.random.default_rng(0)
    for trial in range(20):
        X = rng.normal(size=(30, 3))
        y = (X[:, 0] > 0).astype(int) if trial % 2 == 0 else rng.integers(0, 2, 30)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        kernel = KernelSpec("rbf", 0.7) if trial % 3 else LINEAR
        model = svm_train(X, y, kernel, C=1.0, seed=trial)
        assert kkt_holds(model, X, y, 1e-3), f"KKT violated on trial {trial}"

    X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    y = np.array([0, 0, 1, 1])
    xor = svm_train(X, y, KernelSpec("rbf", 1.0), C=10.0)
    assert float(np.mean(svm_predict(xor, X) == y)) == 1.0
    ok(8, "KKT audit green on 20 problems at tol 1e-3; RBF fits XOR exactly")


def test_criterion_9_csp_and_de_oracles():
    rng = np.random.default_rng(5)
    trials_a = [SignalEpoch(np.vstack([rng.normal(size=200) * 3.0, rng.normal(size=200) * 0.3]), 250.0) for _ in range(30)]
    trials_b = [SignalEpoch(np.vstack([rng.normal(size=200) * 0.3, rng.normal(size=200) * 3.0]), 250.0) for _ in range(30)]
    model = csp_fit(trials_a, trials_b, 2)
    top = model.filters[0]
    ratio = np.mean([np.var(top @ t.samples) for t in trials_a]) / np.mean(
        [np.var(top @ t.samples) for t in trials_b]
    )
    assert ratio > 10.0

    epoch = SignalEpoch(np.random.default_rng(0).normal(size=(1, 10_000)), 200.0)
    de = differential_entropy(epoch, [BandSpec("alpha", 8.0, 13.0)])[0]
    alpha_var = butter_bandpass(epoch, 8.0, 13.0).samples.var()
    assert de == 0.5 * math.log(2 * math.pi * math.e * alpha_var)

    t = np.arange(1000) / 250.0
    passband = SignalEpoch(np.sin(2 * np.pi * 20.0 * t)[None, :], 250.0)
    stopband = SignalEpoch(np.sin(2 * np.pi * 2.0 * t)[None, :], 250.0)
    def _rms(x):
        return float(np.sqrt(np.mean(x**2)))
    kept = _rms(butter_bandpass(passband, 8.0, 30.0).samples) / _rms(passband.samples)
    removed = _rms(butter_bandpass(stopband, 8.0, 30.0).samples) / _rms(stopband.samples)
    assert kept >= 0.9 and removed <= 0.1
    ok(9, f"CSP ratio {ratio:.1f} > 10; alpha-band DE {de:.4f} = 0.5 ln(2 pi e var); RMS kept {kept:.2f} / removed {removed:.3f}")


def test_criterion_10_protocol_and_leakage():
    synth = SyntheticShiftConfig(
        n_subjects=3, n_sessions=1, n_classes=2, samples_per_class_per_domain=20,
        dim=4, domain_shift_scale=6.0, seed=13,
    )
    ds = generate_synthetic(synth)
    folds = loso_folds(ds)
    covered = np.concatenate([f.test_idx for f in folds])
    assert np.array_equal(np.sort(covered), np.arange(ds.n))

    fold = folds[0]
    constant = DomainDataset(
        ds.features,
        np.where(np.isin(np.arange(ds.n), fold.test_idx), 0, ds.labels),
        ds.subjects,
        ds.sessions,
    )
    params_pairs = []
    for source in (ds, constant):
        train_X, test_X = apply_strategy(source, fold, NormStrategy.Z2)
        [(fitted, _)] = fit_method(
            MethodSpec("TCA-SVM"), [FitProblem(train_X, source.labels[fold.train_idx], test_X, 3)]
        )
        params_pairs.append(fitted.parameters())
    for a, b in zip(*params_pairs):
        np.testing.assert_array_equal(a, b)

    cfg = ExperimentConfig(
        dataset=synth, protocol="loso",
        strategies=(NormStrategy.NO_NORM, NormStrategy.Z2),
        methods=(MethodSpec("noDA-SVM"),), seed=13,
    )
    assert report_csv(run_experiment(cfg).cells) == report_csv(run_experiment(cfg).cells)
    ok(10, "LOSO partitions rows; constant test labels leave fitted bits identical; reruns byte-identical")


def test_criterion_11_table_fidelity():
    assert format_cell(0.8152, 0.0726) == "81.52 (7.26)"
    ok(11, 'format_cell(0.8152, 0.0726) == "81.52 (7.26)"')
