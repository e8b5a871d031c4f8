import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import deep_reference
from deep_reference import flat_copy
from gradcheck import class_grads, cross_entropy, cross_entropy_grad, dann_batch_grads, max_relative_error
from normda import deep
from normda.dataset import SyntheticShiftConfig, generate_synthetic
from normda.deep import (
    ACTIVATIONS,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    DannModel,
    MlpSpec,
    TrainConfig,
    adam_step,
    backward,
    flatten,
    forward,
    init_mlp,
    network_specs,
    predict,
    softmax,
    train_adda,
    train_dann,
    train_plain,
)
from normda.errors import (
    ConfigError, DegenerateLabelsError, EmptyInputError, NormdaError, NumericError, ShapeError
)
from normda.shallow import KernelSpec, mmd_sq


def params_equal(a, b):
    return all(np.array_equal(x[0], y[0]) and np.array_equal(x[1], y[1]) for x, y in zip(a, b))


def dann_model(extractor, predictor, domain, lam, seed):
    """A freshly initialized DannModel, its networks drawn as train_dann draws them."""
    rng = np.random.default_rng(seed)
    nets = (init_mlp(extractor, rng), init_mlp(predictor, rng), init_mlp(domain, rng))
    return DannModel(*nets, lam, tuple(range(predictor.out_dim)))


def fit_one(trainer, X, y, Xt, *args, seed, **kwargs):
    """The problem (X, y, Xt, seed) through `trainer` as the F = 1 stack:
    its model, or the NormdaError that failed it."""
    (result,) = trainer([(X, y, Xt, seed)], *args, **kwargs)
    return result


def assert_failed(result, kind, match):
    assert isinstance(result, kind), result
    assert re.search(match, str(result)), str(result)


def blobs(n_per=100, sep=3.0, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([
        rng.normal(size=(n_per, dim)) + np.r_[sep, np.zeros(dim - 1)],
        rng.normal(size=(n_per, dim)) - np.r_[sep, np.zeros(dim - 1)],
    ])
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


# ---------------------------------------------------------------------------
# Forward


def test_identity_network_passthrough():
    spec = MlpSpec((3, 3), head="identity")
    params = [(np.eye(3), np.zeros(3))]
    X = np.random.default_rng(0).normal(size=(5, 3))
    out, _ = forward(spec, params, X)
    np.testing.assert_array_equal(out, X)


def test_softmax_symmetry_and_normalization():
    out = softmax(np.array([[0.0, 0.0]]))
    np.testing.assert_allclose(out, [[0.5, 0.5]])


def reference_softmax(z):
    """The two-reduction softmax that the column folds replace."""
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def softmax_cases(k):
    rng = np.random.default_rng(k)
    for shape in [(f, b, k) for f in (1, 24) for b in (1, 32, 240)] + [(1, k), (32, k), (240, k)]:
        yield rng.normal(scale=4.0, size=shape)
    yield np.full((3, 5, k), 700.0) * rng.choice([-1.0, 1.0], size=(3, 5, k))
    yield np.full((4, k), -700.0)
    yield np.repeat(rng.normal(size=(6, 1)), k, axis=1)  # tied logits
    special = rng.normal(size=(5, k))
    special[0, 0] = np.inf
    special[1, -1] = -np.inf
    special[2, :] = -np.inf
    special[3, k // 2] = np.nan
    special[4, :] = np.inf
    yield special


@pytest.mark.parametrize("k", range(1, 8))
def test_softmax_matches_the_reduction_formula_bitwise(k):
    # Below 8 classes numpy's add.reduce is a left fold, so the column
    # fold gives the same bits, non-finite rows included.
    for z in softmax_cases(k):
        with np.errstate(invalid="ignore", over="ignore"):
            out, ref = softmax(z), reference_softmax(z.copy())
        assert out.shape == z.shape
        assert out.tobytes() == ref.tobytes(), z.shape


@pytest.mark.parametrize("k", [8, 12])
def test_softmax_wide_heads_match_within_rounding(k):
    # From 8 classes on add.reduce sums pairwise, so only the last bit may differ.
    for z in softmax_cases(k):
        if not np.isfinite(z).all():
            continue
        out = softmax(z)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-14)
        np.testing.assert_allclose(out, reference_softmax(z.copy()), rtol=1e-14, atol=0)


def test_relu_activation_values():
    spec = MlpSpec((2, 2, 2), activation="relu", head="identity")
    params = [(np.eye(2), np.zeros(2)), (np.eye(2), np.zeros(2))]
    out, _ = forward(spec, params, np.array([[-1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[0.0, 2.0]])  # relu applied between layers


@settings(max_examples=30, deadline=None)
@given(logits=arrays(np.float64, (4, 5), elements=st.floats(-15, 15)))
def test_softmax_rows_are_distributions(logits):
    # logit gaps beyond ~36 saturate float64 at exactly 1.0, so keep the
    # strict-openness check inside the representable regime
    probs = softmax(logits)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs > 0) and np.all(probs < 1)


def test_forward_shape_errors():
    spec = MlpSpec((3, 2))
    params = init_mlp(spec, 0).params
    with pytest.raises(ShapeError):
        forward(spec, params, np.ones((2, 4)))


def test_spec_validation():
    with pytest.raises(ConfigError):
        MlpSpec((4,))
    with pytest.raises(ConfigError):
        MlpSpec((4, 3, 3, 3, 3, 2))  # four hidden layers
    with pytest.raises(ConfigError):
        MlpSpec((4, 2), activation="tanh")


@pytest.mark.parametrize("size", [4.7, 4.0, True, "4", None])
def test_spec_rejects_sizes_that_are_not_integers(size):
    with pytest.raises(ConfigError, match="layer sizes must be integers"):
        MlpSpec((size, 2))
    with pytest.raises(ConfigError, match="layer sizes must be integers"):
        MlpSpec((3, size, 2))


def test_spec_accepts_numpy_integer_sizes():
    spec = MlpSpec((np.int64(4), np.int32(3), 2))
    assert spec.layer_sizes == (4, 3, 2)
    assert all(type(s) is int for s in spec.layer_sizes)


# ---------------------------------------------------------------------------
# Backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    spec = MlpSpec((4, 2, 3), activation="relu", head="softmax")
    mlp = init_mlp(spec, 2)
    X = rng.normal(size=(8, 4))
    y = rng.integers(0, 3, 8)

    probs, cache = forward(spec, mlp.params, X)
    grads, _ = backward(spec, mlp.params, cache, cross_entropy_grad(probs, y))

    def loss_fn(params):
        p, _ = forward(spec, params, X)
        return cross_entropy(p, y)

    err, checked = max_relative_error(mlp.params, grads, loss_fn)
    assert checked == 4 * 2 + 2 + 2 * 3 + 3
    assert err < 1e-4


def test_backward_zero_upstream_gives_zero_grads():
    spec = MlpSpec((3, 4, 2), head="identity")
    mlp = init_mlp(spec, 3)
    X = np.random.default_rng(2).normal(size=(5, 3))
    out, cache = forward(spec, mlp.params, X)
    grads, gin = backward(spec, mlp.params, cache, np.zeros_like(out))
    assert all(np.all(g[0] == 0) and np.all(g[1] == 0) for g in grads)
    assert np.all(gin == 0)


def test_backward_duplicated_row_doubles_summed_gradient():
    spec = MlpSpec((3, 4, 2), activation="sigmoid", head="identity")
    mlp = init_mlp(spec, 4)
    x = np.random.default_rng(3).normal(size=(1, 3))
    g = np.array([[1.0, -2.0]])

    _, cache1 = forward(spec, mlp.params, x)
    grads1, _ = backward(spec, mlp.params, cache1, g)
    _, cache2 = forward(spec, mlp.params, np.vstack([x, x]))
    grads2, _ = backward(spec, mlp.params, cache2, np.vstack([g, g]))
    for (w1, b1), (w2, b2) in zip(grads1, grads2):
        np.testing.assert_allclose(w2, 2 * w1, atol=1e-12)
        np.testing.assert_allclose(b2, 2 * b1, atol=1e-12)


# ---------------------------------------------------------------------------
# GRL


def test_grl_composite_objective_finite_difference():
    rng = np.random.default_rng(5)
    lam = 0.7
    model = dann_model(MlpSpec((4, 6), head="identity"), MlpSpec((6, 3)), MlpSpec((6, 2)), lam, seed=6)
    Xs = rng.normal(size=(9, 4))
    ys = rng.integers(0, 3, 9)
    Xt = rng.normal(size=(7, 4))
    X_all = np.vstack([Xs, Xt])
    d_labels = np.array([0] * 9 + [1] * 7)

    egrads, _, _ = dann_batch_grads(model, Xs, ys, Xt)

    def composite(ext_params):
        feats, _ = forward(model.extractor.spec, ext_params, Xs)
        probs, _ = forward(model.predictor.spec, model.predictor.params, feats)
        class_loss = cross_entropy(probs, ys)
        feats_all, _ = forward(model.extractor.spec, ext_params, X_all)
        dprobs, _ = forward(model.domain_classifier.spec, model.domain_classifier.params, feats_all)
        return class_loss - lam * cross_entropy(dprobs, d_labels)

    err, _ = max_relative_error(model.extractor.params, egrads, composite)
    assert err < 1e-4


def test_dann_lambda_zero_matches_plain_gradients_bitwise():
    rng = np.random.default_rng(7)
    model = dann_model(MlpSpec((4, 6), head="identity"), MlpSpec((6, 3)), MlpSpec((6, 2)), 0.0, seed=8)
    Xs = rng.normal(size=(10, 4))
    ys = rng.integers(0, 3, 10)
    Xt = rng.normal(size=(6, 4))
    plain_e, plain_p = class_grads(model.extractor, model.predictor, Xs, ys)
    dann_e, dann_p, dann_d = dann_batch_grads(model, Xs, ys, Xt)
    assert params_equal(plain_e, dann_e)
    assert params_equal(plain_p, dann_p)
    # the domain head still receives its own training gradients
    assert any(np.any(g[0] != 0) for g in dann_d)


# ---------------------------------------------------------------------------
# Adam


def reference_adam_step(params, grads, state, lr):
    """Per-array Adam update over (weights, bias) lists; state is (m, v, t)."""
    m_list, v_list, t = state
    t += 1
    c1, c2 = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
    new_p, new_m, new_v = [], [], []
    for layer in zip(params, grads, m_list, v_list):
        pair_p, pair_m, pair_v = [], [], []
        for p, g, m, v in zip(*layer):
            m_new = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v_new = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            pair_p.append(p - lr * (m_new / c1) / (np.sqrt(v_new / c2) + ADAM_EPS))
            pair_m.append(m_new)
            pair_v.append(v_new)
        new_p.append(tuple(pair_p))
        new_m.append(tuple(pair_m))
        new_v.append(tuple(pair_v))
    return new_p, (new_m, new_v, t)


def test_adam_flat_update_matches_per_array_reference_bitwise():
    X, y = blobs(n_per=20, dim=3, seed=30)
    ext = init_mlp(MlpSpec((3, 7, 5, 4), head="identity"), 31)
    pred = init_mlp(MlpSpec((4, 2)), 32)
    theta, (fext, fpred) = flat_copy([ext, pred])
    member = theta[None]  # a one-row stack over the vector the views read
    state = AdamState.zeros_like(member)
    ref = ext.params + pred.params
    zeros = [(np.zeros_like(w), np.zeros_like(b)) for w, b in ref]
    ref_state = (zeros, zeros, 0)
    for step in range(6):
        rows = slice(5 * step, 5 * step + 12)
        egrads, pgrads = class_grads(fext, fpred, X[rows], y[rows])
        assert adam_step(member, flatten(egrads, pgrads)[None], state, 0.05) == ()
        ref, ref_state = reference_adam_step(ref, egrads + pgrads, ref_state, 0.05)
        assert params_equal(fext.params + fpred.params, ref)
        np.testing.assert_array_equal(state.m[0], flatten(ref_state[0]))
        np.testing.assert_array_equal(state.v[0], flatten(ref_state[1]))
        assert state.t == ref_state[2] == step + 1


def assert_adam_rows_match_reference(theta, state, before, grad, t, rows):
    """Each of `rows` holds one reference step from its `before` (theta, m,
    v) at step count t."""
    for j in rows:
        ref, (ref_m, ref_v, _) = reference_adam_step(
            [(before[0][j],)], [(grad[j],)], ([(before[1][j],)], [(before[2][j],)], t), 0.1
        )
        assert theta[j].tobytes() == ref[0][0].tobytes()
        assert state.m[j].tobytes() == ref_m[0][0].tobytes()
        assert state.v[j].tobytes() == ref_v[0][0].tobytes()


def test_adam_non_finite_update_writes_nothing():
    theta = np.array([[1.0, -2.0, 3.0], [0.5, 0.25, -1.0]])
    state = AdamState(m=np.array([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]), v=np.full((2, 3), 0.02), t=4)
    before = (theta.copy(), state.m.copy(), state.v.copy())
    grad = np.array([[0.5, -1.5, 2.0], [1.0, np.nan, 1.0]])
    np.testing.assert_array_equal(adam_step(theta, grad, state, lr=0.1), [1])
    for now, was in zip((theta, state.m, state.v), before):
        assert now[1].tobytes() == was[1].tobytes()
    assert_adam_rows_match_reference(theta, state, before, grad, 4, [0])
    assert state.t == 5
    # The failed step's work arrays must not leak into the next one.
    before = (theta.copy(), state.m.copy(), state.v.copy())
    grad = np.array([[0.5, -1.5, 2.0], [-1.0, 0.5, 0.25]])
    assert adam_step(theta, grad, state, lr=0.1) == ()
    assert_adam_rows_match_reference(theta, state, before, grad, 5, [0, 1])
    assert state.t == 6


def test_adam_first_step_magnitude():
    # bias correction makes m_hat/sqrt(v_hat) = sign(g), so the first step
    # is lr per coordinate (up to eps for the smallest gradients)
    theta = np.zeros((1, 6))
    grad = np.array([[0.5, -3.0, 1e-3, 10.0, 2.0, -2.0]])
    adam_step(theta, grad, AdamState.zeros_like(theta), lr=0.1)
    np.testing.assert_allclose(np.abs(theta), 0.1, rtol=1e-4)


def test_adam_zero_gradient_no_change():
    theta = np.ones((1, 6))
    adam_step(theta, np.zeros((1, 6)), AdamState.zeros_like(theta), lr=0.1)
    np.testing.assert_array_equal(theta, np.ones((1, 6)))


def test_adam_two_step_hand_trace():
    # constant gradient 1, lr 0.1: replay the moment recurrences by hand
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = 0.0
    m = v = 0.0
    expected = []
    for t in (1, 2):
        m = b1 * m + (1 - b1) * 1.0
        v = b2 * v + (1 - b2) * 1.0
        p -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        expected.append(p)

    theta = np.zeros((1, 2))
    grad = np.array([[1.0, 0.0]])
    state = AdamState.zeros_like(theta)
    adam_step(theta, grad, state, lr)
    assert theta[0, 0] == pytest.approx(expected[0], abs=1e-15)
    adam_step(theta, grad, state, lr)
    assert theta[0, 0] == pytest.approx(expected[1], abs=1e-15)
    assert theta[0, 1] == 0.0
    assert expected[1] < expected[0] < 0.0


# ---------------------------------------------------------------------------
# Plain training


def test_train_plain_fits_separable_blobs():
    X, y = blobs(seed=10)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=200, patience=20)
    model = fit_one(train_plain, X, y, X, cfg, (), 8, "relu", seed=0)
    acc = np.mean(predict(model, X) == y)
    assert acc >= 0.99


def test_train_plain_lr_zero_returns_initial_snapshot():
    X, y = blobs(n_per=40, seed=11)
    cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=300, patience=1)
    ext_spec, pred_spec, _ = network_specs(2, 2, (), 4, "relu")
    model = fit_one(train_plain, X, y, X, cfg, (), 4, "relu", seed=5)
    rng = np.random.default_rng(5)
    init_ext = init_mlp(ext_spec, rng)
    init_pred = init_mlp(pred_spec, rng)
    assert params_equal(model.extractor.params, init_ext.params)
    assert params_equal(model.predictor.params, init_pred.params)


def test_train_plain_deterministic():
    X, y = blobs(n_per=50, seed=12)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=30, patience=10)
    a = fit_one(train_plain, X, y, X, cfg, (), 6, "relu", seed=3)
    b = fit_one(train_plain, X, y, X, cfg, (), 6, "relu", seed=3)
    assert params_equal(a.extractor.params, b.extractor.params)
    assert params_equal(a.predictor.params, b.predictor.params)


def test_train_plain_reads_no_target_rows():
    X, y = blobs(n_per=30, seed=20, dim=3)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=8, patience=3)
    targets = (X + 1.0, np.zeros((7, 3)), np.full_like(X, np.nan))
    models = [fit_one(train_plain, X, y, Xt, cfg, (), 5, "relu", seed=8) for Xt in targets]
    assert all(isinstance(model, deep.PlainModel) for model in models)
    for model in models[1:]:
        assert_same_bits(model, models[0])


def test_train_plain_batch_larger_than_the_training_rows_is_one_batch():
    X, y = blobs(n_per=30, seed=21, dim=3)
    shape = ((), 5, "relu")
    n_train = deep._val_split(y, np.random.default_rng(4))[0].size  # the member's split
    cfg = TrainConfig(learning_rate=0.05, batch_size=n_train, max_epochs=8, patience=3)
    whole = fit_one(train_plain, X, y, X, cfg, *shape, seed=4)
    oversize = fit_one(train_plain, X, y, X, replace(cfg, batch_size=10**30), *shape, seed=4)
    assert isinstance(whole, deep.PlainModel)
    assert_same_bits(oversize, whole)


NON_FINITE_INPUTS = [
    ("plain", "X", "training"),
    ("dann", "Xs", "training"),
    ("dann", "Xt", "target"),
    ("adda", "Xs", "training"),
    ("adda", "Xt", "target"),
]


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("trainer, name, kind", NON_FINITE_INPUTS)
def test_trainers_reject_non_finite_inputs(trainer, name, kind, value):
    X, y = blobs(n_per=20, seed=41, dim=3)
    inputs = {"X": X.copy(), "Xs": X.copy(), "Xt": X + 1.0}
    inputs[name][7, 1] = value
    cfg = TrainConfig(batch_size=16, max_epochs=2, patience=1)
    # Rejected before any network runs: no matmul warning, no forward error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        source = inputs["X"] if trainer == "plain" else inputs["Xs"]
        (result,) = call_trainer(trainer, [(source, y, inputs["Xt"], 0)], cfg, ((), 4, "relu"))
    assert_failed(result, NumericError, f"^{kind} features contain non-finite values$")


def call_trainer(trainer, problems, cfg, shape):
    """The named trainer on (X, y, Xt, seed) problems, its networks of
    `shape`: (hidden, feature_dim, activation)."""
    if trainer == "plain":
        return train_plain(problems, cfg, *shape)
    if trainer == "dann":
        return train_dann(problems, cfg, *shape, lam=0.5)
    return train_adda(problems, cfg, *shape)


SHAPE_CASES = [
    ("rows", lambda X, y, Xt: (X, y[:-2], Xt), r"^training labels must have length 40, got shape \(38,\)$"),
    ("flat", lambda X, y, Xt: (X[:, 0], y, Xt), r"training features must be rows, got shape \(40,\)"),
    ("target", lambda X, y, Xt: (X, y, Xt[:, :2]), "target features must be rows of width 3"),
    ("fraction", lambda X, y, Xt: (X, np.tile([0.5, 1.7], 20), Xt), "labels must be integers"),
    ("nan", lambda X, y, Xt: (X, np.where(y == 1, np.nan, y), Xt), "labels must be integers"),
    ("inf", lambda X, y, Xt: (X, np.where(y == 1, np.inf, y), Xt), "labels must be integers"),
    ("columns", lambda X, y, Xt: (X[:, :0], y, Xt), r"^training features must have at least one column, got shape \(40, 0\)$"),
    ("strings", lambda X, y, Xt: (np.full(X.shape, "a"), y, Xt), "^training features must be an array of numbers$"),
]


@pytest.mark.parametrize(
    "trainer, change, message",
    [
        pytest.param(trainer, change, message, id=f"{trainer}-{case}")
        for trainer in ("plain", "dann", "adda")
        for case, change, message in SHAPE_CASES
        if not (trainer == "plain" and case == "target")  # train_plain reads no target rows
    ],
)
def test_trainers_reject_mismatched_shapes(trainer, change, message):
    X, y = blobs(n_per=20, seed=41, dim=3)
    X, y, Xt = change(X, y, X + 1.0)
    cfg = TrainConfig(batch_size=16, max_epochs=2, patience=1)
    (result,) = call_trainer(trainer, [(X, y, Xt, 0)], cfg, ((), 4, "relu"))
    assert_failed(result, ShapeError, message)


def lockstep_members():
    """(X, y, Xt, seed) problems of two shapes (45 and 36 source rows). The
    fifth holds two rows near the float64 limit, so its networks overflow
    in its first epoch while the others train on; the sixth has fewer
    labels than rows."""
    X, y, Xt, *_ = reference_case("relu", (5,), 16)
    shifted = X + np.random.default_rng(54).normal(scale=0.3, size=X.shape)
    short = np.r_[0:12, 15:27, 30:42]
    huge = X.copy()
    huge[20:22] = 1.7e308
    return [
        (X, y, Xt, 3),
        (X, y, Xt, 4),
        (X[short], y[short], Xt[:20], 5),
        (shifted, y, Xt, 6),
        (huge, y, Xt, 13),
        (X, y[:-1], Xt, 8),
        (shifted[short], y[short], Xt[:20], 9),
        (shifted, y, Xt * 0.5, 10),
    ]


@pytest.mark.parametrize("trainer", ["plain", "dann", "adda"])
def test_lockstep_members_match_solo_fits_bitwise(monkeypatch, trainer):
    members = lockstep_members()
    shape = reference_case("relu", (5,), 16)[4]
    cfg = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=12, patience=3)
    scored = []
    real_val_accuracy = deep._val_accuracy

    def recording_val_accuracy(stack, specs):
        scored.append(len(stack.ids))
        return real_val_accuracy(stack, specs)

    with np.errstate(all="ignore"):
        monkeypatch.setattr(deep, "_val_accuracy", recording_val_accuracy)
        together = call_trainer(trainer, members, cfg, shape)
        monkeypatch.undo()
        solo = [call_trainer(trainer, [member], cfg, shape)[0] for member in members]
    # Members left their stacks at different epochs, so later epochs scored fewer.
    assert len(set(scored)) >= 3
    assert len(together) == len(members)
    for got, want in zip(together, solo):
        if isinstance(want, NormdaError):
            assert type(got) is type(want) and str(got) == str(want)
        else:
            assert_same_bits(got, want)
    assert isinstance(together[4], NumericError) and isinstance(together[5], ShapeError)
    assert sum(isinstance(r, NormdaError) for r in together) == 2


@pytest.mark.parametrize("trainer", ["plain", "dann", "adda"])
def test_bad_seed_fails_only_its_own_problem(trainer):
    X, y = blobs(n_per=20, seed=41, dim=3)
    cfg = TrainConfig(batch_size=16, max_epochs=2, patience=1)
    results = call_trainer(trainer, [(X, y, X + 1.0, seed) for seed in (0, -1, 2)], cfg, ((), 4, "relu"))
    assert not isinstance(results[0], NormdaError) and not isinstance(results[2], NormdaError)
    assert_failed(results[1], ConfigError, r"^seed must be >= 0, got -1$")


@pytest.mark.parametrize("trainer", ["plain", "dann", "adda"])
def test_trainers_take_any_integer_labels(monkeypatch, trainer):
    # {3, 7, 9} and {-4, 0, 6} have three classes each and share one stack;
    # {-2, 5} needs a two-class head and a stack of its own. Each member
    # equals the solo fit of its labels mapped to 0..k-1, bit for bit.
    X, y, Xt, _, shape, _ = reference_case("relu", (5,), 16)
    cfg = TrainConfig(learning_rate=0.02, batch_size=16, max_epochs=5, patience=3)
    two = y < 2
    shifted = X + np.random.default_rng(55).normal(scale=0.3, size=X.shape)
    cases = [((3, 7, 9), X, y, 3), ((-2, 5), X[two], y[two], 4), ((-4, 0, 6), shifted, y, 5)]
    problems = [(Xc, np.asarray(labels)[yc], Xt, seed) for labels, Xc, yc, seed in cases]
    sizes = []
    real_lockstep = deep._lockstep

    def recording_lockstep(problems, setup, train):
        def recorded(members, specs):
            sizes.append(len(members))
            return train(members, specs)

        return real_lockstep(problems, setup, recorded)

    monkeypatch.setattr(deep, "_lockstep", recording_lockstep)
    together = call_trainer(trainer, problems, cfg, shape)
    monkeypatch.undo()
    assert sorted(sizes) == [1, 2]
    for (labels, Xc, yc, seed), got in zip(cases, together):
        (solo,) = call_trainer(trainer, [(Xc, yc, Xt, seed)], cfg, shape)
        assert got.classes == labels and solo.classes == tuple(range(len(labels)))
        assert_same_bits(got, solo)
        predicted = predict(got, Xt)
        assert predicted.dtype == np.int64 and set(predicted.tolist()) <= set(labels)
        np.testing.assert_array_equal(predicted, np.asarray(labels)[predict(solo, Xt)])


def test_train_plain_single_class_rejected():
    X, y = np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int)
    result = fit_one(train_plain, X, y, X, TrainConfig(), (), 4, "relu", seed=0)
    assert_failed(result, DegenerateLabelsError, "single class")


# ---------------------------------------------------------------------------
# DANN


def test_dann_target_equals_source_confuses_domain_head():
    X, y = blobs(n_per=60, seed=13, dim=3)
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=60, patience=20)
    trained = fit_one(train_dann, X, y, X.copy(), cfg, (), 8, "relu", lam=1.0, seed=1)
    feats, _ = forward(trained.extractor.spec, trained.extractor.params, X)
    dprobs, _ = forward(
        trained.domain_classifier.spec, trained.domain_classifier.params, np.vstack([feats, feats])
    )
    domain_acc = np.mean(np.argmax(dprobs, axis=1) == np.array([0] * len(X) + [1] * len(X)))
    assert 0.4 <= domain_acc <= 0.6


def test_dann_reduces_extractor_mmd_on_shifted_domains():
    ds = generate_synthetic(SyntheticShiftConfig(
        n_subjects=2, n_sessions=1, n_classes=2, samples_per_class_per_domain=100,
        dim=8, class_separation=4.0, domain_shift_scale=3.0, noise_std=1.0, seed=5,
    ))
    Xs, ys = ds.features[ds.subjects == 0], ds.labels[ds.subjects == 0]
    Xt = ds.features[ds.subjects == 1]
    k = KernelSpec("linear")
    raw = mmd_sq(Xs, Xt, k)
    cfg = TrainConfig(learning_rate=0.003, batch_size=32, max_epochs=60, patience=15)
    trained = fit_one(train_dann, Xs, ys, Xt, cfg, (16,), 2, "sigmoid", lam=1.0, seed=2)
    fs, _ = forward(trained.extractor.spec, trained.extractor.params, Xs)
    ft, _ = forward(trained.extractor.spec, trained.extractor.params, Xt)
    assert mmd_sq(fs, ft, k) < raw


def test_dann_deterministic():
    X, y = blobs(n_per=30, seed=14, dim=3)
    cfg = TrainConfig(learning_rate=0.01, batch_size=16, max_epochs=10, patience=5)
    runs = [fit_one(train_dann, X, y, X + 1.0, cfg, (), 4, "relu", lam=1.0, seed=4) for _ in range(2)]
    assert params_equal(runs[0].extractor.params, runs[1].extractor.params)
    assert params_equal(runs[0].domain_classifier.params, runs[1].domain_classifier.params)


def test_dann_empty_target_rejected():
    X, y = blobs(n_per=10, seed=15)
    result = fit_one(train_dann, X, y, np.empty((0, 2)), TrainConfig(), (), 4, "relu", lam=1.0, seed=0)
    assert_failed(result, EmptyInputError, r"^target features must have at least one row, got shape \(0, 2\)$")


def test_train_dann_lr_zero_returns_initial_snapshot():
    X, y = blobs(n_per=40, seed=11, dim=3)
    cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=300, patience=1)
    model = fit_one(train_dann, X, y, X + 1.0, cfg, (5,), 4, "relu", lam=0.5, seed=5)
    initial = dann_model(*network_specs(3, 2, (5,), 4, "relu"), 0.5, seed=5)
    for got, want in zip(
        (model.extractor, model.predictor, model.domain_classifier),
        (initial.extractor, initial.predictor, initial.domain_classifier),
    ):
        assert params_equal(got.params, want.params)
    assert model.lam == 0.5


@pytest.mark.parametrize("lam", [-0.1, math.nan, math.inf])
def test_train_dann_negative_lambda_rejected(lam):
    X, y = blobs(n_per=10, seed=15)
    specs = network_specs(2, 2, (), 4, "relu")
    message = rf"^lam must be {'>= 0' if math.isfinite(lam) else 'finite'}, got {lam!r}$"
    with pytest.raises(ConfigError, match=message):
        train_dann([(X, y, X, 0)], TrainConfig(), (), 4, "relu", lam)
    with pytest.raises(ConfigError, match=message):
        dann_model(*specs, lam, seed=0)


# ---------------------------------------------------------------------------
# ADDA


ADDA_SHAPE = ((), 8, "relu")


def test_train_adda_lr_zero_returns_initial_snapshot():
    X, y = blobs(n_per=40, seed=11, dim=3)
    cfg = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=300, patience=1)
    specs = network_specs(3, 2, *ADDA_SHAPE)
    model = fit_one(train_adda, X, y, X + 1.0, cfg, *ADDA_SHAPE, seed=5)
    rng = np.random.default_rng(5)
    encoder, classifier, discriminator = (init_mlp(spec, rng) for spec in specs)
    assert params_equal(model.source_encoder.params, encoder.params)
    assert params_equal(model.target_encoder.params, encoder.params)
    assert params_equal(model.classifier.params, classifier.params)
    assert params_equal(model.discriminator.params, discriminator.params)


def test_dann_and_adda_training_moves_parameters():
    X, y = blobs(n_per=30, seed=19, dim=3)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=5, patience=5)
    still = TrainConfig(learning_rate=0.0, batch_size=16, max_epochs=5, patience=5)
    dann_shape = ((), 4, "relu")
    dann_out = fit_one(train_dann, X, y, X + 1.0, cfg, *dann_shape, lam=1.0, seed=7)
    dann_initial = fit_one(train_dann, X, y, X + 1.0, still, *dann_shape, lam=1.0, seed=7)
    adda_out = fit_one(train_adda, X, y, X + 1.0, cfg, *ADDA_SHAPE, seed=7)
    adda_initial = fit_one(train_adda, X, y, X + 1.0, still, *ADDA_SHAPE, seed=7)
    assert not params_equal(dann_out.extractor.params, dann_initial.extractor.params)
    assert not params_equal(adda_out.target_encoder.params, adda_initial.target_encoder.params)


def test_adda_target_equals_source_discriminator_near_chance():
    ds = generate_synthetic(SyntheticShiftConfig(
        n_subjects=1, n_sessions=1, n_classes=2, samples_per_class_per_domain=100,
        dim=8, class_separation=4.0, seed=5,
    ))
    X, y = ds.features, ds.labels
    perm = np.random.default_rng(9).permutation(len(X))
    fit, held = perm[:160], perm[160:]
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=40, patience=10)
    trained = fit_one(train_adda, X[fit], y[fit], X[fit].copy(), cfg, *ADDA_SHAPE, seed=1)
    fs, _ = forward(trained.source_encoder.spec, trained.source_encoder.params, X[held])
    ft, _ = forward(trained.target_encoder.spec, trained.target_encoder.params, X[held])
    dprobs, _ = forward(trained.discriminator.spec, trained.discriminator.params, np.vstack([fs, ft]))
    acc = np.mean(np.argmax(dprobs, axis=1) == np.array([0] * len(held) + [1] * len(held)))
    assert 0.4 <= acc <= 0.6


def test_adda_improves_target_accuracy_under_translation_shift(monkeypatch):
    # This case was written for a discriminator with a hidden layer. With
    # the one-layer discriminator of network_specs the target encoder does
    # not beat the source encoder on it (0.5 and 0.5), so the case keeps
    # its own discriminator.
    real_specs = deep.network_specs

    def hidden_layer_discriminator(*shape):
        encoder, classifier, discriminator = real_specs(*shape)
        return encoder, classifier, MlpSpec((discriminator.in_dim, 8, 2), activation="leaky_relu")

    monkeypatch.setattr(deep, "network_specs", hidden_layer_discriminator)
    ds = generate_synthetic(SyntheticShiftConfig(
        n_subjects=2, n_sessions=1, n_classes=2, samples_per_class_per_domain=100,
        dim=8, class_separation=4.0, domain_shift_scale=10.0, noise_std=1.0, seed=5,
    ))
    Xs, ys = ds.features[ds.subjects == 0], ds.labels[ds.subjects == 0]
    Xt, yt = ds.features[ds.subjects == 1], ds.labels[ds.subjects == 1]
    cfg = TrainConfig(learning_rate=0.01, batch_size=32, max_epochs=240, patience=15)
    trained = fit_one(train_adda, Xs, ys, Xt, cfg, *ADDA_SHAPE, seed=1)
    through_source = replace(trained, target_encoder=trained.source_encoder)
    acc_through_source = np.mean(predict(through_source, Xt) == yt)
    acc_through_target = np.mean(predict(trained, Xt) == yt)
    assert acc_through_target > acc_through_source


def test_adda_discriminator_gradients_match_finite_differences():
    rng = np.random.default_rng(17)
    disc = init_mlp(MlpSpec((4, 6, 2), activation="leaky_relu"), 18)
    feats = rng.normal(size=(10, 4))
    labels = rng.integers(0, 2, 10)
    probs, cache = forward(disc.spec, disc.params, feats)
    grads, _ = backward(disc.spec, disc.params, cache, cross_entropy_grad(probs, labels))

    def loss_fn(params):
        p, _ = forward(disc.spec, params, feats)
        return cross_entropy(p, labels)

    err, _ = max_relative_error(disc.params, grads, loss_fn)
    assert err < 1e-4


# ---------------------------------------------------------------------------
# Differential: the trainers against the frozen allocating loops


def all_params(model):
    return [a for mlp in vars(model).values() if hasattr(mlp, "params") for pair in mlp.params for a in pair]


def assert_same_bits(model, ref):
    got, want = all_params(model), all_params(ref)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def reference_case(activation, hidden, batch_size):
    """Three-class source of 45 rows (39 train after the split), 30 shifted
    target rows, the shape (hidden, feature_dim 4, activation) the trainers
    take, and the specs network_specs builds from it for the reference:
    extractor, predictor and domain head."""
    X, y = blobs(n_per=15, dim=3, seed=51)
    X = np.vstack([X, np.random.default_rng(52).normal(size=(15, 3)) + [0.0, 4.0, 0.0]])
    y = np.r_[y, [2] * 15]
    Xt = np.random.default_rng(53).normal(size=(30, 3)) * 1.5 + 0.7
    shape = (hidden, 4, activation)
    cfg = TrainConfig(learning_rate=0.05, batch_size=batch_size, max_epochs=6, patience=3)
    return X, y, Xt, cfg, shape, network_specs(3, 3, *shape)


# 16 leaves a partial last batch of the 39 training rows (and of ADDA's 45
# stage-2 rows); 64 is larger than either.
REFERENCE_GRID = pytest.mark.parametrize("batch_size", [16, 64])
REFERENCE_ARCH = pytest.mark.parametrize("hidden", [(), (5,), (5, 4, 3)], ids=["h0", "h1", "h3"])
REFERENCE_ACT = pytest.mark.parametrize("activation", ACTIVATIONS)


@REFERENCE_ACT
@REFERENCE_ARCH
@REFERENCE_GRID
def test_train_plain_matches_frozen_reference_bitwise(activation, hidden, batch_size):
    X, y, _, cfg, shape, (ext, pred, _) = reference_case(activation, hidden, batch_size)
    model = fit_one(train_plain, X, y, X, cfg, *shape, seed=3)
    assert_same_bits(model, deep_reference.train_plain(X, y, cfg, ext, pred, seed=3))


@REFERENCE_ACT
@REFERENCE_ARCH
@REFERENCE_GRID
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_train_dann_matches_frozen_reference_bitwise(activation, hidden, batch_size, lam):
    X, y, Xt, cfg, shape, (ext, pred, dom) = reference_case(activation, hidden, batch_size)
    model = fit_one(train_dann, X, y, Xt, cfg, *shape, lam=lam, seed=4)
    assert_same_bits(model, deep_reference.train_dann(X, y, Xt, cfg, ext, pred, dom, lam=lam, seed=4))


@REFERENCE_ACT
@REFERENCE_ARCH
@REFERENCE_GRID
@pytest.mark.parametrize("extra_epochs", [None, 0, 3])
def test_train_adda_matches_frozen_reference_bitwise(activation, hidden, batch_size, extra_epochs):
    """max_epochs, stage 2's length and stage 1's cap, is the case's 6
    (None) or 1 + extra_epochs."""
    X, y, Xt, cfg, shape, (ext, pred, dom) = reference_case(activation, hidden, batch_size)
    if extra_epochs is not None:
        cfg = replace(cfg, max_epochs=1 + extra_epochs)
    model = fit_one(train_adda, X, y, Xt, cfg, *shape, seed=5)
    assert_same_bits(model, deep_reference.train_adda(X, y, Xt, cfg, ext, pred, dom, seed=5))

