"""The deep trainers' allocating training loops, frozen as a reference.

The library trainers write gradients into one preallocated flat vector,
update Adam's moments in place, compute no losses and skip gradient
products that nothing reads. This module keeps the straightforward form
they replaced: a fresh array for every layer gradient and every Adam
moment, the gradients concatenated each step, and its own copy of the
layer math. test_deep.py asserts that both produce the same parameter
bits. The validation split and network initialization are the library's
own helpers, shared by both sides; batching, early stopping, the input
checks, the head check and flat_copy are copies of the library's helpers
as they were before the trainers ran members in lockstep and built their
own networks. The trainers here take ready-built specs and labels
0..k-1, and each model's classes are the labels it was trained on.
"""

from types import SimpleNamespace

import numpy as np
from scipy.special import expit

from normda.dataset import accuracy
from normda.deep import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADDA_ENCODER_LR_SCALE,
    LEAKY_SLOPE,
    AddaModel,
    DannModel,
    Mlp,
    PlainModel,
    _init_mlps,
    _val_split,
    _views,
    flatten,
    init_mlp,
)
from normda.errors import DegenerateLabelsError, NumericError, ShapeError


# Verbatim copies of the library helpers that the lockstep trainers
# replaced, so the oracle stays as it was.


def _epoch_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _paired_batches(n_src: int, n_tgt: int, batch_size: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """One epoch of shuffled source batches, each paired with as many rows of
    a shuffled target order that is cycled to the source length."""
    batches = _epoch_batches(n_src, batch_size, rng)
    t_stream = np.resize(rng.permutation(n_tgt), n_src)
    return [(b, t_stream[k * batch_size : k * batch_size + b.size]) for k, b in enumerate(batches)]


def _early_stopping(theta: np.ndarray, epochs: int, patience: int, run_epoch, score) -> np.ndarray:
    """Call run_epoch() up to `epochs` times, calling score() after each;
    stop after `patience` epochs without a strict improvement and return a
    copy of theta as it was after the best-scoring epoch (the earliest on
    ties). Scores must exceed -1."""
    best_score, best, stale = -1.0, theta.copy(), 0
    for _ in range(epochs):
        run_epoch()
        current = score()
        if current > best_score:
            best_score, best, stale = current, theta.copy(), 0
        else:
            stale += 1
            if stale >= patience:
                break
    return best


def flat_copy(mlps: list[Mlp]) -> tuple[np.ndarray, list[Mlp]]:
    """Copy the mlps' parameters into one new vector; return it and Mlps viewing it."""
    theta = flatten(*(m.params for m in mlps))
    return theta, _views(theta, [m.spec for m in mlps])


def _check_heads(body, *heads) -> None:
    """Each head reads the body's output; reject a width mismatch before
    training, since a head that training never runs would not catch it."""
    for head in heads:
        if head.in_dim != body.out_dim:
            raise ShapeError(
                f"head input width {head.in_dim} != extractor output width {body.out_dim}"
            )


def _classes(y) -> tuple[int, ...]:
    return tuple(np.unique(y).tolist())


def _trainer_inputs(X, y, Xt=None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Features as float64 and labels as int64; rejects non-finite features,
    an empty target set (when one is given) and labels of a single class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if not np.isfinite(X).all():
        raise NumericError("training features contain non-finite values")
    if Xt is not None:
        Xt = np.asarray(Xt, dtype=np.float64)
        if Xt.shape[0] == 0:
            raise ShapeError("target set must be nonempty")
        if not np.isfinite(Xt).all():
            raise NumericError("target features contain non-finite values")
    if len({int(v) for v in y}) < 2:
        raise DegenerateLabelsError("training labels contain a single class")
    return X, y, Xt


def _activate(spec, z):
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    if spec.activation == "sigmoid":
        return expit(z)
    return np.where(z > 0, z, LEAKY_SLOPE * z)


def _activate_grad(spec, z):
    if spec.activation == "relu":
        return (z > 0).astype(np.float64)
    if spec.activation == "sigmoid":
        s = expit(z)
        return s * (1.0 - s)
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


def softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(spec, params, X):
    inputs, pre = [], []
    a = X
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        inputs.append(a)
        z = a @ w + b
        pre.append(z)
        a = _activate(spec, z) if l < last else z
    out = softmax(a) if spec.head == "softmax" else a
    return out, (inputs, pre)


def backward(spec, params, cache, g):
    inputs, pre = cache
    grads = [None] * len(params)
    for l in range(len(params) - 1, -1, -1):
        w, _ = params[l]
        grads[l] = (inputs[l].T @ g, g.sum(axis=0))
        g = g @ w.T
        if l > 0:
            g = g * _activate_grad(spec, pre[l - 1])
    return grads, g


def cross_entropy_grad(probs, y):
    g = probs.copy()
    g[np.arange(len(y)), y] -= 1.0
    return g / len(y)


def adam_step(theta, grad, state, lr):
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    theta[...] = theta - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    state.m, state.v, state.t = m, v, t


def adam_state(theta):
    return SimpleNamespace(m=np.zeros_like(theta), v=np.zeros_like(theta), t=0)


def predict(extractor, head, X):
    feats, _ = forward(extractor.spec, extractor.params, X)
    return np.argmax(forward(head.spec, head.params, feats)[0], axis=1)


def class_grads(ext, pred, X, y):
    feats, ecache = forward(ext.spec, ext.params, X)
    probs, pcache = forward(pred.spec, pred.params, feats)
    pgrads, gfeats = backward(pred.spec, pred.params, pcache, cross_entropy_grad(probs, y))
    egrads, _ = backward(ext.spec, ext.params, ecache, gfeats)
    return egrads, pgrads


def dann_batch_grads(model, Xs, ys, Xt):
    ext, pred, dom = model.extractor, model.predictor, model.domain_classifier
    egrads, pgrads = class_grads(ext, pred, Xs, ys)
    X_all = np.vstack([Xs, Xt])
    d_labels = np.concatenate([np.zeros(len(Xs), dtype=np.int64), np.ones(len(Xt), dtype=np.int64)])
    feats, ecache = forward(ext.spec, ext.params, X_all)
    dprobs, dcache = forward(dom.spec, dom.params, feats)
    dgrads, gfeats = backward(dom.spec, dom.params, dcache, cross_entropy_grad(dprobs, d_labels))
    if model.lam > 0:
        erev, _ = backward(ext.spec, ext.params, ecache, -model.lam * gfeats)
        egrads = [(gw + rw, gb + rb) for (gw, gb), (rw, rb) in zip(egrads, erev)]
    return egrads, pgrads, dgrads


def fit_classifier(X, y, train_idx, val_idx, cfg, rng, extractor, predictor):
    theta, (ext, pred) = flat_copy([extractor, predictor])
    state = adam_state(theta)

    def run_epoch():
        for batch in _epoch_batches(train_idx.size, cfg.batch_size, rng):
            bi = train_idx[batch]
            egrads, pgrads = class_grads(ext, pred, X[bi], y[bi])
            adam_step(theta, flatten(egrads, pgrads), state, cfg.learning_rate)

    def val_accuracy():
        return accuracy(predict(ext, pred, X[val_idx]), y[val_idx])

    best = _early_stopping(theta, cfg.max_epochs, cfg.patience, run_epoch, val_accuracy)
    return _views(best, [ext.spec, pred.spec])


def train_plain(X, y, cfg, extractor_spec, predictor_spec, seed):
    X, y, _ = _trainer_inputs(X, y)
    rng = np.random.default_rng(seed)
    ext = init_mlp(extractor_spec, rng)
    pred = init_mlp(predictor_spec, rng)
    train_idx, val_idx = _val_split(y, rng)
    return PlainModel(*fit_classifier(X, y, train_idx, val_idx, cfg, rng, ext, pred), _classes(y))


def train_dann(Xs, ys, Xt, cfg, extractor_spec, predictor_spec, domain_spec, lam, seed):
    _check_heads(extractor_spec, predictor_spec, domain_spec)
    Xs, ys, Xt = _trainer_inputs(Xs, ys, Xt)
    specs = [extractor_spec, predictor_spec, domain_spec]
    theta, views = flat_copy(_init_mlps(specs, seed))
    current = DannModel(*views, lam, _classes(ys))
    state = adam_state(theta)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = _val_split(ys, rng)

    def run_epoch():
        for batch, ti in _paired_batches(train_idx.size, Xt.shape[0], cfg.batch_size, rng):
            bi = train_idx[batch]
            egrads, pgrads, dgrads = dann_batch_grads(current, Xs[bi], ys[bi], Xt[ti])
            adam_step(theta, flatten(egrads, pgrads, dgrads), state, cfg.learning_rate)

    def val_accuracy():
        return accuracy(predict(current.extractor, current.predictor, Xs[val_idx]), ys[val_idx])

    best = _early_stopping(theta, cfg.max_epochs, cfg.patience, run_epoch, val_accuracy)
    return DannModel(*_views(best, specs), lam, _classes(ys))


def train_adda(Xs, ys, Xt, cfg, encoder_spec, classifier_spec, discriminator_spec, seed, stage2_epochs=None):
    _check_heads(encoder_spec, classifier_spec, discriminator_spec)
    Xs, ys, Xt = _trainer_inputs(Xs, ys, Xt)
    if stage2_epochs is None:
        stage2_epochs = cfg.max_epochs
    encoder, classifier, discriminator = _init_mlps(
        [encoder_spec, classifier_spec, discriminator_spec], seed
    )
    rng = np.random.default_rng(seed)
    train_idx, val_idx = _val_split(ys, rng)
    source_enc, clf = fit_classifier(Xs, ys, train_idx, val_idx, cfg, rng, encoder, classifier)

    theta, (target_enc, disc) = flat_copy([source_enc, discriminator])
    n_enc = sum(a.size for pair in target_enc.params for a in pair)
    enc_theta, disc_theta = theta[:n_enc], theta[n_enc:]
    disc_state = adam_state(disc_theta)
    enc_state = adam_state(enc_theta)
    src_feats_all = forward(source_enc.spec, source_enc.params, Xs)[0]
    domain_truth = np.concatenate(
        [np.zeros(Xs.shape[0], dtype=np.int64), np.ones(Xt.shape[0], dtype=np.int64)]
    )

    def run_epoch():
        for s_batch, ti in _paired_batches(Xs.shape[0], Xt.shape[0], cfg.batch_size, rng):
            real = src_feats_all[s_batch]
            fake, tcache = forward(target_enc.spec, target_enc.params, Xt[ti])
            feats = np.vstack([real, fake])
            d_labels = np.concatenate(
                [np.zeros(len(real), dtype=np.int64), np.ones(len(fake), dtype=np.int64)]
            )
            dprobs, dcache = forward(disc.spec, disc.params, feats)
            dgrads, _ = backward(disc.spec, disc.params, dcache, cross_entropy_grad(dprobs, d_labels))
            adam_step(disc_theta, flatten(dgrads), disc_state, cfg.learning_rate)
            dprobs, dcache = forward(disc.spec, disc.params, fake)
            inverted = np.zeros(len(fake), dtype=np.int64)
            _, gfeats = backward(disc.spec, disc.params, dcache, cross_entropy_grad(dprobs, inverted))
            tgrads, _ = backward(target_enc.spec, target_enc.params, tcache, gfeats)
            adam_step(
                enc_theta, flatten(tgrads), enc_state, cfg.learning_rate * ADDA_ENCODER_LR_SCALE
            )

    def chance_closeness():
        fake_all = forward(target_enc.spec, target_enc.params, Xt)[0]
        dprobs = forward(disc.spec, disc.params, np.vstack([src_feats_all, fake_all]))[0]
        return -abs(accuracy(np.argmax(dprobs, axis=1), domain_truth) - 0.5)

    best = _early_stopping(theta, stage2_epochs, stage2_epochs, run_epoch, chance_closeness)
    best_enc, best_disc = _views(best, [target_enc.spec, disc.spec])
    return AddaModel(source_enc, best_enc, clf, best_disc, _classes(ys))
