"""Dense networks with hand-written reverse-mode gradients, Adam, and the
three training regimes: plain classifier, gradient-reversal adversarial
training, and two-stage adversarial encoder alignment.

Every model is a composition of small MLPs, each an MlpSpec plus a list of
(weights, bias) pairs. While a regime trains, all of its trainable
parameters live in one contiguous float64 vector and each Mlp's pairs are
views into it, so one Adam update per step covers every layer. Each
trainer builds its networks from their specs and the seed, and returns
models over a snapshot copy. Training is a pure function of (data,
config, specs, seed): repeated runs produce bit-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .dataset import VAL_FRACTION, accuracy, stratified_indices
from .errors import ConfigError, DegenerateLabelsError, NumericError, ShapeError, check_field_types

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEAKY_SLOPE = 0.01
ACTIVATIONS = ("relu", "sigmoid", "leaky_relu")
ADDA_ENCODER_LR_SCALE = 0.1

Params = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MlpSpec:
    """Layer sizes (input, hidden..., output), hidden activation, output head."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    head: str = "softmax"  # softmax (classifier) or identity (feature extractor)

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes need an input and an output size, all >= 1; got {sizes}")
        if len(sizes) - 2 > 3:
            raise ConfigError(f"at most 3 hidden layers are supported; got {len(sizes) - 2}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}; expected one of {ACTIVATIONS}")
        if self.head not in ("softmax", "identity"):
            raise ConfigError(f"unknown head {self.head!r}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class Mlp:
    """A spec plus its parameters, one (weights, bias) pair per layer.

    The pairs may be views into a flat vector (see flat_copy); trainers
    write only through vectors they own, so params returned from a trainer
    are never modified afterwards.
    """

    spec: MlpSpec
    params: Params


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 20

    def __post_init__(self):
        check_field_types(self)
        # learning_rate 0 is allowed: it trains nothing but exercises the
        # early-stopping path deterministically.
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.batch_size < 1 or self.max_epochs < 1:
            raise ConfigError("batch_size and max_epochs must be >= 1")


def init_mlp(spec: MlpSpec, seed_or_rng) -> Mlp:
    """Glorot-uniform weights (limit sqrt(6/(fan_in+fan_out))), zero biases,
    drawn from a seed or from a given Generator."""
    rng = np.random.default_rng(seed_or_rng)
    params: Params = []
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        params.append((rng.uniform(-limit, limit, (fan_in, fan_out)), np.zeros(fan_out)))
    return Mlp(spec, params)


def _views(theta: np.ndarray, specs: list[MlpSpec]) -> list[Mlp]:
    """Mlps whose (weights, bias) pairs are views into the flat vector theta."""
    mlps, off = [], 0
    for spec in specs:
        params: Params = []
        for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
            w = theta[off : off + fan_in * fan_out].reshape(fan_in, fan_out)
            off += fan_in * fan_out
            params.append((w, theta[off : off + fan_out]))
            off += fan_out
        mlps.append(Mlp(spec, params))
    return mlps


def flatten(*parts: Params) -> np.ndarray:
    """Concatenate per-layer arrays, weights row-major then bias, layer by layer."""
    return np.concatenate([a.ravel() for params in parts for pair in params for a in pair])


def flat_copy(mlps: list[Mlp]) -> tuple[np.ndarray, list[Mlp]]:
    """Copy the mlps' parameters into one new vector; return it and Mlps viewing it."""
    theta = flatten(*(m.params for m in mlps))
    return theta, _views(theta, [m.spec for m in mlps])


def _activate(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(z, 0.0)
    if spec.activation == "sigmoid":
        return expit(z)
    return np.where(z > 0, z, LEAKY_SLOPE * z)


def _activate_grad(spec: MlpSpec, z: np.ndarray) -> np.ndarray:
    if spec.activation == "relu":
        return (z > 0).astype(np.float64)
    if spec.activation == "sigmoid":
        s = expit(z)
        return s * (1.0 - s)
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # activation entering each layer
    pre: list[np.ndarray]  # pre-activation of each layer
    out: np.ndarray


def forward(spec: MlpSpec, params: Params, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Dense forward pass; a softmax head returns per-row probabilities."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.in_dim:
        raise ShapeError(f"input width {X.shape[-1]} != spec input size {spec.in_dim}")
    if len(params) != len(spec.layer_sizes) - 1:
        raise ShapeError("params do not match spec layer count")
    inputs, pre = [], []
    a = X
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        inputs.append(a)
        z = a @ w + b
        pre.append(z)
        a = _activate(spec, z) if l < last else z
    out = softmax(a) if spec.head == "softmax" else a
    if not np.all(np.isfinite(out)):
        raise NumericError("forward pass produced non-finite outputs")
    return out, ForwardCache(inputs, pre, out)


def backward(
    spec: MlpSpec, params: Params, cache: ForwardCache, grad_out: np.ndarray
) -> tuple[Params, np.ndarray]:
    """Reverse-mode gradients from grad_out (w.r.t. the final pre-head output).

    Returns (per-layer (dW, db) gradients, gradient w.r.t. the input batch).
    For a softmax head pass the logits gradient, e.g. from
    cross_entropy_grad.
    """
    if len(cache.pre) != len(params):
        raise ShapeError("cache does not match params")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.pre[-1].shape:
        raise ShapeError("grad_out shape does not match the forward output")
    grads: Params = [None] * len(params)  # type: ignore[list-item]
    for l in range(len(params) - 1, -1, -1):
        w, _ = params[l]
        grads[l] = (cache.inputs[l].T @ g, g.sum(axis=0))
        g = g @ w.T
        if l > 0:
            g = g * _activate_grad(spec, cache.pre[l - 1])
    return grads, g


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under probability rows."""
    p = np.clip(probs[np.arange(len(y)), y], 1e-12, None)
    return float(-np.mean(np.log(p)))


def cross_entropy_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the softmax logits."""
    g = probs.copy()
    g[np.arange(len(y)), y] -= 1.0
    return g / len(y)


def grl_backward(upstream: np.ndarray, lam: float) -> np.ndarray:
    """Gradient-reversal: identity forward, upstream scaled by -lam backward."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    return -lam * np.asarray(upstream)


@dataclass
class AdamState:
    """First and second moments of one flat parameter vector, and the step count."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros_like(cls, theta: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(theta), v=np.zeros_like(theta))


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of the flat vector theta, in place.

    If any updated parameter would be non-finite, NumericError is raised
    before theta or state is written.
    """
    if grad.shape != theta.shape:
        raise ShapeError("gradient shape does not match the parameter vector")
    t = state.t + 1
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grad
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grad * grad
    new = theta - lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)
    if not np.isfinite(new).all():
        raise NumericError("Adam update produced non-finite parameters")
    theta[...] = new
    state.m, state.v, state.t = m, v, t


# ---------------------------------------------------------------------------
# Composite models


@dataclass(frozen=True)
class PlainModel:
    """Feature extractor followed by a label predictor, no DA components."""

    extractor: Mlp
    predictor: Mlp


@dataclass(frozen=True)
class DannModel:
    """Extractor, label predictor and domain classifier joined by a GRL."""

    extractor: Mlp
    predictor: Mlp
    domain_classifier: Mlp
    lam: float = 1.0

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError("lambda must be >= 0")


@dataclass(frozen=True)
class AddaModel:
    """Source/target encoders, shared classifier, domain discriminator."""

    source_encoder: Mlp
    target_encoder: Mlp
    classifier: Mlp
    discriminator: Mlp


def predict_composite(extractor: Mlp, head: Mlp, X: np.ndarray) -> np.ndarray:
    feats, _ = forward(extractor.spec, extractor.params, X)
    probs, _ = forward(head.spec, head.params, feats)
    return np.argmax(probs, axis=1)


def class_grads(
    extractor: Mlp, predictor: Mlp, X: np.ndarray, y: np.ndarray
) -> tuple[Params, Params, float]:
    """Cross-entropy gradients through predictor(extractor(X))."""
    feats, ecache = forward(extractor.spec, extractor.params, X)
    probs, pcache = forward(predictor.spec, predictor.params, feats)
    loss = cross_entropy(probs, y)
    pgrads, gfeats = backward(predictor.spec, predictor.params, pcache, cross_entropy_grad(probs, y))
    egrads, _ = backward(extractor.spec, extractor.params, ecache, gfeats)
    return egrads, pgrads, loss


def dann_batch_grads(
    model: DannModel, Xs: np.ndarray, ys: np.ndarray, Xt: np.ndarray
) -> tuple[Params, Params, Params, float, float]:
    """Gradients for one adversarial batch.

    Classification loss flows through extractor and predictor on source
    rows; domain loss (source=0, target=1) flows through the domain
    classifier normally and into the extractor through the reversal layer,
    scaled by -lambda.
    """
    ext, pred, dom = model.extractor, model.predictor, model.domain_classifier

    egrads, pgrads, class_loss = class_grads(ext, pred, Xs, ys)

    X_all = np.vstack([Xs, Xt])
    d_labels = np.concatenate([np.zeros(len(Xs), dtype=np.int64), np.ones(len(Xt), dtype=np.int64)])
    feats, ecache = forward(ext.spec, ext.params, X_all)
    dprobs, dcache = forward(dom.spec, dom.params, feats)
    domain_loss = cross_entropy(dprobs, d_labels)
    dgrads, gfeats = backward(dom.spec, dom.params, dcache, cross_entropy_grad(dprobs, d_labels))
    if model.lam > 0:
        rev = grl_backward(gfeats, model.lam)
        erev, _ = backward(ext.spec, ext.params, ecache, rev)
        egrads = [(gw + rw, gb + rb) for (gw, gb), (rw, rb) in zip(egrads, erev)]
    return egrads, pgrads, dgrads, class_loss, domain_loss


def _epoch_batches(n: int, batch_size: int, rng) -> list[np.ndarray]:
    order = rng.permutation(n)
    return [order[i : i + batch_size] for i in range(0, n, batch_size)]


def _paired_batches(n_src: int, n_tgt: int, batch_size: int, rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """One epoch of shuffled source batches, each paired with as many rows of
    a shuffled target order that is cycled to the source length."""
    batches = _epoch_batches(n_src, batch_size, rng)
    t_stream = np.resize(rng.permutation(n_tgt), n_src)
    return [(b, t_stream[k * batch_size : k * batch_size + b.size]) for k, b in enumerate(batches)]


def _val_split(y: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    seed = int(rng.integers(2**32))
    return stratified_indices(y, VAL_FRACTION, seed)


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


def _init_mlps(specs: list[MlpSpec], seed: int) -> list[Mlp]:
    """Glorot-initialized Mlps drawn in order from one default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [init_mlp(spec, rng) for spec in specs]


def _trainer_inputs(X, y, Xt=None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Features as float64 and labels as int64; rejects an empty target set
    (when one is given) and labels of a single class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if Xt is not None:
        Xt = np.asarray(Xt, dtype=np.float64)
        if Xt.shape[0] == 0:
            raise ShapeError("target set must be nonempty")
    if len({int(v) for v in y}) < 2:
        raise DegenerateLabelsError("training labels contain a single class")
    return X, y, Xt


def _fit_classifier(
    X: np.ndarray,
    y: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray,
    cfg: TrainConfig,
    rng,
    extractor: Mlp,
    predictor: Mlp,
) -> list[Mlp]:
    """Cross-entropy through predictor(extractor(x)) with Adam on mini-batches,
    early-stopped on validation accuracy; returns the best snapshot."""
    theta, (ext, pred) = flat_copy([extractor, predictor])
    state = AdamState.zeros_like(theta)

    def run_epoch():
        for batch in _epoch_batches(train_idx.size, cfg.batch_size, rng):
            bi = train_idx[batch]
            egrads, pgrads, _ = class_grads(ext, pred, X[bi], y[bi])
            adam_step(theta, flatten(egrads, pgrads), state, cfg.learning_rate)

    def val_accuracy():
        return accuracy(predict_composite(ext, pred, X[val_idx]), y[val_idx])

    best = _early_stopping(theta, cfg.max_epochs, cfg.patience, run_epoch, val_accuracy)
    return _views(best, [ext.spec, pred.spec])


def train_plain(
    X: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    extractor_spec: MlpSpec,
    predictor_spec: MlpSpec,
    seed: int,
) -> PlainModel:
    """Minimize cross-entropy with Adam and mini-batches; early-stops on
    validation accuracy and returns the best-validation snapshot."""
    X, y, _ = _trainer_inputs(X, y)
    rng = np.random.default_rng(seed)
    ext = init_mlp(extractor_spec, rng)
    pred = init_mlp(predictor_spec, rng)
    train_idx, val_idx = _val_split(y, rng)
    return PlainModel(*_fit_classifier(X, y, train_idx, val_idx, cfg, rng, ext, pred))


def train_dann(
    Xs: np.ndarray,
    ys: np.ndarray,
    Xt: np.ndarray,
    cfg: TrainConfig,
    extractor_spec: MlpSpec,
    predictor_spec: MlpSpec,
    domain_spec: MlpSpec,
    lam: float,
    seed: int,
) -> DannModel:
    """Adversarial training with a gradient-reversal layer.

    Per batch the classifier path minimizes source cross-entropy while the
    domain head learns to separate source from target; the extractor
    receives the domain gradient scaled by -lambda. Early stopping watches
    source-validation accuracy only (target labels are never read). The
    three networks are drawn from one default_rng(seed), in argument order;
    the split and batches from a second one.
    """
    Xs, ys, Xt = _trainer_inputs(Xs, ys, Xt)
    specs = [extractor_spec, predictor_spec, domain_spec]
    theta, views = flat_copy(_init_mlps(specs, seed))
    current = DannModel(*views, lam)
    state = AdamState.zeros_like(theta)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = _val_split(ys, rng)

    def run_epoch():
        for batch, ti in _paired_batches(train_idx.size, Xt.shape[0], cfg.batch_size, rng):
            bi = train_idx[batch]
            egrads, pgrads, dgrads, _, _ = dann_batch_grads(current, Xs[bi], ys[bi], Xt[ti])
            adam_step(theta, flatten(egrads, pgrads, dgrads), state, cfg.learning_rate)

    def val_accuracy():
        pred = predict_composite(current.extractor, current.predictor, Xs[val_idx])
        return accuracy(pred, ys[val_idx])

    best = _early_stopping(theta, cfg.max_epochs, cfg.patience, run_epoch, val_accuracy)
    return DannModel(*_views(best, specs), lam)


def train_adda(
    Xs: np.ndarray,
    ys: np.ndarray,
    Xt: np.ndarray,
    cfg: TrainConfig,
    encoder_spec: MlpSpec,
    classifier_spec: MlpSpec,
    discriminator_spec: MlpSpec,
    seed: int,
    stage2_epochs: int | None = None,
) -> AddaModel:
    """Two-stage adversarial encoder alignment.

    Stage 1 trains source encoder plus classifier on source cross-entropy
    with early stopping. Stage 2 freezes both, seeds the target encoder
    from the source encoder, then alternates discriminator updates
    (source encodings labeled 0, target 1) with target-encoder updates
    against inverted labels. Target rows are classified through
    classifier(target_encoder(x)). The three networks are drawn from one
    default_rng(seed), in argument order; the split and batches of both
    stages from a second one.

    Two stabilizers keep the minimax from cycling at small scale: the
    encoder steps at ADDA_ENCODER_LR_SCALE times the discriminator rate, and
    the returned (target encoder, discriminator) pair is the epoch-end
    snapshot whose discriminator accuracy sat closest to chance (ties keep
    the earliest epoch). Stage 2 runs all `stage2_epochs` (default
    `cfg.max_epochs`); it never stops early.
    """
    Xs, ys, Xt = _trainer_inputs(Xs, ys, Xt)
    if stage2_epochs is None:
        stage2_epochs = cfg.max_epochs
    encoder, classifier, discriminator = _init_mlps(
        [encoder_spec, classifier_spec, discriminator_spec], seed
    )
    rng = np.random.default_rng(seed)
    train_idx, val_idx = _val_split(ys, rng)

    # Stage 1: source encoder + classifier.
    source_enc, clf = _fit_classifier(Xs, ys, train_idx, val_idx, cfg, rng, encoder, classifier)

    # Stage 2: adversarial target-encoder alignment against frozen pieces.
    # Target encoder and discriminator share one vector; each slice keeps
    # its own Adam state and learning rate.
    theta, (target_enc, disc) = flat_copy([source_enc, discriminator])
    n_enc = sum(a.size for pair in target_enc.params for a in pair)
    enc_theta, disc_theta = theta[:n_enc], theta[n_enc:]
    disc_state = AdamState.zeros_like(disc_theta)
    enc_state = AdamState.zeros_like(enc_theta)
    src_feats_all = forward(source_enc.spec, source_enc.params, Xs)[0]
    domain_truth = np.concatenate(
        [np.zeros(Xs.shape[0], dtype=np.int64), np.ones(Xt.shape[0], dtype=np.int64)]
    )

    def run_epoch():
        for s_batch, ti in _paired_batches(Xs.shape[0], Xt.shape[0], cfg.batch_size, rng):
            # Discriminator step: source encodings 0, target encodings 1.
            real = src_feats_all[s_batch]
            fake, tcache = forward(target_enc.spec, target_enc.params, Xt[ti])
            feats = np.vstack([real, fake])
            d_labels = np.concatenate(
                [np.zeros(len(real), dtype=np.int64), np.ones(len(fake), dtype=np.int64)]
            )
            dprobs, dcache = forward(disc.spec, disc.params, feats)
            dgrads, _ = backward(
                disc.spec, disc.params, dcache, cross_entropy_grad(dprobs, d_labels)
            )
            adam_step(disc_theta, flatten(dgrads), disc_state, cfg.learning_rate)
            # Encoder step: fool the updated discriminator (inverted labels).
            # The target encoder has not moved, so `fake` and `tcache` still hold.
            dprobs, dcache = forward(disc.spec, disc.params, fake)
            inverted = np.zeros(len(fake), dtype=np.int64)
            _, gfeats = backward(
                disc.spec, disc.params, dcache, cross_entropy_grad(dprobs, inverted)
            )
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
    return AddaModel(source_enc, best_enc, clf, best_disc)
