"""Dense networks with hand-written reverse-mode gradients, Adam, and the
three training regimes: plain classifier, gradient-reversal adversarial
training, and two-stage adversarial encoder alignment.

Every model is a composition of small MLPs, each an MlpSpec plus a list of
(weights, bias) pairs. While a regime trains, all of its trainable
parameters live in one contiguous float64 vector and each Mlp's pairs are
views into it, so one Adam update per step covers every layer. A second
flat vector mirrors it for the gradients: the trainers' backward passes
write each layer's dW and db straight into its views, and adam_step
computes the new moments and the update into spare arrays of its
AdamState, so a training step neither concatenates per-layer gradients
nor allocates new moment vectors. The training path computes no loss values, and it skips
gradient products that nothing reads (the first layer's input gradient,
the discriminator's weights while ADDA moves the encoder). The public
forward and backward are checked wrappers over the same layer code.

Each trainer builds its networks from their specs and the seed, and
returns models over a snapshot copy. Training is a pure function of (data,
config, specs, seed): repeated runs produce bit-identical parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _activate_grad(spec: MlpSpec, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Derivative of the activation at pre-activation z, whose activation is
    a; relu's comes as a boolean mask."""
    if spec.activation == "relu":
        return z > 0
    if spec.activation == "sigmoid":
        return a * (1.0 - a)
    return np.where(z > 0, 1.0, LEAKY_SLOPE)


def softmax(z: np.ndarray) -> np.ndarray:
    e = z - np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=1, keepdims=True)
    return e


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # activation entering each layer
    pre: list[np.ndarray]  # pre-activation of each layer
    out: np.ndarray


def _check_input(spec: MlpSpec, params: Params, X: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[1] != spec.in_dim:
        raise ShapeError(f"input width {X.shape[-1]} != spec input size {spec.in_dim}")
    if len(params) != len(spec.layer_sizes) - 1:
        raise ShapeError("params do not match spec layer count")


def _forward(spec: MlpSpec, params: Params, X: np.ndarray) -> ForwardCache:
    """forward without its checks: X is a float64 batch of the right width."""
    inputs, pre = [], []
    a = X
    last = len(params) - 1
    for l, (w, b) in enumerate(params):
        inputs.append(a)
        z = a @ w
        z += b
        pre.append(z)
        a = _activate(spec, z) if l < last else z
    out = softmax(a) if spec.head == "softmax" else a
    return ForwardCache(inputs, pre, out)


def forward(spec: MlpSpec, params: Params, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Dense forward pass; a softmax head returns per-row probabilities."""
    X = np.asarray(X, dtype=np.float64)
    _check_input(spec, params, X)
    cache = _forward(spec, params, X)
    if not np.all(np.isfinite(cache.out)):
        raise NumericError("forward pass produced non-finite outputs")
    return cache.out, cache


def _backward(
    spec: MlpSpec,
    params: Params,
    cache: ForwardCache,
    g: np.ndarray,
    grads: Params | None,
    input_grad: bool = True,
) -> np.ndarray | None:
    """backward without its checks, skipping what the caller does not read.

    Writes each layer's (dW, db) into the given arrays (views into a flat
    gradient vector in the trainers), or computes none when grads is None.
    Returns the gradient w.r.t. the input batch, or None when input_grad is
    false. g itself is never written.
    """
    for l in range(len(params) - 1, -1, -1):
        if grads is not None:
            dw, db = grads[l]
            np.matmul(cache.inputs[l].T, g, out=dw)
            np.add.reduce(g, axis=0, out=db)
        if l == 0 and not input_grad:
            return None
        g = g @ params[l][0].T
        if l > 0:
            g *= _activate_grad(spec, cache.pre[l - 1], cache.inputs[l])
    return g


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
    grads = [(np.empty(w.shape), np.empty(b.shape)) for w, b in params]
    return grads, _backward(spec, params, cache, g, grads)


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    """Mean negative log-likelihood of integer labels under probability rows."""
    p = np.clip(probs[np.arange(len(y)), y], 1e-12, None)
    return float(-np.mean(np.log(p)))


def cross_entropy_grad(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy w.r.t. the softmax logits."""
    return _ce_grad_inplace(probs.copy(), np.arange(len(y)), y)


def _ce_grad_inplace(probs: np.ndarray, rows, labels) -> np.ndarray:
    """cross_entropy_grad in place over probs, whose label entries are
    probs[rows, labels] (index arrays or slices)."""
    probs[rows, labels] -= 1.0
    probs /= probs.shape[0]
    return probs


def _domain_grad_inplace(probs: np.ndarray, n_source: int) -> np.ndarray:
    """cross_entropy_grad in place for domain labels: the first n_source
    rows are labeled 0 (source), the rest 1 (target)."""
    probs[:n_source, 0] -= 1.0
    probs[n_source:, 1] -= 1.0
    probs /= probs.shape[0]
    return probs


def grl_backward(upstream: np.ndarray, lam: float) -> np.ndarray:
    """Gradient-reversal: identity forward, upstream scaled by -lam backward."""
    if lam < 0:
        raise ConfigError("lambda must be >= 0")
    return -lam * np.asarray(upstream)


@dataclass
class AdamState:
    """First and second moments of one flat parameter vector, and the step count.

    adam_step computes the new moments into spare arrays and swaps them
    with m and v only when the update succeeds, so the arrays behind m and
    v are overwritten on alternate steps: copy them to keep one step's
    moments.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    # next m, next v, and two work vectors
    _spare: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._spare = tuple(np.empty_like(self.m) for _ in range(4))

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
    # m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    # new = theta - lr*(m/c1) / (sqrt(v/c2) + eps), each product and sum
    # rounded as written.
    m, v, work, new = state._spare
    np.multiply(state.m, ADAM_BETA1, out=m)
    np.multiply(grad, 1.0 - ADAM_BETA1, out=work)
    m += work
    np.multiply(grad, 1.0 - ADAM_BETA2, out=work)
    work *= grad
    np.multiply(state.v, ADAM_BETA2, out=v)
    v += work
    np.divide(v, c2, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    np.divide(m, c1, out=new)
    new *= lr
    new /= work
    np.subtract(theta, new, out=new)
    if not np.isfinite(new).all():
        raise NumericError("Adam update produced non-finite parameters")
    theta[...] = new
    state._spare = (state.m, state.v, work, new)
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


def _grad_views(specs: list[MlpSpec]) -> tuple[np.ndarray, list[Params]]:
    """A new flat gradient vector laid out as flat_copy lays out parameters
    of `specs`, and each network's (dW, db) views into it."""
    size = sum(i * o + o for spec in specs for i, o in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]))
    flat = np.empty(size)
    return flat, [m.params for m in _views(flat, specs)]


def _checked_loss(probs: np.ndarray, y: np.ndarray) -> float:
    if not np.all(np.isfinite(probs)):
        raise NumericError("forward pass produced non-finite outputs")
    return cross_entropy(probs, y)


def _class_pass(
    extractor: Mlp, predictor: Mlp, X, y, rows, egrads: Params, pgrads: Params, loss: bool = False
) -> float | None:
    """Write class_grads' gradients into egrads and pgrads; rows is
    np.arange(len(y)) or a prefix of a longer one. Returns the loss only
    when asked."""
    ecache = _forward(extractor.spec, extractor.params, X)
    pcache = _forward(predictor.spec, predictor.params, ecache.out)
    value = _checked_loss(pcache.out, y) if loss else None
    g = _ce_grad_inplace(pcache.out, rows, y)
    gfeats = _backward(predictor.spec, predictor.params, pcache, g, pgrads)
    _backward(extractor.spec, extractor.params, ecache, gfeats, egrads, input_grad=False)
    return value


def class_grads(
    extractor: Mlp, predictor: Mlp, X: np.ndarray, y: np.ndarray
) -> tuple[Params, Params, float]:
    """Cross-entropy gradients through predictor(extractor(X))."""
    X, y = np.asarray(X, dtype=np.float64), np.asarray(y)
    _check_input(extractor.spec, extractor.params, X)
    _check_heads(extractor.spec, predictor.spec)
    _, (egrads, pgrads) = _grad_views([extractor.spec, predictor.spec])
    loss = _class_pass(extractor, predictor, X, y, np.arange(len(y)), egrads, pgrads, loss=True)
    return egrads, pgrads, loss


def _dann_pass(
    model: DannModel, Xs, ys, Xt, rows, grads: list[Params], rev: Params, losses: bool = False
) -> tuple[float | None, float | None]:
    """Write dann_batch_grads' gradients into grads (extractor, predictor,
    domain classifier); rev is scratch shaped like the extractor's
    gradients. Returns the two losses only when asked."""
    ext, pred, dom = model.extractor, model.predictor, model.domain_classifier
    egrads, pgrads, dgrads = grads
    class_loss = _class_pass(ext, pred, Xs, ys, rows, egrads, pgrads, losses)

    ecache = _forward(ext.spec, ext.params, np.concatenate([Xs, Xt]))
    dcache = _forward(dom.spec, dom.params, ecache.out)
    domain_loss = _checked_loss(dcache.out, np.repeat([0, 1], [len(Xs), len(Xt)])) if losses else None
    g = _domain_grad_inplace(dcache.out, len(Xs))
    gfeats = _backward(dom.spec, dom.params, dcache, g, dgrads, input_grad=model.lam > 0)
    if model.lam > 0:
        _backward(ext.spec, ext.params, ecache, grl_backward(gfeats, model.lam), rev, input_grad=False)
        for (gw, gb), (rw, rb) in zip(egrads, rev):
            gw += rw
            gb += rb
    return class_loss, domain_loss


def dann_batch_grads(
    model: DannModel, Xs: np.ndarray, ys: np.ndarray, Xt: np.ndarray
) -> tuple[Params, Params, Params, float, float]:
    """Gradients for one adversarial batch.

    Classification loss flows through extractor and predictor on source
    rows; domain loss (source=0, target=1) flows through the domain
    classifier normally and into the extractor through the reversal layer,
    scaled by -lambda.
    """
    ext = model.extractor
    Xs, ys = np.asarray(Xs, dtype=np.float64), np.asarray(ys)
    Xt = np.asarray(Xt, dtype=np.float64)
    _check_input(ext.spec, ext.params, Xs)
    _check_input(ext.spec, ext.params, Xt)
    _check_heads(ext.spec, model.predictor.spec, model.domain_classifier.spec)
    _, grads = _grad_views([ext.spec, model.predictor.spec, model.domain_classifier.spec])
    _, (rev,) = _grad_views([ext.spec])
    losses = _dann_pass(model, Xs, ys, Xt, np.arange(len(ys)), grads, rev, losses=True)
    return (*grads, *losses)


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


def _check_heads(body: MlpSpec, *heads: MlpSpec) -> None:
    """Each head reads the body's output; reject a width mismatch before
    training, since a head that training never runs would not catch it."""
    for head in heads:
        if head.in_dim != body.out_dim:
            raise ShapeError(
                f"head input width {head.in_dim} != extractor output width {body.out_dim}"
            )


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
    grad, (egrads, pgrads) = _grad_views([ext.spec, pred.spec])
    state = AdamState.zeros_like(theta)
    rows = np.arange(min(cfg.batch_size, train_idx.size))

    def run_epoch():
        for batch in _epoch_batches(train_idx.size, cfg.batch_size, rng):
            bi = train_idx[batch]
            _class_pass(ext, pred, X[bi], y[bi], rows[: bi.size], egrads, pgrads)
            adam_step(theta, grad, state, cfg.learning_rate)

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
    _check_heads(extractor_spec, predictor_spec, domain_spec)
    Xs, ys, Xt = _trainer_inputs(Xs, ys, Xt)
    specs = [extractor_spec, predictor_spec, domain_spec]
    theta, views = flat_copy(_init_mlps(specs, seed))
    current = DannModel(*views, lam)
    grad, grads = _grad_views(specs)
    _, (rev,) = _grad_views([extractor_spec])
    state = AdamState.zeros_like(theta)
    rng = np.random.default_rng(seed)
    train_idx, val_idx = _val_split(ys, rng)
    rows = np.arange(min(cfg.batch_size, train_idx.size))

    def run_epoch():
        for batch, ti in _paired_batches(train_idx.size, Xt.shape[0], cfg.batch_size, rng):
            bi = train_idx[batch]
            _dann_pass(current, Xs[bi], ys[bi], Xt[ti], rows[: bi.size], grads, rev)
            adam_step(theta, grad, state, cfg.learning_rate)

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
    _check_heads(encoder_spec, classifier_spec, discriminator_spec)
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
    grad, (enc_grads, disc_grads) = _grad_views([target_enc.spec, disc.spec])
    n_enc = sum(a.size for pair in target_enc.params for a in pair)
    enc_theta, disc_theta = theta[:n_enc], theta[n_enc:]
    enc_grad, disc_grad = grad[:n_enc], grad[n_enc:]
    disc_state = AdamState.zeros_like(disc_theta)
    enc_state = AdamState.zeros_like(enc_theta)
    src_feats_all = forward(source_enc.spec, source_enc.params, Xs)[0]
    domain_truth = np.concatenate(
        [np.zeros(Xs.shape[0], dtype=np.int64), np.ones(Xt.shape[0], dtype=np.int64)]
    )

    def run_epoch():
        for s_batch, ti in _paired_batches(Xs.shape[0], Xt.shape[0], cfg.batch_size, rng):
            # Discriminator step: source encodings 0, target encodings 1.
            tcache = _forward(target_enc.spec, target_enc.params, Xt[ti])
            fake = tcache.out
            dcache = _forward(disc.spec, disc.params, np.concatenate([src_feats_all[s_batch], fake]))
            g = _domain_grad_inplace(dcache.out, s_batch.size)
            _backward(disc.spec, disc.params, dcache, g, disc_grads, input_grad=False)
            adam_step(disc_theta, disc_grad, disc_state, cfg.learning_rate)
            # Encoder step: fool the updated discriminator (inverted labels:
            # every target row labeled source). The target encoder has not
            # moved, so `fake` and `tcache` still hold.
            dcache = _forward(disc.spec, disc.params, fake)
            g = _domain_grad_inplace(dcache.out, fake.shape[0])
            gfeats = _backward(disc.spec, disc.params, dcache, g, None)
            _backward(target_enc.spec, target_enc.params, tcache, gfeats, enc_grads, input_grad=False)
            adam_step(
                enc_theta, enc_grad, enc_state, cfg.learning_rate * ADDA_ENCODER_LR_SCALE
            )

    def chance_closeness():
        fake_all = forward(target_enc.spec, target_enc.params, Xt)[0]
        dprobs = forward(disc.spec, disc.params, np.vstack([src_feats_all, fake_all]))[0]
        return -abs(accuracy(np.argmax(dprobs, axis=1), domain_truth) - 0.5)

    best = _early_stopping(theta, stage2_epochs, stage2_epochs, run_epoch, chance_closeness)
    best_enc, best_disc = _views(best, [target_enc.spec, disc.spec])
    return AddaModel(source_enc, best_enc, clf, best_disc)
