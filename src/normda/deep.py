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
nor allocates new moment vectors. No function here computes a loss
value: the gradient tests take finite differences of their own. The
training path skips gradient products that nothing reads (the first
layer's input gradient, the discriminator's weights while ADDA moves the
encoder). The public forward and backward are checked wrappers over the
same layer code.

Each trainer takes any integer labels and the method's shape fields, and
builds each problem's networks (network_specs) from its feature width,
class count and seed. Models keep the labels as `classes` (see predict)
and hold a snapshot copy of the parameters. Training is a pure function of
(data, config, shape, seed): repeated runs produce bit-identical parameters.

Each trainer takes a sequence of F (X, y, Xt, seed) problems and trains
them in lockstep (see _lockstep): the parameter vector, the gradient vector,
Adam's moments and every batch gain a leading member axis, so one
mini-batch step is one stacked forward, backward and Adam update for all
of them. The layer code reads and writes only the last two axes, and
np.matmul runs each member's slice through the same BLAS call as the 2-D
product (each slice keeps BLAS-usable strides), so every member's
parameters are bit-identical to a fit of that member alone. A single fit
is the F = 1 stack, and each problem's failure comes back as a value.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .dataset import stratified_indices
from .errors import (
    ConfigError,
    NormdaError,
    NumericError,
    ShapeError,
    bounded,
    check_field_types,
    check_type,
    class_labels,
    feature_rows,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LEAKY_SLOPE = 0.01
# Each hidden activation: name -> (function of the pre-activation z, its
# derivative given z and the activation a). relu's comes as a boolean mask.
ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z, a: z > 0),
    "sigmoid": (expit, lambda z, a: a * (1.0 - a)),
    "leaky_relu": (lambda z: np.where(z > 0, z, LEAKY_SLOPE * z), lambda z, a: np.where(z > 0, 1.0, LEAKY_SLOPE)),
}
ADDA_ENCODER_LR_SCALE = 0.1
FORWARD_ERROR = "forward pass produced non-finite outputs"
ADAM_ERROR = "Adam update produced non-finite parameters"

Params = list[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class MlpSpec:
    """Layer sizes (input, hidden..., output), hidden activation, output head."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    head: str = "softmax"  # softmax (classifier) or identity (feature extractor)

    def __post_init__(self):
        if not all(isinstance(s, numbers.Integral) and not isinstance(s, bool) for s in self.layer_sizes):
            raise ConfigError(f"layer sizes must be integers; got {tuple(self.layer_sizes)}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ConfigError(f"layer sizes need an input and an output size, all >= 1; got {sizes}")
        if len(sizes) - 2 > 3:
            raise ConfigError(f"at most 3 hidden layers are supported; got {len(sizes) - 2}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}; expected one of {tuple(ACTIVATIONS)}")
        if self.head not in ("softmax", "identity"):
            raise ConfigError(f"unknown head {self.head!r}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def in_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def out_dim(self) -> int:
        return self.layer_sizes[-1]


def network_specs(
    in_dim: int, n_classes: int, hidden: tuple[int, ...], feature_dim: int, activation: str
) -> tuple[MlpSpec, MlpSpec, MlpSpec]:
    """The extractor, label predictor and domain adversary every trainer
    builds: the extractor maps in_dim features through `hidden` to
    feature_dim, and each head is one softmax layer over its output."""
    extractor = MlpSpec((in_dim, *hidden, feature_dim), activation, head="identity")
    predictor = MlpSpec((feature_dim, n_classes), activation, head="softmax")
    adversary = MlpSpec((feature_dim, 2), activation, head="softmax")
    return extractor, predictor, adversary


@dataclass(frozen=True)
class Mlp:
    """A spec plus its parameters, one (weights, bias) pair per layer.

    The pairs may be views into a flat vector (see _views); trainers
    write only through vectors they own, so params returned from a trainer
    are never modified afterwards.
    """

    spec: MlpSpec
    params: Params


@dataclass(frozen=True)
class TrainConfig:
    # learning_rate 0 is allowed: it trains nothing but exercises the
    # early-stopping path deterministically.
    learning_rate: float = bounded(0.01, low=0)
    batch_size: int = bounded(64, low=1)
    max_epochs: int = bounded(200, low=1)
    patience: int = bounded(20, low=1)

    def __post_init__(self):
        check_field_types(self)


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
    """Mlps whose (weights, bias) pairs are views into the flat vector theta.

    A stack of member rows (F, P) gives stacked pairs: weights (F, in, out)
    and biases (F, out).
    """
    mlps, off = [], 0
    lead = theta.shape[:-1]
    for spec in specs:
        params: Params = []
        for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
            w = theta[..., off : off + fan_in * fan_out].reshape(*lead, fan_in, fan_out)
            off += fan_in * fan_out
            params.append((w, theta[..., off : off + fan_out]))
            off += fan_out
        mlps.append(Mlp(spec, params))
    return mlps


def _n_params(specs: list[MlpSpec]) -> int:
    """Length of the flat vector that holds the parameters of `specs`."""
    return sum(i * o + o for spec in specs for i, o in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]))


def flatten(*parts: Params) -> np.ndarray:
    """Concatenate per-layer arrays, weights row-major then bias, layer by layer."""
    return np.concatenate([a.ravel() for params in parts for pair in params for a in pair])


def softmax(z: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis, with the max and the sum folded over
    the class columns.

    numpy reduces a short last axis with one inner-loop call per row; an
    elementwise op on column views runs one long strided loop, which is
    several times faster on the (members, rows, 2) stacks trainers pass.
    The max is exact in any order, and np.maximum propagates NaN as
    maximum.reduce does. For fewer than 8 classes add.reduce is itself a
    left fold, so the sum has the same bits; from 8 on it sums pairwise
    and the last bit may differ. normda's heads have 2 outputs (domain
    heads, and the label heads of every shipped config) or 3-4 (the
    paper's SEED, DEAP and BCI IV 2a).
    """
    cols = range(z.shape[-1])
    e = z - functools.reduce(np.maximum, (z[..., c : c + 1] for c in cols))
    np.exp(e, out=e)
    e /= functools.reduce(np.add, (e[..., c : c + 1] for c in cols))
    return e


@dataclass
class ForwardCache:
    inputs: list[np.ndarray]  # activation entering each layer
    pre: list[np.ndarray]  # pre-activation of each layer
    out: np.ndarray


def _forward(spec: MlpSpec, params: Params, X: np.ndarray) -> ForwardCache:
    """forward without its checks: X is a float64 batch of the right width,
    or a stack of member batches (F, rows, width) under stacked params."""
    inputs, pre = [], []
    a = X
    last = len(params) - 1
    activate = ACTIVATIONS[spec.activation][0]
    for l, (w, b) in enumerate(params):
        inputs.append(a)
        z = a @ w
        z += b[..., None, :]
        pre.append(z)
        a = activate(z) if l < last else z
    out = softmax(a) if spec.head == "softmax" else a
    return ForwardCache(inputs, pre, out)


def forward(spec: MlpSpec, params: Params, X: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Dense forward pass; a softmax head returns per-row probabilities."""
    X = feature_rows(X, "input features", width=spec.in_dim)
    if len(params) != len(spec.layer_sizes) - 1:
        raise ShapeError("params do not match spec layer count")
    cache = _forward(spec, params, X)
    if not np.all(np.isfinite(cache.out)):
        raise NumericError(FORWARD_ERROR)
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
    false. g itself is never written. Stacked caches and params give
    stacked gradients.
    """
    derivative = ACTIVATIONS[spec.activation][1]
    for l in range(len(params) - 1, -1, -1):
        if grads is not None:
            dw, db = grads[l]
            np.matmul(cache.inputs[l].mT, g, out=dw)
            np.add.reduce(g, axis=-2, out=db)
        if l == 0 and not input_grad:
            return None
        g = g @ params[l][0].mT
        if l > 0:
            g *= derivative(cache.pre[l - 1], cache.inputs[l])
    return g


def backward(
    spec: MlpSpec, params: Params, cache: ForwardCache, grad_out: np.ndarray
) -> tuple[Params, np.ndarray]:
    """Reverse-mode gradients from grad_out (w.r.t. the final pre-head output).

    Returns (per-layer (dW, db) gradients, gradient w.r.t. the input batch).
    For a softmax head pass the logits gradient.
    """
    if len(cache.pre) != len(params):
        raise ShapeError("cache does not match params")
    g = np.asarray(grad_out, dtype=np.float64)
    if g.shape != cache.pre[-1].shape:
        raise ShapeError("grad_out shape does not match the forward output")
    grads = [(np.empty(w.shape), np.empty(b.shape)) for w, b in params]
    return grads, _backward(spec, params, cache, g, grads)


def _ce_grad_inplace(probs: np.ndarray, label_index: tuple) -> np.ndarray:
    """The mean cross-entropy's gradient w.r.t. the softmax logits, in place
    over probs (rows, classes) or a stack of them, whose label entries are
    probs[label_index]."""
    probs[label_index] -= 1.0
    probs /= probs.shape[-2]
    return probs


def _domain_grad_inplace(probs: np.ndarray, n_source: int) -> np.ndarray:
    """_ce_grad_inplace for domain labels: the first n_source rows (of each
    member's batch) are labeled 0 (source), the rest 1 (target)."""
    probs[..., :n_source, 0] -= 1.0
    probs[..., n_source:, 1] -= 1.0
    probs /= probs.shape[-2]
    return probs


@dataclass
class AdamState:
    """First and second moments of a stack of member rows, and the step count.

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


def adam_step(theta: np.ndarray, grad: np.ndarray, state: AdamState, lr: float):
    """One bias-corrected Adam update, in place, of theta: a stack of member
    rows (F, P) that step together and share the step count.

    A row whose update would be non-finite is left unwritten, parameters
    and moments alike, the other rows step, and the indices of the
    unwritten rows are returned (an empty tuple when every row stepped).
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
        ok = np.isfinite(new).all(axis=1)
        theta[ok], state.m[ok], state.v[ok], state.t = new[ok], m[ok], v[ok], t
        return np.flatnonzero(~ok)
    theta[...] = new
    state._spare = (state.m, state.v, work, new)
    state.m, state.v, state.t = m, v, t
    return ()


# ---------------------------------------------------------------------------
# Composite models


@dataclass(frozen=True)
class PlainModel:
    """Feature extractor followed by a label predictor, no DA components."""

    extractor: Mlp
    predictor: Mlp
    classes: tuple[int, ...]


@dataclass(frozen=True)
class DannModel:
    """Extractor, label predictor and domain classifier joined by a GRL."""

    extractor: Mlp
    predictor: Mlp
    domain_classifier: Mlp
    lam: float = bounded(low=0)
    classes: tuple[int, ...]

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class AddaModel:
    """Source/target encoders, shared classifier, domain discriminator."""

    source_encoder: Mlp
    target_encoder: Mlp
    classifier: Mlp
    discriminator: Mlp
    classes: tuple[int, ...]


def predict(model: PlainModel | DannModel | AddaModel, X: np.ndarray) -> np.ndarray:
    """Each row's label, one of model.classes, through the extractor (ADDA:
    the target encoder) and the label head."""
    if isinstance(model, AddaModel):
        extractor, head = model.target_encoder, model.classifier
    else:
        extractor, head = model.extractor, model.predictor
    feats, _ = forward(extractor.spec, extractor.params, X)
    probs, _ = forward(head.spec, head.params, feats)
    return np.asarray(model.classes, dtype=np.int64)[np.argmax(probs, axis=1)]


def _grad_views(specs: list[MlpSpec], members: int | None = None) -> tuple[np.ndarray, list[Params]]:
    """A new flat gradient vector laid out as flatten lays out parameters
    of `specs` (one row per member when `members` is given), and each
    network's (dW, db) views into it."""
    flat = np.empty(_n_params(specs) if members is None else (members, _n_params(specs)))
    return flat, [m.params for m in _views(flat, specs)]


def _class_pass(extractor: Mlp, predictor: Mlp, X, label_index, egrads: Params, pgrads: Params) -> None:
    """Write the gradients of the mean cross-entropy through
    predictor(extractor(X)) into egrads and pgrads; the batch's label
    entries of the predictor's output are at label_index."""
    ecache = _forward(extractor.spec, extractor.params, X)
    pcache = _forward(predictor.spec, predictor.params, ecache.out)
    g = _ce_grad_inplace(pcache.out, label_index)
    gfeats = _backward(predictor.spec, predictor.params, pcache, g, pgrads)
    _backward(extractor.spec, extractor.params, ecache, gfeats, egrads, input_grad=False)


def _dann_pass(nets: list[Mlp], lam: float, Xs, label_index, Xt, grads: list[Params], rev: Params) -> None:
    """Write one DANN batch's gradients into grads (extractor, predictor,
    domain classifier, as nets): source cross-entropy through extractor and
    predictor, and the domain loss (source 0, target 1) through the domain
    classifier and, scaled by -lam, into the extractor. rev is scratch
    shaped like the extractor's gradients."""
    ext, pred, dom = nets
    egrads, pgrads, dgrads = grads
    _class_pass(ext, pred, Xs, label_index, egrads, pgrads)

    ecache = _forward(ext.spec, ext.params, np.concatenate([Xs, Xt], axis=-2))
    dcache = _forward(dom.spec, dom.params, ecache.out)
    g = _domain_grad_inplace(dcache.out, Xs.shape[-2])
    gfeats = _backward(dom.spec, dom.params, dcache, g, dgrads, input_grad=lam > 0)
    if lam > 0:
        # Gradient reversal: identity forward, -lambda times the gradient backward.
        _backward(ext.spec, ext.params, ecache, -lam * gfeats, rev, input_grad=False)
        for (gw, gb), (rw, rb) in zip(egrads, rev):
            gw += rw
            gb += rb


def _init_mlps(specs: list[MlpSpec], seed) -> list[Mlp]:
    """Glorot-initialized Mlps drawn in order from one default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [init_mlp(spec, rng) for spec in specs]


def _trainer_inputs(X, y, Xt) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, tuple[int, ...]]:
    """Features as float64, each label's index (int64) among the sorted
    classes, the target features (when given), and the classes; see
    errors.feature_rows and errors.class_labels for what each rejects."""
    X = feature_rows(X, "training features", nonempty=True)
    classes, y = class_labels(y, X.shape[0])
    if Xt is not None:
        Xt = feature_rows(Xt, "target features", width=X.shape[1], nonempty=True)
    return X, y, Xt, classes


# ---------------------------------------------------------------------------
# Lockstep training


@dataclass
class _Member:
    """One problem after its input checks: its data (labels 0..k-1), its
    classes and network specs, its validation split, the rng that draws its
    batches, and its initial flat parameters."""

    X: np.ndarray
    y: np.ndarray
    Xt: np.ndarray | None
    classes: tuple[int, ...]
    specs: list[MlpSpec]
    train_idx: np.ndarray
    val_idx: np.ndarray
    rng: np.random.Generator
    theta: np.ndarray


def _lockstep(problems: Sequence[tuple], setup, train) -> list:
    """Run a trainer on F (X, y, Xt, seed) problems in lockstep.

    The result lists, per problem, its model or the NormdaError that
    failed it. A seed that is not a non-negative integer fails its problem;
    setup(X, y, Xt, seed) checks the rest of one problem and returns its
    _Member. Members whose class counts, arrays and split sizes agree, and
    so their network specs, go to one train(members, specs) call, which
    returns one result per member.
    """
    results: list = [None] * len(problems)
    stacks: dict = {}
    for i, (X, y, Xt, seed) in enumerate(problems):
        try:
            check_type(seed, "seed", "int", low=0)
            member = setup(X, y, Xt, seed)
        except NormdaError as exc:
            results[i] = exc
            continue
        shapes = (member.X.shape, getattr(member.Xt, "shape", None), member.train_idx.size, member.val_idx.size)
        stacks.setdefault((len(member.classes), *shapes), []).append((i, member))
    for entries in stacks.values():
        members = [member for _, member in entries]
        for (i, _), result in zip(entries, train(members, members[0].specs)):
            results[i] = result
    return results


class _Stack:
    """Members training in lockstep, one row per member in every array.

    Each array attribute has a leading member axis, each list attribute one
    entry per member, and keep() drops members from all of them (and from
    each AdamState's moments) at once. `ids` are the members' positions in
    the train() call; `errors` holds the NormdaError that failed a member.
    """

    def __init__(self, members: list[_Member], theta: np.ndarray | None = None):
        """A stack of the members, training theta (by default, their
        initial parameters)."""
        rows = np.arange(len(members))[:, None]
        self.ids = list(range(len(members)))
        self.rngs = [m.rng for m in members]
        self.errors: list = [None] * len(members)
        self.X = np.stack([m.X for m in members])
        self.y = np.stack([m.y for m in members])
        self.Xt = None if members[0].Xt is None else np.stack([m.Xt for m in members])
        self.train_idx = np.stack([m.train_idx for m in members])
        val_idx = np.stack([m.val_idx for m in members])
        self.Xval, self.yval = self.X[rows, val_idx], self.y[rows, val_idx]
        self.theta = np.stack([m.theta for m in members]) if theta is None else theta

    @property
    def rows(self) -> np.ndarray:
        """Member indices as a column, to index one row set per member."""
        return np.arange(len(self.ids))[:, None]

    def keep(self, mask: np.ndarray) -> None:
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                setattr(self, name, value[mask])
            elif isinstance(value, list):
                setattr(self, name, [v for v, k in zip(value, mask) if k])
            elif isinstance(value, AdamState):
                setattr(self, name, AdamState(value.m[mask], value.v[mask], value.t))

    def fail(self, rows, message: str) -> None:
        """Fail the members at `rows` that have not failed yet."""
        for j in rows:
            if self.errors[j] is None:
                self.errors[j] = NumericError(message)

    def check_finite(self, *outputs: np.ndarray) -> None:
        """Fail each member with a non-finite value in a stacked forward
        output, as forward would have raised."""
        for out in outputs:
            if not np.isfinite(out).all():
                self.fail(np.flatnonzero(~np.isfinite(out).all(axis=(-2, -1))), FORWARD_ERROR)

    def leave(self, mask: np.ndarray, results: list) -> None:
        """Drop the masked members, storing at each one's id its error or a
        copy of its best snapshot."""
        if mask.any():
            for j in np.flatnonzero(mask):
                results[self.ids[j]] = self.errors[j] or self.best[j].copy()
            self.keep(~mask)


def _epoch_orders(rngs: list, n: int, n_target: int | None = None):
    """Each member's shuffled order of n rows for one epoch, stacked, and,
    when n_target is given, its shuffled order of the target rows cycled to
    length n, drawn after it (None otherwise). Batches are consecutive
    slices of both."""
    orders = np.empty((len(rngs), n), dtype=np.int64)
    targets = None if n_target is None else np.empty((len(rngs), n), dtype=np.int64)
    for j, rng in enumerate(rngs):
        orders[j] = rng.permutation(n)
        if targets is not None:
            targets[j] = np.resize(rng.permutation(n_target), n)
    return orders, targets


def _val_split(y: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray]:
    seed = int(rng.integers(2**32))
    return stratified_indices(y, seed)


def _early_stopping(stack: _Stack, epochs: int, patience: int, run_epoch, score) -> list:
    """Call run_epoch() up to `epochs` times, calling score() after each
    for one score per member. A member leaves after `patience` epochs
    without a strict improvement, or at the next epoch boundary once a step
    or score fails it. Returns, per member id, its error or a copy of its
    parameters after its best-scoring epoch (the earliest on ties). Scores
    must exceed -1."""
    results: list = [None] * len(stack.ids)
    stack.best = stack.theta.copy()
    stack.best_score = np.full(len(stack.ids), -1.0)
    stack.stale = np.zeros(len(stack.ids), dtype=np.int64)
    for _ in range(epochs):
        if any(stack.errors):
            stack.leave(np.array([e is not None for e in stack.errors]), results)
        if not stack.ids:
            break
        run_epoch()
        current = score()
        better = current > stack.best_score
        stack.best[better] = stack.theta[better]
        stack.best_score[better] = current[better]
        stack.stale = np.where(better, 0, stack.stale + 1)
        stack.leave(stack.stale >= patience, results)
    stack.leave(np.ones(len(stack.ids), dtype=bool), results)
    return results


def _val_accuracy(stack: _Stack, specs: list[MlpSpec]) -> np.ndarray:
    """Each member's accuracy of predictor(extractor(x)) on its validation rows."""
    ext, pred = _views(stack.theta, specs)
    feats = _forward(ext.spec, ext.params, stack.Xval).out
    probs = _forward(pred.spec, pred.params, feats).out
    stack.check_finite(feats, probs)
    return np.add.reduce(np.argmax(probs, axis=-1) == stack.yval, axis=-1) / stack.yval.shape[1]


def _fit_classifier(stack: _Stack, cfg: TrainConfig, specs: list[MlpSpec], lam: float | None = None) -> list:
    """Cross-entropy through predictor(extractor(x)) with Adam on mini-batches,
    early-stopped on validation accuracy; per member, its best snapshot or
    its error. With a lambda, specs add a domain classifier and each batch
    is a DANN batch (_dann_pass) whose target rows follow each member's
    target order, drawn after its source order."""
    stack.adam = AdamState.zeros_like(stack.theta)
    batch_rows = np.arange(min(cfg.batch_size, stack.train_idx.shape[1]))  # no batch holds more rows

    def run_epoch():
        rows = stack.rows
        n_target = None if lam is None else stack.Xt.shape[1]
        order, target = _epoch_orders(stack.rngs, stack.train_idx.shape[1], n_target)
        order = stack.train_idx[rows, order]
        X, y = stack.X[rows, order], stack.y[rows, order]
        nets = _views(stack.theta, specs)
        grad, grads = _grad_views(specs, len(stack.ids))
        if lam is not None:
            Xt = stack.Xt[rows, target]
            _, (rev,) = _grad_views(specs[:1], len(stack.ids))
        for start in range(0, order.shape[1], cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            yb = y[:, batch]
            label_index = (rows, batch_rows[: yb.shape[1]], yb)
            if lam is None:
                _class_pass(*nets, X[:, batch], label_index, *grads)
            else:
                _dann_pass(nets, lam, X[:, batch], label_index, Xt[:, batch], grads, rev)
            stack.fail(adam_step(stack.theta, grad, stack.adam, cfg.learning_rate), ADAM_ERROR)

    return _early_stopping(
        stack, cfg.max_epochs, cfg.patience, run_epoch, lambda: _val_accuracy(stack, specs[:2])
    )


def _initial_member(X, y, Xt, seed, shape: tuple, n_nets: int = 3) -> _Member:
    """A member after its input checks: its labels mapped to 0..k-1, and
    the first n_nets networks of network_specs(feature width, k, *shape)
    drawn from one default_rng(seed) in that order, its split and batches
    from a second one. default_rng returns a Generator seed unchanged, so a
    Generator draws all of them, in that order."""
    X, y, Xt, classes = _trainer_inputs(X, y, Xt)
    specs = list(network_specs(X.shape[1], len(classes), *shape)[:n_nets])
    theta = flatten(*(m.params for m in _init_mlps(specs, seed)))
    rng = np.random.default_rng(seed)
    return _Member(X, y, Xt, classes, specs, *_val_split(y, rng), rng, theta)


def _shape(cfg: TrainConfig, hidden, feature_dim: int, activation: str) -> tuple:
    """A trainer's network shape arguments, once its config is a TrainConfig
    and `hidden` can be unpacked; network_specs checks the rest per problem."""
    check_type(cfg, "cfg", TrainConfig)
    check_type(hidden, "hidden", Iterable)
    return hidden, feature_dim, activation


def train_plain(
    problems: Sequence[tuple], cfg: TrainConfig, hidden: tuple[int, ...], feature_dim: int, activation: str
) -> list:
    """Minimize cross-entropy with Adam and mini-batches; early-stops on
    validation accuracy and keeps the best-validation snapshot as a
    PlainModel of network_specs' extractor and predictor.

    problems is a sequence of (X, y, Xt, seed) problems with any integer
    labels, trained in lockstep; Xt is ignored, so target rows are neither
    read nor checked. The result lists each problem's PlainModel or the
    NormdaError that failed it (see _lockstep).
    """
    shape = _shape(cfg, hidden, feature_dim, activation)

    def setup(X, y, Xt, seed):
        return _initial_member(X, y, None, np.random.default_rng(seed), shape, n_nets=2)

    def train(members, specs):
        best = _fit_classifier(_Stack(members), cfg, specs)
        return [
            b if isinstance(b, NormdaError) else PlainModel(*_views(b, specs), m.classes)
            for b, m in zip(best, members)
        ]

    return _lockstep(problems, setup, train)


def train_dann(
    problems: Sequence[tuple],
    cfg: TrainConfig,
    hidden: tuple[int, ...],
    feature_dim: int,
    activation: str,
    lam: float,
) -> list:
    """Adversarial training with a gradient-reversal layer; per (X, y, Xt,
    seed) problem, a DannModel or the NormdaError that failed it.

    Per batch the classifier path minimizes source cross-entropy while the
    domain head learns to separate source from target; the extractor
    receives the domain gradient scaled by -lambda. Early stopping watches
    source-validation accuracy only (target labels are never read). The
    three networks of network_specs are drawn from one default_rng(seed),
    in its order; the split and batches from a second one. The problems
    train in lockstep as train_plain's do; a lam that is not a finite
    number >= 0 raises.
    """
    check_type(lam, "lam", "float", low=0)
    shape = _shape(cfg, hidden, feature_dim, activation)

    def train(members, specs):
        best = _fit_classifier(_Stack(members), cfg, specs, lam)
        return [
            b if isinstance(b, NormdaError) else DannModel(*_views(b, specs), lam, m.classes)
            for b, m in zip(best, members)
        ]

    return _lockstep(problems, lambda *problem: _initial_member(*problem, shape), train)


def train_adda(
    problems: Sequence[tuple], cfg: TrainConfig, hidden: tuple[int, ...], feature_dim: int, activation: str
) -> list:
    """Two-stage adversarial encoder alignment; per (X, y, Xt, seed)
    problem, an AddaModel or the NormdaError that failed it.

    Stage 1 trains source encoder plus classifier on source cross-entropy
    with early stopping. Stage 2 freezes both, seeds the target encoder
    from the source encoder, then alternates discriminator updates
    (source encodings labeled 0, target 1) with target-encoder updates
    against inverted labels. Target rows are classified through
    classifier(target_encoder(x)). The encoder, classifier and
    discriminator are network_specs' three networks, drawn from one
    default_rng(seed) in its order; the split and batches of both stages
    come from a second one.

    Two stabilizers keep the minimax from cycling at small scale: the
    encoder steps at ADDA_ENCODER_LR_SCALE times the discriminator rate, and
    the returned (target encoder, discriminator) pair is the epoch-end
    snapshot whose discriminator accuracy sat closest to chance (ties keep
    the earliest epoch). Stage 2 runs all `cfg.max_epochs`; it never stops
    early.

    The problems train in lockstep as train_plain's do: each member leaves
    stage 1 at its own epoch, and the members that finish it run stage 2
    together.
    """
    shape = _shape(cfg, hidden, feature_dim, activation)

    def train(members, specs):
        n_stage1 = _n_params(specs[:2])
        sources = _fit_classifier(
            _Stack(members, np.stack([m.theta[:n_stage1] for m in members])), cfg, specs[:2]
        )
        results = list(sources)
        done = [i for i, s in enumerate(sources) if not isinstance(s, NormdaError)]
        if done:
            sources_done = np.stack([sources[i] for i in done])
            for i, pair in zip(done, _align_target([members[i] for i in done], sources_done, cfg, specs)):
                if isinstance(pair, NormdaError):
                    results[i] = pair
                else:
                    source_enc, clf = _views(sources[i], specs[:2])
                    target_enc, disc = _views(pair, specs[::2])
                    results[i] = AddaModel(source_enc, target_enc, clf, disc, members[i].classes)
        return results

    return _lockstep(problems, lambda *problem: _initial_member(*problem, shape), train)


def _align_target(members: list[_Member], sources: np.ndarray, cfg: TrainConfig, specs) -> list:
    """ADDA's stage 2 for members with stage-1 parameters `sources` (a stack
    of encoder + classifier rows); per member its chosen (target encoder,
    discriminator) snapshot as one flat row, or its error.

    Target encoder and discriminator share one vector per member; each
    slice keeps its own Adam state and learning rate.
    """
    enc_spec, _, disc_spec = specs
    n_enc, n_stage1 = _n_params(specs[:1]), _n_params(specs[:2])
    stack = _Stack(
        members,
        np.concatenate([sources[:, :n_enc], np.stack([m.theta[n_stage1:] for m in members])], axis=1),
    )
    source_enc = _views(sources, specs[:1])[0]
    stack.src_feats = _forward(enc_spec, source_enc.params, stack.X).out
    stack.check_finite(stack.src_feats)
    stack.enc_adam = AdamState.zeros_like(stack.theta[:, :n_enc])
    stack.disc_adam = AdamState.zeros_like(stack.theta[:, n_enc:])
    n_src, n_tgt = stack.X.shape[1], stack.Xt.shape[1]
    domain_truth = np.concatenate([np.zeros(n_src, dtype=np.int64), np.ones(n_tgt, dtype=np.int64)])
    nets = [enc_spec, disc_spec]

    def run_epoch():
        rows = stack.rows
        order, target = _epoch_orders(stack.rngs, n_src, n_tgt)
        real, Xt = stack.src_feats[rows, order], stack.Xt[rows, target]
        target_enc, disc = _views(stack.theta, nets)
        grad, (enc_grads, disc_grads) = _grad_views(nets, len(stack.ids))
        enc_theta, disc_theta = stack.theta[:, :n_enc], stack.theta[:, n_enc:]
        enc_grad, disc_grad = grad[:, :n_enc], grad[:, n_enc:]
        for start in range(0, n_src, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            # Discriminator step: source encodings 0, target encodings 1.
            tcache = _forward(enc_spec, target_enc.params, Xt[:, batch])
            fake = tcache.out
            dcache = _forward(disc_spec, disc.params, np.concatenate([real[:, batch], fake], axis=-2))
            g = _domain_grad_inplace(dcache.out, fake.shape[-2])
            _backward(disc_spec, disc.params, dcache, g, disc_grads, input_grad=False)
            stack.fail(adam_step(disc_theta, disc_grad, stack.disc_adam, cfg.learning_rate), ADAM_ERROR)
            # Encoder step: fool the updated discriminator (inverted labels:
            # every target row labeled source). The target encoder has not
            # moved, so `fake` and `tcache` still hold.
            dcache = _forward(disc_spec, disc.params, fake)
            g = _domain_grad_inplace(dcache.out, fake.shape[-2])
            gfeats = _backward(disc_spec, disc.params, dcache, g, None)
            _backward(enc_spec, target_enc.params, tcache, gfeats, enc_grads, input_grad=False)
            lr = cfg.learning_rate * ADDA_ENCODER_LR_SCALE
            stack.fail(adam_step(enc_theta, enc_grad, stack.enc_adam, lr), ADAM_ERROR)

    def chance_closeness():
        target_enc, disc = _views(stack.theta, nets)
        fake_all = _forward(enc_spec, target_enc.params, stack.Xt).out
        dprobs = _forward(disc_spec, disc.params, np.concatenate([stack.src_feats, fake_all], axis=-2)).out
        stack.check_finite(fake_all, dprobs)
        hits = np.add.reduce(np.argmax(dprobs, axis=-1) == domain_truth, axis=-1)
        return -np.abs(hits / domain_truth.size - 0.5)

    return _early_stopping(stack, cfg.max_epochs, cfg.max_epochs, run_epoch, chance_closeness)
