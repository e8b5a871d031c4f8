"""Central finite-difference gradient checking shared by the test modules.

The library computes no loss value, so the loss lives here. The gradient
helpers run the library's own passes (the ones every training step runs)
on one unstacked batch, so a check of their output checks training.
"""

import numpy as np

from normda.deep import _ce_grad_inplace, _class_pass, _dann_pass, _grad_views


def cross_entropy(probs, y):
    """Mean negative log-likelihood of integer labels under probability rows."""
    p = np.clip(probs[np.arange(len(y)), y], 1e-12, None)
    return float(-np.mean(np.log(p)))


def cross_entropy_grad(probs, y):
    """Gradient of the mean cross-entropy w.r.t. the softmax logits."""
    return _ce_grad_inplace(probs.copy(), (np.arange(len(y)), y))


def class_grads(extractor, predictor, X, y):
    """Cross-entropy gradients (extractor, predictor) through predictor(extractor(X))."""
    _, (egrads, pgrads) = _grad_views([extractor.spec, predictor.spec])
    _class_pass(extractor, predictor, X, (np.arange(len(y)), y), egrads, pgrads)
    return egrads, pgrads


def dann_batch_grads(model, Xs, ys, Xt):
    """One DANN batch's gradients (extractor, predictor, domain classifier)."""
    specs = [model.extractor.spec, model.predictor.spec, model.domain_classifier.spec]
    _, grads = _grad_views(specs)
    _, (rev,) = _grad_views(specs[:1])
    nets = [model.extractor, model.predictor, model.domain_classifier]
    _dann_pass(nets, model.lam, Xs, (np.arange(len(ys)), ys), Xt, grads, rev)
    return tuple(grads)


def copy_params(params):
    return [(w.copy(), b.copy()) for w, b in params]


def max_relative_error(params, grads, loss_fn, h=1e-5, limit=None, rng=None):
    """Compare analytic grads against central differences of loss_fn(params).

    Returns (max relative error, number of coordinates checked). `limit`
    subsamples coordinates with `rng` when the parameter count is large.
    """
    coords = []
    for li, (w, b) in enumerate(params):
        for ai, arr in ((0, w), (1, b)):
            for idx in np.ndindex(arr.shape):
                coords.append((li, ai, idx))
    if limit is not None and len(coords) > limit:
        rng = rng or np.random.default_rng(0)
        picked = rng.choice(len(coords), size=limit, replace=False)
        coords = [coords[i] for i in picked]

    worst = 0.0
    for li, ai, idx in coords:
        plus = copy_params(params)
        minus = copy_params(params)
        plus[li][ai][idx] += h
        minus[li][ai][idx] -= h
        fd = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
        an = grads[li][ai][idx]
        denom = max(abs(fd), abs(an), 1e-8)
        worst = max(worst, abs(fd - an) / denom)
    return worst, len(coords)
