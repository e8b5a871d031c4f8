"""Central finite-difference gradient checking shared by the test modules."""

import numpy as np


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
