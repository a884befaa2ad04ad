"""Finite-difference gradient check shared by the nn_core and lstm tests."""

import numpy as np

from denguecast.errors import ValidationError
from denguecast.nn_core import make_rng


def grad_check(loss_and_grads, params, eps=1e-5, seed=0, max_coords=None):
    """Central-difference check of analytic gradients.

    loss_and_grads() must be pure and deterministic: it evaluates the loss at
    the parameters' current values and populates every Parameter.grad. Each
    sampled coordinate is perturbed by +/-eps and the relative error
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-8) is computed;
    the maximum over all sampled coordinates is returned.
    """
    base = float(loss_and_grads())
    if not np.isfinite(base):
        raise ValidationError(f"non-finite loss {base} at evaluation point")
    analytic = {}
    for p in params:
        if p.grad is None:
            raise ValidationError(f"gradient of {p.name} not populated by loss_and_grads")
        analytic[p.name] = p.grad.copy()

    rng = make_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.value.reshape(-1)
        grad_flat = analytic[p.name].reshape(-1)
        n = flat.size
        if max_coords is None or n <= max_coords:
            coords = range(n)
        else:
            coords = sorted(rng.choice(n, size=max_coords, replace=False).tolist())
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            lp = float(loss_and_grads())
            flat[i] = orig - eps
            lm = float(loss_and_grads())
            flat[i] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise ValidationError(f"non-finite loss while perturbing {p.name}[{i}]")
            numeric = (lp - lm) / (2.0 * eps)
            a = grad_flat[i]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            worst = max(worst, rel)
    # the perturbed evaluations overwrote grads; restore the checked ones
    for p in params:
        p.grad = analytic[p.name]
    return worst
