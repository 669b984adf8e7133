"""Finite-difference gradient checks shared by the probe unit tests and the acceptance suite,
and the float64 reference trainer that the float32 `probe.train` is tested against.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import numpy as np

from earbench import probe
from earbench.probe import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ProbeSpec, batch_loss


class GradientCheckError(AssertionError):
    pass


def gradient_check(
    spec: ProbeSpec,
    params: dict,
    x: np.ndarray,
    y: np.ndarray,
    h: float = 1e-5,
    tol: float | None = None,
):
    """Analytic vs central finite-difference gradients on one batch.

    Dropout is excluded (masks are not differentiable surprises we want
    here). Returns (max relative error, worst parameter label); raises
    GradientCheckError when `tol` is given and exceeded.
    """
    _, analytic = batch_loss(spec, params, x, y, dropout_rng=None)
    worst_err = 0.0
    worst_name = ""
    for name, arr in params.items():
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = batch_loss(spec, params, x, y)
            flat[i] = orig - h
            down, _ = batch_loss(spec, params, x, y)
            flat[i] = orig
            numeric = (up - down) / (2 * h)
            a = analytic[name].reshape(-1)[i]
            scale = max(abs(a), abs(numeric))
            if scale < 1e-7:
                continue  # both gradients vanish; central differences only add noise
            err = abs(a - numeric) / scale
            if err > worst_err:
                worst_err = err
                worst_name = f"{name}[{i}]"
    if tol is not None and worst_err > tol:
        raise GradientCheckError(
            f"gradient mismatch {worst_err:.3e} > {tol:.1e} at {worst_name}"
        )
    return worst_err, worst_name


def reference_train(spec: ProbeSpec, train_xy, val_xy, seed: int, max_epochs: int, patience: int):
    """Textbook float64 minibatch Adam, one dict of temporaries per parameter and step.

    Follows `probe.train`'s protocol step for step (initialization, batch
    order, early stopping, best checkpoint) without dropout, which would draw
    its masks in another dtype. Returns (params, ProbeResult).
    """
    assert spec.dropout == 0.0
    x_train, y_train = np.asarray(train_xy[0], np.float64), train_xy[1]
    x_val, y_val = np.asarray(val_xy[0], np.float64), val_xy[1]
    if spec.normalize:
        mean, std = probe.normalize_fit(x_train)
        x_train = probe.normalize_apply(x_train, mean, std)
        x_val = probe.normalize_apply(x_val, mean, std)

    rng = np.random.default_rng(seed)
    _, init = probe._init_params(spec, x_train.shape[1], rng, y_train)
    params = {k: v.astype(np.float64) for k, v in init.items()}
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0
    best = {k: v.copy() for k, v in params.items()}
    best_metric, best_epoch, stale, epochs_run = -np.inf, -1, 0, 0

    n = len(x_train)
    for epoch in range(max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n)
        for lo in range(0, n, spec.batch_size):
            sel = order[lo : lo + spec.batch_size]
            _, grads = batch_loss(spec, params, x_train[sel], y_train[sel], dropout_rng=rng)
            step += 1
            for k, g in grads.items():
                adam_m[k] = ADAM_BETA1 * adam_m[k] + (1 - ADAM_BETA1) * g
                adam_v[k] = ADAM_BETA2 * adam_v[k] + (1 - ADAM_BETA2) * g * g
                m_hat = adam_m[k] / (1 - ADAM_BETA1**step)
                v_hat = adam_v[k] / (1 - ADAM_BETA2**step)
                params[k] -= spec.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        val_metric = probe.evaluate(probe.TrainedProbe(spec, params, None, None), x_val, y_val)
        if val_metric > best_metric:
            best_metric, best_epoch, stale = val_metric, epoch, 0
            best = {k: v.copy() for k, v in params.items()}
        else:
            stale += 1
            if stale >= patience:
                break
    return best, probe.ProbeResult(spec, best_epoch, epochs_run, float(best_metric), seed)
