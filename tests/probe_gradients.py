"""Finite-difference gradient checks shared by the probe unit tests and the acceptance suite.

A plain module, not conftest.py, for the reason given in random_midi.py.
"""

import numpy as np

from earbench.probe import ProbeSpec, batch_loss


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
