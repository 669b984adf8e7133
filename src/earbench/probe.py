"""Probing models over fixed feature vectors: linear and 512-unit MLP.

Training is plain minibatch Adam in numpy with cross-entropy (classification)
or MSE (regression), optional input normalization, hidden-layer dropout and
an additive L2 penalty. Every run is a deterministic function of
(spec, data, seed), including batch order and dropout masks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .parallel import parallel_map
from .seeds import derive_seed

NORMALIZE_EPS = 1e-8
MAX_EPOCHS = 200
PATIENCE = 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
HIDDEN_UNITS = 512

GRID_NORMALIZE = [True, False]
GRID_MODEL = ["linear", "mlp"]
GRID_BATCH = [64, 256]
GRID_LR = [1e-5, 1e-4, 1e-3]
GRID_DROPOUT = [0.25, 0.5, 0.75]
GRID_WEIGHT_DECAY = [0.0, 1e-4, 1e-3]


class TrainingError(RuntimeError):
    pass


class GradientCheckError(AssertionError):
    pass


@dataclass(frozen=True)
class ProbeSpec:
    normalize: bool
    model: str  # "linear" | "mlp"
    batch_size: int
    learning_rate: float
    dropout: float
    weight_decay: float
    task: str  # "classification" | "regression"
    n_classes: int = 0

    def sort_key(self):
        # smaller model first, then lower learning rate, then remaining fields
        return (
            self.model != "linear",
            self.learning_rate,
            not self.normalize,
            self.batch_size,
            self.dropout,
            self.weight_decay,
        )


def grid_specs(task: str, n_classes: int = 0) -> list[ProbeSpec]:
    """All 216 hyperparameter combinations, in fixed enumeration order."""
    combos = itertools.product(
        GRID_NORMALIZE, GRID_MODEL, GRID_BATCH, GRID_LR, GRID_DROPOUT, GRID_WEIGHT_DECAY
    )
    return [
        ProbeSpec(norm, model, batch, lr, drop, wd, task, n_classes)
        for norm, model, batch, lr, drop, wd in combos
    ]


def lm_default_spec(task: str, n_classes: int = 0) -> ProbeSpec:
    """The fixed single-configuration preset used for external LM embeddings."""
    return ProbeSpec(True, "mlp", 64, 1e-3, 0.5, 0.0, task, n_classes)


@dataclass
class ProbeResult:
    spec: ProbeSpec
    best_epoch: int
    epochs_run: int
    val_metric: float
    seed: int
    test_metric: float | None = None


def normalize_fit(train_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-dimension mean and std from the training split only."""
    if len(train_x) == 0:
        raise ValueError("cannot fit normalization on an empty matrix")
    return train_x.mean(axis=0), train_x.std(axis=0)


def normalize_apply(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    return (x - mean) / np.maximum(std, NORMALIZE_EPS)


def _init_params(spec: ProbeSpec, d_in: int, rng: np.random.Generator, y_train=None) -> dict:
    d_out = spec.n_classes if spec.task == "classification" else 1
    if spec.model == "linear":
        params = {"W": np.zeros((d_in, d_out)), "b": np.zeros(d_out)}
    elif spec.model == "mlp":
        params = {
            "W1": rng.standard_normal((d_in, HIDDEN_UNITS)) * np.sqrt(2.0 / d_in),
            "b1": np.zeros(HIDDEN_UNITS),
            "W2": rng.standard_normal((HIDDEN_UNITS, d_out)) * np.sqrt(2.0 / HIDDEN_UNITS),
            "b2": np.zeros(d_out),
        }
    else:
        raise ValueError(f"unknown model type: {spec.model}")
    if spec.task == "regression" and y_train is not None:
        # Adam at these learning rates cannot walk an output bias to ~100 in
        # 200 epochs, so start the intercept at the training-target mean.
        params["b" if spec.model == "linear" else "b2"][:] = float(np.mean(y_train))
    return params


def _forward(spec: ProbeSpec, params: dict, x: np.ndarray, dropout_rng=None):
    """Returns (output, cache). Dropout is active only when a rng is supplied."""
    if spec.model == "linear":
        return x @ params["W"] + params["b"], {"x": x}
    pre = x @ params["W1"] + params["b1"]
    hidden = np.maximum(pre, 0.0)
    mask = None
    if dropout_rng is not None and spec.dropout > 0.0:
        mask = (dropout_rng.random(hidden.shape) >= spec.dropout) / (1.0 - spec.dropout)
        hidden = hidden * mask
    out = hidden @ params["W2"] + params["b2"]
    return out, {"x": x, "pre": pre, "hidden": hidden, "mask": mask}


def _backward(spec: ProbeSpec, params: dict, cache: dict, d_out: np.ndarray) -> dict:
    if spec.model == "linear":
        return {"W": cache["x"].T @ d_out, "b": d_out.sum(axis=0)}
    grads = {"W2": cache["hidden"].T @ d_out, "b2": d_out.sum(axis=0)}
    d_hidden = d_out @ params["W2"].T
    if cache["mask"] is not None:
        d_hidden = d_hidden * cache["mask"]
    d_pre = d_hidden * (cache["pre"] > 0.0)
    grads["W1"] = cache["x"].T @ d_pre
    grads["b1"] = d_pre.sum(axis=0)
    return grads


def _loss_and_grad(spec: ProbeSpec, out: np.ndarray, y: np.ndarray):
    n = len(y)
    if spec.task == "classification":
        shifted = out - out.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(log_z - shifted[np.arange(n), y]))
        softmax = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
        softmax[np.arange(n), y] -= 1.0
        return loss, softmax / n
    pred = out[:, 0]
    err = pred - y
    loss = float(np.mean(err * err))
    return loss, (2.0 * err / n)[:, None]


def _penalty(spec: ProbeSpec, params: dict):
    """0.5 * wd * ||W||^2 over weight matrices (biases are not decayed)."""
    if spec.weight_decay == 0.0:
        return 0.0, {}
    weights = [k for k in params if k.startswith("W")]
    loss = 0.5 * spec.weight_decay * sum(float(np.sum(params[k] ** 2)) for k in weights)
    return loss, {k: spec.weight_decay * params[k] for k in weights}


def batch_loss(spec: ProbeSpec, params: dict, x: np.ndarray, y: np.ndarray, dropout_rng=None):
    """Full training loss (data term + L2 penalty) and parameter gradients."""
    out, cache = _forward(spec, params, x, dropout_rng)
    loss, d_out = _loss_and_grad(spec, out, y)
    grads = _backward(spec, params, cache, d_out)
    pen, pen_grads = _penalty(spec, params)
    for k, g in pen_grads.items():
        grads[k] = grads[k] + g
    return loss + pen, grads


@dataclass
class TrainedProbe:
    spec: ProbeSpec
    params: dict
    mean: np.ndarray | None
    std: np.ndarray | None

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.mean is not None:
            x = normalize_apply(x, self.mean, self.std)
        out, _ = _forward(self.spec, self.params, x)
        return out


def evaluate(probe: TrainedProbe, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy for classification, R^2 for regression."""
    out = probe.predict(x)
    if probe.spec.task == "classification":
        return float(np.mean(out.argmax(axis=1) == y))
    return r2_score(y, out[:, 0])


def r2_score(targets: np.ndarray, predictions: np.ndarray) -> float:
    ss_res = float(np.sum((targets - predictions) ** 2))
    ss_tot = float(np.sum((targets - np.mean(targets)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else float("-inf")
    return 1.0 - ss_res / ss_tot


def train(
    spec: ProbeSpec,
    train_xy,
    val_xy,
    seed: int,
    max_epochs: int = MAX_EPOCHS,
    patience: int = PATIENCE,
) -> tuple[TrainedProbe, ProbeResult]:
    """Minibatch Adam with early stopping on the validation metric.

    Returns the probe restored to its best-validation checkpoint.
    """
    x_train, y_train = train_xy
    x_val, y_val = val_xy
    x_train = np.asarray(x_train, dtype=np.float64)
    x_val = np.asarray(x_val, dtype=np.float64)
    mean = std = None
    if spec.normalize:
        mean, std = normalize_fit(x_train)
        x_train = normalize_apply(x_train, mean, std)
        x_val = normalize_apply(x_val, mean, std)

    rng = np.random.default_rng(seed)
    params = _init_params(spec, x_train.shape[1], rng, y_train)
    adam_m = {k: np.zeros_like(v) for k, v in params.items()}
    adam_v = {k: np.zeros_like(v) for k, v in params.items()}
    step = 0

    probe = TrainedProbe(spec, params, mean, std)
    best = {k: v.copy() for k, v in params.items()}
    best_metric = -np.inf
    best_epoch = -1
    stale = 0
    epochs_run = 0

    n = len(x_train)
    for epoch in range(max_epochs):
        epochs_run = epoch + 1
        order = rng.permutation(n)
        for batch_idx, lo in enumerate(range(0, n, spec.batch_size)):
            sel = order[lo : lo + spec.batch_size]
            loss, grads = batch_loss(spec, params, x_train[sel], y_train[sel], dropout_rng=rng)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
            step += 1
            for k, g in grads.items():
                adam_m[k] = ADAM_BETA1 * adam_m[k] + (1 - ADAM_BETA1) * g
                adam_v[k] = ADAM_BETA2 * adam_v[k] + (1 - ADAM_BETA2) * g * g
                m_hat = adam_m[k] / (1 - ADAM_BETA1**step)
                v_hat = adam_v[k] / (1 - ADAM_BETA2**step)
                params[k] -= spec.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)

        val_out, _ = _forward(spec, params, x_val)
        if spec.task == "classification":
            val_metric = float(np.mean(val_out.argmax(axis=1) == y_val))
        else:
            val_metric = r2_score(y_val, val_out[:, 0])
        if val_metric > best_metric:
            best_metric = val_metric
            best_epoch = epoch
            best = {k: v.copy() for k, v in params.items()}
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    probe.params = best
    result = ProbeResult(spec, best_epoch, epochs_run, float(best_metric), seed)
    return probe, result


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


def select_best(results: list[ProbeResult]) -> int:
    """Index of the winner: highest validation metric, deterministic tie-break."""
    def key(item):
        i, r = item
        return (-r.val_metric, r.spec.sort_key())

    return min(enumerate(results), key=key)[0]


_WORKER_DATA = {}


def _worker_init(train_xy, val_xy, max_epochs, patience):
    _WORKER_DATA["args"] = (train_xy, val_xy, max_epochs, patience)


def _worker_train(job):
    spec, seed = job
    train_xy, val_xy, max_epochs, patience = _WORKER_DATA["args"]
    _, result = train(spec, train_xy, val_xy, seed, max_epochs, patience)
    return result


def grid_search(
    data_splits,
    task: str,
    n_classes: int,
    seed: int,
    specs=None,
    workers: int = 1,
    max_epochs: int = MAX_EPOCHS,
    patience: int = PATIENCE,
):
    """Train every spec, select on validation, evaluate the winner on test once.

    `data_splits` is ((x_train, y_train), (x_val, y_val), (x_test, y_test));
    the test split is touched only by the final evaluation of the selected
    probe. Returns (selected ProbeResult, all ProbeResults in grid order).
    """
    train_xy, val_xy, test_xy = data_splits
    if specs is None:
        specs = grid_specs(task, n_classes)
    jobs = [(spec, derive_seed(seed, "probe-config", i)) for i, spec in enumerate(specs)]
    if workers > 1 and len(specs) > 1:
        data = (train_xy, val_xy, max_epochs, patience)
        results = parallel_map(_worker_train, jobs, workers, _worker_init, data)
        winner = select_best(results)
        # retrain the winner (same derived seed, so bit-identical) for the one test pass
        probe, _ = train(specs[winner], train_xy, val_xy, jobs[winner][1], max_epochs, patience)
    else:
        results: list[ProbeResult | None] = [None] * len(specs)
        best = None
        for i, (spec, cfg_seed) in enumerate(jobs):
            candidate, results[i] = train(spec, train_xy, val_xy, cfg_seed, max_epochs, patience)
            if best is None or (-results[i].val_metric, spec.sort_key()) < best:
                best = (-results[i].val_metric, spec.sort_key())
                winner, probe = i, candidate
    test_metric = evaluate(probe, *test_xy)
    results[winner] = replace(results[winner], test_metric=test_metric)
    return results[winner], results
