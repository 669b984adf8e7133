"""Probing models over fixed feature vectors: linear and 512-unit MLP.

Training is plain minibatch Adam in numpy with cross-entropy (classification)
or MSE (regression), optional input normalization, hidden-layer dropout and
an additive L2 penalty. It runs in float32: `train` allocates its
parameters, gradients, Adam moments, best checkpoint and batch-sized
activations once, then updates them in place. Adam and the L2 gradient walk
the flat buffers `BLOCK_ELEMENTS` at a time through one block-sized scratch,
so each block's working set stays in L2 cache and no step allocates a
parameter-sized temporary; each element sees the same operations in the same
order as a whole-buffer pass, so the bits do not depend on the block size.
`batch_loss` follows the dtype of its inputs, so the gradient checks run it
in float64. Every run is a deterministic function of (spec, data, seed),
including batch order and dropout masks. An MLP's bits also do not depend
on the caller's BLAS thread count: a narrow one trains on one thread, and
wider ones gave the same bytes on one thread and on two. The linear model's
can (at 10,000 inputs and 8 classes, say), so it keeps the caller's count,
and its pins hold on two threads.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .parallel import one_blas_thread, parallel_map
from .seeds import derive_seed

NORMALIZE_EPS = 1e-8
MAX_EPOCHS = 200
PATIENCE = 10
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
HIDDEN_UNITS = 512
# Elements per block of the Adam and L2 passes: 256 KiB of float32, so one
# block each of params, grad, m, v and the scratch (1.25 MiB) fits in a 2 MiB
# L2. Measured on one BLAS thread, it matched 32,768 within run-to-run noise
# from 768 to 4,800 input dimensions, and it holds a 72-d (chroma) or 120-d
# (MFCC) MLP of up to 4 outputs in one block, the whole-buffer pass, where two
# blocks of the 72-d one cost 10-15 us more per step.
BLOCK_ELEMENTS = 65_536
# Multiply-adds in an MLP minibatch's x @ W1 (rows x d_in x 512) below which
# `train` runs on one BLAS thread whatever the caller's count: 64 rows x 512
# inputs. In sweeps on 2 cores (BENCH_19.json), one thread was as fast as two
# or faster up to 1.5 x 2^23 (batch 64 at 384-d, batch 256 at 96-d), the two
# were within noise at 1.75 x 2^23, two were as fast or faster at 2^24
# (medians 2.03 against 2.05 ms per step at 512-d, 2.16 against 2.43 ms at
# batch 256 and 128-d), and faster above (960-d: 2.68 against 3.24 ms).
# Below it, a second thread mostly spins and doubles the CPU time.
NARROW_MATMUL = 1 << 24

GRID_NORMALIZE = [True, False]
GRID_MODEL = ["linear", "mlp"]
GRID_BATCH = [64, 256]
GRID_LR = [1e-5, 1e-4, 1e-3]
GRID_DROPOUT = [0.25, 0.5, 0.75]
GRID_WEIGHT_DECAY = [0.0, 1e-4, 1e-3]


class TrainingError(RuntimeError):
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
    """Per-dimension mean and std from the training split only, in its dtype.

    Sums accumulate in float64; the one full-size temporary is in the input's dtype.
    """
    if len(train_x) == 0:
        raise ValueError("cannot fit normalization on an empty matrix")
    mean = train_x.mean(axis=0, dtype=np.float64).astype(train_x.dtype)
    centred = train_x - mean
    np.square(centred, out=centred)
    std = np.sqrt(centred.mean(axis=0, dtype=np.float64))
    return mean, std.astype(train_x.dtype)


def normalize_apply(x: np.ndarray, mean: np.ndarray, std: np.ndarray) -> np.ndarray:
    out = x - mean
    out /= np.maximum(std, NORMALIZE_EPS)
    return out


def _views(flat: np.ndarray, shapes: dict) -> dict:
    """Named arrays of the given shapes, laid end to end as views into `flat`."""
    views, lo = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[lo : lo + size].reshape(shape)
        lo += size
    return views


def _blocks(size: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_ELEMENTS that cover range(size)."""
    return [slice(lo, min(lo + BLOCK_ELEMENTS, size)) for lo in range(0, size, BLOCK_ELEMENTS)]


def _init_params(spec: ProbeSpec, d_in: int, rng: np.random.Generator, y_train):
    """(flat float32 buffer, dict of named parameter views into it)."""
    d_out = spec.n_classes if spec.task == "classification" else 1
    if spec.model == "linear":
        shapes = {"W": (d_in, d_out), "b": (d_out,)}
    elif spec.model == "mlp":
        shapes = {
            "W1": (d_in, HIDDEN_UNITS),
            "b1": (HIDDEN_UNITS,),
            "W2": (HIDDEN_UNITS, d_out),
            "b2": (d_out,),
        }
    else:
        raise ValueError(f"unknown model type: {spec.model}")
    flat = np.zeros(sum(math.prod(shape) for shape in shapes.values()), np.float32)
    params = _views(flat, shapes)
    if spec.model == "mlp":
        for name, fan_in in (("W1", d_in), ("W2", HIDDEN_UNITS)):
            rng.standard_normal(dtype=np.float32, out=params[name])
            params[name] *= math.sqrt(2.0 / fan_in)
    if spec.task == "regression":
        # Adam at these learning rates cannot walk an output bias to ~100 in
        # 200 epochs, so start the intercept at the training-target mean.
        params["b" if spec.model == "linear" else "b2"][:] = float(np.mean(y_train))
    return flat, params


class _Activations:
    """Output rows and the MLP's one hidden layer for up to `rows` input rows, in the dtype of `params`.

    A shorter input uses the first rows. The hidden layer holds the
    pre-activation, then the ReLU, then the dropped-out activations, and
    after `_backward` the ReLU derivative.
    """

    def __init__(self, spec: ProbeSpec, params: dict, rows: int):
        self.dtype = next(iter(params.values())).dtype
        weights = params["W"] if spec.model == "linear" else params["W2"]
        self.out = np.empty((rows, weights.shape[1]), self.dtype)
        if spec.model == "mlp":
            self.hidden = np.empty((rows, params["W1"].shape[1]), self.dtype)


class _Buffers(_Activations):
    """Activations plus what the backward pass writes: gradients, dropout
    mask, hidden-layer gradient and a block-sized scratch.

    `train` allocates one for its minibatches and reuses it on every step.
    The gradients lie end to end in `grad_flat`, in the order of `params`.
    """

    def __init__(self, spec: ProbeSpec, params: dict, rows: int):
        super().__init__(spec, params, rows)
        self.grad_flat = np.empty(sum(p.size for p in params.values()), self.dtype)
        self.grads = _views(self.grad_flat, {k: p.shape for k, p in params.items()})
        self.scratch = np.empty(min(BLOCK_ELEMENTS, self.grad_flat.size), self.dtype)
        if spec.model == "mlp":
            self.mask, self.d_hidden = (np.empty_like(self.hidden) for _ in range(2))


def _forward(spec: ProbeSpec, params: dict, x: np.ndarray, buf: _Activations, dropout_rng=None) -> np.ndarray:
    """Output rows for `x`, written into `buf`. Dropout is active only when a rng is supplied,
    and then `buf` must be a `_Buffers`, which holds the mask."""
    rows = len(x)
    out = buf.out[:rows]
    if spec.model == "linear":
        np.matmul(x, params["W"], out=out)
        out += params["b"]
        return out
    hidden = buf.hidden[:rows]
    np.matmul(x, params["W1"], out=hidden)
    hidden += params["b1"]
    np.maximum(hidden, 0.0, out=hidden)
    if dropout_rng is not None and spec.dropout > 0.0:
        mask = buf.mask[:rows]
        dropout_rng.random(dtype=mask.dtype, out=mask)
        np.greater_equal(mask, spec.dropout, out=mask)
        mask *= 1.0 / (1.0 - spec.dropout)
        hidden *= mask
    np.matmul(hidden, params["W2"], out=out)
    out += params["b2"]
    return out


def _backward(spec: ProbeSpec, params: dict, x: np.ndarray, buf: _Buffers, d_out: np.ndarray, masked: bool):
    """Parameter gradients into `buf.grads`, from the activations `_forward` left in `buf`."""
    grads = buf.grads
    if spec.model == "linear":
        np.matmul(x.T, d_out, out=grads["W"])
        np.sum(d_out, axis=0, out=grads["b"])
        return
    rows = len(x)
    hidden, d_pre = buf.hidden[:rows], buf.d_hidden[:rows]
    np.matmul(hidden.T, d_out, out=grads["W2"])
    np.sum(d_out, axis=0, out=grads["b2"])
    np.matmul(d_out, params["W2"].T, out=d_pre)
    if masked:
        d_pre *= buf.mask[:rows]
    # The hidden layer is spent: it becomes the ReLU derivative. On kept units
    # the dropout scale is positive, so hidden > 0 where pre > 0; on dropped
    # ones d_pre is already a zero of the same sign whichever factor it meets.
    np.greater(hidden, 0.0, out=hidden)
    d_pre *= hidden
    np.matmul(x.T, d_pre, out=grads["W1"])
    np.sum(d_pre, axis=0, out=grads["b1"])


def _loss_and_grad(spec: ProbeSpec, out: np.ndarray, y: np.ndarray):
    n = len(y)
    if spec.task == "classification":
        shifted = out - out.max(axis=1, keepdims=True)
        softmax = np.exp(shifted)
        total = softmax.sum(axis=1, keepdims=True)
        rows = np.arange(n)
        loss = float(np.mean(np.log(total[:, 0]) - shifted[rows, y]))
        softmax /= total
        softmax[rows, y] -= 1.0
        softmax /= n
        return loss, softmax
    pred = out[:, 0]
    err = pred - y
    loss = float(np.mean(err * err))
    return loss, (2.0 * err / n)[:, None]


def batch_loss(spec: ProbeSpec, params: dict, x: np.ndarray, y: np.ndarray, dropout_rng=None, buffers=None):
    """Full training loss (data term + L2 penalty) and parameter gradients.

    Computes in the dtype of `params`. The gradients are views into
    `buffers` (a `_Buffers` for at least len(x) rows), which `train` passes
    to reuse one allocation; without it, this call allocates its own.
    """
    if buffers is None:
        buffers = _Buffers(spec, params, len(x))
    out = _forward(spec, params, x, buffers, dropout_rng)
    loss, d_out = _loss_and_grad(spec, out, y)
    _backward(spec, params, x, buffers, d_out, dropout_rng is not None and spec.dropout > 0.0)
    grads = buffers.grads
    if spec.weight_decay:
        # 0.5 * wd * ||W||^2 over weight matrices (biases are not decayed)
        for k in params:
            if k.startswith("W"):
                loss += 0.5 * spec.weight_decay * float(np.vdot(params[k], params[k]))
                w, g = params[k].reshape(-1), grads[k].reshape(-1)
                for b in _blocks(w.size):
                    decay = buffers.scratch[: b.stop - b.start]
                    np.multiply(w[b], spec.weight_decay, out=decay)
                    np.add(g[b], decay, out=g[b])
    return loss, grads


@dataclass
class TrainedProbe:
    spec: ProbeSpec
    params: dict
    mean: np.ndarray | None
    std: np.ndarray | None

    def predict(self, x: np.ndarray) -> np.ndarray:
        if self.mean is not None:
            x = normalize_apply(x, self.mean, self.std)
        return _forward(self.spec, self.params, x, _Activations(self.spec, self.params, len(x)))


def _score(task: str, out: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of the argmax for classification, R^2 of column 0 for regression."""
    if task == "classification":
        return float(np.mean(out.argmax(axis=1) == y))
    return r2_score(y, out[:, 0])


def evaluate(probe: TrainedProbe, x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy for classification, R^2 for regression."""
    return _score(probe.spec.task, probe.predict(x), y)


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
    """Minibatch Adam with early stopping on the validation metric, in float32 whatever the input dtype.

    Returns the probe restored to its best-validation checkpoint. An MLP
    whose minibatch matmul x @ W1 is below NARROW_MATMUL multiply-adds runs
    its steps and validation passes on one BLAS thread; a wider MLP and the
    linear model run on the caller's count. Raises TrainingError on a
    non-finite training loss, and when no epoch gives a finite validation
    metric (e.g. R^2 against constant validation targets).
    """
    x_train, y_train = train_xy
    x_val, y_val = val_xy
    x_train = np.asarray(x_train, dtype=np.float32)
    x_val = np.asarray(x_val, dtype=np.float32)
    mean = std = None
    if spec.normalize:
        mean, std = normalize_fit(x_train)
        x_train = normalize_apply(x_train, mean, std)
        x_val = normalize_apply(x_val, mean, std)

    rng = np.random.default_rng(seed)
    flat, params = _init_params(spec, x_train.shape[1], rng, y_train)
    if spec.task == "regression":
        y_train = np.asarray(y_train, dtype=np.float32)
    n = len(x_train)
    rows = min(spec.batch_size, n)
    buffers = _Buffers(spec, params, rows)
    val_activations = _Activations(spec, params, len(x_val))
    x_batch = np.empty((rows, x_train.shape[1]), np.float32)
    y_batch = np.empty(rows, y_train.dtype)
    adam_m, adam_v = np.zeros_like(flat), np.zeros_like(flat)
    # (params, grad, m, v, scratch) views per block, sliced once for every step
    adam_blocks = [
        (flat[b], buffers.grad_flat[b], adam_m[b], adam_v[b], buffers.scratch[: b.stop - b.start])
        for b in _blocks(flat.size)
    ]
    step = 0

    best = flat.copy()
    best_metric = -np.inf
    best_epoch = -1
    stale = 0
    epochs_run = 0

    narrow = spec.model == "mlp" and rows * params["W1"].size < NARROW_MATMUL
    with one_blas_thread() if narrow else nullcontext():
        for epoch in range(max_epochs):
            epochs_run = epoch + 1
            order = rng.permutation(n)
            for batch_idx, lo in enumerate(range(0, n, spec.batch_size)):
                sel = order[lo : lo + spec.batch_size]
                # "clip" gathers straight into the buffer, "raise" through a hidden copy
                x_b = np.take(x_train, sel, axis=0, out=x_batch[: len(sel)], mode="clip")
                y_b = np.take(y_train, sel, out=y_batch[: len(sel)], mode="clip")
                loss, _ = batch_loss(spec, params, x_b, y_b, rng, buffers)  # gradients land in `adam_blocks`
                if not np.isfinite(loss):
                    raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_idx}")
                step += 1
                # Adam over the flat buffers, one block at a time, with the bias
                # corrections folded into one step size and eps:
                # lr * m_hat / (sqrt(v_hat) + eps) equals step_size * m / (sqrt(v) + eps_t).
                root = math.sqrt(1.0 - ADAM_BETA2**step)
                step_size = spec.learning_rate * root / (1.0 - ADAM_BETA1**step)
                eps_t = ADAM_EPS * root
                for p, g, m, v, scratch in adam_blocks:
                    m *= ADAM_BETA1
                    np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
                    m += scratch
                    v *= ADAM_BETA2
                    np.multiply(g, g, out=scratch)
                    scratch *= 1.0 - ADAM_BETA2
                    v += scratch
                    np.sqrt(v, out=scratch)
                    scratch += eps_t
                    np.divide(m, scratch, out=scratch)
                    scratch *= step_size
                    p -= scratch

            val_metric = _score(spec.task, _forward(spec, params, x_val, val_activations), y_val)
            if val_metric > best_metric:
                best_metric = val_metric
                best_epoch = epoch
                np.copyto(best, flat)
                stale = 0
            else:
                stale += 1
                if stale >= patience:
                    break

    if best_epoch < 0:
        raise TrainingError(f"no finite validation metric in {epochs_run} epochs")
    probe = TrainedProbe(spec, _views(best, {k: p.shape for k, p in params.items()}), mean, std)
    result = ProbeResult(spec, best_epoch, epochs_run, float(best_metric), seed)
    return probe, result


def select_best(results: list[ProbeResult]) -> int:
    """Index of the winner: highest validation metric, then the spec's tie-break."""
    return min(range(len(results)), key=lambda i: (-results[i].val_metric, results[i].spec.sort_key()))


def grid_search(
    specs: list[ProbeSpec],
    data_splits,
    seed: int,
    workers: int = 1,
    max_epochs: int = MAX_EPOCHS,
):
    """Train every spec, select on validation, evaluate the winner on test once.

    `specs` is `grid_specs(...)` for the full search or `[lm_default_spec(...)]`;
    `data_splits` is ((x_train, y_train), (x_val, y_val), (x_test, y_test)).
    The test split is touched only by the final evaluation of the selected
    probe. Returns (selected ProbeResult, all ProbeResults in spec order).
    """
    train_xy, val_xy, test_xy = data_splits
    seeds = [derive_seed(seed, "probe-config", i) for i in range(len(specs))]

    def fit(i):
        return train(specs[i], train_xy, val_xy, seeds[i], max_epochs)

    if len(specs) == 1:
        probe, result = fit(0)
        results, winner = [result], 0
    else:
        results = parallel_map(lambda i: fit(i)[1], range(len(specs)), workers)
        winner = select_best(results)
        # retrain the winner (same derived seed, so bit-identical) for the one test pass
        probe, _ = fit(winner)
    test_metric = evaluate(probe, *test_xy)
    results[winner] = replace(results[winner], test_metric=test_metric)
    return results[winner], results
