import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

from earbench import probe
from earbench.probe import (
    ProbeSpec,
    TrainingError,
    batch_loss,
    evaluate,
    grid_search,
    grid_specs,
    lm_default_spec,
    normalize_apply,
    normalize_fit,
    r2_score,
    select_best,
    train,
)
from probe_gradients import GradientCheckError, gradient_check, reference_train


def blobs(rng, n_per=60, d=8, separation=4.0):
    a = rng.standard_normal((n_per, d)) + separation
    b = rng.standard_normal((n_per, d)) - separation
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    order = rng.permutation(len(y))
    return x[order], y[order]


def test_normalize_standardizes_train(rng):
    x = rng.normal(3.0, 2.0, size=(200, 5))
    mean, std = normalize_fit(x)
    z = normalize_apply(x, mean, std)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_normalize_constant_dimension():
    x = np.ones((50, 3))
    x[:, 1] = 7.0
    mean, std = normalize_fit(x)
    z = normalize_apply(x, mean, std)
    assert np.all(np.isfinite(z))
    assert np.allclose(z, 0.0)


def test_normalize_no_validation_leakage(rng):
    train_x = rng.normal(0.0, 1.0, size=(300, 4))
    val_x = rng.normal(5.0, 1.0, size=(300, 4))
    mean, std = normalize_fit(train_x)
    z_val = normalize_apply(val_x, mean, std)
    # validation stays shifted: its statistics must not be re-standardized
    assert np.all(np.abs(z_val.mean(axis=0)) > 0.5)


def test_linear_probe_separates_blobs(rng):
    x, y = blobs(rng)
    spec = ProbeSpec(True, "linear", 64, 1e-3, 0.25, 0.0, "classification", 2)
    trained, result = train(spec, (x[:80], y[:80]), (x[80:100], y[80:100]), seed=5, max_epochs=50)
    assert evaluate(trained, x[100:], y[100:]) == 1.0
    assert result.epochs_run <= 50


def test_linear_regression_recovers_feature(rng):
    x = rng.standard_normal((400, 6))
    y = x[:, 2].copy()
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.25, 0.0, "regression")
    trained, _ = train(
        spec, (x[:300], y[:300]), (x[300:350], y[300:350]), seed=9, max_epochs=500, patience=50
    )
    assert evaluate(trained, x[350:], y[350:]) >= 0.999


def test_mlp_learns_xor(rng):
    base = rng.standard_normal((400, 2)) * 0.2
    quadrant = rng.integers(0, 4, size=400)
    base[:, 0] += np.where(quadrant % 2 == 0, 1.0, -1.0)
    base[:, 1] += np.where(quadrant // 2 == 0, 1.0, -1.0)
    y = ((base[:, 0] > 0) ^ (base[:, 1] > 0)).astype(int)
    spec = ProbeSpec(True, "mlp", 64, 1e-3, 0.25, 0.0, "classification", 2)
    trained, _ = train(spec, (base[:300], y[:300]), (base[300:350], y[300:350]), seed=3)
    assert evaluate(trained, base[350:], y[350:]) >= 0.95


def test_dropout_changes_trajectory_but_stays_finite(rng):
    x, y = blobs(rng, n_per=40)
    common = dict(batch_size=64, learning_rate=1e-3, weight_decay=0.0, task="classification", n_classes=2)
    light = ProbeSpec(True, "mlp", dropout=0.25, **common)
    heavy = ProbeSpec(True, "mlp", dropout=0.75, **common)
    t1, r1 = train(light, (x[:60], y[:60]), (x[60:70], y[60:70]), seed=1, max_epochs=15, patience=15)
    t2, r2 = train(heavy, (x[:60], y[:60]), (x[60:70], y[60:70]), seed=1, max_epochs=15, patience=15)
    assert all(np.all(np.isfinite(v)) for v in t1.params.values())
    assert all(np.all(np.isfinite(v)) for v in t2.params.values())
    assert not np.allclose(t1.params["W1"], t2.params["W1"])


def test_train_determinism(rng):
    x, y = blobs(rng)
    spec = lm_default_spec("classification", 2)
    t1, r1 = train(spec, (x[:80], y[:80]), (x[80:100], y[80:100]), seed=42, max_epochs=20)
    t2, r2 = train(spec, (x[:80], y[:80]), (x[80:100], y[80:100]), seed=42, max_epochs=20)
    assert r1 == r2
    for k in t1.params:
        assert np.array_equal(t1.params[k], t2.params[k])


def test_training_holds_five_parameter_buffers(rng):
    """A 960-d MLP config with weight decay and dropout holds params, grad,
    Adam's m and v and the best checkpoint, plus its row-sized activations
    (the minibatch once: `np.take` gathers straight into it) and one block of
    scratch. Slack: half a parameter buffer (1 MB) for the shuffle, loss
    temporaries, results and any small numpy temporary. A whole-buffer Adam
    scratch, a decay temporary or gradients for the validation pass would
    each add a whole one (2 MB)."""
    d_in, n_classes, batch, n_val = 960, 4, 64, 32
    x = rng.standard_normal((128 + n_val, d_in), dtype=np.float32)
    y = rng.integers(0, n_classes, len(x))
    spec = ProbeSpec(False, "mlp", batch, 1e-3, 0.5, 1e-3, "classification", n_classes)
    splits = (x[:128], y[:128]), (x[128:], y[128:])
    train(spec, *splits, seed=0, max_epochs=1)
    tracemalloc.start()
    try:
        train(spec, *splits, seed=0, max_epochs=2, patience=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    hidden = probe.HIDDEN_UNITS
    params = d_in * hidden + hidden + hidden * n_classes + n_classes
    rows = batch * (d_in + 3 * hidden + n_classes) + n_val * (hidden + n_classes)
    assert peak <= 4 * (5 * params + rows + min(probe.BLOCK_ELEMENTS, params) + params // 2)


# float32 training against the float64 reference, elementwise: within 1e-5
# relative (about 85 float32 ulps, the rounding of ~20 steps) plus one
# learning rate absolute, which is one Adam step: the most an element can move
# apart in a step where its gradient sits on a ReLU boundary or below float32's
# resolution.
REFERENCE_RTOL = 1e-5


def _reference_data(task, center=0.0, scale=1.0):
    rng = np.random.default_rng(31)
    x = rng.standard_normal((260, 12)) * 2.0 + 1.0
    score = x @ rng.standard_normal(12) / np.sqrt(12) + 0.3 * rng.standard_normal(260)
    if task == "classification":
        y = np.digitize(score, np.quantile(score, [1 / 3, 2 / 3]))
    else:
        y = center + scale * score
    return (x[:200], y[:200]), (x[200:], y[200:])


def _assert_matches_reference(spec, train_xy, val_xy):
    trained, result = train(spec, train_xy, val_xy, seed=7, max_epochs=5, patience=5)
    ref_params, ref_result = reference_train(spec, train_xy, val_xy, seed=7, max_epochs=5, patience=5)
    assert result.best_epoch == ref_result.best_epoch
    assert abs(result.val_metric - ref_result.val_metric) <= 1e-4
    assert trained.params.keys() == ref_params.keys()
    for k, ref in ref_params.items():
        assert trained.params[k].dtype == np.float32
        np.testing.assert_allclose(
            trained.params[k], ref, rtol=REFERENCE_RTOL, atol=spec.learning_rate, err_msg=k
        )
    return trained, ref_params


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
@pytest.mark.parametrize("task,n_classes", [("classification", 3), ("regression", 0)])
@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_float32_training_matches_float64_reference(model, task, n_classes, weight_decay):
    spec = ProbeSpec(True, model, 64, 1e-3, 0.0, weight_decay, task, n_classes)
    _assert_matches_reference(spec, *_reference_data(task))


@pytest.mark.parametrize("model", ["linear", "mlp"])
def test_float32_output_bias_near_130_bpm_matches_reference(model):
    # float32's ulp at 130 (1.5e-5) exceeds lr 1e-5, so each step moves the
    # output bias by whole ulps, and the two paths may part by up to one ulp per step
    spec = ProbeSpec(True, model, 64, 1e-5, 0.0, 0.0, "regression")
    train_xy, val_xy = _reference_data("regression", center=130.0, scale=10.0)
    trained, ref_params = _assert_matches_reference(spec, train_xy, val_xy)
    bias = "b" if model == "linear" else "b2"
    steps = 5 * 4  # 5 epochs of 4 batches of 64 from 200 rows
    ulp = np.spacing(np.float32(130.0))
    assert abs(float(trained.params[bias][0]) - ref_params[bias][0]) <= steps * ulp


# Byte pins of `train`, computed with whole-buffer Adam and L2 passes, so
# that blocking them must not move a bit: (model, task, d_in) -> (weight
# decay, dropout, batch) -> (sha256 of the returned parameters' bytes in
# `params` order, best_epoch, epochs_run, val_metric). Each (model, task) has
# three d_in: its flat parameter buffer below one block, at whole blocks,
# and at whole blocks plus a remainder (see
# test_pinned_d_in_cover_the_block_cases). An MLP's flat size,
# 512 (d_in + 1) + 513 d_out, is never whole blocks for d_out < 512, so its
# d_in place W1, which the L2 step walks alone, in the three cases instead.
# The digests hold where they were computed: numpy 2.4.6 with its bundled
# scipy-openblas 0.3.31.188.0 (DYNAMIC_ARCH, SkylakeX kernels) on an
# AVX-512 Intel Xeon, Python 3.11.7. OpenBLAS on another CPU can pick another
# sgemm kernel and sum in another order, so a mismatch there is a platform
# difference to recompute the pins on, not by itself a regression.
PIN_CLASSES = 8
PIN_D_IN = {
    ("linear", "classification"): (12, 8191, 10000),
    ("linear", "regression"): (12, 65535, 66000),
    ("mlp", "classification"): (8, 128, 200),
    ("mlp", "regression"): (8, 128, 200),
}
TRAIN_PINS = {
    ("linear", "classification", 12): {
        (0.0, 0.0, 64): ("c8d0ce1ca555ded7d4bd0ae202821a0fb0463e38f13cec6143db507bc97577b2", 2, 6, 0.3125),
        (0.0, 0.0, 256): ("594d79f89eebc5708613a5c47e8178fc821383b73b74e246f51f501eaaff8f91", 0, 4, 0.125),
        (0.0, 0.5, 64): ("c8d0ce1ca555ded7d4bd0ae202821a0fb0463e38f13cec6143db507bc97577b2", 2, 6, 0.3125),
        (0.0, 0.5, 256): ("594d79f89eebc5708613a5c47e8178fc821383b73b74e246f51f501eaaff8f91", 0, 4, 0.125),
        (0.001, 0.0, 64): ("3180e5432abb1531c22d0244e88b169e097c6d22df1200678fe3fdd5cb901ce8", 2, 6, 0.3125),
        (0.001, 0.0, 256): ("594d79f89eebc5708613a5c47e8178fc821383b73b74e246f51f501eaaff8f91", 0, 4, 0.125),
        (0.001, 0.5, 64): ("3180e5432abb1531c22d0244e88b169e097c6d22df1200678fe3fdd5cb901ce8", 2, 6, 0.3125),
        (0.001, 0.5, 256): ("594d79f89eebc5708613a5c47e8178fc821383b73b74e246f51f501eaaff8f91", 0, 4, 0.125),
    },
    ("linear", "classification", 8191): {
        (0.0, 0.0, 64): ("d324fc3d3473dd9a574d4fe4327b2471e8b30a98ad6a3325e31894b0ae988e8c", 0, 4, 0.125),
        (0.0, 0.0, 256): ("efa713bdfa43e05894d12aad228d07758c299e563dc0d31864d9fb4aa3948559", 0, 4, 0.03125),
        (0.0, 0.5, 64): ("d324fc3d3473dd9a574d4fe4327b2471e8b30a98ad6a3325e31894b0ae988e8c", 0, 4, 0.125),
        (0.0, 0.5, 256): ("efa713bdfa43e05894d12aad228d07758c299e563dc0d31864d9fb4aa3948559", 0, 4, 0.03125),
        (0.001, 0.0, 64): ("01046940d2b8364d96e449fe97179aaf46561d506ea679481b02c5239516609a", 0, 4, 0.125),
        (0.001, 0.0, 256): ("efa713bdfa43e05894d12aad228d07758c299e563dc0d31864d9fb4aa3948559", 0, 4, 0.03125),
        (0.001, 0.5, 64): ("01046940d2b8364d96e449fe97179aaf46561d506ea679481b02c5239516609a", 0, 4, 0.125),
        (0.001, 0.5, 256): ("efa713bdfa43e05894d12aad228d07758c299e563dc0d31864d9fb4aa3948559", 0, 4, 0.03125),
    },
    ("linear", "classification", 10000): {
        (0.0, 0.0, 64): ("c9535aedf435f25019657ee33ea6e4c8652753e035b1764df16c4308e4c67688", 0, 4, 0.28125),
        (0.0, 0.0, 256): ("412797f0ab01dc08aaf7b31f9ec3cf5efececa6432e2a068a55d7afdf5685fdd", 0, 4, 0.21875),
        (0.0, 0.5, 64): ("c9535aedf435f25019657ee33ea6e4c8652753e035b1764df16c4308e4c67688", 0, 4, 0.28125),
        (0.0, 0.5, 256): ("412797f0ab01dc08aaf7b31f9ec3cf5efececa6432e2a068a55d7afdf5685fdd", 0, 4, 0.21875),
        (0.001, 0.0, 64): ("15a8cbec66c812c5ac3290167bcad39aff4066c4dd2193df39c04a65960ab14a", 0, 4, 0.28125),
        (0.001, 0.0, 256): ("412797f0ab01dc08aaf7b31f9ec3cf5efececa6432e2a068a55d7afdf5685fdd", 0, 4, 0.21875),
        (0.001, 0.5, 64): ("15a8cbec66c812c5ac3290167bcad39aff4066c4dd2193df39c04a65960ab14a", 0, 4, 0.28125),
        (0.001, 0.5, 256): ("412797f0ab01dc08aaf7b31f9ec3cf5efececa6432e2a068a55d7afdf5685fdd", 0, 4, 0.21875),
    },
    ("linear", "regression", 12): {
        (0.0, 0.0, 64): ("b57e5c8e398fdbed400126da35b82ceee984f950c318321b1ec638a1bd929e7b", 7, 8, -0.0003316086988089939),
        (0.0, 0.0, 256): ("e951fc4eec1dcff28ebc7434f7b406dcc2d8d4de70888bde700bf12827323533", 7, 8, -0.0017527773907763944),
        (0.0, 0.5, 64): ("b57e5c8e398fdbed400126da35b82ceee984f950c318321b1ec638a1bd929e7b", 7, 8, -0.0003316086988089939),
        (0.0, 0.5, 256): ("e951fc4eec1dcff28ebc7434f7b406dcc2d8d4de70888bde700bf12827323533", 7, 8, -0.0017527773907763944),
        (0.001, 0.0, 64): ("c606ed036932577854b24ed4565c5f0251d74cbcc075f9451f8773b9fb9d4cb2", 7, 8, -0.0003316086988089939),
        (0.001, 0.0, 256): ("fc7f112bf16dd402770fb12470683c8532ba30759ebe2be7f6faa4fb08ac0c17", 7, 8, -0.0017527773907763944),
        (0.001, 0.5, 64): ("c606ed036932577854b24ed4565c5f0251d74cbcc075f9451f8773b9fb9d4cb2", 7, 8, -0.0003316086988089939),
        (0.001, 0.5, 256): ("fc7f112bf16dd402770fb12470683c8532ba30759ebe2be7f6faa4fb08ac0c17", 7, 8, -0.0017527773907763944),
    },
    ("linear", "regression", 65535): {
        (0.0, 0.0, 64): ("51b24d72a73df6236d162e2b8c629ebd048befd2dffb1089a4bb3218430022e1", 0, 4, -0.015041210823286244),
        (0.0, 0.0, 256): ("c17e5397609377f7d76d411c618f7e06639cb7bccb8e809a96ad436287c451ff", 0, 4, -0.006859398491420476),
        (0.0, 0.5, 64): ("51b24d72a73df6236d162e2b8c629ebd048befd2dffb1089a4bb3218430022e1", 0, 4, -0.015041210823286244),
        (0.0, 0.5, 256): ("c17e5397609377f7d76d411c618f7e06639cb7bccb8e809a96ad436287c451ff", 0, 4, -0.006859398491420476),
        (0.001, 0.0, 64): ("d35648c4ebd9a8a10420545fd9e563ccbdd32f397e464a8646d4953ff87828f5", 0, 4, -0.015041210823286244),
        (0.001, 0.0, 256): ("c17e5397609377f7d76d411c618f7e06639cb7bccb8e809a96ad436287c451ff", 0, 4, -0.006859398491420476),
        (0.001, 0.5, 64): ("d35648c4ebd9a8a10420545fd9e563ccbdd32f397e464a8646d4953ff87828f5", 0, 4, -0.015041210823286244),
        (0.001, 0.5, 256): ("c17e5397609377f7d76d411c618f7e06639cb7bccb8e809a96ad436287c451ff", 0, 4, -0.006859398491420476),
    },
    ("linear", "regression", 66000): {
        (0.0, 0.0, 64): ("10b671abf7313f7040bbb46b4c833faff83b8b33783df91bd54eecb8eac89dd2", 6, 8, 0.005412795364815981),
        (0.0, 0.0, 256): ("646ab0ea51ab0b66df2f94869095216998286ea70dcbd44ff7f649264fdba768", 0, 4, -0.0010861145639238234),
        (0.0, 0.5, 64): ("10b671abf7313f7040bbb46b4c833faff83b8b33783df91bd54eecb8eac89dd2", 6, 8, 0.005412795364815981),
        (0.0, 0.5, 256): ("646ab0ea51ab0b66df2f94869095216998286ea70dcbd44ff7f649264fdba768", 0, 4, -0.0010861145639238234),
        (0.001, 0.0, 64): ("ede10ce91401b50dba3daf471faf46c9a8a2ede81391898493dda680162a9f8b", 6, 8, 0.005412795932991821),
        (0.001, 0.0, 256): ("646ab0ea51ab0b66df2f94869095216998286ea70dcbd44ff7f649264fdba768", 0, 4, -0.0010861145639238234),
        (0.001, 0.5, 64): ("ede10ce91401b50dba3daf471faf46c9a8a2ede81391898493dda680162a9f8b", 6, 8, 0.005412795932991821),
        (0.001, 0.5, 256): ("646ab0ea51ab0b66df2f94869095216998286ea70dcbd44ff7f649264fdba768", 0, 4, -0.0010861145639238234),
    },
    ("mlp", "classification", 8): {
        (0.0, 0.0, 64): ("c4709500e5c7e180ef21bd6fdb53cb1d3d0dd08bc1df9ffd38f85fd12c75b5cc", 3, 7, 0.28125),
        (0.0, 0.0, 256): ("0078f5bfa8e5632c50239198bca695fdbff00b906338b912e069cee51f833a83", 1, 5, 0.28125),
        (0.0, 0.5, 64): ("d2d0526f5c4f4bae17d4da48176df2f4cd6c5b008afc18a3db135a0539d51b61", 1, 5, 0.28125),
        (0.0, 0.5, 256): ("7ec682271184877291b8ba9dd1bc5cd13917c5b638d348c9e7c4328b9895cb56", 2, 6, 0.3125),
        (0.001, 0.0, 64): ("d7e1472c60953993193b1c9f985327c125505a8290f10d7e159e1bc81f3160f4", 3, 7, 0.28125),
        (0.001, 0.0, 256): ("30e81b97394a87676dfc067408499a2a20a4385e359f76ef7d41a5e369f069a4", 1, 5, 0.28125),
        (0.001, 0.5, 64): ("b383865cde341c789cec22776f8859432c4d2b69e99c6c92d608934eaf62e06d", 1, 5, 0.28125),
        (0.001, 0.5, 256): ("c57ef5cffdcf8c32dfe6ff04cdab1f6229b433d9f2041ed3b587255ecfe504db", 2, 6, 0.3125),
    },
    ("mlp", "classification", 128): {
        (0.0, 0.0, 64): ("49b2f6caedb1b3e5a4590e0043559c514c21ff1363f6d9c416f785e73a830bbf", 3, 7, 0.125),
        (0.0, 0.0, 256): ("eb7d99fa419f71a13058156e37d6180dfe9277ce25a4d617ecf89efb5c752515", 3, 7, 0.09375),
        (0.0, 0.5, 64): ("cece5df85f17efd3dfc12b357df3d76d287eb0293275d73000384089684b62e6", 4, 8, 0.125),
        (0.0, 0.5, 256): ("5599804c1d9135db1309efc49d8858c4861b0599b55dfd9d171f779c6fd1c00e", 0, 4, 0.0625),
        (0.001, 0.0, 64): ("d5b29dcb92c36cb0a990ebae6cb9fb9b27756731f56c6bc7cfb99712e4bc7675", 3, 7, 0.125),
        (0.001, 0.0, 256): ("8a371a164f29dc9333c348b7c5128f0767b1e4377650e2e4c664f038c72adbe6", 3, 7, 0.09375),
        (0.001, 0.5, 64): ("4e709e8a9606563f229f0a1858fb0f31ac95a97034580eec026e79740bf0198e", 4, 8, 0.125),
        (0.001, 0.5, 256): ("949aa0c45a871478a7b6d6e05166469af2abf4ac003f4ff01785de012f5bb40c", 0, 4, 0.0625),
    },
    ("mlp", "classification", 200): {
        (0.0, 0.0, 64): ("91894e1adfcde473a01dfc628470e00974297b7c0c86dcd74fc8b8ea6fcff16d", 2, 6, 0.09375),
        (0.0, 0.0, 256): ("c23c41c1f2dbd623c88d2fc6ce3f182ff48dfe850a35faea1588ba9d8e3faef4", 0, 4, 0.0625),
        (0.0, 0.5, 64): ("81da740af456be99c47d47fb8755e58831618982c1b01ad6d33425594aa46fb8", 0, 4, 0.03125),
        (0.0, 0.5, 256): ("5b11ac4d42af62e88cab5647b3312189d3ff5bae528c8ede57d2168e761f084b", 0, 4, 0.0625),
        (0.001, 0.0, 64): ("49159560b1855cd8fb06c36a6a5317ea6b346f6f309b0d16e8da29138df4d6a0", 2, 6, 0.09375),
        (0.001, 0.0, 256): ("7c5d79c8dd6c2765ab948e2d329c9c53ea3c4d2ee38e74ca83fadf631a4724e7", 0, 4, 0.0625),
        (0.001, 0.5, 64): ("65871c9fcd5cc365da690f5494344396386b38cb00c25da2090709738add9e1a", 0, 4, 0.03125),
        (0.001, 0.5, 256): ("6ef61b533851c1732a37809636cf8ef4d16edcb440f389dab6935dd953d6be98", 0, 4, 0.0625),
    },
    ("mlp", "regression", 8): {
        (0.0, 0.0, 64): ("0c1ba87dbc832f095596bceb8f3c67670dd0555103ac7059909b9afe3479bb94", 7, 8, 0.152952227287794),
        (0.0, 0.0, 256): ("50062eaa43be30e7c790b59c4b2bef3321ac707d9078415c4ead72254183d31a", 7, 8, 0.08501957913736613),
        (0.0, 0.5, 64): ("b6b9ffdf63cbf6cab4d3c3f5046a10f471b302bd2514873e5b92be5fb0864803", 7, 8, 0.13863083556723177),
        (0.0, 0.5, 256): ("d12f54b7d3d13fb1e64e16a4563d91d6429d880e90b6acb2478e4865f306497a", 7, 8, 0.08018004021318381),
        (0.001, 0.0, 64): ("5b040909e46154700daa5600e2b518cbf5aa8d55c14311d98e3ba54b1cbfcb84", 7, 8, 0.15295281391573723),
        (0.001, 0.0, 256): ("2c6437d40bf359239a7a2799c1ef2c342809c8ab974fd40f5930d0c6e5092915", 7, 8, 0.08502581207410376),
        (0.001, 0.5, 64): ("2e5022487d974563ad8648b25f5b6c7aa323fbc24b4de013def1064fac6374be", 7, 8, 0.1386278853300954),
        (0.001, 0.5, 256): ("86a1ec02cd9b0218e840a07b229b5e1703d016610442cfd634e1a96fa332e7d8", 7, 8, 0.08018091719329168),
    },
    ("mlp", "regression", 128): {
        (0.0, 0.0, 64): ("25f3cf4dc2e7c3c6038bac82ad979f93f255f65461a5b666963d16b7c74cd992", 7, 8, 0.08161139590785538),
        (0.0, 0.0, 256): ("be78576d7265114e925c8663a8438d71efc12ac17f08292b9fea50b30d1f956f", 7, 8, 0.05623123369949834),
        (0.0, 0.5, 64): ("019c94a4f916b9f6f4cf73dbb7b9e05d5161d4d2c1aab8472a02ccbde504bc26", 7, 8, 0.07025521722707573),
        (0.0, 0.5, 256): ("70b07fb45c74303b521f7510d4020b96b1ed0854ed24a448020680d9b92aa13d", 7, 8, 0.04882582304652183),
        (0.001, 0.0, 64): ("b95c8a4bae44837388761639673abb7da6e4fb10229cd3ccf3a65b5cc47db94d", 7, 8, 0.0816116576149678),
        (0.001, 0.0, 256): ("9982e1d115bac62f0e5f364bf2296eabe04f8af9c3279610136d2d85d96a2c8c", 7, 8, 0.056228918900461444),
        (0.001, 0.5, 64): ("489af70ac226c78dd524ec728eb33f61b5bf84e448e2bf1ea1633402537b9026", 7, 8, 0.07025982621019955),
        (0.001, 0.5, 256): ("fcceb38ccd7b9ef66278d5ba7bea7725a5bbf08a24fd88a45a6d11acec64eda1", 7, 8, 0.048825284879762565),
    },
    ("mlp", "regression", 200): {
        (0.0, 0.0, 64): ("c40d7c64d82e3d559741a0c3afd28e129d707fc089bfa5d69274bb101b39ee45", 7, 8, 0.03575163286597671),
        (0.0, 0.0, 256): ("39c06538a7ec992d06b7418616da1eb5893f89dedfdc148a6a3fe8ca2225a7f1", 7, 8, 0.021497253284817885),
        (0.0, 0.5, 64): ("6d62b7ded9a424b4041ddd3170a74370f6c1c818b6f178a10a5e89abc38949fd", 7, 8, 0.03215400638454269),
        (0.0, 0.5, 256): ("88536df80583c29f0b5068dfb06a0e7f88ebe02c80de834f1d1bf4e5449d49fe", 7, 8, 0.01904162171030721),
        (0.001, 0.0, 64): ("971939253f71fa3c2f19d56bab7fe1dc1d33e1d96020ae0ab6aa460ea4d9c251", 7, 8, 0.03575431854602362),
        (0.001, 0.0, 256): ("89d49b237129a98cc8f2169a5a93a3a5c680f2c227fea678b3790913d76bc92f", 7, 8, 0.021508031390812032),
        (0.001, 0.5, 64): ("1637164326fefbec143f28fb8a1afbe4fa67a8773affec3ae33bb59cb0e9ac5d", 7, 8, 0.03215223705249903),
        (0.001, 0.5, 256): ("5e2302c587e7238af039f0880fb5664a202ecd4197afefff72374daa01a0a5ff", 7, 8, 0.019041199866967617),
    },
}


def _pin_data(task, d_in):
    rng = np.random.default_rng(d_in)
    x = rng.standard_normal((128, d_in), dtype=np.float32)
    score = x[:, :8].astype(np.float64) @ rng.standard_normal(8)
    if task == "classification":
        y = np.digitize(score, np.quantile(score, np.arange(1, PIN_CLASSES) / PIN_CLASSES))
    else:
        y = 50.0 + 10.0 * score
    return (x[:96], y[:96]), (x[96:], y[96:])


def _train_pins(model, task, d_in):
    train_xy, val_xy = _pin_data(task, d_in)
    pins = {}
    for wd, dropout, batch in itertools.product((0.0, 1e-3), (0.0, 0.5), (64, 256)):
        n_classes = PIN_CLASSES if task == "classification" else 0
        spec = ProbeSpec(False, model, batch, 1e-3, dropout, wd, task, n_classes)
        trained, result = train(spec, train_xy, val_xy, seed=d_in, max_epochs=8, patience=3)
        digest = hashlib.sha256(b"".join(p.tobytes() for p in trained.params.values())).hexdigest()
        pins[wd, dropout, batch] = (digest, result.best_epoch, result.epochs_run, result.val_metric)
    return pins


def test_pinned_d_in_cover_the_block_cases():
    block = probe.BLOCK_ELEMENTS
    for (model, task), d_ins in PIN_D_IN.items():
        d_out = PIN_CLASSES if task == "classification" else 1
        if model == "linear":
            sizes = [(d_in + 1) * d_out for d_in in d_ins]  # the flat buffer, which Adam walks
        else:
            sizes = [d_in * probe.HIDDEN_UNITS for d_in in d_ins]  # W1, which the L2 step walks
        below, whole, over = sizes
        assert below < block and whole % block == 0 and over > block and over % block != 0, (model, task)


@pytest.mark.parametrize("model,task,d_in", [(*key, d_in) for key, d_ins in PIN_D_IN.items() for d_in in d_ins])
def test_training_bytes_pinned(model, task, d_in):
    assert _train_pins(model, task, d_in) == TRAIN_PINS[model, task, d_in]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_reports_position(rng):
    x = rng.standard_normal((64, 3))
    x[0, 0] = np.inf
    y = np.zeros(64, dtype=int)
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.25, 0.0, "classification", 2)
    with pytest.raises(TrainingError, match="epoch 0"):
        train(spec, (x, y), (x, y), seed=0, max_epochs=1)


def test_constant_validation_targets_raise(rng):
    x = rng.standard_normal((40, 3))
    y = x @ np.array([1.0, -2.0, 0.5])
    x_val = rng.standard_normal((10, 3))
    spec = ProbeSpec(False, "linear", 16, 1e-3, 0.0, 0.0, "regression")
    with pytest.raises(TrainingError, match="no finite validation metric in 10 epochs"):
        train(spec, (x, y), (x_val, np.full(10, 5.0)), seed=0, max_epochs=30)


def test_r2_identities(rng):
    y = rng.standard_normal(100)
    assert r2_score(y, y.copy()) == 1.0
    assert abs(r2_score(y, np.full(100, y.mean()))) < 1e-12


def test_accuracy_of_constant_predictor():
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.25, 0.0, "classification", 3)
    params = {"W": np.zeros((4, 3)), "b": np.array([1.0, 0.0, 0.0])}
    trained = probe.TrainedProbe(spec, params, None, None)
    x = np.ones((99, 4))
    y = np.array([0, 1, 2] * 33)
    assert abs(evaluate(trained, x, y) - 1 / 3) < 1e-12


def test_stable_cross_entropy_with_huge_logits():
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.25, 0.0, "classification", 3)
    out = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 0.0]])
    loss, grad = probe._loss_and_grad(spec, out, np.array([0, 0]))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))


def test_gradient_check_linear_mse(rng):
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.0, 0.0, "regression")
    params = {"W": rng.standard_normal((3, 1)) * 0.5, "b": rng.standard_normal(1)}
    x = rng.standard_normal((4, 3))
    y = rng.standard_normal(4)
    err, _ = gradient_check(spec, params, x, y)
    assert err <= 1e-6


def test_gradient_check_linear_cross_entropy(rng):
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.0, 0.0, "classification", 3)
    params = {"W": rng.standard_normal((5, 3)) * 0.5, "b": rng.standard_normal(3)}
    x = rng.standard_normal((6, 5))
    y = np.array([0, 1, 2, 0, 1, 2])
    err, _ = gradient_check(spec, params, x, y)
    assert err <= 1e-4


@pytest.mark.parametrize("task,n_classes", [("classification", 3), ("regression", 0)])
def test_gradient_check_mlp(rng, task, n_classes):
    d_out = n_classes if task == "classification" else 1
    spec = ProbeSpec(False, "mlp", 64, 1e-3, 0.0, 1e-3, task, n_classes)
    params = {
        "W1": rng.standard_normal((4, 7)) * 0.5,
        "b1": rng.standard_normal(7) * 0.1,
        "W2": rng.standard_normal((7, d_out)) * 0.5,
        "b2": rng.standard_normal(d_out) * 0.1,
    }
    x = rng.standard_normal((5, 4))
    y = np.array([0, 1, 2, 1, 0]) if task == "classification" else rng.standard_normal(5)
    err, _ = gradient_check(spec, params, x, y)
    assert err <= 1e-4


def test_gradient_check_zero_model_zero_input():
    spec = ProbeSpec(False, "mlp", 64, 1e-3, 0.0, 0.0, "classification", 2)
    params = {
        "W1": np.zeros((3, 4)),
        "b1": np.zeros(4),
        "W2": np.zeros((4, 2)),
        "b2": np.zeros(2),
    }
    x = np.zeros((4, 3))
    y = np.array([0, 1, 0, 1])
    _, grads = batch_loss(spec, params, x, y)
    assert np.all(grads["W1"] == 0.0)
    assert np.all(grads["W2"] == 0.0)


def test_gradient_check_raises_on_bad_gradient(rng):
    # cross-entropy is non-quadratic, so a huge step size breaks central differences
    spec = ProbeSpec(False, "linear", 64, 1e-3, 0.0, 0.0, "classification", 3)
    params = {"W": rng.standard_normal((3, 3)), "b": rng.standard_normal(3)}
    x = rng.standard_normal((4, 3))
    y = np.array([0, 1, 2, 0])
    with pytest.raises(GradientCheckError, match=r"W\[|b\["):
        gradient_check(spec, params, x, y, h=5.0, tol=1e-12)


def test_grid_has_216_configurations():
    specs = grid_specs("classification", 4)
    assert len(specs) == 216
    assert len(set(specs)) == 216


def test_lm_default_preset_values():
    spec = lm_default_spec("classification", 4)
    assert (spec.normalize, spec.model, spec.batch_size) == (True, "mlp", 64)
    assert (spec.learning_rate, spec.dropout, spec.weight_decay) == (1e-3, 0.5, 0.0)


def test_selection_prefers_highest_validation_then_tiebreak():
    specs = grid_specs("classification", 2)
    results = [probe.ProbeResult(s, 0, 1, 0.5, 0) for s in specs]
    results[100] = probe.ProbeResult(specs[100], 0, 1, 0.9, 0)
    assert select_best(results) == 100
    # all equal: the linear model with the lowest learning rate wins
    results = [probe.ProbeResult(s, 0, 1, 0.5, 0) for s in specs]
    chosen = specs[select_best(results)]
    assert chosen.model == "linear"
    assert chosen.learning_rate == min(probe.GRID_LR)


def test_grid_search_contract(rng):
    x, y = blobs(rng, n_per=80)
    splits = ((x[:100], y[:100]), (x[100:130], y[100:130]), (x[130:], y[130:]))
    specs = [
        ProbeSpec(False, "linear", 64, lr, 0.25, 0.0, "classification", 2)
        for lr in (1e-5, 1e-3)
    ]
    selected, table = grid_search(specs, splits, seed=4, max_epochs=10)
    assert len(table) == 2
    assert selected.val_metric == max(r.val_metric for r in table)
    assert selected.test_metric is not None
    assert sum(1 for r in table if r.test_metric is not None) == 1


@pytest.mark.parametrize("n_specs", [1, 3])
def test_grid_search_trains_each_spec_then_the_winner(rng, monkeypatch, n_specs):
    calls = []
    real_train = probe.train

    def counting_train(*args):  # positional only, as grid_search calls it
        calls.append(args[0])
        return real_train(*args)

    monkeypatch.setattr(probe, "train", counting_train)
    x, y = blobs(rng, n_per=40)
    splits = ((x[:50], y[:50]), (x[50:65], y[50:65]), (x[65:], y[65:]))
    specs = [ProbeSpec(False, "linear", 64, lr, 0.25, 0.0, "classification", 2) for lr in (1e-5, 1e-4, 1e-3)]
    selected, table = grid_search(specs[:n_specs], splits, seed=4, max_epochs=5)
    # one training for a single spec; k > 1 specs train once each, then the winner once more
    assert len(calls) == (1 if n_specs == 1 else n_specs + 1)
    assert calls[-1] == selected.spec
    assert len(table) == n_specs


def test_grid_search_parallel_matches_serial(rng):
    x, y = blobs(rng, n_per=60)
    splits = ((x[:70], y[:70]), (x[70:90], y[70:90]), (x[90:], y[90:]))
    specs = [
        ProbeSpec(norm, model, 64, 1e-3, 0.25, 0.0, "classification", 2)
        for norm in (False, True)
        for model in ("linear", "mlp")
    ]
    serial = grid_search(specs, splits, seed=8, max_epochs=8)
    parallel = grid_search(specs, splits, seed=8, max_epochs=8, workers=2)
    assert serial[0] == parallel[0]
    assert serial[1] == parallel[1]
