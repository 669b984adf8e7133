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
