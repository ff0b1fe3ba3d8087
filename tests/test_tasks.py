"""Unit tests for synthetic tasks, splits, batching, and models."""

import numpy as np
import pytest

from optbench.metrics import MetricKind
from optbench.tasks import (
    TASK_NAMES,
    Dataset,
    ModelParams,
    NonFiniteLossError,
    TaskSpec,
    epoch_batches,
    init_params,
    loss_and_grad,
    make_dataset,
    make_task_spec,
    param_layout,
    predict,
    segments,
    stratified_split,
)


def finite_difference_grad(params, x, y, spec, h=1e-6):
    """Central-difference gradient oracle."""
    grad = np.zeros_like(params.theta)
    for i in range(params.theta.size):
        for sign in (+1.0, -1.0):
            theta = params.theta.copy()
            theta[i] += sign * h
            loss, _ = loss_and_grad(ModelParams(theta, params.layout), x, y, spec)
            grad[i] += sign * loss
    return grad / (2 * h)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def test_make_dataset_class_counts_match_skew():
    data = make_dataset(make_task_spec("mrpc_like"), 1000, seed=7)
    assert len(data) == 1000
    assert int(np.sum(data.targets == 0)) == 670
    assert int(np.sum(data.targets == 1)) == 330


def test_make_dataset_deterministic():
    spec = make_task_spec("cola_like")
    a = make_dataset(spec, 200, seed=3)
    b = make_dataset(spec, 200, seed=3)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.targets, b.targets)
    c = make_dataset(spec, 200, seed=4)
    assert not np.array_equal(a.features, c.features)


def test_make_dataset_mnli_balanced():
    for seed in (1, 2, 3):
        data = make_dataset(make_task_spec("mnli_like"), 300, seed=seed)
        counts = np.bincount(data.targets, minlength=3)
        assert np.all(np.abs(counts - 100) <= 6)


def test_make_dataset_regression_targets_in_range():
    data = make_dataset(make_task_spec("stsb_like"), 500, seed=9)
    assert data.targets.min() >= 1.0 and data.targets.max() <= 5.0
    assert data.targets.dtype == np.float64


def test_make_dataset_rejects_small_size():
    with pytest.raises(ValueError):
        make_dataset(make_task_spec("cola_like"), 49, seed=0)


def test_every_task_skew_within_two_percent():
    for name in TASK_NAMES:
        spec = make_task_spec(name)
        if spec.task_type != "classification":
            continue
        data = make_dataset(spec, 240, seed=5)
        freqs = np.bincount(data.targets, minlength=spec.n_classes) / 240
        np.testing.assert_allclose(freqs, spec.class_probs, atol=0.02)


# ---------------------------------------------------------------------------
# Stratified splits
# ---------------------------------------------------------------------------

def test_split_proportions_and_stratification():
    data = make_dataset(make_task_spec("cola_like"), 240, seed=1)
    split = stratified_split(data, (0.8, 0.1, 0.1), split_seed=11)
    all_idx = np.concatenate([split.train, split.dev, split.test])
    assert sorted(all_idx.tolist()) == list(range(240))
    for part, ratio in ((split.train, 0.8), (split.dev, 0.1), (split.test, 0.1)):
        for c in (0, 1):
            n_c = int(np.sum(data.targets == c))
            got = int(np.sum(data.targets[part] == c))
            assert abs(got - ratio * n_c) < 1.0


def test_split_ten_item_example():
    golds = np.array([0] * 7 + [1] * 3)
    data = Dataset(features=np.zeros((10, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    split = stratified_split(data, split_seed=2)
    maj = int(np.sum(golds[split.train] == 0))
    mino = int(np.sum(golds[split.train] == 1))
    assert maj in (5, 6) and mino in (2, 3)
    assert split.dev.size == 1 and split.test.size == 1


def test_split_single_stratum_exact():
    golds = np.zeros(100, dtype=np.int64)
    data = Dataset(features=np.zeros((100, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    split = stratified_split(data, split_seed=0)
    assert (split.train.size, split.dev.size, split.test.size) == (80, 10, 10)


def test_split_determinism_and_seed_sensitivity():
    data = make_dataset(make_task_spec("mrpc_like"), 120, seed=6)
    a = stratified_split(data, split_seed=5)
    b = stratified_split(data, split_seed=5)
    np.testing.assert_array_equal(a.train, b.train)
    np.testing.assert_array_equal(a.dev, b.dev)
    c = stratified_split(data, split_seed=6)
    assert not np.array_equal(a.train, c.train)


def test_split_small_class_error_names_class():
    golds = np.array([0] * 58 + [1] * 2)
    data = Dataset(features=np.zeros((60, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(data, split_seed=0)


def test_split_regression_stratifies_by_quintile():
    data = make_dataset(make_task_spec("stsb_like"), 200, seed=2)
    split = stratified_split(data, split_seed=3)
    edges = np.quantile(data.targets, [0.2, 0.4, 0.6, 0.8])
    bins = np.digitize(data.targets, edges)
    for part, ratio in ((split.train, 0.8), (split.dev, 0.1), (split.test, 0.1)):
        for b in range(5):
            n_b = int(np.sum(bins == b))
            got = int(np.sum(bins[part] == b))
            assert abs(got - ratio * n_b) < 1.0


# ---------------------------------------------------------------------------
# Mini-batches
# ---------------------------------------------------------------------------

def test_epoch_batches_partition_property():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    split = stratified_split(data, split_seed=1)
    rng = np.random.default_rng(0)
    batches = list(epoch_batches(split, 4, rng))
    assert len(batches) == 12  # 48 train items / 4
    assert all(b.size == 4 for b in batches)
    union = np.concatenate(batches)
    assert sorted(union.tolist()) == sorted(split.train.tolist())


def test_epoch_batches_deterministic_given_stream():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    split = stratified_split(data, split_seed=1)
    a = [b.tolist() for b in epoch_batches(split, 4, np.random.default_rng(42))]
    b = [b.tolist() for b in epoch_batches(split, 4, np.random.default_rng(42))]
    assert a == b


def test_epoch_batches_full_batch_is_exact_gd():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    split = stratified_split(data, split_seed=1)
    batches = list(epoch_batches(split, split.train.size, np.random.default_rng(0)))
    assert len(batches) == 1
    assert sorted(batches[0].tolist()) == sorted(split.train.tolist())


def test_epoch_batches_rejects_oversized_batch():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    split = stratified_split(data, split_seed=1)
    with pytest.raises(ValueError):
        list(epoch_batches(split, split.train.size + 1, np.random.default_rng(0)))


# ---------------------------------------------------------------------------
# Models: loss, gradient, prediction
# ---------------------------------------------------------------------------

def test_zero_weight_logistic_loss_is_ln2():
    spec = make_task_spec("cola_like")
    params = ModelParams(np.zeros(sum(int(np.prod(s)) for _, s in param_layout(spec))),
                         param_layout(spec))
    x = np.ones((4, spec.feature_dim))
    y = np.array([0, 1, 0, 1])
    loss, _ = loss_and_grad(params, x, y, spec)
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)


def test_perfect_fit_linear_regression_zero_loss():
    spec = make_task_spec("stsb_like")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, spec.feature_dim))
    w = rng.normal(size=spec.feature_dim)
    y = x @ w + 0.5
    params = ModelParams(np.concatenate([w, [0.5]]), param_layout(spec))
    loss, grad = loss_and_grad(params, x, y, spec)
    np.testing.assert_allclose(loss, 0.0, atol=1e-24)
    np.testing.assert_allclose(grad, 0.0, atol=1e-11)


@pytest.mark.parametrize("name", ["cola_like", "mrpc_like", "stsb_like", "mnli_like"])
def test_analytic_gradient_matches_finite_differences(name):
    spec = make_task_spec(name).with_values(feature_scale=1.0)
    data = make_dataset(spec, 50, seed=3)
    rng = np.random.default_rng(31)
    for probe in range(20):
        params = init_params(spec.with_values(init_scale=0.3), rng)
        idx = rng.choice(len(data), size=6, replace=False)
        x, y = data.features[idx], data.targets[idx]
        _, grad = loss_and_grad(params, x, y, spec)
        fd = finite_difference_grad(params, x, y, spec)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12)
        assert err < 1e-5


def test_one_small_gd_step_decreases_convex_loss():
    spec = make_task_spec("cola_like").with_values(feature_scale=1.0)
    data = make_dataset(spec, 100, seed=8)
    params = init_params(spec, np.random.default_rng(2))
    loss0, grad = loss_and_grad(params, data.features, data.targets, spec)
    stepped = ModelParams(params.theta - 1e-3 * grad, params.layout)
    loss1, _ = loss_and_grad(stepped, data.features, data.targets, spec)
    assert loss1 < loss0


def test_nonfinite_loss_error_carries_example_index():
    spec = make_task_spec("stsb_like")
    params = ModelParams(np.ones(spec.feature_dim + 1), param_layout(spec))
    x = np.ones((3, spec.feature_dim))
    x[1] = 1e200  # squared error overflows for this example only
    with np.errstate(over="ignore"), pytest.raises(NonFiniteLossError) as err:
        loss_and_grad(params, x, np.zeros(3), spec)
    assert err.value.example_index == 1


def test_predict_tie_breaks_to_class_zero():
    spec = make_task_spec("mnli_like")
    n = sum(int(np.prod(s)) for _, s in param_layout(spec))
    params = ModelParams(np.zeros(n), param_layout(spec))
    out = predict(params, np.random.default_rng(0).normal(size=(5, spec.feature_dim)), spec)
    np.testing.assert_array_equal(out, np.zeros(5, dtype=np.int64))


def test_predict_clamps_regression_output():
    spec = make_task_spec("stsb_like")
    theta = np.zeros(spec.feature_dim + 1)
    theta[-1] = 10.0  # bias alone pushes output to 10
    params = ModelParams(theta, param_layout(spec))
    out = predict(params, np.zeros((3, spec.feature_dim)), spec)
    np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])
    params_low = ModelParams(theta * -1, param_layout(spec))
    np.testing.assert_array_equal(predict(params_low, np.zeros((2, spec.feature_dim)), spec),
                                  [1.0, 1.0])


def test_predict_batches_equal_pointwise():
    spec = make_task_spec("mrpc_like")
    rng = np.random.default_rng(14)
    params = init_params(spec, rng)
    x = rng.normal(size=(7, spec.feature_dim))
    batch_out = predict(params, x, spec)
    single = [predict(params, x[i:i + 1], spec)[0] for i in range(7)]
    np.testing.assert_array_equal(batch_out, single)


def test_predict_rejects_dimension_mismatch():
    spec = make_task_spec("cola_like")
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(params, np.zeros((2, spec.feature_dim + 1)), spec)


def test_segments_cover_theta():
    for name in TASK_NAMES:
        spec = make_task_spec(name)
        params = init_params(spec, np.random.default_rng(1))
        segs = segments(params)
        total = sum(v.size for v in segs.values())
        assert total == params.theta.size


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_taskspec_validation():
    with pytest.raises(ValueError):
        TaskSpec(name="x", task_type="classification", metric=MetricKind.ACCURACY,
                 n_classes=2, class_probs=(0.6, 0.3))
    with pytest.raises(ValueError):
        TaskSpec(name="x", task_type="regression", metric=MetricKind.PEARSON,
                 model="logistic")
    with pytest.raises(ValueError):
        make_task_spec("qqp_like")

