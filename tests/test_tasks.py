"""Unit tests for synthetic tasks, splits, batching, and models."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbench.tasks import (
    FEATURE_DIM,
    SPLIT_RATIOS,
    TARGET_RANGE,
    TASK_NAMES,
    Dataset,
    TaskSpec,
    epoch_batches,
    init_params,
    loss_and_grad,
    make_dataset,
    make_task_spec,
    param_layout,
    predict,
    stratified_split,
)


def finite_difference_grad(theta0, x, y, spec, h=1e-6):
    """Central-difference gradient oracle."""
    grad = np.zeros_like(theta0)
    for i in range(theta0.size):
        for sign in (+1.0, -1.0):
            theta = theta0.copy()
            theta[i] += sign * h
            loss, _ = loss_and_grad(theta, x, y, spec)
            grad[i] += sign * loss
    return grad / (2 * h)


# ---------------------------------------------------------------------------
# Dataset generation
# ---------------------------------------------------------------------------

def test_make_dataset_class_counts_match_skew():
    data = make_dataset(make_task_spec("mrpc_like"), 1000, seed=7)
    assert data.features.shape[0] == 1000
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

def numbered(data):
    """``data`` with features that hold each row's number, so a partition's
    first feature column is its index set into ``data``."""
    n = data.targets.size
    return dataclasses.replace(
        data, features=np.repeat(np.arange(n, dtype=float)[:, None], FEATURE_DIM, axis=1))


def split_rows(data, split_seed):
    """``stratified_split(data, split_seed)``'s (train, dev, test) partitions as
    index sets into ``data``, read off its ``numbered`` copy; each partition
    must hold exactly its index set's rows of ``data``."""
    rows = []
    for part, tagged in zip(stratified_split(data, split_seed),
                            stratified_split(numbered(data), split_seed), strict=True):
        idx = tagged.features[:, 0].astype(np.int64)
        np.testing.assert_array_equal(part.features, data.features[idx])
        np.testing.assert_array_equal(part.targets, data.targets[idx])
        assert part.spec is data.spec
        rows.append(idx)
    return tuple(rows)


def test_split_proportions_and_stratification():
    data = make_dataset(make_task_spec("cola_like"), 240, seed=1)
    train, dev, test = split_rows(data, split_seed=11)
    all_idx = np.concatenate([train, dev, test])
    assert sorted(all_idx.tolist()) == list(range(240))
    for part, ratio in ((train, 0.8), (dev, 0.1), (test, 0.1)):
        for c in (0, 1):
            n_c = int(np.sum(data.targets == c))
            got = int(np.sum(data.targets[part] == c))
            assert abs(got - ratio * n_c) < 1.0


def test_split_ten_item_example():
    golds = np.array([0] * 7 + [1] * 3)
    data = Dataset(features=np.zeros((10, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    train, dev, test = split_rows(data, split_seed=2)
    maj = int(np.sum(golds[train] == 0))
    mino = int(np.sum(golds[train] == 1))
    assert maj in (5, 6) and mino in (2, 3)
    assert dev.size == 1 and test.size == 1


def test_split_single_stratum_exact():
    golds = np.zeros(100, dtype=np.int64)
    data = Dataset(features=np.zeros((100, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    train, dev, test = split_rows(data, split_seed=0)
    assert (train.size, dev.size, test.size) == (80, 10, 10)


def test_split_determinism_and_seed_sensitivity():
    data = make_dataset(make_task_spec("mrpc_like"), 120, seed=6)
    a = split_rows(data, split_seed=5)
    b = split_rows(data, split_seed=5)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])
    c = split_rows(data, split_seed=6)
    assert not np.array_equal(a[0], c[0])


def test_split_small_class_error_names_class():
    golds = np.array([0] * 58 + [1] * 2)
    data = Dataset(features=np.zeros((60, 6)), targets=golds,
                   spec=make_task_spec("cola_like"))
    with pytest.raises(ValueError, match="class 1"):
        stratified_split(data, split_seed=0)


def test_split_regression_stratifies_by_quintile():
    data = make_dataset(make_task_spec("stsb_like"), 200, seed=2)
    train, dev, test = split_rows(data, split_seed=3)
    edges = np.quantile(data.targets, [0.2, 0.4, 0.6, 0.8])
    bins = np.digitize(data.targets, edges)
    for part, ratio in ((train, 0.8), (dev, 0.1), (test, 0.1)):
        for b in range(5):
            n_b = int(np.sum(bins == b))
            got = int(np.sum(bins[part] == b))
            assert abs(got - ratio * n_b) < 1.0


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(TASK_NAMES), size=st.integers(50, 300),
       data_seed=st.integers(0, 2**32 - 1), split_seed=st.integers(0, 2**32 - 1))
def test_split_partitions_property(name, size, data_seed, split_seed):
    data = make_dataset(make_task_spec(name), size, seed=data_seed)
    parts = split_rows(data, split_seed)
    # together a permutation of the rows, so no row is in two partitions
    np.testing.assert_array_equal(np.sort(np.concatenate(parts)), np.arange(size))
    # each in dataset row order, which keeps every result's bits
    assert all(np.all(np.diff(rows) > 0) for rows in parts)
    if data.spec.task_type == "classification":
        strata = data.targets
    else:
        strata = np.digitize(data.targets, np.quantile(data.targets, [0.2, 0.4, 0.6, 0.8]))
    for rows, ratio in zip(parts, SPLIT_RATIOS, strict=True):
        for stratum in np.unique(strata):
            n_s = int(np.sum(strata == stratum))
            assert abs(int(np.sum(strata[rows] == stratum)) - ratio * n_s) < 1.0
    for a, b in zip(stratified_split(data, split_seed), stratified_split(data, split_seed),
                    strict=True):
        assert a.features.tobytes() == b.features.tobytes()
        assert a.targets.tobytes() == b.targets.tobytes()


# ---------------------------------------------------------------------------
# Mini-batches
# ---------------------------------------------------------------------------

def batch_rows(data, batches):
    """The dataset row of each example in ``batches``, in batch order; each
    batch's targets must be its rows' targets."""
    row_of = {row.tobytes(): i for i, row in enumerate(data.features)}
    rows = []
    for x, y in batches:
        ids = [row_of[row.tobytes()] for row in x]
        np.testing.assert_array_equal(y, data.targets[ids])
        rows.append(ids)
    return rows


def test_epoch_batches_partition_property():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    train, _, _ = stratified_split(data, split_seed=1)
    rng = np.random.default_rng(0)
    rows = batch_rows(data, epoch_batches(train, 4, rng))
    assert len(rows) == 12  # 48 train items / 4
    assert all(len(ids) == 4 for ids in rows)
    assert sorted(sum(rows, [])) == sorted(split_rows(data, split_seed=1)[0].tolist())


def test_epoch_batches_deterministic_given_stream():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    train, _, _ = stratified_split(data, split_seed=1)
    a = batch_rows(data, epoch_batches(train, 4, np.random.default_rng(42)))
    b = batch_rows(data, epoch_batches(train, 4, np.random.default_rng(42)))
    assert a == b


def test_epoch_batches_full_batch_is_exact_gd():
    data = make_dataset(make_task_spec("cola_like"), 60, seed=1)
    train, _, _ = stratified_split(data, split_seed=1)
    rows = batch_rows(data, epoch_batches(train, train.targets.size, np.random.default_rng(0)))
    assert len(rows) == 1
    assert sorted(rows[0]) == sorted(split_rows(data, split_seed=1)[0].tolist())


@pytest.mark.parametrize("name", ["cola_like", "stsb_like"])
def test_epoch_batches_reproduce_the_index_shuffle(name):
    # shuffling positions in the train partition draws what shuffling the
    # split's train indices drew, so batch order, and every result, keep their bits
    data = make_dataset(make_task_spec(name), 97, seed=4)
    train, _, _ = stratified_split(data, split_seed=2)
    train_rows = split_rows(data, split_seed=2)[0]
    for seed in (0, 1, 7, 2024):
        for batch_size in (1, 4, train_rows.size):
            rng, index_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):  # epochs drawn from one stream
                batches = epoch_batches(train, batch_size, rng)
                order = index_rng.permutation(train_rows)
                assert [y.size for _, y in batches[:-1]] == [batch_size] * (len(batches) - 1)
                np.testing.assert_array_equal(np.concatenate([x for x, _ in batches]),
                                              data.features[order])
                np.testing.assert_array_equal(np.concatenate([y for _, y in batches]),
                                              data.targets[order])
            assert rng.bit_generator.state == index_rng.bit_generator.state


# ---------------------------------------------------------------------------
# Models: loss, gradient, prediction
# ---------------------------------------------------------------------------

def test_zero_weight_logistic_loss_is_ln2():
    spec = make_task_spec("cola_like")
    theta = np.zeros(sum(int(np.prod(s)) for _, s in param_layout(spec)))
    x = np.ones((4, FEATURE_DIM))
    y = np.array([0, 1, 0, 1])
    loss, _ = loss_and_grad(theta, x, y, spec)
    np.testing.assert_allclose(loss, np.log(2.0), rtol=1e-12)


def test_perfect_fit_linear_regression_zero_loss():
    spec = make_task_spec("stsb_like")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, FEATURE_DIM))
    w = rng.normal(size=FEATURE_DIM)
    y = x @ w + 0.5
    theta = np.concatenate([w, [0.5]])
    loss, grad = loss_and_grad(theta, x, y, spec)
    np.testing.assert_allclose(loss, 0.0, atol=1e-24)
    np.testing.assert_allclose(grad, 0.0, atol=1e-11)


@pytest.mark.parametrize("name", ["cola_like", "mrpc_like", "stsb_like", "mnli_like"])
def test_analytic_gradient_matches_finite_differences(name):
    spec = dataclasses.replace(make_task_spec(name), feature_scale=1.0)
    data = make_dataset(spec, 50, seed=3)
    rng = np.random.default_rng(31)
    n = sum(math.prod(shape) for _, shape in param_layout(spec))
    for probe in range(20):
        params = rng.uniform(-0.3, 0.3, size=n)  # init_params at a larger scale
        idx = rng.choice(data.features.shape[0], size=6, replace=False)
        x, y = data.features[idx], data.targets[idx]
        _, grad = loss_and_grad(params, x, y, spec)
        fd = finite_difference_grad(params, x, y, spec)
        err = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-12)
        assert err < 1e-5


def test_one_small_gd_step_decreases_convex_loss():
    spec = dataclasses.replace(make_task_spec("cola_like"), feature_scale=1.0)
    data = make_dataset(spec, 100, seed=8)
    theta = init_params(spec, np.random.default_rng(2))
    loss0, grad = loss_and_grad(theta, data.features, data.targets, spec)
    stepped = theta - 1e-3 * grad
    loss1, _ = loss_and_grad(stepped, data.features, data.targets, spec)
    assert loss1 < loss0


def test_predict_tie_breaks_to_class_zero():
    spec = make_task_spec("mnli_like")
    n = sum(int(np.prod(s)) for _, s in param_layout(spec))
    out = predict(np.zeros(n), np.random.default_rng(0).normal(size=(5, FEATURE_DIM)), spec)
    np.testing.assert_array_equal(out, np.zeros(5, dtype=np.int64))


def test_predict_clamps_regression_output():
    spec = make_task_spec("stsb_like")
    theta = np.zeros(FEATURE_DIM + 1)
    theta[-1] = 10.0  # bias alone pushes output to 10
    out = predict(theta, np.zeros((3, FEATURE_DIM)), spec)
    np.testing.assert_array_equal(out, [5.0, 5.0, 5.0])
    np.testing.assert_array_equal(predict(theta * -1, np.zeros((2, FEATURE_DIM)), spec),
                                  [1.0, 1.0])


def test_predict_batches_equal_pointwise():
    spec = make_task_spec("mrpc_like")
    rng = np.random.default_rng(14)
    params = init_params(spec, rng)
    x = rng.normal(size=(7, FEATURE_DIM))
    batch_out = predict(params, x, spec)
    single = [predict(params, x[i:i + 1], spec)[0] for i in range(7)]
    np.testing.assert_array_equal(batch_out, single)


def test_predict_rejects_dimension_mismatch():
    spec = make_task_spec("cola_like")
    params = init_params(spec, np.random.default_rng(0))
    with pytest.raises(ValueError):
        predict(params, np.zeros((2, FEATURE_DIM + 1)), spec)


@pytest.mark.parametrize("name", ["cola_like", "mrpc_like", "stsb_like"])
def test_loss_and_predict_share_one_feature_shape_check(name):
    spec = make_task_spec(name)
    theta = init_params(spec, np.random.default_rng(0))
    x, y = np.zeros((3, FEATURE_DIM - 1)), np.zeros(3)
    message = rf"features must be \(m, {FEATURE_DIM}\), got \(3, {FEATURE_DIM - 1}\)"
    with pytest.raises(ValueError, match=message):
        loss_and_grad(theta, x, y, spec)
    with pytest.raises(ValueError, match=message):
        predict(theta, x, spec)


def layout_size(spec):
    return sum(math.prod(shape) for _, shape in param_layout(spec))


def test_segments_cover_theta():
    for name in TASK_NAMES:
        spec = make_task_spec(name)
        theta = init_params(spec, np.random.default_rng(1))
        x = np.zeros((2, FEATURE_DIM))
        y = np.zeros(2) if spec.task_type == "regression" else np.zeros(2, dtype=np.int64)
        _, grad = loss_and_grad(theta, x, y, spec)
        assert theta.shape == grad.shape == (layout_size(spec),)


def forward_by_hand(theta, x, spec):
    """The model's output, from θ cut by hand into ``param_layout``'s shapes."""
    layout = param_layout(spec)
    cuts = np.cumsum([math.prod(shape) for _, shape in layout])[:-1]
    seg = [part.reshape(shape) for part, (_, shape) in zip(np.split(theta, cuts), layout)]
    if spec.model == "linear":
        return np.clip(x @ seg[0] + seg[1][0], *TARGET_RANGE)
    if spec.model == "logistic":
        return np.argmax(x @ seg[0].T + seg[1], axis=1)
    hidden = np.tanh(x @ seg[0].T + seg[1])
    return np.argmax(hidden @ seg[2].T + seg[3], axis=1)


def test_segments_slice_table_follows_each_layout():
    # the slice table is cached per spec: a spec that changes only the class
    # count or the model after its task's table is cached must still get its
    # own layout, in loss_and_grad's gradient and in predict's forward pass
    specs = [make_task_spec(name) for name in TASK_NAMES]
    specs += [dataclasses.replace(make_task_spec(name), class_probs=(0.5, 0.3, 0.2))
              for name in ("cola_like", "mrpc_like")]
    specs += [dataclasses.replace(make_task_spec("cola_like"), model="mlp"),
              dataclasses.replace(make_task_spec("mrpc_like"), model="logistic")]
    rng = np.random.default_rng(5)
    for spec in specs + specs[::-1]:
        theta = rng.normal(size=layout_size(spec))
        x = rng.normal(size=(9, FEATURE_DIM))
        y = (rng.normal(size=9) if spec.task_type == "regression"
             else rng.integers(0, spec.n_classes, size=9))
        _, grad = loss_and_grad(theta, x, y, spec)
        assert grad.shape == theta.shape
        np.testing.assert_array_equal(predict(theta, x, spec), forward_by_hand(theta, x, spec))


@pytest.mark.parametrize("name", ["cola_like", "mrpc_like", "stsb_like"])
@pytest.mark.parametrize("extra", [1, -1])
def test_theta_of_wrong_length_is_rejected(name, extra):
    spec = make_task_spec(name)
    n = sum(int(np.prod(s)) for _, s in param_layout(spec))
    theta = np.zeros(n + extra)
    x = np.zeros((2, FEATURE_DIM))
    y = np.zeros(2)
    with pytest.raises(ValueError, match="layout covers"):
        loss_and_grad(theta, x, y, spec)
    with pytest.raises(ValueError, match="layout covers"):
        predict(theta, x, spec)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------

def test_taskspec_validation():
    with pytest.raises(ValueError):
        make_task_spec("qqp_like")


def test_task_table_follows_the_taskspec_rules():
    # TaskSpec checks nothing itself: every spec comes from the task table
    for spec in (make_task_spec(name) for name in TASK_NAMES):
        assert spec.model in ("logistic", "mlp", "linear"), spec.name
        # the linear model is regression-only; the classifiers need a class skew
        assert (spec.model == "linear") == (spec.class_probs is None), spec.name
        if spec.class_probs is not None:
            assert len(spec.class_probs) >= 2, spec.name
            assert math.isclose(sum(spec.class_probs), 1.0, abs_tol=1e-9), spec.name


def test_every_taskspec_field_varies_across_tasks():
    # a knob every task sets alike belongs in a module constant, not in TaskSpec
    specs = [make_task_spec(name) for name in TASK_NAMES]
    fixed = [field.name for field in dataclasses.fields(TaskSpec)
             if len({getattr(spec, field.name) for spec in specs}) < 2]
    assert fixed == []

