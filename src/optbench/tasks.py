"""Desk-scale differentiable tasks: synthetic data, stratified splits, models.

Five tasks mirror the shape of a small GLUE-style benchmark suite: four
classification tasks with fixed class skews (55/45, 67/33, 70/30, and a
balanced 3-class task) and one regression task with targets in [1, 5].
Classification features are per-class Gaussian clusters; regression targets
are a noisy linear map of the features rescaled into [1, 5].

``feature_scale`` multiplies the raw features and therefore the loss
curvature. The classification tasks use a large scale on purpose: it puts
them in the regime where learning rates around 1e-3 overshoot wildly while
rates around 1e-5 make steady progress, which is the regime the tuning
protocol is designed to probe. The regression task stays at scale 1 so that
every optimizer's untuned configuration remains numerically stable.

Everything here is pure given its seeds: datasets, splits, batch order, and
weight initialization are deterministic functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from optbench.metrics import MetricKind

__all__ = [
    "TASK_NAMES",
    "TaskSpec",
    "Dataset",
    "DataSplit",
    "ModelParams",
    "NonFiniteLossError",
    "make_task_spec",
    "make_dataset",
    "stratified_split",
    "epoch_batches",
    "param_layout",
    "init_params",
    "segments",
    "loss_and_grad",
    "predict",
]

TASK_NAMES = ("sst2_like", "mrpc_like", "cola_like", "stsb_like", "mnli_like")


class NonFiniteLossError(ValueError):
    """Loss became NaN/Inf; carries the index of the first offending example."""

    def __init__(self, example_index: int):
        self.example_index = int(example_index)
        super().__init__(f"non-finite loss at example index {example_index}")


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic task: data distribution, model family, and metric.

    class_probs is None for regression; targets then live in target_range.
    separation is the distance between class cluster means in units of the
    within-class standard deviation (before feature_scale is applied).
    """

    name: str
    task_type: str  # "classification" | "regression"
    metric: MetricKind
    n_classes: int = 0
    class_probs: tuple[float, ...] | None = None
    feature_dim: int = 6
    model: str = "logistic"  # "logistic" | "mlp" | "linear"
    hidden: int = 16
    feature_scale: float = 1.0
    init_scale: float = 0.002
    separation: float = 3.0
    nuisance_scale: float = 1.0
    noise: float = 0.25
    target_range: tuple[float, float] = (1.0, 5.0)
    resample_per_split: bool = False

    def __post_init__(self):
        if self.task_type not in ("classification", "regression"):
            raise ValueError(f"bad task_type: {self.task_type!r}")
        if self.model not in ("logistic", "mlp", "linear"):
            raise ValueError(f"bad model: {self.model!r}")
        if self.task_type == "classification":
            if self.n_classes < 2 or self.class_probs is None:
                raise ValueError("classification needs n_classes >= 2 and class_probs")
            if len(self.class_probs) != self.n_classes:
                raise ValueError("class_probs length must equal n_classes")
            if abs(sum(self.class_probs) - 1.0) > 1e-9:
                raise ValueError("class_probs must sum to 1")
            if self.model == "linear":
                raise ValueError("linear model is regression-only")
        else:
            if self.model != "linear":
                raise ValueError("regression uses the linear model")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")

    def with_values(self, **updates) -> "TaskSpec":
        return replace(self, **updates)


def make_task_spec(name: str) -> TaskSpec:
    """Canonical spec for one of the five benchmark tasks."""
    if name == "sst2_like":
        return TaskSpec(name=name, task_type="classification", metric=MetricKind.ACCURACY,
                        n_classes=2, class_probs=(0.55, 0.45), feature_scale=600.0,
                        resample_per_split=True)
    if name == "mrpc_like":
        return TaskSpec(name=name, task_type="classification", metric=MetricKind.MACRO_F1,
                        n_classes=2, class_probs=(0.67, 0.33), model="mlp", hidden=16,
                        feature_scale=25.0)
    if name == "cola_like":
        return TaskSpec(name=name, task_type="classification", metric=MetricKind.MATTHEWS,
                        n_classes=2, class_probs=(0.70, 0.30), feature_scale=6000.0,
                        separation=2.5, nuisance_scale=3.0)
    if name == "stsb_like":
        return TaskSpec(name=name, task_type="regression", metric=MetricKind.PEARSON,
                        model="linear", feature_scale=1.0)
    if name == "mnli_like":
        return TaskSpec(name=name, task_type="classification", metric=MetricKind.ACCURACY,
                        n_classes=3, class_probs=(1 / 3, 1 / 3, 1 / 3), feature_scale=600.0,
                        resample_per_split=True)
    raise ValueError(f"unknown task name: {name!r} (expected one of {TASK_NAMES})")


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n, feature_dim)
    targets: np.ndarray  # (n,) int labels or float scores
    spec: TaskSpec

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class DataSplit:
    """Disjoint, exhaustive index sets into one Dataset."""

    train: np.ndarray
    dev: np.ndarray
    test: np.ndarray
    split_seed: int


def _largest_remainder(total: int, fractions) -> list[int]:
    """Integer allocation of ``total`` proportional to ``fractions``.

    Each count differs from exact proportionality by less than 1; ties in
    the fractional parts are broken toward lower index.
    """
    exact = [total * f for f in fractions]
    counts = [math.floor(e) for e in exact]
    short = total - sum(counts)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _class_means(spec: TaskSpec) -> np.ndarray:
    """Cluster means, pairwise ``separation`` apart (before feature_scale).

    Binary clusters are shifted along their axis so the prior-weighted Bayes
    boundary passes through the origin; a zero intercept is then near-optimal
    and skewed tasks stay learnable by models whose bias starts at ~0.
    """
    d, k, sep = spec.feature_dim, spec.n_classes, spec.separation
    if k == 2:
        u = np.ones(d) / math.sqrt(d)
        p0, p1 = spec.class_probs
        shift = math.log(p0 / p1) / sep
        return np.stack([(-0.5 * sep - shift) * u, (0.5 * sep - shift) * u])
    if d < 2:
        raise ValueError("multi-class tasks need feature_dim >= 2")
    radius = sep / (2.0 * math.sin(math.pi / k))
    means = np.zeros((k, d))
    for c in range(k):
        angle = 2.0 * math.pi * c / k
        means[c, 0] = radius * math.cos(angle)
        means[c, 1] = radius * math.sin(angle)
    return means


def make_dataset(spec: TaskSpec, size: int, seed: int) -> Dataset:
    """Deterministic synthetic dataset of ``size`` examples.

    Classification: per-class counts follow the skew exactly (largest
    remainder), features are Gaussian clusters around fixed class means.
    Regression: features are Gaussian, the latent target is a fixed linear
    map plus noise, min-max rescaled into target_range.
    """
    if size < 50:
        raise ValueError(f"size must be >= 50, got {size}")
    rng = np.random.default_rng(seed)
    d = spec.feature_dim
    if spec.task_type == "classification":
        counts = _largest_remainder(size, spec.class_probs)
        means = _class_means(spec)
        xs, ys = [], []
        for c, n_c in enumerate(counts):
            z = rng.standard_normal((n_c, d))
            if spec.nuisance_scale != 1.0 and spec.n_classes == 2:
                # unit variance along the class axis, inflated variance across it
                u = np.ones(d) / math.sqrt(d)
                along = z @ u
                z = np.outer(along, u) + spec.nuisance_scale * (z - np.outer(along, u))
            xs.append(means[c] + z)
            ys.append(np.full(n_c, c, dtype=np.int64))
        features = np.concatenate(xs) * spec.feature_scale
        targets = np.concatenate(ys)
        order = rng.permutation(size)
        return Dataset(features=features[order], targets=targets[order], spec=spec)
    z = rng.standard_normal((size, d))
    w_true = np.array([(-1.0) ** i for i in range(d)]) / math.sqrt(d)
    latent = z @ w_true + spec.noise * rng.standard_normal(size)
    lo, hi = spec.target_range
    span = latent.max() - latent.min()
    if span == 0.0:
        targets = np.full(size, 0.5 * (lo + hi))
    else:
        targets = lo + (hi - lo) * (latent - latent.min()) / span
    return Dataset(features=z * spec.feature_scale, targets=targets, spec=spec)


def _strata(data: Dataset) -> tuple[np.ndarray, str]:
    """Stratum id per example: class labels, or target-quintile bins."""
    if data.spec.task_type == "classification":
        return data.targets.astype(np.int64), "class"
    edges = np.quantile(data.targets, [0.2, 0.4, 0.6, 0.8])
    return np.digitize(data.targets, edges), "target-quintile bin"


def stratified_split(data: Dataset, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
                     split_seed: int = 0) -> DataSplit:
    """Stratified train/dev/test partition, deterministic in ``split_seed``.

    Within every stratum the partition counts are within 1 of exact
    proportionality. Raises if any stratum has fewer than 3 members.
    """
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or min(ratios) < 0:
        raise ValueError(f"ratios must be 3 nonnegative values summing to 1, got {ratios}")
    strata, stratum_word = _strata(data)
    rng = np.random.default_rng(split_seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for stratum in np.unique(strata):
        idx = np.flatnonzero(strata == stratum)
        if idx.size < 3:
            raise ValueError(
                f"{stratum_word} {stratum} has only {idx.size} members, need >= 3"
            )
        perm = rng.permutation(idx)
        counts = _largest_remainder(idx.size, ratios)
        start = 0
        for p, n_p in enumerate(counts):
            parts[p].append(perm[start:start + n_p])
            start += n_p
    train, dev, test = (np.sort(np.concatenate(p)).astype(np.int64) for p in parts)
    return DataSplit(train=train, dev=dev, test=test, split_seed=split_seed)


def epoch_batches(split: DataSplit, batch_size: int, rng: np.random.Generator
                  ) -> Iterator[np.ndarray]:
    """Mini-batch index arrays for one epoch: a fresh shuffle of the train
    set cut into consecutive batches (the last one may be short), so the
    concatenation of one epoch's batches is a permutation of the train set.
    With batch_size equal to the train size this degenerates to exact GD.
    """
    k = split.train.size
    if batch_size < 1 or batch_size > k:
        raise ValueError(f"batch_size must be in [1, {k}], got {batch_size}")
    order = rng.permutation(split.train)
    for start in range(0, k, batch_size):
        yield order[start:start + batch_size]


# ---------------------------------------------------------------------------
# Models: flat parameter vector + layout, analytic loss gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelParams:
    """Flat parameter vector plus the (name, shape) layout of its segments."""

    theta: np.ndarray
    layout: tuple[tuple[str, tuple[int, ...]], ...]

    def __post_init__(self):
        n = sum(int(np.prod(shape)) for _, shape in self.layout)
        if n != self.theta.shape[0]:
            raise ValueError(f"layout covers {n} values, theta has {self.theta.shape[0]}")


def param_layout(spec: TaskSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    d, k, h = spec.feature_dim, spec.n_classes, spec.hidden
    if spec.model == "logistic":
        return (("W", (k, d)), ("b", (k,)))
    if spec.model == "mlp":
        return (("W1", (h, d)), ("b1", (h,)), ("W2", (k, h)), ("b2", (k,)))
    return (("w", (d,)), ("b", (1,)))


def init_params(spec: TaskSpec, rng: np.random.Generator) -> ModelParams:
    """Zero-mean uniform initialization in [-init_scale, init_scale]."""
    layout = param_layout(spec)
    n = sum(int(np.prod(shape)) for _, shape in layout)
    theta = rng.uniform(-spec.init_scale, spec.init_scale, size=n)
    return ModelParams(theta=theta, layout=layout)


def segments(params: ModelParams) -> dict[str, np.ndarray]:
    """Views of the flat vector reshaped per layout segment."""
    out = {}
    start = 0
    for name, shape in params.layout:
        n = int(np.prod(shape))
        out[name] = params.theta[start:start + n].reshape(shape)
        start += n
    return out


def _logits(params: ModelParams, x: np.ndarray, spec: TaskSpec):
    seg = segments(params)
    if spec.model == "logistic":
        return x @ seg["W"].T + seg["b"], None
    hidden = np.tanh(x @ seg["W1"].T + seg["b1"])
    return hidden @ seg["W2"].T + seg["b2"], hidden


def loss_and_grad(params: ModelParams, x: np.ndarray, y: np.ndarray, spec: TaskSpec
                  ) -> tuple[float, np.ndarray]:
    """Mean loss over the batch and its analytic gradient (flat vector).

    Classification: softmax cross-entropy (natural log). Regression: mean
    squared error on the raw model output. Raises NonFiniteLossError naming
    the first example whose loss is not finite.
    """
    if x.ndim != 2 or x.shape[1] != spec.feature_dim:
        raise ValueError(f"batch features must be (m, {spec.feature_dim}), got {x.shape}")
    m = x.shape[0]
    if m == 0:
        raise ValueError("empty batch")
    seg = segments(params)
    grad = np.zeros_like(params.theta)
    gseg = segments(ModelParams(theta=grad, layout=params.layout))

    if spec.task_type == "regression":
        pred = x @ seg["w"] + seg["b"][0]
        err = pred - y
        per_example = err * err
        _require_finite(per_example)
        gseg["w"][:] = (2.0 / m) * (x.T @ err)
        gseg["b"][0] = (2.0 / m) * err.sum()
        return float(per_example.mean()), grad

    labels = y.astype(np.int64)
    logits, hidden = _logits(params, x, spec)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    per_example = log_z - shifted[np.arange(m), labels]
    _require_finite(per_example)
    probs = np.exp(shifted - log_z[:, None])
    dlogits = probs
    dlogits[np.arange(m), labels] -= 1.0
    dlogits /= m
    if spec.model == "logistic":
        gseg["W"][:] = dlogits.T @ x
        gseg["b"][:] = dlogits.sum(axis=0)
    else:
        gseg["W2"][:] = dlogits.T @ hidden
        gseg["b2"][:] = dlogits.sum(axis=0)
        dhidden = (dlogits @ seg["W2"]) * (1.0 - hidden * hidden)
        gseg["W1"][:] = dhidden.T @ x
        gseg["b1"][:] = dhidden.sum(axis=0)
    return float(per_example.mean()), grad


def _require_finite(per_example: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(per_example))
    if bad.size:
        raise NonFiniteLossError(bad[0])


def predict(params: ModelParams, x: np.ndarray, spec: TaskSpec) -> np.ndarray:
    """Class labels (argmax, ties to the lowest index) or clamped real scores."""
    if x.ndim != 2 or x.shape[1] != spec.feature_dim:
        raise ValueError(f"inputs must be (m, {spec.feature_dim}), got {x.shape}")
    seg = segments(params)
    if spec.task_type == "regression":
        lo, hi = spec.target_range
        return np.clip(x @ seg["w"] + seg["b"][0], lo, hi)
    logits, _ = _logits(params, x, spec)
    return np.argmax(logits, axis=1)
