"""Desk-scale differentiable tasks: synthetic data, stratified splits, models.

Five tasks mirror the shape of a small GLUE-style benchmark suite: four
classification tasks with fixed class skews (55/45, 67/33, 70/30, and a
balanced 3-class task) and one regression task with targets in [1, 5].
Classification features are per-class Gaussian clusters; regression targets
are a noisy linear map of the features rescaled into [1, 5].

A ``TaskSpec`` holds only what the tasks vary: metric, class skew, model
family, feature scale, class separation, nuisance scale and whether data are
regenerated per split; its task type and class count follow from the model
and the skew. What all tasks share is a module constant: ``FEATURE_DIM``,
the MLP's ``HIDDEN`` width, ``INIT_SCALE``, the regression ``NOISE`` and
``TARGET_RANGE``.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from optbench.metrics import MetricKind
from optbench.optimizers import ConfigError

__all__ = [
    "TASK_NAMES",
    "SPLIT_RATIOS",
    "FEATURE_DIM",
    "HIDDEN",
    "INIT_SCALE",
    "NOISE",
    "TARGET_RANGE",
    "TaskSpec",
    "Dataset",
    "make_task_spec",
    "make_dataset",
    "stratified_split",
    "check_batch_size",
    "epoch_batches",
    "param_layout",
    "init_params",
    "segments",
    "loss_and_grad",
    "predict",
]

SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train, dev, test
FEATURE_DIM = 6
HIDDEN = 16  # MLP hidden units
INIT_SCALE = 0.002  # initial weights are uniform in [-INIT_SCALE, INIT_SCALE]
NOISE = 0.25  # std of the regression latent's additive noise
TARGET_RANGE = (1.0, 5.0)  # regression targets and clamped predictions


@dataclass(frozen=True)
class TaskSpec:
    """One synthetic task: data distribution, model family, and metric.

    class_probs is None exactly for regression, which uses the linear
    model; classifiers use the logistic or MLP model. separation is the
    distance between class cluster means in units of the within-class
    standard deviation (before feature_scale is applied).
    """

    name: str
    metric: MetricKind
    class_probs: tuple[float, ...] | None = None
    model: str = "logistic"  # "logistic" | "mlp" | "linear"
    feature_scale: float = 1.0
    separation: float = 3.0
    nuisance_scale: float = 1.0
    resample_per_split: bool = False

    @property
    def task_type(self) -> str:  # "classification" | "regression"
        return "regression" if self.model == "linear" else "classification"

    @property
    def n_classes(self) -> int:  # 0 for regression
        return 0 if self.class_probs is None else len(self.class_probs)

    @functools.cached_property
    def _theta_slices(self) -> tuple[int, tuple[tuple[slice, tuple[int, ...]], ...]]:
        """θ's length and each ``param_layout`` segment's (slice, shape), in layout
        order, worked out on first use."""
        n, table = 0, []
        for _, shape in param_layout(self):
            size = math.prod(shape)
            table.append((slice(n, n + size), shape))
            n += size
        return n, tuple(table)


_TASKS = {spec.name: spec for spec in (
    TaskSpec("sst2_like", MetricKind.ACCURACY, (0.55, 0.45), feature_scale=600.0,
             resample_per_split=True),
    TaskSpec("mrpc_like", MetricKind.MACRO_F1, (0.67, 0.33), model="mlp", feature_scale=25.0),
    TaskSpec("cola_like", MetricKind.MATTHEWS, (0.70, 0.30), feature_scale=6000.0,
             separation=2.5, nuisance_scale=3.0),
    TaskSpec("stsb_like", MetricKind.PEARSON, model="linear"),
    TaskSpec("mnli_like", MetricKind.ACCURACY, (1 / 3, 1 / 3, 1 / 3), feature_scale=600.0,
             resample_per_split=True),
)}
TASK_NAMES = tuple(_TASKS)


def make_task_spec(name: str) -> TaskSpec:
    """Canonical spec for one of the five benchmark tasks; names ignore case and
    surrounding whitespace, as optimizer and regime names do."""
    try:
        return _TASKS[name.strip().lower()]
    except KeyError:
        raise ConfigError(f"unknown task name: {name!r} (expected one of {TASK_NAMES})") from None


@dataclass(frozen=True)
class Dataset:
    """Labelled rows of one task: a generated sample or one partition of it."""

    features: np.ndarray  # (n, FEATURE_DIM)
    targets: np.ndarray  # (n,) int labels or float scores
    spec: TaskSpec


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
    d, k, sep = FEATURE_DIM, spec.n_classes, spec.separation
    if k == 2:
        u = np.ones(d) / math.sqrt(d)
        p0, p1 = spec.class_probs
        shift = math.log(p0 / p1) / sep
        return np.stack([(-0.5 * sep - shift) * u, (0.5 * sep - shift) * u])
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
    map plus noise, min-max rescaled into TARGET_RANGE.
    """
    if size < 50:
        raise ConfigError(f"size must be >= 50, got {size}")
    rng = np.random.default_rng(seed)
    d = FEATURE_DIM
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
    latent = z @ w_true + NOISE * rng.standard_normal(size)
    lo, hi = TARGET_RANGE
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


def stratified_split(data: Dataset, split_seed: int) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified train/dev/test partitions of ``data`` in ``SPLIT_RATIOS``,
    deterministic in ``split_seed``: disjoint, together every row of ``data``,
    and each holding its rows in ``data``'s row order.

    Within every stratum the partition counts are within 1 of exact
    proportionality. Raises if any stratum has fewer than 3 members.
    """
    strata, stratum_word = _strata(data)
    rng = np.random.default_rng(split_seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for stratum in np.unique(strata):
        idx = np.flatnonzero(strata == stratum)
        if idx.size < 3:
            raise ConfigError(
                f"{stratum_word} {stratum} has only {idx.size} members, need >= 3"
            )
        perm = rng.permutation(idx)
        counts = _largest_remainder(idx.size, SPLIT_RATIOS)
        start = 0
        for p, n_p in enumerate(counts):
            parts[p].append(perm[start:start + n_p])
            start += n_p
    return tuple(Dataset(data.features[rows], data.targets[rows], data.spec)
                 for rows in (np.sort(np.concatenate(p)) for p in parts))


def check_batch_size(train: Dataset, batch_size: int) -> None:
    """The one rule for a mini-batch size: 1 to the train partition's size."""
    if not 1 <= batch_size <= train.targets.size:
        raise ConfigError(f"batch_size must be in [1, {train.targets.size}], got {batch_size}")


def epoch_batches(train: Dataset, batch_size: int, rng: np.random.Generator
                  ) -> list[tuple[np.ndarray, np.ndarray]]:
    """One epoch's mini-batches as (features, targets) pairs: a fresh shuffle
    of the train partition's rows, gathered once and cut into consecutive
    batches (the last one may be short), so one epoch's batches hold each
    train example exactly once. A batch_size equal to the train size gives
    exact GD; the caller checks it with ``check_batch_size``."""
    order = rng.permutation(train.targets.size)
    x, y = train.features[order], train.targets[order]
    return [(x[i:i + batch_size], y[i:i + batch_size]) for i in range(0, order.size, batch_size)]


# ---------------------------------------------------------------------------
# Models: a flat parameter vector θ, split into segments by param_layout(spec)
# ---------------------------------------------------------------------------

def param_layout(spec: TaskSpec) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The (name, shape) segments of θ, in order: the one description of θ."""
    d, k, h = FEATURE_DIM, spec.n_classes, HIDDEN
    if spec.model == "logistic":
        return (("W", (k, d)), ("b", (k,)))
    if spec.model == "mlp":
        return (("W1", (h, d)), ("b1", (h,)), ("W2", (k, h)), ("b2", (k,)))
    return (("w", (d,)), ("b", (1,)))


def init_params(spec: TaskSpec, rng: np.random.Generator) -> np.ndarray:
    """Flat θ covering ``param_layout(spec)``, uniform in [-INIT_SCALE, INIT_SCALE]."""
    return rng.uniform(-INIT_SCALE, INIT_SCALE, size=spec._theta_slices[0])


def segments(theta: np.ndarray, spec: TaskSpec) -> list[np.ndarray]:
    """Views of the flat vector θ reshaped per ``param_layout(spec)`` segment, in
    layout order, from the slice table the spec works out once.

    Raises ValueError unless θ is 1-d with exactly the layout's length.
    """
    n, table = spec._theta_slices
    if theta.shape != (n,):
        raise ValueError(f"{spec.model} layout covers {n} values, theta has shape {theta.shape}")
    return [theta[part].reshape(shape) for part, shape in table]


def _forward(seg: list[np.ndarray], x: np.ndarray, spec: TaskSpec):
    """Model output for the batch ``x``, which must be (m, FEATURE_DIM), and the
    MLP's hidden activations (None for the linear and logistic families): real
    scores for the linear model, one logit per class for the classifiers."""
    if x.ndim != 2 or x.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be (m, {FEATURE_DIM}), got {x.shape}")
    if spec.model == "linear":
        w, b = seg
        return x @ w + b[0], None
    if spec.model == "logistic":
        W, b = seg
        return x @ W.T + b, None
    W1, b1, W2, b2 = seg
    hidden = np.tanh(x @ W1.T + b1)
    return hidden @ W2.T + b2, hidden


def loss_and_grad(theta: np.ndarray, x: np.ndarray, y: np.ndarray, spec: TaskSpec
                  ) -> tuple[float, np.ndarray]:
    """Mean loss over the batch at the flat vector θ and its analytic gradient,
    a new flat vector laid out like θ by ``param_layout(spec)``.

    Classification: softmax cross-entropy (natural log). Regression: mean
    squared error on the raw model output. θ is split into segments once,
    and the forward pass is the one ``predict`` uses. Sums and maxima call
    the ufuncs' ``reduce`` directly, which is what ``sum``, ``max`` and
    ``mean`` compute, without their Python wrappers.
    """
    seg = segments(theta, spec)
    out, hidden = _forward(seg, x, spec)
    m = x.shape[0]
    if m == 0:
        raise ValueError("empty batch")

    if spec.model == "linear":
        err = out - y
        grads = ((2.0 / m) * (x.T @ err), (2.0 / m) * np.add.reduce(err))
        return float(np.add.reduce(err * err) / m), np.concatenate(grads, axis=None)

    pick = np.arange(m), (y if y.dtype == np.int64 else y.astype(np.int64))
    shifted = out - np.maximum.reduce(out, axis=1, keepdims=True)
    log_z = np.log(np.add.reduce(np.exp(shifted), axis=1))
    per_example = log_z - shifted[pick]
    dlogits = np.exp(shifted - log_z[:, None])
    dlogits[pick] -= 1.0
    dlogits /= m
    if spec.model == "logistic":
        grads = (dlogits.T @ x, np.add.reduce(dlogits, axis=0))
    else:
        dhidden = (dlogits @ seg[2]) * (1.0 - hidden * hidden)
        grads = (dhidden.T @ x, np.add.reduce(dhidden, axis=0),
                 dlogits.T @ hidden, np.add.reduce(dlogits, axis=0))
    return float(np.add.reduce(per_example) / m), np.concatenate(grads, axis=None)


def predict(theta: np.ndarray, x: np.ndarray, spec: TaskSpec) -> np.ndarray:
    """Class labels (argmax, ties to the lowest index) or clamped real scores
    of the model whose flat parameter vector is θ, from the forward pass
    ``loss_and_grad`` uses."""
    out, _ = _forward(segments(theta, spec), x, spec)
    if spec.task_type == "regression":
        return np.clip(out, *TARGET_RANGE)
    return np.argmax(out, axis=1)
