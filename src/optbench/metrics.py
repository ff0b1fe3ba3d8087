"""Evaluation measures: accuracy, macro-F1, Matthews correlation, Pearson r.

Edge-case conventions (the measures' definitions leave these open):
a class with precision + recall = 0 contributes F1 = 0 to the macro
average, a zero denominator makes the Matthews coefficient 0, and a
constant sequence makes Pearson r 0. A score is a plain float; ``evaluate``
makes every score and ``check_score`` checks its range.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

__all__ = [
    "MetricKind",
    "accuracy",
    "macro_f1",
    "matthews_corr",
    "pearson_corr",
    "check_score",
    "evaluate",
]


class MetricKind(str, Enum):
    ACCURACY = "accuracy"
    MACRO_F1 = "macro_f1"
    MATTHEWS = "matthews"
    PEARSON = "pearson"

    @property
    def percent_scale(self) -> bool:
        """True for measures conventionally reported as percentages."""
        return self in (MetricKind.ACCURACY, MetricKind.MACRO_F1)


def _check_labels(preds, golds, min_len: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The one rule for a prediction/gold pair: 1-d, of one length >= min_len."""
    preds = np.asarray(preds)
    golds = np.asarray(golds)
    if preds.shape != golds.shape or preds.ndim != 1:
        raise ValueError(f"prediction/gold shapes disagree: {preds.shape} vs {golds.shape}")
    if preds.shape[0] < min_len:
        raise ValueError(f"need at least {min_len} prediction(s), got {preds.shape[0]}")
    return preds, golds


def accuracy(preds, golds) -> float:
    """Fraction of exact matches."""
    preds, golds = _check_labels(preds, golds)
    return float(np.mean(preds == golds))


def _confusion(preds, golds, n_classes: int) -> np.ndarray:
    """counts[g, p]: how many examples of gold class g were predicted as p.
    Raises ValueError unless every label is an integer in [0, n_classes)."""
    preds, golds = _check_labels(preds, golds)
    for name, labels in (("preds", preds), ("golds", golds)):
        if labels.dtype.kind not in "biu" or labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError(f"{name} contain labels outside the integers [0, {n_classes})")
    flat = np.bincount(golds * n_classes + preds, minlength=n_classes * n_classes)
    return flat.reshape(n_classes, n_classes)


def macro_f1(preds, golds, n_classes: int) -> float:
    """Unweighted mean over classes of per-class F1 = 2PR/(P+R) = 2TP/(2TP+FP+FN)."""
    counts = _confusion(preds, golds, n_classes)
    tp = np.diagonal(counts)
    denom = counts.sum(axis=0) + counts.sum(axis=1)  # 2TP + FP + FN per class
    f1s = np.divide(2.0 * tp, denom, out=np.zeros(n_classes), where=denom > 0)
    return float(np.mean(f1s))


def matthews_corr(preds, golds) -> float:
    """Matthews correlation coefficient for binary labels.

    (TP*TN - FP*FN) / sqrt((TP+FP)(TP+FN)(TN+FP)(TN+FN)), with the
    convention that a zero denominator (any constant row or column of the
    confusion matrix) yields 0. The counts are Python ints, so their
    product cannot overflow.
    """
    (tn, fp), (fn, tp) = _confusion(preds, golds, 2).tolist()
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(float(denom))


def pearson_corr(preds, golds) -> float:
    """Sample Pearson correlation; constant input yields 0 by convention."""
    preds, golds = (a.astype(np.float64) for a in _check_labels(preds, golds, min_len=2))
    dx = preds - preds.mean()
    dy = golds - golds.mean()
    denom = np.sqrt(np.sum(dx * dx) * np.sum(dy * dy))
    if denom == 0.0:
        return 0.0
    return float(np.clip(np.sum(dx * dy) / denom, -1.0, 1.0))


def check_score(kind: MetricKind, value: float) -> float:
    """``value`` if finite and in [0, 1] (percent scale) or [-1, 1], else ValueError."""
    lo = 0.0 if kind.percent_scale else -1.0
    if not lo - 1e-12 <= value <= 1.0 + 1e-12:  # false for NaN too
        raise ValueError(f"{kind.value} score must be finite and in [{lo}, 1], got {value}")
    return value


def evaluate(spec, preds, golds) -> float:
    """The task's measure of the predictions, checked by ``check_score``."""
    kind = spec.metric
    if kind is MetricKind.ACCURACY:
        value = accuracy(preds, golds)
    elif kind is MetricKind.MACRO_F1:
        value = macro_f1(preds, golds, spec.n_classes)
    elif kind is MetricKind.MATTHEWS:
        value = matthews_corr(preds, golds)
    else:
        value = pearson_corr(preds, golds)
    return check_score(kind, value)
