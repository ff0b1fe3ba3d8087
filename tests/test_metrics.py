"""Unit tests for the evaluation measures."""

import itertools

import numpy as np
import pytest

from optbench.metrics import (
    accuracy,
    evaluate,
    macro_f1,
    matthews_corr,
    pearson_corr,
)
from optbench.tasks import make_task_spec


def confusion_to_labels(tp, fp, fn, tn):
    """Binary preds/golds realizing the confusion counts."""
    preds = [1] * tp + [1] * fp + [0] * fn + [0] * tn
    golds = [1] * tp + [0] * fp + [1] * fn + [0] * tn
    return np.array(preds), np.array(golds)


def brute_macro_f1(tp, fp, fn, tn):
    """From-definition recomputation on the two-class confusion matrix."""
    f1s = []
    for tp_c, fp_c, fn_c in ((tp, fp, fn), (tn, fn, fp)):
        p = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        r = tp_c / (tp_c + fn_c) if tp_c + fn_c else 0.0
        f1s.append(2 * p * r / (p + r) if p + r else 0.0)
    return sum(f1s) / 2


def brute_matthews(tp, fp, fn, tn):
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / denom**0.5


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_identity_and_counts():
    assert accuracy([0, 1, 2, 1], [0, 1, 2, 1]) == 1.0
    assert accuracy([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75
    assert accuracy([0, 1, 2], [1, 2, 0]) == 0.0


def test_accuracy_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([0, 1], [0])


# ---------------------------------------------------------------------------
# macro F1
# ---------------------------------------------------------------------------

def test_macro_f1_perfect():
    assert macro_f1([0, 1, 0, 1], [0, 1, 0, 1], 2) == 1.0


def test_macro_f1_worked_example():
    preds, golds = confusion_to_labels(tp=6, fp=1, fn=2, tn=3)
    np.testing.assert_allclose(macro_f1(preds, golds, 2), 0.7333333333333333, rtol=1e-12)


def test_macro_f1_all_majority_prediction():
    golds = np.array([0] * 7 + [1] * 3)
    preds = np.zeros(10, dtype=int)
    np.testing.assert_allclose(macro_f1(preds, golds, 2), 0.411764705882353, rtol=1e-10)


def test_macro_f1_rejects_out_of_range_label():
    with pytest.raises(ValueError):
        macro_f1([0, 2], [0, 1], 2)


# ---------------------------------------------------------------------------
# Matthews correlation
# ---------------------------------------------------------------------------

def test_matthews_perfect_and_example():
    preds, golds = confusion_to_labels(tp=1, fp=0, fn=0, tn=1)
    assert matthews_corr(preds, golds) == 1.0
    preds, golds = confusion_to_labels(tp=6, fp=1, fn=2, tn=3)
    np.testing.assert_allclose(matthews_corr(preds, golds), 0.47809144373375745,
                               rtol=1e-12)


def test_matthews_constant_predictions_are_zero():
    assert matthews_corr([1, 1, 1], [0, 1, 1]) == 0.0
    assert matthews_corr([0, 0], [0, 1]) == 0.0


def test_matthews_rejects_nonbinary():
    with pytest.raises(ValueError):
        matthews_corr([0, 2], [0, 1])


def test_matthews_past_int64_margin_product():
    # (TP+FP)(TP+FN)(TN+FP)(TN+FN) passes 2**63 at about 200,000 balanced labels
    rng = np.random.default_rng(3)
    preds, golds = rng.integers(0, 2, 240_000), rng.integers(0, 2, 240_000)
    tp = int(np.sum((preds == 1) & (golds == 1)))
    tn = int(np.sum((preds == 0) & (golds == 0)))
    fp = int(np.sum((preds == 1) & (golds == 0)))
    fn = int(np.sum((preds == 0) & (golds == 1)))
    assert (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) > 2**63
    np.testing.assert_allclose(matthews_corr(preds, golds),
                               brute_matthews(tp, fp, fn, tn), rtol=1e-12)


def test_confusion_counts_match_per_class_passes():
    # the per-class counting passes the confusion matrix replaced, kept as
    # the reference: same integer counts, so the same bits
    def loop_macro_f1(p, g, k):
        f1s = []
        for c in range(k):
            tp = int(np.sum((p == c) & (g == c)))
            fp = int(np.sum((p == c) & (g != c)))
            fn = int(np.sum((p != c) & (g == c)))
            f1s.append(2.0 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0)
        return float(np.mean(f1s))

    rng = np.random.default_rng(21)
    for _ in range(500):
        n, k = int(rng.integers(1, 60)), int(rng.integers(2, 5))
        p, g = rng.integers(0, k, n), rng.integers(0, k, n)
        assert macro_f1(p, g, k) == loop_macro_f1(p, g, k)
        tp, fp, fn, tn = (int(np.sum((p % 2 == a) & (g % 2 == b)))
                          for a, b in ((1, 1), (1, 0), (0, 1), (0, 0)))
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        loop_mcc = float((tp * tn - fp * fn) / np.sqrt(denom)) if denom else 0.0
        assert matthews_corr(p % 2, g % 2) == loop_mcc


def test_label_measures_reject_non_integer_labels():
    with pytest.raises(ValueError):
        matthews_corr([0.0, 0.5], [0, 1])
    with pytest.raises(ValueError):
        macro_f1([0, 1], [0.0, 1.0], 2)


def test_exhaustive_small_confusion_matrices():
    for tp, fp, fn, tn in itertools.product(range(6), repeat=4):
        if tp + fp + fn + tn == 0:
            continue
        preds, golds = confusion_to_labels(tp, fp, fn, tn)
        np.testing.assert_allclose(matthews_corr(preds, golds),
                                   brute_matthews(tp, fp, fn, tn), atol=1e-12)
        np.testing.assert_allclose(macro_f1(preds, golds, 2),
                                   brute_macro_f1(tp, fp, fn, tn), atol=1e-12)


# ---------------------------------------------------------------------------
# Pearson correlation
# ---------------------------------------------------------------------------

def test_pearson_exact_cases():
    x = np.array([0.3, 1.7, 2.0, -4.0])
    np.testing.assert_allclose(pearson_corr(x, 2 * x + 1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(pearson_corr(x, -x), -1.0, rtol=1e-12)
    np.testing.assert_allclose(pearson_corr([1, 2, 3], [2, 4, 5]),
                               0.9819805060619657, rtol=1e-12)


def test_pearson_constant_input_and_short_input():
    assert pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0
    with pytest.raises(ValueError):
        pearson_corr([1.0], [2.0])


def test_pearson_affine_invariance():
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=50), rng.normal(size=50)
    base = pearson_corr(x, y)
    for a, b in [(2.5, 1.0), (-3.0, 0.2), (1e-4, -7.0)]:
        np.testing.assert_allclose(pearson_corr(a * x + b, y),
                                   np.sign(a) * base, rtol=1e-9)


# ---------------------------------------------------------------------------
# Symmetry, permutation, range properties
# ---------------------------------------------------------------------------

def test_symmetry_properties():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(2, 30))
        p = rng.integers(0, 2, n)
        g = rng.integers(0, 2, n)
        assert matthews_corr(p, g) == matthews_corr(g, p)
        x, y = rng.normal(size=n), rng.normal(size=n)
        np.testing.assert_allclose(pearson_corr(x, y), pearson_corr(y, x), rtol=1e-12)


def test_label_permutation_invariance():
    rng = np.random.default_rng(12)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        p = rng.integers(0, 3, n)
        g = rng.integers(0, 3, n)
        swap = np.array([2, 0, 1])
        assert accuracy(p, g) == accuracy(swap[p], swap[g])
        np.testing.assert_allclose(macro_f1(p, g, 3), macro_f1(swap[p], swap[g], 3),
                                   rtol=1e-12)


def test_output_ranges_on_random_inputs():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        n = int(rng.integers(2, 25))
        p = rng.integers(0, 2, n)
        g = rng.integers(0, 2, n)
        assert 0.0 <= accuracy(p, g) <= 1.0
        assert 0.0 <= macro_f1(p, g, 2) <= 1.0
        assert -1.0 <= matthews_corr(p, g) <= 1.0
        x, y = rng.normal(size=n), rng.normal(size=n)
        assert -1.0 <= pearson_corr(x, y) <= 1.0


# ---------------------------------------------------------------------------
# evaluate: dispatch and the range of a score
# ---------------------------------------------------------------------------

def test_metric_value_validation(monkeypatch):
    # evaluate makes every score, so it alone checks a score's range
    import optbench.metrics as metrics

    def score(task, measure, value):
        monkeypatch.setattr(metrics, measure, lambda preds, golds: value)
        return evaluate(make_task_spec(task), [0, 1], [0, 1])

    assert score("cola_like", "matthews_corr", -0.5) == -0.5  # a correlation may be negative
    for task, measure, value in (("sst2_like", "accuracy", -0.5),
                                 ("sst2_like", "accuracy", 1.5),
                                 ("stsb_like", "pearson_corr", float("nan")),
                                 ("stsb_like", "pearson_corr", 1.5)):
        with pytest.raises(ValueError, match="score must be finite and in"):
            score(task, measure, value)


def test_evaluate_dispatch():
    mrpc = make_task_spec("mrpc_like")
    stsb = make_task_spec("stsb_like")
    cola = make_task_spec("cola_like")
    sst2 = make_task_spec("sst2_like")
    mnli = make_task_spec("mnli_like")
    p, g = [0, 1, 1, 0, 1], [0, 1, 0, 0, 0]
    x, y = [1.0, 2.0, 3.0], [1.0, 2.0, 3.5]
    assert evaluate(mrpc, p, g) == macro_f1(p, g, 2)
    assert evaluate(stsb, x, y) == pearson_corr(x, y)
    assert evaluate(cola, p, g) == matthews_corr(p, g)
    assert evaluate(sst2, p, g) == accuracy(p, g)
    assert evaluate(mnli, [0, 1, 2, 2], [0, 1, 2, 1]) == accuracy([0, 1, 2, 2], [0, 1, 2, 1])
    # the classification measures disagree on (p, g), so each task reached its own
    assert len({macro_f1(p, g, 2), matthews_corr(p, g), accuracy(p, g)}) == 3
    assert all(type(evaluate(spec, p, g)) is float for spec in (mrpc, cola, sst2))
    with pytest.raises(ValueError):
        evaluate(cola, [0, 2], [0, 1])  # 3-class input to a binary measure
