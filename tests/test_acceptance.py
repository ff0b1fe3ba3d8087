"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 6 and 7 execute the full tuning protocol and dominate the
runtime (a few minutes total).
"""

import csv
import dataclasses
import itertools
import math
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from optbench.cli import main as cli_main
from optbench.harness import (
    RunSpec,
    experiment_data,
    run_experiment,
)
from optbench.metrics import accuracy, evaluate, macro_f1, matthews_corr, pearson_corr
from optbench.optimizers import (
    ADAPTIVE_KINDS,
    OptimizerKind,
    OptimizerState,
    apply_step,
    default_config,
    init_state,
)
from optbench.tasks import (
    loss_and_grad,
    make_dataset,
    make_task_spec,
    param_layout,
    predict,
)
from optbench.tuning import Regime, load_study_json
from reference_optimizers import ref_step

ALL_KINDS = list(OptimizerKind)


def report(criterion, detail=""):
    print(f"ACCEPTANCE PASS [{criterion}] {detail}")


# ---------------------------------------------------------------------------
# Criterion 1: optimizer oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_optimizer_oracle_suite():
    start = time.time()
    for kind in ALL_KINDS:
        rng = np.random.default_rng(zlib.crc32(b"acc1-" + kind.value.encode()))
        for _ in range(100):
            c = dataclasses.replace(
                default_config(kind),
                epsilon=10.0 ** rng.uniform(-7, -1),
                rho1=rng.uniform(0.0, 0.99), rho2=rng.uniform(0.0, 0.9999),
                delta=10.0 ** rng.uniform(-9, -6), alpha=rng.uniform(0.0, 0.99),
                lambda_=rng.uniform(1e-4, 0.5),
                eps_star=10.0 ** rng.uniform(-2, -1),
                gamma=10.0 ** rng.uniform(-4, 0))
            dim = int(rng.integers(1, 8))
            state = OptimizerState(t=int(rng.integers(0, 40)),
                                   s=rng.normal(0, 1, dim),
                                   r=np.abs(rng.normal(0, 1, dim)),
                                   v=rng.normal(0, 1, dim))
            theta = rng.normal(0, 2, dim)
            g = rng.normal(0, 3, dim)
            theta2, state2 = apply_step(c, state, theta, g)
            ref_theta, ref_s, ref_r, ref_v, ref_t = ref_step(
                kind.value, dataclasses.asdict(c), state.t, theta.tolist(),
                g.tolist(), state.s.tolist(), state.r.tolist(), state.v.tolist())
            np.testing.assert_allclose(theta2, ref_theta, rtol=1e-9, atol=0)
            np.testing.assert_allclose(state2.s, ref_s, rtol=1e-9)
            np.testing.assert_allclose(state2.r, ref_r, rtol=1e-9)
            np.testing.assert_allclose(state2.v, ref_v, rtol=1e-9)
            assert state2.t == ref_t

    # the six derived step examples; stated values carry 6 significant
    # figures (some truncated, not rounded), so allow one ulp at figure six
    sigfig6 = dict(rtol=5e-6, atol=0)
    c = dataclasses.replace(default_config(OptimizerKind.SGD), epsilon=0.1)
    theta, _ = apply_step(c, init_state(c, 1), [1.0], [0.5])
    np.testing.assert_allclose(theta, [0.95], **sigfig6)

    c = dataclasses.replace(default_config(OptimizerKind.SGDM), epsilon=0.1, alpha=0.9)
    theta, st = apply_step(c, init_state(c, 1), [1.0], [0.5])
    theta, st = apply_step(c, st, theta, [0.5])
    np.testing.assert_allclose(theta, [0.855], **sigfig6)
    np.testing.assert_allclose(st.v, [-0.095], **sigfig6)

    c = default_config(OptimizerKind.ADAM)
    theta, _ = apply_step(c, init_state(c, 1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-9.99999990e-4], **sigfig6)

    c = dataclasses.replace(default_config(OptimizerKind.NADAM), epsilon=1e-3)
    theta, _ = apply_step(c, init_state(c, 1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-1.47442e-3], **sigfig6)

    c = dataclasses.replace(default_config(OptimizerKind.ADAMW), lambda_=0.01)
    theta, _ = apply_step(c, init_state(c, 1), [0.5], [1.0])
    np.testing.assert_allclose(theta, [0.494000], **sigfig6)

    c = default_config(OptimizerKind.ADAMAX)
    theta, _ = apply_step(c, init_state(c, 1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-0.002], **sigfig6)

    c = default_config(OptimizerKind.ADABOUND)
    theta, _ = apply_step(c, init_state(c, 1), [0.0], [1.0])
    np.testing.assert_allclose(theta, [-3.16227e-3], **sigfig6)

    elapsed = time.time() - start
    assert elapsed < 5.0
    report("1 optimizer oracle", f"7x100 randomized steps + 6 derived examples, "
                                 f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: identity suite
# ---------------------------------------------------------------------------

def test_criterion_2_identity_suite():
    rng = np.random.default_rng(202)
    c_sgd = dataclasses.replace(default_config(OptimizerKind.SGD), epsilon=0.02)
    c_sgdm = dataclasses.replace(default_config(OptimizerKind.SGDM), epsilon=0.02, alpha=0.0)
    theta_a = theta_b = rng.normal(0, 1, 6)
    st_a, st_b = init_state(c_sgd, 6), init_state(c_sgdm, 6)
    for _ in range(1000):
        g = rng.normal(0, 1, 6)
        theta_a, st_a = apply_step(c_sgd, st_a, theta_a, g)
        theta_b, st_b = apply_step(c_sgdm, st_b, theta_b, g)
        assert np.array_equal(theta_a, theta_b)

    c = default_config(OptimizerKind.ADAM)
    g_star = np.array([0.31, -2.2, 0.007])
    theta, state = np.zeros(3), init_state(c, 3)
    for _ in range(100):
        theta, state = apply_step(c, state, theta, g_star)
        np.testing.assert_allclose(state.s / (1 - c.rho1**state.t), g_star, rtol=1e-12)
        np.testing.assert_allclose(state.r / (1 - c.rho2**state.t), g_star**2,
                                   rtol=1e-12)

    zero = np.zeros(4)
    theta0 = np.array([0.3, -1.1, 2.0, 0.0])
    for kind in ALL_KINDS:
        if kind is OptimizerKind.ADAMW:
            continue
        c = default_config(kind)
        theta, state = theta0.copy(), init_state(c, 4)
        for _ in range(50):
            theta, state = apply_step(c, state, theta, zero)
        assert np.array_equal(theta, theta0)

    c = default_config(OptimizerKind.ADAMW)
    theta, state = theta0.copy(), init_state(c, 4)
    for t in range(1, 101):
        theta, state = apply_step(c, state, theta, zero)
        np.testing.assert_allclose(theta, theta0 * (1 - c.lambda_) ** t, rtol=1e-12)

    report("2 identity suite", "SGDM(0)=SGD bitwise x1000; bias-correction & "
                               "zero-gradient identities to 1e-12")


# ---------------------------------------------------------------------------
# Criterion 3: AdaBound bound suite
# ---------------------------------------------------------------------------

def test_criterion_3_adabound_bounds():
    from optbench.optimizers import adabound_bounds

    for eps_star, gamma in ((0.1, 1e-3), (0.05, 2e-3), (0.013, 1e-4)):
        c = dataclasses.replace(default_config(OptimizerKind.ADABOUND),
                                eps_star=eps_star, gamma=gamma)
        ts = np.unique(np.geomspace(1, 2e7 / gamma, 300).astype(np.int64))
        los, his = zip(*(adabound_bounds(int(t), c) for t in ts))
        los, his = np.array(los), np.array(his)
        assert np.all(np.diff(los) > 0) and np.all(np.diff(his) < 0)
        assert np.all(los < eps_star) and np.all(his > eps_star)
        t_conv = math.ceil(1e6 / gamma)
        lo, hi = adabound_bounds(t_conv, c)
        assert abs(lo - eps_star) < 1e-6 * eps_star
        assert abs(hi - eps_star) < 1e-6 * eps_star

    # clipping saturation, exactly at the bounds
    c = dataclasses.replace(default_config(OptimizerKind.ADABOUND),
        epsilon=1.0, eps_star=0.01, gamma=10.0)
    lo1, hi1 = adabound_bounds(1, c)
    theta, state = apply_step(c, init_state(c, 1), np.zeros(1), np.array([1e-9]))
    assert theta[0] == -hi1 * state.s[0]  # raw rate far above hi -> clipped to hi
    c2 = dataclasses.replace(c, epsilon=1e-9, eps_star=0.9)
    lo2, hi2 = adabound_bounds(1, c2)
    theta2, state2 = apply_step(c2, init_state(c2, 1), np.zeros(1), np.array([5.0]))
    assert theta2[0] == -lo2 * state2.s[0]  # raw rate far below lo -> clipped to lo

    report("3 adabound bounds", "monotone, bracket eps_star, converge at 1e6/gamma")


# ---------------------------------------------------------------------------
# Criterion 4: gradient checks
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_checks():
    start = time.time()
    h = 1e-6
    for name in ("cola_like", "stsb_like", "mrpc_like"):
        spec = dataclasses.replace(make_task_spec(name), feature_scale=1.0)
        data = make_dataset(spec, 60, seed=44)
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        n = sum(math.prod(shape) for _, shape in param_layout(spec))
        for _ in range(20):
            theta0 = rng.uniform(-0.4, 0.4, size=n)  # init_params at a larger scale
            idx = rng.choice(data.features.shape[0], size=5, replace=False)
            x, y = data.features[idx], data.targets[idx]
            _, grad = loss_and_grad(theta0, x, y, spec)
            fd = np.zeros_like(grad)
            for i in range(grad.size):
                for sign in (1.0, -1.0):
                    theta = theta0.copy()
                    theta[i] += sign * h
                    loss, _ = loss_and_grad(theta, x, y, spec)
                    fd[i] += sign * loss
            fd /= 2 * h
            err = np.linalg.norm(grad - fd) / max(np.linalg.norm(grad),
                                                  np.linalg.norm(fd), 1e-12)
            assert err < 1e-5
    elapsed = time.time() - start
    assert elapsed < 10.0
    report("4 gradient checks", f"logistic+linear+mlp, 20 probes each, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 5: metric oracle suite
# ---------------------------------------------------------------------------

def test_criterion_5_metric_oracle_suite():
    def labels(tp, fp, fn, tn):
        preds = [1] * tp + [1] * fp + [0] * fn + [0] * tn
        golds = [1] * tp + [0] * fp + [1] * fn + [0] * tn
        return np.array(preds), np.array(golds)

    for tp, fp, fn, tn in itertools.product(range(6), repeat=4):
        if tp + fp + fn + tn == 0:
            continue
        preds, golds = labels(tp, fp, fn, tn)
        denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
        mcc_ref = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
        np.testing.assert_allclose(matthews_corr(preds, golds), mcc_ref, atol=1e-12)
        f1s = []
        for tp_c, fp_c, fn_c in ((tp, fp, fn), (tn, fn, fp)):
            d = 2 * tp_c + fp_c + fn_c
            f1s.append(2 * tp_c / d if d else 0.0)
        np.testing.assert_allclose(macro_f1(preds, golds, 2), np.mean(f1s), atol=1e-12)

    # the three derived metric examples
    np.testing.assert_allclose(accuracy([0, 1, 1, 0], [0, 1, 0, 0]), 0.75)
    p, g = labels(6, 1, 2, 3)
    np.testing.assert_allclose(macro_f1(p, g, 2), 0.7333333333333333, rtol=1e-12)
    np.testing.assert_allclose(pearson_corr([1, 2, 3], [2, 4, 5]),
                               9 / math.sqrt(84), rtol=1e-12)

    rng = np.random.default_rng(505)
    for _ in range(1000):
        n = int(rng.integers(2, 30))
        p = rng.integers(0, 2, n)
        g = rng.integers(0, 2, n)
        assert 0.0 <= accuracy(p, g) <= 1.0
        assert 0.0 <= macro_f1(p, g, 2) <= 1.0
        assert -1.0 <= matthews_corr(p, g) <= 1.0
        assert matthews_corr(p, g) == matthews_corr(g, p)
        x, y = rng.normal(size=n), rng.normal(size=n)
        r = pearson_corr(x, y)
        assert -1.0 <= r <= 1.0
        np.testing.assert_allclose(pearson_corr(y, x), r, rtol=1e-12)
        a = float(rng.uniform(0.1, 3.0)) * (1 if rng.uniform() < 0.5 else -1)
        np.testing.assert_allclose(pearson_corr(a * x + 1.7, y), np.sign(a) * r,
                                   rtol=1e-8, atol=1e-12)

    report("5 metric oracle", "exhaustive confusion matrices <=5 + derived examples "
                              "+ 1000 random property checks")


# ---------------------------------------------------------------------------
# Criterion 6: protocol replication at desk scale
# ---------------------------------------------------------------------------

PROTOCOL_ARGS = [
    "run", "--quiet",
    "--task", "cola_like,stsb_like",
    "--optimizer", "all",
    "--regime", "all",
    "--trials", "30", "--splits", "5", "--epochs", "6",
    "--batch-size", "4", "--size", "240", "--seed", "20",
]


@pytest.fixture(scope="module")
def protocol_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("protocol")
    start = time.time()
    assert cli_main(PROTOCOL_ARGS + ["--out", str(out / "a")]) == 0
    assert cli_main(PROTOCOL_ARGS + ["--out", str(out / "b")]) == 0
    (out / "elapsed.txt").write_text(repr(time.time() - start))
    return out


def test_criterion_6_protocol_replication(protocol_dir):
    elapsed = float((protocol_dir / "elapsed.txt").read_text())
    assert elapsed < 600.0, f"protocol took {elapsed:.0f}s, budget is 600s"

    run_dir = protocol_dir / "a"
    # (a) report cells formatted as "mean (std)"
    report_text = (run_dir / "report.txt").read_text()
    import re
    cells = re.findall(r"-?\d+\.\d{2} \(\d+\.\d{2}\)", report_text)
    assert len(cells) >= 7 * 3 * 2  # 7 optimizers x 3 regimes x 2 tasks
    for regime in ("defaults", "lr_only", "full"):
        assert f"== regime: {regime} ==" in report_text

    # (b) tuned learning rates stay inside their search ranges,
    # (c) defaults-regime configs use the untuned table values verbatim
    studies = sorted(run_dir.glob("study_*.json"))
    assert len(studies) == 2 * 7 * 3 * 5
    for path in studies:
        study = load_study_json(path)
        expected_trials = 1 if study.regime is Regime.DEFAULTS else 30
        assert len(study.trials) == expected_trials
        hi = 1e-5 if study.optimizer in ADAPTIVE_KINDS else 1e-3
        for trial in study.trials:
            if study.regime is Regime.DEFAULTS:
                assert trial.config == default_config(study.optimizer)
            else:
                assert 1e-7 <= trial.config.epsilon <= hi

    # (d) end-to-end determinism of results.csv across identical runs
    bytes_a = (protocol_dir / "a" / "results.csv").read_bytes()
    bytes_b = (protocol_dir / "b" / "results.csv").read_bytes()
    assert bytes_a == bytes_b

    with open(run_dir / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 7 * 3 * 5
    report("6 protocol replication",
           f"42 experiments, 630 studies formatted/ranged/deterministic, "
           f"two full runs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 7: qualitative sanity
# ---------------------------------------------------------------------------

def test_criterion_7_tuning_helps_on_cola():
    task = make_task_spec("cola_like")
    results = {}
    for regime in (Regime.LR_ONLY, Regime.DEFAULTS):
        run = RunSpec(task=task, optimizer=OptimizerKind.ADAM, regime=regime,
                      epochs=4, n_splits=5, master_seed=20,
                      trial_budget=30, dataset_size=3000)
        results[regime] = run_experiment(run)
    tuned = results[Regime.LR_ONLY]
    defaults = results[Regime.DEFAULTS]
    tuned_mean = float(np.mean([s.test for s in tuned]))
    defaults_mean = float(np.mean([s.test for s in defaults]))
    assert defaults[0].trial.config.epsilon == 1e-3  # far outside [1e-7, 1e-5]
    assert all(1e-7 <= s.trial.config.epsilon <= 1e-5 for s in tuned)
    assert tuned_mean >= defaults_mean

    for splits in results.values():
        for split in splits:
            seq = split.study.best_so_far()
            assert all(a <= b for a, b in zip(seq, seq[1:]))

    report("7 qualitative sanity",
           f"tuned-lr Adam MCC {tuned_mean:.3f} >= defaults {defaults_mean:.3f}; "
           f"best-so-far nondecreasing in all studies")
