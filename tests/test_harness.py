"""Unit tests for the training loop, orchestration, and reporting."""

import csv
import dataclasses
import math
import re

import numpy as np
import pytest

from optbench import harness
from optbench.harness import (
    NoViableTrialError,
    RunSpec,
    ScoreRecord,
    aggregate_curve_files,
    experiment_data,
    format_cell,
    format_report,
    labeled_rng,
    labeled_seed,
    report_from_results_csv,
    run_experiment,
    run_study,
    train,
    write_report,
    write_run_outputs,
)
from optbench.metrics import MetricKind, evaluate
from optbench.optimizers import OptimizerKind, default_config
from optbench.tasks import (
    init_params,
    loss_and_grad,
    make_dataset,
    make_task_spec,
    predict,
    stratified_split,
)
from optbench.tuning import Regime, StudyRecord, TrialStatus

COLA = make_task_spec("cola_like")
STSB = make_task_spec("stsb_like")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_data(spec=COLA, size=80, data_seed=3, split_seed=1):
    """One split's train and dev partitions."""
    train_set, dev_set, _ = stratified_split(make_dataset(spec, size, seed=data_seed),
                                             split_seed=split_seed)
    return train_set, dev_set


# ---------------------------------------------------------------------------
# Labeled RNG streams
# ---------------------------------------------------------------------------

def test_labeled_streams_deterministic_and_distinct():
    a = labeled_rng(7, "x", 1).standard_normal(4)
    b = labeled_rng(7, "x", 1).standard_normal(4)
    c = labeled_rng(7, "x", 2).standard_normal(4)
    d = labeled_rng(8, "x", 1).standard_normal(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert labeled_seed(7, "s") == labeled_seed(7, "s") != labeled_seed(7, "t")


def test_learning_curve_validation(tmp_path):
    # a curve enters from outside only as a raw curve file, so its reader
    # checks what train builds right by construction
    write_raw_curves(tmp_path, [([0.5], {})])
    path = tmp_path / "curve_raw_cola_like_adam_full_split1.csv"
    for rows, match in (
        ("1,0.5,\n2,0.5,0.1\n2,0.5,0.1", "line 4: step 2, expected 3"),  # a repeated dev step
        ("1,0.5,\n2,inf,0.1", "line 3: cannot read loss 'inf'"),
        ("1,0.5,\n2,0.5,0.1\n3,nan,", "line 4: cannot read loss 'nan'"),
        ("1,0.5,\n2,0.5,nan", "line 3: matthews score must be finite and in [-1.0, 1], got nan"),
    ):
        path.write_text(f"step,loss,dev\n{rows}\n")
        with pytest.raises(ValueError, match=re.escape(match)):
            aggregate_curve_files(tmp_path)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_deterministic_bitwise():
    train_set, dev_set = small_data()
    config = default_config(OptimizerKind.ADAM)
    runs = [train(config, train_set, dev_set, epochs=4, batch_size=4, seed=11)
            for _ in range(2)]
    (p1, r1, l1), (p2, r2, l2) = runs
    np.testing.assert_array_equal(p1, p2)
    assert r1.epoch_scores == r2.epoch_scores
    np.testing.assert_array_equal(l1, l2)


def test_train_returns_best_epoch_snapshot():
    train_set, dev_set = small_data(size=120)
    config = default_config(OptimizerKind.ADAM)  # untuned rate oscillates
    found_mid_peak = False
    for seed in range(8):
        params, record, _ = train(config, train_set, dev_set, epochs=8, batch_size=4,
                                  seed=seed)
        k = record.best_epoch
        assert record.best_dev == max(record.epoch_scores)
        # retained snapshot scores exactly the recorded best dev value
        dev_score = evaluate(COLA, predict(params, dev_set.features, COLA), dev_set.targets)
        assert dev_score == record.best_dev
        # a truncated run with the same seed retains the same snapshot
        if k < len(record.epoch_scores) - 1:
            found_mid_peak = True
            params_trunc, record_trunc, _ = train(config, train_set, dev_set,
                                                  epochs=k + 1, batch_size=4, seed=seed)
            assert record_trunc.best_epoch == k
            np.testing.assert_array_equal(params_trunc, params)
    assert found_mid_peak  # at least one run must peak before the final epoch


def test_train_frozen_model_keeps_first_epoch():
    train_set, dev_set = small_data()
    config = dataclasses.replace(default_config(OptimizerKind.SGD), epsilon=1e-300)
    _, record, losses = train(config, train_set, dev_set, epochs=5, batch_size=4, seed=2)
    assert len(set(record.epoch_scores)) == 1
    assert record.best_epoch == 0
    # every epoch ran in full: five dev scores, one per epoch's last step
    assert len(record.epoch_scores) == 5
    assert losses.size == 5 * (train_set.targets.size // 4)


def test_train_step_and_dev_indices_align(tmp_path):
    # the raw curve holds the chosen trial's dev score on each epoch's last step
    run = run_spec(optimizer=OptimizerKind.SGDM, regime=Regime.DEFAULTS, n_splits=1)
    data = experiment_data(run)
    (split,) = run_experiment(run, data)
    write_run_outputs(run, [split], tmp_path)
    rows = read_csv(tmp_path / "curve_raw_cola_like_sgdm_defaults_split1.csv")
    steps_per_epoch = math.ceil(data[0][0].targets.size / 4)
    assert split.losses.size == len(rows) == 3 * steps_per_epoch
    assert [int(r["step"]) for r in rows if r["dev"]] == [steps_per_epoch * (k + 1)
                                                         for k in range(3)]
    assert [float(r["dev"]) for r in rows if r["dev"]] == list(split.trial.epoch_scores)
    assert len(split.trial.epoch_scores) == 3


def test_train_marks_divergence():
    spec = dataclasses.replace(STSB, feature_scale=300.0)
    train_set, dev_set = small_data(spec, data_seed=5)
    config = default_config(OptimizerKind.SGD)  # 1e-3 is unstable at this scale
    params, record, losses = train(config, train_set, dev_set, epochs=6, batch_size=4, seed=1)
    assert record.status is TrialStatus.DIVERGED
    assert record.best_dev == -math.inf
    assert np.isfinite(losses).all()


@pytest.mark.parametrize("fault", ["theta", "loss"])
def test_train_stops_at_first_nonfinite_step(monkeypatch, fault):
    train_set, dev_set = small_data()
    config = default_config(OptimizerKind.ADAM)
    first_params, _, first_losses = train(config, train_set, dev_set, epochs=1,
                                          batch_size=4, seed=6)
    _, _, full_losses = train(config, train_set, dev_set, epochs=3, batch_size=4, seed=6)
    bad_call = first_losses.size + 3  # a step in the middle of epoch 2

    def fault_at(real, spoil):
        calls = []

        def wrapper(*args):
            calls.append(None)
            out = real(*args)
            return spoil(*out) if len(calls) == bad_call else out
        return wrapper

    if fault == "theta":
        monkeypatch.setattr(harness, "apply_step", fault_at(
            harness.apply_step, lambda theta, state: (np.full_like(theta, np.nan), state)))
    else:
        monkeypatch.setattr(harness, "loss_and_grad", fault_at(
            harness.loss_and_grad, lambda loss, grad: (math.inf, grad)))
    params, record, losses = train(config, train_set, dev_set, epochs=3, batch_size=4, seed=6)
    assert record.status is TrialStatus.DIVERGED
    assert record.best_dev == -math.inf
    assert len(record.epoch_scores) == 1
    # the loss of the step whose update failed is kept; an inf loss is not
    n_losses = bad_call if fault == "theta" else bad_call - 1
    np.testing.assert_array_equal(losses, full_losses[:n_losses])
    np.testing.assert_array_equal(params, first_params)


def test_train_rejects_oversized_batch():
    train_set, dev_set = small_data()
    with pytest.raises(ValueError):
        train(default_config(OptimizerKind.SGD), train_set, dev_set, epochs=1,
              batch_size=train_set.targets.size + 1, seed=0)


def test_train_prune_hook_stops_early():
    train_set, dev_set = small_data()
    config = default_config(OptimizerKind.ADAM)
    _, record, _ = train(config, train_set, dev_set, epochs=6, batch_size=4, seed=3,
                         prune_hook=lambda epoch, score: epoch >= 1)
    assert record.status is TrialStatus.PRUNED
    assert len(record.epoch_scores) == 2


# ---------------------------------------------------------------------------
# run_study
# ---------------------------------------------------------------------------

def run_spec(task=COLA, optimizer=OptimizerKind.ADAM, regime=Regime.LR_ONLY, **kw):
    defaults = dict(epochs=3, batch_size=4, n_splits=2, master_seed=9,
                    trial_budget=6, dataset_size=80)
    defaults.update(kw)
    return RunSpec(task=task, optimizer=optimizer, regime=regime, **defaults)


def run_study_scoring(monkeypatch, run, train_set, dev_set, test_set, repetition=1):
    """``run_study``'s SplitResult and the θ it scored on the test partition, taken
    from the one ``predict`` call on the test features."""
    scored = []

    def recording_predict(theta, features, spec):
        if features is test_set.features:
            scored.append(theta)
        return predict(theta, features, spec)

    monkeypatch.setattr(harness, "predict", recording_predict)
    outcome = run_study(run, train_set, dev_set, test_set, repetition=repetition)
    (theta,) = scored
    return outcome, theta


def test_run_study_defaults_regime_single_table_trial(monkeypatch):
    run = run_spec(regime=Regime.DEFAULTS)
    train_set, dev_set, test_set = experiment_data(run)[0]
    outcome, theta = run_study_scoring(monkeypatch, run, train_set, dev_set, test_set)
    assert len(outcome.study.trials) == 1
    assert outcome.study.trials[0].config == default_config(OptimizerKind.ADAM)
    assert outcome.trial is outcome.study.trials[0]
    # the chosen trial's best-epoch θ, scored once on the test partition
    chosen, record, _ = train(outcome.trial.config, train_set, dev_set, epochs=run.epochs,
                              batch_size=run.batch_size,
                              seed=labeled_seed(run.master_seed, COLA.name, "adam", 1,
                                                "trial", 0))
    assert record == outcome.trial
    np.testing.assert_array_equal(theta, chosen)
    assert outcome.test == evaluate(COLA, predict(chosen, test_set.features, COLA),
                                    test_set.targets)


def test_run_study_budget_accounting():
    for regime, expected in ((Regime.LR_ONLY, 6), (Regime.FULL, 6), (Regime.DEFAULTS, 1)):
        run = run_spec(regime=regime)
        outcome = run_study(run, *experiment_data(run)[0], repetition=1)
        assert len(outcome.study.trials) == expected


def test_run_study_seeds_defaults_for_sgd_family_only():
    for kind, seeded in ((OptimizerKind.SGD, True), (OptimizerKind.SGDM, True),
                         (OptimizerKind.ADAM, False)):
        run = run_spec(optimizer=kind)
        outcome = run_study(run, *experiment_data(run)[0], repetition=1)
        first = outcome.study.trials[0].config
        assert (first == default_config(kind)) == seeded


def test_run_study_sampler_seed_replays_its_configs():
    # the stored sampler_seed is the seed of the stream that drew every config
    for kind in (OptimizerKind.SGDM, OptimizerKind.ADAM):
        run = run_spec(optimizer=kind, regime=Regime.FULL)
        study = run_study(run, *experiment_data(run)[0], repetition=1).study
        replay = StudyRecord(optimizer=kind, regime=Regime.FULL,
                             sampler_seed=study.sampler_seed, max_trials=run.trial_budget)
        for trial in study.trials:
            assert replay.ask() == trial.config
            replay.add(trial)
        assert replay.full


@pytest.mark.parametrize("kind", [OptimizerKind.SGD, OptimizerKind.SGDM])
def test_regime_ordering_lr_only_beats_defaults(kind):
    # the defaults config sits inside the SGD/SGDM learning-rate range, so a
    # tuned study can never report a worse best dev score than defaults
    for regime_pair_seed in (1, 2):
        base = dict(task=STSB, optimizer=kind, epochs=3, master_seed=regime_pair_seed,
                    trial_budget=5, dataset_size=80)
        run_lr = run_spec(regime=Regime.LR_ONLY, **base)
        run_def = run_spec(regime=Regime.DEFAULTS, **base)
        parts = experiment_data(run_lr)[0]
        best_lr = run_study(run_lr, *parts, repetition=1).trial.best_dev
        best_def = run_study(run_def, *parts, repetition=1).trial.best_dev
        assert best_lr >= best_def


def test_run_study_full_beats_own_first_trial():
    run = run_spec(regime=Regime.FULL, trial_budget=8)
    outcome = run_study(run, *experiment_data(run)[0], repetition=1)
    assert outcome.trial.best_dev >= outcome.study.trials[0].best_dev


def test_run_study_suggested_configs_within_ranges():
    run = run_spec(optimizer=OptimizerKind.ADABOUND, regime=Regime.FULL, trial_budget=12)
    outcome = run_study(run, *experiment_data(run)[0], repetition=1)
    for trial in outcome.study.trials:
        c = trial.config
        assert 1e-7 <= c.epsilon <= 1e-5
        assert 0.8 <= c.rho1 <= 0.95
        assert 0.9 <= c.rho2 <= 0.99999
        assert 1e-9 <= c.delta <= 1e-7
        assert 1e-2 <= c.eps_star <= 1e-1
        assert 1e-4 <= c.gamma <= 2e-3


def test_run_study_pruned_trials_were_below_contemporaneous_median():
    run = run_spec(task=COLA, optimizer=OptimizerKind.ADAM, regime=Regime.LR_ONLY,
                   epochs=6, trial_budget=25, dataset_size=120, master_seed=3)
    outcome = run_study(run, *experiment_data(run)[0], repetition=1)
    trials = outcome.study.trials
    pruned = [i for i, t in enumerate(trials) if t.status is TrialStatus.PRUNED]
    assert pruned, "expected at least one pruned trial in this study"
    for i in pruned:
        epoch = len(trials[i].epoch_scores) - 1
        assert epoch >= 1  # never pruned during the warmup epoch
        peers = [t.epoch_scores[epoch] for t in trials[:i]
                 if t.status is TrialStatus.COMPLETED and len(t.epoch_scores) > epoch]
        assert len(peers) >= 5
        assert trials[i].epoch_scores[epoch] < np.median(peers)


def test_run_study_no_viable_trial():
    spec = dataclasses.replace(STSB, feature_scale=300.0)
    run = run_spec(task=spec, optimizer=OptimizerKind.SGD, regime=Regime.DEFAULTS,
                   epochs=8)
    parts = experiment_data(run)[0]
    with pytest.raises(NoViableTrialError):
        run_study(run, *parts, repetition=1)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def score_record(run, splits):
    return ScoreRecord(task=run.task, optimizer=run.optimizer, regime=run.regime,
                       scores=tuple(s.test for s in splits))


def test_run_experiment_cardinality_and_aggregates():
    run = run_spec(optimizer=OptimizerKind.SGD, task=STSB, n_splits=3, trial_budget=3)
    splits = run_experiment(run, experiment_data(run))
    assert [s.repetition for s in splits] == [1, 2, 3]
    rec = score_record(run, splits)
    scores = np.array([s.test for s in splits])
    assert rec.scores == tuple(scores)
    assert rec.mean == pytest.approx(scores.mean(), abs=1e-15)
    assert rec.std == pytest.approx(scores.std(ddof=0), abs=1e-15)


def test_run_experiment_deterministic():
    run = run_spec(task=STSB, optimizer=OptimizerKind.ADAM, n_splits=2, trial_budget=4)
    a, b = (run_experiment(run, experiment_data(run)) for _ in range(2))
    for sa, sb in zip(a, b):
        assert sa.test == sb.test
        assert sa.trial.config == sb.trial.config
        np.testing.assert_array_equal(sa.losses, sb.losses)


def per_split_data(run, repetition):
    """One split's partitions as a separate build for each split makes them."""
    task = run.task
    data_label = repetition if task.resample_per_split else 0
    dataset = make_dataset(task, run.dataset_size,
                           labeled_seed(run.master_seed, task.name, "data", data_label))
    return stratified_split(
        dataset, labeled_seed(run.master_seed, task.name, "split", repetition))


def sample_values(parts):
    """Every feature value of a split's partitions, sorted: the sample it cut."""
    return np.sort(np.concatenate([part.features for part in parts]), axis=None)


def test_experiment_data_resampling_policy():
    static = run_spec(task=COLA, n_splits=3)
    s1, s2, s3 = experiment_data(static)
    # one dataset, re-split
    np.testing.assert_array_equal(sample_values(s1), sample_values(s2))
    np.testing.assert_array_equal(sample_values(s1), sample_values(s3))
    assert not np.array_equal(s1[0].features, s2[0].features)
    resampled = run_spec(task=make_task_spec("sst2_like"), n_splits=3)
    samples = [sample_values(parts) for parts in experiment_data(resampled)]
    assert not np.array_equal(samples[0], samples[1])
    assert not np.array_equal(samples[1], samples[2])
    # each split's partitions are the ones a build of that split alone gives
    for run in (static, resampled):
        for repetition, parts in enumerate(experiment_data(run), start=1):
            for part, alone in zip(parts, per_split_data(run, repetition), strict=True):
                np.testing.assert_array_equal(part.features, alone.features)
                np.testing.assert_array_equal(part.targets, alone.targets)


@pytest.mark.parametrize("task, optimizer", [(COLA, OptimizerKind.ADAM),
                                             (STSB, OptimizerKind.SGDM)], ids=["cola", "stsb"])
def test_run_study_reads_no_test_rows(task, optimizer, monkeypatch):
    # tuning sees the train and dev partitions only: other test rows change
    # the test score and nothing else
    run = run_spec(task=task, optimizer=optimizer, regime=Regime.FULL, n_splits=1,
                   trial_budget=4)
    train_set, dev_set, test_set = experiment_data(run)[0]
    negated = dataclasses.replace(test_set, features=-test_set.features)
    a, theta_a = run_study_scoring(monkeypatch, run, train_set, dev_set, test_set)
    b, theta_b = run_study_scoring(monkeypatch, run, train_set, dev_set, negated)
    assert a.study == b.study  # every trial's config, epoch scores and status
    np.testing.assert_array_equal(theta_a, theta_b)
    np.testing.assert_array_equal(a.losses, b.losses)
    assert a.trial.epoch_scores == b.trial.epoch_scores
    assert b.test == evaluate(task, predict(theta_b, negated.features, task), negated.targets)
    assert a.test != b.test


def test_run_experiment_error_names_split():
    spec = dataclasses.replace(STSB, feature_scale=300.0)
    run = run_spec(task=spec, optimizer=OptimizerKind.SGD, regime=Regime.DEFAULTS,
                   epochs=8)
    with pytest.raises(NoViableTrialError, match="split 1"):
        run_experiment(run, experiment_data(run))


# ---------------------------------------------------------------------------
# Aggregation and report formatting
# ---------------------------------------------------------------------------

def fake_result(values, task=COLA, optimizer=OptimizerKind.ADAM, regime=Regime.FULL):
    return ScoreRecord(task=task, optimizer=optimizer, regime=regime, scores=tuple(values))


def test_population_std_worked_example():
    res = fake_result([0.90, 0.92, 0.91, 0.89, 0.93])
    assert res.mean == pytest.approx(0.91, abs=1e-12)
    assert res.std == pytest.approx(0.014142135623730963, abs=1e-12)


def test_format_cell_styles():
    assert format_cell(MetricKind.ACCURACY, 0.91613, 0.01049) == "91.61 (1.05)"
    assert format_cell(MetricKind.MACRO_F1, 0.8101, 0.0109) == "81.01 (1.09)"
    assert format_cell(MetricKind.MATTHEWS, 0.531, 0.032) == "0.53 (0.03)"
    assert format_cell(MetricKind.PEARSON, 0.8666, 0.0102) == "0.87 (0.01)"


def test_format_report_single_result():
    res = fake_result([0.9, 0.9])  # cola_like: Matthews
    text = format_report([res])
    assert "== regime: full ==" in text
    assert "Adam" in text and "cola_like" in text
    assert "0.90 (0.00)*" in text  # sole entry is flagged best
    with pytest.raises(ValueError):
        format_report([])


def test_format_report_flags_best_per_column():
    sst2 = make_task_spec("sst2_like")  # accuracy, a percent-scale metric
    good = fake_result([0.9, 0.9], task=sst2, optimizer=OptimizerKind.ADAM)
    worse = fake_result([0.7, 0.7], task=sst2, optimizer=OptimizerKind.SGD)
    text = format_report([good, worse])
    assert "90.00 (0.00)*" in text
    assert "70.00 (0.00)*" not in text and "70.00 (0.00)" in text


def write_raw_curves(out_dir, splits):
    """Hand-written ``curve_raw_cola_like_adam_full_split<k>.csv`` files, one per
    (losses, {step: dev score}) pair, with steps numbered from 1, and the
    results.csv that lists those splits."""
    results = ["task,optimizer,regime,split,test_score,best_dev,best_epoch"]
    for k, (losses, devs) in enumerate(splits, start=1):
        lines = ["step,loss,dev"]
        for step, loss in enumerate(losses, start=1):
            lines.append(f"{step},{loss!r}," + (repr(devs[step]) if step in devs else ""))
        (out_dir / f"curve_raw_cola_like_adam_full_split{k}.csv").write_text(
            "\n".join(lines) + "\n")
        results.append(f"cola_like,adam,full,{k},0.5,0.5,0")
    (out_dir / "results.csv").write_text("\n".join(results) + "\n")


def test_aggregate_curve_files_mean_and_std(tmp_path):
    write_raw_curves(tmp_path, [([0.4, 0.4], {2: 0.5}), ([0.6, 0.6], {2: 0.7})])
    (path,) = aggregate_curve_files(tmp_path)
    assert path.name == "curve_cola_like_adam_full.csv"
    rows = read_csv(path)
    assert [r["step"] for r in rows] == ["1", "2"]
    assert float(rows[0]["mean_loss"]) == pytest.approx(0.5)
    assert float(rows[0]["std_loss"]) == pytest.approx(0.1)
    assert rows[0]["mean_dev"] == ""
    assert float(rows[1]["mean_dev"]) == pytest.approx(0.6)
    assert float(rows[1]["std_dev"]) == pytest.approx(0.1)


def test_aggregate_curve_files_identical_splits_zero_std(tmp_path):
    write_raw_curves(tmp_path, [([0.5, 0.3, 0.2], {3: 0.8})] * 5)
    (path,) = aggregate_curve_files(tmp_path)
    rows = read_csv(path)
    assert all(float(r["std_loss"]) == 0.0 for r in rows)
    assert float(rows[0]["mean_loss"]) == pytest.approx(0.5)


@pytest.mark.parametrize("second", [([0.6, 0.6], {2: 0.7}),
                                    ([0.6, 0.6, 0.6], {1: 0.7, 2: 0.7, 3: 0.7})],
                         ids=["fewer steps", "other dev step"])
def test_aggregate_curve_files_rejects_splits_of_two_runs(tmp_path, second):
    write_raw_curves(tmp_path, [([0.4, 0.4, 0.4], {3: 0.5}), second])
    with pytest.raises(ValueError) as info:
        aggregate_curve_files(tmp_path)
    assert str(info.value) == (
        f"{tmp_path / 'curve_raw_cola_like_adam_full_split*.csv'} differ in step count "
        "or dev steps: a run directory holds each experiment once")
    assert not (tmp_path / "curve_cola_like_adam_full.csv").exists()


def test_aggregate_curve_files_rejects_gapped_steps(tmp_path):
    write_raw_curves(tmp_path, [([0.4], {})])
    (tmp_path / "curve_raw_cola_like_adam_full_split1.csv").write_text(
        "step,loss,dev\n1,0.4,\n3,0.4,\n5,0.4,0.5\n")
    with pytest.raises(ValueError, match="line 3: step 3, expected 2"):
        aggregate_curve_files(tmp_path)


# ---------------------------------------------------------------------------
# Run-directory persistence
# ---------------------------------------------------------------------------

def test_write_run_outputs_and_rebuild(tmp_path):
    run = run_spec(task=STSB, optimizer=OptimizerKind.SGD, n_splits=2, trial_budget=3)
    splits = run_experiment(run, experiment_data(run))
    write_run_outputs(run, splits, tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {
        "results.csv",
        "study_stsb_like_sgd_lr_only_split1.json",
        "study_stsb_like_sgd_lr_only_split2.json",
        "curve_raw_stsb_like_sgd_lr_only_split1.csv",
        "curve_raw_stsb_like_sgd_lr_only_split2.csv",
        "curve_stsb_like_sgd_lr_only.csv",
    }
    rows = read_csv(tmp_path / "results.csv")
    assert len(rows) == 2
    assert rows[0]["task"] == "stsb_like"
    assert float(rows[0]["test_score"]) == pytest.approx(splits[0].test)
    text = report_from_results_csv(tmp_path)
    assert text == (tmp_path / "report.txt").read_text()
    assert "SGD" in text and "stsb_like" in text
    # the report read back from results.csv is the one the scores in memory give
    assert write_report([score_record(run, splits)], tmp_path / "memory") == text
    for name in ("report.txt", "report.csv"):
        assert (tmp_path / "memory" / name).read_bytes() == (tmp_path / name).read_bytes()
    written = (tmp_path / "curve_stsb_like_sgd_lr_only.csv").read_bytes()
    agg = aggregate_curve_files(tmp_path)
    assert [p.name for p in agg] == ["curve_stsb_like_sgd_lr_only.csv"]
    assert agg[0].read_bytes() == written
    # a second write appends its rows under the one header, and the results
    # reader refuses the experiment it now holds twice
    write_run_outputs(run, splits, tmp_path)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert len(lines) == 5 and lines[1:3] == lines[3:5]
    with pytest.raises(ValueError) as info:
        report_from_results_csv(tmp_path)
    assert str(info.value) == (
        f"{tmp_path / 'results.csv'} line 4: split 1 of stsb_like/sgd/lr_only, expected 3 "
        "(an experiment's splits run 1, 2, 3, ...)")


def expected_curve_rows(curves):
    """CSV rows of the pointwise mean/std of equal-length (losses, epoch scores)
    pairs, each step reduced over the splits in the given order, with the dev
    scores on each epoch's last step."""
    n_steps, n_epochs = len(curves[0][0]), len(curves[0][1])
    dev_index = {(j + 1) * (n_steps // n_epochs): j for j in range(n_epochs)}
    rows = []
    for step in range(1, n_steps + 1):
        losses = np.array([c[0][step - 1] for c in curves])
        row = [str(step), repr(float(losses.mean())), repr(float(losses.std()))]
        j = dev_index.get(step)
        if j is None:
            row += ["", ""]
        else:
            devs = np.array([c[1][j] for c in curves])
            row += [repr(float(devs.mean())), repr(float(devs.std()))]
        rows.append(row)
    return rows


def test_aggregate_curve_files_matches_run_with_ten_plus_splits(tmp_path):
    # split10 sorts before split2 by name; the float sums depend on the order,
    # and curves come in the order of the experiments' first results.csv rows
    runs = [run_spec(task=STSB, optimizer=kind, regime=Regime.DEFAULTS, n_splits=12,
                     epochs=2, dataset_size=60)
            for kind in (OptimizerKind.SGD, OptimizerKind.ADAM)]
    results = [run_experiment(run, experiment_data(run)) for run in runs]
    for run, splits in zip(runs, results):
        write_run_outputs(run, splits, tmp_path)
    names = ["curve_stsb_like_sgd_defaults.csv", "curve_stsb_like_adam_defaults.csv"]
    written = [(tmp_path / name).read_bytes() for name in names]
    rebuilt = aggregate_curve_files(tmp_path)
    assert [p.name for p in rebuilt] == names
    # the rebuild from raw curve files writes the bytes the run wrote from memory
    assert [p.read_bytes() for p in rebuilt] == written
    for run, splits in zip(runs, results):
        path = tmp_path / f"curve_stsb_like_{run.optimizer.value}_defaults.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "mean_loss", "std_loss", "mean_dev", "std_dev"]
        assert rows[1:] == expected_curve_rows(
            [(s.losses, s.trial.epoch_scores) for s in splits]), path.name


# ---------------------------------------------------------------------------
# Convergence sanity on the convex regression task
# ---------------------------------------------------------------------------

def gd_line_search_loss(spec, x, y, iters=400, seed=0):
    """Full-batch GD with backtracking line search; the loss oracle."""
    theta = init_params(spec, labeled_rng(seed, "init")).copy()
    loss, grad = loss_and_grad(theta, x, y, spec)
    for _ in range(iters):
        eta = 1.0
        while eta > 1e-12:
            cand = theta - eta * grad
            new_loss, new_grad = loss_and_grad(cand, x, y, spec)
            if new_loss <= loss - 0.5 * eta * float(grad @ grad):
                theta, loss, grad = cand, new_loss, new_grad
                break
            eta *= 0.5
    return loss


def test_tuned_sgd_matches_line_searched_gd_on_convex_task(monkeypatch):
    run = RunSpec(task=STSB, optimizer=OptimizerKind.SGD, regime=Regime.LR_ONLY,
                  epochs=100, batch_size=4, n_splits=1, master_seed=5,
                  trial_budget=30, dataset_size=150)
    parts = experiment_data(run)[0]
    x, y = parts[0].features, parts[0].targets
    gd_loss = gd_line_search_loss(STSB, x, y)
    _, theta = run_study_scoring(monkeypatch, run, *parts)
    tuned_loss, _ = loss_and_grad(theta, x, y, STSB)
    assert tuned_loss <= gd_loss + 1e-2
