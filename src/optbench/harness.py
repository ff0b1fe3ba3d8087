"""Experiment harness: training loop, study orchestration, and reporting.

One experiment = (task, optimizer, regime) evaluated over five stratified
train/dev/test splits. Per split, a budgeted study (at most 30 trials) picks
a configuration by maximizing the dev metric; each trial trains with
mini-batches (default batch size 4), keeps the parameter snapshot from its
best dev epoch, and may be stopped early by median pruning. The chosen
trial's snapshot is scored once on the test partition, and the per-split
test scores are aggregated as mean and population standard deviation.

Every random choice is drawn from a stream derived from the master seed and
a fixed label path, so a whole experiment is a pure function of its RunSpec
and two runs with the same seed produce identical output files.
"""

from __future__ import annotations

import csv
import math
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from optbench.metrics import MetricKind, MetricValue, evaluate
from optbench.optimizers import (
    NonFiniteError,
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    default_config,
    init_state,
)
from optbench.tasks import (
    DataSplit,
    Dataset,
    ModelParams,
    NonFiniteLossError,
    TaskSpec,
    epoch_batches,
    init_params,
    loss_and_grad,
    make_dataset,
    make_task_spec,
    predict,
    stratified_split,
)
from optbench.tuning import (
    MAX_TRIALS,
    Regime,
    StudyRecord,
    TrialRecord,
    TrialStatus,
    best_trial,
    save_study_json,
    search_space,
    should_prune,
    suggest,
)

__all__ = [
    "RunSpec",
    "LearningCurve",
    "SplitResult",
    "ExperimentResult",
    "ScoreRecord",
    "NoViableTrialError",
    "labeled_rng",
    "labeled_seed",
    "train",
    "run_study",
    "StudyOutcome",
    "experiment_data",
    "run_experiment",
    "format_report",
    "write_report",
    "export_curves",
    "write_results_csv",
    "write_run_outputs",
    "aggregate_curve_files",
    "report_from_results_csv",
]

SPLIT_RATIOS = (0.8, 0.1, 0.1)

# Fixed display order for report rows.
_REPORT_ORDER = (
    OptimizerKind.ADABOUND,
    OptimizerKind.ADAMW,
    OptimizerKind.ADAMAX,
    OptimizerKind.NADAM,
    OptimizerKind.ADAM,
    OptimizerKind.SGDM,
    OptimizerKind.SGD,
)


class NoViableTrialError(RuntimeError):
    """Every trial of a study diverged; there is nothing to evaluate."""


def labeled_rng(master_seed: int, *labels) -> np.random.Generator:
    """Independent generator for the stream named by ``labels``."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(master_seed, labels)))


def labeled_seed(master_seed: int, *labels) -> int:
    """Stable integer seed for the stream named by ``labels``."""
    seq = np.random.SeedSequence(_entropy(master_seed, labels))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _entropy(master_seed: int, labels) -> list[int]:
    words = [int(master_seed) % 2**32]
    for label in labels:
        if isinstance(label, (int, np.integer)):
            words.append(int(label) % 2**32)
        else:
            words.append(zlib.crc32(str(label).encode("utf-8")))
    return words


@dataclass(frozen=True)
class RunSpec:
    """Protocol parameters for one (task, optimizer, regime) experiment."""

    task: TaskSpec
    optimizer: OptimizerKind
    regime: Regime
    epochs: int = 20
    batch_size: int = 4
    n_splits: int = 5
    master_seed: int = 0
    trial_budget: int = MAX_TRIALS
    dataset_size: int = 240

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        if not 1 <= self.trial_budget <= MAX_TRIALS:
            raise ValueError(f"trial_budget must be in [1, {MAX_TRIALS}]")
        if self.dataset_size < 50:
            raise ValueError("dataset_size must be >= 50")


@dataclass(frozen=True)
class LearningCurve:
    """Training loss per step plus dev score at each epoch's final step."""

    steps: np.ndarray
    losses: np.ndarray
    dev_steps: np.ndarray
    dev_scores: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.steps) <= 0) or np.any(np.diff(self.dev_steps) <= 0):
            raise ValueError("step indices must be strictly increasing")
        if not np.isfinite(self.losses).all():
            raise ValueError("losses must be finite")


def train(config: OptimizerConfig, dataset: Dataset, split: DataSplit, *,
          epochs: int, batch_size: int, seed: int, prune_hook=None
          ) -> tuple[ModelParams, TrialRecord, LearningCurve]:
    """Train one configuration on one split.

    Runs ``epochs`` passes of shuffled mini-batches, logging the training
    loss at every step and the dev score after every epoch. Returns the
    parameter snapshot from the epoch with the highest dev score (earliest
    epoch on ties). ``prune_hook(epoch, dev_score) -> bool`` may stop the
    trial early (status ``pruned``); a non-finite loss or update stops it
    with status ``diverged``, whose score is treated as -inf downstream.
    """
    spec = dataset.spec
    params = init_params(spec, labeled_rng(seed, "init"))
    batch_rng = labeled_rng(seed, "batches")
    state = init_state(config, params.theta.shape[0])
    features, targets = dataset.features, dataset.targets
    dev_x, dev_y = features[split.dev], targets[split.dev]

    steps, losses, dev_steps, dev_scores = [], [], [], []
    best_dev, best_theta = -math.inf, params.theta
    status = TrialStatus.COMPLETED
    step = 0
    # divergence (overflow to inf/NaN) is normal control flow here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for epoch in range(epochs):
            diverged = False
            for batch in epoch_batches(split, batch_size, batch_rng):
                try:
                    loss, grad = loss_and_grad(params, features[batch],
                                               targets[batch], spec)
                except NonFiniteLossError:
                    diverged = True
                    break
                if not math.isfinite(loss):  # finite per-example, overflowing mean
                    diverged = True
                    break
                step += 1
                steps.append(step)
                losses.append(loss)
                try:
                    theta2, state = apply_step(config, state, params.theta, grad)
                except NonFiniteError:
                    diverged = True
                    break
                params = ModelParams(theta=theta2, layout=params.layout)
            if diverged or not np.isfinite(params.theta).all():
                status = TrialStatus.DIVERGED
                break
            score = evaluate(spec, predict(params, dev_x, spec), dev_y).value
            dev_steps.append(step)
            dev_scores.append(score)
            if score > best_dev:
                best_dev, best_theta = score, params.theta
            if prune_hook is not None and prune_hook(epoch, score):
                status = TrialStatus.PRUNED
                break

    record = TrialRecord.finish(config, dev_scores, status)
    curve = LearningCurve(
        steps=np.asarray(steps, dtype=np.int64),
        losses=np.asarray(losses, dtype=np.float64),
        dev_steps=np.asarray(dev_steps, dtype=np.int64),
        dev_scores=np.asarray(dev_scores, dtype=np.float64),
    )
    return ModelParams(theta=best_theta, layout=params.layout), record, curve


@dataclass
class StudyOutcome:
    """A finished study plus the artifacts of its best completed trial."""

    record: StudyRecord
    best_params: ModelParams
    best_curve: LearningCurve
    best_record: TrialRecord


def run_study(run: RunSpec, dataset: Dataset, split: DataSplit, repetition: int
              ) -> StudyOutcome:
    """Suggest/train/record loop up to the regime's trial budget.

    The defaults regime runs exactly one trial with the untuned values. In
    the tuning regimes, trial 0 is seeded with the default configuration
    whenever it lies inside the search space (true for SGD and SGDM, whose
    default learning rate is within range), so a tuned study can never
    report a worse dev score than the defaults run.
    """
    budget = 1 if run.regime is Regime.DEFAULTS else run.trial_budget
    space = search_space(run.optimizer, run.regime)
    sampler_seed = labeled_seed(run.master_seed, run.task.name, run.optimizer.value,
                                run.regime.value, repetition, "sampler")
    study = StudyRecord(optimizer=run.optimizer, regime=run.regime,
                        sampler_seed=sampler_seed, max_trials=budget)
    sampler_rng = np.random.default_rng(sampler_seed)
    defaults = default_config(run.optimizer)
    artifacts = []  # (params, curve) of each trial, in study.trials order
    for trial_index in range(budget):
        if run.regime is Regime.DEFAULTS:
            config = defaults
        elif trial_index == 0 and space.contains(defaults):
            config = defaults
        else:
            config = suggest(study, space, sampler_rng)
        train_seed = labeled_seed(run.master_seed, run.task.name, run.optimizer.value,
                                  repetition, "trial", trial_index)
        params, record, curve = train(
            config, dataset, split, epochs=run.epochs, batch_size=run.batch_size,
            seed=train_seed,
            prune_hook=lambda epoch, score: should_prune(study, epoch, score),
        )
        study.add(record)
        artifacts.append((params, curve))
    try:
        best = best_trial(study)
    except ValueError:
        raise NoViableTrialError(
            f"every trial diverged: {run.task.name}/{run.optimizer.value}"
            f"/{run.regime.value} repetition {repetition}"
        ) from None
    params, curve = artifacts[next(i for i, t in enumerate(study.trials) if t is best)]
    return StudyOutcome(record=study, best_params=params, best_curve=curve,
                        best_record=best)


@dataclass(frozen=True)
class SplitResult:
    repetition: int
    test: MetricValue
    best_dev: float
    best_epoch: int
    config: OptimizerConfig
    curve: LearningCurve
    study: StudyRecord


@dataclass(frozen=True)
class ScoreRecord:
    """What a report needs of one experiment: its key, its metric and the
    test score of each split, in split order."""

    task: str
    optimizer: OptimizerKind
    regime: Regime
    metric: MetricKind
    scores: tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        """Population standard deviation (ddof=0) across splits."""
        return float(np.std(self.scores))


@dataclass(frozen=True)
class ExperimentResult:
    """Per-(task, optimizer, regime) outcome of every split."""

    task: TaskSpec
    optimizer: OptimizerKind
    regime: Regime
    splits: tuple[SplitResult, ...]

    @property
    def record(self) -> ScoreRecord:
        return ScoreRecord(task=self.task.name, optimizer=self.optimizer,
                           regime=self.regime, metric=self.task.metric,
                           scores=tuple(s.test.value for s in self.splits))


def experiment_data(run: RunSpec, repetition: int) -> tuple[Dataset, DataSplit]:
    """Dataset and stratified split for one repetition (1-based).

    Tasks flagged ``resample_per_split`` regenerate their dataset in every
    repetition; the others keep one dataset and only re-split it.
    """
    task = run.task
    data_label = repetition if task.resample_per_split else 0
    dataset = make_dataset(task, run.dataset_size,
                           labeled_seed(run.master_seed, task.name, "data", data_label))
    split = stratified_split(dataset, SPLIT_RATIOS,
                             labeled_seed(run.master_seed, task.name, "split", repetition))
    return dataset, split


def run_experiment(run: RunSpec) -> ExperimentResult:
    """Run the full five-split protocol for one (task, optimizer, regime)."""
    task = run.task
    results = []
    for repetition in range(1, run.n_splits + 1):
        dataset, split = experiment_data(run, repetition)
        try:
            outcome = run_study(run, dataset, split, repetition)
        except NoViableTrialError as exc:
            raise NoViableTrialError(f"split {repetition}: {exc}") from exc
        test_x = dataset.features[split.test]
        test_y = dataset.targets[split.test]
        score = evaluate(task, predict(outcome.best_params, test_x, task), test_y)
        results.append(SplitResult(
            repetition=repetition, test=score,
            best_dev=outcome.best_record.best_dev,
            best_epoch=outcome.best_record.best_epoch,
            config=outcome.best_record.config, curve=outcome.best_curve,
            study=outcome.record,
        ))
    return ExperimentResult(task=task, optimizer=run.optimizer, regime=run.regime,
                            splits=tuple(results))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_cell(kind: MetricKind, mean: float, std: float) -> str:
    """``91.61 (1.05)`` for percent-scale metrics, ``0.53 (0.03)`` for
    correlations."""
    if kind.percent_scale:
        return f"{100.0 * mean:.2f} ({100.0 * std:.2f})"
    return f"{mean:.2f} ({std:.2f})"


def _grouped(records) -> dict[Regime, dict[str, dict[OptimizerKind, tuple]]]:
    tables: dict = {}
    for rec in records:
        cell = (rec.metric, rec.mean, rec.std)
        tables.setdefault(rec.regime, {}).setdefault(rec.task, {})[rec.optimizer] = cell
    return tables


def format_report(records) -> str:
    """Text table per regime from ``ScoreRecord``s: rows are optimizers,
    columns tasks, cells ``mean (std)`` with the best per column flagged
    ``*``."""
    if not records:
        raise ValueError("no results to report")
    tables = _grouped(records)
    lines = []
    for regime in Regime:
        if regime not in tables:
            continue
        columns = sorted(tables[regime])
        optimizers = [k for k in _REPORT_ORDER
                      if any(k in tables[regime][c] for c in columns)]
        lines.append(f"== regime: {regime.value} ==")
        header = ["Optimizer"] + columns
        rows = [header]
        best = {c: max(v[1] for v in tables[regime][c].values()) for c in columns}
        for kind in optimizers:
            row = [kind.display]
            for c in columns:
                entry = tables[regime][c].get(kind)
                if entry is None:
                    row.append("-")
                    continue
                metric, mean, std = entry
                flag = "*" if mean == best[c] else ""
                row.append(format_cell(metric, mean, std) + flag)
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        lines.append("")
    return "\n".join(lines)


def write_report(records, out_dir) -> None:
    """report.txt (formatted) and report.csv (machine-readable) in out_dir,
    from ``ScoreRecord``s."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(format_report(records))
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["task", "optimizer", "regime", "metric", "mean", "std", "cell"])
        for rec in sorted(records, key=lambda r: (r.regime.value, r.task,
                                                  _REPORT_ORDER.index(r.optimizer))):
            writer.writerow([
                rec.task, rec.optimizer.value, rec.regime.value, rec.metric.value,
                repr(rec.mean), repr(rec.std), format_cell(rec.metric, rec.mean, rec.std),
            ])


# ---------------------------------------------------------------------------
# Curve export
# ---------------------------------------------------------------------------

def _aggregate_curves(curves: list[LearningCurve]
                      ) -> list[tuple[int, float, float, float | None, float | None]]:
    """Pointwise mean/std across splits at matching step indices.

    Rows: (step, mean_loss, std_loss, mean_dev, std_dev); dev columns are
    None except at epoch-end steps. Curves of unequal length are truncated
    to the shortest, with a warning.
    """
    n_steps = min(c.steps.size for c in curves)
    n_dev = min(c.dev_steps.size for c in curves)
    if any(c.steps.size != n_steps for c in curves) or \
            any(c.dev_steps.size != n_dev for c in curves):
        warnings.warn("split curves have unequal lengths; truncating to shortest",
                      stacklevel=2)
    losses = np.stack([c.losses[:n_steps] for c in curves])
    devs = np.stack([c.dev_scores[:n_dev] for c in curves])
    dev_at = {int(s): i for i, s in enumerate(curves[0].dev_steps[:n_dev])}
    rows = []
    for i in range(n_steps):
        step = int(curves[0].steps[i])
        mean_dev = std_dev = None
        if step in dev_at:
            j = dev_at[step]
            mean_dev = float(devs[:, j].mean())
            std_dev = float(devs[:, j].std(ddof=0))
        rows.append((step, float(losses[:, i].mean()), float(losses[:, i].std(ddof=0)),
                     mean_dev, std_dev))
    return rows


def export_curves(results, out_dir) -> list[Path]:
    """One ``curve_<task>_<optimizer>_<regime>.csv`` per experiment, with
    columns step, mean_loss, std_loss, mean_dev, std_dev."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for res in results:
        rows = _aggregate_curves([s.curve for s in res.splits])
        path = out / f"curve_{res.task.name}_{res.optimizer.value}_{res.regime.value}.csv"
        _write_curve_csv(path, rows)
        written.append(path)
    return written


def _write_curve_csv(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mean_loss", "std_loss", "mean_dev", "std_dev"])
        for step, mean_loss, std_loss, mean_dev, std_dev in rows:
            writer.writerow([
                step, repr(mean_loss), repr(std_loss),
                "" if mean_dev is None else repr(mean_dev),
                "" if std_dev is None else repr(std_dev),
            ])


# ---------------------------------------------------------------------------
# Run-directory persistence (consumed by the CLI)
# ---------------------------------------------------------------------------

def write_results_csv(results, path) -> None:
    """Append per-split rows; the header is written once per file."""
    path = Path(path)
    new_file = not path.exists()
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(["task", "optimizer", "regime", "split",
                             "test_score", "best_dev", "best_epoch"])
        for res in results:
            for s in res.splits:
                writer.writerow([res.task.name, res.optimizer.value, res.regime.value,
                                 s.repetition, repr(s.test.value), repr(s.best_dev),
                                 s.best_epoch])


def write_run_outputs(results, out_dir) -> None:
    """Everything a run leaves behind: results.csv, per-split study JSON and
    raw curve files, and the aggregated curve files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_results_csv(results, out / "results.csv")
    for res in results:
        stem = f"{res.task.name}_{res.optimizer.value}_{res.regime.value}"
        for s in res.splits:
            save_study_json(s.study, out / f"study_{stem}_split{s.repetition}.json")
            dev_at = {int(t): float(v)
                      for t, v in zip(s.curve.dev_steps, s.curve.dev_scores)}
            with open(out / f"curve_raw_{stem}_split{s.repetition}.csv", "w",
                      newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "loss", "dev"])
                for step, loss in zip(s.curve.steps, s.curve.losses):
                    dev = dev_at.get(int(step))
                    writer.writerow([int(step), repr(float(loss)),
                                     "" if dev is None else repr(dev)])
    export_curves(results, out)


def _read_raw_curve(path) -> LearningCurve:
    steps, losses, dev_steps, dev_scores = [], [], [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            steps.append(int(row["step"]))
            losses.append(float(row["loss"]))
            if row["dev"] != "":
                dev_steps.append(int(row["step"]))
                dev_scores.append(float(row["dev"]))
    return LearningCurve(steps=np.asarray(steps, dtype=np.int64),
                         losses=np.asarray(losses, dtype=np.float64),
                         dev_steps=np.asarray(dev_steps, dtype=np.int64),
                         dev_scores=np.asarray(dev_scores, dtype=np.float64))


def aggregate_curve_files(in_dir) -> list[Path]:
    """Rebuild curve_<...>.csv files from the raw per-split curves in a run
    directory."""
    in_dir = Path(in_dir)
    groups: dict[str, list[tuple[int, Path]]] = {}
    for path in in_dir.glob("curve_raw_*_split*.csv"):
        stem, _, split = path.stem[len("curve_raw_"):].rpartition("_split")
        groups.setdefault(stem, []).append((int(split), path))
    written = []
    for stem, paths in sorted(groups.items()):
        # split order, as `run` aggregated them: the float sums depend on it
        curves = [_read_raw_curve(p) for _, p in sorted(paths)]
        out_path = in_dir / f"curve_{stem}.csv"
        _write_curve_csv(out_path, _aggregate_curves(curves))
        written.append(out_path)
    return written


def report_from_results_csv(in_dir) -> str:
    """Build report.txt/report.csv from a run directory's results.csv."""
    in_dir = Path(in_dir)
    scores: dict[tuple[str, str, str], dict[int, float]] = {}
    with open(in_dir / "results.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["task"], row["optimizer"], row["regime"])
            # last write wins so re-running into a directory stays sane
            scores.setdefault(key, {})[int(row["split"])] = float(row["test_score"])
    records = [
        ScoreRecord(task=task, optimizer=OptimizerKind.parse(optimizer),
                    regime=Regime.parse(regime), metric=make_task_spec(task).metric,
                    scores=tuple(by_split[k] for k in sorted(by_split)))
        for (task, optimizer, regime), by_split in sorted(scores.items())
    ]
    write_report(records, in_dir)
    return format_report(records)
