"""Experiment harness: training loop, study orchestration, and reporting.

One experiment = (task, optimizer, regime) evaluated over five stratified
train/dev/test splits. Per split, a budgeted study (at most 30 trials) picks
a configuration by maximizing the dev metric; each trial trains with
mini-batches (default batch size 4), keeps the parameter snapshot from its
best dev epoch, and may be stopped early by median pruning. The chosen
trial's snapshot is scored once on the test partition, and the per-split
test scores are aggregated as mean and population standard deviation.
``run_experiment`` returns one experiment's ``SplitResult``s, which
``write_run_outputs`` writes under names taken from its RunSpec; reports and
aggregated curves are built from the run directory alone. Every CSV file of
a run directory is written by ``_write_csv``, with one cell format: a float
is Python's shortest repr that reads back exactly, a missing value an empty
field, and a file gets its header once.

Every random choice is drawn from a stream derived from the master seed and
a fixed label path, so a whole experiment is a pure function of its RunSpec
and two runs with the same seed produce identical output files.
"""

from __future__ import annotations

import csv
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from optbench.metrics import MetricKind, check_score, evaluate
from optbench.optimizers import (
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    init_state,
)
from optbench.tasks import (
    DataSplit,
    Dataset,
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
    check_trial_budget,
    save_study_json,
    should_prune,
)

__all__ = [
    "RunSpec",
    "LearningCurve",
    "SplitResult",
    "ScoreRecord",
    "NoViableTrialError",
    "labeled_rng",
    "labeled_seed",
    "train",
    "run_study",
    "experiment_data",
    "run_experiment",
    "format_report",
    "write_report",
    "write_run_outputs",
    "aggregate_curve_files",
    "read_results",
    "report_from_results_csv",
]

_RESULTS_COLUMNS = ("task", "optimizer", "regime", "split", "test_score", "best_dev",
                    "best_epoch")
_RAW_CURVE_COLUMNS = ("step", "loss", "dev")
_CURVE_COLUMNS = ("step", "mean_loss", "std_loss", "mean_dev", "std_dev")
_REPORT_COLUMNS = ("task", "optimizer", "regime", "metric", "mean", "std", "cell")

# Report rows: each optimizer's display name, in row order.
_REPORT_ROWS = {
    OptimizerKind.ADABOUND: "AdaBound",
    OptimizerKind.ADAMW: "AdamW",
    OptimizerKind.ADAMAX: "AdaMax",
    OptimizerKind.NADAM: "Nadam",
    OptimizerKind.ADAM: "Adam",
    OptimizerKind.SGDM: "SGDM",
    OptimizerKind.SGD: "SGD",
}


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
    """Protocol parameters for one (task, optimizer, regime) experiment. Where the
    data are made, ``make_dataset`` checks dataset_size and ``check_batch_size`` batch_size."""

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
        if self.n_splits < 1:
            raise ValueError("n_splits must be >= 1")
        if not 0 <= self.master_seed < 2**32:  # _entropy keeps 32 bits of it
            raise ValueError(f"master_seed must be in [0, 2**32), got {self.master_seed}")
        check_trial_budget(self.trial_budget)


@dataclass(frozen=True)
class LearningCurve:
    """Finite training loss per step (``losses[i]`` is step ``i + 1``'s) and the dev
    score at each epoch's last step, as ``train`` builds and ``_read_raw_curve`` checks."""

    losses: np.ndarray
    dev_steps: np.ndarray
    dev_scores: np.ndarray


def train(config: OptimizerConfig, dataset: Dataset, split: DataSplit, *,
          epochs: int, batch_size: int, seed: int, prune_hook=None
          ) -> tuple[np.ndarray, TrialRecord, LearningCurve]:
    """Train one configuration on one split.

    Runs ``epochs`` passes of shuffled mini-batches (``epoch_batches``
    gathers each epoch's rows once and checks the batch size), logging the
    training loss at every step and the dev score after every epoch. Each
    step is one ``loss_and_grad`` and one ``apply_step`` call, looked up in
    this module, so a test or tracer may wrap either. Returns the
    flat parameter vector θ (segments: ``param_layout(dataset.spec)``) of
    the record's ``best_epoch``, or the initial θ if no epoch finished.
    ``prune_hook(epoch, dev_score) -> bool`` may stop the trial early
    (status ``pruned``). A non-finite loss or
    updated parameter vector stops it with status ``diverged``, whose score
    is treated as -inf downstream; these two checks are the only place a
    trial is judged diverged.
    """
    spec = dataset.spec
    theta0 = theta = init_params(spec, labeled_rng(seed, "init"))
    batch_rng = labeled_rng(seed, "batches")
    state = init_state(config, theta.shape[0])
    dev_x, dev_y = dataset.features[split.dev], dataset.targets[split.dev]

    losses, dev_steps, dev_scores = [], [], []
    snapshots = []  # theta after each evaluated epoch
    status = TrialStatus.COMPLETED
    # divergence (overflow to inf/NaN) is normal control flow here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for epoch in range(epochs):
            for x, y in epoch_batches(dataset, split, batch_size, batch_rng):
                loss, grad = loss_and_grad(theta, x, y, spec)
                if not math.isfinite(loss):
                    status = TrialStatus.DIVERGED
                    break
                losses.append(loss)
                theta, state = apply_step(config, state, theta, grad)
                if not np.logical_and.reduce(np.isfinite(theta)):
                    status = TrialStatus.DIVERGED
                    break
            if status is TrialStatus.DIVERGED:
                break
            score = evaluate(spec, predict(theta, dev_x, spec), dev_y)
            dev_steps.append(len(losses))
            dev_scores.append(score)
            snapshots.append(theta)
            if prune_hook is not None and prune_hook(epoch, score):
                status = TrialStatus.PRUNED
                break

    record = TrialRecord(config, dev_scores, status)
    curve = LearningCurve(
        losses=np.asarray(losses, dtype=np.float64),
        dev_steps=np.asarray(dev_steps, dtype=np.int64),
        dev_scores=np.asarray(dev_scores, dtype=np.float64),
    )
    best_theta = theta0 if record.best_epoch is None else snapshots[record.best_epoch]
    return best_theta, record, curve


@dataclass(frozen=True)
class SplitResult:
    """One split's study, the parameter vector θ and learning curve of its
    best trial (``trial``, derived from the study), and that θ's score on
    the test partition."""

    repetition: int
    test: float
    theta: np.ndarray
    curve: LearningCurve
    study: StudyRecord

    @property
    def trial(self) -> TrialRecord:
        return best_trial(self.study)


def run_study(run: RunSpec, dataset: Dataset, split: DataSplit, repetition: int
              ) -> SplitResult:
    """Ask/train/tell loop until the study is full, then the best trial's
    best-epoch θ scored once on the test partition. The study picks every
    configuration; this loop only labels each trial's training seed."""
    sampler_seed = labeled_seed(run.master_seed, run.task.name, run.optimizer.value,
                                run.regime.value, repetition, "sampler")
    study = StudyRecord(optimizer=run.optimizer, regime=run.regime,
                        sampler_seed=sampler_seed, max_trials=run.trial_budget)
    artifacts = []  # (theta, curve) of each trial, in study.trials order
    while not study.full:
        theta, record, curve = train(
            study.ask(), dataset, split, epochs=run.epochs, batch_size=run.batch_size,
            seed=labeled_seed(run.master_seed, run.task.name, run.optimizer.value,
                              repetition, "trial", len(study.trials)),
            prune_hook=lambda epoch, score: should_prune(study, epoch, score),
        )
        study.add(record)
        artifacts.append((theta, curve))
    try:
        best = best_trial(study)
    except ValueError:
        raise NoViableTrialError(
            f"every trial diverged: {run.task.name}/{run.optimizer.value}"
            f"/{run.regime.value} split {repetition}"
        ) from None
    theta, curve = artifacts[next(i for i, t in enumerate(study.trials) if t is best)]
    task, test = run.task, split.test
    score = evaluate(task, predict(theta, dataset.features[test], task), dataset.targets[test])
    return SplitResult(repetition=repetition, test=score, theta=theta, curve=curve,
                       study=study)


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


def experiment_data(run: RunSpec, repetition: int) -> tuple[Dataset, DataSplit]:
    """Dataset and stratified split for one repetition (1-based).

    Tasks flagged ``resample_per_split`` regenerate their dataset in every
    repetition; the others keep one dataset and only re-split it.
    """
    task = run.task
    data_label = repetition if task.resample_per_split else 0
    dataset = make_dataset(task, run.dataset_size,
                           labeled_seed(run.master_seed, task.name, "data", data_label))
    split = stratified_split(dataset,
                             labeled_seed(run.master_seed, task.name, "split", repetition))
    return dataset, split


def run_experiment(run: RunSpec) -> tuple[SplitResult, ...]:
    """The ``SplitResult``s of one (task, optimizer, regime), in split order:
    one ``run_study`` per repetition, on that repetition's data."""
    return tuple(run_study(run, *experiment_data(run, repetition), repetition)
                 for repetition in range(1, run.n_splits + 1))


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def format_cell(kind: MetricKind, mean: float, std: float) -> str:
    """``91.61 (1.05)`` for percent-scale metrics, ``0.53 (0.03)`` for
    correlations."""
    if kind.percent_scale:
        return f"{100.0 * mean:.2f} ({100.0 * std:.2f})"
    return f"{mean:.2f} ({std:.2f})"


def format_report(records) -> str:
    """Text table per regime from ``ScoreRecord``s: rows are optimizers,
    columns tasks, cells ``mean (std)`` with the best per column flagged
    ``*``."""
    if not records:
        raise ValueError("no results to report")
    tables: dict = {}  # regime -> (task, optimizer) -> (metric, mean, std)
    for rec in records:
        cells = tables.setdefault(rec.regime, {})
        cells[rec.task, rec.optimizer] = (rec.metric, rec.mean, rec.std)
    lines = []
    for regime in Regime:
        if regime not in tables:
            continue
        cells = tables[regime]
        best: dict = {}  # task -> its column's best mean
        for (task, _), (_, mean, _) in cells.items():
            best[task] = max(mean, best.get(task, mean))
        columns = sorted(best)
        present = {kind for _, kind in cells}
        lines.append(f"== regime: {regime.value} ==")
        header = ["Optimizer"] + columns
        rows = [header]
        for kind in (k for k in _REPORT_ROWS if k in present):
            row = [_REPORT_ROWS[kind]]
            for c in columns:
                if (c, kind) not in cells:
                    row.append("-")
                    continue
                metric, mean, std = cells[c, kind]
                flag = "*" if mean == best[c] else ""
                row.append(format_cell(metric, mean, std) + flag)
            rows.append(row)
        widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
        for r in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
        lines.append("")
    return "\n".join(lines)


def write_report(records, out_dir) -> str:
    """report.txt (formatted) and report.csv (machine-readable) in out_dir,
    from ``ScoreRecord``s. Returns the text of report.txt."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = format_report(records)
    (out / "report.txt").write_text(text)
    order = sorted(records, key=lambda r: (r.regime.value, r.task,
                                           list(_REPORT_ROWS).index(r.optimizer)))
    _write_csv(out / "report.csv", _REPORT_COLUMNS, (
        (rec.task, rec.optimizer.value, rec.regime.value, rec.metric.value, rec.mean,
         rec.std, format_cell(rec.metric, rec.mean, rec.std)) for rec in order))
    return text


# ---------------------------------------------------------------------------
# Run-directory persistence (consumed by the CLI). A run directory holds each
# (task, optimizer, regime) experiment once: ``run`` checks results.csv before
# it trains, and a reader refuses a directory that holds one twice.
# ---------------------------------------------------------------------------

def _write_csv(path, columns, rows, mode="w") -> None:
    """The one CSV writer of a run directory: ``rows`` under the header
    ``columns``. The csv module writes a float as its repr, the shortest text
    that reads back exactly, and None as an empty field, so rows hold Python
    floats, not numpy scalars."""
    with open(path, mode, newline="") as fh:
        writer = csv.writer(fh)
        if fh.tell() == 0:  # new, or an appended file left empty by a killed run
            writer.writerow(columns)
        writer.writerows(rows)


def _epoch_column(n_steps: int, dev_steps: np.ndarray, values: np.ndarray) -> list:
    """A per-epoch series on rows 1..n_steps: ``values[j]`` on row ``dev_steps[j]``,
    None elsewhere. ``_read_raw_curve`` reads a raw curve's dev column back."""
    column = [None] * n_steps
    for step, value in zip(dev_steps.tolist(), values.tolist()):
        column[step - 1] = value
    return column


def _aggregate_curves(curves: list[LearningCurve]
                      ) -> list[tuple[int, float, float, float | None, float | None]]:
    """Pointwise mean/std across the splits of curves that share their step
    count and dev steps. Rows: (step, mean_loss, std_loss, mean_dev,
    std_dev); dev columns are None except at epoch-end steps."""
    # step-major, so each step reduces one contiguous vector of its splits;
    # a reduction along axis 0 of a split-major stack groups the float sums
    # differently and can change the last bits
    losses = np.stack([c.losses for c in curves], axis=1)
    devs = np.stack([c.dev_scores for c in curves], axis=1)
    n_steps, dev_steps = losses.shape[0], curves[0].dev_steps
    return list(zip(range(1, n_steps + 1), losses.mean(axis=1).tolist(),
                    losses.std(axis=1).tolist(),
                    _epoch_column(n_steps, dev_steps, devs.mean(axis=1)),
                    _epoch_column(n_steps, dev_steps, devs.std(axis=1))))


def write_run_outputs(run: RunSpec, splits, out_dir) -> None:
    """One finished experiment's files, named from its RunSpec: the rows of
    ``splits`` appended to results.csv (after the header if the file is
    empty), and a study JSON and a raw curve file per split. The ``run``
    command calls it as each experiment finishes, so a run that stops early
    keeps what it finished; ``report`` and ``curves`` build the rest from them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    key = (run.task.name, run.optimizer.value, run.regime.value)
    _write_csv(out / "results.csv", _RESULTS_COLUMNS,
               ((*key, s.repetition, s.test, s.trial.best_dev, s.trial.best_epoch)
                for s in splits), mode="a")
    stem = "_".join(key)
    for s in splits:
        save_study_json(s.study, out / f"study_{stem}_split{s.repetition}.json")
        losses = s.curve.losses.tolist()
        dev = _epoch_column(len(losses), s.curve.dev_steps, s.curve.dev_scores)
        _write_csv(out / f"curve_raw_{stem}_split{s.repetition}.csv", _RAW_CURVE_COLUMNS,
                   zip(range(1, len(losses) + 1), losses, dev))


def _csv_rows(path, columns, parsers):
    """A CSV file's rows as (line number, dict) pairs, after checking that its
    header has every name in ``columns`` and each row the header's number of
    fields. A field named in ``parsers`` is replaced by its parser's value;
    one it cannot parse raises ValueError naming the file and line."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path} lacks column(s) {', '.join(missing)}")
        for row in reader:
            if None in row or None in row.values():
                raise ValueError(f"{path} line {reader.line_num} does not have the "
                                 f"header's {len(reader.fieldnames)} fields")
            for column, parse in parsers.items():
                try:
                    row[column] = parse(row[column])
                except ValueError:
                    raise ValueError(f"{path} line {reader.line_num}: cannot read "
                                     f"{column} {row[column]!r}") from None
            yield reader.line_num, row


def _finite_float(text: str) -> float:
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def _finite_float_or_none(text: str) -> float | None:
    return _finite_float(text) if text else None


def _read_raw_curve(path) -> LearningCurve:
    """The curve a raw per-split file holds; its steps must run 1, 2, 3, ...
    (so its dev steps increase) and its losses and dev scores must be finite."""
    losses, dev_steps, dev_scores = [], [], []
    rows = _csv_rows(path, _RAW_CURVE_COLUMNS,
                     {"step": int, "loss": _finite_float, "dev": _finite_float_or_none})
    for step, (line, row) in enumerate(rows, start=1):
        if row["step"] != step:
            raise ValueError(f"{path} line {line}: step {row['step']}, "
                             f"expected {step} (steps run 1, 2, 3, ...)")
        losses.append(row["loss"])
        if row["dev"] is not None:
            dev_steps.append(step)
            dev_scores.append(row["dev"])
    return LearningCurve(losses=np.asarray(losses, dtype=np.float64),
                         dev_steps=np.asarray(dev_steps, dtype=np.int64),
                         dev_scores=np.asarray(dev_scores, dtype=np.float64))


def aggregate_curve_files(in_dir) -> list[Path]:
    """Build the curve_<...>.csv files from the raw per-split curves in a
    run directory; ``run`` and ``curves`` both call it. Raises
    FileNotFoundError when the directory holds no raw curves, and ValueError
    when an experiment's raw curves differ in step count or dev steps."""
    in_dir = Path(in_dir)
    groups: dict[str, list[tuple[int, Path]]] = {}
    for path in in_dir.glob("curve_raw_*_split*.csv"):
        stem, _, split = path.stem[len("curve_raw_"):].rpartition("_split")
        if not split.isdecimal():
            raise ValueError(f"{path} does not end in _split<k>.csv with an integer k")
        groups.setdefault(stem, []).append((int(split), path))
    if not groups:
        raise FileNotFoundError(f"no curve_raw_*_split*.csv files in {in_dir}")
    written = []
    for stem, paths in sorted(groups.items()):
        # split order, not name order (split10 < split2): the float sums depend on it
        curves = [_read_raw_curve(p) for _, p in sorted(paths)]
        if any(c.losses.size != curves[0].losses.size
               or not np.array_equal(c.dev_steps, curves[0].dev_steps) for c in curves):
            raise ValueError(f"{in_dir / f'curve_raw_{stem}_split*.csv'} differ in step "
                             "count or dev steps: a run directory holds each experiment once")
        out_path = in_dir / f"curve_{stem}.csv"
        _write_csv(out_path, _CURVE_COLUMNS, _aggregate_curves(curves))
        written.append(out_path)
    return written


def read_results(path) -> list[ScoreRecord]:
    """The experiments a results.csv holds, in the order of their first rows,
    each with its scores in split order; an empty file holds none. Raises
    ValueError naming the file (and line) when the header lacks a column or a
    row has the wrong number of fields, an unknown name, a split that is not
    an integer, a score outside its metric's range, or the (task, optimizer,
    regime, split) of an earlier row."""
    if Path(path).stat().st_size == 0:  # a run killed before it wrote the header
        return []
    parsers = {"task": make_task_spec, "optimizer": OptimizerKind.parse,
               "regime": Regime.parse, "split": int, "test_score": _finite_float}
    scores: dict[tuple[TaskSpec, OptimizerKind, Regime], dict[int, float]] = {}
    for line, row in _csv_rows(path, _RESULTS_COLUMNS, parsers):
        try:
            check_score(row["task"].metric, row["test_score"])
        except ValueError as exc:
            raise ValueError(f"{path} line {line}: {exc}") from None
        key = (row["task"], row["optimizer"], row["regime"])
        by_split = scores.setdefault(key, {})
        if row["split"] in by_split:
            raise ValueError(f"{path} line {line}: repeats split {row['split']} of "
                             f"{key[0].name}/{key[1].value}/{key[2].value}")
        by_split[row["split"]] = row["test_score"]
    return [
        ScoreRecord(task=task.name, optimizer=optimizer, regime=regime, metric=task.metric,
                    scores=tuple(by_split[k] for k in sorted(by_split)))
        for (task, optimizer, regime), by_split in scores.items()
    ]


def report_from_results_csv(in_dir) -> str:
    """Write report.txt/report.csv from in_dir's results.csv; returns report.txt."""
    return write_report(read_results(Path(in_dir) / "results.csv"), in_dir)
