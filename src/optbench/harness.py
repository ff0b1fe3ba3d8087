"""Experiment harness: training loop, study orchestration, and reporting.

One experiment = (task, optimizer, regime) evaluated over five stratified
train/dev/test splits. Per split, a budgeted study (at most 30 trials) picks
a configuration by maximizing the dev metric; each trial trains with
mini-batches (default batch size 4), keeps the parameter snapshot from its
best dev epoch, and may be stopped early by median pruning. The chosen
trial's snapshot is scored once on the test partition, and the per-split
test scores are aggregated as mean and population standard deviation.
``experiment_data`` makes a task's data once, for all of its experiments: each
split's train, dev and test partitions, as ``tasks.stratified_split`` cuts them.
``train`` gets the train and dev partitions and never a test row; ``run_study``
scores the test partition once.
``run_experiment`` returns one experiment's ``SplitResult``s, which
``write_run_outputs`` writes in full under names taken from its RunSpec, its
results.csv rows last; ``report`` and ``curves`` rebuild from the experiments
results.csv lists and read no other file of the directory. Every CSV file of a
run directory is written by ``_write_csv``, with one cell format: a float is
Python's shortest repr that reads back exactly, a missing value an empty field,
and a file gets its header once.

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
    ConfigError,
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    init_state,
)
from optbench.tasks import (
    Dataset,
    TaskSpec,
    check_batch_size,
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
    "format_cell",
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
    """Independent generator for the stream named by ``labels``. ``_entropy`` keeps
    only 32 bits of ``master_seed``, so ``train``'s init and batch streams use the
    low 32 bits of the 64-bit trial seed that ``labeled_seed`` returns."""
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
    """Protocol parameters for one (task, optimizer, regime) experiment.
    ``experiment_data`` checks dataset_size and batch_size as it makes the data."""

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
            raise ConfigError("epochs must be >= 1")
        if self.n_splits < 1:
            raise ConfigError("n_splits must be >= 1")
        if not 0 <= self.master_seed < 2**32:  # _entropy keeps 32 bits of it
            raise ConfigError(f"master_seed must be in [0, 2**32), got {self.master_seed}")
        check_trial_budget(self.trial_budget)


@dataclass(frozen=True)
class LearningCurve:
    """Finite training loss per step (``losses[i]`` is step ``i + 1``'s) and the dev
    score at each epoch's last step, as ``train`` builds and ``_read_raw_curve`` checks."""

    losses: np.ndarray
    dev_steps: np.ndarray
    dev_scores: np.ndarray


def train(config: OptimizerConfig, train_set: Dataset, dev_set: Dataset, *,
          epochs: int, batch_size: int, seed: int, prune_hook=None
          ) -> tuple[np.ndarray, TrialRecord, LearningCurve]:
    """Train one configuration on a split's train partition, scoring it on the
    dev partition; no test row reaches it.

    Checks ``batch_size`` once, then runs ``epochs`` passes of shuffled
    mini-batches (``epoch_batches`` gathers each epoch's rows once), logging the
    training loss at every step and the dev score after every epoch. Each
    step is one ``loss_and_grad`` and one ``apply_step`` call, looked up in
    this module, so a test or tracer may wrap either. Returns the
    flat parameter vector θ (segments: ``param_layout(train_set.spec)``) of
    the record's ``best_epoch``, or the initial θ if no epoch finished.
    ``prune_hook(epoch, dev_score) -> bool`` may stop the trial early
    (status ``pruned``). A non-finite loss or
    updated parameter vector stops it with status ``diverged``, whose score
    is treated as -inf downstream; these two checks are the only place a
    trial is judged diverged.
    """
    check_batch_size(train_set, batch_size)
    spec = train_set.spec
    theta0 = theta = init_params(spec, labeled_rng(seed, "init"))
    batch_rng = labeled_rng(seed, "batches")
    state = init_state(theta.shape[0])

    losses, dev_steps, dev_scores = [], [], []
    snapshots = []  # theta after each evaluated epoch
    status = TrialStatus.COMPLETED
    # divergence (overflow to inf/NaN) is normal control flow here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for epoch in range(epochs):
            for x, y in epoch_batches(train_set, batch_size, batch_rng):
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
            score = evaluate(spec, predict(theta, dev_set.features, spec), dev_set.targets)
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


def run_study(run: RunSpec, train_set: Dataset, dev_set: Dataset, test_set: Dataset,
              repetition: int) -> SplitResult:
    """Ask/train/tell loop on one split's train and dev partitions until the
    study is full, then the best trial's best-epoch θ scored once on the test
    partition. The study picks every configuration; this loop only labels each
    trial's training seed."""
    sampler_seed = labeled_seed(run.master_seed, run.task.name, run.optimizer.value,
                                run.regime.value, repetition, "sampler")
    study = StudyRecord(optimizer=run.optimizer, regime=run.regime,
                        sampler_seed=sampler_seed, max_trials=run.trial_budget)
    artifacts = []  # (theta, curve) of each trial, in study.trials order
    while not study.full:
        theta, record, curve = train(
            study.ask(), train_set, dev_set, epochs=run.epochs, batch_size=run.batch_size,
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
    score = evaluate(run.task, predict(theta, test_set.features, run.task), test_set.targets)
    return SplitResult(repetition=repetition, test=score, theta=theta, curve=curve,
                       study=study)


@dataclass(frozen=True)
class ScoreRecord:
    """What a report needs of one experiment: its key and the test score of
    each split, in split order; its ``metric`` is its task's."""

    task: TaskSpec
    optimizer: OptimizerKind
    regime: Regime
    scores: tuple[float, ...]

    @property
    def metric(self) -> MetricKind:
        return self.task.metric

    @property
    def mean(self) -> float:
        return float(np.mean(self.scores))

    @property
    def std(self) -> float:
        """Population standard deviation (ddof=0) across splits."""
        return float(np.std(self.scores))


def experiment_data(run: RunSpec) -> tuple[tuple[Dataset, Dataset, Dataset], ...]:
    """Every split's (train, dev, test) partitions for ``run``'s task, in split
    order, made and checked once for all of the task's experiments. Tasks flagged
    ``resample_per_split`` build a dataset per split; the others build one and
    re-split it. A bad dataset or batch size raises ConfigError naming the split."""
    task, data = run.task, []
    for repetition in range(1, run.n_splits + 1):
        try:
            if task.resample_per_split or repetition == 1:
                dataset = make_dataset(task, run.dataset_size, labeled_seed(
                    run.master_seed, task.name, "data",
                    repetition if task.resample_per_split else 0))
            parts = stratified_split(dataset, labeled_seed(
                run.master_seed, task.name, "split", repetition))
            check_batch_size(parts[0], run.batch_size)
        except ConfigError as exc:
            raise ConfigError(f"{task.name} split {repetition}: {exc}") from None
        data.append(parts)
    return tuple(data)


def run_experiment(run: RunSpec, data) -> tuple[SplitResult, ...]:
    """The ``SplitResult``s of one (task, optimizer, regime), in split order: one
    ``run_study`` per split of ``data``, its task's ``experiment_data``."""
    return tuple(run_study(run, *parts, repetition)
                 for repetition, parts in enumerate(data, start=1))


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
        cells[rec.task.name, rec.optimizer] = (rec.metric, rec.mean, rec.std)
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
    order = sorted(records, key=lambda r: (r.regime.value, r.task.name,
                                           list(_REPORT_ROWS).index(r.optimizer)))
    _write_csv(out / "report.csv", _REPORT_COLUMNS, (
        (rec.task.name, rec.optimizer.value, rec.regime.value, rec.metric.value, rec.mean,
         rec.std, format_cell(rec.metric, rec.mean, rec.std)) for rec in order))
    return text


# ---------------------------------------------------------------------------
# Run-directory persistence (consumed by the CLI). A run directory holds each
# (task, optimizer, regime) experiment once: ``run`` checks results.csv before
# it trains, and a reader refuses a directory that holds one twice. An
# experiment is complete iff results.csv holds its rows.
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


def _experiment_file(out_dir: Path, experiment, kind: str, split=None) -> Path:
    """The run-directory file of one experiment (a RunSpec or a ScoreRecord) named by
    ``kind``, "study", "curve_raw" or "curve": <kind>_<task>_<optimizer>_<regime>,
    then _split<split> for a study or raw curve, then .json for a study and .csv
    for a curve."""
    name = f"{kind}_{experiment.task.name}_{experiment.optimizer.value}_{experiment.regime.value}"
    if split is not None:
        name += f"_split{split}"
    return out_dir / (name + (".json" if kind == "study" else ".csv"))


def _write_curve(path: Path, curves: list[LearningCurve]) -> None:
    """Write an aggregated curve to ``path``: per step, the mean/std across one
    experiment's curves (in split order, with one step count and dev steps) of the
    loss, and of the dev score at epoch-end steps, None elsewhere."""
    # step-major, so each step reduces one contiguous vector of its splits;
    # a reduction along axis 0 of a split-major stack groups the float sums
    # differently and can change the last bits
    losses = np.stack([c.losses for c in curves], axis=1)
    devs = np.stack([c.dev_scores for c in curves], axis=1)
    n_steps, dev_steps = losses.shape[0], curves[0].dev_steps
    _write_csv(path, _CURVE_COLUMNS, zip(
        range(1, n_steps + 1), losses.mean(axis=1).tolist(), losses.std(axis=1).tolist(),
        _epoch_column(n_steps, dev_steps, devs.mean(axis=1)),
        _epoch_column(n_steps, dev_steps, devs.std(axis=1))))


def write_run_outputs(run: RunSpec, splits, out_dir) -> None:
    """One finished experiment's files, named from its RunSpec: a study JSON and a
    raw curve per split, the aggregated curve, and last the rows of ``splits``
    appended to results.csv, so a row there means every file of its experiment
    exists. ``run`` calls it as each experiment finishes, so a run that stops
    early keeps what it finished; a call that fails (Ctrl-C too) before the
    append removes the files it wrote, leaving none of its experiment."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []  # each path before its write starts
    try:
        for s in splits:
            written.append(_experiment_file(out, run, "study", s.repetition))
            save_study_json(s.study, written[-1])
            losses = s.curve.losses.tolist()
            dev = _epoch_column(len(losses), s.curve.dev_steps, s.curve.dev_scores)
            written.append(_experiment_file(out, run, "curve_raw", s.repetition))
            _write_csv(written[-1], _RAW_CURVE_COLUMNS,
                       zip(range(1, len(losses) + 1), losses, dev))
        written.append(_experiment_file(out, run, "curve"))
        _write_curve(written[-1], [s.curve for s in splits])
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    _write_csv(out / "results.csv", _RESULTS_COLUMNS,
               ((run.task.name, run.optimizer.value, run.regime.value, s.repetition, s.test,
                 s.trial.best_dev, s.trial.best_epoch) for s in splits), mode="a")


def _csv_rows(path, columns, parsers):
    """A CSV file's rows as (line number, dict) pairs, after checking that it is
    UTF-8 CSV text, its header has every name in ``columns`` and each row the
    header's number of fields. A field named in ``parsers`` is replaced by its
    parser's value; one it cannot parse raises ConfigError naming the file and line."""
    with open(path, "rb") as fh:
        reader = csv.DictReader(map(bytes.decode, fh))
        try:
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            if missing:
                raise ConfigError(f"{path} lacks column(s) {', '.join(missing)}")
            for row in reader:
                if None in row or None in row.values():
                    raise ConfigError(f"{path} line {reader.line_num} does not have the "
                                      f"header's {len(reader.fieldnames)} fields")
                for column, parse in parsers.items():
                    try:
                        row[column] = parse(row[column])
                    except ValueError:
                        raise ConfigError(f"{path} line {reader.line_num}: cannot read "
                                          f"{column} {row[column]!r}") from None
                yield reader.line_num, row
        except (UnicodeDecodeError, csv.Error) as exc:  # raised past the last line read
            raise ConfigError(f"{path} line {reader.line_num + 1}: {exc}") from None


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
            raise ConfigError(f"{path} line {line}: step {row['step']}, "
                              f"expected {step} (steps run 1, 2, 3, ...)")
        losses.append(row["loss"])
        if row["dev"] is not None:
            dev_steps.append(step)
            dev_scores.append(row["dev"])
    return LearningCurve(losses=np.asarray(losses, dtype=np.float64),
                         dev_steps=np.asarray(dev_steps, dtype=np.int64),
                         dev_scores=np.asarray(dev_scores, dtype=np.float64))


def aggregate_curve_files(in_dir) -> list[Path]:
    """Rebuild, for ``curves``, each curve_<...>.csv ``write_run_outputs`` wrote, byte
    for byte, from the raw curves of the splits results.csv lists and no other file.
    Raises ConfigError when an experiment's raw curves differ in step count or dev
    steps, and OSError when one is missing."""
    in_dir = Path(in_dir)
    written = []
    for rec in _listed_experiments(in_dir):
        curves = [_read_raw_curve(_experiment_file(in_dir, rec, "curve_raw", k))
                  for k in range(1, len(rec.scores) + 1)]
        if any(c.losses.size != curves[0].losses.size
               or not np.array_equal(c.dev_steps, curves[0].dev_steps) for c in curves):
            raise ConfigError(f"{_experiment_file(in_dir, rec, 'curve_raw', '*')} differ in "
                              "step count or dev steps: a run directory holds each experiment "
                              "once")
        written.append(_experiment_file(in_dir, rec, "curve"))
        _write_curve(written[-1], curves)
    return written


def read_results(path) -> list[ScoreRecord]:
    """The experiments a results.csv holds, in the order of their first rows; an
    empty file holds none. An experiment's rows run split 1, 2, 3, ... in order, so
    its ``scores[i]`` is split i + 1's. Raises ConfigError naming the file (and
    line) when the header lacks a column or a row has the wrong number of fields,
    an unknown name, a split that is not an integer or out of that order (an
    experiment held twice repeats split 1), or a score outside its metric's range."""
    if Path(path).stat().st_size == 0:  # a run killed before it wrote the header
        return []
    parsers = {"task": make_task_spec, "optimizer": OptimizerKind.parse,
               "regime": Regime.parse, "split": int, "test_score": _finite_float}
    scores: dict[tuple[TaskSpec, OptimizerKind, Regime], list[float]] = {}
    for line, row in _csv_rows(path, _RESULTS_COLUMNS, parsers):
        try:
            check_score(row["task"].metric, row["test_score"])
        except ValueError as exc:
            raise ConfigError(f"{path} line {line}: {exc}") from None
        key = (row["task"], row["optimizer"], row["regime"])
        held = scores.setdefault(key, [])
        if row["split"] != len(held) + 1:
            raise ConfigError(f"{path} line {line}: split {row['split']} of "
                              f"{key[0].name}/{key[1].value}/{key[2].value}, expected "
                              f"{len(held) + 1} (an experiment's splits run 1, 2, 3, ...)")
        held.append(row["test_score"])
    return [ScoreRecord(task=task, optimizer=optimizer, regime=regime, scores=tuple(held))
            for (task, optimizer, regime), held in scores.items()]


def _listed_experiments(in_dir) -> list[ScoreRecord]:
    """The experiments in_dir's results.csv lists, for ``report`` and ``curves``; a
    file without rows raises ConfigError naming it."""
    path = Path(in_dir) / "results.csv"
    if not (records := read_results(path)):
        raise ConfigError(f"{path} holds no results")
    return records


def report_from_results_csv(in_dir) -> str:
    """Write report.txt/report.csv from in_dir's results.csv; returns report.txt."""
    return write_report(_listed_experiments(in_dir), in_dir)
