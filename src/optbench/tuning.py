"""Hyperparameter search: spaces, a TPE-style sampler, and median pruning.

Search ranges per optimizer (learning rate log-uniform; the adaptive
optimizers deliberately search far below their untuned default of ~1e-3,
matching standard fine-tuning practice):

    epsilon   adaptive: [1e-7, 1e-5]   SGD/SGDM: [1e-7, 1e-3]   (log)
    rho1      [0.8, 0.95]                                       (linear)
    rho2      [0.9, 0.99999]                                    (linear)
    delta     [1e-9, 1e-7]                                      (log)
    alpha     Nadam: [1e-4, 1e-2] (log)   SGDM: [0.7, 0.9999] (linear)
    eps_star  [1e-2, 1e-1]                                      (linear)
    gamma     [1e-4, 2e-3]                                      (log)

Three regimes: ``defaults`` tunes nothing (one trial), ``lr_only`` tunes
only epsilon, ``full`` tunes every ranged hyperparameter of the optimizer.
A ``StudyRecord`` holds the whole search policy; its caller asks and adds.
It tunes its ``params``, a regime's slice of the optimizer's ``_SEARCHED``
row; trial 0 is the default config iff each tuned default lies in range.

Trial i draws from its own stream, ``default_rng([sampler_seed, i])``, so
a study's next configuration follows from its seed and trials alone. The
sampler draws the first 10 trials uniformly (log-uniform on log dims), then
switches to a Tree-structured-Parzen-style rule: trials are split at the
median objective into good and bad halves, each half gets a per-dimension
Gaussian kernel density (bandwidth from adjacent-point spacing), 24
candidates are drawn from the good density, and the candidate with the
highest good/bad density ratio wins. Median pruning stops a trial
whose epoch score falls strictly below the median score of at least five
completed trials at the same epoch (never during a trial's first epoch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from optbench.optimizers import (
    ConfigError,
    OptimizerConfig,
    OptimizerKind,
    default_config,
)

__all__ = [
    "MAX_TRIALS",
    "N_STARTUP_TRIALS",
    "N_CANDIDATES",
    "PRUNE_MIN_COMPLETED",
    "PRUNE_WARMUP_EPOCHS",
    "Regime",
    "ParamSpec",
    "TrialStatus",
    "TrialRecord",
    "StudyRecord",
    "check_trial_budget",
    "suggest",
    "should_prune",
    "best_trial",
    "save_study_json",
    "load_study_json",
]

MAX_TRIALS = 30
N_STARTUP_TRIALS = 10
N_CANDIDATES = 24
PRUNE_MIN_COMPLETED = 5
PRUNE_WARMUP_EPOCHS = 1


class Regime(str, Enum):
    DEFAULTS = "defaults"
    LR_ONLY = "lr_only"
    FULL = "full"

    @classmethod
    def parse(cls, text: str) -> "Regime":
        try:
            return cls(text.strip().lower().replace("-", "_"))
        except (AttributeError, ValueError):  # AttributeError: not a string
            raise ConfigError(f"unknown regime: {text!r}") from None


@dataclass(frozen=True)
class ParamSpec:
    """One searched hyperparameter: its range and sampling scale."""

    name: str
    low: float
    high: float
    scale: str  # "log" | "linear"


_LR_SGD = ParamSpec("epsilon", 1e-7, 1e-3, "log")
_LR_ADAPTIVE = ParamSpec("epsilon", 1e-7, 1e-5, "log")
_MOMENTS = (ParamSpec("rho1", 0.8, 0.95, "linear"),
            ParamSpec("rho2", 0.9, 0.99999, "linear"),
            ParamSpec("delta", 1e-9, 1e-7, "log"))

# What each optimizer searches in the full regime, in sampling order. The
# learning rate comes first: the lr_only regime is the first entry.
_SEARCHED: dict[OptimizerKind, tuple[ParamSpec, ...]] = {
    OptimizerKind.SGD: (_LR_SGD,),
    OptimizerKind.SGDM: (_LR_SGD, ParamSpec("alpha", 0.7, 0.9999, "linear")),
    OptimizerKind.ADAM: (_LR_ADAPTIVE, *_MOMENTS),
    OptimizerKind.NADAM: (_LR_ADAPTIVE, *_MOMENTS, ParamSpec("alpha", 1e-4, 1e-2, "log")),
    OptimizerKind.ADAMW: (_LR_ADAPTIVE, *_MOMENTS),
    OptimizerKind.ADAMAX: (_LR_ADAPTIVE, *_MOMENTS),
    OptimizerKind.ADABOUND: (_LR_ADAPTIVE, *_MOMENTS,
                             ParamSpec("eps_star", 1e-2, 1e-1, "linear"),
                             ParamSpec("gamma", 1e-4, 2e-3, "log")),
}

_REGIME_SLICE = {Regime.DEFAULTS: slice(0), Regime.LR_ONLY: slice(1),
                 Regime.FULL: slice(None)}


def check_trial_budget(n_trials: int) -> None:
    """The one rule for a study's trial budget: 1 to ``MAX_TRIALS`` trials."""
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ConfigError(f"trial budget must be in [1, {MAX_TRIALS}], got {n_trials}")


class TrialStatus(str, Enum):
    COMPLETED = "completed"
    PRUNED = "pruned"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class TrialRecord:
    """One hyperparameter configuration and its per-epoch dev scores, from
    which ``best_epoch`` (the first epoch of the top score, None if there is
    none) and ``best_dev`` (that score; -inf if diverged) are derived."""

    config: OptimizerConfig
    epoch_scores: tuple[float, ...]
    status: TrialStatus
    best_epoch: int | None = field(init=False)
    best_dev: float = field(init=False)

    def __post_init__(self):
        scores = tuple(float(s) for s in self.epoch_scores)
        if self.status is not TrialStatus.DIVERGED and not scores:
            raise ValueError(f"{self.status.value} trial needs at least one epoch score")
        best_epoch = int(np.argmax(scores)) if scores else None  # ties: earliest epoch
        best_dev = float("-inf")
        if best_epoch is not None and self.status is not TrialStatus.DIVERGED:
            best_dev = scores[best_epoch]
        object.__setattr__(self, "epoch_scores", scores)
        object.__setattr__(self, "best_epoch", best_epoch)
        object.__setattr__(self, "best_dev", best_dev)


@dataclass
class StudyRecord:
    """One search maximizing dev score, wholly described by its init fields:
    its optimizer and regime (from which its ``params`` are derived), the
    seed of its sampler, its trials and its trial budget."""

    optimizer: OptimizerKind
    regime: Regime
    sampler_seed: int
    trials: list[TrialRecord] = field(default_factory=list)
    max_trials: int = MAX_TRIALS

    def __post_init__(self):
        for key in ("sampler_seed", "max_trials"):  # a float or a bool is refused
            if type(value := getattr(self, key)) is not int:
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        if self.sampler_seed < 0:
            raise ConfigError(f"sampler_seed must be >= 0, got {self.sampler_seed}")
        check_trial_budget(self.max_trials)

    @property
    def params(self) -> tuple[ParamSpec, ...]:
        """What the study tunes, in sampling order: its regime's slice of its
        optimizer's row of ``_SEARCHED``."""
        return _SEARCHED[self.optimizer][_REGIME_SLICE[self.regime]]

    @property
    def full(self) -> bool:
        """After ``max_trials`` trials, or one if the study tunes nothing."""
        return len(self.trials) >= (self.max_trials if self.params else 1)

    def ask(self) -> OptimizerConfig:
        """The next trial's configuration: the default one as trial 0 iff each
        of its tuned values lies in range (the defaults regime, SGD and SGDM,
        whose tuned best then never falls below defaults), else ``suggest``'s."""
        defaults = default_config(self.optimizer)
        if not self.trials and all(p.low <= getattr(defaults, p.name) <= p.high
                                   for p in self.params):
            return defaults
        return suggest(self)

    def add(self, trial: TrialRecord) -> None:
        if self.full:
            raise ValueError(f"study is full at {len(self.trials)} trial(s)")
        self.trials.append(trial)

    def best_so_far(self) -> list[float]:
        """Running maximum of best_dev; nondecreasing by construction."""
        out, best = [], float("-inf")
        for t in self.trials:
            best = max(best, t.best_dev)
            out.append(best)
        return out


def _transform(value: float, spec: ParamSpec) -> float:
    return math.log10(value) if spec.scale == "log" else value


def _untransform(value: float, spec: ParamSpec) -> float:
    # clamped: 10**log10(2e-3) is 0.0020000000000000005
    return min(max(10.0**value, spec.low), spec.high) if spec.scale == "log" else value


def _kde_bandwidths(points: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Per-point bandwidth = larger adjacent gap, range edges as neighbors,
    floored at 1% of the range width."""
    width = hi - lo
    order = np.argsort(points)
    sorted_pts = points[order]
    padded = np.concatenate([[lo], sorted_pts, [hi]])
    gaps = np.maximum(padded[2:] - padded[1:-1], padded[1:-1] - padded[:-2])
    bw = np.empty_like(points)
    bw[order] = np.maximum(gaps, 0.01 * width)
    return bw


def _kde_logpdf(x: np.ndarray, points: np.ndarray, bw: np.ndarray) -> np.ndarray:
    z = (x[:, None] - points[None, :]) / bw[None, :]
    comp = -0.5 * z * z - np.log(bw[None, :] * math.sqrt(2.0 * math.pi))
    m = comp.max(axis=1, keepdims=True)
    return (m[:, 0] + np.log(np.mean(np.exp(comp - m), axis=1)))


def suggest(study: StudyRecord) -> OptimizerConfig:
    """Next configuration of the study's ``params``, drawn from trial
    ``len(study.trials)``'s own stream, so the same study always gives the
    same configuration.

    Uniform within range for the first 10 trials, TPE-style afterwards.
    Every suggested value lies inside its range; fields the study does not
    tune keep their ``default_config`` value.
    """
    if study.full:
        raise ValueError("study is full")
    n_observed = len(study.trials)
    rng = np.random.default_rng([study.sampler_seed, n_observed])
    values: dict[str, float] = {}
    use_tpe = n_observed >= N_STARTUP_TRIALS
    if use_tpe:
        ordered = sorted(range(n_observed),
                         key=lambda i: (-study.trials[i].best_dev, i))
        n_good = max(1, math.ceil(n_observed / 2))
        good_idx, bad_idx = ordered[:n_good], ordered[n_good:]
    for p in study.params:
        lo, hi = _transform(p.low, p), _transform(p.high, p)
        if not use_tpe:
            values[p.name] = _untransform(rng.uniform(lo, hi), p)
            continue
        observed = np.array([_transform(getattr(t.config, p.name), p) for t in study.trials])
        good, bad = observed[good_idx], observed[bad_idx]
        bw_good = _kde_bandwidths(good, lo, hi)
        bw_bad = _kde_bandwidths(bad, lo, hi)
        picks = rng.integers(0, good.size, size=N_CANDIDATES)
        cands = np.clip(good[picks] + bw_good[picks] * rng.standard_normal(N_CANDIDATES),
                        lo, hi)
        score = _kde_logpdf(cands, good, bw_good) - _kde_logpdf(cands, bad, bw_bad)
        values[p.name] = _untransform(float(cands[np.argmax(score)]), p)
    return replace(default_config(study.optimizer), **values)


def should_prune(study: StudyRecord, epoch: int, score: float) -> bool:
    """Median rule: prune iff at least 5 completed trials have a score at
    this epoch and ``score`` is strictly below their median. The first epoch
    of a trial is never pruned."""
    if epoch < PRUNE_WARMUP_EPOCHS:
        return False
    peers = [t.epoch_scores[epoch] for t in study.trials
             if t.status is TrialStatus.COMPLETED and len(t.epoch_scores) > epoch]
    if len(peers) < PRUNE_MIN_COMPLETED:
        return False
    return score < float(np.median(peers))


def best_trial(study: StudyRecord) -> TrialRecord:
    """Completed trial with the highest best_dev; ties go to the earliest."""
    completed = [t for t in study.trials if t.status is TrialStatus.COMPLETED]
    if not completed:
        raise ValueError("study has no completed trials")
    return max(completed, key=lambda t: t.best_dev)  # max keeps the first of ties


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def _config_to_doc(config: OptimizerConfig) -> dict:
    """A config's study-file form, which ``_trial_from_doc`` reads: its fields in
    order, the kind by name, ``lambda_`` under the key ``lambda`` and the rest as floats."""
    return {("lambda" if k == "lambda_" else k): v.value if k == "kind" else float(v)
            for k, v in vars(config).items()}


def _trial_to_doc(trial: TrialRecord) -> dict:
    return {
        "config": _config_to_doc(trial.config),
        "epoch_scores": list(trial.epoch_scores),
        "status": trial.status.value,
        "best_epoch": trial.best_epoch,
        "best_dev": trial.best_dev if math.isfinite(trial.best_dev) else None,
    }


def _trial_from_doc(doc: dict) -> TrialRecord:
    """The trial a study-file entry describes, from its config, scores and status."""
    cfg = dict(doc["config"], kind=OptimizerKind.parse(doc["config"]["kind"]))
    cfg["lambda_"] = cfg.pop("lambda")
    return TrialRecord(OptimizerConfig(**cfg), doc["epoch_scores"], TrialStatus(doc["status"]))


def _study_doc(study: StudyRecord) -> dict:
    """A study's file form: its init fields, each trial with its derived best."""
    return {
        "optimizer": study.optimizer.value,
        "regime": study.regime.value,
        "sampler_seed": study.sampler_seed,
        "max_trials": study.max_trials,
        "trials": [_trial_to_doc(t) for t in study.trials],
    }


def save_study_json(study: StudyRecord, path) -> None:
    """Write ``_study_doc(study)``, so ``load_study_json`` returns an equal
    study that asks for the same next configuration."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_study_doc(study), indent=1))


def load_study_json(path) -> StudyRecord:
    """The study ``save_study_json`` wrote to ``path``. A file loads iff it is the
    JSON document ``save_study_json`` writes for the study it describes; any other
    (not a JSON object, a missing key, a refused value, ``7.0`` for ``7``, a stored
    ``best_dev`` its scores do not give) raises a ConfigError naming the file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("not a JSON object")
        study = StudyRecord(optimizer=OptimizerKind.parse(doc["optimizer"]),
                            regime=Regime.parse(doc["regime"]),
                            sampler_seed=doc["sampler_seed"], max_trials=doc["max_trials"])
        for trial_doc in doc["trials"]:
            study.add(_trial_from_doc(trial_doc))
        saved = {k: json.dumps(v, sort_keys=True) for k, v in _study_doc(study).items()}
        read = {k: json.dumps(v, sort_keys=True) for k, v in doc.items()}
        if saved != read:
            key = next(k for k in {**saved, **read} if saved.get(k) != read.get(k))
            raise ValueError(f"{key!r} disagrees with the study the file describes")
    except KeyError as exc:
        raise ConfigError(f"{path} lacks key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return study
