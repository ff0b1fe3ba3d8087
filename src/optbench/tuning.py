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

Three regimes: ``defaults`` pins everything (one trial), ``lr_only`` tunes
only epsilon, ``full`` tunes every ranged hyperparameter of the optimizer.

The sampler draws the first 10 trials uniformly (log-uniform on log dims),
then switches to a Tree-structured-Parzen-style rule: trials are split at
the median objective into good and bad halves, each half gets a
per-dimension Gaussian kernel density (bandwidth from adjacent-point
spacing), 24 candidates are drawn from the good density, and the candidate
with the highest good/bad density ratio wins. Median pruning stops a trial
whose epoch score falls strictly below the median score of at least five
completed trials at the same epoch (never during a trial's first epoch).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from optbench.optimizers import (
    ADAPTIVE_KINDS,
    ConfigError,
    OptimizerConfig,
    OptimizerKind,
    default_config,
)

__all__ = [
    "MAX_TRIALS",
    "Regime",
    "ParamSpec",
    "SpaceSpec",
    "TrialStatus",
    "TrialRecord",
    "StudyRecord",
    "search_space",
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
        except ValueError:
            raise ConfigError(f"unknown regime: {text!r}") from None


@dataclass(frozen=True)
class ParamSpec:
    """One searchable hyperparameter: range, scale, default, and pin state."""

    name: str
    low: float
    high: float
    scale: str  # "log" | "linear"
    default: float
    pinned: bool = False

    def __post_init__(self):
        if self.scale not in ("log", "linear"):
            raise ConfigError(f"bad scale {self.scale!r}")
        if not self.low < self.high:
            raise ConfigError(f"{self.name}: low must be < high")
        if self.scale == "log" and self.low <= 0:
            raise ConfigError(f"{self.name}: log scale needs positive bounds")


@dataclass(frozen=True)
class SpaceSpec:
    kind: OptimizerKind
    regime: Regime
    params: tuple[ParamSpec, ...]

    def param(self, name: str) -> ParamSpec:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def contains(self, config: OptimizerConfig) -> bool:
        """True if the config could have been produced from this space."""
        values = config.values_by_key()
        for p in self.params:
            v = values[p.name]
            if p.pinned:
                if v != p.default:
                    return False
            elif not p.low <= v <= p.high:
                return False
        return True


# (low, high, scale) per hyperparameter; epsilon depends on the optimizer.
_EPSILON_ADAPTIVE = (1e-7, 1e-5, "log")
_EPSILON_SGD = (1e-7, 1e-3, "log")
_RANGES = {
    "rho1": (0.8, 0.95, "linear"),
    "rho2": (0.9, 0.99999, "linear"),
    "delta": (1e-9, 1e-7, "log"),
    "alpha_nadam": (1e-4, 1e-2, "log"),
    "alpha_sgdm": (0.7, 0.9999, "linear"),
    "eps_star": (1e-2, 1e-1, "linear"),
    "gamma": (1e-4, 2e-3, "log"),
}


def _searchable_names(kind: OptimizerKind) -> list[str]:
    names = ["epsilon"]
    if kind in ADAPTIVE_KINDS:
        names += ["rho1", "rho2", "delta"]
    if kind in (OptimizerKind.NADAM, OptimizerKind.SGDM):
        names.append("alpha")
    if kind is OptimizerKind.ADABOUND:
        names += ["eps_star", "gamma"]
    return names


def search_space(kind: OptimizerKind, regime: Regime) -> SpaceSpec:
    """Space for ``kind`` under ``regime``; pins follow the regime.

    For the five adaptive optimizers the default learning rate sits strictly
    above the search range, which is asserted here.
    """
    kind = OptimizerKind.parse(kind) if not isinstance(kind, OptimizerKind) else kind
    regime = Regime.parse(regime) if not isinstance(regime, Regime) else regime
    defaults = default_config(kind).values_by_key()
    entries = []
    for name in _searchable_names(kind):
        if name == "epsilon":
            low, high, scale = _EPSILON_ADAPTIVE if kind in ADAPTIVE_KINDS else _EPSILON_SGD
        elif name == "alpha":
            key = "alpha_nadam" if kind is OptimizerKind.NADAM else "alpha_sgdm"
            low, high, scale = _RANGES[key]
        else:
            low, high, scale = _RANGES[name]
        pinned = regime is Regime.DEFAULTS or (regime is Regime.LR_ONLY and name != "epsilon")
        entries.append(ParamSpec(name=name, low=low, high=high, scale=scale,
                                 default=defaults[name], pinned=pinned))
    space = SpaceSpec(kind=kind, regime=regime, params=tuple(entries))
    if kind in ADAPTIVE_KINDS:
        eps = space.param("epsilon")
        if not eps.default > eps.high:
            raise ConfigError(
                f"{kind.value}: default epsilon {eps.default} must lie above "
                f"the search range upper bound {eps.high}"
            )
    return space


class TrialStatus(str, Enum):
    COMPLETED = "completed"
    PRUNED = "pruned"
    DIVERGED = "diverged"


@dataclass(frozen=True)
class TrialRecord:
    """One hyperparameter configuration and its per-epoch dev scores."""

    config: OptimizerConfig
    epoch_scores: tuple[float, ...]
    status: TrialStatus
    best_epoch: int | None
    best_dev: float

    @classmethod
    def finish(cls, config: OptimizerConfig, epoch_scores, status: TrialStatus
               ) -> "TrialRecord":
        scores = tuple(float(s) for s in epoch_scores)
        if status is not TrialStatus.DIVERGED and not scores:
            raise ValueError(f"{status.value} trial needs at least one epoch score")
        if scores:
            best_epoch = int(np.argmax(scores))  # ties resolve to the earliest epoch
            best_dev = scores[best_epoch]
        else:
            best_epoch, best_dev = None, float("-inf")
        if status is TrialStatus.DIVERGED:
            best_dev = float("-inf")  # diverged trials can never be best
        return cls(config=config, epoch_scores=scores, status=status,
                   best_epoch=best_epoch, best_dev=best_dev)


@dataclass
class StudyRecord:
    """Append-only log of at most ``max_trials`` trials, maximizing dev score."""

    optimizer: OptimizerKind
    regime: Regime
    sampler_seed: int
    trials: list[TrialRecord] = field(default_factory=list)
    max_trials: int = MAX_TRIALS

    def __post_init__(self):
        if not 1 <= self.max_trials <= MAX_TRIALS:
            raise ConfigError(f"trial budget must be in [1, {MAX_TRIALS}]")

    def add(self, trial: TrialRecord) -> None:
        if len(self.trials) >= self.max_trials:
            raise ValueError("study is full")
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
    return 10.0**value if spec.scale == "log" else value


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


def suggest(study: StudyRecord, space: SpaceSpec, rng: np.random.Generator
            ) -> OptimizerConfig:
    """Next configuration to try.

    Uniform within range for the first 10 trials, TPE-style afterwards;
    pinned dimensions always take their default. Every suggested value lies
    inside its range.
    """
    if len(study.trials) >= study.max_trials:
        raise ValueError("study is full")
    values: dict[str, float] = {}
    n_observed = len(study.trials)
    use_tpe = n_observed >= N_STARTUP_TRIALS
    if use_tpe:
        ordered = sorted(range(n_observed),
                         key=lambda i: (-study.trials[i].best_dev, i))
        n_good = max(1, math.ceil(n_observed / 2))
        good_idx, bad_idx = ordered[:n_good], ordered[n_good:]
    for p in space.params:
        if p.pinned:
            values[p.name] = p.default
            continue
        lo, hi = _transform(p.low, p), _transform(p.high, p)
        if not use_tpe:
            values[p.name] = _untransform(rng.uniform(lo, hi), p)
            continue
        observed = np.array(
            [_transform(t.config.values_by_key()[p.name], p) for t in study.trials]
        )
        good, bad = observed[good_idx], observed[bad_idx]
        bw_good = _kde_bandwidths(good, lo, hi)
        bw_bad = _kde_bandwidths(bad, lo, hi)
        picks = rng.integers(0, good.size, size=N_CANDIDATES)
        cands = np.clip(good[picks] + bw_good[picks] * rng.standard_normal(N_CANDIDATES),
                        lo, hi)
        score = _kde_logpdf(cands, good, bw_good) - _kde_logpdf(cands, bad, bw_bad)
        values[p.name] = _untransform(float(cands[np.argmax(score)]), p)
    return default_config(space.kind).with_values(**values)


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

def _trial_to_doc(trial: TrialRecord) -> dict:
    return {
        "config": trial.config.values_by_key(),
        "epoch_scores": list(trial.epoch_scores),
        "status": trial.status.value,
        "best_epoch": trial.best_epoch,
        "best_dev": trial.best_dev if math.isfinite(trial.best_dev) else None,
    }


def _trial_from_doc(doc: dict) -> TrialRecord:
    cfg = dict(doc["config"])
    cfg["lambda_"] = cfg.pop("lambda")
    cfg["kind"] = OptimizerKind.parse(cfg["kind"])
    best_dev = doc["best_dev"]
    return TrialRecord(
        config=OptimizerConfig(**cfg),
        epoch_scores=tuple(doc["epoch_scores"]),
        status=TrialStatus(doc["status"]),
        best_epoch=doc["best_epoch"],
        best_dev=float("-inf") if best_dev is None else float(best_dev),
    )


def save_study_json(study: StudyRecord, path) -> None:
    doc = {
        "optimizer": study.optimizer.value,
        "regime": study.regime.value,
        "sampler_seed": study.sampler_seed,
        "trials": [_trial_to_doc(t) for t in study.trials],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_study_json(path) -> StudyRecord:
    with open(path) as fh:
        doc = json.load(fh)
    study = StudyRecord(
        optimizer=OptimizerKind.parse(doc["optimizer"]),
        regime=Regime.parse(doc["regime"]),
        sampler_seed=int(doc["sampler_seed"]),
    )
    for trial_doc in doc["trials"]:
        study.add(_trial_from_doc(trial_doc))
    return study
