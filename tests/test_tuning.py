"""Unit tests for search spaces, the TPE-style sampler, and pruning."""

import json
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optbench.optimizers import (
    ConfigError,
    OptimizerConfig,
    OptimizerKind,
    default_config,
)
from optbench import tuning
from optbench.tuning import (
    MAX_TRIALS,
    Regime,
    StudyRecord,
    TrialRecord,
    TrialStatus,
    best_trial,
    load_study_json,
    save_study_json,
    should_prune,
    suggest,
)

# the paper's five adaptive optimizers, stated here rather than imported, so the
# check does not read the table it tests
ADAPTIVE_KINDS = (OptimizerKind.ADAM, OptimizerKind.NADAM, OptimizerKind.ADAMW,
                  OptimizerKind.ADAMAX, OptimizerKind.ADABOUND)

ALL_KINDS = list(OptimizerKind)


def make_trial(kind=OptimizerKind.ADAM, scores=(0.5,), status=TrialStatus.COMPLETED,
               **config_overrides):
    config = replace(default_config(kind), **config_overrides)
    return TrialRecord(config, scores, status)


def make_study(trials=(), kind=OptimizerKind.ADAM, regime=Regime.FULL, budget=MAX_TRIALS,
               seed=0):
    study = StudyRecord(optimizer=kind, regime=regime, sampler_seed=seed, max_trials=budget)
    for t in trials:
        study.add(t)
    return study


def params(kind, regime=Regime.FULL):
    return make_study(kind=kind, regime=regime).params


def ranges(kind, regime=Regime.FULL):
    """(low, high, scale) of each hyperparameter a study tunes, by name."""
    return {p.name: (p.low, p.high, p.scale) for p in params(kind, regime)}


# ---------------------------------------------------------------------------
# Search spaces
# ---------------------------------------------------------------------------

def test_adam_full_space_matches_published_ranges():
    assert [p.name for p in params(OptimizerKind.ADAM)] == ["epsilon", "rho1", "rho2", "delta"]
    got = ranges(OptimizerKind.ADAM)
    assert got["epsilon"] == (1e-7, 1e-5, "log")
    assert got["rho1"][:2] == (0.8, 0.95)
    assert got["rho1"][2] == "linear"
    assert got["rho2"][:2] == (0.9, 0.99999)
    assert got["delta"][:2] == (1e-9, 1e-7)
    assert got["delta"][2] == "log"


FULL_SPACE_ORDER = {
    OptimizerKind.SGD: ["epsilon"],
    OptimizerKind.SGDM: ["epsilon", "alpha"],
    OptimizerKind.ADAM: ["epsilon", "rho1", "rho2", "delta"],
    OptimizerKind.NADAM: ["epsilon", "rho1", "rho2", "delta", "alpha"],
    OptimizerKind.ADAMW: ["epsilon", "rho1", "rho2", "delta"],
    OptimizerKind.ADAMAX: ["epsilon", "rho1", "rho2", "delta"],
    OptimizerKind.ADABOUND: ["epsilon", "rho1", "rho2", "delta", "eps_star", "gamma"],
}


@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
def test_full_space_order(kind):
    # the sampler draws the dimensions in this order, so results.csv depends on it
    assert [p.name for p in params(kind)] == FULL_SPACE_ORDER[kind]


def test_searched_table_is_well_formed():
    config_fields = {f.name for f in fields(OptimizerConfig)}
    assert set(tuning._SEARCHED) == set(OptimizerKind)
    for row in tuning._SEARCHED.values():
        for p in row:
            assert p.name in config_fields
            assert p.scale in ("log", "linear")
            assert p.low < p.high
            if p.scale == "log":
                assert p.low > 0


def test_sgdm_lr_only_space():
    assert ranges(OptimizerKind.SGDM, Regime.LR_ONLY) == {"epsilon": (1e-7, 1e-3, "log")}
    assert ranges(OptimizerKind.SGDM)["alpha"] == (0.7, 0.9999, "linear")
    config = suggest(make_study(kind=OptimizerKind.SGDM, regime=Regime.LR_ONLY))
    assert config.alpha == 0.9


def test_nadam_alpha_and_adabound_extras():
    assert ranges(OptimizerKind.NADAM)["alpha"] == (1e-4, 1e-2, "log")
    ab = ranges(OptimizerKind.ADABOUND)
    assert ab["eps_star"] == (1e-2, 1e-1, "linear")
    assert ab["gamma"] == (1e-4, 2e-3, "log")


def test_defaults_space_tunes_nothing():
    for kind in ALL_KINDS:
        assert params(kind, Regime.DEFAULTS) == ()
        assert make_study(kind=kind, regime=Regime.DEFAULTS).ask() == default_config(kind)
        assert suggest(make_study(kind=kind, regime=Regime.DEFAULTS)) == default_config(kind)
    ab = default_config(OptimizerKind.ADABOUND)
    assert (ab.epsilon, ab.eps_star, ab.gamma) == (1e-3, 0.1, 1e-3)


def test_adaptive_default_epsilon_outside_search_range():
    for kind in ADAPTIVE_KINDS:
        assert default_config(kind).epsilon > ranges(kind)["epsilon"][1]


def test_sgd_space_has_only_epsilon():
    assert [p.name for p in params(OptimizerKind.SGD)] == ["epsilon"]
    assert ranges(OptimizerKind.SGD)["epsilon"][:2] == (1e-7, 1e-3)


def test_regime_reduction_is_pointwise_restriction():
    for kind in ALL_KINDS:
        full = params(kind)
        assert params(kind, Regime.LR_ONLY) == full[:1]
        assert params(kind, Regime.DEFAULTS) == ()


def test_space_contains_defaults_only_for_sgd_family():
    for kind in ALL_KINDS:
        defaults = default_config(kind)
        for regime in (Regime.LR_ONLY, Regime.FULL):
            in_range = all(p.low <= getattr(defaults, p.name) <= p.high
                           for p in params(kind, regime))
            assert in_range == (kind in (OptimizerKind.SGD, OptimizerKind.SGDM))


# ---------------------------------------------------------------------------
# suggest
# ---------------------------------------------------------------------------

def _random_score(config, rng):
    return float(rng.uniform())


def _gamma_score(config, rng):
    # rewards large gamma, so TPE draws near the top of its log range
    return math.log10(config.gamma)


def test_suggest_range_containment_mass():
    rng = np.random.default_rng(0)  # the trials' scores
    cases = ([(kind, 0, _random_score) for kind in ALL_KINDS]
             + [(OptimizerKind.ADABOUND, seed, _gamma_score) for seed in range(10)])
    total = 0
    for kind, seed, score in cases:
        study = make_study(kind=kind, seed=seed)
        while not study.full:
            config = suggest(study)
            total += 1
            for p in study.params:
                assert p.low <= getattr(config, p.name) <= p.high, (kind, seed, p.name)
            study.add(TrialRecord(config, (score(config, rng),), TrialStatus.COMPLETED))
    assert total == MAX_TRIALS * len(cases)


def test_suggest_ten_thousand_in_range():
    # startup-phase (uniform) containment at volume, one empty study per seed
    for seed in range(10_000):
        study = make_study(kind=OptimizerKind.ADABOUND, seed=seed)
        config = suggest(study)
        for p in study.params:
            assert p.low <= getattr(config, p.name) <= p.high


def test_suggest_pinned_dimensions_return_defaults():
    study = make_study(kind=OptimizerKind.ADAM, regime=Regime.LR_ONLY, seed=2)
    for _ in range(12):
        config = suggest(study)
        assert (config.rho1, config.rho2, config.delta) == (0.9, 0.999, 1e-8)
        study.add(make_trial(OptimizerKind.ADAM, epsilon=config.epsilon))


def test_suggest_deterministic_given_seed():
    seqs = []
    for _ in range(2):
        study = make_study(seed=33)
        seq = []
        for i in range(15):
            config = suggest(study)
            seq.append(config)
            study.add(make_trial(OptimizerKind.ADAM, scores=(i * 0.01,),
                                 epsilon=config.epsilon, rho1=config.rho1,
                                 rho2=config.rho2, delta=config.delta))
        seqs.append(seq)
    assert seqs[0] == seqs[1]


def test_suggest_full_study_errors():
    study = make_study([make_trial() for _ in range(5)], budget=5)
    with pytest.raises(ValueError, match="full"):
        suggest(study)


def test_same_seed_and_trials_suggest_same_configs():
    # startup (3 trials) and TPE (12 trials) phases; suggest is pure: a
    # study's next config depends only on its kind, regime, sampler_seed and trials
    for n in (3, 12):
        trials = [make_trial(scores=(0.05 * i,), epsilon=10 ** (-7 + 0.15 * i))
                  for i in range(n)]
        a, b = (make_study(trials, seed=5) for _ in range(2))
        assert suggest(a) == suggest(a) == suggest(b)
        assert a.ask() == b.ask() == suggest(a)
        assert suggest(make_study(trials, seed=6)) != suggest(a)


@pytest.mark.parametrize("regime", list(Regime), ids=lambda regime: regime.value)
@pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda kind: kind.value)
def test_ask_starts_from_defaults_exactly_when_space_contains_them(kind, regime):
    study = make_study(kind=kind, regime=regime, seed=4)
    first = study.ask()
    seeded = regime is Regime.DEFAULTS or kind in (OptimizerKind.SGD, OptimizerKind.SGDM)
    assert (first == default_config(kind)) == seeded
    if not seeded:  # trial 0 is the sampler's first draw
        assert first == suggest(make_study(kind=kind, regime=regime, seed=4))
    study.add(TrialRecord(first, (0.5,), TrialStatus.COMPLETED))
    if regime is Regime.DEFAULTS:  # full after one trial, whatever max_trials says
        assert study.max_trials == MAX_TRIALS and study.full
        with pytest.raises(ValueError, match="full"):
            study.ask()
    else:  # every later trial is the sampler's
        assert study.ask() != default_config(kind)


def test_tpe_concentrates_on_good_region():
    # good trials cluster at epsilon ~ 1e-6; bad ones at the range edges
    trials = []
    for i in range(10):
        good = i < 5
        eps = 10 ** (-6 + 0.03 * (i - 2)) if good else (1.2e-7 if i % 2 else 9e-6)
        trials.append(make_trial(OptimizerKind.ADAM, scores=(1.0 if good else 0.0,),
                                 epsilon=eps))
    hits = 0
    for seed in range(7, 57):  # the same trials, one study per seed
        config = suggest(make_study(trials, regime=Regime.LR_ONLY, seed=seed))
        if abs(math.log10(config.epsilon) + 6.0) < 0.5:
            hits += 1
    assert hits >= 40


def test_suggest_uniform_startup_spreads_log_scale():
    lows = 0
    n = 400
    for seed in range(10, 10 + n):  # no trials: every study's draw is uniform
        config = suggest(make_study(regime=Regime.LR_ONLY, seed=seed))
        if config.epsilon < 1e-6:
            lows += 1
    assert 0.35 < lows / n < 0.65  # log-uniform: half the draws below mid-decade


# ---------------------------------------------------------------------------
# Pruning
# ---------------------------------------------------------------------------

def epoch_scored_trial(scores):
    return make_trial(scores=scores)


def test_prune_needs_five_completed():
    study = make_study([epoch_scored_trial((0.9, 0.9))] * 2)
    assert should_prune(study, 1, 0.0) is False


def test_prune_median_rule_from_worked_example():
    trials = [epoch_scored_trial((0.1, 0.1, s)) for s in (0.5, 0.6, 0.7, 0.8, 0.9)]
    study = make_study(trials)
    assert should_prune(study, 2, 0.4) is True
    assert should_prune(study, 2, 0.7) is False  # exactly the median survives
    assert should_prune(study, 2, 0.71) is False


def test_prune_never_in_first_epoch():
    trials = [epoch_scored_trial((0.9, 0.9)) for _ in range(8)]
    study = make_study(trials)
    assert should_prune(study, 0, -1.0) is False
    assert should_prune(study, 1, 0.0) is True


def test_prune_ignores_pruned_and_diverged_peers():
    done = [epoch_scored_trial((0.5, 0.9)) for _ in range(4)]
    pruned = [make_trial(scores=(0.99, 0.99), status=TrialStatus.PRUNED) for _ in range(3)]
    study = make_study(done + pruned)
    assert should_prune(study, 1, 0.0) is False  # only 4 completed peers


# ---------------------------------------------------------------------------
# best_trial and records
# ---------------------------------------------------------------------------

def test_best_trial_selection():
    t = [make_trial(scores=(0.7,)), make_trial(scores=(0.9,)), make_trial(scores=(0.8,))]
    assert best_trial(make_study(t)) is t[1]
    single = make_trial(scores=(0.5,))
    assert best_trial(make_study([single])) is single
    tie = [make_trial(scores=(0.9,)), make_trial(scores=(0.9,))]
    assert best_trial(make_study(tie)) is tie[0]


def test_best_trial_excludes_pruned_and_diverged():
    pruned = make_trial(scores=(0.99,), status=TrialStatus.PRUNED)
    diverged = make_trial(scores=(), status=TrialStatus.DIVERGED)
    completed = make_trial(scores=(0.4,))
    assert best_trial(make_study([pruned, diverged, completed])) is completed
    with pytest.raises(ValueError):
        best_trial(make_study([pruned, diverged]))


def test_trial_record_finish():
    t = make_trial(scores=(0.6, 0.8, 0.7))
    assert (t.best_epoch, t.best_dev) == (1, 0.8)
    tie = make_trial(scores=(0.8, 0.8))
    assert tie.best_epoch == 0
    diverged = make_trial(scores=(0.5,), status=TrialStatus.DIVERGED)
    assert diverged.best_dev == -math.inf
    with pytest.raises(ValueError):
        make_trial(scores=())


def test_study_trial_cap_and_monotone_best():
    study = make_study(budget=3)
    for s in (0.5, 0.4, 0.9):
        study.add(make_trial(scores=(s,)))
    with pytest.raises(ValueError):
        study.add(make_trial())
    seq = study.best_so_far()
    assert seq == [0.5, 0.5, 0.9]
    assert all(a <= b for a, b in zip(seq, seq[1:]))
    with pytest.raises(ConfigError):
        StudyRecord(optimizer=OptimizerKind.SGD, regime=Regime.FULL,
                    sampler_seed=0, max_trials=MAX_TRIALS + 1)


def test_loaded_defaults_study_accepts_no_second_trial(tmp_path):
    study = make_study([make_trial(OptimizerKind.SGD)], kind=OptimizerKind.SGD,
                       regime=Regime.DEFAULTS, budget=1)
    save_study_json(study, tmp_path / "study.json")
    back = load_study_json(tmp_path / "study.json")
    with pytest.raises(ValueError, match="full"):
        back.add(make_trial(OptimizerKind.SGD))
    assert back.full


def test_study_json_roundtrip(tmp_path):
    study = make_study([
        make_trial(scores=(0.2, 0.6, 0.4), epsilon=3e-6),
        make_trial(scores=(0.5,), status=TrialStatus.PRUNED, epsilon=9e-7),
        make_trial(scores=(), status=TrialStatus.DIVERGED, epsilon=1e-5),
        # every field away from its default, including those AdamW ignores
        make_trial(kind=OptimizerKind.ADAMW, scores=(0.1, 0.3), epsilon=3e-6, rho1=0.83,
                   rho2=0.95, delta=2e-8, alpha=0.25, lambda_=0.3, eps_star=0.05,
                   gamma=7e-4),
    ], kind=OptimizerKind.ADAMW, regime=Regime.LR_ONLY, budget=7)
    moved = asdict(study.trials[-1].config)
    defaults = asdict(default_config(OptimizerKind.ADAMW))
    assert [k for k in moved if moved[k] == defaults[k]] == ["kind"]
    path = tmp_path / "study.json"
    save_study_json(study, path)
    back = load_study_json(path)
    assert back.optimizer is OptimizerKind.ADAMW
    assert back.regime is Regime.LR_ONLY
    assert back.sampler_seed == study.sampler_seed
    assert back.max_trials == 7
    assert len(back.trials) == 4
    assert back == study
    for a, b in zip(back.trials, study.trials):
        assert a.config == b.config
        assert a.epoch_scores == b.epoch_scores
        assert a.status is b.status
        assert a.best_epoch == b.best_epoch
        assert a.best_dev == b.best_dev or (math.isinf(a.best_dev) and
                                            math.isinf(b.best_dev))
    # best_epoch and best_dev are derived from the scores, never trusted from the file
    doc = json.loads(path.read_text())
    for field, value in (("best_dev", 0.5), ("best_epoch", 0), ("best_dev", None)):
        bad = json.loads(json.dumps(doc))
        bad["trials"][0][field] = value
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match="disagree"):
            load_study_json(path)


def test_study_file_bytes(tmp_path):
    # the study-file form, pinned: key names and order, indent=1, and null
    # for a diverged trial's best_epoch and best_dev
    config = replace(default_config(OptimizerKind.ADAMW), lambda_=0.05)
    study = make_study([
        TrialRecord(replace(config, epsilon=3e-06), (0.25, 0.75, 0.5), TrialStatus.COMPLETED),
        TrialRecord(replace(config, epsilon=1e-06), (0.125,), TrialStatus.PRUNED),
        TrialRecord(replace(config, epsilon=1e-05), (), TrialStatus.DIVERGED),
    ], kind=OptimizerKind.ADAMW, regime=Regime.LR_ONLY, budget=3, seed=7)
    path = tmp_path / "study.json"
    save_study_json(study, path)
    assert path.read_text() == STUDY_FILE_TEXT
    assert load_study_json(path) == study


STUDY_FILE_TEXT = """{
 "optimizer": "adamw",
 "regime": "lr_only",
 "sampler_seed": 7,
 "max_trials": 3,
 "trials": [
  {
   "config": {
    "kind": "adamw",
    "epsilon": 3e-06,
    "rho1": 0.9,
    "rho2": 0.999,
    "delta": 1e-08,
    "alpha": 0.0,
    "lambda": 0.05,
    "eps_star": 0.1,
    "gamma": 0.001
   },
   "epoch_scores": [
    0.25,
    0.75,
    0.5
   ],
   "status": "completed",
   "best_epoch": 1,
   "best_dev": 0.75
  },
  {
   "config": {
    "kind": "adamw",
    "epsilon": 1e-06,
    "rho1": 0.9,
    "rho2": 0.999,
    "delta": 1e-08,
    "alpha": 0.0,
    "lambda": 0.05,
    "eps_star": 0.1,
    "gamma": 0.001
   },
   "epoch_scores": [
    0.125
   ],
   "status": "pruned",
   "best_epoch": 0,
   "best_dev": 0.125
  },
  {
   "config": {
    "kind": "adamw",
    "epsilon": 1e-05,
    "rho1": 0.9,
    "rho2": 0.999,
    "delta": 1e-08,
    "alpha": 0.0,
    "lambda": 0.05,
    "eps_star": 0.1,
    "gamma": 0.001
   },
   "epoch_scores": [],
   "status": "diverged",
   "best_epoch": null,
   "best_dev": null
  }
 ]
}"""


@pytest.mark.parametrize("fault", ["over budget", "no sampler_seed", "null sampler_seed",
                                   "float sampler_seed", "bool sampler_seed",
                                   "float max_trials", "not json", "json array",
                                   "string and bool scores", "bool best_epoch", "bool rho1",
                                   "extra key", "negative sampler_seed", "number regime",
                                   "number kind"])
def test_load_study_json_names_file(tmp_path, fault):
    study = make_study([make_trial(), make_trial()], regime=Regime.LR_ONLY, budget=2)
    path = tmp_path / "study.json"
    save_study_json(study, path)
    doc = json.loads(path.read_text())
    if fault == "not json":
        doc = "{not json"  # written as is, not as a JSON string
        expected = f"{path}: Expecting property name"
    elif fault == "json array":
        doc = [doc]
        expected = f"{path}: not a JSON object"
    elif fault == "over budget":
        doc["max_trials"] = 1
        expected = f"{path}: study is full at 1 trial(s)"
    elif fault == "no sampler_seed":
        del doc["sampler_seed"]
        expected = f"{path} lacks key 'sampler_seed'"
    elif fault == "float sampler_seed":  # refused, not truncated to 7
        doc["sampler_seed"] = 7.9
        expected = f"{path}: sampler_seed must be an integer, got 7.9"
    elif fault == "bool sampler_seed":  # refused, not read as 1
        doc["sampler_seed"] = True
        expected = f"{path}: sampler_seed must be an integer, got True"
    elif fault == "float max_trials":  # refused, not truncated to 3
        doc["max_trials"] = 3.5
        expected = f"{path}: max_trials must be an integer, got 3.5"
    elif fault == "string and bool scores":  # refused, not read as (0.5, 0.0)
        doc["trials"][0]["epoch_scores"] = ["0.5", False]
        expected = f"{path}: 'trials' disagrees with the study the file describes"
    elif fault == "bool best_epoch":  # refused, not read as 0
        doc["trials"][0]["best_epoch"] = False
        expected = f"{path}: 'trials' disagrees with the study the file describes"
    elif fault == "bool rho1":  # refused, not read as 0.0
        doc["trials"][0]["config"]["rho1"] = False
        expected = f"{path}: 'trials' disagrees with the study the file describes"
    elif fault == "extra key":
        doc["note"] = None
        expected = f"{path}: 'note' disagrees with the study the file describes"
    elif fault == "negative sampler_seed":  # a ConfigError here, not numpy's at the next ask
        doc["sampler_seed"] = -1
        expected = f"{path}: sampler_seed must be >= 0, got -1"
    elif fault == "number regime":  # a ConfigError, not an AttributeError
        doc["regime"] = 5
        expected = f"{path}: unknown regime: 5"
    elif fault == "number kind":
        doc["trials"][0]["config"]["kind"] = 1
        expected = f"{path}: unknown optimizer kind: 1"
    else:
        doc["sampler_seed"] = None
        expected = f"{path}: sampler_seed must be an integer, got None"
    path.write_text(doc if fault == "not json" else json.dumps(doc))
    with pytest.raises(ValueError) as info:
        load_study_json(path)
    assert str(info.value).startswith(expected)


def test_int_hyperparameter_is_saved_as_a_float(tmp_path):
    # a config built with an int epsilon is saved as the float the loaded
    # study is saved as, so the file loads and saves back to the same bytes
    study = make_study([make_trial(epsilon=1)])
    path = tmp_path / "study.json"
    save_study_json(study, path)
    epsilon = json.loads(path.read_text())["trials"][0]["config"]["epsilon"]
    assert type(epsilon) is float and epsilon == 1.0
    back = load_study_json(path)
    assert back == study
    save_study_json(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_text() == path.read_text()


def test_loaded_budget_two_study_is_full(tmp_path):
    study = make_study([make_trial(), make_trial()], regime=Regime.LR_ONLY, budget=2)
    save_study_json(study, tmp_path / "study.json")
    back = load_study_json(tmp_path / "study.json")
    assert back.max_trials == 2 and back.full
    with pytest.raises(ValueError, match="full"):
        back.ask()


def test_loaded_study_asks_what_the_original_asks(tmp_path):
    study = make_study(kind=OptimizerKind.ADAM, regime=Regime.LR_ONLY, seed=5)
    for i in range(3):
        study.add(TrialRecord(study.ask(), (0.1 * i,), TrialStatus.COMPLETED))
    save_study_json(study, tmp_path / "study.json")
    back = load_study_json(tmp_path / "study.json")
    assert back.ask() == study.ask()
    assert back.ask() not in [t.config for t in study.trials]


_SCORES = st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3)
_TRIAL_RESULTS = st.lists(
    st.one_of(st.tuples(st.sampled_from([TrialStatus.COMPLETED, TrialStatus.PRUNED]), _SCORES),
              st.just((TrialStatus.DIVERGED, []))),
    max_size=29)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), regime=st.sampled_from(list(Regime)),
       seed=st.integers(0, 2**64 - 1), budget=st.integers(1, MAX_TRIALS),
       results=_TRIAL_RESULTS)
def test_study_is_its_stored_fields(tmp_path_factory, kind, regime, seed, budget, results):
    # a study built from its own asks: suggest is pure, and a saved study
    # loads back equal and asks for the same next config
    study = make_study(kind=kind, regime=regime, seed=seed, budget=budget)
    for status, scores in results:
        if study.full:
            break
        study.add(TrialRecord(study.ask(), tuple(scores), status))
    path = tmp_path_factory.mktemp("study") / "study.json"
    save_study_json(study, path)
    back = load_study_json(path)
    assert back == study
    if not study.full:
        assert suggest(study) == suggest(study)
        assert back.ask() == study.ask()


def number_paths(node, path=()):
    """The path to every number in a parsed JSON document, bools aside."""
    if type(node) in (int, float):
        return [path]
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    return [p for key, child in children for p in number_paths(child, path + (key,))]


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(ALL_KINDS), regime=st.sampled_from(list(Regime)),
       seed=st.integers(0, 2**64 - 1), budget=st.integers(1, MAX_TRIALS),
       results=_TRIAL_RESULTS, data=st.data())
def test_study_file_with_one_number_retyped_is_refused(tmp_path_factory, kind, regime, seed,
                                                       budget, results, data):
    # a file loads only as the document save_study_json writes: one number
    # turned into a bool, a string or the other JSON number type is refused
    study = make_study(kind=kind, regime=regime, seed=seed, budget=budget)
    for status, scores in results:
        if study.full:
            break
        study.add(TrialRecord(study.ask(), tuple(scores), status))
    path = tmp_path_factory.mktemp("study") / "study.json"
    save_study_json(study, path)
    doc = json.loads(path.read_text())
    *where, last = data.draw(st.sampled_from(number_paths(doc)))
    parent = doc
    for key in where:
        parent = parent[key]
    value = parent[last]
    retyped = [st.booleans(), st.text(max_size=8), st.just(str(value))]
    if type(value) is int:
        retyped.append(st.just(float(value)))  # 7 -> 7.0
    elif value.is_integer():
        retyped.append(st.just(int(value)))  # 1.0 -> 1
    parent[last] = data.draw(st.one_of(retyped))
    path.write_text(json.dumps(doc, indent=1))
    with pytest.raises(ConfigError) as info:
        load_study_json(path)
    assert str(info.value).startswith(str(path))
