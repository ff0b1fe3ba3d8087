"""Benchmark of the ``optbench`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload protocol --seed 20 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src`` and nothing is installed. Every command of a workload starts a
fresh Python process (``perfbench/launch.py``, which calls
``optbench.cli.main`` like the console script does), one at a time: a
closed loop with one client. A run first launches a few set-up probes that
stop once the arguments are parsed, then repeats the workload's command
sequence at the given seed, each time in a fresh run directory and after
two more probes, until the next repetition would end after ``--seconds``,
and at least twice.

``--trace 0`` reports the end-to-end metrics, medians over the repetitions:

    wall_s        wall time of the command sequence
    setup_s       process launch until the arguments are parsed
    steps_per_s   training steps / wall_s (steps counted from the study files)
    trials_per_s  trials of every status / wall_s
    peak_rss_mb   peak resident memory of the sequence's processes

``--trace 1`` alternates untraced and traced repetitions. The traced ones
wrap the functions ``layer_map.json`` names (see ``tracer.py``) and report
the per-layer metrics listed in ``BENCHMARK.json``, plus the tracing
overhead against the untraced ones.

Every repetition is checked: each command exits 0; results.csv has a row
per experiment and split; there is a study file per split holding 1 trial
(defaults regime) or ``--trials`` trials; scores are finite correlations or
rates; report.csv means and standard deviations match results.csv; the
follow-up ``report`` and ``curves`` commands print what the run directory
holds. The results.csv sha256 and the work counts (steps, trials by status,
studies, flat studies, bytes written) must repeat exactly across every
repetition of the run, traced or not; a repetition that differs is failed
as nondeterministic. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / "_work"
LAYER_MAP = BENCH_DIR / "layer_map.json"
N_PROBES = 5            # set-up probes before the first repetition
PROBES_PER_REP = 2      # and before each one, so they sample the whole window
HARD_LIMIT_S = 170  # a run stops every command it started by then
TAIL_GRID = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MODEL_FAMILIES = ("logistic", "mlp", "linear")
OPTIMIZER_KINDS = ("sgd", "sgdm", "adam", "nadam", "adamw", "adamax", "adabound")
METRIC_KINDS = ("accuracy", "macro_f1", "matthews", "pearson")


@dataclass(frozen=True)
class Workload:
    run_args: tuple[str, ...]
    experiments: int          # (task, optimizer, regime) triples the run covers
    splits: int
    trials: int
    epochs: int
    follow: tuple[str, ...] = ()  # commands run afterwards on the run directory


def _args(text: str) -> tuple[str, ...]:
    return tuple(text.split())


WORKLOADS = {
    # The north-star protocol command at 1 of its 5 splits and 3 of its 6
    # epochs: per-step work dominates and pruning still saves epochs.
    "protocol": Workload(
        _args("--task cola_like,stsb_like --optimizer all --regime all --trials 30 "
              "--splits 1 --epochs 3 --batch-size 4 --size 240"),
        experiments=42, splits=1, trials=30, epochs=3),
    # Never tunes; the MLP, 3 classes, regenerated data, 20-epoch curves and
    # the report/curves read path.
    "defaults_long": Workload(
        _args("--task all --optimizer all --regime defaults "
              "--splits 1 --epochs 20 --batch-size 4 --size 240"),
        experiments=35, splits=1, trials=1, epochs=20, follow=("report", "curves")),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a result."""


@dataclass
class Launch:
    args: list[str]
    rc: int
    wall_s: float
    setup_s: float | None
    rss_mb: float | None
    stdout: str
    stderr: str
    spans: Path | None


@dataclass
class Rep:
    index: int
    traced: bool
    launches: list[Launch]
    wall_s: float
    problems: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def _child_env() -> dict:
    env = dict(os.environ)
    # One thread per command: an idle BLAS worker would compete with it for
    # the host's few cores.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def launch(args: list[str], mode: str, name: str, deadline: float) -> Launch:
    """Run one command; it is killed if it is still running at ``deadline``."""
    marks, spans = WORK / f"{name}.marks.json", WORK / f"{name}.spans"
    cmd = [sys.executable, str(BENCH_DIR / "launch.py"), str(marks), mode, str(spans), *args]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
        rc, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired:
        rc, out, err = -1, "", f"killed at the {HARD_LIMIT_S} s limit of a run"
    wall = time.monotonic() - t0
    got = json.loads(marks.read_text()) if marks.exists() else {}
    marks.unlink(missing_ok=True)
    return Launch(args=args, rc=rc, wall_s=wall,
                  setup_s=got["parsed"] - t0 if "parsed" in got else None,
                  rss_mb=got["maxrss_kb"] / 1024 if "maxrss_kb" in got else None,
                  stdout=out, stderr=err,
                  spans=spans if mode == "trace" and spans.exists() else None)


def commands(w: Workload, seed: int, out: Path) -> list[list[str]]:
    run = ["run", *w.run_args, "--seed", str(seed), "--out", str(out)]
    return [run] + [[name, "--in", str(out)] for name in w.follow]


def _digests(out: Path, pattern: str) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob(pattern)}


def run_sequence(w: Workload, seed: int, index: int, traced: bool, deadline: float) -> Rep:
    out = WORK / f"rep{index}"
    shutil.rmtree(out, ignore_errors=True)
    launches: list[Launch] = []
    written: dict[str, str] = {}
    for i, args in enumerate(commands(w, seed, out)):
        launches.append(launch(args, "trace" if traced else "run", f"rep{index}.{i}", deadline))
        if launches[-1].rc != 0:
            break
        if i == 0:  # what `run` wrote, for the follow-up commands to reproduce
            written = _digests(out, "report.*") | _digests(out, "curve_*.csv")
    rep = Rep(index=index, traced=traced, launches=launches,
              wall_s=sum(l.wall_s for l in launches))
    rep.problems = check_launches(w, launches)
    if rep.ok:  # every command exited 0: check and count what they wrote
        try:
            rep.problems = check_outputs(w, out, launches, written)
            rep.counts = work_counts(w, out)
        except (OSError, ValueError, KeyError) as exc:
            rep.problems.append(f"unreadable run directory: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return rep


# ---------------------------------------------------------------------------
# Output checks and work counts
# ---------------------------------------------------------------------------

def check_launches(w: Workload, launches: list[Launch]) -> list[str]:
    problems = []
    for l in launches:
        if l.rc != 0:
            tail = l.stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"`optbench {l.args[0]}` exited {l.rc}: {tail[0]}")
        elif l.setup_s is None:
            problems.append(f"`optbench {l.args[0]}` left no set-up mark")
    if not problems and len(launches) != 1 + len(w.follow):
        problems.append("command sequence stopped early")
    return problems


def check_outputs(w: Workload, out: Path, launches: list[Launch], written: dict[str, str]
                  ) -> list[str]:
    problems = []
    n_rows = w.experiments * w.splits
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != n_rows:
        problems.append(f"results.csv has {len(rows)} rows, expected {n_rows}")
    scores = defaultdict(list)
    for row in rows:
        value = float(row["test_score"])
        if not (math.isfinite(value) and -1.0 <= value <= 1.0):
            problems.append(f"results.csv score {row['test_score']} out of range")
        scores[(row["task"], row["optimizer"], row["regime"])].append(value)
    studies = sorted(out.glob("study_*.json"))
    if len(studies) != n_rows:
        problems.append(f"{len(studies)} study files, expected {n_rows}")
    for path in studies:
        doc = json.loads(path.read_text())
        expected = 1 if doc["regime"] == "defaults" else w.trials
        if len(doc["trials"]) != expected:
            problems.append(f"{path.name} has {len(doc['trials'])} trials, expected {expected}")
    with open(out / "report.csv", newline="") as fh:
        report = list(csv.DictReader(fh))
    if len(report) != w.experiments:
        problems.append(f"report.csv has {len(report)} rows, expected {w.experiments}")
    for row in report:
        values = scores.get((row["task"], row["optimizer"], row["regime"]), [])
        if not values or not (
                math.isclose(float(row["mean"]), statistics.fmean(values), abs_tol=1e-12)
                and math.isclose(float(row["std"]), statistics.pstdev(values), abs_tol=1e-12)):
            problems.append(f"report.csv row {row['task']}/{row['optimizer']}/{row['regime']}"
                            " does not match results.csv")
    # `report` and `curves` rebuild from results.csv and the raw curves the
    # same bytes that `run` wrote from memory.
    rebuilt = _digests(out, "report.*") | _digests(out, "curve_*.csv")
    changed = sorted(name for name in written if rebuilt.get(name) != written[name])
    if changed:
        problems.append(f"rebuilt {', '.join(changed[:3])} differ from what `run` wrote")
    for l in launches[1:]:
        if l.args[0] == "report" and l.stdout.strip() != (out / "report.txt").read_text().strip():
            problems.append("`optbench report` printed another table than report.txt")
        if l.args[0] == "curves":
            paths = l.stdout.split()
            if len(paths) != w.experiments or not all(Path(p).is_file() for p in paths):
                problems.append(f"`optbench curves` listed {len(paths)} files, "
                                f"expected {w.experiments}")
    return problems


def _steps_per_epoch(raw_curve: Path) -> int:
    """Steps in the first epoch of the study's best trial: the step of the
    curve's first dev score."""
    with open(raw_curve, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["dev"] != "":
                return int(row["step"])
    raise ValueError(f"{raw_curve.name} has no dev score")


def work_counts(w: Workload, out: Path) -> dict:
    """Exact work done by one repetition, read from its run directory.

    ``steps`` counts the epochs each trial evaluated; a diverged trial's
    last, unfinished epoch is not visible in the files and is left out.
    """
    status = Counter()
    steps = epochs_run = epochs_budget = flat = 0
    studies = sorted(out.glob("study_*.json"))
    for path in studies:
        doc = json.loads(path.read_text())
        per_epoch = _steps_per_epoch(out / ("curve_raw_" + path.name[6:-5] + ".csv"))
        objectives = set()
        for trial in doc["trials"]:
            status[trial["status"]] += 1
            epochs_run += len(trial["epoch_scores"])
            epochs_budget += w.epochs
            steps += per_epoch * len(trial["epoch_scores"])
            objectives.add(trial["best_dev"])
        if doc["regime"] != "defaults" and len(doc["trials"]) > 1 and len(objectives) == 1:
            flat += 1
    return {
        "steps": steps,
        "trials": sum(status.values()),
        "completed": status["completed"],
        "pruned": status["pruned"],
        "diverged": status["diverged"],
        "studies": len(studies),
        "flat_studies": flat,
        "epochs_run": epochs_run,
        "epochs_budget": epochs_budget,
        "bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file()),
        "results_sha256": hashlib.sha256((out / "results.csv").read_bytes()).hexdigest(),
    }


def flag_nondeterminism(reps: list[Rep]) -> None:
    ok = [r for r in reps if r.ok]
    for r in ok[1:]:
        diff = sorted(k for k in r.counts if r.counts[k] != ok[0].counts[k])
        if diff:
            r.problems.append(f"nondeterministic: {', '.join(diff)} differ from rep {ok[0].index}")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, math.ceil(p / 100 * len(ordered)) - 1))]


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (the median
    when there are fewer than 20 samples)."""
    return next((p for p in TAIL_GRID if n * (1 - p / 100) >= 10), 50.0)


@dataclass
class Stat:
    value: float
    n: int
    tail: tuple[float, float]  # (percentile, value)

    def describe(self) -> str:
        text = f"median {self.value:.6g} n={self.n}"
        if self.tail[0] > 50:
            text += f" p{self.tail[0]:g} {self.tail[1]:.6g}"
        return text


def stat(values) -> Stat:
    values = list(values)
    p = tail_percentile(len(values))
    return Stat(statistics.median(values), len(values), (p, percentile(values, p)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list[Rep], probes: list[float]) -> dict[str, Stat]:
    setups = probes + [l.setup_s for r in reps for l in r.launches]
    return {
        "wall_s": stat(r.wall_s for r in reps),
        "setup_s": stat(setups),
        "steps_per_s": stat(r.counts["steps"] / r.wall_s for r in reps),
        "trials_per_s": stat(r.counts["trials"] / r.wall_s for r in reps),
        "peak_rss_mb": stat(max(l.rss_mb for l in r.launches) for r in reps),
    }


@dataclass
class SpanTable:
    """Spans of one traced repetition, grouped by span name (and name.tag)."""

    durations: dict = field(default_factory=lambda: defaultdict(list))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    flagged: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)
    problems: list = field(default_factory=list)

    def add(self, path: Path) -> None:
        sp = tracer.load_spans(path)
        selfs = tracer.self_times(sp.start, sp.end, sp.parent)
        roots = sum(e - s for s, e, p in zip(sp.start, sp.end, sp.parent) if p < 0)
        if not math.isclose(sum(selfs), roots, rel_tol=1e-6, abs_tol=1e-6):
            self.problems.append(f"self times sum to {sum(selfs)}, root spans to {roots}")
        self.absent.update(sp.absent)
        for i, name_id in enumerate(sp.name_id):
            name, tag = sp.names[name_id], sp.tags[sp.tag_id[i]]
            d = sp.end[i] - sp.start[i]
            self.durations[name].append(d)
            if tag:
                self.durations[f"{name}.{tag}"].append(d)
            self.self_s[name] += selfs[i]
            if sp.flags[i] & tracer.FLAG_NONFINITE:
                self.flagged[f"{name}.nonfinite"] += 1
            if sp.flags[i] & tracer.FLAG_TRUE:
                self.flagged[f"{name}.fired"] += 1

    def calls(self, key: str) -> int:
        return len(self.durations.get(key, ()))

    def us_p50(self, key: str) -> float:
        d = self.durations.get(key)
        return statistics.median(d) * 1e6 if d else 0.0


def traced_functions() -> list[str]:
    layers = json.loads(LAYER_MAP.read_text())["layers"]
    return [f"{layer}.{f}" for layer, entry in layers.items() for f in entry["functions"]]


def per_layer(rep: Rep, untraced_wall: float) -> tuple[dict[str, float], SpanTable]:
    t = SpanTable()
    for l in rep.launches:
        if l.spans is None:
            t.problems.append(f"`optbench {l.args[0]}` wrote no spans")
            continue
        t.add(l.spans)
        l.spans.unlink()
    c, m = rep.counts, {}
    lg, ap, ev, sg = ("tasks.loss_and_grad", "optimizers.apply_step", "metrics.evaluate",
                      "tuning.suggest")
    for fam in MODEL_FAMILIES:
        m[f"{lg}.{fam}.calls"] = t.calls(f"{lg}.{fam}")
        m[f"{lg}.{fam}.us_p50"] = t.us_p50(f"{lg}.{fam}")
    m[f"{lg}.self_s"] = t.self_s[lg]
    m[f"{lg}.nonfinite"] = t.flagged[f"{lg}.nonfinite"]
    for name in ("tasks.predict", "tasks.init_params"):
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.us_p50"] = t.us_p50(name)
    m["tasks.predict.self_s"] = t.self_s["tasks.predict"]
    m["tasks.make_dataset.self_s"] = t.self_s["tasks.make_dataset"]
    m["tasks.stratified_split.self_s"] = t.self_s["tasks.stratified_split"]
    for kind in OPTIMIZER_KINDS:
        m[f"{ap}.{kind}.us_p50"] = t.us_p50(f"{ap}.{kind}")
    m[f"{ap}.calls"] = t.calls(ap)
    m[f"{ap}.self_s"] = t.self_s[ap]
    m[f"{ap}.nonfinite"] = t.flagged[f"{ap}.nonfinite"]
    m["optimizers.init_state.calls"] = t.calls("optimizers.init_state")
    for kind in METRIC_KINDS:
        m[f"{ev}.{kind}.us_p50"] = t.us_p50(f"{ev}.{kind}")
    m[f"{ev}.calls"] = t.calls(ev)
    m[f"{ev}.self_s"] = t.self_s[ev]
    m[f"{sg}.startup.us_p50"] = t.us_p50(f"{sg}.startup")
    m[f"{sg}.tpe.us_p50"] = t.us_p50(f"{sg}.tpe")
    m[f"{sg}.calls"] = t.calls(sg)
    m[f"{sg}.self_s"] = t.self_s[sg]
    sp = "tuning.should_prune"
    m[f"{sp}.calls"] = t.calls(sp)
    m[f"{sp}.us_p50"] = t.us_p50(sp)
    m[f"{sp}.self_s"] = t.self_s[sp]
    m[f"{sp}.fired"] = t.flagged[f"{sp}.fired"]
    m["tuning.trials.completed"] = c["completed"]
    m["tuning.trials.pruned"] = c["pruned"]
    m["tuning.trials.diverged"] = c["diverged"]
    m["tuning.completed_ratio"] = c["completed"] / max(1, c["trials"])
    m["tuning.epochs_run_ratio"] = c["epochs_run"] / max(1, c["epochs_budget"])
    m["tuning.flat_studies"] = c["flat_studies"]
    train = t.durations.get("harness.train", [])
    m["harness.train.calls"] = len(train)
    m["harness.train.ms_p50"] = statistics.median(train) * 1e3 if train else 0.0
    m["harness.train.ms_ptail"] = (percentile(train, tail_percentile(len(train))) * 1e3
                                   if train else 0.0)
    m["harness.train.self_s"] = t.self_s["harness.train"]
    for name in ("run_study", "experiment_data", "write_run_outputs", "write_report",
                 "aggregate_curve_files", "report_from_results_csv"):
        m[f"harness.{name}.self_s"] = t.self_s[f"harness.{name}"]
    m["harness.run_experiment.ms_p50"] = t.us_p50("harness.run_experiment") / 1e3
    m["harness.steps"] = t.calls(lg) - m[f"{lg}.nonfinite"]
    m["harness.studies"] = c["studies"]
    m["harness.bytes_written"] = c["bytes_written"]
    m["cli.main.self_s"] = t.self_s["cli.main"]
    m["trace.overhead_ratio"] = rep.wall_s / untraced_wall
    m["trace.uncalled_functions"] = sum(1 for f in traced_functions() if not t.calls(f))
    m["trace.step_loop_share"] = (t.self_s[lg] + t.self_s[ap] + t.self_s["harness.train"]) \
        / rep.wall_s
    m["tuning.suggest.self_share"] = t.self_s[sg] / rep.wall_s
    if c["diverged"] == 0 and m["harness.steps"] != c["steps"]:
        t.problems.append(f"traced steps {m['harness.steps']} != steps in the study files "
                          f"{c['steps']}")
    return m, t


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def environment(seed: int) -> str:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "unknown"
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        sha = proc.stdout.strip() or sha
    return (f"seed={seed} nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy_version} git={sha}")


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def measure(w: Workload, seed: int, seconds: float, trace: bool):
    deadline = time.monotonic() + seconds
    hard_deadline = time.monotonic() + HARD_LIMIT_S
    probes = []

    def run_probes(n: int) -> None:
        for _ in range(n):
            probe = launch(commands(w, seed, WORK / "probe")[0], "probe",
                           f"probe{len(probes)}", hard_deadline)
            if probe.rc != 0 or probe.setup_s is None:
                raise BenchError(f"set-up probe failed ({probe.rc}): {probe.stderr.strip()}")
            probes.append(probe.setup_s)

    run_probes(N_PROBES)
    unit = (False, True) if trace else (False,)
    min_units = 1 if trace else 2
    reps: list[Rep] = []
    unit_walls: list[float] = []
    while (len(unit_walls) < min_units
           or time.monotonic() + statistics.median(unit_walls) <= deadline):
        started = time.monotonic()
        run_probes(PROBES_PER_REP)
        for traced in unit:
            reps.append(run_sequence(w, seed, len(reps) + 1, traced, hard_deadline))
        unit_walls.append(time.monotonic() - started)
    return probes, reps


def layer_result(reps: list[Rep], untraced_wall: float, units: dict[str, str]
                 ) -> dict[str, float]:
    """Per-layer medians over the traced repetitions that ran to the end. A
    traced repetition whose exact counts (unit count or B) differ from the
    first one's is failed."""
    per_rep: list[tuple[Rep, dict]] = []
    for r in reps:
        if r.traced and r.counts:
            values, table = per_layer(r, untraced_wall)
            r.problems += table.problems
            report_trace(table, values)
            per_rep.append((r, values))
    first = per_rep[0][1] if per_rep else {}
    for r, values in per_rep[1:]:
        diff = sorted(k for k in values
                      if units.get(k) in ("count", "B") and values[k] != first[k])
        if diff:
            r.problems.append(f"nondeterministic trace counts: {', '.join(diff)}")
    if not per_rep:
        raise BenchError("no traced repetition ran to the end")
    return {name: statistics.median(v[name] for _, v in per_rep) for name in first}


def print_reps(reps: list[Rep]) -> None:
    for r in reps:
        print(f"rep {r.index} {'traced' if r.traced else 'plain '} wall {r.wall_s:.3f} s "
              f"{json.dumps(r.counts, sort_keys=True)}"
              + (f" FAILED: {'; '.join(r.problems)}" if r.problems else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "optbench" / "cli.py").is_file():
        print(f"error: no optbench sources under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    tracer.self_check()
    w, trace = WORKLOADS[args.workload], bool(args.trace)
    declared = declared_metrics()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reps: list[Rep] = []
    try:
        print(f"perfbench workload={args.workload} trace={args.trace} {environment(args.seed)}")
        print("commands: " + " ; ".join("optbench " + " ".join(c)
                                        for c in commands(w, args.seed, Path("<out>"))))
        probes, reps = measure(w, args.seed, args.seconds, trace)
        flag_nondeterminism(reps)
        plain = [r for r in reps if r.counts and not r.traced]
        if not plain:
            raise BenchError("no repetition ran to the end: "
                             + "; ".join(p for r in reps for p in r.problems))
        e2e = end_to_end(plain, probes)
        for name, s in e2e.items():
            print(f"end_to_end {name} [{declared['end_to_end'][name]}] {s.describe()}")
        if trace:
            result = layer_result(reps, e2e["wall_s"].value, declared["per_layer"])
            for name, value in result.items():
                print(f"per_layer {name} [{declared['per_layer'].get(name, '?')}] {value:.6g}")
        else:
            result = {name: s.value for name, s in e2e.items()}
        units = declared["per_layer" if trace else "end_to_end"]
        if set(result) != set(units):
            raise BenchError(f"metrics {sorted(set(result) ^ set(units))} do not match "
                             "BENCHMARK.json")
        print_reps(reps)
        failed = sum(1 for r in reps if not r.ok)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(reps),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result.items()},
        }))
        return 0
    except BenchError as exc:
        print_reps(reps)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def report_trace(table: SpanTable, values: dict) -> None:
    """Human-readable trace summary: self time by span, and what is absent."""
    total = sum(table.self_s.values()) or 1.0
    print("self time by span (traced repetition):")
    for name, s in sorted(table.self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:36s} {s:9.3f} s {100 * s / total:5.1f}%  calls {table.calls(name)}")
    if table.absent:
        print("absent (not defined by the package): " + ", ".join(sorted(table.absent)))
    uncalled = [f for f in traced_functions() if not table.calls(f)]
    if uncalled:
        print("not called on this workload: " + ", ".join(uncalled))
    n = values["harness.train.calls"]
    if n:
        print(f"harness.train.ms_ptail is p{tail_percentile(n):g} of {n} calls")


if __name__ == "__main__":
    sys.exit(main())
