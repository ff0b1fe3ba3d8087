"""Guard for the benchmark's own output checks on a traced run.

``perfbench/run.py`` fails a repetition whose commands exit nonzero or whose
run directory its output checks reject, a traced repetition whose results
differ from an untraced one's, and one whose count of
``tasks.loss_and_grad`` calls differs from the training steps its study
files record. This runs one small command through ``perfbench/launch.py``
and ``run.py``'s own ``run_sequence`` and applies the same checks.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SEED = "3"
WORKLOAD_ARGS = ("--quiet", "--task", "cola_like,stsb_like", "--optimizer", "adam,sgdm",
                 "--regime", "lr_only", "--trials", "4", "--splits", "1", "--epochs", "2",
                 "--size", "60")


@pytest.fixture
def bench(monkeypatch):
    """``perfbench/run.py`` as a module, imported without writing under perfbench/."""
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports the tracer module
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def workload(bench, follow=()):
    return bench.Workload(run_args=WORKLOAD_ARGS, experiments=4, splits=1, trials=4,
                          epochs=2, follow=follow)


def launch(tmp_path, mode, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    spans = tmp_path / f"{mode}.spans"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(tmp_path / f"{mode}.marks.json"), mode,
         str(spans), "run", *WORKLOAD_ARGS, "--seed", SEED, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return spans


def test_probe_stops_the_command_once_its_arguments_are_parsed(tmp_path):
    # probe mode stops cli.main by raising from the parser, so a handler in
    # main that caught that exception would fail every benchmark repetition
    out = tmp_path / "out"
    launch(tmp_path, "probe", out)
    assert "parsed" in json.loads((tmp_path / "probe.marks.json").read_text())
    assert not out.exists()


def test_traced_run_passes_the_benchmark_output_checks(tmp_path, bench):
    import tracer

    plain, traced = tmp_path / "plain", tmp_path / "traced"
    launch(tmp_path, "run", plain)
    spans = tracer.load_spans(launch(tmp_path, "trace", traced))
    assert spans.absent == []
    assert (traced / "results.csv").read_bytes() == (plain / "results.csv").read_bytes()

    counts = bench.work_counts(workload(bench), traced)
    assert counts == bench.work_counts(workload(bench), plain)
    assert counts["diverged"] == 0  # a diverged trial's last epoch is not in the files
    name_id = spans.names.index("tasks.loss_and_grad")
    assert sum(1 for n in spans.name_id if n == name_id) == counts["steps"] > 0

    # tracer.TAGGERS read the spec, config and study by argument position, so
    # a refactor that moved them would leave these spans untagged
    expected_tags = {"tasks.loss_and_grad": {"logistic", "linear"},
                     "optimizers.apply_step": {"adam", "sgdm"},
                     "metrics.evaluate": {"matthews", "pearson"},
                     "tuning.suggest": {"startup"}}
    for name, expected in expected_tags.items():
        tagged = spans.names.index(name)
        tags = {spans.tags[t] for n, t in zip(spans.name_id, spans.tag_id) if n == tagged}
        assert tags == expected, name


def test_run_sequence_passes_the_benchmark_output_checks(tmp_path, bench, monkeypatch):
    # the benchmark's own repetition: the run command and its report and
    # curves follow-ups, once plain and once traced, in a scratch directory
    monkeypatch.setattr(bench, "WORK", tmp_path)
    monkeypatch.setattr(bench, "ROOT", ROOT)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    w = workload(bench, follow=("report", "curves"))
    deadline = time.monotonic() + 240
    reps = [bench.run_sequence(w, int(SEED), index, traced, deadline)
            for index, traced in ((1, False), (2, True))]
    bench.flag_nondeterminism(reps)
    assert [r.problems for r in reps] == [[], []]
    assert reps[1].counts["trials"] == 16
    _, table = bench.per_layer(reps[1], reps[0].wall_s)
    assert table.problems == []
