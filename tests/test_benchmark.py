"""Guard for the benchmark's own output checks on a traced run.

``perfbench/run.py`` fails a traced repetition whose results differ from an
untraced one's, or whose count of ``tasks.loss_and_grad`` calls differs from
the training steps its study files record. This runs one small command both
ways through ``perfbench/launch.py`` and applies the same two checks.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
RUN_ARGS = ["run", "--quiet", "--task", "cola_like,stsb_like", "--optimizer", "adam,sgdm",
            "--regime", "lr_only", "--trials", "4", "--splits", "1", "--epochs", "2",
            "--size", "60", "--seed", "3"]


def launch(tmp_path, mode, out):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    spans = tmp_path / f"{mode}.spans"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "launch.py"), str(tmp_path / f"{mode}.marks.json"), mode,
         str(spans), *RUN_ARGS, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return spans


def test_traced_run_passes_the_benchmark_output_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # run.py imports the tracer module
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    import tracer

    plain, traced = tmp_path / "plain", tmp_path / "traced"
    launch(tmp_path, "run", plain)
    spans = tracer.load_spans(launch(tmp_path, "trace", traced))
    assert spans.absent == []
    assert (traced / "results.csv").read_bytes() == (plain / "results.csv").read_bytes()

    workload = bench.Workload(run_args=tuple(RUN_ARGS[1:]), experiments=4, splits=1,
                              trials=4, epochs=2)
    counts = bench.work_counts(workload, traced)
    assert counts == bench.work_counts(workload, plain)
    assert counts["diverged"] == 0  # a diverged trial's last epoch is not in the files
    name_id = spans.names.index("tasks.loss_and_grad")
    assert sum(1 for n in spans.name_id if n == name_id) == counts["steps"] > 0
