"""End-to-end tests for the optbench command line."""

import csv
import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from optbench.cli import EXIT_INVALID_CONFIG, EXIT_NO_VIABLE_TRIAL, EXIT_OK, main
from optbench.harness import NoViableTrialError
from optbench.metrics import check_score
from optbench.optimizers import OptimizerKind

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def small_run_args(out_dir, task="stsb_like", optimizer="sgd", regime="lr-only",
                   **overrides):
    args = {
        "--task": task, "--optimizer": optimizer, "--regime": regime,
        "--trials": "3", "--splits": "2", "--epochs": "2", "--batch-size": "4",
        "--size": "60", "--seed": "3", "--out": str(out_dir),
    }
    args.update(overrides)
    return ["run", "--quiet"] + [t for kv in args.items() for t in kv]


# A small run over all five tasks (so both model families that the protocol
# command never trains, the MLP and the 3-class logistic, too) and all seven
# optimizers, and the sha256 of each file it leaves: results.csv, report.txt
# and report.csv by themselves, and each group of per-experiment files as one
# "name sha256" line per file, sorted by name. Every training step's loss,
# gradient and update reaches these bytes, so a one-bit drift in the step
# path fails here, and so does any change to how a file is written.
GOLDEN_ARGS = ["--task", "all", "--optimizer", "all", "--regime", "defaults,lr_only",
               "--trials", "2", "--splits", "1", "--epochs", "2", "--batch-size", "4",
               "--size", "240", "--seed", "11"]
GOLDEN_RESULTS_SHA256 = "1b97f03fb8e70a37dde141372b5b8218396543f3c635b3e9c7dcd585f415e485"
GOLDEN_REPORT_TXT_SHA256 = "90d1c186805314655dc130d1be47dfdb28da1c0125e79a2c0158b404ab9fa386"
GOLDEN_REPORT_CSV_SHA256 = "d4ae210b5eecd379af149440e4792e80a38fea525bed585edb286793927f8a24"
GOLDEN_RAW_CURVES_SHA256 = "6d5f050cb64b1390665a42e19d5873cd47865ee45e051f9492cc1ed7ca9433f2"
GOLDEN_CURVES_SHA256 = "b2b8891942cd99c95c350c3e9baa57c64aea3fdafafcee6ea333fa573c775827"
GOLDEN_STUDIES_SHA256 = "ce45a54780abf87feb83ba1dda2b98e261c00b65b3515e2ddab529e92371eeb5"


def test_small_run_bytes_are_pinned(tmp_path):
    assert run_cli("run", "--quiet", *GOLDEN_ARGS, "--out", str(tmp_path)) == EXIT_OK

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def listing_sha256(paths):
        listing = "".join(f"{path.name} {sha256(path)}\n" for path in paths)
        return hashlib.sha256(listing.encode()).hexdigest()

    def assert_pins():
        raw = sorted(tmp_path.glob("curve_raw_*.csv"))
        curves = sorted(set(tmp_path.glob("curve_*.csv")) - set(raw))
        studies = sorted(tmp_path.glob("study_*.json"))
        assert len(raw) == len(curves) == len(studies) == 5 * 7 * 2
        assert sha256(tmp_path / "results.csv") == GOLDEN_RESULTS_SHA256
        assert sha256(tmp_path / "report.txt") == GOLDEN_REPORT_TXT_SHA256
        assert sha256(tmp_path / "report.csv") == GOLDEN_REPORT_CSV_SHA256
        assert listing_sha256(raw) == GOLDEN_RAW_CURVES_SHA256
        assert listing_sha256(curves) == GOLDEN_CURVES_SHA256
        assert listing_sha256(studies) == GOLDEN_STUDIES_SHA256

    assert_pins()
    # report and curves rebuild, for every task and optimizer, the bytes run wrote
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_OK
    assert_pins()


def test_run_writes_expected_files(tmp_path):
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    names = {p.name for p in tmp_path.iterdir()}
    assert "results.csv" in names
    assert "report.txt" in names and "report.csv" in names
    assert "curve_stsb_like_sgd_lr_only.csv" in names
    assert "study_stsb_like_sgd_lr_only_split1.json" in names
    rows = read_csv(tmp_path / "results.csv")
    assert {r["split"] for r in rows} == {"1", "2"}
    assert all(r["regime"] == "lr_only" for r in rows)


def test_report_and_curves_commands(tmp_path, capsys):
    run_cli(*small_run_args(tmp_path))
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "SGD" in out and "stsb_like" in out
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_OK
    assert "curve_stsb_like_sgd_lr_only.csv" in capsys.readouterr().out


def test_run_rejects_unknown_task(tmp_path, capsys):
    rc = run_cli(*small_run_args(tmp_path, task="qqp_like"))
    assert rc == EXIT_INVALID_CONFIG
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["stsb_like,qqp_like", ","])
def test_run_checks_task_list_before_any_experiment(tmp_path, capsys, monkeypatch, task):
    import optbench.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    out = tmp_path / "out"
    assert run_cli(*small_run_args(out, task=task)) == EXIT_INVALID_CONFIG
    assert calls == []
    assert not out.exists()
    assert "error" in capsys.readouterr().err


def test_run_checks_batch_size_before_any_experiment(tmp_path, capsys, monkeypatch):
    # at --size 240 the cola_like train partition has 192 rows, stsb_like's 190
    import optbench.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    out = tmp_path / "out"
    assert run_cli(*small_run_args(
        out, task="cola_like,stsb_like", **{"--trials": "5", "--splits": "1",
                                            "--batch-size": "191", "--size": "240",
                                            "--seed": "1"})) == EXIT_INVALID_CONFIG
    assert calls == []
    assert not out.exists()
    assert "stsb_like split 1: batch_size must be in [1, 190], got 191" in capsys.readouterr().err


@pytest.mark.parametrize("option, value, message", [
    ("--size", "49", "stsb_like split 1: size must be >= 50, got 49"),
    ("--size", "10", "stsb_like split 1: size must be >= 50, got 10"),
    ("--batch-size", "0", "stsb_like split 1: batch_size must be in [1, 50], got 0"),
    ("--batch-size", "51", "stsb_like split 1: batch_size must be in [1, 50], got 51"),
    ("--seed", "-1", "master_seed must be in [0, 2**32), got -1"),
    ("--seed", "4294967296", "master_seed must be in [0, 2**32), got 4294967296"),
    ("--epochs", "0", "epochs must be >= 1"),
    ("--splits", "0", "n_splits must be >= 1"),
])
def test_run_checks_data_rules_before_any_experiment(tmp_path, capsys, option, value,
                                                     message):
    # at --size 60 the stsb_like train partition has 50 rows
    out = tmp_path / "out"
    assert run_cli(*small_run_args(out, **{option: value})) == EXIT_INVALID_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("trials", ["0", "31"])
def test_run_checks_trial_budget_before_any_experiment(tmp_path, capsys, trials):
    out = tmp_path / "out"
    assert run_cli(*small_run_args(out, **{"--trials": trials})) == EXIT_INVALID_CONFIG
    assert not out.exists()
    assert capsys.readouterr().err == f"error: trial budget must be in [1, 30], got {trials}\n"


def fake_evaluate(spec, preds, golds):
    # an evaluate whose measure came out 1.5: a bug in the program, not bad input
    return check_score(spec.metric, 1.5)


def test_internal_failure_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    import optbench.harness as harness

    monkeypatch.setattr(harness, "evaluate", fake_evaluate)
    with pytest.raises(ValueError,
                       match=r"^pearson score must be finite and in \[-1\.0, 1\], got 1\.5$"):
        run_cli(*small_run_args(tmp_path))


def test_internal_failure_exits_1_with_a_traceback(tmp_path):
    code = ("import sys\n"
            "import optbench.harness as harness\n"
            "from optbench.metrics import check_score\n"
            "harness.evaluate = lambda spec, preds, golds: check_score(spec.metric, 1.5)\n"
            "from optbench.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", code, *small_run_args(tmp_path / "out")],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert proc.stderr.endswith(
        "ValueError: pearson score must be finite and in [-1.0, 1], got 1.5\n")


def test_run_rejects_unknown_optimizer_and_regime(tmp_path):
    assert run_cli(*small_run_args(tmp_path, optimizer="lion")) == EXIT_INVALID_CONFIG
    assert run_cli(*small_run_args(tmp_path, regime="half")) == EXIT_INVALID_CONFIG
    assert run_cli(*small_run_args(tmp_path, **{"--trials": "99"})) == EXIT_INVALID_CONFIG


def test_run_no_viable_trial_exit_code(tmp_path, capsys, monkeypatch):
    # defaults-regime SGD diverges at this feature scale; the single trial dies
    import optbench.cli as cli
    from optbench.tasks import make_task_spec

    spec = dataclasses.replace(make_task_spec("stsb_like"), feature_scale=300.0)
    monkeypatch.setattr(cli, "make_task_spec",
                        lambda name: spec if name == "stsb_like" else make_task_spec(name))
    rc = run_cli(*small_run_args(tmp_path, regime="defaults",
                                 **{"--epochs": "12", "--size": "80"}))
    assert rc == EXIT_NO_VIABLE_TRIAL
    assert "diverged" in capsys.readouterr().err


def test_run_makes_each_task_data_once(tmp_path, monkeypatch):
    # every experiment of a task runs on the same data: one dataset per task
    # (one per split for sst2_like and mnli_like) and one split per task and split
    import optbench.harness as harness

    calls = {"make_dataset": 0, "stratified_split": 0}
    for name in calls:
        def counted(*args, _real=getattr(harness, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    assert run_cli(*small_run_args(tmp_path, task="all", optimizer="sgd,adam",
                                   regime="defaults,lr_only")) == EXIT_OK
    assert len(read_csv(tmp_path / "results.csv")) == 5 * 2 * 2 * 2
    assert calls == {"make_dataset": 3 * 1 + 2 * 2, "stratified_split": 5 * 2}


def test_run_keeps_finished_experiments_when_one_fails(tmp_path, capsys, monkeypatch):
    import optbench.cli as cli

    real_run_experiment = cli.run_experiment

    def run_experiment(run, data):
        if run.optimizer is OptimizerKind.ADAM:
            raise NoViableTrialError("every trial diverged: adam")
        return real_run_experiment(run, data)

    monkeypatch.setattr(cli, "run_experiment", run_experiment)
    assert run_cli(*small_run_args(tmp_path, optimizer="sgd,adam")) == EXIT_NO_VIABLE_TRIAL
    rows = read_csv(tmp_path / "results.csv")
    assert [(r["optimizer"], r["split"]) for r in rows] == [("sgd", "1"), ("sgd", "2")]
    assert {p.name for p in tmp_path.iterdir()} == {
        "results.csv",
        "study_stsb_like_sgd_lr_only_split1.json",
        "study_stsb_like_sgd_lr_only_split2.json",
        "curve_raw_stsb_like_sgd_lr_only_split1.csv",
        "curve_raw_stsb_like_sgd_lr_only_split2.csv",
        "curve_stsb_like_sgd_lr_only.csv",
    }
    capsys.readouterr()
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK
    assert "SGD" in capsys.readouterr().out


def test_run_writes_results_rows_after_the_other_files(tmp_path, capsys, monkeypatch):
    # a write that fails leaves no results.csv row naming files that do not exist,
    # so the experiment is not held and may run again
    import optbench.harness as harness

    real_save_study_json = harness.save_study_json

    def save_study_json(study, path):
        if study.optimizer is OptimizerKind.ADAM:
            raise OSError(f"cannot write {path}")
        real_save_study_json(study, path)

    monkeypatch.setattr(harness, "save_study_json", save_study_json)
    args = small_run_args(tmp_path, optimizer="sgd,adam", regime="defaults")
    assert run_cli(*args) == EXIT_INVALID_CONFIG
    assert "cannot write" in capsys.readouterr().err
    rows = read_csv(tmp_path / "results.csv")
    assert [(r["optimizer"], r["split"]) for r in rows] == [("sgd", "1"), ("sgd", "2")]
    assert (tmp_path / "curve_stsb_like_sgd_defaults.csv").exists()
    monkeypatch.undo()
    assert run_cli(*small_run_args(tmp_path, optimizer="adam", regime="defaults")) == EXIT_OK
    assert [r["optimizer"] for r in read_csv(tmp_path / "report.csv")] == ["adam", "sgd"]


def test_run_reads_no_raw_curve(tmp_path, monkeypatch):
    import optbench.harness as harness

    def read_raw_curve(path, metric):
        raise AssertionError(f"run read {path}")

    monkeypatch.setattr(harness, "_read_raw_curve", read_raw_curve)
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK


def test_run_is_not_stopped_by_a_raw_curve_an_earlier_run_wrote(tmp_path, capsys):
    # run reads only results.csv of --out; a malformed raw curve is for curves to report
    assert run_cli(*small_run_args(tmp_path, regime="defaults")) == EXIT_OK
    raw = tmp_path / "curve_raw_stsb_like_sgd_defaults_split1.csv"
    lines = raw.read_text().splitlines()
    lines[2] = "2,notanumber,"
    raw.write_text("\n".join(lines) + "\n")
    assert run_cli(*small_run_args(tmp_path, optimizer="adam", regime="defaults")) == EXIT_OK
    report = (tmp_path / "report.txt").read_text()
    rows = {line.split(" ")[0] for line in report.splitlines()}
    assert "SGD" in rows and "Adam" in rows
    capsys.readouterr()
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {raw} line 3: cannot read loss 'notanumber'\n"


def directory_bytes(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


def test_run_into_used_directory_matches_rebuild(tmp_path, capsys):
    # every derived file reflects the whole directory, as `report` and
    # `curves` build it, not only the experiments of the last run
    assert run_cli(*small_run_args(tmp_path, optimizer="adam")) == EXIT_OK
    assert run_cli(*small_run_args(tmp_path, optimizer="sgd")) == EXIT_OK
    written = directory_bytes(tmp_path)
    assert [r["optimizer"] for r in read_csv(tmp_path / "report.csv")] == [
        "adam", "sgd"]
    # a third run of an experiment the directory holds is refused
    capsys.readouterr()
    assert run_cli(*small_run_args(tmp_path, optimizer="adam",
                                   **{"--seed": "4"})) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'results.csv'} already holds stsb_like/adam/lr_only\n")
    assert directory_bytes(tmp_path) == written
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_OK
    assert directory_bytes(tmp_path) == written


def test_run_refuses_an_experiment_the_directory_holds(tmp_path, capsys, monkeypatch):
    # the same experiment at other protocol parameters would mix two runs
    import optbench.cli as cli

    assert run_cli(*small_run_args(tmp_path, **{"--seed": "1"})) == EXIT_OK
    written = directory_bytes(tmp_path)
    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    capsys.readouterr()
    assert run_cli(*small_run_args(tmp_path, optimizer="adam,sgd", **{
        "--splits": "1", "--epochs": "1", "--seed": "2"})) == EXIT_INVALID_CONFIG
    assert calls == []
    assert capsys.readouterr().err == (
        f"error: {tmp_path / 'results.csv'} already holds stsb_like/sgd/lr_only\n")
    assert directory_bytes(tmp_path) == written


def test_run_checks_results_csv_before_any_experiment(tmp_path, capsys, monkeypatch):
    # rows without their header: the first row reads as a header lacking columns
    import optbench.cli as cli

    results = tmp_path / "results.csv"
    results.write_text("stsb_like,adam,lr_only,1,0.5,0.5,0\n")
    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    assert run_cli(*small_run_args(tmp_path)) == EXIT_INVALID_CONFIG
    assert calls == []
    assert capsys.readouterr().err.startswith(f"error: {results} lacks column(s) task, ")
    assert directory_bytes(tmp_path) == {"results.csv": b"stsb_like,adam,lr_only,1,0.5,0.5,0\n"}


def test_run_into_directory_with_empty_results_csv(tmp_path):
    # a run killed between creating results.csv and writing its header leaves it empty
    (tmp_path / "results.csv").write_text("")
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    rows = read_csv(tmp_path / "results.csv")
    assert [r["split"] for r in rows] == ["1", "2"]
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK


@pytest.mark.parametrize("text", ["task,optimizer,regime,split,test_score,best_dev,best_epoch\n",
                                  ""], ids=["header only", "empty"])
def test_report_names_results_csv_without_rows(tmp_path, capsys, text):
    results = tmp_path / "results.csv"
    results.write_text(text)
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {results} holds no results\n"


@pytest.mark.parametrize("text", ["task,optimizer,regime,split,test_score,best_dev,best_epoch\n",
                                  "", None], ids=["header only", "empty", "missing"])
def test_curves_takes_experiments_from_results_csv_alone(tmp_path, capsys, text):
    # raw curves that results.csv does not list are no experiment of the directory
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    results = tmp_path / "results.csv"
    if text is None:
        results.unlink()
    else:
        results.write_text(text)
    capsys.readouterr()
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    err = capsys.readouterr().err
    if text is None:
        assert err.startswith("error: [Errno 2] No such file or directory")
        assert str(results) in err
    else:
        assert err == f"error: {results} holds no results\n"


def test_curves_ignores_raw_curves_of_a_failed_write(tmp_path, monkeypatch):
    # a run whose write fails leaves raw curves without results.csv rows; a
    # later run of the experiment at other parameters overwrites only some
    import optbench.harness as harness

    def write_curve(path, curves):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_write_curve", write_curve)
        assert run_cli(*small_run_args(tmp_path, optimizer="adam")) == EXIT_INVALID_CONFIG
    assert run_cli(*small_run_args(tmp_path, optimizer="adam",
                                   **{"--splits": "1", "--seed": "4"})) == EXIT_OK
    assert not (tmp_path / "curve_raw_stsb_like_adam_lr_only_split2.csv").exists()
    curve = tmp_path / "curve_stsb_like_adam_lr_only.csv"
    written = curve.read_bytes()
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_OK
    assert curve.read_bytes() == written


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_failed_write_leaves_no_file_of_its_experiment(tmp_path, monkeypatch, error):
    # sgd's experiment is written in full; adam's aggregated curve fails after
    # its study files and raw curves were written
    import optbench.harness as harness
    write_curve = harness._write_curve

    def fail_for_adam(path, curves):
        if "_adam_" in path.name:
            raise error("no space left on device")
        return write_curve(path, curves)

    monkeypatch.setattr(harness, "_write_curve", fail_for_adam)
    args = small_run_args(tmp_path, optimizer="sgd,adam")
    if error is OSError:
        assert run_cli(*args) == EXIT_INVALID_CONFIG
    else:
        with pytest.raises(KeyboardInterrupt):
            run_cli(*args)
    assert sorted(p.name for p in tmp_path.glob("*adam*")) == []
    assert {r["optimizer"] for r in read_csv(tmp_path / "results.csv")} == {"sgd"}
    assert len(list(tmp_path.glob("*_sgd_*"))) == 5  # 2 study files, 2 raw curves, 1 curve


@pytest.mark.parametrize("splits, problem", [
    ((1, 3), "line 3: split 3 of stsb_like/sgd/full, expected 2"),
    ((2, 1), "line 2: split 2 of stsb_like/sgd/full, expected 1"),
], ids=["gapped", "out of order"])
def test_report_rejects_splits_out_of_order(tmp_path, capsys, splits, problem):
    path = tmp_path / "results.csv"
    path.write_text("task,optimizer,regime,split,test_score,best_dev,best_epoch\n" + "".join(
        f"stsb_like,sgd,full,{k},0.5,0.5,0\n" for k in splits))
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == (
        f"error: {path} {problem} (an experiment's splits run 1, 2, 3, ...)\n")


def test_report_names_missing_columns(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("task,optimizer\nstsb_like,sgd\n")
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == (
        f"error: {results} lacks column(s) regime, split, test_score, best_dev, best_epoch\n")


@pytest.mark.parametrize("where", ["missing", "empty", "file", "results-dir", "curve-dir"])
@pytest.mark.parametrize("command", ["report", "curves"])
def test_report_missing_directory(tmp_path, command, where):
    in_dir = {"missing": tmp_path / "nope", "file": tmp_path / "f"}.get(where, tmp_path)
    if where == "file":
        in_dir.write_text("")
    # a directory where the command reads a file
    if where == "results-dir":
        (tmp_path / "results.csv").mkdir()
    if where == "curve-dir":
        (tmp_path / "curve_raw_stsb_like_sgd_defaults_split1.csv").mkdir()
        if command == "curves":  # so that curves reads it
            (tmp_path / "results.csv").write_text(
                "task,optimizer,regime,split,test_score,best_dev,best_epoch\n"
                "stsb_like,sgd,defaults,1,0.5,0.5,0\n")
    assert run_cli(command, "--in", str(in_dir)) == EXIT_INVALID_CONFIG


@pytest.mark.parametrize("under", [False, True])
def test_run_out_not_a_directory(tmp_path, capsys, monkeypatch, under):
    import optbench.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_experiment", calls.append)
    a_file = tmp_path / "f"
    a_file.write_text("")
    out = a_file / "sub" if under else a_file
    assert run_cli(*small_run_args(out)) == EXIT_INVALID_CONFIG
    assert calls == []
    assert capsys.readouterr().err == f"error: --out {out} is not a directory\n"


@pytest.mark.parametrize("command", ["run", "report", "curves"])
def test_empty_path_is_rejected_before_any_work(tmp_path, capsys, monkeypatch, command):
    # an empty --out or --in (an unset shell variable) must not mean the working directory
    import optbench.cli as cli

    calls = []
    monkeypatch.setattr(cli, "experiment_data", calls.append)
    monkeypatch.chdir(tmp_path)
    argv = small_run_args("") if command == "run" else [command, "--in", ""]
    assert run_cli(*argv) == EXIT_INVALID_CONFIG
    assert calls == []
    assert list(tmp_path.iterdir()) == []
    option = "--out" if command == "run" else "--in"
    assert capsys.readouterr().err == f"error: {option} must not be empty\n"


def test_optimizer_all_expands(tmp_path):
    assert run_cli(*small_run_args(
        tmp_path, optimizer="all",
        **{"--trials": "2", "--splits": "1", "--epochs": "1"})) == EXIT_OK
    rows = read_csv(tmp_path / "results.csv")
    assert {r["optimizer"] for r in rows} == {
        "sgd", "sgdm", "adam", "nadam", "adamw", "adamax", "adabound"}


def test_determinism_across_directories(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(*small_run_args(out_a, optimizer="adam"))
    run_cli(*small_run_args(out_b, optimizer="adam"))
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_run_drops_repeated_names(tmp_path):
    assert run_cli(*small_run_args(
        tmp_path, task="stsb_like,STSB_LIKE", optimizer="sgd,SGD",
        regime="defaults,defaults", **{"--epochs": "1"})) == EXIT_OK
    rows = read_csv(tmp_path / "results.csv")
    assert [r["split"] for r in rows] == ["1", "2"]
    written = (tmp_path / "report.csv").read_bytes()
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_OK
    assert (tmp_path / "report.csv").read_bytes() == written


def test_run_strips_names_in_every_list(tmp_path):
    assert run_cli(*small_run_args(
        tmp_path, task="cola_like, stsb_like", optimizer=" adam", regime="defaults ",
        **{"--splits": "1", "--epochs": "1"})) == EXIT_OK
    rows = read_csv(tmp_path / "results.csv")
    assert [(r["task"], r["optimizer"]) for r in rows] == [
        ("cola_like", "adam"), ("stsb_like", "adam")]


def test_run_defaults_are_runspec_defaults():
    from optbench.cli import build_parser
    from optbench.harness import RunSpec
    from optbench.tasks import make_task_spec
    from optbench.tuning import Regime

    args = build_parser().parse_args(["run", "--task", "cola_like", "--optimizer", "sgd",
                                      "--regime", "full", "--out", "x"])
    spec = RunSpec(task=make_task_spec("cola_like"), optimizer=OptimizerKind.SGD,
                   regime=Regime.FULL)
    assert (args.trials, args.splits, args.epochs, args.batch_size, args.size, args.seed) == (
        spec.trial_budget, spec.n_splits, spec.epochs, spec.batch_size, spec.dataset_size,
        spec.master_seed)


def test_report_rejects_short_results_row(tmp_path, capsys):
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    results = tmp_path / "results.csv"
    n_lines = len(results.read_text().splitlines())
    with open(results, "a") as fh:
        fh.write("stsb_like,sgd\n")
    capsys.readouterr()
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == (
        f"error: {results} line {n_lines + 1} does not have the header's 7 fields\n")


# a line that is not UTF-8 text, and one with a field past the csv module's
# 131,072-character limit, each with the problem its message names
TEXT_FAULTS = {
    "0xff": ("2,\xff,", "'utf-8' codec can't decode byte 0xff in position 2: invalid start byte"),
    "long field": ("2," + "1" * 200_000 + ",", "field larger than field limit (131072)"),
}


@pytest.mark.parametrize("fault", ["short row", "renamed column", "gapped steps",
                                   "dev out of range", "dev mid-epoch", "truncated",
                                   *TEXT_FAULTS])
def test_curves_rejects_malformed_raw_curve(tmp_path, capsys, fault):
    # a one-split experiment has no other split whose dev rows could disagree
    splits = "1" if fault == "dev mid-epoch" else "2"
    assert run_cli(*small_run_args(tmp_path, **{"--splits": splits})) == EXIT_OK
    raw = tmp_path / "curve_raw_stsb_like_sgd_lr_only_split1.csv"
    lines = raw.read_text().splitlines()
    n_steps = len(lines) - 1
    if fault == "dev mid-epoch":
        # the first epoch's dev score moved one step up
        i = next(i for i, line in enumerate(lines) if i and not line.endswith(","))
        head, dev = lines[i].rsplit(",", 1)
        lines[i - 1] += dev
        lines[i] = head + ","
        expected = (f"{raw}: 2 dev score(s) in {n_steps} steps do not end equal epochs, "
                    "the last one on the last step")
    elif fault == "truncated":
        # the last row, which holds the last epoch's dev score, is lost
        del lines[-1]
        expected = (f"{raw}: 1 dev score(s) in {n_steps - 1} steps do not end equal "
                    "epochs, the last one on the last step")
    elif fault == "dev out of range":
        # the first epoch's dev score, a Pearson r, set past its upper bound 1
        i = next(i for i, line in enumerate(lines) if i and not line.endswith(","))
        lines[i] = lines[i].rsplit(",", 1)[0] + ",1.5"
        expected = f"{raw} line {i + 1}: pearson score must be finite and in [-1.0, 1], got 1.5"
    elif fault == "short row":
        lines[2] = lines[2].split(",")[0]
        expected = f"{raw} line 3 does not have the header's 3 fields"
    elif fault == "gapped steps":
        lines[2] = "3," + lines[2].split(",", 1)[1]
        expected = f"{raw} line 3: step 3, expected 2 (steps run 1, 2, 3, ...)"
    elif fault in TEXT_FAULTS:
        lines[2], problem = TEXT_FAULTS[fault]
        expected = f"{raw} line 3: {problem}"
    else:
        lines[0] = "step,loss,devx"
        expected = f"{raw} lacks column(s) dev"
    # latin-1 writes "\xff" as the byte 0xff and every other character as ASCII
    raw.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    capsys.readouterr()
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("fault", list(TEXT_FAULTS))
def test_report_rejects_results_csv_that_is_not_csv_text(tmp_path, capsys, fault):
    path = tmp_path / "results.csv"
    row, problem = TEXT_FAULTS[fault]
    path.write_bytes(("task,optimizer,regime,split,test_score,best_dev,best_epoch\n"
                      f"stsb_like,sgd,full,1,0.5,0.5,0\n{row}\n").encode("latin-1"))
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {path} line 3: {problem}\n"


@pytest.mark.parametrize("fault", ["test_score", "step", "loss", "task", "optimizer", "regime"])
def test_non_numeric_field_names_file_and_line(tmp_path, capsys, fault):
    # also an unknown name in one of results.csv's three name columns
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    if fault in ("step", "loss"):
        command, path = "curves", tmp_path / "curve_raw_stsb_like_sgd_lr_only_split1.csv"
    else:
        command, path = "report", tmp_path / "results.csv"
    column, value = {"task": (0, "qnli_like"), "optimizer": (1, "adamx"),
                     "regime": (2, "lr_onlyx"), "test_score": (4, "abc"),
                     "step": (0, "x"), "loss": (1, "zz")}[fault]
    lines = path.read_text().splitlines()
    fields = lines[2].split(",")
    fields[column] = value
    lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli(command, "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {path} line 3: cannot read {fault} {value!r}\n"


@pytest.mark.parametrize("task, score, problem", [
    ("sst2_like", "nan", "accuracy score must be finite and in [0.0, 1], got nan"),
    ("sst2_like", "inf", "accuracy score must be finite and in [0.0, 1], got inf"),
    ("sst2_like", "1.5", "accuracy score must be finite and in [0.0, 1], got 1.5"),
    ("sst2_like", "-0.25", "accuracy score must be finite and in [0.0, 1], got -0.25"),
    ("stsb_like", "nan", "pearson score must be finite and in [-1.0, 1], got nan"),
    ("stsb_like", "-inf", "pearson score must be finite and in [-1.0, 1], got -inf"),
    ("stsb_like", "-1.5", "pearson score must be finite and in [-1.0, 1], got -1.5"),
    ("cola_like", "7.5", "matthews score must be finite and in [-1.0, 1], got 7.5"),
])
def test_report_rejects_score_outside_metric_range(tmp_path, capsys, task, score, problem):
    # a correlation may be negative (line 2), a rate may not
    path = tmp_path / "results.csv"
    path.write_text("task,optimizer,regime,split,test_score,best_dev,best_epoch\n"
                    f"{task},sgd,full,1,{'0.5' if task == 'sst2_like' else '-0.5'},0.5,0\n"
                    f"{task},sgd,full,2,{score},0.5,0\n")
    assert run_cli("report", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {path} line 3: {problem}\n"


@pytest.mark.parametrize("loss", ["nan", "inf", "-inf"])
def test_curves_rejects_non_finite_loss(tmp_path, capsys, loss):
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    path = tmp_path / "curve_raw_stsb_like_sgd_lr_only_split2.csv"
    lines = path.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = loss
    lines[3] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("curves", "--in", str(tmp_path)) == EXIT_INVALID_CONFIG
    assert capsys.readouterr().err == f"error: {path} line 4: cannot read loss {loss!r}\n"
