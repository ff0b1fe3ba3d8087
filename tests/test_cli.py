"""End-to-end tests for the optbench command line."""

import csv

import pytest

from optbench.cli import EXIT_INVALID_CONFIG, EXIT_NO_VIABLE_TRIAL, EXIT_OK, main


def run_cli(*argv):
    return main(list(argv))


def small_run_args(out_dir, task="stsb_like", optimizer="sgd", regime="lr-only",
                   **overrides):
    args = {
        "--task": task, "--optimizer": optimizer, "--regime": regime,
        "--trials": "3", "--splits": "2", "--epochs": "2", "--batch-size": "4",
        "--size": "60", "--seed": "3", "--out": str(out_dir),
    }
    args.update(overrides)
    return ["run", "--quiet"] + [t for kv in args.items() for t in kv]


def test_run_writes_expected_files(tmp_path):
    assert run_cli(*small_run_args(tmp_path)) == EXIT_OK
    names = {p.name for p in tmp_path.iterdir()}
    assert "results.csv" in names
    assert "report.txt" in names and "report.csv" in names
    assert "curve_stsb_like_sgd_lr_only.csv" in names
    assert "study_stsb_like_sgd_lr_only_split1.json" in names
    rows = list(csv.DictReader(open(tmp_path / "results.csv")))
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


def test_run_rejects_unknown_optimizer_and_regime(tmp_path):
    assert run_cli(*small_run_args(tmp_path, optimizer="lion")) == EXIT_INVALID_CONFIG
    assert run_cli(*small_run_args(tmp_path, regime="half")) == EXIT_INVALID_CONFIG
    assert run_cli(*small_run_args(tmp_path, **{"--trials": "99"})) == EXIT_INVALID_CONFIG


def test_run_no_viable_trial_exit_code(tmp_path, capsys, monkeypatch):
    # defaults-regime SGD diverges at this feature scale; the single trial dies
    import optbench.cli as cli
    from optbench.tasks import make_task_spec

    spec = make_task_spec("stsb_like").with_values(feature_scale=300.0)
    monkeypatch.setattr(cli, "make_task_spec",
                        lambda name: spec if name == "stsb_like" else make_task_spec(name))
    rc = run_cli(*small_run_args(tmp_path, regime="defaults",
                                 **{"--epochs": "12", "--size": "80"}))
    assert rc == EXIT_NO_VIABLE_TRIAL
    assert "diverged" in capsys.readouterr().err


def test_report_missing_directory(tmp_path):
    assert run_cli("report", "--in", str(tmp_path / "nope")) == EXIT_INVALID_CONFIG


def test_optimizer_all_expands(tmp_path):
    assert run_cli(*small_run_args(
        tmp_path, optimizer="all",
        **{"--trials": "2", "--splits": "1", "--epochs": "1"})) == EXIT_OK
    rows = list(csv.DictReader(open(tmp_path / "results.csv")))
    assert {r["optimizer"] for r in rows} == {
        "sgd", "sgdm", "adam", "nadam", "adamw", "adamax", "adabound"}


def test_determinism_across_directories(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli(*small_run_args(out_a, optimizer="adam"))
    run_cli(*small_run_args(out_b, optimizer="adam"))
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
