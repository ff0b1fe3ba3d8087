"""Command-line interface.

    optbench run --task cola_like --optimizer all --regime full \
        --trials 30 --splits 5 --epochs 20 --batch-size 4 --seed 1 --out runs/demo
    optbench report --in runs/demo
    optbench curves --in runs/demo

``run`` executes the five-split protocol into an ``--out`` whose results.csv
holds none of its experiments. As each experiment finishes it passes that
experiment's RunSpec and split results to ``write_run_outputs``, which appends
its rows to results.csv and writes its per-split study_<...>.json and
curve_raw_<...>.csv files, so a run that stops early keeps what it finished. It
then builds the aggregated curve_<...>.csv files and report.txt/report.csv with
the functions ``curves`` and ``report`` call. Exit codes: 0 success, 2 invalid
configuration (an ``--out`` or ``--in`` path that is not a directory, an
``--out`` holding one of the run's experiments, or a run-directory file that
cannot be read, is a directory or holds an experiment twice, which the message
names), 3 no viable trial (every trial diverged).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from optbench.harness import (
    NoViableTrialError,
    RunSpec,
    aggregate_curve_files,
    experiment_data,
    read_results,
    report_from_results_csv,
    run_experiment,
    write_run_outputs,
)
from optbench.optimizers import ConfigError, OptimizerKind
from optbench.tasks import TASK_NAMES, check_batch_size, make_task_spec
from optbench.tuning import Regime

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_NO_VIABLE_TRIAL = 3


def _parse_list(value: str, universe, parse_one) -> list:
    """Parse a name, a comma list or 'all' into distinct items in
    first-occurrence order; an unknown name or an empty list raises before
    any experiment runs."""
    if value.strip().lower() == "all":
        names = list(universe)
    else:
        names = [name for name in map(str.strip, value.split(",")) if name]
    if not names:
        raise ConfigError(f"empty list: {value!r}")
    return list(dict.fromkeys(parse_one(name) for name in names))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="optbench",
                                     description="Optimizer benchmarking harness")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the tuning/evaluation protocol")
    run_p.add_argument("--task", required=True,
                       help=f"task name, comma list, or 'all' ({', '.join(TASK_NAMES)})")
    run_p.add_argument("--optimizer", required=True,
                       help="optimizer kind, comma list, or 'all'")
    run_p.add_argument("--regime", required=True,
                       help="defaults | lr-only | full, comma list, or 'all'")
    default = {f.name: f.default for f in dataclasses.fields(RunSpec)}
    run_p.add_argument("--trials", type=int, default=default["trial_budget"])
    run_p.add_argument("--splits", type=int, default=default["n_splits"])
    run_p.add_argument("--epochs", type=int, default=default["epochs"])
    run_p.add_argument("--batch-size", type=int, default=default["batch_size"])
    run_p.add_argument("--size", type=int, default=default["dataset_size"],
                       help="synthetic dataset size")
    run_p.add_argument("--seed", type=int, default=default["master_seed"])
    run_p.add_argument("--out", required=True)
    run_p.add_argument("--quiet", action="store_true")

    report_p = sub.add_parser("report", help="format mean (std) tables from results.csv")
    report_p.add_argument("--in", dest="in_dir", required=True)

    curves_p = sub.add_parser("curves", help="aggregate per-split curves")
    curves_p.add_argument("--in", dest="in_dir", required=True)
    return parser


def _cmd_run(args) -> int:
    tasks = _parse_list(args.task, TASK_NAMES, make_task_spec)
    optimizers = _parse_list(args.optimizer, list(OptimizerKind), OptimizerKind.parse)
    regimes = _parse_list(args.regime, list(Regime), Regime.parse)
    runs = [RunSpec(task=task, optimizer=optimizer, regime=regime,
                    epochs=args.epochs, batch_size=args.batch_size,
                    n_splits=args.splits, master_seed=args.seed,
                    trial_budget=args.trials, dataset_size=args.size)
            for task in tasks for optimizer in optimizers for regime in regimes]
    # a run's data depend only on its task, so one run per task covers them all
    for run in {run.task.name: run for run in runs}.values():
        for repetition in range(1, run.n_splits + 1):
            try:
                check_batch_size(experiment_data(run, repetition)[1], run.batch_size)
            except ValueError as exc:
                raise ConfigError(f"{run.task.name} split {repetition}: {exc}") from None
    results = Path(args.out) / "results.csv"
    keys = {(run.task.name, run.optimizer, run.regime) for run in runs}
    for rec in read_results(results) if results.exists() else ():
        if (rec.task, rec.optimizer, rec.regime) in keys:
            raise ConfigError(f"{results} already holds {rec.task}/{rec.optimizer.value}/"
                              f"{rec.regime.value}")
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"--out {args.out} is not a directory") from None
    for run in runs:
        if not args.quiet:
            print(f"running {run.task.name} / {run.optimizer.value} / {run.regime.value} ...",
                  file=sys.stderr)
        write_run_outputs(run, run_experiment(run), args.out)
    aggregate_curve_files(args.out)
    report_from_results_csv(args.out)
    if not args.quiet:
        print(f"wrote {len(runs)} experiment(s) to {args.out}", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            print(report_from_results_csv(args.in_dir))
            return EXIT_OK
        if args.command == "curves":
            for path in aggregate_curve_files(args.in_dir):
                print(path)
            return EXIT_OK
    except (ConfigError, ValueError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except NoViableTrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_VIABLE_TRIAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
