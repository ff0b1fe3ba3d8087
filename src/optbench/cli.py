"""Command-line interface.

    optbench run --task cola_like --optimizer all --regime full \
        --trials 30 --splits 5 --epochs 20 --batch-size 4 --seed 1 --out runs/demo
    optbench report --in runs/demo
    optbench curves --in runs/demo

``run`` executes the five-split protocol and writes results.csv, per-split
study_<...>.json and curve_raw_<...>.csv files, aggregated curve_<...>.csv
files, and report.txt/report.csv. ``report`` and ``curves`` rebuild the
report and aggregated curves from a run directory. Exit codes: 0 success,
2 invalid configuration, 3 no viable trial (every trial diverged).
"""

from __future__ import annotations

import argparse
import sys

from optbench.harness import (
    NoViableTrialError,
    RunSpec,
    aggregate_curve_files,
    report_from_results_csv,
    run_experiment,
    write_report,
    write_run_outputs,
)
from optbench.optimizers import ConfigError, OptimizerKind
from optbench.tasks import TASK_NAMES, make_task_spec
from optbench.tuning import Regime

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_NO_VIABLE_TRIAL = 3


def _parse_list(value: str, universe, parse_one) -> list:
    """Parse a name, a comma list or 'all'; an unknown name or an empty list
    raises before any experiment runs."""
    if value.strip().lower() == "all":
        items = list(universe)
    else:
        items = [item for item in value.split(",") if item.strip()]
    if not items:
        raise ConfigError(f"empty list: {value!r}")
    return [parse_one(item) for item in items]


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
    run_p.add_argument("--trials", type=int, default=30)
    run_p.add_argument("--splits", type=int, default=5)
    run_p.add_argument("--epochs", type=int, default=20)
    run_p.add_argument("--batch-size", type=int, default=4)
    run_p.add_argument("--size", type=int, default=240, help="synthetic dataset size")
    run_p.add_argument("--seed", type=int, default=0)
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
    results = []
    for task in tasks:
        for optimizer in optimizers:
            for regime in regimes:
                run = RunSpec(task=task, optimizer=optimizer, regime=regime,
                              epochs=args.epochs, batch_size=args.batch_size,
                              n_splits=args.splits, master_seed=args.seed,
                              trial_budget=args.trials, dataset_size=args.size)
                if not args.quiet:
                    print(f"running {task.name} / {optimizer.value} / {regime.value} ...",
                          file=sys.stderr)
                results.append(run_experiment(run))
    write_run_outputs(results, args.out)
    write_report([res.record for res in results], args.out)
    if not args.quiet:
        print(f"wrote {len(results)} experiment(s) to {args.out}", file=sys.stderr)
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
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except NoViableTrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_VIABLE_TRIAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
