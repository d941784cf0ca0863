"""Command-line entry point.

One subcommand per experiment kind plus `report`. Exit codes: 0 success,
1 metric failure, 2 configuration error, 3 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys

# Set before numpy loads: a run's kernels are too small for a second BLAS thread, which only spins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from qpzk.errors import ConfigError, QubitCapExceededError
from qpzk.harness.config import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    load_config,
)
from qpzk.harness.experiments import run_experiment
from qpzk.harness.records import load_record, save_record
from qpzk.harness.report import report

# The modules loaded so far live until exit: moved out of the collector's
# reach, they are walked by no collection and not by interpreter teardown.
gc.freeze()

EXIT_OK = 0
EXIT_METRIC_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_CAP_EXCEEDED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpzk",
        description="Desk-scale runner for zero-knowledge protocol experiments "
                    "over quantum promise problems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="JSON experiment configuration")
        p.add_argument("--seed", type=int, help="master seed override")
        p.add_argument("--trials", type=int, help="trial count override")
        p.add_argument("--out", help="write the record to this path")
        p.add_argument("--format", choices=("json", "csv"),
                       help="record serialization format")
    rep = sub.add_parser("report", help="aggregate saved records")
    rep.add_argument("records", nargs="+", help="record JSON files")
    return parser


def _experiment_config(args) -> ExperimentConfig:
    if args.config:
        config = load_config(args.config)
        if config.kind != args.command:
            raise ConfigError(
                f"kind: config file says {config.kind!r}, "
                f"subcommand is {args.command!r}")
    else:
        config = ExperimentConfig(kind=args.command)
    overrides = {name: getattr(args, name) for name in ("seed", "trials", "out", "format")
                 if getattr(args, name) is not None}
    return dataclasses.replace(config, **overrides)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            records = [load_record(path) for path in args.records]
            summary = report(records)
            print("\n".join(summary.lines))
            if summary.failed:
                print("failing checks:", ", ".join(summary.failing_sources))
            return summary.exit_code

        config = _experiment_config(args)
        record = run_experiment(config)
        for row in record.rows:
            ref = "" if row.reference is None else f" ref={row.reference:.6g}"
            emp = "" if row.empirical is None else f"{row.empirical:.6g}"
            print(f"{row.verdict:14s} {row.name:48s} {emp}{ref} [{row.source}]")
        if config.out:
            save_record(record, config.out, config.format)
            print(f"record written to {config.out} ({config.format})")
        if record.failed:
            return EXIT_METRIC_FAILURE
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except QubitCapExceededError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED


if __name__ == "__main__":
    sys.exit(main())
