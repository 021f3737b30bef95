"""Command-line front end.

Subcommands: run, sweep, list-problems.  Exit codes: 0 success,
2 configuration error (the message names the violated inequality; a sweep in
which no cell passed validation is one), 3 internal error.  GOSE_OUT sets the
default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .core import ConfigError, GoseError
from .harness import (ExperimentConfig, load_json_object, run_experiment, run_sweep,
                      summary_line, sweep_table)
from .problems import list_problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gose",
        description="Find approximate local minima with one-step saddle escaping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment per seed")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="run this seed only")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--trace", action="store_true", help="also write trace tables")

    p_sweep = sub.add_parser("sweep", help="cross-product over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="JSON sweep config (base + grid)")
    p_sweep.add_argument("--out", default=None)

    sub.add_parser("list-problems", help="names accepted by run configs")
    return parser


def cmd_run(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        # replace() re-runs the checks a seed from the file gets
        cfg = dataclasses.replace(cfg, seeds=[args.seed])
    rows = run_experiment(cfg, out_dir=args.out, trace=args.trace)
    for row in rows:
        print(summary_line(row))
    return 0


def cmd_sweep(args) -> int:
    rows = run_sweep(load_json_object(args.config), out_dir=args.out)
    print(sweep_table(rows))
    if not any(row.get("aggregate") for row in rows):
        raise ConfigError("no sweep cell passed validation")
    return 0


def cmd_list_problems(_args) -> int:
    for name in list_problems():
        print(name)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "list-problems": cmd_list_problems,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GoseError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
