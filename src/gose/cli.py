"""Command-line front end.

Subcommands: run, sweep, verify-nc, list-problems.  Exit codes: 0 success,
2 configuration error (the message names the violated inequality; a sweep in
which no cell passed validation is one), 3 internal error.  GOSE_OUT sets the
default output directory.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

from .core import ConfigError, GoseError
from .harness import (ExperimentConfig, inject_asymmetric_probe, load_json_object,
                      run_experiment, run_sweep, summary_line, sweep_table,
                      verify_nc_suite)
from .problems import list_problems


_SUITE_PARAMS = inspect.signature(verify_nc_suite).parameters


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

    p_nc = sub.add_parser("verify-nc", help="statistical contract suite for the NC finders")
    # one option per verify_nc_suite parameter, with its default and type
    for name, param in _SUITE_PARAMS.items():
        p_nc.add_argument("--" + name.replace("_", "-"), type=type(param.default),
                          default=param.default)
    p_nc.add_argument("--inject-asymmetric", action="store_true",
                      help="feed an asymmetric operator to demonstrate the probe")

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


def cmd_verify_nc(args) -> int:
    if args.inject_asymmetric:
        inject_asymmetric_probe(d=min(args.d, 20), seed=args.seed)
        return 0  # unreachable; the probe raises
    result = verify_nc_suite(**{name: getattr(args, name) for name in _SUITE_PARAMS})
    print(f"{'engine':<20} {'direction_rate':>15} {'bottom_rate_psd':>16} {'unsound':>8} {'pass':>6}")
    print(f"{result['engine']:<20} {result['direction_rate']:>15.3f} "
          f"{result['bottom_rate_psd']:>16.3f} {result['unsound_directions']:>8} "
          f"{str(result['passed']):>6}")
    return 0 if result["passed"] else 1


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
        "verify-nc": cmd_verify_nc,
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
