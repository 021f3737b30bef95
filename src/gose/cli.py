"""Command-line front end.

Subcommands: run, sweep, verify-nc, list-problems.  Exit codes: 0 success,
2 configuration error (the message names the violated inequality), 3 internal
error.  GOSE_OUT sets the default output directory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import MODES, ConfigError, GoseError
from .harness import (ExperimentConfig, inject_asymmetric_probe, run_experiment,
                      run_sweep, summary_line, sweep_table, verify_nc_suite)
from .problems import list_problems


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gose",
        description="Find approximate local minima with one-step saddle escaping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment per seed")
    p_run.add_argument("--config", required=True, help="JSON experiment config")
    p_run.add_argument("--seed", type=int, default=None, help="override: run this seed only")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--mode", default=None, choices=MODES)
    p_run.add_argument("--engine", default=None,
                       help="negative-curvature engine override")
    p_run.add_argument("--trace", action="store_true", help="also write trace tables")

    p_sweep = sub.add_parser("sweep", help="cross-product over a parameter grid")
    p_sweep.add_argument("--config", required=True, help="JSON sweep config (base + grid)")
    p_sweep.add_argument("--out", default=None)

    p_nc = sub.add_parser("verify-nc", help="statistical contract suite for the NC finders")
    p_nc.add_argument("--d", type=int, default=50)
    p_nc.add_argument("--trials", type=int, default=200)
    p_nc.add_argument("--eps-h", type=float, default=0.5)
    p_nc.add_argument("--delta", type=float, default=0.01)
    p_nc.add_argument("--engine", default="deterministic")
    p_nc.add_argument("--seed", type=int, default=0)
    p_nc.add_argument("--inject-asymmetric", action="store_true",
                      help="feed an asymmetric operator to demonstrate the probe")

    sub.add_parser("list-problems", help="names accepted by run configs")
    return parser


def cmd_run(args) -> int:
    cfg = ExperimentConfig.load(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    if args.mode is not None:
        cfg.mode = args.mode
    if args.engine is not None:
        cfg.nc_engine = args.engine
    if args.trace:
        cfg.write_trace = True
    rows = run_experiment(cfg, out_dir=args.out)
    for row in rows:
        print(summary_line(row))
    return 0


def cmd_sweep(args) -> int:
    with open(args.config) as fh:
        sweep = json.load(fh)
    rows = run_sweep(sweep, out_dir=args.out)
    print(sweep_table(rows))
    return 0


def cmd_verify_nc(args) -> int:
    if args.inject_asymmetric:
        inject_asymmetric_probe(d=min(args.d, 20), seed=args.seed)
        return 0  # unreachable; the probe raises
    result = verify_nc_suite(d=args.d, trials=args.trials, eps_h=args.eps_h,
                             delta=args.delta, engine=args.engine, seed=args.seed)
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
