"""Outer drivers: split the domain by gradient norm and dispatch.

All drivers share one outer loop, _drive.  Large measured gradient: run the
region-appropriate first-order machinery (a full solve to stationarity in the
deterministic driver, one variance-reduced epoch otherwise).  Small measured
gradient: enter the small-gradient region, call the negative-curvature escape
exactly once, and either leave in that single step or terminate because the
finder declared bottom.  Termination by bottom is the only path to a
second_order_stationary certificate.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (Certificate, EvalCounters, SmoothnessSpec, STATUS_BUDGET,
                   STATUS_FIRST_ORDER, STATUS_SECOND_ORDER, ToleranceConfig,
                   as_counting, validate_config)
from .escape import (EscapeConfig, one_step_deterministic, one_step_finite_sum,
                     one_step_stochastic)
from .ncfind import NcConfig
from .solvers import ScsgConfig, derive_scsg_params, run_solver, scsg_epoch

LARGE = "large_gradient"
SMALL = "small_gradient"


@dataclass
class TraceRecord:
    """One outer iteration: branch taken and the measurements that chose it."""

    k: int
    branch: str
    grad_norm: float  # exact norm, or batch-estimate norm in stochastic mode
    f_value: float
    escape_taken: bool
    counters: EvalCounters  # snapshot after the iteration's work


@dataclass
class RunReport:
    certificate: Certificate
    trace: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    seed: int = 0
    all_runs_failed: bool = False


def _config_echo(mode, tol, smooth, esc, ncfg, **extra) -> dict:
    echo = {
        "mode": mode,
        "tolerance": dataclasses.asdict(tol),
        "smoothness": dataclasses.asdict(smooth),
        "escape": dataclasses.asdict(esc),
        "nc": dataclasses.asdict(ncfg),
    }
    echo.update(extra)
    return echo


def _finish(oracle, point, grad_norm, min_eig, status, trace, echo, seed):
    cert = Certificate(
        point=np.asarray(point, float),
        grad_norm=float(grad_norm),
        min_eig_estimate=float(min_eig),
        status=status,
        counters=oracle.counters.snapshot(),
    )
    return RunReport(certificate=cert, trace=trace, config=echo, seed=seed)


def _budget_status(grad_norm, eps):
    return STATUS_FIRST_ORDER if grad_norm <= eps else STATUS_BUDGET


def _drive(oracle, x0, K, measure, threshold, large_step, escape, echo, seed):
    """The one outer loop behind every driver.

    Per outer iteration, g = measure(x).  A non-finite ||g|| ends the run
    budget_exhausted at once, before any further oracle work.  If
    ||g|| <= threshold, enter the small-gradient region and take one
    escape(x, g); bottom certifies x.  Otherwise large_step(x, g) returns the
    new point and the gradient norm the run ends at, or None to go on.
    """
    x = np.asarray(x0, float)
    trace: list[TraceRecord] = []
    last_nc_estimate = float("nan")

    for k in range(1, K + 1):
        oracle.counters.outer_iters += 1
        g = measure(x)
        gn = float(np.linalg.norm(g))
        if not math.isfinite(gn):
            return _finish(oracle, x, gn, last_nc_estimate, STATUS_BUDGET, trace, echo, seed)
        fx = oracle.value(x)
        if not gn <= threshold:
            x, stop = large_step(x, g)
            trace.append(TraceRecord(k, LARGE, gn, fx, False, oracle.counters.snapshot()))
            if stop is not None:
                return _finish(oracle, x, stop, last_nc_estimate,
                               _budget_status(stop, threshold), trace, echo, seed)
        else:
            oracle.counters.small_region_entries += 1
            res = escape(x, g)
            trace.append(TraceRecord(k, SMALL, gn, fx, res.escaped, oracle.counters.snapshot()))
            last_nc_estimate = res.nc.lambda_hat
            if not res.escaped:
                return _finish(oracle, x, gn, res.nc.lambda_hat,
                               STATUS_SECOND_ORDER, trace, echo, seed)
            x = res.point

    gn = float(np.linalg.norm(measure(x)))
    return _finish(oracle, x, gn, last_nc_estimate,
                   _budget_status(gn, threshold), trace, echo, seed)


def _epoch_step(oracle, scsg_cfg, rng):
    """Large-gradient step of the sampling drivers: one SCSG epoch anchored at g."""
    def step(x, g):
        x = scsg_epoch(oracle, x, scsg_cfg, g, rng)
        oracle.counters.epochs_run += 1
        return x, None
    return step


def gose_deterministic(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                       esc: EscapeConfig = EscapeConfig(),
                       solver_choice: str = "gd",
                       rng: Optional[np.random.Generator] = None,
                       ncfg: NcConfig = NcConfig(),
                       solver_max_iters: int = 200_000) -> RunReport:
    """Full-information driver.

    Per outer iteration: if ||grad f(x)|| > eps, run the first-order solver to
    eps-stationarity; else enter the small-gradient region and take one escape
    step.  A bottom outcome certifies the current point (subject to the
    finder's delta).
    """
    vcfg = validate_config(tol, smooth, "deterministic")
    esc.validate(vcfg)
    rng = rng if rng is not None else np.random.default_rng(tol.seed)
    oracle = as_counting(oracle)
    echo = _config_echo("deterministic", tol, smooth, esc, ncfg, solver_choice=solver_choice)

    def solve(x, g):
        res = run_solver(solver_choice, oracle, x, smooth.L, vcfg.rho_eff,
                         tol.eps, solver_max_iters)
        return res.point, None if res.converged else res.grad_norm

    return _drive(oracle, x0, tol.max_outer, oracle.gradient, tol.eps, solve,
                  lambda x, g: one_step_deterministic(oracle, x, tol, smooth, esc, rng, ncfg, g=g),
                  echo, tol.seed)


def gose_stochastic(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                    esc: EscapeConfig = EscapeConfig(),
                    scsg_cfg: Optional[ScsgConfig] = None,
                    rng: Optional[np.random.Generator] = None,
                    ncfg: NcConfig = NcConfig()) -> RunReport:
    """Sampling-only driver.

    Per outer iteration: draw a batch of size B, branch on the batch-mean
    gradient norm against eps/2 (the halved threshold keeps the true gradient
    small when escaping), and either run one variance-reduced epoch anchored
    at that same batch gradient or take one stochastic escape step.
    """
    esc.validate(validate_config(tol, smooth, "stochastic"))
    rng = rng if rng is not None else np.random.default_rng(tol.seed)
    oracle = as_counting(oracle)
    if scsg_cfg is None:
        scsg_cfg = derive_scsg_params(tol, smooth, "stochastic")
    echo = _config_echo("stochastic", tol, smooth, esc, ncfg, scsg=dataclasses.asdict(scsg_cfg))

    return _drive(oracle, x0, tol.max_outer,
                  lambda x: oracle.sample_gradient_batch(x, scsg_cfg.B, rng), tol.eps / 2.0,
                  _epoch_step(oracle, scsg_cfg, rng),
                  lambda x, g: one_step_stochastic(oracle, x, tol, smooth, esc, rng, ncfg),
                  echo, tol.seed)


def gose_finite_sum(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                    esc: EscapeConfig = EscapeConfig(),
                    rng: Optional[np.random.Generator] = None,
                    ncfg: NcConfig = NcConfig(),
                    scsg_cfg: Optional[ScsgConfig] = None) -> RunReport:
    """Finite-sum driver.

    Unlike the sampling driver this one measures the full gradient each outer
    iteration and branches at eps (not eps/2); the epoch uses batch size n and
    minibatch size 1.
    """
    esc.validate(validate_config(tol, smooth, "finite_sum"))
    rng = rng if rng is not None else np.random.default_rng(tol.seed)
    oracle = as_counting(oracle)
    if scsg_cfg is None:
        scsg_cfg = derive_scsg_params(tol, smooth, "finite_sum", n=oracle.n_components)
    echo = _config_echo("finite_sum", tol, smooth, esc, ncfg, scsg=dataclasses.asdict(scsg_cfg))

    return _drive(oracle, x0, tol.max_outer, oracle.gradient,
                  tol.eps, _epoch_step(oracle, scsg_cfg, rng),
                  lambda x, g: one_step_finite_sum(oracle, x, tol, smooth, esc, rng, ncfg, g=g),
                  echo, tol.seed)


def amplify(run_once: Callable[[int], RunReport], reps: int,
            certifier: Callable[[np.ndarray], bool],
            base_seed: int = 0) -> RunReport:
    """Success-probability amplification by independent repetition.

    Runs run_once(seed) for reps seeds; returns the first report whose
    terminal point passes the certifier.  If none passes, returns the report
    with the smallest measured gradient norm, flagged all_runs_failed.  With
    per-run success probability p the failure probability decays like
    (1-p)**reps.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    reports = []
    for i in range(reps):
        report = run_once(base_seed + i)
        if certifier(report.certificate.point):
            return report
        reports.append(report)
    best = min(reports, key=lambda r: r.certificate.grad_norm)
    best.all_runs_failed = True
    return best
