"""Outer drivers: split the domain by gradient norm and dispatch.

All drivers, and the always-probe baseline they are compared against, share
one entry, _enter, and one outer loop, _drive.  Large measured gradient: run
the region-appropriate first-order machinery (a full solve to stationarity
in the deterministic driver, one variance-reduced epoch otherwise).  Small
measured gradient: enter the small-gradient region, call the
negative-curvature escape exactly once, and either leave in that single step
or terminate because the finder declared bottom.  Termination by bottom is
the only path to a second_order_stationary certificate.  Every driver takes
the caller's generator as the required keyword rng, the run's only source of
randomness.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (Certificate, EvalCounters, SmoothnessSpec,
                   STATUS_BUDGET, STATUS_FIRST_ORDER, STATUS_SECOND_ORDER,
                   ToleranceConfig, as_counting, check_number, check_point, norm)
from .escape import (check_run, one_step_deterministic, one_step_finite_sum,
                     one_step_stochastic)
from .solvers import (DEFAULT_SOLVER, ScsgConfig, anchor_table, check_solver,
                      derive_scsg_params, run_solver, scsg_epoch)

LARGE = "large_gradient"
SMALL = "small_gradient"


@dataclass
class TraceRecord:
    """One outer iteration: branch taken and the measurements that chose it."""

    k: int
    branch: str
    grad_norm: float  # exact norm, or batch-estimate norm in stochastic mode
    f_value: Optional[float]  # exact f(x); None in stochastic mode, which has no f oracle
    escape_taken: bool  # counters.escape_steps grew during the iteration
    counters: EvalCounters  # snapshot after the iteration's work


@dataclass
class RunReport:
    certificate: Certificate
    trace: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    all_runs_failed: bool = False


def _enter(oracle, tol, smooth, mode, scsg_cfg=None, **extra):
    """The entry work of every driver and the baseline, before any oracle work.

    check_run for `mode`, then the counting wrap; in the sampling modes the
    epoch's ScsgConfig, derive_scsg_params when scsg_cfg is None.  Returns
    the counting oracle, the ScsgConfig (None in deterministic mode) and the
    run's config echo: the mode, each config as a dict, and `extra`.
    """
    check_run(oracle, tol, smooth, mode)
    oracle = as_counting(oracle)
    echo = {"mode": mode, "tolerance": dataclasses.asdict(tol),
            "smoothness": dataclasses.asdict(smooth)}
    if mode != "deterministic":
        if scsg_cfg is None:
            scsg_cfg = derive_scsg_params(tol, smooth, mode, n=oracle.n_components)
        echo["scsg"] = dataclasses.asdict(scsg_cfg)
    return oracle, scsg_cfg, {**echo, **extra}


def _finish(oracle, point, grad_norm, status, trace, echo, min_eig=math.nan):
    cert = Certificate(
        point=np.asarray(point, float),
        grad_norm=float(grad_norm),
        min_eig_estimate=float(min_eig),
        status=status,
        counters=oracle.counters.snapshot(),
    )
    return RunReport(certificate=cert, trace=trace, config=echo)


def _budget_status(grad_norm, eps):
    return STATUS_FIRST_ORDER if grad_norm <= eps else STATUS_BUDGET


def _drive(oracle, x0, K, measure, value, threshold, large_step, escape, echo):
    """The one outer loop behind every driver and the always-probe baseline.

    Per outer iteration, g = measure(x).  A non-finite ||g|| ends the run
    budget_exhausted at once, before any further oracle work.  If
    ||g|| <= threshold, enter the small-gradient region and take one
    escape(x, g); bottom certifies x with the finder's min_eig_estimate.
    Otherwise large_step(x, g, fx), fx being the row's f_value, returns the
    new point, the gradient and the value measured there (each None if not,
    so the next iteration measures it) and the gradient norm the run ends at,
    or None to go on.  A run that ends any other way has measured no
    curvature at its final point and reports min_eig_estimate NaN.  value(x)
    fills each trace row's f_value; with value=None it is never read.  An x0
    that is not a finite (d,) array raises ConfigError before any oracle work.
    """
    x = check_point(x0, oracle.dimension, "x0")
    g = f = None  # gradient and value at x, where the last step measured them
    trace: list[TraceRecord] = []

    for k in range(1, K + 1):
        oracle.counters.outer_iters += 1
        escapes = oracle.counters.escape_steps
        if g is None:
            g = measure(x)
        gn = norm(g)
        if not math.isfinite(gn):
            return _finish(oracle, x, gn, STATUS_BUDGET, trace, echo)
        fx = value(x) if f is None and value is not None else f
        if not gn <= threshold:
            x, g, f, stop = large_step(x, g, fx)
            trace.append(TraceRecord(k, LARGE, gn, fx, oracle.counters.escape_steps > escapes,
                                     oracle.counters.snapshot()))
            if stop is not None:
                return _finish(oracle, x, stop, _budget_status(stop, threshold), trace, echo)
        else:
            oracle.counters.small_region_entries += 1
            res = escape(x, g)
            trace.append(TraceRecord(k, SMALL, gn, fx, oracle.counters.escape_steps > escapes,
                                     oracle.counters.snapshot()))
            if not res.escaped:
                return _finish(oracle, x, gn, STATUS_SECOND_ORDER, trace, echo,
                               res.nc.lambda_hat)
            x, g, f = res.point, None, None

    gn = norm(measure(x) if g is None else g)
    return _finish(oracle, x, gn, _budget_status(gn, threshold), trace, echo)


def _epoch_step(oracle, scsg_cfg, rng, mode, table=lambda: None):
    """Large-gradient step of the sampling drivers: one SCSG epoch anchored at g.

    table() gives the finite-sum epoch the anchor table whose mean is g.
    """
    def step(x, g, fx):
        x = scsg_epoch(oracle, x, scsg_cfg, g, rng, mode, table=table())
        oracle.counters.epochs_run += 1
        return x, None, None, None
    return step


def gose_deterministic(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                       solver_choice: str = DEFAULT_SOLVER, *,
                       rng: np.random.Generator) -> RunReport:
    """Full-information driver.

    Per outer iteration: if ||grad f(x)|| > eps, run the first-order solver to
    eps-stationarity; else enter the small-gradient region and take one escape
    step.  A bottom outcome certifies the current point (subject to the
    finder's delta).  The solver is guarded_agd by default; solver_choice="gd"
    selects plain gradient descent, which reads no values.
    """
    oracle, _, echo = _enter(oracle, tol, smooth, "deterministic", solver_choice=solver_choice)
    check_solver(solver_choice)

    def solve(x, g, fx):
        res = run_solver(solver_choice, oracle, x, smooth.L, tol.eps, g, fx)
        return res.point, res.gradient, res.value, None if res.converged else res.grad_norm

    return _drive(oracle, x0, tol.max_outer, oracle.gradient, oracle.value, tol.eps, solve,
                  lambda x, g: one_step_deterministic(oracle, x, tol, smooth, rng, g=g),
                  echo)


def gose_stochastic(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                    scsg_cfg: Optional[ScsgConfig] = None, *,
                    rng: np.random.Generator) -> RunReport:
    """Sampling-only driver.

    Per outer iteration: draw a batch of size B, branch on the batch-mean
    gradient norm against eps/2 (the halved threshold keeps the true gradient
    small when escaping), and either run one variance-reduced epoch anchored
    at that same batch gradient or take one stochastic escape step.  Only the
    sampling oracles are called, so trace rows carry f_value None.
    """
    oracle, scsg_cfg, echo = _enter(oracle, tol, smooth, "stochastic", scsg_cfg)
    return _drive(oracle, x0, tol.max_outer,
                  lambda x: oracle.sample_gradient_batch(x, scsg_cfg.B, rng), None, tol.eps / 2.0,
                  _epoch_step(oracle, scsg_cfg, rng, "stochastic"),
                  lambda x, g: one_step_stochastic(oracle, x, tol, smooth, rng),
                  echo)


def gose_finite_sum(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec, *,
                    rng: np.random.Generator,
                    scsg_cfg: Optional[ScsgConfig] = None) -> RunReport:
    """Finite-sum driver.

    Unlike the sampling driver this one measures the full gradient each outer
    iteration and branches at eps (not eps/2); the epoch uses batch size n and
    minibatch size 1.  The full gradient is the mean of anchor_table's n
    component gradients, which the epoch then reuses as its anchor side, so
    a measurement costs n component gradients and an epoch b*T more; the
    escape flips its direction against the same mean.  The oracle's own
    gradient is never called.
    """
    oracle, scsg_cfg, echo = _enter(oracle, tol, smooth, "finite_sum", scsg_cfg)

    table = None  # of the point measure() saw last, which the epoch starts from

    def measure(x):
        nonlocal table
        table, g = anchor_table(oracle, x)
        return g

    return _drive(oracle, x0, tol.max_outer, measure, oracle.value, tol.eps,
                  _epoch_step(oracle, scsg_cfg, rng, "finite_sum", lambda: table),
                  lambda x, g: one_step_finite_sum(oracle, x, tol, smooth, rng, g=g),
                  echo)


def always_probe_baseline(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec, *,
                          rng: np.random.Generator) -> RunReport:
    """Reference scheme that probes for negative curvature every iteration.

    Runs the drivers' outer loop for tol.max_outer iterations, but each iteration
    spends one finder call no matter where the iterate is: take a curvature
    step if a direction comes back, otherwise a single gradient step 1/L when
    ||grad f|| > eps, or stop on bottom when the gradient is already small.
    Exists purely to quantify how many probes the region-splitting drivers
    save.
    """
    oracle, _, echo = _enter(oracle, tol, smooth, "deterministic")

    def probe(x, g):
        return one_step_deterministic(oracle, x, tol, smooth, rng, g=g)

    def probe_or_gradient_step(x, g, fx):
        oracle.counters.small_region_entries += 1  # probes on the large branch too
        res = probe(x, g)
        return (res.point if res.escaped else x - g / smooth.L), None, None, None

    return _drive(oracle, x0, tol.max_outer, oracle.gradient, oracle.value, tol.eps,
                  probe_or_gradient_step, probe, echo)


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
    check_number("reps", reps, 1, integer=True)
    reports = []
    for i in range(reps):
        report = run_once(base_seed + i)
        if certifier(report.certificate.point):
            return report
        reports.append(report)
    best = min(reports, key=lambda r: r.certificate.grad_norm)
    best.all_runs_failed = True
    return best
