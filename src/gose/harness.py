"""Experiment harness: configs, runners, report files, verification suites.

Summaries are one JSON object per line (machine-parsable, diff-able); traces
are CSV tables with a header row.  Wall time is reported but never part of
any acceptance decision; oracle-call counters are the cost measure.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (MODES, ConfigError, DimensionTooLarge, EvalCounters,
                   ObjectiveOracle, STATUS_BUDGET, STATUS_SECOND_ORDER,
                   SmoothnessSpec, ToleranceConfig, as_counting)
from .drivers import (LARGE, SMALL, RunReport, TraceRecord, _finish,
                      gose_deterministic, gose_finite_sum, gose_stochastic)
from .escape import EscapeConfig, one_step_deterministic
from .ncfind import (NcBudget, NcConfig, approx_nc_deterministic,
                     approx_nc_finite_sum, approx_nc_stochastic,
                     lanczos_min_eig)
from .problems import (ProblemSpec, _planted_spectrum, _quadratic_oracle,
                       certify_second_order, get_problem, with_gradient_noise)
from .solvers import derive_scsg_params

OUT_ENV_VAR = "GOSE_OUT"
DEFAULT_OUT = "gose_out"


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    """Everything one `run` invocation needs, JSON round-trip stable."""

    problem: str = "quadratic_saddle"
    problem_params: dict = field(default_factory=dict)
    mode: str = "deterministic"
    eps: float = 0.01
    eps_h: float = 0.5
    delta: float = 0.01
    c1: float = 1.0
    max_outer: int = 100
    seeds: list = field(default_factory=lambda: [0])
    # smoothness; None means take the problem's declared constant
    L: Optional[float] = None
    rho: Optional[float] = None
    rho_min: float = 1e-3
    h_star: Optional[float] = None
    sigma: Optional[float] = None
    noise_sigma: Optional[float] = None  # gradient noise added in stochastic mode
    # escape
    c_h: float = 0.5
    s_mult: float = 4.0
    c_conc: float = 0.25
    s_rule: str = "auto"
    # negative-curvature finder
    nc_engine: str = "minibatch_lanczos"
    nc_budget_mult: float = 4.0
    nc_restarts: int = 1
    # first-order machinery
    solver_choice: str = "gd"
    solver_max_iters: int = 200_000
    scsg_B: Optional[int] = None
    scsg_b: Optional[int] = None
    scsg_b_mult: float = 1.0
    scsg_B_mult: float = 96.0
    # orchestration
    write_trace: bool = False
    out_dir: Optional[str] = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def dump(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    if cfg.mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {cfg.mode!r}")
    spec = get_problem(cfg.problem, **cfg.problem_params)
    if cfg.mode == "stochastic" and not spec.oracle.capabilities.stochastic:
        sigma = cfg.noise_sigma if cfg.noise_sigma is not None else cfg.sigma
        if sigma is None:
            raise ConfigError(
                "stochastic mode on a deterministic problem needs noise_sigma"
            )
        spec = with_gradient_noise(spec, sigma)
    if cfg.mode == "finite_sum" and not spec.oracle.capabilities.finite_sum:
        raise ConfigError(
            f"problem {cfg.problem!r} has no components; use a finite-sum problem"
            " such as nonconvex_pca"
        )
    return spec


def build_configs(cfg: ExperimentConfig, spec: ProblemSpec, seed: int):
    tol = ToleranceConfig(eps=cfg.eps, eps_h=cfg.eps_h, delta=cfg.delta,
                          c1=cfg.c1, max_outer=cfg.max_outer, seed=seed)
    sigma = cfg.sigma if cfg.sigma is not None else cfg.noise_sigma
    h_star = cfg.h_star
    if h_star is None and sigma is not None:
        h_star = 2.0 * sigma ** 2
    smooth = SmoothnessSpec(
        L=cfg.L if cfg.L is not None else spec.known_L,
        rho=cfg.rho if cfg.rho is not None else spec.known_rho,
        rho_min=cfg.rho_min,
        h_star=h_star, sigma=sigma,
    )
    esc = EscapeConfig(c_h=cfg.c_h, s_mult=cfg.s_mult, c_conc=cfg.c_conc,
                       s_rule=cfg.s_rule)
    ncfg = NcConfig(budget_mult=cfg.nc_budget_mult, restarts=cfg.nc_restarts,
                    engine=cfg.nc_engine)
    return tol, smooth, esc, ncfg


def run_one(cfg: ExperimentConfig, seed: int) -> tuple[RunReport, dict]:
    """Run one seed of the configured experiment; returns (report, summary row)."""
    spec = build_problem(cfg)
    tol, smooth, esc, ncfg = build_configs(cfg, spec, seed)
    rng = np.random.default_rng(seed)
    x0 = spec.x0
    t0 = time.perf_counter()
    if cfg.mode == "deterministic":
        report = gose_deterministic(spec.oracle, x0, tol, smooth, esc,
                                    solver_choice=cfg.solver_choice, rng=rng,
                                    ncfg=ncfg, solver_max_iters=cfg.solver_max_iters)
    else:
        scsg = derive_scsg_params(tol, smooth, cfg.mode, n=spec.oracle.n_components,
                                  b_mult=cfg.scsg_b_mult, B_mult=cfg.scsg_B_mult,
                                  B_override=cfg.scsg_B, b_override=cfg.scsg_b)
        driver = gose_stochastic if cfg.mode == "stochastic" else gose_finite_sum
        report = driver(spec.oracle, x0, tol, smooth, esc, scsg_cfg=scsg, rng=rng, ncfg=ncfg)
    wall = time.perf_counter() - t0

    cert = report.certificate
    row = {
        "problem": cfg.problem,
        "mode": cfg.mode,
        "seed": seed,
        "status": cert.status,
        "final_f": spec.oracle.value(cert.point),
        "grad_norm": cert.grad_norm,
        "min_eig_estimate": cert.min_eig_estimate,
        "counters": cert.counters.as_dict(),
        "config": report.config,
        "wall_time_s": wall,
    }
    try:
        ok, gn, lam = certify_second_order(spec.oracle, cert.point, cfg.eps, cfg.eps_h)
        row["certified"] = bool(ok)
        row["lambda_min"] = lam
        row["true_grad_norm"] = gn
    except DimensionTooLarge:
        row["certified"] = None
        row["lambda_min"] = None
        row["true_grad_norm"] = None
    return report, row


# ---------------------------------------------------------------------------
# Report files


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def _atomic_write(path: str, text: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def summary_line(row: dict) -> str:
    """Strict JSON: non-finite numbers are written as null."""
    return json.dumps(_jsonify(row), sort_keys=True, allow_nan=False)


def write_summaries(rows: list, out_dir: str, name: str = "summary.jsonl") -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    _atomic_write(path, "".join(summary_line(r) + "\n" for r in rows))
    return path


TRACE_HEADER = ["k", "branch", "grad_norm", "f_value", "escape_taken",
                *(f.name for f in dataclasses.fields(EvalCounters))]


def trace_table(report: RunReport) -> str:
    lines = [",".join(TRACE_HEADER)]
    for rec in report.trace:
        lines.append(",".join(str(v) for v in [
            rec.k, rec.branch, repr(rec.grad_norm), repr(rec.f_value),
            int(rec.escape_taken), *rec.counters.as_dict().values(),
        ]))
    return "\n".join(lines) + "\n"


def write_trace(report: RunReport, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    _atomic_write(path, trace_table(report))
    return path


def resolve_out_dir(explicit: Optional[str]) -> str:
    if explicit:
        return explicit
    return os.environ.get(OUT_ENV_VAR, DEFAULT_OUT)


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None) -> list:
    """Run all configured seeds, write summary.jsonl (+traces), return rows."""
    out = resolve_out_dir(out_dir if out_dir is not None else cfg.out_dir)
    rows = []
    for seed in cfg.seeds:
        report, row = run_one(cfg, seed)
        rows.append(row)
        if cfg.write_trace:
            write_trace(report, out, f"trace_{cfg.problem}_{cfg.mode}_seed{seed}.csv")
    write_summaries(rows, out)
    return rows


# ---------------------------------------------------------------------------
# Parameter sweeps


def run_sweep(sweep: dict, out_dir: Optional[str] = None) -> list:
    """Cross-product over grid axes; one summary row per cell.

    sweep = {"base": {...ExperimentConfig...}, "grid": {field: [values, ...]}}.
    Cells whose config fails validation are reported as failed rows; the rest
    run.  Raises ConfigError on an empty grid axis.
    """
    base = sweep.get("base", {})
    grid = sweep.get("grid", {})
    if not grid:
        raise ConfigError("sweep needs a non-empty 'grid'")
    axes = sorted(grid)
    for axis in axes:
        if not isinstance(grid[axis], list) or len(grid[axis]) == 0:
            raise ConfigError(f"grid axis {axis!r} is empty")
    rows = []
    for combo in itertools.product(*(grid[a] for a in axes)):
        overrides = dict(zip(axes, combo))
        cell = dict(base)
        cell.update(overrides)
        try:
            cfg = ExperimentConfig.from_dict(cell)
            totals = Counter()
            for seed in cfg.seeds:
                _, row = run_one(cfg, seed)
                totals.update(row["counters"])
                rows.append({"cell": overrides, **row})
            rows.append({"cell": overrides, "aggregate": True,
                         "seeds": len(cfg.seeds), "totals": dict(totals)})
        except ConfigError as exc:
            rows.append({"cell": overrides, "error": str(exc)})
    write_summaries(rows, resolve_out_dir(out_dir), "sweep_summary.jsonl")
    return rows


def sweep_table(rows: list) -> str:
    """Aggregate comparison of total oracle-call counts across cells."""
    lines = [f"{'cell':<60} {'work_units':>12} {'nc_calls':>9}"]
    for row in rows:
        if row.get("aggregate"):
            t = EvalCounters(**row["totals"])
            lines.append(f"{json.dumps(row['cell']):<60} {t.work_units():>12} {t.nc_calls:>9}")
        elif "error" in row:
            lines.append(f"{json.dumps(row['cell']):<60} VALIDATION-FAILED: {row['error']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Negative-curvature contract suite (verify-nc)


def _negative_spectrum(d: int, eps_h: float, rng) -> np.ndarray:
    spec = rng.uniform(-eps_h / 4.0, 1.0, size=d)
    spec[0] = -2.0 * eps_h
    return spec


def _psd_spectrum(d: int, rng) -> np.ndarray:
    return rng.uniform(0.05, 1.0, size=d)


def _finite_sum_quadratic(A: np.ndarray, n: int, noise: float,
                          rng: np.random.Generator) -> ObjectiveOracle:
    """n components (A + E_i) with sum_i E_i = 0 exactly."""
    d = A.shape[0]
    E = rng.standard_normal((n, d, d)) * noise
    E = 0.5 * (E + E.transpose(0, 2, 1))
    E -= E.mean(axis=0, keepdims=True)
    comps = A[None, :, :] + E
    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        n_components=n,
        component_gradient=lambda i, x: comps[i] @ x,
        component_hvp=lambda i, x, v: comps[i] @ v,
    )


NC_THRESHOLDS = {
    # engine: (min direction rate on lambda_min = -2 eps_h, min bottom rate on PSD)
    "deterministic": (0.95, 1.0),
    "fd": (0.95, 1.0),
    "minibatch_lanczos": (0.90, 0.90),
    "oja": (0.90, 0.90),
    "finite_sum": (0.90, 1.0),
}


def verify_nc_suite(d: int = 50, trials: int = 200, eps_h: float = 0.5,
                    delta: float = 0.01, engine: str = "deterministic",
                    seed: int = 0, noise: float = 0.02,
                    budget_mult: float = 4.0) -> dict:
    """Statistical contract check on planted spectra.

    Half the battery plants lambda_min = -2*eps_h (expect a direction), half
    plants PSD spectra (expect bottom).  Returns rates and a pass flag against
    the engine's thresholds.  Every returned direction is re-checked against
    the dense operator: Rayleigh <= -eps_h/2 must hold exactly.
    """
    if engine not in NC_THRESHOLDS:
        raise ConfigError(f"unknown engine {engine!r}; options: {sorted(NC_THRESHOLDS)}")
    rng = np.random.default_rng(seed)
    cfg = NcConfig(budget_mult=budget_mult)
    L = 2.0 * eps_h
    x = np.zeros(d)

    def call(A):
        if engine in ("deterministic", "fd"):
            return approx_nc_deterministic(_quadratic_oracle(A), x, eps_h, delta, L, rng, cfg,
                                           hvp_source="fd" if engine == "fd" else "auto")
        if engine == "finite_sum":
            oracle = _finite_sum_quadratic(A, 32, noise, rng)
            return approx_nc_finite_sum(oracle, x, eps_h, delta, L, rng, cfg)
        planted = ProblemSpec(name="planted", oracle=_quadratic_oracle(A),
                              known_L=L, known_rho=0.0, box=(-1.0, 1.0))
        oracle = with_gradient_noise(planted, noise).oracle
        scfg = dataclasses.replace(cfg, engine=engine)
        return approx_nc_stochastic(oracle, x, eps_h, delta, L, rng, scfg)

    directions = unsound = 0
    for _ in range(trials):
        A, _ = _planted_spectrum(_negative_spectrum(d, eps_h, rng), rng)
        out = call(A)
        if out.is_direction:
            directions += 1
            if float(out.direction @ (A @ out.direction)) > -eps_h / 2.0 + 1e-9:
                unsound += 1
    bottoms = 0
    for _ in range(trials):
        A, _ = _planted_spectrum(_psd_spectrum(d, rng), rng)
        out = call(A)
        if out.is_bottom:
            bottoms += 1

    dir_rate = directions / trials
    bot_rate = bottoms / trials
    need_dir, need_bot = NC_THRESHOLDS[engine]
    return {
        "engine": engine, "d": d, "trials": trials, "eps_h": eps_h, "delta": delta,
        "direction_rate": dir_rate, "bottom_rate_psd": bot_rate,
        "unsound_directions": unsound,
        "passed": dir_rate >= need_dir and bot_rate >= need_bot and unsound == 0,
        "thresholds": {"direction": need_dir, "bottom": need_bot},
    }


def inject_asymmetric_probe(d: int = 10, seed: int = 0):
    """Drive the Lanczos symmetry probe with a deliberately asymmetric operator."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    A[0, 1] += 5.0  # guarantee asymmetry
    lanczos_min_eig(lambda v: A @ v, d, NcBudget(10), rng)  # raises


# ---------------------------------------------------------------------------
# Always-probe baseline (comparison only)


def always_probe_baseline(oracle, x0, tol: ToleranceConfig, smooth: SmoothnessSpec,
                          esc: EscapeConfig = EscapeConfig(),
                          rng: Optional[np.random.Generator] = None,
                          ncfg: NcConfig = NcConfig(),
                          max_iters: int = 10_000) -> RunReport:
    """Reference scheme that probes for negative curvature every iteration.

    Each iteration spends one finder call no matter where the iterate is:
    take a curvature step if a direction comes back, otherwise a single
    gradient step; stop only when the finder says bottom and the gradient is
    already small; a non-finite gradient norm ends the run budget_exhausted
    at once.  Exists purely to quantify how many probes the region-splitting
    drivers save.
    """
    rng = rng if rng is not None else np.random.default_rng(tol.seed)
    oracle = as_counting(oracle)
    x = np.asarray(x0, float)
    trace = []
    for k in range(1, max_iters + 1):
        oracle.counters.outer_iters += 1
        g = oracle.gradient(x)
        gn = float(np.linalg.norm(g))
        if not math.isfinite(gn):
            return _finish(oracle, x, gn, float("nan"), STATUS_BUDGET, trace, {}, tol.seed)
        oracle.counters.small_region_entries += 1  # probes every iteration
        fx = oracle.value(x)
        res = one_step_deterministic(oracle, x, tol, smooth, esc, rng, ncfg, g=g)
        if res.escaped:
            x = res.point
            trace.append(TraceRecord(k, SMALL, gn, fx, True, oracle.counters.snapshot()))
        elif not gn <= tol.eps:
            x = x - g / smooth.L
            trace.append(TraceRecord(k, LARGE, gn, fx, False, oracle.counters.snapshot()))
        else:
            trace.append(TraceRecord(k, SMALL, gn, fx, False, oracle.counters.snapshot()))
            return _finish(oracle, x, gn, res.nc.lambda_hat, STATUS_SECOND_ORDER,
                           trace, {}, tol.seed)
    gn = float(np.linalg.norm(oracle.gradient(x)))
    return _finish(oracle, x, gn, float("nan"), STATUS_BUDGET, trace, {}, tol.seed)
