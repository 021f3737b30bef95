"""Experiment harness: configs, runners, report files, sweeps.

Summaries are one JSON object per line (machine-parsable, diff-able); traces
are CSV tables with a header row.  Wall time is reported but never part of
any acceptance decision; oracle-call counters are the cost measure.
"""

from __future__ import annotations

import dataclasses
import inspect
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
                   GoseError, SmoothnessSpec, ToleranceConfig, check_number)
from .drivers import RunReport, gose_deterministic, gose_finite_sum, gose_stochastic
from .problems import (PROBLEM_FACTORIES, ProblemSpec, certify_second_order,
                       get_problem, with_gradient_noise)
from .solvers import DEFAULT_SOLVER, check_b_override, check_solver, derive_scsg_params

OUT_ENV_VAR = "GOSE_OUT"
DEFAULT_OUT = "gose_out"


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    """What one `run` invocation computes, JSON round-trip stable.

    Where files go and whether traces are written are run_experiment's arguments.
    """

    problem: str = "quadratic_saddle"
    problem_params: dict = field(default_factory=dict)
    mode: str = "deterministic"
    eps: float = 0.01
    eps_h: float = 0.5
    delta: float = ToleranceConfig.delta
    max_outer: int = ToleranceConfig.max_outer
    seeds: list[int] = field(default_factory=lambda: [0])
    # smoothness; None means take the problem's declared constant
    L: Optional[float] = None
    rho: Optional[float] = None
    h_star: Optional[float] = None
    sigma: Optional[float] = None
    noise_sigma: Optional[float] = None  # gradient noise added in stochastic mode
    # first-order machinery
    solver_choice: str = DEFAULT_SOLVER
    scsg_b: Optional[int] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not self.seeds:
            raise ConfigError("config field 'seeds' must hold one or more seeds")
        for seed in self.seeds:
            check_number("config field 'seeds'", seed, 0, integer=True)
        if self.noise_sigma is not None:
            check_number("noise_sigma", self.noise_sigma, closed=True)
        # checked in every mode, though only the deterministic driver runs a
        # solver and only the sampling drivers read scsg_b
        check_solver(self.solver_choice)
        check_b_override(self.scsg_b)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        _check_object("config", data)
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            if not _json_type_fits(value, types[name]):
                raise ConfigError(f"config field {name!r} must be {types[name]},"
                                  f" got {type(value).__name__} {value!r}")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        return cls.from_dict(load_json_object(path))

    def dump(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _check_object(what: str, data) -> None:
    """ConfigError naming the type unless data is a dict (a JSON object)."""
    if not isinstance(data, dict):
        raise ConfigError(f"{what} must be a JSON object, got {type(data).__name__}")


def load_json_object(path: str) -> dict:
    """The JSON object in the file at path; ConfigError naming the file otherwise."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r} holds a {type(data).__name__}, not a JSON object")
    return data


# the JSON values each ExperimentConfig annotation accepts; an int is a valid
# float, and bool (an int subclass) is accepted only by "bool"
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,),
               "bool": (bool,), "dict": (dict,), "list": (list,)}


def _json_type_fits(value, annotation: str) -> bool:
    if annotation.startswith("Optional["):
        if value is None:
            return True
        annotation = annotation[len("Optional["):-1]
    if annotation == "list[int]":
        return isinstance(value, list) and all(_json_type_fits(v, "int") for v in value)
    if isinstance(value, bool):
        return annotation == "bool"
    return isinstance(value, _JSON_TYPES[annotation])


def build_problem(cfg: ExperimentConfig) -> ProblemSpec:
    spec = _make_problem(cfg.problem, cfg.problem_params)
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


def _make_problem(name: str, params: dict) -> ProblemSpec:
    """get_problem, with a parameter its factory cannot take as a ConfigError.

    A JSON value that does not fit the factory's annotation is named up front;
    any other TypeError or ValueError the factory raises is reported with the
    problem and its parameters.
    """
    factory = PROBLEM_FACTORIES.get(name)
    if factory is not None:
        signature = inspect.signature(factory).parameters
        for key, value in params.items():
            annotation = signature[key].annotation if key in signature else None
            if annotation in _JSON_TYPES and not _json_type_fits(value, annotation):
                raise ConfigError(f"problem {name!r} parameter {key!r} must be {annotation},"
                                  f" got {type(value).__name__} {value!r}")
    try:
        return get_problem(name, **params)
    except GoseError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem {name!r} rejects problem_params {params!r}: {exc}") from exc


def build_configs(cfg: ExperimentConfig, spec: ProblemSpec):
    """The run's configs; h_star defaults to 2*sigma**2 once SmoothnessSpec has checked sigma."""
    tol = ToleranceConfig(eps=cfg.eps, eps_h=cfg.eps_h, delta=cfg.delta,
                          max_outer=cfg.max_outer)
    sigma = cfg.sigma if cfg.sigma is not None else cfg.noise_sigma
    smooth = SmoothnessSpec(
        L=cfg.L if cfg.L is not None else spec.known_L,
        rho=cfg.rho if cfg.rho is not None else spec.known_rho,
        h_star=cfg.h_star, sigma=sigma,
    )
    if smooth.h_star is None and sigma is not None:
        try:
            h_star = 2.0 * sigma ** 2
        except OverflowError:
            raise ConfigError(f"h_star = 2*sigma**2 overflows for sigma={sigma};"
                              " set h_star") from None
        smooth = dataclasses.replace(smooth, h_star=h_star)
    return tol, smooth


def run_one(cfg: ExperimentConfig, seed: int) -> tuple[RunReport, dict]:
    """Run one seed of the configured experiment; returns (report, summary row)."""
    spec = build_problem(cfg)
    tol, smooth = build_configs(cfg, spec)
    rng = np.random.default_rng(seed)
    x0 = spec.x0
    t0 = time.perf_counter()
    if cfg.mode == "deterministic":
        report = gose_deterministic(spec.oracle, x0, tol, smooth,
                                    solver_choice=cfg.solver_choice, rng=rng)
    else:
        scsg = derive_scsg_params(tol, smooth, cfg.mode, n=spec.oracle.n_components,
                                  b_override=cfg.scsg_b)
        if cfg.mode == "stochastic":
            report = gose_stochastic(spec.oracle, x0, tol, smooth, scsg_cfg=scsg, rng=rng)
        else:
            report = gose_finite_sum(spec.oracle, x0, tol, smooth, scsg_cfg=scsg, rng=rng)
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
            rec.k, rec.branch, repr(rec.grad_norm),
            "" if rec.f_value is None else repr(rec.f_value),
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


def run_experiment(cfg: ExperimentConfig, out_dir: Optional[str] = None,
                   trace: bool = False) -> list:
    """Run all configured seeds, write summary.jsonl (+ a trace CSV per seed if trace)."""
    out = resolve_out_dir(out_dir)
    rows = []
    for seed in cfg.seeds:
        report, row = run_one(cfg, seed)
        rows.append(row)
        if trace:
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
    _check_object("sweep", sweep)
    base, grid = sweep.get("base", {}), sweep.get("grid", {})
    for key, value in (("base", base), ("grid", grid)):
        _check_object(f"sweep {key!r}", value)
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
