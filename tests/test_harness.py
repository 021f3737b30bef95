import inspect
import json
import math
import re

import numpy as np
import pytest

import gose
import gose.harness
from gose.cli import main
from gose.core import ConfigError, EvalCounters, NonPositiveConstant
from gose.drivers import always_probe_baseline
from gose.harness import (ExperimentConfig, OUT_ENV_VAR, build_configs, build_problem,
                          resolve_out_dir, run_experiment, run_one, run_sweep,
                          summary_line, trace_table)
from gose import (SmoothnessSpec, ToleranceConfig, as_counting,
                  derive_scsg_params, get_problem, gose_deterministic,
                  gose_finite_sum, gose_stochastic)


CONVEX_CFG = {
    "problem": "quadratic_saddle",
    "problem_params": {"d": 3, "spectrum": [0.5, 1.0, 2.0], "seed": 1},
    "mode": "deterministic",
    "eps": 0.01,
    "eps_h": 0.5,
    "rho": 1.0,
    "L": 2.0,
    "seeds": [0],
    "max_outer": 20,
}


# ---------------------------------------------------------------------------
# config round-trip


def test_config_round_trip_is_identity():
    cfg = ExperimentConfig.from_dict(CONVEX_CFG)
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert cfg == again
    assert ExperimentConfig.from_dict(again.to_dict()) == again


def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"problem": "sphere", "banana": 1})


@pytest.mark.parametrize("name, value", [
    ("eps", "0.01"), ("max_outer", "5"), ("eps", True), ("max_outer", 5.0),
    ("scsg_b", True), ("L", "7"), ("seeds", 0),
])
def test_config_rejects_wrong_json_type_naming_field(name, value):
    with pytest.raises(ConfigError, match=repr(name)):
        ExperimentConfig.from_dict({**CONVEX_CFG, name: value})


def test_config_accepts_int_for_float_and_null_for_optional():
    cfg = ExperimentConfig.from_dict({**CONVEX_CFG, "eps_h": 1, "L": None, "scsg_b": 4})
    assert (cfg.eps_h, cfg.L, cfg.scsg_b) == (1, None, 4)


# ---------------------------------------------------------------------------
# run_one / run_experiment


def test_run_one_minimal_smoke():
    cfg = ExperimentConfig.from_dict(CONVEX_CFG)
    report, row = run_one(cfg, seed=0)
    assert row["status"] == "second_order_stationary"
    assert row["counters"]["nc_calls"] >= 1
    assert row["certified"] is True
    # full counter set and config echo present
    for key in ["grad_evals", "hvp_evals", "nc_calls", "escape_steps",
                "small_region_entries", "outer_iters", "epochs_run",
                "stoch_grad_evals", "component_grad_evals", "fn_evals"]:
        assert key in row["counters"]
    # the finder config is echoed only where the stochastic finder reads it
    assert "tolerance" in row["config"] and "nc" not in row["config"]


def test_config_echo_states_each_value_once():
    # the seed is the caller's generator, not a tolerance; the SCSG echo holds
    # the epoch's sizes and step, not the run's mode again
    rows = [run_one(ExperimentConfig.from_dict(PCA_CFG), seed)[1] for seed in (0, 7)]
    assert rows[0]["config"] == rows[1]["config"]
    assert rows[0]["config"]["mode"] == "finite_sum"
    assert "seed" not in rows[0]["config"]["tolerance"]
    assert set(rows[0]["config"]["scsg"]) == {"B", "b", "eta"}
    assert rows[0]["counters"] != rows[1]["counters"]


def test_summary_golden_fixed_seed():
    cfg = ExperimentConfig.from_dict(CONVEX_CFG)
    _, row1 = run_one(cfg, seed=0)
    _, row2 = run_one(cfg, seed=0)
    row1.pop("wall_time_s")
    row2.pop("wall_time_s")
    assert summary_line(row1) == summary_line(row2)


def test_trace_summary_counter_consistency():
    cfg = ExperimentConfig.from_dict(CONVEX_CFG)
    report, row = run_one(cfg, seed=0)
    last = report.trace[-1].counters.as_dict()
    assert last == row["counters"]


def test_run_experiment_writes_files(tmp_path):
    cfg = ExperimentConfig.from_dict({**CONVEX_CFG, "seeds": [0, 1]})
    rows = run_experiment(cfg, out_dir=str(tmp_path), trace=True)
    assert len(rows) == 2
    summary = (tmp_path / "summary.jsonl").read_text().strip().splitlines()
    assert len(summary) == 2
    assert all(json.loads(line)["status"] for line in summary)
    traces = list(tmp_path.glob("trace_*.csv"))
    assert len(traces) == 2
    header = traces[0].read_text().splitlines()[0]
    assert header.startswith("k,branch,grad_norm,f_value,escape_taken")


def test_trace_table_shape():
    spec = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
    report = gose_deterministic(spec.oracle, spec.x0, tol, smooth,
                                rng=np.random.default_rng(0))
    table = trace_table(report).splitlines()
    assert len(table) == len(report.trace) + 1


def test_stochastic_trace_leaves_f_value_empty():
    cfg = ExperimentConfig(problem="quadratic_saddle",
                           problem_params={"d": 3, "spectrum": [0.5, 1.0, 2.0]},
                           mode="stochastic", eps=0.01, eps_h=0.5, delta=0.1,
                           rho=1.0, noise_sigma=0.05, max_outer=3)
    report, row = run_one(cfg, 0)
    table = [line.split(",") for line in trace_table(report).splitlines()]
    column = table[0].index("f_value")
    assert len(table) > 1
    assert all(line[column] == "" for line in table[1:])
    assert row["counters"]["fn_evals"] == 0


def test_resolve_out_dir_env(monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)
    assert resolve_out_dir(None) == "gose_out"
    monkeypatch.setenv(OUT_ENV_VAR, "/tmp/custom_out")
    assert resolve_out_dir(None) == "/tmp/custom_out"
    assert resolve_out_dir("explicit") == "explicit"


def test_build_problem_rejects_mode_the_problem_cannot_serve():
    with pytest.raises(ConfigError, match="needs noise_sigma"):
        build_problem(ExperimentConfig.from_dict({**CONVEX_CFG, "mode": "stochastic"}))
    with pytest.raises(ConfigError, match="has no components"):
        build_problem(ExperimentConfig.from_dict({**CONVEX_CFG, "mode": "finite_sum"}))


# ---------------------------------------------------------------------------
# sweep


# (sweep, seed rows): agd against gd on a convex quadratic with a spread
# spectrum, and on chained saddles d=10 at two tolerances
SOLVER_SWEEPS = [
    ({"base": {**CONVEX_CFG,
               "problem_params": {"d": 6, "spectrum": [0.02, 0.1, 0.3, 0.5, 0.8, 1.0],
                                  "seed": 1},
               "L": 1.0, "eps": 0.001},
      "grid": {"solver_choice": ["agd", "gd"]}}, 2),
    ({"base": {"problem": "chained_saddles", "problem_params": {"d": 10},
               "mode": "deterministic", "eps_h": 0.5, "rho": 1.0, "seeds": [0, 1, 2]},
      "grid": {"solver_choice": ["gd", "agd"], "eps": [0.01, 0.001]}}, 12),
]


def test_sweep_gd_vs_agd_counter_comparison(tmp_path):
    # every seed certifies, and in every cell the default agd large step
    # spends fewer work units, and no more gradients, than gd
    for sweep, seed_rows in SOLVER_SWEEPS:
        rows = run_sweep(sweep, out_dir=str(tmp_path))
        seeds = [r for r in rows if not r.get("aggregate")]
        assert len(seeds) == seed_rows
        assert all(r.get("certified") is True for r in seeds), seeds
        totals = {tuple(sorted(r["cell"].items())): EvalCounters(**r["totals"])
                  for r in rows if r.get("aggregate")}
        for cell, agd in totals.items():
            if ("solver_choice", "agd") not in cell:
                continue
            gd = totals[tuple(sorted({**dict(cell), "solver_choice": "gd"}.items()))]
            assert agd.work_units() < gd.work_units(), (cell, agd, gd)
            assert agd.grad_evals <= gd.grad_evals, (cell, agd, gd)


def test_sweep_empty_axis_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep({"base": CONVEX_CFG, "grid": {"eps": []}}, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_sweep({"base": CONVEX_CFG, "grid": {}}, out_dir=str(tmp_path))


def test_sweep_invalid_cell_reported_others_run(tmp_path):
    sweep = {
        "base": CONVEX_CFG,
        # eps = 0.02 violates eps < eps_h**2/(16 rho) = 0.015625
        "grid": {"eps": [0.01, 0.02]},
    }
    rows = run_sweep(sweep, out_dir=str(tmp_path))
    errors = [r for r in rows if "error" in r]
    ok = [r for r in rows if r.get("aggregate")]
    assert len(errors) == 1 and "16" in errors[0]["error"]
    assert len(ok) == 1


# ---------------------------------------------------------------------------
# always-probe baseline


def test_baseline_probes_every_iteration():
    spec = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
    report = always_probe_baseline(spec.oracle, spec.x0, tol, smooth,
                                   rng=np.random.default_rng(0))
    c = report.certificate.counters
    assert c.nc_calls == c.outer_iters
    assert c.nc_calls >= 10


# ---------------------------------------------------------------------------
# CLI


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_run_ok(tmp_path, capsys):
    path = write_cfg(tmp_path, CONVEX_CFG)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["status"] == "second_order_stationary"
    assert (tmp_path / "out" / "summary.jsonl").exists()


def test_cli_run_seed_override(tmp_path):
    path = write_cfg(tmp_path, {**CONVEX_CFG, "seeds": [0, 1, 2]})
    code = main(["run", "--config", path, "--seed", "5",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "summary.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["seed"] == 5


def test_cli_run_seed_override_checked_like_file_value(tmp_path, capsys):
    path = write_cfg(tmp_path, CONVEX_CFG)
    code = main(["run", "--config", path, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'seeds'" in err


def test_cli_run_validation_error_names_inequality(tmp_path, capsys):
    bad = dict(CONVEX_CFG)
    bad["eps"] = 0.5 ** 2 / (8 * 1.0)  # eps_h**2/(8 rho) >= the 1/16 bound
    path = write_cfg(tmp_path, bad)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "eps_h**2/(16*rho_eff)" in err


CHAINED_ORIGIN_CFG = {
    "problem": "chained_saddles",
    "problem_params": {"d": 2},
    "mode": "deterministic",
    "eps": 0.01,
    "eps_h": 0.5,
    "rho": 1.0,
}


@pytest.mark.parametrize("cfg, extra", [
    ({**CHAINED_ORIGIN_CFG, "nc_restarts": 0}, []),
    ({**CONVEX_CFG, "nc_engine": "bogus"}, []),
    ({**CONVEX_CFG, "mode": "stochastic", "noise_sigma": 0.05, "nc_engine": "bogus"}, []),
], ids=["nc_restarts_unknown", "engine_deterministic", "engine_stochastic"])
def test_cli_run_rejects_bad_finder_setting(tmp_path, capsys, cfg, extra):
    # every finder call runs one candidate and the stochastic finder has one
    # engine, so the removed nc_restarts and nc_engine keys are unknown fields
    # in every mode
    path = write_cfg(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_unknown_solver(tmp_path, capsys):
    # the bowl starts at a stationary convex point and certifies with no
    # solver call, so only an entry check can catch the name
    path = write_cfg(tmp_path, {**CONVEX_CFG, "problem": "bowl_saddle",
                                "solver_choice": "bogus"})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown solver 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


NOISY_BOWL_CFG = {
    "problem": "bowl_saddle",
    "problem_params": {"d": 10, "spectrum": [-1.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.0],
                       "q": 0.5, "seed": 3},
    "mode": "stochastic", "eps": 0.01, "eps_h": 0.5, "delta": 0.1, "L": 7.0, "rho": 1.0,
    "noise_sigma": 0.05, "sigma": 0.05, "scsg_b": 32, "max_outer": 3,
}

PCA_CFG = {
    "problem": "nonconvex_pca", "problem_params": {"n": 50, "d": 8, "seed": 13},
    "mode": "finite_sum", "eps": 0.01, "eps_h": 0.5, "delta": 0.1, "L": 8.0, "rho": 1.0,
}

# settings outside their config's range: a config error before any oracle work
OUT_OF_RANGE_CASES = [
    pytest.param({**NOISY_BOWL_CFG, "scsg_b": 0}, "scsg_b", id="scsg_b_zero"),
    # only the sampling drivers read scsg_b, and every mode checks it
    pytest.param({**CHAINED_ORIGIN_CFG, "scsg_b": 0}, "scsg_b", id="scsg_b_zero_deterministic"),
    # the sampling modes run no solver, and still check its name
    pytest.param({**PCA_CFG, "solver_choice": "bogus"}, "unknown solver 'bogus'",
                 id="solver_choice_finite_sum"),
    # NaN and inf, which JSON configs can carry, are out of every range
    pytest.param({**CHAINED_ORIGIN_CFG, "rho": math.nan},
                 "rho must be nonnegative and finite, got nan", id="rho_nan"),
    pytest.param({**NOISY_BOWL_CFG, "delta": math.nan}, "delta must", id="delta_nan"),
    pytest.param({**PCA_CFG, "L": math.inf}, "L must", id="L_inf"),
    pytest.param({**NOISY_BOWL_CFG, "h_star": 0.005, "sigma": math.inf}, "sigma must",
                 id="sigma_inf"),
]

BOWL_PARAMS = NOISY_BOWL_CFG["problem_params"]

# problem inputs out of range: a config error naming the field the user set,
# raised while the problem is built (noise_sigma, q, seed) or before h_star is
# derived from sigma
PROBLEM_INPUT_CASES = [
    pytest.param({**NOISY_BOWL_CFG, "sigma": math.inf}, "sigma must", id="sigma_inf_no_h_star"),
    pytest.param({**NOISY_BOWL_CFG, "noise_sigma": math.nan}, "noise_sigma must",
                 id="noise_sigma_nan"),
    pytest.param({**NOISY_BOWL_CFG, "noise_sigma": -0.05}, "noise_sigma must",
                 id="noise_sigma_negative"),
    pytest.param({**NOISY_BOWL_CFG, "noise_sigma": None, "sigma": -0.05}, "sigma must",
                 id="sigma_as_noise_negative"),
    pytest.param({**NOISY_BOWL_CFG, "sigma": 1e200}, "sigma=1e+200", id="sigma_h_star_overflow"),
    pytest.param({**NOISY_BOWL_CFG, "problem_params": {**BOWL_PARAMS, "q": 0}}, "q must",
                 id="q_zero"),
    pytest.param({**NOISY_BOWL_CFG, "problem_params": {**BOWL_PARAMS, "q": -1}}, "q must",
                 id="q_negative"),
    pytest.param({**CHAINED_ORIGIN_CFG, "problem_params": {"d": 2, "seed": 1}}, "'seed'",
                 id="chained_seed"),
]

# settings inside their ranges whose sizes divide by zero, overflow or pass
# MAX_DRAWS on the noisy bowl: a config error naming the setting and its value
SIZE_OUT_OF_RANGE_CASES = [
    # the escape's concentration size, not finite and past MAX_DRAWS: sigma
    # reaches it, with h_star set so that SCSG's B stays finite
    pytest.param({**NOISY_BOWL_CFG, "h_star": 0.005, "sigma": 1e200}, "sigma=1e+200",
                 id="c_conc_tiny"),
    pytest.param({**NOISY_BOWL_CFG, "h_star": 0.005, "sigma": 100.0}, "sigma=100.0",
                 id="s_mult_huge"),
    # the finder's minibatch, 4*L**2/eps_h**2/sqrt(d), overflows: L reaches it
    pytest.param({**NOISY_BOWL_CFG, "L": 1e200}, "L=1e+200", id="L_huge"),
    pytest.param({**NOISY_BOWL_CFG, "eps": 1e-200}, "eps=1e-200", id="eps_tiny"),
    pytest.param({**NOISY_BOWL_CFG, "h_star": 1e300}, "h_star=1e+300", id="h_star_huge"),
]


@pytest.mark.parametrize("cfg, named", OUT_OF_RANGE_CASES + PROBLEM_INPUT_CASES)
def test_cli_run_rejects_out_of_range_setting(tmp_path, capsys, cfg, named):
    path = write_cfg(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    if re.match(r"\w+ must", named):
        # a message about one field opens with that field
        assert err.startswith(f"config error: {named}")
    assert not (tmp_path / "out").exists()


# settings in range whose tolerances break eps < eps_h**2/(16*rho_eff): only the
# driver's entry check (check_run) can catch them
DRIVER_ENTRY_CASES = [
    pytest.param({**CHAINED_ORIGIN_CFG, "problem_params": {"d": 3}, "eps": 0.1},
                 "eps=0.1 must satisfy eps < eps_h**2/(16*rho_eff)",
                 id="eps_too_large_deterministic"),
    pytest.param({**PCA_CFG, "problem_params": {"n": 20, "d": 4}, "eps": 0.1},
                 "eps=0.1 must satisfy eps < eps_h**2/(16*rho_eff)",
                 id="eps_too_large_finite_sum"),
]


@pytest.mark.parametrize("cfg, named",
                         OUT_OF_RANGE_CASES + SIZE_OUT_OF_RANGE_CASES + DRIVER_ENTRY_CASES)
def test_out_of_range_setting_raises_before_any_oracle_work(request, cfg, named):
    # the drivers compute every size the run draws at entry, so a size out of
    # range fails as early as a setting out of range; the solver settings fail
    # earlier still, when the config is made, before any problem is built
    oracle = driver = None
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError, match=re.escape(named)):
        cfg = ExperimentConfig.from_dict(cfg)
        spec = build_problem(cfg)
        oracle = as_counting(spec.oracle)
        tol, smooth = build_configs(cfg, spec)
        if cfg.mode == "deterministic":
            driver = gose_deterministic
            gose_deterministic(oracle, spec.x0, tol, smooth, rng=rng)
        else:
            scsg = derive_scsg_params(tol, smooth, cfg.mode, n=oracle.n_components,
                                      b_override=cfg.scsg_b)
            if cfg.mode == "stochastic":
                driver = gose_stochastic
                gose_stochastic(oracle, spec.x0, tol, smooth, scsg_cfg=scsg, rng=rng)
            else:
                driver = gose_finite_sum
                gose_finite_sum(oracle, spec.x0, tol, smooth, scsg_cfg=scsg, rng=rng)
    assert oracle is None or oracle.counters == EvalCounters()
    if request.node.callspec.id in {case.id for case in DRIVER_ENTRY_CASES}:
        assert driver is {"deterministic": gose_deterministic,
                          "finite_sum": gose_finite_sum}[cfg.mode]


@pytest.mark.parametrize("cfg", [
    {**NOISY_BOWL_CFG, "solver_choice": "bogus"},
    {**PCA_CFG, "solver_choice": "bogus"},
], ids=["stochastic", "finite_sum"])
def test_cli_run_rejects_unknown_solver_in_sampling_modes(tmp_path, capsys, cfg):
    # the sampling drivers run no solver, so the config itself checks the name
    path = write_cfg(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "unknown solver 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, named", SIZE_OUT_OF_RANGE_CASES)
def test_cli_run_rejects_size_out_of_range(tmp_path, capsys, cfg, named):
    path = write_cfg(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err
    assert not (tmp_path / "out").exists()


# one config per mode over seeds [0, 1], each with what every summary row shows
CLI_RUN_CASES = [
    # the minimal config of the README: a convex quadratic, where one NC call
    # settles bottom and ground truth certifies it
    pytest.param({key: value for key, value in CONVEX_CFG.items() if key != "max_outer"},
                 lambda row: (row["certified"] is True and row["counters"]["nc_calls"] == 1
                              and row["config"]["mode"] == "deterministic"),
                 id="minimal"),
    # each full gradient is one anchor table of n component gradients, which
    # the epoch reuses: the oracle's own gradient is never called
    pytest.param({**PCA_CFG, "problem_params": {"n": 50, "d": 5, "seed": 13},
                  "max_outer": 1500},
                 lambda row: (row["certified"] is True and row["counters"]["grad_evals"] == 0
                              and row["counters"]["epochs_run"] >= 1),
                 id="finite_sum_pca"),
    # SCSG epochs on the noisy bowl, every seed certified
    pytest.param({**NOISY_BOWL_CFG, "max_outer": 80}, lambda row: row["certified"] is True,
                 id="stochastic_bowl"),
]


@pytest.mark.parametrize("cfg, shows", CLI_RUN_CASES)
def test_cli_run_reaches_second_order_stationarity_on_every_seed(tmp_path, cfg, shows):
    path = write_cfg(tmp_path, {**cfg, "seeds": [0, 1]})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "summary.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    assert len(rows) == 2
    for row in rows:
        assert row["status"] == "second_order_stationary", row
        assert shows(row), row


def test_run_defaults_are_the_library_defaults():
    # gose run builds the configs a library caller gets by default
    cfg = ExperimentConfig()
    tol, smooth = build_configs(cfg, build_problem(cfg))
    # delta and max_outer are read from ToleranceConfig
    assert tol == ToleranceConfig(eps=cfg.eps, eps_h=cfg.eps_h)
    solver = inspect.signature(gose_deterministic).parameters
    assert cfg.solver_choice == solver["solver_choice"].default


@pytest.mark.parametrize("cfg, sections", [
    (CONVEX_CFG, {"mode", "tolerance", "smoothness", "solver_choice"}),
    ({**CONVEX_CFG, "mode": "stochastic", "noise_sigma": 0.05, "scsg_b": 32, "max_outer": 1},
     {"mode", "tolerance", "smoothness", "scsg"}),
    (PCA_CFG, {"mode", "tolerance", "smoothness", "scsg"}),
], ids=["deterministic", "stochastic", "finite_sum"])
def test_config_echo_carries_scsg_in_sampling_runs_only(cfg, sections):
    # the finders have no setting, so no run echoes one
    _, row = run_one(ExperimentConfig.from_dict(cfg), 0)
    assert set(row["config"]) == sections


@pytest.mark.parametrize("name, value", [("s_rule", "auto"), ("c1", 1.0), ("rho_min", 1e-3),
                                         ("s_mult", 4.0), ("c_conc", 0.25), ("c_h", 0.5),
                                         ("nc_budget_mult", 4.0), ("scsg_B", 400),
                                         ("out_dir", "elsewhere"), ("write_trace", True),
                                         ("nc_engine", "oja"),
                                         ("solver_max_iters", 200_000)])
def test_cli_run_rejects_removed_field(tmp_path, capsys, name, value):
    # the escape subsample has one rule and fixed constants, as do the escape
    # step and the finder budgets; c1 and rho_min only rescaled rho; B is
    # derived (a library caller fixes it with its own ScsgConfig); --out,
    # GOSE_OUT and --trace say where files go and whether traces are written;
    # minibatch Lanczos is the one stochastic finder engine; the solvers'
    # iteration cap is the constant gose.solvers.MAX_ITERS
    path = write_cfg(tmp_path, {**CONVEX_CFG, name: value})
    assert main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert f"unknown config fields: ['{name}']" in capsys.readouterr().err
    # a sweep whose every cell carries the key has no cell that passes validation
    sweep_path = write_cfg(tmp_path, {"base": {**CONVEX_CFG, name: value},
                                      "grid": {"eps": [0.01, 0.005]}}, name="sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().out.count(f"unknown config fields: ['{name}']") == 2


@pytest.mark.parametrize("option", [["--mode", "stochastic"], ["--engine", "oja"]],
                         ids=["mode", "engine"])
def test_cli_run_rejects_removed_override(tmp_path, capsys, option):
    # mode is a config key, with one setter; the stochastic finder has one engine
    path = write_cfg(tmp_path, CONVEX_CFG)
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--config", path, "--out", str(tmp_path / "out"), *option])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("trace", [False, True])
def test_cli_run_trace_flag_alone_writes_traces(tmp_path, trace):
    path = write_cfg(tmp_path, {**CONVEX_CFG, "seeds": [0, 1]})
    out = tmp_path / "out"
    assert main(["run", "--config", path, "--out", str(out), *(["--trace"] * trace)]) == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == (["trace_quadratic_saddle_deterministic_seed0.csv",
                       "trace_quadratic_saddle_deterministic_seed1.csv"] if trace else [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_summary_line_is_strict_json_for_diverging_run():
    cfg = ExperimentConfig(problem="quadratic_saddle", problem_params={"d": 3},
                           eps=0.01, eps_h=0.5, rho=1.0)
    _, row = run_one(cfg, 0)

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    parsed = json.loads(summary_line(row), parse_constant=reject)
    assert parsed["status"] == "budget_exhausted"
    assert parsed["grad_norm"] is None and parsed["final_f"] is None


@pytest.mark.parametrize("seeds", [[1.5], [0, 2.0], [math.nan], [True]])
def test_experiment_seeds_must_be_integers(seeds):
    with pytest.raises(ConfigError, match="config field 'seeds' must be an integer >= 0"):
        ExperimentConfig(seeds=seeds)
    assert ExperimentConfig(seeds=[np.int64(3)]).seeds == [3]


@pytest.mark.parametrize("name, value", [("eps", "0.01"), ("max_outer", "5"),
                                         ("seeds", ["x"]), ("seeds", [-1]),
                                         ("seeds", [0, 3, -2]), ("seeds", [])])
def test_cli_run_rejects_wrong_json_type(tmp_path, capsys, name, value):
    path = write_cfg(tmp_path, {**CONVEX_CFG, name: value})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(name) in err


@pytest.mark.parametrize("params, named", [
    ({"d": "3", "spectrum": [0.5, 1.0, 2.0]}, "parameter 'd' must be int"),
    ({"dd": 3}, "'dd'"),
])
def test_cli_run_rejects_problem_parameter_it_cannot_take(tmp_path, capsys, params, named):
    path = write_cfg(tmp_path, {**CONVEX_CFG, "problem_params": params})
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'quadratic_saddle'" in err and named in err


def test_cli_run_missing_config():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2


# a config file gose cannot read as its config: the message names the file
# (path stands for it) or the sweep key at fault
MALFORMED_CONFIG_FILES = [
    pytest.param("run", '{"eps": 0.01', "config file {path} is not valid JSON", id="run-not_json"),
    pytest.param("run", "[]", "config file {path} holds a list, not a JSON object",
                 id="run-list"),
    pytest.param("run", '"cfg"', "config file {path} holds a str, not a JSON object",
                 id="run-string"),
    pytest.param("sweep", '{"grid": ', "config file {path} is not valid JSON",
                 id="sweep-not_json"),
    pytest.param("sweep", "[]", "config file {path} holds a list, not a JSON object",
                 id="sweep-list"),
    pytest.param("sweep", "[1]", "config file {path} holds a list, not a JSON object",
                 id="sweep-list_of_one"),
    pytest.param("sweep", json.dumps({"base": CONVEX_CFG, "grid": [1]}),
                 "sweep 'grid' must be a JSON object, got list", id="sweep-grid_list"),
    pytest.param("sweep", json.dumps({"base": [], "grid": {"eps": [0.01]}}),
                 "sweep 'base' must be a JSON object, got list", id="sweep-base_list"),
]


@pytest.mark.parametrize("command, text, named", MALFORMED_CONFIG_FILES)
def test_cli_rejects_malformed_config_file(tmp_path, capsys, command, text, named):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: " + named.format(path=repr(str(path))))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("call, named", [
    (lambda: ExperimentConfig.from_dict([]), "config must be a JSON object, got list"),
    (lambda: ExperimentConfig.from_dict(None), "config must be a JSON object, got NoneType"),
    (lambda: run_sweep([1]), "sweep must be a JSON object, got list"),
], ids=["from_dict_list", "from_dict_none", "run_sweep_list"])
def test_library_rejects_a_config_that_is_not_an_object(call, named):
    # an AttributeError or a TypeError before; a file gose reads is checked earlier
    with pytest.raises(ConfigError, match=re.escape(named)):
        call()


def test_cli_run_byte_identical_given_seed(tmp_path):
    path = write_cfg(tmp_path, CONVEX_CFG)
    main(["run", "--config", path, "--out", str(tmp_path / "a")])
    main(["run", "--config", path, "--out", str(tmp_path / "b")])
    rows_a = [json.loads(l) for l in (tmp_path / "a" / "summary.jsonl").read_text().splitlines()]
    rows_b = [json.loads(l) for l in (tmp_path / "b" / "summary.jsonl").read_text().splitlines()]
    for ra, rb in zip(rows_a, rows_b):
        ra.pop("wall_time_s")
        rb.pop("wall_time_s")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)


def test_cli_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    assert "nonconvex_pca" in out and "chained_saddles" in out


def test_cli_rejects_removed_verify_nc(capsys):
    # the finder contract suite is a test helper (tests/conftest.py), not a subcommand
    with pytest.raises(SystemExit) as exit_:
        main(["verify-nc"])
    assert exit_.value.code == 2
    assert "invalid choice: 'verify-nc'" in capsys.readouterr().err


GOSE_ERRORS = [obj for obj in vars(gose.core).values()
               if isinstance(obj, type) and issubclass(obj, gose.core.GoseError)]


@pytest.mark.parametrize("error", [*GOSE_ERRORS, RuntimeError], ids=lambda e: e.__name__)
def test_cli_exit_code_follows_the_error_class(monkeypatch, capsys, error):
    # a configuration error exits 2; any other error, the library's or not, 3,
    # naming its class
    def fail():
        raise error("planted")

    monkeypatch.setattr(gose.cli, "list_problems", fail)
    if issubclass(error, ConfigError):
        code, named = 2, "config error: planted"
    elif issubclass(error, gose.core.GoseError):
        code, named = 3, f"error: {error.__name__}: planted"
    else:
        code, named = 3, f"internal error: {error.__name__}: planted"
    assert main(["list-problems"]) == code
    assert named in capsys.readouterr().err


def _never(*args):
    raise AssertionError("called before the argument check")


@pytest.mark.parametrize("call, error, named", [
    (lambda: gose.amplify(_never, 2.5, _never), ConfigError,
     "reps must be an integer >= 1, got 2.5"),
    (lambda: gose.estimate_variance_bound(_never, np.zeros(2), np.random.default_rng(0),
                                          samples=2.5),
     ConfigError, "samples must be an integer >= 2"),
    (lambda: gose.lanczos_min_eig(_never, 2, 2.5, np.random.default_rng(0)),
     NonPositiveConstant, "max_matvecs must be an integer >= 1, got 2.5"),
], ids=["amplify", "estimate_variance_bound", "lanczos_min_eig"])
def test_integer_arguments_reject_a_fraction(call, error, named):
    # each was a bare TypeError from range() or numpy
    with pytest.raises(error, match=re.escape(named)):
        call()


def test_cli_sweep(tmp_path, capsys):
    sweep_path = write_cfg(tmp_path, {
        "base": CONVEX_CFG,
        "grid": {"solver_choice": ["gd", "agd"]},
    }, name="sweep.json")
    code = main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "work_units" in capsys.readouterr().out
    assert (tmp_path / "out" / "sweep_summary.jsonl").exists()


@pytest.mark.parametrize("eps, code, failed", [((0.02, 0.05), 2, 2), ((0.01, 0.02), 0, 1),
                                               ((0.005, 0.01), 0, 0)])
def test_cli_sweep_exits_2_only_when_no_cell_ran(tmp_path, capsys, eps, code, failed):
    # eps at or above eps_h**2/(16*rho_eff) = 0.015625 fails a cell
    sweep_path = write_cfg(tmp_path, {"base": {**CONVEX_CFG, "seeds": [0, 1]},
                                      "grid": {"eps": list(eps)}}, name="sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 2
    assert sum("VALIDATION-FAILED: eps=" in row for row in rows) == failed
    assert ("no sweep cell passed validation" in captured.err) == (code == 2)
    assert (tmp_path / "out" / "sweep_summary.jsonl").exists()


def test_cli_sweep_empty_axis(tmp_path, capsys):
    sweep_path = write_cfg(tmp_path, {"base": CONVEX_CFG, "grid": {"eps": []}},
                           name="sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "o")]) == 2


def test_run_one_above_the_certification_cap_writes_certified_none(tmp_path):
    # d > 500 is beyond dense certification: the row says so instead of guessing
    cfg = ExperimentConfig(problem="sphere", problem_params={"d": 501}, eps=0.01, eps_h=0.5,
                           rho=1.0, max_outer=10)
    report, row = run_one(cfg, 0)
    assert row["status"] == "second_order_stationary"
    assert (row["certified"], row["lambda_min"], row["true_grad_norm"]) == (None, None, None)
    path = gose.harness.write_summaries([row], str(tmp_path))
    with open(path) as fh:
        assert json.loads(fh.read())["certified"] is None
