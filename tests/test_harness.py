import json
import os

import numpy as np
import pytest

from gose.cli import main
from gose.core import ConfigError
from gose.harness import (ExperimentConfig, OUT_ENV_VAR, always_probe_baseline,
                          resolve_out_dir, run_experiment, run_one, run_sweep,
                          summary_line, trace_table, verify_nc_suite)
from gose import (EscapeConfig, SmoothnessSpec, ToleranceConfig, get_problem,
                  gose_deterministic)


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
    assert "tolerance" in row["config"] and "escape" in row["config"]


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
    cfg = ExperimentConfig.from_dict({**CONVEX_CFG, "seeds": [0, 1],
                                      "write_trace": True})
    rows = run_experiment(cfg, out_dir=str(tmp_path))
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
    smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
    report = gose_deterministic(spec.oracle, spec.x0, tol, smooth,
                                rng=np.random.default_rng(0))
    table = trace_table(report).splitlines()
    assert len(table) == len(report.trace) + 1


def test_resolve_out_dir_env(monkeypatch):
    monkeypatch.delenv(OUT_ENV_VAR, raising=False)
    assert resolve_out_dir(None) == "gose_out"
    monkeypatch.setenv(OUT_ENV_VAR, "/tmp/custom_out")
    assert resolve_out_dir(None) == "/tmp/custom_out"
    assert resolve_out_dir("explicit") == "explicit"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_gd_vs_agd_counter_comparison(tmp_path):
    sweep = {
        "base": {**CONVEX_CFG,
                 "problem_params": {"d": 6,
                                    "spectrum": [0.02, 0.1, 0.3, 0.5, 0.8, 1.0],
                                    "seed": 1},
                 "L": 1.0, "eps": 0.001},
        "grid": {"solver_choice": ["agd", "gd"]},
    }
    rows = run_sweep(sweep, out_dir=str(tmp_path))
    totals = {r["cell"]["solver_choice"]: r["totals"]
              for r in rows if r.get("aggregate")}
    assert totals["agd"]["grad_evals"] <= totals["gd"]["grad_evals"]


def test_sweep_empty_axis_rejected(tmp_path):
    with pytest.raises(ConfigError):
        run_sweep({"base": CONVEX_CFG, "grid": {"eps": []}}, out_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_sweep({"base": CONVEX_CFG, "grid": {}}, out_dir=str(tmp_path))


def test_sweep_invalid_cell_reported_others_run(tmp_path):
    sweep = {
        "base": CONVEX_CFG,
        # eps = 0.02 violates eps < eps_h**2/(16 c1 rho) = 0.015625
        "grid": {"eps": [0.01, 0.02]},
    }
    rows = run_sweep(sweep, out_dir=str(tmp_path))
    errors = [r for r in rows if "error" in r]
    ok = [r for r in rows if r.get("aggregate")]
    assert len(errors) == 1 and "16" in errors[0]["error"]
    assert len(ok) == 1


# ---------------------------------------------------------------------------
# verify-nc suite


def test_verify_nc_deterministic_small():
    res = verify_nc_suite(d=20, trials=40, engine="deterministic", seed=0)
    assert res["passed"]
    assert res["bottom_rate_psd"] == 1.0


def test_verify_nc_unknown_engine():
    with pytest.raises(ConfigError):
        verify_nc_suite(engine="power_iteration")


# ---------------------------------------------------------------------------
# always-probe baseline


def test_baseline_probes_every_iteration():
    spec = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
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


def test_cli_run_validation_error_names_inequality(tmp_path, capsys):
    bad = dict(CONVEX_CFG)
    bad["eps"] = 0.5 ** 2 / (8 * 1.0)  # eps_h**2/(8 rho) >= the 1/16 bound
    path = write_cfg(tmp_path, bad)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "eps_h**2/(16*c1*rho_eff)" in err


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
    (CONVEX_CFG, ["--engine", "bogus"]),
    ({**CONVEX_CFG, "mode": "stochastic", "noise_sigma": 0.05}, ["--engine", "bogus"]),
], ids=["nc_restarts_zero", "engine_deterministic", "engine_stochastic"])
def test_cli_run_rejects_bad_finder_setting(tmp_path, capsys, cfg, extra):
    # a finder that may draw no candidate would certify a saddle unseen
    path = write_cfg(tmp_path, cfg)
    code = main(["run", "--config", path, "--out", str(tmp_path / "out"), *extra])
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_cli_run_missing_config():
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2


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


def test_cli_verify_nc(capsys):
    code = main(["verify-nc", "--d", "20", "--trials", "30",
                 "--engine", "deterministic"])
    assert code == 0
    assert "direction_rate" in capsys.readouterr().out


def test_cli_verify_nc_asymmetric_injection(capsys):
    code = main(["verify-nc", "--inject-asymmetric"])
    assert code == 3
    assert "AsymmetricOperator" in capsys.readouterr().err


def test_cli_sweep(tmp_path, capsys):
    sweep_path = write_cfg(tmp_path, {
        "base": CONVEX_CFG,
        "grid": {"solver_choice": ["gd", "agd"]},
    }, name="sweep.json")
    code = main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "work_units" in capsys.readouterr().out
    assert (tmp_path / "out" / "sweep_summary.jsonl").exists()


def test_cli_sweep_empty_axis(tmp_path, capsys):
    sweep_path = write_cfg(tmp_path, {"base": CONVEX_CFG, "grid": {"eps": []}},
                           name="sweep.json")
    assert main(["sweep", "--config", sweep_path, "--out", str(tmp_path / "o")]) == 2
