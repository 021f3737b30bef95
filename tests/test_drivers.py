import dataclasses
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gose.drivers
import gose.harness
import gose.solvers
from gose import (ObjectiveOracle, SmoothnessSpec, ToleranceConfig, amplify,
                  approx_nc_deterministic, approx_nc_finite_sum, approx_nc_stochastic,
                  as_counting, certify_second_order,
                  derive_scsg_params, get_problem, gose_deterministic,
                  gose_finite_sum, gose_stochastic, one_step_deterministic,
                  one_step_finite_sum, one_step_stochastic, with_gradient_noise)
from gose.core import (STATUS_BUDGET, STATUS_FIRST_ORDER, STATUS_SECOND_ORDER,
                       ConfigError, EpsilonTooLarge, EvalCounters,
                       MalformedOracleOutput, NonFiniteMeasurement, NotFiniteSum,
                       NotStochastic)
from gose.drivers import LARGE, SMALL, always_probe_baseline
from gose.harness import ExperimentConfig, run_one
from gose.problems import as_finite_sum, make_nonconvex_pca


def run_det(problem, tol, smooth, seed=0, **kw):
    return gose_deterministic(problem.oracle, problem.x0, tol, smooth,
                              rng=np.random.default_rng(seed), **kw)


@pytest.mark.parametrize("runner", [gose_deterministic, gose_stochastic, gose_finite_sum,
                                    always_probe_baseline])
def test_runs_draw_only_from_the_callers_generator(runner):
    # rng is a required keyword: no run falls back to a generator of its own
    rng = inspect.signature(runner).parameters["rng"]
    assert (rng.kind, rng.default) == (inspect.Parameter.KEYWORD_ONLY, inspect.Parameter.empty)
    assert "seed" not in {f.name for f in dataclasses.fields(ToleranceConfig)}


# ---------------------------------------------------------------------------
# deterministic driver


def test_det_already_stationary_single_bottom_call():
    # the extreme case: a convex objective needs exactly one curvature probe
    prob = get_problem("quadratic_saddle", d=4, spectrum=[0.5, 1.0, 1.5, 2.0],
                       seed=1)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=20)
    smooth = SmoothnessSpec(L=2.0, rho=1.0)
    report = gose_deterministic(prob.oracle, np.zeros(4), tol, smooth,
                                rng=np.random.default_rng(0))
    c = report.certificate
    assert c.status == STATUS_SECOND_ORDER
    assert c.counters.nc_calls == 1
    assert c.counters.escape_steps == 0
    np.testing.assert_array_equal(c.point, np.zeros(4))


def test_det_chained_saddles_nc_call_bound():
    prob = get_problem("chained_saddles", d=10)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth, seed=3)
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert report.certificate.counters.nc_calls <= 11  # d + 1
    ok, _, _ = certify_second_order(prob.oracle, report.certificate.point, 0.01, 0.5)
    assert ok


def test_det_saddle_path_trace_shape():
    # exactly one escaping small-gradient entry, immediately followed by a
    # large-gradient record
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth)
    branches = [(r.branch, r.escape_taken) for r in report.trace]
    escapes = [i for i, (b, e) in enumerate(branches) if b == SMALL and e]
    assert len(escapes) == 1
    assert branches[escapes[0] + 1][0] == LARGE
    assert report.certificate.status == STATUS_SECOND_ORDER


def test_det_escape_never_followed_by_small_entry():
    # Branch alternation: after a successful escape the next record is always
    # large_gradient (the escape pushed the gradient above eps)
    for seed in range(5):
        prob = get_problem("chained_saddles", d=6)
        tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
        smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
        report = run_det(prob, tol, smooth, seed=seed)
        for a, b in zip(report.trace, report.trace[1:]):
            if a.branch == SMALL and a.escape_taken:
                assert b.branch == LARGE


def test_det_outer_f_values_nonincreasing():
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth, seed=1)
    fvals = [r.f_value for r in report.trace]
    assert all(b <= a + 1e-10 for a, b in zip(fvals, fvals[1:]))


def test_det_counter_identities():
    prob = get_problem("chained_saddles", d=4)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth)
    c = report.certificate.counters
    assert c.nc_calls == c.small_region_entries
    terminated_by_bottom = report.certificate.status == STATUS_SECOND_ORDER
    assert c.escape_steps == c.nc_calls - (1 if terminated_by_bottom else 0)
    assert len(report.trace) <= tol.max_outer


def test_det_same_seed_reports_identical():
    prob = get_problem("chained_saddles", d=4)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    r1 = run_det(prob, tol, smooth, seed=7)
    r2 = run_det(prob, tol, smooth, seed=7)
    np.testing.assert_array_equal(r1.certificate.point, r2.certificate.point)
    assert r1.certificate.counters == r2.certificate.counters
    assert [t.f_value for t in r1.trace] == [t.f_value for t in r2.trace]


def test_det_agd_solver_choice():
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth, solver_choice="agd")
    assert report.certificate.status == STATUS_SECOND_ORDER


# ---------------------------------------------------------------------------
# the default large step is guarded_agd, and gd stays the reference


@pytest.mark.parametrize("seed", range(5))
def test_default_solver_certifies_rosenbrock_where_gd_runs_out(seed):
    # at eps 2e-6 gd spends its 200,000 iterations in the curved valley and
    # ends budget_exhausted; the accelerated default certifies in ~900 units
    assert gose.solvers.MAX_ITERS == 200_000
    prob = get_problem("rosenbrock", d=2)
    tol = ToleranceConfig(eps=2e-6, eps_h=0.5)
    smooth = SmoothnessSpec(L=prob.known_L, rho=prob.known_rho)
    c = run_det(prob, tol, smooth, seed=seed).certificate
    assert c.status == STATUS_SECOND_ORDER
    assert certify_second_order(prob.oracle, c.point, tol.eps, tol.eps_h)[0]


DET_CHAINED_CFG = dict(problem="chained_saddles", problem_params={"d": 200},
                       mode="deterministic", eps=0.01, eps_h=0.5, delta=0.01,
                       rho=1.0, max_outer=200)
SADDLE_PATH_CFG = dict(problem="saddle_path", problem_params={"d": 2},
                       mode="deterministic", eps=0.01, eps_h=0.5, rho=1.0, max_outer=50)


@pytest.mark.parametrize("base", [pytest.param(DET_CHAINED_CFG, id="det_chained"),
                                  pytest.param(SADDLE_PATH_CFG, id="saddle_path")])
def test_default_solver_spends_less_than_gd_at_equal_nc_calls(base):
    assert gose.solvers.DEFAULT_SOLVER != "gd"
    cfgs = {solver: ExperimentConfig.from_dict({**base, "solver_choice": solver})
            for solver in (gose.solvers.DEFAULT_SOLVER, "gd")}
    for seed in range(20):
        rows = {solver: run_one(cfg, seed)[1] for solver, cfg in cfgs.items()}
        assert all(row["certified"] for row in rows.values()), seed
        default, gd = (EvalCounters(**rows[s]["counters"]) for s in cfgs)
        assert default.nc_calls == gd.nc_calls, seed
        assert default.work_units() < gd.work_units(), seed


# ---------------------------------------------------------------------------
# threshold fidelity (injected probe oracles)


def probe_oracle(norm):
    # constant-gradient objective: any point has ||grad f|| = norm exactly
    g = np.zeros(3)
    g[0] = norm
    return ObjectiveOracle(
        3, lambda x: float(g @ x), lambda x: g.copy(),
        hvp=lambda x, v: np.zeros(3),
        n_components=2,
        component_gradient=lambda i, x: g.copy(),
        component_hvp=lambda i, x, v: np.zeros(3),
        sample_gradient=lambda x, rng: g.copy(),
        sample_hvp=lambda x, v, rng: np.zeros(3),
    )


def test_threshold_deterministic_branches_at_eps(monkeypatch):
    eps = 0.01
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    # gradient norm between eps/2 and eps: deterministic takes the small branch
    oracle = probe_oracle(0.75 * eps)
    report = gose_deterministic(oracle, np.zeros(3), tol, smooth,
                                rng=np.random.default_rng(0))
    assert report.trace[0].branch == SMALL
    # just above eps: large branch, where the solver never converges
    monkeypatch.setattr(gose.solvers, "MAX_ITERS", 5)
    oracle = probe_oracle(1.5 * eps)
    report = gose_deterministic(oracle, np.zeros(3), tol, smooth,
                                rng=np.random.default_rng(0))
    assert report.trace[0].branch == LARGE


def test_threshold_stochastic_branches_at_half_eps():
    eps = 0.01
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=0.0, sigma=0.0)
    scsg = derive_scsg_params(tol, smooth, "stochastic")
    # the same norm that the deterministic driver treats as small is above
    # the stochastic driver's eps/2 threshold
    oracle = probe_oracle(0.75 * eps)
    report = gose_stochastic(oracle, np.zeros(3), tol, smooth, scsg_cfg=scsg,
                             rng=np.random.default_rng(0))
    assert report.trace[0].branch == LARGE
    oracle = probe_oracle(0.4 * eps)
    report = gose_stochastic(oracle, np.zeros(3), tol, smooth, scsg_cfg=scsg,
                             rng=np.random.default_rng(0))
    assert report.trace[0].branch == SMALL


def test_threshold_finite_sum_branches_at_eps():
    eps = 0.01
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    oracle = probe_oracle(0.75 * eps)
    report = gose_finite_sum(oracle, np.zeros(3), tol, smooth,
                             rng=np.random.default_rng(0))
    assert report.trace[0].branch == SMALL


# ---------------------------------------------------------------------------
# stochastic driver


def test_stoch_zero_variance_convex_immediate_bottom():
    prob = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], seed=2)
    noisy = with_gradient_noise(prob, sigma=0.0)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=10)
    smooth = SmoothnessSpec(L=2.0, rho=1.0, h_star=0.0, sigma=0.0)
    report = gose_stochastic(noisy.oracle, np.zeros(3), tol, smooth,
                             rng=np.random.default_rng(0))
    c = report.certificate
    assert c.status == STATUS_SECOND_ORDER
    assert report.trace[0].branch == SMALL
    np.testing.assert_array_equal(c.point, np.zeros(3))


def test_stoch_counter_identity():
    prob = get_problem("bowl_saddle", d=6,
                       spectrum=[-1.0, 0.3, 0.5, 0.6, 0.8, 1.0], q=0.5, seed=3)
    noisy = with_gradient_noise(prob, sigma=0.05)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=60)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    report = gose_stochastic(noisy.oracle, np.zeros(6), tol, smooth,
                             scsg_cfg=scsg, rng=np.random.default_rng(0))
    c = report.certificate.counters
    assert c.outer_iters == c.epochs_run + c.small_region_entries
    assert c.nc_calls == c.small_region_entries
    assert report.certificate.status == STATUS_SECOND_ORDER


def test_stoch_streaming_pca_counter_identity():
    from gose.problems import as_streaming
    from gose import estimate_variance_bound
    pca = get_problem("nonconvex_pca", n=30, d=6, seed=13)
    stream = as_streaming(pca)
    rng = np.random.default_rng(0)
    h_star = estimate_variance_bound(stream.oracle, pca.x0, rng, samples=128)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=40)
    smooth = SmoothnessSpec(L=8.0, rho=1.0, h_star=h_star)
    # B fixed by the caller: its own ScsgConfig, with derive_scsg_params' step rule
    scsg = gose.solvers.ScsgConfig(B=400, b=8,
                                   eta=8 ** (2.0 / 3.0) / (6.0 * smooth.L * 400 ** (2.0 / 3.0)))
    report = gose_stochastic(stream.oracle, pca.x0, tol, smooth, scsg_cfg=scsg,
                             rng=rng)
    c = report.certificate.counters
    assert c.outer_iters == c.epochs_run + c.small_region_entries
    assert c.nc_calls == c.small_region_entries


def test_stoch_escapes_noisy_saddle_and_certifies():
    successes = 0
    prob = get_problem("bowl_saddle", d=6,
                       spectrum=[-1.0, 0.3, 0.5, 0.6, 0.8, 1.0], q=0.5, seed=3)
    noisy = with_gradient_noise(prob, sigma=0.05)
    for seed in range(10):
        tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=60)
        smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
        scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
        report = gose_stochastic(noisy.oracle, np.zeros(6), tol, smooth,
                                 scsg_cfg=scsg, rng=np.random.default_rng(seed))
        ok, _, _ = certify_second_order(prob.oracle, report.certificate.point,
                                        0.01, 0.5)
        successes += ok
    assert successes >= 4  # well above the 1/3 guarantee


def test_stoch_same_seed_on_one_shared_oracle_reports_identical():
    # a run must report the same after another run on one shared noisy oracle
    prob = get_problem("bowl_saddle", d=6,
                       spectrum=[-1.0, 0.3, 0.5, 0.6, 0.8, 1.0], q=0.5, seed=3)
    noisy = with_gradient_noise(prob, sigma=0.05)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=60)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    r1, r2 = (gose_stochastic(noisy.oracle, np.zeros(6), tol, smooth, scsg_cfg=scsg,
                              rng=np.random.default_rng(4)) for _ in range(2))
    c1, c2 = r1.certificate, r2.certificate
    assert c1.point.tobytes() == c2.point.tobytes()
    assert (c1.status, c1.grad_norm, c1.min_eig_estimate, c1.counters) == \
        (c2.status, c2.grad_norm, c2.min_eig_estimate, c2.counters)
    assert c1.counters.epochs_run > 1
    assert repr(r1.trace) == repr(r2.trace)


# ---------------------------------------------------------------------------
# finite-sum driver


def test_fs_single_component_behaves_deterministically():
    conv = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], seed=2)
    fs = as_finite_sum(conv, 1)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=2000)
    smooth = SmoothnessSpec(L=2.0, rho=1.0)
    report = gose_finite_sum(fs.oracle, np.ones(3), tol, smooth,
                             rng=np.random.default_rng(0))
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert np.linalg.norm(report.certificate.point) <= 0.05


def test_fs_budget_exhaustion_flags_honestly():
    pca = get_problem("nonconvex_pca", n=50, d=10, seed=0)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=1)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    x0 = pca.planted_minimum * 0.25  # large-gradient start
    report = gose_finite_sum(pca.oracle, x0, tol, smooth,
                             rng=np.random.default_rng(0))
    assert report.certificate.status in (STATUS_BUDGET, STATUS_FIRST_ORDER)
    assert report.certificate.counters.nc_calls == 0
    assert report.certificate.status == STATUS_BUDGET  # one epoch cannot finish


def test_fs_counter_identity_and_certification():
    pca = get_problem("nonconvex_pca", n=60, d=8, seed=13)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=1500)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    report = gose_finite_sum(pca.oracle, pca.x0, tol, smooth,
                             rng=np.random.default_rng(0))
    c = report.certificate.counters
    assert c.outer_iters == c.epochs_run + c.small_region_entries
    assert c.nc_calls == c.small_region_entries
    assert report.certificate.status == STATUS_SECOND_ORDER
    ok, _, _ = certify_second_order(pca.oracle, report.certificate.point, 0.01, 0.5)
    assert ok


def _one_dimensional_batch_pca(shape):
    # a PCA oracle whose batch callable knows only 1-D indices: given (T, b)
    # rows it returns (d, b, b) (the transpose broadcasts) or one flat (d,) mean
    A = np.random.default_rng(5).standard_normal((60, 8))
    base = make_nonconvex_pca(60, 8, data=A).oracle

    def matrix(idx, x):
        Ai = A[idx]
        return -Ai.T @ (Ai @ x) / len(idx) + float(x @ x) * x

    def flat(idx, x):
        return np.mean([base.component_gradient(i, x) for i in np.ravel(idx)], axis=0)

    return ObjectiveOracle(8, base.value, base.gradient, hvp=base.hvp, n_components=60,
                           component_gradient=base.component_gradient,
                           component_gradient_batch={"matrix": matrix, "flat": flat}[shape])


@pytest.mark.parametrize("shape", ["matrix", "flat"])
def test_fs_batch_callable_of_wrong_shape_raises_typed_error(shape):
    oracle = _one_dimensional_batch_pca(shape)
    x = np.linspace(-1.0, 1.0, 8)
    assert oracle.component_gradient_batch(np.array([3, 7]), x).shape == (8,)
    with pytest.raises(MalformedOracleOutput, match="component_gradient_batch"):
        oracle.component_gradient_batch(np.array([[3], [7]]), x)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=50)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    with pytest.raises(MalformedOracleOutput, match="component_gradient_batch"):
        gose_finite_sum(oracle, x, tol, smooth, rng=np.random.default_rng(0))


# ---------------------------------------------------------------------------
# amplify


def fake_report(grad_norm, point):
    from gose.core import Certificate, EvalCounters
    from gose.drivers import RunReport
    cert = Certificate(point=np.asarray(point, float), grad_norm=grad_norm,
                       min_eig_estimate=0.0, status=STATUS_SECOND_ORDER,
                       counters=EvalCounters())
    return RunReport(certificate=cert)


def test_amplify_reps_one_is_identity():
    report = fake_report(0.5, [1.0])
    out = amplify(lambda seed: report, 1, lambda p: True)
    assert out is report
    assert not out.all_runs_failed


def test_amplify_rejects_no_repetition():
    with pytest.raises(ConfigError, match="reps must be an integer >= 1, got 0"):
        amplify(lambda seed: fake_report(0.5, [1.0]), 0, lambda p: True)


def test_amplify_returns_first_certified():
    calls = []

    def runner(seed):
        calls.append(seed)
        return fake_report(1.0 / (seed + 1), [float(seed)])

    out = amplify(runner, 10, lambda p: p[0] >= 2.0, base_seed=0)
    assert out.certificate.point[0] == 2.0
    assert calls == [0, 1, 2]  # stops at the first pass


def test_amplify_all_failed_returns_best_flagged():
    out = amplify(lambda seed: fake_report(1.0 + seed, [float(seed)]),
                  4, lambda p: False)
    assert out.all_runs_failed
    assert out.certificate.grad_norm == 1.0


def test_amplify_failure_probability_decay():
    # per-run success 1/3, reps = 12: failure chance (2/3)**12 ~ 0.0077,
    # so over 20 amplified runs at distinct base seeds all should succeed
    def runner(seed):
        ok = np.random.default_rng(seed).random() < 1.0 / 3.0
        return fake_report(0.5, [1.0 if ok else 0.0])

    assert (2.0 / 3.0) ** 12 == pytest.approx(0.0077, abs=5e-4)
    failures = 0
    for base in range(0, 400, 20):
        out = amplify(runner, 12, lambda p: p[0] > 0.5, base_seed=base)
        failures += out.all_runs_failed
    assert failures == 0


# ---------------------------------------------------------------------------
# non-finite measurements never certify


def nan_gradient_oracle():
    # every gradient surface returns NaN; curvature is a finite identity, so
    # a finder asked at any point declares bottom
    nan = np.full(3, np.nan)
    return ObjectiveOracle(
        3, lambda x: 0.0, lambda x: nan.copy(),
        hvp=lambda x, v: v.copy(),
        n_components=2,
        component_gradient=lambda i, x: nan.copy(),
        component_hvp=lambda i, x, v: v.copy(),
        sample_gradient=lambda x, rng: nan.copy(),
        sample_hvp=lambda x, v, rng: v.copy(),
    )


NAN_RUNNERS = {
    "deterministic": lambda o, tol, sm, rng: gose_deterministic(o, np.zeros(3), tol, sm, rng=rng),
    "stochastic": lambda o, tol, sm, rng: gose_stochastic(o, np.zeros(3), tol, sm, rng=rng),
    "finite_sum": lambda o, tol, sm, rng: gose_finite_sum(o, np.zeros(3), tol, sm, rng=rng),
    "baseline": lambda o, tol, sm, rng: always_probe_baseline(o, np.zeros(3), tol, sm, rng=rng),
}


@pytest.mark.parametrize("entry", list(NAN_RUNNERS))
def test_nan_gradient_never_certifies(entry):
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=0.0, sigma=0.0)
    report = NAN_RUNNERS[entry](nan_gradient_oracle(), tol, smooth,
                                np.random.default_rng(0))
    c = report.certificate
    assert c.status == STATUS_BUDGET
    assert np.isnan(c.grad_norm)
    assert all(r.branch == LARGE for r in report.trace)
    # the first non-finite measurement ends the run
    assert c.counters.outer_iters == 1
    assert c.counters.nc_calls == 0
    assert c.counters.epochs_run == 0


def nan_curvature_oracle():
    # a zero gradient sends every driver straight to the finder, and every
    # curvature surface returns NaN
    nan, zero = np.full(3, np.nan), np.zeros(3)
    return ObjectiveOracle(
        3, lambda x: 0.0, lambda x: zero.copy(),
        hvp=lambda x, v: nan.copy(),
        n_components=2,
        component_gradient=lambda i, x: zero.copy(),
        component_hvp=lambda i, x, v: nan.copy(),
        sample_gradient=lambda x, rng: zero.copy(),
        sample_hvp=lambda x, v, rng: nan.copy(),
    )


NAN_CURVATURE_RUNNERS = {
    "deterministic": NAN_RUNNERS["deterministic"],
    "baseline": NAN_RUNNERS["baseline"],
    "stochastic_lanczos": NAN_RUNNERS["stochastic"],
    "finite_sum": NAN_RUNNERS["finite_sum"],
}


@pytest.mark.parametrize("entry", list(NAN_CURVATURE_RUNNERS))
def test_nan_curvature_raises_typed_and_never_certifies(entry):
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=0.0, sigma=0.0)
    with pytest.raises(NonFiniteMeasurement):
        NAN_CURVATURE_RUNNERS[entry](nan_curvature_oracle(), tol, smooth,
                                     np.random.default_rng(0))


def test_escape_window_checked_before_any_oracle_work():
    # eps < eps_h**2/(16*rho_eff) = 0.015625 is the window in which one escape
    # step leaves the small-gradient region
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.02, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    for runner in (gose_deterministic, always_probe_baseline):
        oracle = as_counting(prob.oracle)
        with pytest.raises(EpsilonTooLarge, match=re.escape("eps < eps_h**2/(16*rho_eff)")):
            runner(oracle, prob.x0, tol, smooth, rng=np.random.default_rng(0))
        assert oracle.counters == EvalCounters()


def test_stochastic_driver_calls_only_sampling_oracles():
    # the exact surfaces of this noisy bowl raise; the sampling ones still
    # reach the exact f, gradient and HVP of the bowl underneath
    noisy = with_gradient_noise(
        get_problem("bowl_saddle", d=10, spectrum=BOWL_SPECTRUM, q=0.5, seed=3), sigma=0.05)

    def exact(*args):
        raise AssertionError("the stochastic driver called an exact oracle")

    sampling_only = ObjectiveOracle(
        10, exact, exact, hvp=exact,
        sample_gradient=noisy.oracle.sample_gradient,
        sample_gradient_batch=noisy.oracle.sample_gradient_batch,
        sample_hvp=noisy.oracle.sample_hvp,
    )
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=80)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=2 * 0.05 ** 2, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    report = gose_stochastic(sampling_only, np.zeros(10), tol, smooth,
                             scsg_cfg=scsg, rng=np.random.default_rng(0))
    c = report.certificate
    assert c.status == STATUS_SECOND_ORDER
    assert c.counters.fn_evals == c.counters.grad_evals == 0
    assert all(r.f_value is None for r in report.trace)


def test_baseline_trace_marks_every_escape_step():
    report = golden_saddle_path(always_probe_baseline)
    escapes = [0] + [r.counters.escape_steps for r in report.trace]
    grew = [after > before for before, after in zip(escapes, escapes[1:])]
    assert [r.escape_taken for r in report.trace] == grew
    # a curvature step taken from a large-gradient point is a LARGE row
    assert any(r.branch == LARGE and r.escape_taken for r in report.trace)


def test_baseline_runs_max_outer_iterations():
    # the origin is a saddle of every coordinate: bottom is many steps away
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=3)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = always_probe_baseline(prob.oracle, prob.x0, tol, smooth,
                                   rng=np.random.default_rng(0))
    assert report.certificate.counters.outer_iters == 3
    assert [r.k for r in report.trace] == [1, 2, 3]
    assert report.certificate.status == STATUS_BUDGET


def test_runs_ending_without_bottom_report_no_curvature_estimate():
    # both runs escape the origin (lambda_min = -2) and end at a later point
    # whose curvature no finder measured
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=2)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    baseline = always_probe_baseline(prob.oracle, prob.x0, dataclasses.replace(tol, max_outer=3),
                                     smooth, rng=np.random.default_rng(0))
    driver = run_det(prob, tol, smooth)
    for report, status in ((baseline, STATUS_BUDGET), (driver, STATUS_FIRST_ORDER)):
        c = report.certificate
        assert c.status == status
        assert c.counters.escape_steps >= 1
        assert np.isnan(c.min_eig_estimate)


def test_baseline_lives_beside_the_drivers_loop():
    # one import path: gose.drivers, beside the loop it runs
    assert gose.drivers.always_probe_baseline.__module__ == "gose.drivers"
    assert not hasattr(gose.harness, "always_probe_baseline")


def test_baseline_echoes_the_deterministic_config():
    # the baseline enters like the deterministic driver, whose echo adds only
    # the solver choice
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    baseline = always_probe_baseline(prob.oracle, prob.x0, tol, smooth,
                                     rng=np.random.default_rng(0))
    driver = run_det(prob, tol, smooth)
    assert driver.config.pop("solver_choice") == gose.solvers.DEFAULT_SOLVER
    assert baseline.config == driver.config
    assert baseline.config["mode"] == "deterministic"


def test_unknown_solver_rejected_before_any_oracle_work():
    prob = get_problem("chained_saddles", d=3)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=10)
    oracle = as_counting(prob.oracle)
    with pytest.raises(ConfigError, match=re.escape("unknown solver 'bogus'; options: ['agd', 'gd']")):
        gose_deterministic(oracle, prob.x0, tol, SmoothnessSpec(L=prob.known_L, rho=1.0),
                           solver_choice="bogus", rng=np.random.default_rng(0))
    assert oracle.counters == EvalCounters()


# ---------------------------------------------------------------------------
# the entry check: check_run rejects before any oracle work


def bowl_settings():
    bowl = get_problem("bowl_saddle", d=10, spectrum=BOWL_SPECTRUM, q=0.5, seed=3)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=80)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=2 * 0.05 ** 2, sigma=0.05)
    return bowl, tol, smooth


def stochastic_scsg(tol, smooth):
    return derive_scsg_params(tol, smooth, "stochastic", b_override=32)


def finite_sum_scsg(tol, smooth):
    return derive_scsg_params(tol, smooth, "finite_sum", n=200)


# (driver, its error, the oracle's kind, an explicit ScsgConfig or None)
INCAPABLE_ORACLE_CASES = {
    "stochastic-exact": (gose_stochastic, NotStochastic, "exact", None),
    "stochastic-exact-scsg": (gose_stochastic, NotStochastic, "exact", stochastic_scsg),
    "stochastic-finite_sum": (gose_stochastic, NotStochastic, "finite_sum", None),
    "finite_sum-exact": (gose_finite_sum, NotFiniteSum, "exact", None),
    "finite_sum-exact-scsg": (gose_finite_sum, NotFiniteSum, "exact", finite_sum_scsg),
    "finite_sum-sampling": (gose_finite_sum, NotFiniteSum, "sampling", None),
}


@pytest.mark.parametrize("case", list(INCAPABLE_ORACLE_CASES))
def test_oracle_that_cannot_serve_the_mode_raises_before_any_oracle_work(case):
    driver, error, kind, scsg = INCAPABLE_ORACLE_CASES[case]
    bowl, tol, smooth = bowl_settings()
    spec = {"exact": bowl, "finite_sum": as_finite_sum(bowl, 200),
            "sampling": with_gradient_noise(bowl, sigma=0.05)}[kind]
    oracle = as_counting(spec.oracle)
    with pytest.raises(error, match=f"{driver.__name__[len('gose_'):]} mode needs"):
        driver(oracle, bowl.x0, tol, smooth, rng=np.random.default_rng(0),
               scsg_cfg=None if scsg is None else scsg(tol, smooth))
    assert oracle.counters == EvalCounters()


@pytest.mark.parametrize("solver", ["gd", "agd"])
def test_deterministic_driver_measures_no_gradient_twice_in_a_row(solver):
    # the solver takes the gradient the driver measured and hands back the one
    # it stopped on, so no gradient eval repeats the point of the one before
    prob = get_problem("chained_saddles", d=10)
    points = []

    def gradient(x):
        points.append(np.asarray(x).tobytes())
        return prob.oracle.gradient(x)
    oracle = ObjectiveOracle(10, prob.oracle.value, gradient, hvp=prob.oracle.hvp)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=200)
    report = run_det(dataclasses.replace(prob, oracle=oracle), tol,
                     SmoothnessSpec(L=prob.known_L, rho=1.0), solver_choice=solver)
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert len(points) == report.certificate.counters.grad_evals
    assert all(a != b for a, b in zip(points, points[1:]))


@pytest.mark.parametrize("d", [5, 10, 200])
def test_agd_large_step_values_no_point_twice(d):
    # the trace row's f(x) is the value the agd solve starts from, and the
    # next row's is the value the solve returned: no point is valued twice
    # in the run, within a large-gradient iteration or across rows
    prob = get_problem("chained_saddles", d=d)
    points = []

    def value(x):
        points.append(np.asarray(x).tobytes())
        return prob.oracle.value(x)
    oracle = ObjectiveOracle(d, value, prob.oracle.gradient, hvp=prob.oracle.hvp)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=200)
    report = run_det(dataclasses.replace(prob, oracle=oracle), tol,
                     SmoothnessSpec(L=prob.known_L, rho=1.0), solver_choice="agd")
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert len(points) == report.certificate.counters.fn_evals
    before, large = 0, 0
    for row in report.trace:
        step = points[before:row.counters.fn_evals]
        before = row.counters.fn_evals
        if row.branch == LARGE:
            large += 1
            assert len(step) > 1 and len(set(step)) == len(step), row.k
    assert large >= 1
    assert len(set(points)) == len(points)


# ---------------------------------------------------------------------------
# the paper's curvature bound on chained saddles


@pytest.mark.parametrize("solver", ["gd", "agd"])
@pytest.mark.parametrize("d", [2, 5, 10, 50, 200])
def test_chained_saddles_certify_within_d_plus_one_nc_calls(d, solver):
    prob = get_problem("chained_saddles", d=d)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01, max_outer=200)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    for seed in range(3):
        c = run_det(prob, tol, smooth, seed=seed, solver_choice=solver).certificate
        assert c.status == STATUS_SECOND_ORDER
        assert c.counters.nc_calls <= d + 1
        assert c.counters.nc_calls == c.counters.small_region_entries
        # the certifying bottom settles long before Lanczos converges
        assert c.counters.hvp_evals <= 60
        assert certify_second_order(prob.oracle, c.point, tol.eps, tol.eps_h)[0]


# one run at d = 20,000 in a fresh interpreter, so that ru_maxrss is its own
CHAINED_AT_20000 = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from gose import harness
cfg = harness.ExperimentConfig.from_dict({
    "problem": "chained_saddles", "problem_params": {"d": 20000},
    "mode": "deterministic", "eps": 0.01, "eps_h": 0.5, "delta": 0.01,
    "rho": 1.0, "max_outer": 200,
})
_, row = harness.run_one(cfg, 0)
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(harness.summary_line({**row, "peak_mb": peak_mb}))
"""


def test_chained_saddles_at_d_20000_solve_in_little_memory():
    # the planted saddles are built on read: d stored points would take 3.2 GB
    src = os.path.dirname(os.path.dirname(gose.drivers.__file__))
    proc = subprocess.run([sys.executable, "-c", CHAINED_AT_20000, src],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    row = json.loads(proc.stdout.splitlines()[-1])
    counters = row["counters"]
    assert row["status"] == STATUS_SECOND_ORDER
    assert row["certified"] is None  # the dense certifier stops at d=500
    assert counters["nc_calls"] == counters["small_region_entries"] <= 20_000 + 1
    assert row["peak_mb"] < 400


def chained_finite_sum_run(d, seed):
    prob = get_problem("chained_saddles", d=d)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=500)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    fs = as_finite_sum(prob, 4)
    report = gose_finite_sum(fs.oracle, fs.x0, tol, smooth, rng=np.random.default_rng(seed))
    return prob, tol, report


def chained_stochastic_run(d, seed):
    prob = get_problem("chained_saddles", d=d)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=300)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0, h_star=2 * 0.05 ** 2, sigma=0.05)
    noisy = with_gradient_noise(prob, 0.05)
    report = gose_stochastic(noisy.oracle, noisy.x0, tol, smooth,
                             scsg_cfg=derive_scsg_params(tol, smooth, "stochastic", b_override=32),
                             rng=np.random.default_rng(seed))
    return prob, tol, report


@pytest.mark.parametrize("run, d, seed", [
    *((chained_finite_sum_run, d, seed) for d in (2, 5, 10) for seed in range(3)),
    *((chained_stochastic_run, d, seed) for d in (2, 5) for seed in range(2)),
])
def test_sampling_modes_certify_within_d_plus_one_nc_calls(run, d, seed):
    prob, tol, report = run(d, seed)
    c = report.certificate
    assert c.status == STATUS_SECOND_ORDER
    assert c.counters.nc_calls <= d + 1
    assert c.counters.nc_calls == c.counters.small_region_entries
    assert certify_second_order(prob.oracle, c.point, tol.eps, tol.eps_h)[0]


# ---------------------------------------------------------------------------
# golden counters: fixed seeds must reproduce these exact tallies


BOWL_SPECTRUM = [-1.0] + list(np.linspace(0.3, 1.0, 9))


def golden_chained(solver):
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    return run_det(prob, tol, smooth, solver_choice=solver)


def golden_saddle_path(runner):
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    return runner(prob.oracle, prob.x0, tol, smooth, rng=np.random.default_rng(0))


def golden_pca():
    pca = get_problem("nonconvex_pca", n=50, d=8, seed=13)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=1500)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    return gose_finite_sum(pca.oracle, pca.x0, tol, smooth,
                           rng=np.random.default_rng(0))


def golden_noisy_bowl():
    prob = get_problem("bowl_saddle", d=10, spectrum=BOWL_SPECTRUM, q=0.5, seed=3)
    noisy = with_gradient_noise(prob, sigma=0.05)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=10)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    return gose_stochastic(noisy.oracle, np.zeros(10), tol, smooth,
                           scsg_cfg=scsg, rng=np.random.default_rng(0))


def golden_det_chained_d200():
    # the config of the benchmark's det_chained workload: the escape's finder
    # call stops Lanczos early, and the certifying bottom call settles once
    # the Kuczynski-Wozniakowski bound clears the threshold
    cfg = ExperimentConfig(problem="chained_saddles", problem_params={"d": 200},
                           mode="deterministic", eps=0.01, eps_h=0.5, delta=0.01,
                           rho=1.0, max_outer=200)
    return run_one(cfg, 0)[0]


def golden_fs_pca_n200():
    # the config of the benchmark's fs_pca workload: thousands of SCSG inner
    # steps, each on freshly drawn component indices
    cfg = ExperimentConfig(problem="nonconvex_pca",
                           problem_params={"n": 200, "d": 20, "seed": 13},
                           mode="finite_sum", eps=0.01, eps_h=0.5, delta=0.1,
                           L=8.0, rho=1.0, max_outer=1500)
    return run_one(cfg, 0)[0]


def golden_stoch_bowl_b32():
    # the config of the benchmark's stoch_bowl workload: thousands of SCSG
    # inner steps and two stochastic finder calls on the noisy bowl
    cfg = ExperimentConfig(problem="bowl_saddle",
                           problem_params={"d": 10, "spectrum": BOWL_SPECTRUM,
                                           "q": 0.5, "seed": 3},
                           mode="stochastic", eps=0.01, eps_h=0.5, delta=0.1,
                           L=7.0, rho=1.0, noise_sigma=0.05, sigma=0.05,
                           h_star=2 * 0.05 ** 2, scsg_b=32, max_outer=80)
    return run_one(cfg, 0)[0]


def counts(grad, stoch, comp, hvp, fn, nc, esc, small, outer, epochs):
    return dict(grad_evals=grad, stoch_grad_evals=stoch, component_grad_evals=comp,
                hvp_evals=hvp, fn_evals=fn, nc_calls=nc, escape_steps=esc,
                small_region_entries=small, outer_iters=outer, epochs_run=epochs)


GOLDEN = {
    "chained_gd": (lambda: golden_chained("gd"), STATUS_SECOND_ORDER,
                   counts(64, 0, 0, 13, 3, 2, 1, 2, 3, 0)),
    "chained_agd": (lambda: golden_chained("agd"), STATUS_SECOND_ORDER,
                    counts(32, 0, 0, 13, 32, 2, 1, 2, 3, 0)),
    "saddle_path_driver": (lambda: golden_saddle_path(gose_deterministic),
                           STATUS_SECOND_ORDER, counts(24, 0, 0, 10, 26, 2, 1, 2, 4, 0)),
    "saddle_path_baseline": (lambda: golden_saddle_path(always_probe_baseline),
                             STATUS_SECOND_ORDER,
                             counts(36, 0, 0, 180, 36, 36, 3, 36, 36, 0)),
    "pca_finite_sum": (golden_pca, STATUS_SECOND_ORDER,
                       counts(0, 0, 4408, 95, 48, 1, 0, 1, 48, 47)),
    "noisy_bowl": (golden_noisy_bowl, STATUS_BUDGET,
                   counts(0, 281812, 0, 3512, 0, 1, 1, 1, 10, 9)),
    "det_chained_d200": (golden_det_chained_d200, STATUS_SECOND_ORDER,
                         counts(51, 0, 0, 28, 51, 2, 1, 2, 3, 0)),
    "fs_pca_n200": (golden_fs_pca_n200, STATUS_SECOND_ORDER,
                    counts(0, 0, 10919, 431, 28, 1, 0, 1, 28, 27)),
    "stoch_bowl_b32": (golden_stoch_bowl_b32, STATUS_SECOND_ORDER,
                       counts(0, 961304, 0, 7024, 0, 2, 1, 2, 31, 29)),
}

# sha256 of certificate.point.tobytes()
GOLDEN_POINTS = {
    "det_chained_d200": "5f69b5fa269f1551e6f202fec93a74ff5379a5367b1d4b7fd18ee6f50c218e4b",
    "pca_finite_sum": "9ebf8ddde2c1476c753251c20f7a8880cf4ab1129e203177ef77f0584e0c501f",
    "fs_pca_n200": "662f9df68170baece31e294a7d5c1e71d2b9b9feaaae894caf9d52cf525575ae",
    "noisy_bowl": "db83bb6d927d6c3ea45a86f0a6849780f377a46e8c72995203132481701f19a4",
    "stoch_bowl_b32": "5de7c636ace12ea96dc4cd0b314918fadf50a57b7286fae726b86273d5c7ece1",
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_counters_per_seed(name):
    run, status, expected = GOLDEN[name]
    c = run().certificate
    assert (c.status, c.counters.as_dict()) == (status, expected)
    if name in GOLDEN_POINTS:
        assert hashlib.sha256(c.point.tobytes()).hexdigest() == GOLDEN_POINTS[name]


def golden_chained_finite_sum():
    # four identical components, each the whole chained-saddles objective
    prob = as_finite_sum(get_problem("chained_saddles", d=5), 4)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=500)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    return gose_finite_sum(prob.oracle, prob.x0, tol, smooth, rng=np.random.default_rng(0))


@pytest.mark.parametrize("run, n", [pytest.param(golden_pca, 50, id="pca_finite_sum"),
                                    pytest.param(golden_chained_finite_sum, 4,
                                                 id="chained_finite_sum")])
def test_fs_full_gradient_is_n_component_gradients_shared_with_the_epoch(run, n):
    # each measurement is the n rows of one anchor table, and the epoch after
    # it pays only for its y side, b per step; the oracle's gradient, which
    # also charges n, is never called (a row would then show 2n)
    report = run()
    b = report.config["scsg"]["b"]
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert report.certificate.counters.grad_evals == 0
    assert {row.branch for row in report.trace} == {LARGE, SMALL}
    before = 0
    for row in report.trace:
        spent = row.counters.component_grad_evals - before
        before = row.counters.component_grad_evals
        if row.branch == SMALL:
            assert spent == n, row.k
        else:
            assert spent >= n and (spent - n) % b == 0, row.k


# ---------------------------------------------------------------------------
# start points and escape points of the wrong shape


# (point, what the error says the point must be, as a regex)
BAD_POINTS = [pytest.param(np.zeros(4), r"have shape \(5,\), got \(4,\)", id="short"),
              pytest.param(np.zeros((5, 1)), r"have shape \(5,\), got \(5, 1\)",
                           id="column"),
              pytest.param(np.array([0.0, np.nan, 0.0, 0.0, 0.0]), "be finite", id="nan"),
              pytest.param(np.array([0.0, 0.0, np.inf, 0.0, 0.0]), "be finite", id="inf"),
              pytest.param([[0.0] * 5, [0.0]], "be an array of floats", id="ragged"),
              pytest.param("abcde", "be an array of floats", id="text")]


def _chained_modes():
    chain = get_problem("chained_saddles", d=5)
    return {"deterministic": chain.oracle,
            "stochastic": with_gradient_noise(chain, sigma=0.05).oracle,
            "finite_sum": as_finite_sum(chain, 4).oracle}


@pytest.mark.parametrize("x0, named", BAD_POINTS)
@pytest.mark.parametrize("entry", ["deterministic", "stochastic", "finite_sum", "baseline"])
def test_bad_start_point_raises_before_any_oracle_work(entry, x0, named):
    oracles = _chained_modes()
    oracle = as_counting(oracles["deterministic" if entry == "baseline" else entry])
    runner = {"deterministic": gose_deterministic, "stochastic": gose_stochastic,
              "finite_sum": gose_finite_sum, "baseline": always_probe_baseline}[entry]
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=5)
    smooth = SmoothnessSpec(L=12.0, rho=1.0, h_star=0.005, sigma=0.05)
    with pytest.raises(ConfigError, match="x0 must " + named):
        runner(oracle, x0, tol, smooth, rng=np.random.default_rng(0))
    assert oracle.counters == EvalCounters()


@pytest.mark.parametrize("x, named", BAD_POINTS[:2])
@pytest.mark.parametrize("mode", ["deterministic", "stochastic", "finite_sum"])
def test_escape_and_finder_reject_a_misshapen_point(mode, x, named):
    escape = {"deterministic": one_step_deterministic, "stochastic": one_step_stochastic,
              "finite_sum": one_step_finite_sum}[mode]
    finder = {"deterministic": approx_nc_deterministic, "stochastic": approx_nc_stochastic,
              "finite_sum": approx_nc_finite_sum}[mode]
    oracle = as_counting(_chained_modes()[mode])
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1)
    smooth = SmoothnessSpec(L=12.0, rho=1.0, h_star=0.005, sigma=0.05)
    with pytest.raises(ConfigError, match="x must " + named):
        escape(oracle, x, tol, smooth, np.random.default_rng(0))
    with pytest.raises(ConfigError, match="x must " + named):
        finder(oracle, x, tol.eps_h, tol.delta, smooth.L, np.random.default_rng(0))
    assert oracle.counters == EvalCounters()
