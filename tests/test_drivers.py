import numpy as np
import pytest

from gose import (EscapeConfig, ObjectiveOracle, SmoothnessSpec,
                  ToleranceConfig, amplify, as_counting, certify_second_order,
                  derive_scsg_params, get_problem, gose_deterministic,
                  gose_finite_sum, gose_stochastic, with_gradient_noise)
from gose.core import (STATUS_BUDGET, STATUS_FIRST_ORDER, STATUS_SECOND_ORDER,
                       ConfigError, EvalCounters)
from gose.drivers import LARGE, SMALL
from gose.harness import always_probe_baseline
from gose.problems import as_finite_sum


def run_det(problem, tol, smooth, seed=0, **kw):
    return gose_deterministic(problem.oracle, problem.x0, tol, smooth,
                              EscapeConfig(), rng=np.random.default_rng(seed), **kw)


# ---------------------------------------------------------------------------
# deterministic driver


def test_det_already_stationary_single_bottom_call():
    # the extreme case: a convex objective needs exactly one curvature probe
    prob = get_problem("quadratic_saddle", d=4, spectrum=[0.5, 1.0, 1.5, 2.0],
                       seed=1)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=20, seed=0)
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=0)
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
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
        tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=seed)
        smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
        report = run_det(prob, tol, smooth, seed=seed)
        for a, b in zip(report.trace, report.trace[1:]):
            if a.branch == SMALL and a.escape_taken:
                assert b.branch == LARGE


def test_det_outer_f_values_nonincreasing():
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=1)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth, seed=1)
    fvals = [r.f_value for r in report.trace]
    assert all(b <= a + 1e-10 for a, b in zip(fvals, fvals[1:]))


def test_det_counter_identities():
    prob = get_problem("chained_saddles", d=4)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=0)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth)
    c = report.certificate.counters
    assert c.nc_calls == c.small_region_entries
    terminated_by_bottom = report.certificate.status == STATUS_SECOND_ORDER
    assert c.escape_steps == c.nc_calls - (1 if terminated_by_bottom else 0)
    assert len(report.trace) <= tol.max_outer


def test_det_same_seed_reports_identical():
    prob = get_problem("chained_saddles", d=4)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=7)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    r1 = run_det(prob, tol, smooth, seed=7)
    r2 = run_det(prob, tol, smooth, seed=7)
    np.testing.assert_array_equal(r1.certificate.point, r2.certificate.point)
    assert r1.certificate.counters == r2.certificate.counters
    assert [t.f_value for t in r1.trace] == [t.f_value for t in r2.trace]


def test_det_agd_solver_choice():
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    report = run_det(prob, tol, smooth, solver_choice="agd")
    assert report.certificate.status == STATUS_SECOND_ORDER


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


def test_threshold_deterministic_branches_at_eps():
    eps = 0.01
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1, seed=0)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    # gradient norm between eps/2 and eps: deterministic takes the small branch
    oracle = probe_oracle(0.75 * eps)
    report = gose_deterministic(oracle, np.zeros(3), tol, smooth,
                                rng=np.random.default_rng(0))
    assert report.trace[0].branch == SMALL
    # just above eps: large branch
    oracle = probe_oracle(1.5 * eps)
    report = gose_deterministic(oracle, np.zeros(3), tol, smooth,
                                rng=np.random.default_rng(0), solver_max_iters=5)
    assert report.trace[0].branch == LARGE


def test_threshold_stochastic_branches_at_half_eps():
    eps = 0.01
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1, seed=0)
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
    tol = ToleranceConfig(eps=eps, eps_h=0.5, max_outer=1, seed=0)
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=10, seed=0)
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=60, seed=0)
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
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=40, seed=0)
    smooth = SmoothnessSpec(L=8.0, rho=1.0, h_star=h_star)
    scsg = derive_scsg_params(tol, smooth, "stochastic", B_override=400,
                              b_override=8)
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
        tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=60, seed=seed)
        smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
        scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
        report = gose_stochastic(noisy.oracle, np.zeros(6), tol, smooth,
                                 scsg_cfg=scsg, rng=np.random.default_rng(seed))
        ok, _, _ = certify_second_order(prob.oracle, report.certificate.point,
                                        0.01, 0.5)
        successes += ok
    assert successes >= 4  # well above the 1/3 guarantee


# ---------------------------------------------------------------------------
# finite-sum driver


def test_fs_single_component_behaves_deterministically():
    conv = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], seed=2)
    fs = as_finite_sum(conv, 1)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=2000, seed=0)
    smooth = SmoothnessSpec(L=2.0, rho=1.0)
    report = gose_finite_sum(fs.oracle, np.ones(3), tol, smooth,
                             rng=np.random.default_rng(0))
    assert report.certificate.status == STATUS_SECOND_ORDER
    assert np.linalg.norm(report.certificate.point) <= 0.05


def test_fs_budget_exhaustion_flags_honestly():
    pca = get_problem("nonconvex_pca", n=50, d=10, seed=0)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=1, seed=0)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    x0 = pca.planted_minimum * 0.25  # large-gradient start
    report = gose_finite_sum(pca.oracle, x0, tol, smooth,
                             rng=np.random.default_rng(0))
    assert report.certificate.status in (STATUS_BUDGET, STATUS_FIRST_ORDER)
    assert report.certificate.counters.nc_calls == 0
    assert report.certificate.status == STATUS_BUDGET  # one epoch cannot finish


def test_fs_counter_identity_and_certification():
    pca = get_problem("nonconvex_pca", n=60, d=8, seed=13)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=1500, seed=0)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    report = gose_finite_sum(pca.oracle, pca.x0, tol, smooth,
                             rng=np.random.default_rng(0))
    c = report.certificate.counters
    assert c.outer_iters == c.epochs_run + c.small_region_entries
    assert c.nc_calls == c.small_region_entries
    assert report.certificate.status == STATUS_SECOND_ORDER
    ok, _, _ = certify_second_order(pca.oracle, report.certificate.point, 0.01, 0.5)
    assert ok


# ---------------------------------------------------------------------------
# amplify


def fake_report(grad_norm, point):
    from gose.core import Certificate, EvalCounters
    from gose.drivers import RunReport
    cert = Certificate(point=np.asarray(point, float), grad_norm=grad_norm,
                       min_eig_estimate=0.0, status=STATUS_SECOND_ORDER,
                       counters=EvalCounters())
    return RunReport(certificate=cert, seed=0)


def test_amplify_reps_one_is_identity():
    report = fake_report(0.5, [1.0])
    out = amplify(lambda seed: report, 1, lambda p: True)
    assert out is report
    assert not out.all_runs_failed


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
    "baseline": lambda o, tol, sm, rng: always_probe_baseline(o, np.zeros(3), tol, sm, rng=rng,
                                                              max_iters=tol.max_outer),
}


@pytest.mark.parametrize("entry", list(NAN_RUNNERS))
def test_nan_gradient_never_certifies(entry):
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=5, seed=0)
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


def test_escape_window_checked_before_any_oracle_work():
    prob = get_problem("saddle_path", d=2)
    oracle = as_counting(prob.oracle)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    with pytest.raises(ConfigError, match="gradient-growth window"):
        gose_deterministic(oracle, prob.x0, tol, smooth, EscapeConfig(c_h=0.8))
    assert oracle.counters == EvalCounters()


# ---------------------------------------------------------------------------
# golden counters: fixed seeds must reproduce these exact tallies


BOWL_SPECTRUM = [-1.0] + list(np.linspace(0.3, 1.0, 9))


def golden_chained(solver):
    prob = get_problem("chained_saddles", d=5)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=100, seed=0)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    return run_det(prob, tol, smooth, solver_choice=solver)


def golden_saddle_path(runner):
    prob = get_problem("saddle_path", d=2)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    return runner(prob.oracle, prob.x0, tol, smooth, rng=np.random.default_rng(0))


def golden_pca():
    pca = get_problem("nonconvex_pca", n=50, d=8, seed=13)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=1500, seed=0)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    return gose_finite_sum(pca.oracle, pca.x0, tol, smooth,
                           rng=np.random.default_rng(0))


def golden_noisy_bowl():
    prob = get_problem("bowl_saddle", d=10, spectrum=BOWL_SPECTRUM, q=0.5, seed=3)
    noisy = with_gradient_noise(prob, sigma=0.05)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1, max_outer=10, seed=0)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=0.005, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    return gose_stochastic(noisy.oracle, np.zeros(10), tol, smooth,
                           scsg_cfg=scsg, rng=np.random.default_rng(0))


def counts(grad, stoch, comp, hvp, fn, nc, esc, small, outer, epochs):
    return dict(grad_evals=grad, stoch_grad_evals=stoch, component_grad_evals=comp,
                hvp_evals=hvp, fn_evals=fn, nc_calls=nc, escape_steps=esc,
                small_region_entries=small, outer_iters=outer, epochs_run=epochs)


GOLDEN = {
    "chained_gd": (lambda: golden_chained("gd"), STATUS_SECOND_ORDER,
                   counts(153, 0, 0, 48, 11, 6, 5, 6, 11, 0)),
    "chained_agd": (lambda: golden_chained("agd"), STATUS_SECOND_ORDER,
                    counts(86, 0, 0, 48, 91, 6, 5, 6, 11, 0)),
    "saddle_path_driver": (lambda: golden_saddle_path(gose_deterministic),
                           STATUS_SECOND_ORDER, counts(58, 0, 0, 10, 4, 2, 1, 2, 4, 0)),
    "saddle_path_baseline": (lambda: golden_saddle_path(always_probe_baseline),
                             STATUS_SECOND_ORDER,
                             counts(36, 0, 0, 180, 36, 36, 3, 36, 36, 0)),
    "pca_finite_sum": (golden_pca, STATUS_SECOND_ORDER,
                       counts(48, 0, 6416, 95, 48, 1, 0, 1, 48, 47)),
    "noisy_bowl": (golden_noisy_bowl, STATUS_BUDGET,
                   counts(0, 276692, 0, 3512, 10, 1, 1, 1, 10, 9)),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_counters_per_seed(name):
    run, status, expected = GOLDEN[name]
    c = run().certificate
    assert (c.status, c.counters.as_dict()) == (status, expected)
