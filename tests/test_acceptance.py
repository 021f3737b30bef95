"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Shared run matrices are computed once in module-scoped fixtures and reused by
the trace-invariant criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gose import (ObjectiveOracle, SmoothnessSpec,
                  ToleranceConfig, amplify, anchor_table, certify_second_order,
                  derive_scsg_params, finite_diff_hvp, get_problem,
                  gose_deterministic, gose_finite_sum, gose_stochastic,
                  make_chained_saddles, one_step_deterministic,
                  one_step_stochastic, sample_geometric, scsg_epoch,
                  with_gradient_noise)
from gose.core import STATUS_SECOND_ORDER
from gose.drivers import SMALL, always_probe_baseline
from gose.ncfind import approx_nc_deterministic
from gose.problems import ProblemSpec, as_finite_sum
from gose.solvers import ScsgConfig
from conftest import planted_symmetric, verify_nc_suite, wilson_lower

EPS, EPS_H, DELTA = 0.01, 0.5, 0.01


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {label}  ({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"[criterion {num:2d}] PASS  {label}  ({time.perf_counter() - t0:.1f}s)")


def quad_spec(A):
    oracle = ObjectiveOracle(A.shape[0], lambda x: 0.5 * float(x @ (A @ x)),
                             lambda x: A @ x, hvp=lambda x, v: A @ v)
    return ProblemSpec(name="plant", oracle=oracle, known_L=1.0, known_rho=0.0,
                       box=(-2, 2))


def escape_sites():
    """100 planted strict saddles: 60 quadratic plants + 40 chained sites."""
    sites = []
    for seed in range(60):
        rng = np.random.default_rng(1000 + seed)
        spec = rng.uniform(0.2, 1.0, 8)
        spec[0] = -2.0 * EPS_H
        A = planted_symmetric(8, spec, rng)
        sites.append((quad_spec(A), np.zeros(8), seed))
    chain = make_chained_saddles(8)
    chain_spec = ProblemSpec(name="chain", oracle=chain.oracle, known_L=chain.known_L,
                             known_rho=chain.known_rho, box=chain.box)
    k = 0
    for rep in range(5):
        for s in chain.planted_saddles:
            sites.append((chain_spec, np.asarray(s, float), 2000 + k))
            k += 1
    assert len(sites) == 100
    return sites


# ---------------------------------------------------------------------------
# shared run matrices


@pytest.fixture(scope="module")
def chained_runs():
    out = {}
    t0 = time.perf_counter()
    for d in (2, 5, 10):
        prob = get_problem("chained_saddles", d=d)
        smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
        reports = []
        for seed in range(20):
            tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=DELTA,
                                  max_outer=200)
            reports.append((prob, gose_deterministic(
                prob.oracle, prob.x0, tol, smooth,
                rng=np.random.default_rng(seed))))
        out[d] = reports
    out["elapsed"] = time.perf_counter() - t0
    return out


def stoch_problem():
    spectrum = list(np.concatenate([[-1.0], np.linspace(0.3, 1.0, 9)]))
    prob = get_problem("bowl_saddle", d=10, spectrum=spectrum, q=0.5, seed=3)
    return prob, with_gradient_noise(prob, sigma=0.05)


def run_stoch(noisy, seed):
    tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=0.1,
                          max_outer=80)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, h_star=2 * 0.05 ** 2, sigma=0.05)
    scsg = derive_scsg_params(tol, smooth, "stochastic", b_override=32)
    return gose_stochastic(noisy.oracle, np.zeros(10), tol, smooth,
                           scsg_cfg=scsg, rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def stoch_runs():
    prob, noisy = stoch_problem()
    t0 = time.perf_counter()
    reports = [(prob, run_stoch(noisy, seed)) for seed in range(30)]
    return {"runs": reports, "noisy": noisy, "prob": prob,
            "elapsed": time.perf_counter() - t0}


def pca_problem():
    # data seed 13 has a clear top-eigenvalue gap, so the minimum-value check
    # is well conditioned at eps = 0.01
    return get_problem("nonconvex_pca", n=200, d=20, seed=13)


def run_pca(pca, seed):
    tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=0.1,
                          max_outer=1500)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    return gose_finite_sum(pca.oracle, pca.x0, tol, smooth,
                           rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def fs_runs():
    pca = pca_problem()
    t0 = time.perf_counter()
    reports = [(pca, run_pca(pca, seed)) for seed in range(30)]
    return {"runs": reports, "prob": pca, "elapsed": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def path_runs():
    prob = get_problem("saddle_path", d=2)
    smooth = SmoothnessSpec(L=prob.known_L, rho=1.0)
    t0 = time.perf_counter()
    pairs = []
    for seed in range(10):
        tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=DELTA,
                              max_outer=50)
        g = gose_deterministic(prob.oracle, prob.x0, tol, smooth,
                               rng=np.random.default_rng(seed))
        b = always_probe_baseline(prob.oracle, prob.x0, tol, smooth,
                                  rng=np.random.default_rng(seed))
        pairs.append((prob, g, b))
    return {"pairs": pairs, "elapsed": time.perf_counter() - t0}


# ---------------------------------------------------------------------------
# 1. negative-curvature finder contract


def test_criterion_1_nc_finder_contract():
    with criterion(1, "NC finder: >=95% directions at lambda_min=-2eps_h, 100% bottom on PSD"):
        t0 = time.perf_counter()
        res = verify_nc_suite(d=50, trials=200, eps_h=EPS_H, delta=DELTA,
                              engine="deterministic", seed=0)
        elapsed = time.perf_counter() - t0
        assert res["direction_rate"] >= 0.95
        assert res["bottom_rate_psd"] == 1.0
        assert res["unsound_directions"] == 0
        assert elapsed <= 10.0


# ---------------------------------------------------------------------------
# 2. one-step escape, exact gradients


def test_criterion_2_deterministic_escape():
    with criterion(2, "one-step escape: drop <= -0.5*(1/24)*eps_h^3 and grad growth, >=95/100"):
        t0 = time.perf_counter()
        tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=DELTA)
        threshold = -0.5 * (1.0 / 24.0) * EPS_H ** 3  # C' = C_H^2/4 - C_H^3/6 at 1/2
        passes = total = 0
        for spec, x, seed in escape_sites():
            smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
            ok, _, lam = certify_second_order(spec.oracle, x, EPS, EPS_H)
            assert lam < -EPS_H  # site really is a strict saddle
            total += 1
            res = one_step_deterministic(spec.oracle, x, tol, smooth,
                                         np.random.default_rng(seed))
            if not res.escaped:
                continue
            drop = spec.oracle.value(res.point) - spec.oracle.value(x)
            grown = np.linalg.norm(spec.oracle.gradient(res.point)) > EPS
            if drop <= threshold and grown:
                passes += 1
        assert total == 100
        assert passes >= 95
        assert time.perf_counter() - t0 <= 30.0


# ---------------------------------------------------------------------------
# 3. one-step escape, subsampled gradients


def test_criterion_3_stochastic_escape():
    with criterion(3, "stochastic escape: drop <= -0.5*(1/48)*eps_h^3, sigma=0.05, >=95/100"):
        t0 = time.perf_counter()
        tol = ToleranceConfig(eps=EPS, eps_h=EPS_H, delta=DELTA)
        threshold = -0.5 * (1.0 / 48.0) * EPS_H ** 3  # C_H^2/4 - C_H^3/3 at 1/2
        passes = total = 0
        for spec, x, seed in escape_sites():
            noisy = with_gradient_noise(spec, sigma=0.05)
            smooth = SmoothnessSpec(L=spec.known_L, rho=1.0,
                                    sigma=0.05, h_star=2 * 0.05 ** 2)
            total += 1
            res = one_step_stochastic(noisy.oracle, x, tol, smooth,
                                      np.random.default_rng(seed))
            if not res.escaped:
                continue
            drop = spec.oracle.value(res.point) - spec.oracle.value(x)
            grown = np.linalg.norm(spec.oracle.gradient(res.point)) > EPS
            if drop <= threshold and grown:
                passes += 1
        assert total == 100
        assert passes >= 95
        assert time.perf_counter() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 4. one-escape-per-entry invariant across the whole matrix


def check_trace_invariants(report):
    """Assert the counter identities; return (escapes, misses) read off the trace.

    A miss is a small row right after an escaping small row: the one
    negative-curvature step did not leave the small-gradient region.
    """
    c = report.certificate.counters
    assert c.small_region_entries == c.nc_calls
    small_records = [r for r in report.trace if r.branch == SMALL]
    assert len(small_records) == c.small_region_entries
    assert c.escape_steps == sum(r.escape_taken for r in small_records)
    after_escape = [b for a, b in zip(report.trace, report.trace[1:])
                    if a.branch == SMALL and a.escape_taken]
    return len(after_escape), sum(b.branch == SMALL for b in after_escape)


def binomial_tail_bound(n, p, alpha=0.01):
    """Smallest k with P(Binomial(n, p) > k) <= alpha."""
    tail = 1.0
    for k in range(n + 1):
        tail -= math.comb(n, k) * p ** k * (1.0 - p) ** (n - k)
        if tail <= alpha:
            return k
    return n


def test_criterion_4_one_escape_per_entry(chained_runs, stoch_runs, fs_runs,
                                          path_runs):
    with criterion(4, "every trace: entries == nc_calls, one NC step leaves each region"):
        exact = [report for d in (2, 5, 10) for _, report in chained_runs[d]]
        exact += [g for _, g, _ in path_runs["pairs"]]
        exact += [report for _, report in fs_runs["runs"]]
        for report in exact:
            assert check_trace_invariants(report)[1] == 0
        # a stochastic escape may miss with probability up to the run's delta
        escapes = misses = 0
        for _, report in stoch_runs["runs"]:
            e, m = check_trace_invariants(report)
            escapes, misses = escapes + e, misses + m
        delta = stoch_runs["runs"][0][1].config["tolerance"]["delta"]
        assert misses <= binomial_tail_bound(escapes, delta)


@pytest.mark.parametrize("name, d, eps", [("saddle_path", 2, 1e-3), ("saddle_path", 10, 1e-3),
                                          ("chained_saddles", 10, 5e-4)])
def test_escape_decrease_where_rho_holds(name, d, eps):
    """Each escape lowers f by at least eps_h**3 / (24 * rho_eff**2), the cubic bound.

    The bound assumes rho bounds the Hessian's change along the step, so the
    runs pass the problem's own known_rho, with eps under the entry bound
    eps_h**2 / (16 * rho_eff).  It holds here: the escapes start near critical
    points inside the box whose constants
    test_problems::test_lipschitz_spot_verification checks, and the step
    eps_h / (2 * rho) is at most 0.028.
    """
    spec = get_problem(name, d=d)
    smooth = SmoothnessSpec(L=spec.known_L, rho=spec.known_rho)
    tol = ToleranceConfig(eps=eps, eps_h=EPS_H, delta=DELTA)
    bound = tol.eps_h ** 3 / (24.0 * smooth.rho_eff ** 2)
    for seed in range(50):
        report = gose_deterministic(spec.oracle, spec.x0, tol, smooth,
                                    rng=np.random.default_rng(seed))
        for a, b in zip(report.trace, report.trace[1:]):
            if a.branch == SMALL and a.escape_taken:
                assert a.f_value - b.f_value >= bound
        assert report.certificate.status == STATUS_SECOND_ORDER
        assert certify_second_order(spec.oracle, report.certificate.point, eps, tol.eps_h)[0]


# ---------------------------------------------------------------------------
# 5. (d+1) curvature-computation bound on the chained-saddle problem


def test_criterion_5_d_plus_one_bound(chained_runs):
    with criterion(5, "chained saddles d in {2,5,10}: certified SOSP with nc_calls <= d+1"):
        for d in (2, 5, 10):
            for prob, report in chained_runs[d]:
                assert report.certificate.status == STATUS_SECOND_ORDER
                assert report.certificate.counters.nc_calls <= d + 1
                ok, _, _ = certify_second_order(prob.oracle,
                                                report.certificate.point,
                                                EPS, EPS_H)
                assert ok
        assert chained_runs["elapsed"] <= 120.0


# ---------------------------------------------------------------------------
# 6. constant-probability success and amplification


def pca_success(pca, report):
    ok, _, _ = certify_second_order(pca.oracle, report.certificate.point,
                                    EPS, EPS_H)
    close = abs(pca.oracle.value(report.certificate.point)
                - pca.known_minimum_value) <= 1e-3
    return ok and close


def test_criterion_6_success_probability(stoch_runs, fs_runs):
    with criterion(6, "success rate: lower 95% bound >= 0.2 per driver; amplify(12) certifies"):
        t0 = time.perf_counter()
        prob = stoch_runs["prob"]
        stoch_ok = sum(
            certify_second_order(prob.oracle, r.certificate.point, EPS, EPS_H)[0]
            for _, r in stoch_runs["runs"])
        assert wilson_lower(stoch_ok, 30) >= 0.2

        pca = fs_runs["prob"]
        fs_ok = sum(pca_success(pca, r) for _, r in fs_runs["runs"])
        assert wilson_lower(fs_ok, 30) >= 0.2

        noisy = stoch_runs["noisy"]
        for base in (100, 200, 300):
            rep = amplify(lambda s: run_stoch(noisy, s), reps=12,
                          certifier=lambda p: certify_second_order(
                              prob.oracle, p, EPS, EPS_H)[0],
                          base_seed=base)
            assert not rep.all_runs_failed
        for base in (100, 200, 300):
            rep = amplify(lambda s: run_pca(pca, s), reps=12,
                          certifier=lambda p: certify_second_order(
                              pca.oracle, p, EPS, EPS_H)[0],
                          base_seed=base)
            assert not rep.all_runs_failed
        total = (stoch_runs["elapsed"] + fs_runs["elapsed"]
                 + time.perf_counter() - t0)
        assert total <= 300.0


# ---------------------------------------------------------------------------
# 7. variance-reduction mechanics


def test_criterion_7_scsg_mechanics():
    with criterion(7, "geometric epoch mean within 5% of B/b; b=B=n=1 epoch == plain GD"):
        t0 = time.perf_counter()
        p = 100.0 / 101.0  # B=100, b=1
        rng = np.random.default_rng(11)
        draws = np.array([sample_geometric(p, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 100.0) <= 5.0

        sphere = get_problem("sphere", d=4)
        fs = as_finite_sum(sphere, 1)
        cfg = ScsgConfig(B=1, b=1, eta=0.2)
        x0 = np.array([1.0, -0.5, 2.0, 0.25])
        table, g = anchor_table(fs.oracle, x0)
        for seed in range(50):
            y = scsg_epoch(fs.oracle, x0, cfg, g, np.random.default_rng(seed), "finite_sum",
                           table=table)
            T = sample_geometric(0.5, np.random.default_rng(seed))
            z = x0.copy()
            for _ in range(T):
                z = z - 0.2 * sphere.oracle.gradient(z)
            assert np.max(np.abs(y - z)) <= 1e-12 * max(1, T)
        assert time.perf_counter() - t0 <= 10.0


# ---------------------------------------------------------------------------
# 8. subsampled-gradient concentration


def test_criterion_8_concentration():
    with criterion(8, "||g_hat - grad f|| <= eps/4 in >= 1-delta of 1000 trials"):
        t0 = time.perf_counter()
        sigma, eps, delta, c = 0.05, 0.05, 0.05, 0.25
        size = math.ceil(96.0 * sigma ** 2 * math.log(1.0 / delta) / (c * eps) ** 2)
        sphere = get_problem("sphere", d=5)
        noisy = with_gradient_noise(sphere, sigma=sigma)
        x = np.ones(5)
        g_true = sphere.oracle.gradient(x)
        rng = np.random.default_rng(5)
        hits = 0
        for _ in range(1000):
            g_hat = noisy.oracle.sample_gradient_batch(x, size, rng)
            hits += np.linalg.norm(g_hat - g_true) <= c * eps
        assert hits / 1000 >= 1.0 - delta
        assert time.perf_counter() - t0 <= 30.0


# ---------------------------------------------------------------------------
# 9. cross-oracle consistency


REGISTERED = [
    ("quadratic_saddle", {"d": 6, "spectrum": [1.0, 0.6, 0.2, -0.2, -0.6, -1.0]}),
    ("bowl_saddle", {"d": 6, "spectrum": [1.0, 0.6, 0.4, 0.3, 0.2, -1.0]}),
    ("chained_saddles", {"d": 6}),
    ("saddle_path", {"d": 4}),
    ("nonconvex_pca", {"n": 30, "d": 6}),
    ("rosenbrock", {"d": 4}),
    ("rastrigin", {"d": 4}),
    ("sphere", {"d": 6}),
]


def test_criterion_9_cross_oracle_consistency():
    with criterion(9, "fd vs analytic HVPs <= 1e-5; certifier vs finder agree >= 99%"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(9)
        for name, params in REGISTERED:
            spec = get_problem(name, **params)
            oracle = spec.oracle
            d = oracle.dimension
            bare = ObjectiveOracle(d, oracle.value, oracle.gradient)
            lo, hi = max(spec.box[0], -2.0), min(spec.box[1], 2.0)
            for _ in range(20):
                x = rng.uniform(lo, hi, d)
                v = rng.standard_normal(d)
                got = finite_diff_hvp(bare, x, v)
                want = oracle.hvp(x, v)
                assert np.linalg.norm(got - want) <= 1e-5 * max(1.0, np.linalg.norm(want)), name

        # certifier vs finder on cases outside the ambiguity bands
        # (-eps_h, -eps_h/2) and |lambda_min + eps_h| < eps_h/4
        agree = kept = 0
        case_rng = np.random.default_rng(99)
        problems = [get_problem("chained_saddles", d=6),
                    get_problem("bowl_saddle", d=6,
                                spectrum=[1.0, 0.6, 0.4, 0.3, 0.2, -1.0]),
                    get_problem("nonconvex_pca", n=30, d=6)]
        cases = []
        for seed in range(300):
            r = np.random.default_rng(10_000 + seed)
            spec_vals = r.uniform(-2.0, 1.5, 12)
            A = planted_symmetric(12, spec_vals, r)
            cases.append((quad_spec(A), np.zeros(12), 2.0))
        for i in range(200):
            prob = problems[i % 3]
            lo, hi = prob.box
            x = case_rng.uniform(max(lo, -1.4), min(hi, 1.4), prob.oracle.dimension)
            cases.append((prob, x, prob.known_L))
        for spec, x, L in cases:
            _, _, lam = certify_second_order(spec.oracle, x, EPS, EPS_H)
            if -1.25 * EPS_H < lam < -0.5 * EPS_H:
                continue
            kept += 1
            out = approx_nc_deterministic(spec.oracle, x, EPS_H, DELTA, L,
                                          case_rng)
            expected_direction = lam <= -1.25 * EPS_H
            agree += (out.is_direction == expected_direction)
        assert kept >= 300  # enough cases survive the band exclusion
        assert agree / kept >= 0.99
        assert time.perf_counter() - t0 <= 60.0


# ---------------------------------------------------------------------------
# 10. curvature-computation savings vs an always-probe baseline


def test_criterion_10_eval_saving(path_runs):
    with criterion(10, "single-saddle path: driver nc_calls <= 2 < 10 <= baseline nc_calls"):
        for prob, g, b in path_runs["pairs"]:
            ng = g.certificate.counters.nc_calls
            nb = b.certificate.counters.nc_calls
            assert ng <= 2
            assert nb >= 10
            assert ng < nb
            assert g.certificate.status == STATUS_SECOND_ORDER
            ok, _, _ = certify_second_order(prob.oracle, g.certificate.point,
                                            EPS, EPS_H)
            assert ok
        assert path_runs["elapsed"] <= 60.0
