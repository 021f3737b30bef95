import dataclasses
import math
import re

import numpy as np
import pytest
from scipy import stats

import gose.problems
import gose.solvers
from gose import (ObjectiveOracle, ScsgConfig, SmoothnessSpec, ToleranceConfig,
                  as_counting, derive_scsg_params, estimate_variance_bound,
                  gd_to_stationarity, get_problem, guarded_agd,
                  sample_geometric, scsg_epoch, with_gradient_noise)
from gose.core import (ConfigError, CountingOracle, EvalCounters, GoseError,
                       MalformedOracleOutput, MissingVarianceBound, NonPositiveConstant,
                       NotFiniteSum, NotStochastic, SizeOutOfRange)
from gose.problems import as_finite_sum
from gose.solvers import ANCHOR_BLOCK_FLOATS, SOLVERS, anchor_table, run_solver
from conftest import planted_symmetric


# ---------------------------------------------------------------------------
# geometric sampler


def test_geometric_mean_matches_B_over_b():
    rng = np.random.default_rng(42)
    p = 100.0 / 101.0  # B=100, b=1, true mean B/b = 100
    draws = np.array([sample_geometric(p, rng) for _ in range(100_000)])
    assert 95.0 <= draws.mean() <= 105.0


def test_geometric_tiny_p_returns_zero():
    rng = np.random.default_rng(0)
    assert all(sample_geometric(1e-9, rng) == 0 for _ in range(100))


def test_geometric_pmf_chi_square():
    # Pr(T=k) = (1/2)**(k+1) at p = 1/2; chi-square over 1e5 draws at 0.01
    rng = np.random.default_rng(7)
    draws = np.array([sample_geometric(0.5, rng) for _ in range(100_000)])
    kmax = 12
    observed = np.array([(draws == k).sum() for k in range(kmax)]
                        + [(draws >= kmax).sum()])
    pmf = np.array([0.5 ** (k + 1) for k in range(kmax)] + [0.5 ** kmax])
    chi2, pval = stats.chisquare(observed, pmf * len(draws))
    assert pval >= 0.01


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 1.5])
def test_geometric_invalid_p(p):
    with pytest.raises(NonPositiveConstant):
        sample_geometric(p, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# parameter derivation


def test_derive_finite_sum_rules():
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=4.0, rho=1.0)
    cfg = derive_scsg_params(tol, smooth, "finite_sum", n=1000)
    assert cfg.B == 1000
    assert cfg.b == 1
    assert cfg.eta == pytest.approx(1.0 / 400.0)  # 1/(4 * 1000**(2/3))
    assert cfg.p == pytest.approx(1000.0 / 1001.0)


def test_derive_finite_sum_clamped_minibatch_derives_p():
    # b_override 500 > n = 200 clamps b to B = 200, so p = B/(B+b) = 1/2
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    cfg = derive_scsg_params(tol, SmoothnessSpec(L=4.0, rho=1.0), "finite_sum",
                             n=200, b_override=500)
    assert (cfg.B, cfg.b, cfg.p) == (200, 200, 0.5)
    with pytest.raises(TypeError):  # p is derived, never passed
        ScsgConfig(B=2, b=1, eta=0.1, p=0.5)


def test_derive_finite_sum_step_follows_the_minibatch():
    # eta = b**(2/3) / (L n**(2/3)) with b after clamping; at b = 1 it keeps
    # the bits of 1/(L n**(2/3)), since 1 ** (2/3) == 1.0
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=8.0, rho=1.0)
    for n in (1, 7, 200, 1000):
        for override in (None, 1):
            cfg = derive_scsg_params(tol, smooth, "finite_sum", n=n, b_override=override)
            assert cfg.eta == 1.0 / (8.0 * n ** (2.0 / 3.0)), (n, override)
    cfg = derive_scsg_params(tol, smooth, "finite_sum", n=200, b_override=8)
    assert (cfg.b, cfg.eta) == (8, 8 ** (2.0 / 3.0) / (8.0 * 200 ** (2.0 / 3.0)))
    assert cfg.eta == pytest.approx(4.0 / (8.0 * 200 ** (2.0 / 3.0)))
    clamped = derive_scsg_params(tol, smooth, "finite_sum", n=200, b_override=500)
    assert (clamped.b, clamped.eta) == (200, 200 ** (2.0 / 3.0) / (8.0 * 200 ** (2.0 / 3.0)))


def test_scsg_config_holds_sizes_and_step_only():
    # the mode is the driver's, passed to scsg_epoch; p is computed from B and b
    assert [f.name for f in dataclasses.fields(ScsgConfig)] == ["B", "b", "eta"]
    assert ScsgConfig(B=3, b=1, eta=0.1).p == 3 / (3 + 1)


def test_derive_stochastic_B_example():
    # B = ceil(96 * 1 * ln(10) / 0.01) = 22105
    tol = ToleranceConfig(eps=0.1, eps_h=0.5, delta=0.1)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=1.0)
    cfg = derive_scsg_params(tol, smooth, "stochastic")
    assert cfg.B == math.ceil(96.0 * math.log(10.0) / 0.01)
    assert cfg.B == 22105
    assert cfg.eta == pytest.approx(cfg.b ** (2 / 3) / (6.0 * cfg.B ** (2 / 3)))


def test_derive_stochastic_degenerate_clamp():
    # eps_h small relative to eps**(2/3) forces the minibatch rule past B
    tol = ToleranceConfig(eps=0.2, eps_h=0.05, delta=0.1)
    smooth = SmoothnessSpec(L=0.1, rho=2.0, h_star=1.0)
    cfg = derive_scsg_params(tol, smooth, "stochastic")
    assert cfg.b == cfg.B


@pytest.mark.parametrize("mode", ["stochastic", "finite_sum"])
@pytest.mark.parametrize("override", ["b_override"])
def test_derive_rejects_override_below_one(mode, override):
    # an override below 1 is rejected, not clamped to 1
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=0.005)
    with pytest.raises(ConfigError, match=r"b_override \(scsg_b\) must be an integer >= 1"):
        derive_scsg_params(tol, smooth, mode, n=50, **{override: 0})


@pytest.mark.parametrize("smooth_kw, tol_kw, named", [
    ({"h_star": 1e300}, {}, "h_star=1e+300"),       # B past MAX_DRAWS
    ({"h_star": 0.005}, {"eps": 1e-200}, "eps=1e-200"),  # eps**2 underflows to 0
])
def test_derive_rejects_batch_size_out_of_range(smooth_kw, tol_kw, named):
    tol = ToleranceConfig(**{"eps": 0.01, "eps_h": 0.5, **tol_kw})
    smooth = SmoothnessSpec(L=1.0, rho=1.0, **smooth_kw)
    with pytest.raises(SizeOutOfRange, match="SCSG batch size B .*" + re.escape(named)):
        derive_scsg_params(tol, smooth, "stochastic")


def test_derive_minibatch_rule_raises_only_when_not_finite():
    # rho**6 overflows at rho=1e60; a finite b rule of any size is clamped to B
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=1e60, h_star=0.005)
    with pytest.raises(SizeOutOfRange, match="SCSG minibatch size b is not finite"):
        derive_scsg_params(tol, smooth, "stochastic")
    cfg = derive_scsg_params(tol, SmoothnessSpec(L=1.0, rho=1e40, h_star=0.005), "stochastic")
    assert cfg.b == cfg.B


def test_derive_requires_variance_bound():
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    with pytest.raises(MissingVarianceBound):
        derive_scsg_params(tol, SmoothnessSpec(L=1.0, rho=1.0), "stochastic")


def test_derive_invariants_hold(rng):
    for _ in range(20):
        tol = ToleranceConfig(eps=float(rng.uniform(0.005, 0.1)),
                              eps_h=float(rng.uniform(0.1, 0.9)),
                              delta=float(rng.uniform(0.01, 0.3)))
        smooth = SmoothnessSpec(L=float(rng.uniform(0.5, 10)),
                                rho=float(rng.uniform(0.001, 3)),
                                h_star=float(rng.uniform(0.001, 2)))
        cfg = derive_scsg_params(tol, smooth, "stochastic")
        assert 1 <= cfg.b <= cfg.B
        assert cfg.eta > 0
        assert 0 < cfg.p < 1


def test_scsg_config_validation():
    with pytest.raises(ConfigError):
        ScsgConfig(B=1, b=2, eta=0.1)
    with pytest.raises(Exception):
        ScsgConfig(B=2, b=1, eta=-0.1)


@pytest.mark.parametrize("sizes, named", [
    ({"B": 10.5, "b": 2}, "B must be an integer >= 1, got 10.5"),
    ({"B": 10, "b": 2.5}, "b must be an integer in [1, 11), got 2.5"),
    ({"B": math.nan, "b": 1}, "B must be an integer >= 1, got nan"),
    ({"B": 10, "b": True}, "b must be an integer in [1, 11), got True")])
def test_scsg_sizes_must_be_integers(sizes, named):
    with pytest.raises(ConfigError, match=f"^{re.escape(named)}"):
        ScsgConfig(eta=0.1, **sizes)
    assert ScsgConfig(B=np.int64(10), b=np.int32(2), eta=0.1).p == 10 / 12


@pytest.mark.parametrize("mode", ["stochastic", "finite_sum"])
@pytest.mark.parametrize("override", ["b_override"])
@pytest.mark.parametrize("value", [1.5, 40.0, math.nan, math.inf])
def test_derive_rejects_a_non_integer_override(mode, override, value):
    # an override is a size: never truncated to an int
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, h_star=0.005)
    with pytest.raises(ConfigError, match=r"b_override \(scsg_b\) must be an integer >= 1"):
        derive_scsg_params(tol, smooth, mode, n=50, **{override: value})
    cfg = derive_scsg_params(tol, smooth, mode, n=50, **{override: np.int64(40)})
    assert cfg.b == 40


@pytest.mark.parametrize("change, error, named", [
    ({"eta": math.nan}, NonPositiveConstant, "eta"),
    ({"eta": math.inf}, NonPositiveConstant, "eta"),
    ({"eta": 0.0}, NonPositiveConstant, "eta"),
    ({"mode": "bogus"}, ConfigError, "mode"),
    ({"mode": "deterministic"}, ConfigError, "mode"),
], ids=["eta_nan", "eta_inf", "eta_zero", "mode_bogus", "mode_deterministic"])
def test_scsg_config_rejects_bad_eta_and_mode(change, error, named):
    # eta is checked by ScsgConfig; the mode, which the driver passes, by
    # scsg_epoch before any draw
    settings = {"eta": 0.1, "mode": "stochastic", **change}
    sphere = get_problem("sphere", d=2)
    oracles = {"stochastic": with_gradient_noise(sphere, sigma=0.1).oracle,
               "finite_sum": as_finite_sum(sphere, 3).oracle}
    co = as_counting(oracles["stochastic"])
    x0 = np.ones(2)
    with pytest.raises(error, match=f"^{named} must"):
        scsg_epoch(co, x0, ScsgConfig(B=4, b=2, eta=settings["eta"]), x0,
                   np.random.default_rng(0), settings["mode"])
    assert co.counters == EvalCounters()
    for mode, oracle in oracles.items():
        table = anchor_table(oracle, x0)[0] if mode == "finite_sum" else None
        scsg_epoch(oracle, x0, ScsgConfig(B=4, b=2, eta=0.1), x0, np.random.default_rng(0), mode,
                   table=table)


@pytest.mark.parametrize("mode, error", [("finite_sum", NotFiniteSum),
                                         ("stochastic", NotStochastic)])
def test_scsg_epoch_rejects_an_oracle_that_cannot_serve_its_mode(mode, error):
    # the exact bowl has neither components nor draws: raise before any draw
    oracle = as_counting(get_problem("bowl_saddle", d=3).oracle)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=f"^{mode} mode needs"):
        scsg_epoch(oracle, np.ones(3), ScsgConfig(B=4, b=2, eta=0.1), np.ones(3), rng, mode)
    assert oracle.counters == EvalCounters()
    assert rng.bit_generator.state == state


def test_estimate_variance_bound_near_two_sigma_squared(rng):
    sphere = get_problem("sphere", d=8)
    noisy = with_gradient_noise(sphere, sigma=0.2)
    est = estimate_variance_bound(noisy.oracle, np.ones(8), rng, samples=512)
    # draws have E||noise||^2 = sigma^2 = 0.04, so the estimate targets 0.08
    assert 0.05 <= est <= 0.12


@pytest.mark.parametrize("samples", [0, 1])
def test_estimate_variance_bound_needs_two_draws(rng, samples):
    noisy = with_gradient_noise(get_problem("sphere", d=2), sigma=0.2)
    with pytest.raises(ConfigError, match=f"samples must be an integer >= 2, got {samples}"):
        estimate_variance_bound(noisy.oracle, np.ones(2), rng, samples=samples)


# ---------------------------------------------------------------------------
# scsg_epoch


def _seed_with_T(p, want):
    for seed in range(1000):
        if sample_geometric(p, np.random.default_rng(seed)) == want:
            return seed
    raise AssertionError("no seed found")


def test_epoch_T_zero_returns_x0_exactly():
    sphere = get_problem("sphere", d=3)
    fs = as_finite_sum(sphere, 1)
    cfg = ScsgConfig(B=1, b=1, eta=0.1)
    seed = _seed_with_T(0.5, 0)
    x0 = np.array([1.0, -2.0, 0.5])
    table, g = anchor_table(fs.oracle, x0)
    y = scsg_epoch(fs.oracle, x0, cfg, g, np.random.default_rng(seed), "finite_sum", table=table)
    np.testing.assert_array_equal(y, x0)


def test_epoch_collapses_to_gd_when_b_B_n_one():
    # the control variate cancels: g_I(y) - g_I(x0) + g_anchor = grad f(y)
    sphere = get_problem("sphere", d=3)
    fs = as_finite_sum(sphere, 1)
    cfg = ScsgConfig(B=1, b=1, eta=0.1)
    seed = _seed_with_T(0.5, 4)
    x0 = np.array([1.0, -2.0, 0.5])
    table, g = anchor_table(fs.oracle, x0)
    y = scsg_epoch(fs.oracle, x0, cfg, g, np.random.default_rng(seed), "finite_sum", table=table)
    T = sample_geometric(0.5, np.random.default_rng(seed))
    z = x0.copy()
    for _ in range(T):
        z = z - 0.1 * sphere.oracle.gradient(z)
    assert np.max(np.abs(y - z)) <= 1e-12 * max(1, T)


def test_epoch_counts_b_T_component_evals():
    # the anchor side comes from the table, so only the y side costs work
    sphere = get_problem("sphere", d=3)
    fs = as_finite_sum(sphere, 4)
    cfg = ScsgConfig(B=4, b=2, eta=0.05)
    seed = _seed_with_T(4.0 / 6.0, 3)
    table, g = anchor_table(fs.oracle, np.ones(3))
    co = as_counting(fs.oracle)
    scsg_epoch(co, np.ones(3), cfg, g, np.random.default_rng(seed), "finite_sum", table=table)
    assert co.counters == EvalCounters(component_grad_evals=2 * 3)  # b * T


def test_epoch_mean_descent_on_finite_sum_quadratic():
    # 100 seeded epochs from a fixed start: mean f(y_T) < f(x0)
    rng = np.random.default_rng(3)
    d, n = 6, 20
    A = planted_symmetric(d, rng.uniform(0.2, 1.0, d), rng)
    comps = A[None] + 0.05 * rng.standard_normal((n, d, d))
    comps = 0.5 * (comps + comps.transpose(0, 2, 1))
    comps -= comps.mean(axis=0, keepdims=True) - A[None]
    oracle = ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x,
        hvp=lambda x, v: A @ v, n_components=n,
        component_gradient=lambda i, x: comps[i] @ x,
    )
    cfg = ScsgConfig(B=n, b=1, eta=1.0 / (1.0 * n ** (2 / 3)))
    x0 = np.full(d, 2.0)
    f0 = oracle.value(x0)
    vals = []
    table, g = anchor_table(oracle, x0)
    for seed in range(100):
        y = scsg_epoch(oracle, x0, cfg, g, np.random.default_rng(seed), "finite_sum", table=table)
        vals.append(oracle.value(y))
    assert np.mean(vals) < f0


def test_epoch_stochastic_common_random_numbers():
    # additive-noise draws replayed at both points cancel exactly, so a
    # zero-variance check: epoch equals anchored full-gradient recursion
    sphere = get_problem("sphere", d=4)
    noisy = with_gradient_noise(sphere, sigma=0.3)
    cfg = ScsgConfig(B=8, b=2, eta=0.05)
    seed = _seed_with_T(8.0 / 10.0, 5)
    x0 = np.ones(4)
    g_anchor = sphere.oracle.gradient(x0)  # exact anchor isolates the noise path
    y = scsg_epoch(noisy.oracle, x0, cfg, g_anchor, np.random.default_rng(seed), "stochastic")
    z = x0.copy()
    for _ in range(5):
        z = z - 0.05 * (sphere.oracle.gradient(z) - sphere.oracle.gradient(x0) + g_anchor)
    assert np.max(np.abs(y - z)) <= 1e-9


def _one_generator_epoch(oracle, x0, cfg, g_anchor, rng):
    # reference: each step draws from the run's generator once, evaluating
    # that draw at y and, from the same generator state, at x0
    T = sample_geometric(cfg.p, rng)
    y = x0.copy()
    for _ in range(T):
        state = rng.bit_generator.state
        g_y = oracle.sample_gradient_batch(y, cfg.b, rng)
        rng.bit_generator.state = state
        g_0 = oracle.sample_gradient_batch(x0, cfg.b, rng)
        y = y - cfg.eta * (g_y - g_0 + g_anchor)
    return y, T


def _noisy_bowl_oracles():
    noisy = with_gradient_noise(get_problem("bowl_saddle", d=6, seed=1), sigma=0.2)
    base = noisy.oracle
    # only single draws: sample_gradient_batch takes the row-replay fallback
    draws_only = ObjectiveOracle(6, base.value, base.gradient,
                                 sample_gradient=base.sample_gradient)
    return {"batch_callable": base, "row_replay": draws_only}


@pytest.mark.parametrize("kind", ["batch_callable", "row_replay"])
def test_epoch_stochastic_stream_matches_one_generator_reference(kind):
    oracle = _noisy_bowl_oracles()[kind]
    cfg = ScsgConfig(B=40, b=3, eta=0.05)
    x0 = np.linspace(-1.0, 1.0, 6)
    g_anchor = oracle.gradient(x0)
    for seed in range(20):
        co = as_counting(oracle)
        rng = np.random.default_rng(seed)
        y = scsg_epoch(co, x0, cfg, g_anchor, rng, "stochastic")
        ref_rng = np.random.default_rng(seed)
        ref, T = _one_generator_epoch(oracle, x0, cfg, g_anchor, ref_rng)
        assert y.tobytes() == ref.tobytes(), seed
        assert co.counters.stoch_grad_evals == 2 * cfg.b * T
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def test_drawn_epoch_over_several_blocks_matches_the_stacked_epoch(monkeypatch):
    # blocks of 4 steps, and one minibatch per normal block in the noisy view:
    # the drawn epoch gives the stacked epoch's point, counters and generator
    # state, so each block draws afresh and anchors at x0
    monkeypatch.setattr(gose.solvers, "ANCHOR_BLOCK_FLOATS", 4 * 6)
    monkeypatch.setattr(gose.problems, "ANCHOR_BLOCK_FLOATS", 4 * 6)
    noisy = _noisy_bowl_oracles()["batch_callable"]
    stacked = ObjectiveOracle(6, noisy.value, noisy.gradient, sample_gradient=noisy.sample_gradient,
                              sample_gradient_batch=noisy.sample_gradient_batch)
    cfg = ScsgConfig(B=40, b=3, eta=0.05)
    x0 = np.linspace(-1.0, 1.0, 6)
    g_anchor = noisy.gradient(x0)
    steps = []
    for seed in range(20):
        ends = []
        for oracle in (noisy, stacked):
            co, rng = as_counting(oracle), np.random.default_rng(seed)
            y = scsg_epoch(co, x0, cfg, g_anchor, rng, "stochastic")
            ends.append((y.tobytes(), co.counters, rng.bit_generator.state))
        assert ends[0] == ends[1], seed
        steps.append(co.counters.stoch_grad_evals // (2 * cfg.b))
    assert max(steps) > 8, steps  # some epochs span three blocks or more


def test_epoch_stochastic_batch_callable_of_wrong_shape_raises_typed_error():
    # a batch callable that knows only one point answers the (2, d) stack of
    # (y, x0) with one pooled (d,) mean; g[0] - g[1] would be a scalar step
    noisy = with_gradient_noise(get_problem("bowl_saddle", d=4, seed=2), sigma=0.3).oracle

    def pooled(x, m, rng):
        return np.mean([noisy.sample_gradient(p, rng)
                        for p in np.atleast_2d(x) for _ in range(m)], axis=0)

    oracle = ObjectiveOracle(4, noisy.value, noisy.gradient, hvp=noisy.hvp,
                             sample_gradient=noisy.sample_gradient,
                             sample_gradient_batch=pooled)
    x0 = np.linspace(-1.0, 1.0, 4)
    assert oracle.sample_gradient_batch(x0, 3, np.random.default_rng(0)).shape == (4,)
    with pytest.raises(MalformedOracleOutput, match="sample_gradient_batch returned shape"):
        oracle.sample_gradient_batch(np.stack([x0, x0]), 3, np.random.default_rng(0))
    seed = _seed_with_T(40.0 / 43.0, 3)
    with pytest.raises(MalformedOracleOutput, match="sample_gradient_batch"):
        scsg_epoch(oracle, x0, ScsgConfig(B=40, b=3, eta=0.05), oracle.gradient(x0),
                   np.random.default_rng(seed), "stochastic")


def _per_step_draw_epoch(oracle, x0, cfg, g_anchor, rng, anchor):
    # reference: fresh indices drawn on every inner step; anchor(idx) is g_I(x0)
    T = sample_geometric(cfg.p, rng)
    y = x0.copy()
    for _ in range(T):
        idx = rng.integers(0, oracle.n_components, size=cfg.b)
        g_y = oracle.component_gradient_batch(idx, y)
        y = y - cfg.eta * (g_y - anchor(idx) + g_anchor)
    return y, T


TABLE_ROWS = ANCHOR_BLOCK_FLOATS // 20  # rows per anchor_table call, d=20


def _pca_oracles(n=200):
    base = get_problem("nonconvex_pca", n=n, d=20, seed=13).oracle
    # component gradients only: component_gradient_batch takes the loop fallback
    loop_only = ObjectiveOracle(20, base.value, base.gradient,
                                n_components=base.n_components,
                                component_gradient=base.component_gradient)
    return {"batch_callable": base, "loop_fallback": loop_only}


def _row_by_row_table(oracle, x):
    # reference table: one 1-D component_gradient_batch call per component
    return np.stack([oracle.component_gradient_batch(np.array([i]), x)
                     for i in range(oracle.n_components)])


@pytest.mark.parametrize("kind", ["batch_callable", "loop_fallback"])
@pytest.mark.parametrize("n", [200, TABLE_ROWS + 724], ids=["one_block", "two_blocks"])
def test_anchor_table_rows_match_one_dimensional_calls(kind, n):
    # row i is component i's gradient bit for bit, n units in all, and the
    # mean adds the rows in index order
    oracle = _pca_oracles(n)[kind]
    x = np.random.default_rng(n).standard_normal(20)
    co = as_counting(oracle)
    table, mean = anchor_table(co, x)
    assert co.counters == EvalCounters(component_grad_evals=n)
    assert table.tobytes() == _row_by_row_table(oracle, x).tobytes()
    acc = table[0].copy()
    for row in table[1:]:
        acc += row
    assert mean.tobytes() == (acc / n).tobytes()
    np.testing.assert_allclose(mean, oracle.gradient(x), rtol=0, atol=1e-12 * n)


def test_anchor_table_needs_a_finite_sum_oracle():
    # was a bare IndexError from the empty table's mean
    oracle = as_counting(get_problem("chained_saddles", d=4).oracle)
    with pytest.raises(NotFiniteSum, match="^finite_sum mode needs"):
        anchor_table(oracle, np.ones(4))
    assert oracle.counters == EvalCounters()


@pytest.mark.parametrize("kind", ["batch_callable", "loop_fallback"])
@pytest.mark.parametrize("b, B, n, seeds", [
    pytest.param(1, 40, 200, 20, id="1"),
    pytest.param(3, 40, 200, 20, id="3"),
    # n passes one anchor_table call, so the table is built from two blocks
    pytest.param(32, 320, TABLE_ROWS + 724, 4, id="32-anchor_blocks"),
])
def test_epoch_finite_sum_stream_matches_per_step_draws(kind, b, B, n, seeds):
    # anchors are the reference table's rows added to zeros in index order,
    # over b; each step's y side is one call, b units
    oracle = _pca_oracles(n)[kind]
    cfg = ScsgConfig(B=B, b=b, eta=0.05)
    x0 = np.linspace(-0.5, 0.5, 20)
    table, g_anchor = anchor_table(oracle, x0)
    rows = _row_by_row_table(oracle, x0)
    assert (n > TABLE_ROWS) == (B == 320)
    for seed in range(seeds):
        co = as_counting(oracle)
        rng = np.random.default_rng(seed)
        y = scsg_epoch(co, x0, cfg, g_anchor, rng, "finite_sum", table=table)
        ref_rng = np.random.default_rng(seed)
        ref, T = _per_step_draw_epoch(oracle, x0, cfg, g_anchor, ref_rng,
                                      lambda idx: sum((rows[i] for i in idx), np.zeros(20)) / b)
        assert y.tobytes() == ref.tobytes(), seed
        assert co.counters == EvalCounters(component_grad_evals=b * T)
        assert rng.random() == ref_rng.random(), seed


def _per_step_row_epoch(oracle, x0, cfg, g_anchor, rng, table):
    # reference: the anchor side read from the table one step at a time
    T = sample_geometric(cfg.p, rng)
    y = x0.copy()
    for idx in rng.integers(0, oracle.n_components, size=(T, cfg.b)):
        if cfg.b == 1:
            g_0 = table[idx[0]]
        else:
            g_0 = np.zeros(oracle.dimension)
            for i in idx:
                g_0 += table[i]
            g_0 /= cfg.b
        step = oracle.component_gradient_batch(idx, y) - g_0
        step += g_anchor
        step *= cfg.eta
        y -= step
    return y, T


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("mean_T", [200, 5000], ids=["one_gather", "gather_blocks"])
def test_gathered_anchor_epoch_matches_per_step_rows(b, mean_T):
    # equal points, counters and generator states; an epoch of more than
    # TABLE_ROWS steps gathers its anchor rows in blocks
    oracle = _pca_oracles()["batch_callable"]
    cfg = ScsgConfig(B=mean_T * b, b=b, eta=1e-4)
    x0 = np.linspace(-0.5, 0.5, 20)
    table, g_anchor = anchor_table(oracle, x0)
    lengths = []
    for seed in range(4 if mean_T > TABLE_ROWS else 12):
        co, rng, ref_rng = (as_counting(oracle), np.random.default_rng(seed),
                            np.random.default_rng(seed))
        y = scsg_epoch(co, x0, cfg, g_anchor, rng, "finite_sum", table=table)
        ref, T = _per_step_row_epoch(oracle, x0, cfg, g_anchor, ref_rng, table)
        assert y.tobytes() == ref.tobytes(), seed
        assert co.counters == EvalCounters(component_grad_evals=b * T)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        lengths.append(T)
    assert (max(lengths) > TABLE_ROWS) == (mean_T > TABLE_ROWS), lengths


@pytest.mark.parametrize("b", [1, 3])
def test_epoch_on_the_loop_fallback_matches_measured_anchors(b):
    # the loop fallback sums a row's component gradients to zeros in order,
    # as the table epoch sums its rows, so given the same g_anchor the epoch
    # equals one that measures g_I(x0) at every step
    oracle = _pca_oracles()["loop_fallback"]
    cfg = ScsgConfig(B=40, b=b, eta=0.05)
    x0 = np.linspace(-0.5, 0.5, 20)
    table, g_anchor = anchor_table(oracle, x0)
    for seed in range(20):
        y = scsg_epoch(oracle, x0, cfg, g_anchor, np.random.default_rng(seed), "finite_sum",
                       table=table)
        ref, _ = _per_step_draw_epoch(oracle, x0, cfg, g_anchor, np.random.default_rng(seed),
                                      lambda idx: oracle.component_gradient_batch(idx, x0))
        assert y.tobytes() == ref.tobytes(), seed


@pytest.mark.parametrize("change", [
    lambda t: None, lambda t: t[:-1], lambda t: t.T, lambda t: t[None], lambda t: t[:, 0],
], ids=["missing", "short", "transposed", "stacked", "one_column"])
def test_epoch_finite_sum_rejects_a_missing_or_misshapen_table(change):
    # checked before any draw or oracle work
    oracle = as_counting(_pca_oracles()["batch_callable"])
    x0 = np.linspace(-0.5, 0.5, 20)
    table, g_anchor = anchor_table(_pca_oracles()["batch_callable"], x0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match=r"finite_sum epoch needs the anchor table of shape"
                                          r" \(200, 20\)"):
        scsg_epoch(oracle, x0, ScsgConfig(B=200, b=1, eta=0.05), g_anchor, rng, "finite_sum",
                   table=change(table))
    assert oracle.counters == EvalCounters()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("kind", ["batch_callable", "loop_fallback"])
@pytest.mark.parametrize("b", [1, 3, 32])
def test_component_gradient_batch_rows_match_one_dimensional_calls(kind, b):
    # (T, b) indices give (T, d) means, each row byte-equal to its 1-D call
    oracle = _pca_oracles()[kind]
    cap = ANCHOR_BLOCK_FLOATS // (b * 20)
    rng = np.random.default_rng(b)
    for T in (1, int(rng.integers(2, cap)), cap + int(rng.integers(1, 100))):
        indices = rng.integers(0, oracle.n_components, size=(T, b))
        x = rng.standard_normal(20)
        co = as_counting(oracle)
        rows = co.component_gradient_batch(indices, x)
        assert rows.shape == (T, 20)
        assert co.counters.component_grad_evals == T * b
        for idx, row in zip(indices, rows):
            assert row.tobytes() == oracle.component_gradient_batch(idx, x).tobytes(), (T, b)


@pytest.mark.parametrize("n", [1, 2, 200, 2**32 + 5])
def test_integer_draw_chunking_is_stream_neutral(n):
    # scsg_epoch draws one (T, b) block in place of T draws of size b, which
    # keeps the stream only if numpy fills bounded integers element by element
    for seed in range(10):
        for T, b in [(1, 1), (7, 1), (5, 3), (13, 4)]:
            block_rng = np.random.default_rng(seed)
            step_rng = np.random.default_rng(seed)
            block = block_rng.integers(0, n, size=(T, b))
            steps = np.stack([step_rng.integers(0, n, size=b) for _ in range(T)])
            assert block.tobytes() == steps.tobytes(), (seed, T, b)
            assert block_rng.bit_generator.state == step_rng.bit_generator.state


@pytest.mark.parametrize("d", [1, 2, 10, 200])
@pytest.mark.parametrize("m", [1, 2, 3, 7, 32, 11053])
def test_normal_draw_blocks_are_stream_neutral(d, m):
    # the noisy view draws k minibatches as (j, m, d) normal blocks and sums
    # each over axis 1 into its row: the values, the generator state and the
    # per-draw add.reduce bits of k draws of (m, d), however k is split
    # (at d = 1 add.reduce pairs the rows rather than adding them in order)
    k = 5 if m * d <= 10 ** 5 else 2
    for seed in range(2):
        step_rng = np.random.default_rng(seed)
        steps = [step_rng.standard_normal((m, d)) for _ in range(k)]
        for split in sorted({k, 2, 1}):
            block_rng = np.random.default_rng(seed)
            sums = np.empty((k, d))
            for start in range(0, k, split):
                block = block_rng.standard_normal((min(split, k - start), m, d))
                for j, draw in enumerate(block, start):
                    assert draw.tobytes() == steps[j].tobytes(), (seed, split, j)
                np.add.reduce(block, 1, out=sums[start:start + split])
            assert block_rng.bit_generator.state == step_rng.bit_generator.state
            for j, draw in enumerate(steps):
                assert sums[j].tobytes() == np.add.reduce(draw, 0).tobytes(), (seed, split, j)


class BatchCallCounter(CountingOracle):
    calls = 0

    def sample_gradient_batch(self, x, m, rng):
        self.calls += 1
        return super().sample_gradient_batch(x, m, rng)


@pytest.mark.parametrize("drawn", [True, False])
def test_epoch_stochastic_makes_one_batch_call_per_step(drawn):
    # with sample_draws: one call per step at y, and one for the block's anchors;
    # without it: one stacked (y, x0) call per step
    noisy = with_gradient_noise(get_problem("sphere", d=4), sigma=0.3).oracle
    if not drawn:
        noisy = ObjectiveOracle(4, noisy.value, noisy.gradient, hvp=noisy.hvp,
                                sample_gradient=noisy.sample_gradient,
                                sample_gradient_batch=noisy.sample_gradient_batch)
    cfg = ScsgConfig(B=8, b=2, eta=0.05)
    seed = _seed_with_T(8.0 / 10.0, 5)
    co = BatchCallCounter(noisy)
    scsg_epoch(co, np.ones(4), cfg, np.ones(4), np.random.default_rng(seed), "stochastic")
    assert co.calls == (5 + 1 if drawn else 5)
    assert co.counters.stoch_grad_evals == 2 * 2 * 5


def _bowl_over(gradient, d=6, seed=1):
    """The bowl_saddle problem with its gradient callable replaced by `gradient(bowl, x)`."""
    bowl = get_problem("bowl_saddle", d=d, seed=seed)
    base = ObjectiveOracle(d, bowl.oracle.value, lambda x: gradient(bowl, x),
                           hvp=bowl.oracle.hvp)
    return bowl, dataclasses.replace(bowl, oracle=base)


def test_epoch_on_the_noisy_view_measures_its_anchor_once():
    calls = []

    def gradient(bowl, x):
        calls.append(x.copy())
        return bowl.oracle.gradient(x)

    _, counted = _bowl_over(gradient)
    cfg = ScsgConfig(B=8, b=2, eta=0.05)
    T = 5
    co = as_counting(with_gradient_noise(counted, sigma=0.2).oracle)
    x0 = np.linspace(-1.0, 1.0, 6)
    scsg_epoch(co, x0, cfg, np.ones(6), np.random.default_rng(_seed_with_T(8.0 / 10.0, T)),
               "stochastic")
    assert len(calls) == T + 1  # one per step at y, and x0 once per block of steps
    assert sum(c.tobytes() == x0.tobytes() for c in calls) == 2  # y starts at x0
    assert co.counters.stoch_grad_evals == 2 * cfg.b * T  # the counting model is unchanged


def _memo_free_batch(base, sigma):
    """The noisy view's stacked draw, measuring every row's base gradient afresh."""
    d = base.dimension
    coord = sigma / math.sqrt(d)

    def batch(x, m, rng):
        noise = coord * (rng.standard_normal((m, d)).sum(axis=0) / m)
        return np.array([base.gradient(p) for p in np.atleast_2d(x)]).reshape(x.shape) + noise

    return batch


def test_noisy_view_stack_matches_a_memo_free_reference_across_epochs():
    # the drawn epoch against the stacked one of an oracle without
    # sample_draws: two epochs per seed, the second anchored where the first
    # ended, and all seeds on one oracle, so no state may carry over
    bowl = get_problem("bowl_saddle", d=6, seed=1)
    noisy = with_gradient_noise(bowl, sigma=0.2).oracle
    reference = ObjectiveOracle(6, noisy.value, noisy.gradient, hvp=noisy.hvp,
                                sample_gradient=noisy.sample_gradient,
                                sample_gradient_batch=_memo_free_batch(bowl.oracle, 0.2))
    cfg = ScsgConfig(B=40, b=3, eta=0.05)
    moved = 0
    for seed in range(10):
        ends = []
        for oracle in (noisy, reference):
            rng = np.random.default_rng(seed)
            anchors = [np.linspace(-1.0, 1.0, 6)]
            for _ in range(2):
                x = anchors[-1]
                anchors.append(scsg_epoch(oracle, x, cfg, oracle.gradient(x), rng, "stochastic"))
            ends.append((b"".join(a.tobytes() for a in anchors), rng.bit_generator.state))
        assert ends[0] == ends[1], seed
        moved += len({a.tobytes() for a in anchors}) == 3
    assert moved >= 5  # most seeds changed the anchor between the epochs


def test_noisy_view_keeps_a_copy_of_the_base_gradient():
    # a gradient callable that answers in one reused buffer: each stack row
    # must be read before the next row's call overwrites that buffer
    buf = np.empty(6)

    def gradient(bowl, x):
        buf[:] = bowl.oracle.gradient(x)
        return buf

    bowl, shared = _bowl_over(gradient)
    reused = with_gradient_noise(shared, sigma=0.2).oracle
    fresh = with_gradient_noise(bowl, sigma=0.2).oracle
    points = np.stack([np.linspace(-1.0, 1.0, 6)] * 2)
    for step in range(4):
        got = reused.sample_gradient_batch(points, 3, np.random.default_rng(step))
        want = fresh.sample_gradient_batch(points, 3, np.random.default_rng(step))
        assert got.tobytes() == want.tobytes(), step
        points[0] -= 0.1 * got[0]


# ---------------------------------------------------------------------------
# first-order solvers


def test_gd_sphere_one_step():
    sphere = get_problem("sphere", d=2)
    res = gd_to_stationarity(sphere.oracle, np.array([1.0, 0.0]), 1.0, 0.01)
    assert res.converged
    assert res.grad_norm == 0.0
    np.testing.assert_allclose(res.point, [0.0, 0.0])


def test_gd_rosenbrock_monotone_to_tolerance():
    ros = get_problem("rosenbrock", d=2)
    seen = []
    base = ros.oracle

    class Recording:
        dimension = 2
        n_components = 0
        capabilities = base.capabilities

        def gradient(self, x):
            seen.append(np.array(x))
            return base.gradient(x)

        def value(self, x):
            return base.value(x)

    res = gd_to_stationarity(Recording(), np.array([-1.2, 1.0]), 800.0, 1e-3)
    assert res.converged
    assert res.grad_norm <= 1e-3
    values = [base.value(x) for x in seen]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_gd_linear_function_exhausts_budget(monkeypatch):
    monkeypatch.setattr(gose.solvers, "MAX_ITERS", 100)
    c = np.array([1.0, 2.0])
    lin = ObjectiveOracle(2, lambda x: float(c @ x), lambda x: c.copy())
    res = gd_to_stationarity(lin, np.zeros(2), 1.0, 0.01)
    assert not res.converged
    assert res.iters == 100


def test_agd_beats_gd_on_conditioned_quadratic():
    prob = get_problem("quadratic_saddle", d=10,
                       spectrum=list(np.linspace(0.01, 1.0, 10)), orth=False)
    x0 = np.ones(10)
    gd_oracle = as_counting(prob.oracle)
    gd = gd_to_stationarity(gd_oracle, x0, 1.0, 1e-6)
    agd_oracle = as_counting(prob.oracle)
    agd = guarded_agd(agd_oracle, x0, 1.0, 1e-6)
    assert gd.converged and agd.converged
    assert agd_oracle.counters.grad_evals < gd_oracle.counters.grad_evals


def test_agd_sphere_converges():
    sphere = get_problem("sphere", d=4)
    res = guarded_agd(sphere.oracle, np.ones(4), 1.0, 1e-8)
    assert res.converged
    assert np.linalg.norm(res.point) <= 1e-7


def test_agd_output_contract_on_nonconvex_starts():
    # any run: grad norm <= eps or flagged, and f(out) <= f(x0)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        chain = get_problem("chained_saddles", d=4)
        x0 = rng.uniform(-1.2, 1.2, 4)
        res = guarded_agd(chain.oracle, x0, chain.known_L, 1e-4)
        assert chain.oracle.value(res.point) <= chain.oracle.value(x0) + 1e-12
        if res.converged:
            assert res.grad_norm <= 1e-4


@pytest.mark.parametrize("cap", [3, 50_000])
def test_solve_result_carries_the_value_agd_measured(monkeypatch, cap):
    # agd values every point it returns and hands that value back; gd values none
    monkeypatch.setattr(gose.solvers, "MAX_ITERS", cap)
    chain = get_problem("chained_saddles", d=4)
    for seed in range(10):
        x0 = np.random.default_rng(seed).uniform(-1.2, 1.2, 4)
        res = guarded_agd(chain.oracle, x0, chain.known_L, 1e-4)
        assert res.value == chain.oracle.value(res.point)
        assert gd_to_stationarity(chain.oracle, x0, chain.known_L, 1e-4).value is None


def test_solver_convergence_budget_rule():
    # both solvers converge on the convex suite within 10*L*Delta_f/eps**2
    for name in ("gd", "agd"):
        prob = get_problem("quadratic_saddle", d=5,
                           spectrum=[0.2, 0.4, 0.6, 0.8, 1.0], orth=True)
        x0 = np.ones(5)
        delta_f = prob.oracle.value(x0)
        eps = 0.05
        budget = int(10 * 1.0 * delta_f / eps ** 2)
        res = run_solver(name, prob.oracle, x0, 1.0, eps)
        assert res.converged and res.iters <= budget, name


def test_run_solver_unknown_name():
    sphere = get_problem("sphere", d=2)
    with pytest.raises(ConfigError):
        run_solver("newton", sphere.oracle, np.ones(2), 1.0, 0.01)
    # SOLVERS is the one name -> solver table; a name outside it costs no work
    assert SOLVERS == {"agd": guarded_agd, "gd": gd_to_stationarity}
    oracle = as_counting(sphere.oracle)
    with pytest.raises(ConfigError, match=re.escape("unknown solver 'bogus'; options: ['agd', 'gd']")):
        run_solver("bogus", oracle, np.ones(2), 1.0, 0.01)
    assert oracle.counters == EvalCounters()


@pytest.mark.parametrize("solver", [gd_to_stationarity, guarded_agd])
@pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0, "1", True])
def test_solver_rejects_bad_L_before_any_oracle_call(solver, L):
    chain = get_problem("chained_saddles", d=5)
    oracle = CountingOracle(chain.oracle)
    with pytest.raises(GoseError, match="^L must be"):
        solver(oracle, chain.x0 + 0.3, L=L, eps=1e-4)
    assert oracle.counters.work_units() == 0


def sign_of_zero_oracle():
    # f = |x|**2/2 + sum|x|/1000, whose (sub)gradient tells -0.0 from +0.0
    return ObjectiveOracle(2, lambda x: 0.5 * float(x @ x) + 1e-3 * float(np.abs(x).sum()),
                           lambda x: x + 1e-3 * np.copysign(1.0, x))


@pytest.mark.parametrize("solver, x0, saved", [
    ("gd", [0.5, 1.0], 1), ("agd", [0.5, 1.0], 1), ("gd", [-0.0, 1.0], 1),
    # agd's first point x0 + 0 * 0 turns -0.0 into +0.0, so it measures there
    ("agd", [-0.0, 1.0], 0),
])
def test_solver_reuses_the_entry_gradient_and_returns_the_exit_one(solver, x0, saved):
    x0 = np.array(x0)
    runs = []
    for g0 in (None, sign_of_zero_oracle().gradient(x0)):
        oracle = as_counting(sign_of_zero_oracle())
        res = run_solver(solver, oracle, x0, 2.0, 1e-2, g0=g0)
        assert res.gradient.tobytes() == oracle.gradient(res.point).tobytes()
        runs.append((res.point.tobytes(), res.grad_norm, res.converged, res.iters,
                     res.gradient.tobytes(), oracle.counters.grad_evals - 1))
    (*plain, plain_evals), (*reused, reused_evals) = runs
    assert reused == plain
    assert plain_evals - reused_evals == saved



@pytest.mark.parametrize("broken", ["value", "gradient"])
def test_agd_stops_unconverged_at_a_non_finite_measurement(broken):
    # a NaN value or gradient at x0 ends the solve at x0 before any step
    sphere = get_problem("sphere", d=3).oracle
    value = (lambda x: math.nan) if broken == "value" else sphere.value
    gradient = (lambda x: np.full(3, np.nan)) if broken == "gradient" else sphere.gradient
    oracle = as_counting(ObjectiveOracle(3, value, gradient))
    x0 = np.ones(3)
    res = guarded_agd(oracle, x0, 1.0, 1e-6)
    assert not res.converged and res.iters == 0
    np.testing.assert_array_equal(res.point, x0)
    assert math.isnan(res.grad_norm) == (broken == "gradient")
    assert math.isnan(res.value) == (broken == "value")
    assert (oracle.counters.fn_evals, oracle.counters.grad_evals) == (1, 2)
