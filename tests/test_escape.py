import math

import numpy as np
import pytest

from gose import (EscapeConfig, ObjectiveOracle, SmoothnessSpec,
                  ToleranceConfig, adjust_direction, as_counting,
                  certify_second_order, escape_step_length, get_problem,
                  make_nonconvex_pca, one_step_deterministic,
                  one_step_finite_sum, one_step_stochastic, validate_config,
                  with_gradient_noise)
from gose.core import ConfigError, NotFiniteSum, NotStochastic
from gose.problems import as_finite_sum
from conftest import planted_symmetric

TOL = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01, c1=1.0)
UNIT_RHO = SmoothnessSpec(L=1.0, rho=0.0, rho_min=1.0)  # rho_eff = 1


def saddle_problem():
    return get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)


# ---------------------------------------------------------------------------
# adjust_direction


def test_adjust_flips_aligned_direction():
    out = adjust_direction(np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(out, [-1.0, 0.0])


def test_adjust_keeps_orthogonal_direction_sign_zero_is_plus():
    out = adjust_direction(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    np.testing.assert_array_equal(out, [0.0, 1.0])


def test_adjust_keeps_descent_aligned_direction():
    g = np.array([-2.0, 1.0])
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert float(g @ v) == pytest.approx(-1.0 / math.sqrt(2.0))  # already <= 0
    np.testing.assert_array_equal(adjust_direction(g, v), v)


def test_adjust_output_never_ascends(rng):
    for _ in range(100):
        g = rng.standard_normal(5)
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert float(g @ adjust_direction(g, v)) <= 1e-12


# ---------------------------------------------------------------------------
# constants from the step coefficient


def test_decrease_constants_at_default_coefficient():
    esc = EscapeConfig(c_h=0.5)
    assert esc.c_prime_det == pytest.approx(1.0 / 24.0)    # 1/16 - 1/48
    assert esc.c_prime_stoch == pytest.approx(1.0 / 48.0)  # 1/16 - 1/24


def test_window_validation_rejects_out_of_window_coefficients():
    vcfg = validate_config(TOL, UNIT_RHO, "deterministic")
    EscapeConfig(c_h=0.5).validate(vcfg)  # centered, always fine
    with pytest.raises(ConfigError):
        EscapeConfig(c_h=1.4).validate(vcfg)  # outside gradient-growth window
    svcfg = validate_config(TOL, UNIT_RHO, "stochastic")
    with pytest.raises(ConfigError):
        EscapeConfig(c_h=0.8).validate(svcfg)  # above the stochastic cap 3/4


def test_unknown_subsample_rule_rejected_on_construction():
    with pytest.raises(ConfigError, match="s_rule"):
        EscapeConfig(s_rule="bogus")


def test_subsample_size_rules():
    esc = EscapeConfig(s_mult=4.0, c_conc=0.25)
    vcfg = validate_config(TOL, UNIT_RHO, "stochastic")
    size_h = esc.subsample_size(vcfg)
    assert size_h == math.ceil(4.0 * math.log(1 / 0.01) / 0.25)
    smooth = SmoothnessSpec(L=1.0, rho=0.0, rho_min=1.0, sigma=0.1)
    vcfg_s = validate_config(TOL, smooth, "stochastic")
    esc_eps = EscapeConfig(s_mult=4.0, c_conc=0.25, s_rule="eps")
    size_e = esc_eps.subsample_size(vcfg_s)
    assert size_e == math.ceil(4.0 * 0.01 * math.log(100) / (0.25 * 0.01) ** 2)
    esc_auto = EscapeConfig(s_mult=4.0, c_conc=0.25, s_rule="auto")
    assert esc_auto.subsample_size(vcfg_s) == max(size_h, size_e)


# ---------------------------------------------------------------------------
# deterministic escape


def test_one_step_deterministic_hand_example(rng):
    # eta = 0.5/(2*1*1) = 0.25; y = (0, +-0.25); f(y) - f(0) = -0.03125;
    # grad f(y) = (0, -+0.25) so its norm 0.25 > eps
    prob = saddle_problem()
    res = one_step_deterministic(prob.oracle, np.zeros(2), TOL, UNIT_RHO,
                                 EscapeConfig(), rng)
    assert res.escaped
    y = res.point
    assert abs(y[0]) <= 1e-9
    assert abs(abs(y[1]) - 0.25) <= 1e-9
    drop = prob.oracle.value(y) - prob.oracle.value(np.zeros(2))
    assert drop == pytest.approx(-0.03125, abs=1e-9)
    assert drop <= -(1.0 / 24.0) * 0.5 ** 3 / 1.0  # -C' eps_h^3 / (c1 rho_eff)^2
    assert np.linalg.norm(prob.oracle.gradient(y)) > TOL.eps


def test_one_step_deterministic_convex_returns_bottom(rng):
    prob = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], orth=True)
    res = one_step_deterministic(prob.oracle, np.zeros(3), TOL,
                                 SmoothnessSpec(L=2.0, rho=0.0, rho_min=1.0),
                                 EscapeConfig(), rng)
    assert not res.escaped
    assert res.point is None


def test_one_step_deterministic_chained_saddle(rng):
    chain = get_problem("chained_saddles", d=4)
    smooth = SmoothnessSpec(L=chain.known_L, rho=0.0, rho_min=1.0)
    for s in chain.planted_saddles:
        res = one_step_deterministic(chain.oracle, s, TOL, smooth, EscapeConfig(), rng)
        assert res.escaped
        assert chain.oracle.value(res.point) < chain.oracle.value(s)
        assert np.linalg.norm(chain.oracle.gradient(res.point)) > TOL.eps


def test_step_length_is_exact(rng):
    prob = saddle_problem()
    vcfg = validate_config(TOL, UNIT_RHO, "deterministic")
    eta = escape_step_length(vcfg, EscapeConfig())
    assert eta == pytest.approx(0.25)
    res = one_step_deterministic(prob.oracle, np.zeros(2), TOL, UNIT_RHO,
                                 EscapeConfig(), rng)
    assert np.linalg.norm(res.point - np.zeros(2)) == pytest.approx(eta, abs=1e-9)


def test_escape_descent_alignment_per_call(rng):
    # the taken direction (y - x)/eta never ascends against the exact gradient
    chain = get_problem("chained_saddles", d=5)
    smooth = SmoothnessSpec(L=chain.known_L, rho=0.0, rho_min=1.0)
    vcfg = validate_config(TOL, smooth, "deterministic")
    eta = escape_step_length(vcfg, EscapeConfig())
    for s in chain.planted_saddles:
        x = np.asarray(s, float) + 1e-3  # slightly off the saddle: nonzero gradient
        res = one_step_deterministic(chain.oracle, x, TOL, smooth,
                                     EscapeConfig(), rng)
        assert res.escaped
        v_tilde = (res.point - x) / eta
        assert float(chain.oracle.gradient(x) @ v_tilde) <= 1e-12


def test_escape_counts_one_step(rng):
    prob = saddle_problem()
    co = as_counting(prob.oracle)
    one_step_deterministic(co, np.zeros(2), TOL, UNIT_RHO, EscapeConfig(), rng)
    assert co.counters.nc_calls == 1
    assert co.counters.escape_steps == 1
    one_step_deterministic(co, np.zeros(2), TOL, UNIT_RHO, EscapeConfig(), rng,
                           g=np.zeros(2))
    assert co.counters.escape_steps == 2
    # bottom consumes an NC call but no step
    conv = get_problem("quadratic_saddle", d=2, spectrum=[1.0, 2.0], orth=False)
    co2 = as_counting(conv.oracle)
    one_step_deterministic(co2, np.zeros(2), TOL,
                           SmoothnessSpec(L=2.0, rho=0.0, rho_min=1.0),
                           EscapeConfig(), rng)
    assert co2.counters.nc_calls == 1
    assert co2.counters.escape_steps == 0


# ---------------------------------------------------------------------------
# stochastic escape


def test_one_step_stochastic_zero_variance_matches_deterministic(rng):
    prob = saddle_problem()
    noisy = with_gradient_noise(prob, sigma=0.0)
    smooth = SmoothnessSpec(L=1.0, rho=0.0, rho_min=1.0, sigma=0.0, h_star=0.0)
    res = one_step_stochastic(noisy.oracle, np.zeros(2), TOL, smooth,
                              EscapeConfig(), rng)
    assert res.escaped
    assert abs(abs(res.point[1]) - 0.25) <= 1e-9
    assert abs(res.point[0]) <= 1e-9


def test_one_step_stochastic_requires_capability(rng):
    prob = saddle_problem()
    with pytest.raises(NotStochastic):
        one_step_stochastic(prob.oracle, np.zeros(2), TOL, UNIT_RHO,
                            EscapeConfig(), rng)


def test_one_step_stochastic_noisy_monte_carlo():
    # sigma = 0.1 gradient noise at planted quadratic saddles; both escape
    # inequalities, checked against the full-information oracle, must hold in
    # >= 95% of 100 seeded escapes (threshold constant 1/48 at c_h = 1/2)
    passes = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(0.2, 1.0, 6)
        spec[0] = -1.0
        A = planted_symmetric(6, spec, rng)
        prob_oracle = ObjectiveOracle(6, lambda x, A=A: 0.5 * float(x @ (A @ x)),
                                      lambda x, A=A: A @ x, hvp=lambda x, v, A=A: A @ v)
        from gose.problems import ProblemSpec
        spec_obj = ProblemSpec(name="t", oracle=prob_oracle, known_L=1.0,
                               known_rho=0.0, box=(-2, 2))
        noisy = with_gradient_noise(spec_obj, sigma=0.1)
        smooth = SmoothnessSpec(L=1.0, rho=0.0, rho_min=1.0, sigma=0.1, h_star=0.02)
        res = one_step_stochastic(noisy.oracle, np.zeros(6), TOL, smooth,
                                  EscapeConfig(), rng)
        if not res.escaped:
            continue
        drop = prob_oracle.value(res.point) - prob_oracle.value(np.zeros(6))
        grown = np.linalg.norm(prob_oracle.gradient(res.point)) > TOL.eps
        if drop <= -0.5 * (1.0 / 48.0) * 0.5 ** 3 and grown:
            passes += 1
    assert passes >= 95


# ---------------------------------------------------------------------------
# finite-sum escape


def test_one_step_finite_sum_identical_components(rng):
    prob = saddle_problem()
    fs = as_finite_sum(prob, 5)
    res = one_step_finite_sum(fs.oracle, np.zeros(2), TOL, UNIT_RHO,
                              EscapeConfig(), rng)
    assert res.escaped
    assert abs(abs(res.point[1]) - 0.25) <= 1e-9


def test_one_step_finite_sum_pca_saddle(rng):
    pca = make_nonconvex_pca(n=32, d=8, seed=0, top_eig=1.5)
    smooth = SmoothnessSpec(L=pca.known_L, rho=0.0, rho_min=1.0)
    res = one_step_finite_sum(pca.oracle, np.zeros(8), TOL, smooth,
                              EscapeConfig(), rng)
    assert res.escaped
    drop = pca.oracle.value(res.point) - pca.oracle.value(np.zeros(8))
    assert drop <= -0.5 * (1.0 / 24.0) * 0.5 ** 3
    assert np.linalg.norm(pca.oracle.gradient(res.point)) > TOL.eps


def test_one_step_finite_sum_psd_bottom(rng):
    conv = get_problem("quadratic_saddle", d=3, spectrum=[0.3, 1.0, 2.0], orth=True)
    fs = as_finite_sum(conv, 4)
    res = one_step_finite_sum(fs.oracle, np.zeros(3), TOL,
                              SmoothnessSpec(L=2.0, rho=0.0, rho_min=1.0),
                              EscapeConfig(), rng)
    assert not res.escaped


def test_one_step_finite_sum_requires_capability(rng):
    prob = saddle_problem()
    with pytest.raises(NotFiniteSum):
        one_step_finite_sum(prob.oracle, np.zeros(2), TOL, UNIT_RHO,
                            EscapeConfig(), rng)


# ---------------------------------------------------------------------------
# bottom honesty


def test_bottom_honesty_deterministic_engine():
    # over problems planted either clearly below -eps_h or clearly above
    # -eps_h/2, a bottom verdict must coincide with lambda_min >= -eps_h in
    # >= 99% of cases (dense eigendecomposition as the certifier)
    bottoms = honest = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 10)
        if seed % 2 == 0:
            spec[0] = -1.0  # strict saddle, expect direction
        A = planted_symmetric(10, spec, rng)
        from gose import approx_nc_deterministic
        out = approx_nc_deterministic(
            ObjectiveOracle(10, lambda x, A=A: 0.5 * float(x @ (A @ x)),
                            lambda x, A=A: A @ x, hvp=lambda x, v, A=A: A @ v),
            np.zeros(10), 0.5, 0.01, 1.0, rng)
        if out.is_bottom:
            bottoms += 1
            if float(np.linalg.eigvalsh(A)[0]) >= -0.5:
                honest += 1
    assert bottoms > 0
    assert honest >= 0.99 * bottoms
