import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gose import (ObjectiveOracle, SmoothnessSpec, ToleranceConfig, adjust_direction,
                  as_counting, escape, escape_step_length, get_problem, make_nonconvex_pca,
                  one_step_deterministic, one_step_finite_sum,
                  one_step_stochastic, with_gradient_noise)
from gose.core import (EpsilonTooLarge, EvalCounters, NotFiniteSum, NotStochastic,
                       SizeOutOfRange)
from gose.escape import check_run, subsample_size
from gose.problems import as_finite_sum
from conftest import planted_symmetric

TOL = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.01)
UNIT_RHO = SmoothnessSpec(L=1.0, rho=1.0)  # rho_eff = 1


def saddle_problem():
    return get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)


def entry_oracle():
    """The saddle as a finite sum of two copies: it serves both modes checked here."""
    return as_finite_sum(saddle_problem(), 2).oracle


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
# the step coefficient and the entry bound


def test_decrease_constants_at_default_coefficient():
    assert escape.C_H == 0.5
    assert escape.C_H ** 2 / 4.0 - escape.C_H ** 3 / 6.0 == pytest.approx(1.0 / 24.0)
    assert escape.C_H ** 2 / 4.0 - escape.C_H ** 3 / 3.0 == pytest.approx(1.0 / 48.0)


@given(eps_h=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       rho=st.floats(0.0, 1e6))
# the eps below the bound here rounds 16*rho_eff*eps/eps_h**2 to exactly 1
@example(eps_h=0.7958429671439418, rho=49.44480166074264)
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
def test_entry_bound_is_the_only_eps_check_at_its_edge(eps_h, rho):
    # check_run admits the largest eps below eps_h**2/(16*rho_eff) in both
    # modes, and refuses the bound itself
    smooth = SmoothnessSpec(L=1.0, rho=rho)
    bound = eps_h ** 2 / (16.0 * smooth.rho_eff)
    below = math.nextafter(bound, 0.0)
    assume(0.0 < below and bound < 1.0)
    for mode in ("deterministic", "finite_sum"):
        check_run(entry_oracle(), ToleranceConfig(eps=below, eps_h=eps_h, delta=0.01),
                  smooth, mode)
        with pytest.raises(EpsilonTooLarge, match=r"eps < eps_h\*\*2/\(16\*rho_eff\)"):
            check_run(entry_oracle(), ToleranceConfig(eps=bound, eps_h=eps_h, delta=0.01),
                      smooth, mode)


def test_subsample_size_rules():
    size_h = subsample_size(TOL, UNIT_RHO)  # no sigma: the eps_h size
    assert size_h == math.ceil(4.0 * math.log(1 / 0.01) / 0.25)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, sigma=0.1)
    size_e = math.ceil(4.0 * 0.01 * math.log(100) / (0.25 * 0.01) ** 2)
    assert size_e > size_h
    assert subsample_size(TOL, smooth) == max(size_h, size_e)
    tiny_sigma = SmoothnessSpec(L=1.0, rho=1.0, sigma=1e-6)
    assert subsample_size(TOL, tiny_sigma) == size_h  # never below the eps_h size


# ---------------------------------------------------------------------------
# deterministic escape


def test_one_step_deterministic_hand_example(rng):
    # eta = 0.5/(2*1*1) = 0.25; y = (0, +-0.25); f(y) - f(0) = -0.03125;
    # grad f(y) = (0, -+0.25) so its norm 0.25 > eps
    prob = saddle_problem()
    res = one_step_deterministic(prob.oracle, np.zeros(2), TOL, UNIT_RHO, rng)
    assert res.escaped
    y = res.point
    assert abs(y[0]) <= 1e-9
    assert abs(abs(y[1]) - 0.25) <= 1e-9
    drop = prob.oracle.value(y) - prob.oracle.value(np.zeros(2))
    assert drop == pytest.approx(-0.03125, abs=1e-9)
    assert drop <= -(1.0 / 24.0) * 0.5 ** 3 / 1.0  # -C' eps_h^3 / rho_eff^2
    assert np.linalg.norm(prob.oracle.gradient(y)) > TOL.eps


def test_one_step_deterministic_convex_returns_bottom(rng):
    prob = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], orth=True)
    res = one_step_deterministic(prob.oracle, np.zeros(3), TOL,
                                 SmoothnessSpec(L=2.0, rho=1.0), rng)
    assert not res.escaped
    assert res.point is None


def test_one_step_deterministic_chained_saddle(rng):
    chain = get_problem("chained_saddles", d=4)
    smooth = SmoothnessSpec(L=chain.known_L, rho=1.0)
    for s in chain.planted_saddles:
        res = one_step_deterministic(chain.oracle, s, TOL, smooth, rng)
        assert res.escaped
        assert chain.oracle.value(res.point) < chain.oracle.value(s)
        assert np.linalg.norm(chain.oracle.gradient(res.point)) > TOL.eps


def test_step_length_is_exact(rng):
    prob = saddle_problem()
    eta = escape_step_length(TOL, UNIT_RHO)
    assert eta == pytest.approx(0.25)
    res = one_step_deterministic(prob.oracle, np.zeros(2), TOL, UNIT_RHO, rng)
    assert np.linalg.norm(res.point - np.zeros(2)) == pytest.approx(eta, abs=1e-9)


def test_escape_descent_alignment_per_call(rng):
    # the taken direction (y - x)/eta never ascends against the exact gradient
    chain = get_problem("chained_saddles", d=5)
    smooth = SmoothnessSpec(L=chain.known_L, rho=1.0)
    eta = escape_step_length(TOL, smooth)
    for s in chain.planted_saddles:
        x = np.asarray(s, float) + 1e-3  # slightly off the saddle: nonzero gradient
        res = one_step_deterministic(chain.oracle, x, TOL, smooth, rng)
        assert res.escaped
        v_tilde = (res.point - x) / eta
        assert float(chain.oracle.gradient(x) @ v_tilde) <= 1e-12


def test_escape_counts_one_step(rng):
    prob = saddle_problem()
    co = as_counting(prob.oracle)
    one_step_deterministic(co, np.zeros(2), TOL, UNIT_RHO, rng)
    assert co.counters.nc_calls == 1
    assert co.counters.escape_steps == 1
    one_step_deterministic(co, np.zeros(2), TOL, UNIT_RHO, rng,
                           g=np.zeros(2))
    assert co.counters.escape_steps == 2
    # bottom consumes an NC call but no step
    conv = get_problem("quadratic_saddle", d=2, spectrum=[1.0, 2.0], orth=False)
    co2 = as_counting(conv.oracle)
    one_step_deterministic(co2, np.zeros(2), TOL,
                           SmoothnessSpec(L=2.0, rho=1.0), rng)
    assert co2.counters.nc_calls == 1
    assert co2.counters.escape_steps == 0


# ---------------------------------------------------------------------------
# stochastic escape


def test_one_step_stochastic_zero_variance_matches_deterministic(rng):
    prob = saddle_problem()
    noisy = with_gradient_noise(prob, sigma=0.0)
    smooth = SmoothnessSpec(L=1.0, rho=1.0, sigma=0.0, h_star=0.0)
    res = one_step_stochastic(noisy.oracle, np.zeros(2), TOL, smooth, rng)
    assert res.escaped
    assert abs(abs(res.point[1]) - 0.25) <= 1e-9
    assert abs(res.point[0]) <= 1e-9


def test_one_step_stochastic_requires_capability(rng):
    co = as_counting(saddle_problem().oracle)
    with pytest.raises(NotStochastic, match="stochastic mode needs"):
        one_step_stochastic(co, np.zeros(2), TOL, UNIT_RHO, rng)
    assert co.counters == EvalCounters()


def test_one_step_stochastic_noisy_monte_carlo():
    # sigma = 0.1 gradient noise at planted quadratic saddles; both escape
    # inequalities, checked against the full-information oracle, must hold in
    # >= 95% of 100 seeded escapes (threshold constant 1/48 at C_H = 1/2)
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
        smooth = SmoothnessSpec(L=1.0, rho=1.0, sigma=0.1, h_star=0.02)
        res = one_step_stochastic(noisy.oracle, np.zeros(6), TOL, smooth, rng)
        if not res.escaped:
            continue
        drop = prob_oracle.value(res.point) - prob_oracle.value(np.zeros(6))
        grown = np.linalg.norm(prob_oracle.gradient(res.point)) > TOL.eps
        if drop <= -0.5 * (1.0 / 48.0) * 0.5 ** 3 and grown:
            passes += 1
    assert passes >= 95


def test_one_step_stochastic_checks_subsample_size_before_the_finder():
    # the subsample is drawn after the finder, but its size is checked first
    bowl = get_problem("bowl_saddle", d=10, q=0.5, seed=3,
                       spectrum=[-1.0, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.0])
    co = as_counting(with_gradient_noise(bowl, sigma=0.05).oracle)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, delta=0.1)
    smooth = SmoothnessSpec(L=7.0, rho=1.0, sigma=100.0)  # concentration size past MAX_DRAWS
    with pytest.raises(SizeOutOfRange, match=r"sigma=100\.0"):
        one_step_stochastic(co, bowl.x0, tol, smooth,
                            np.random.default_rng(0))
    assert co.counters == EvalCounters()
    assert co.counters.work_units() == 0 and co.counters.nc_calls == 0


def test_check_run_bounds_the_anchor_table_rows():
    # the finite-sum driver's anchor table holds n rows: n past MAX_DRAWS is a
    # size error naming n, before any oracle work
    sphere = get_problem("sphere", d=2).oracle
    for n, ok in [(10 ** 8, True), (10 ** 8 + 1, False)]:
        co = as_counting(ObjectiveOracle(2, sphere.value, sphere.gradient, hvp=sphere.hvp,
                                         n_components=n,
                                         component_gradient=lambda i, x: sphere.gradient(x)))
        if ok:
            check_run(co, TOL, UNIT_RHO, "finite_sum")
        else:
            with pytest.raises(SizeOutOfRange, match=r"anchor table rows = 1e\+08 exceeds"
                                                      r".*n=100000001"):
                check_run(co, TOL, UNIT_RHO, "finite_sum")
        assert co.counters == EvalCounters()


# ---------------------------------------------------------------------------
# finite-sum escape


def test_one_step_finite_sum_identical_components(rng):
    prob = saddle_problem()
    fs = as_finite_sum(prob, 5)
    res = one_step_finite_sum(fs.oracle, np.zeros(2), TOL, UNIT_RHO, rng)
    assert res.escaped
    assert abs(abs(res.point[1]) - 0.25) <= 1e-9


def test_one_step_finite_sum_pca_saddle(rng):
    pca = make_nonconvex_pca(n=32, d=8, seed=0, top_eig=1.5)
    smooth = SmoothnessSpec(L=pca.known_L, rho=1.0)
    res = one_step_finite_sum(pca.oracle, np.zeros(8), TOL, smooth, rng)
    assert res.escaped
    drop = pca.oracle.value(res.point) - pca.oracle.value(np.zeros(8))
    assert drop <= -0.5 * (1.0 / 24.0) * 0.5 ** 3
    assert np.linalg.norm(pca.oracle.gradient(res.point)) > TOL.eps


def test_one_step_finite_sum_psd_bottom(rng):
    conv = get_problem("quadratic_saddle", d=3, spectrum=[0.3, 1.0, 2.0], orth=True)
    fs = as_finite_sum(conv, 4)
    res = one_step_finite_sum(fs.oracle, np.zeros(3), TOL,
                              SmoothnessSpec(L=2.0, rho=1.0), rng)
    assert not res.escaped


def test_one_step_finite_sum_requires_capability(rng):
    co = as_counting(saddle_problem().oracle)
    with pytest.raises(NotFiniteSum, match="finite_sum mode needs"):
        one_step_finite_sum(co, np.zeros(2), TOL, UNIT_RHO, rng)
    assert co.counters == EvalCounters()


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
