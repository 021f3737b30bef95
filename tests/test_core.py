import numpy as np
import pytest

from gose import (Capabilities, CountingOracle, EscapeConfig, EvalCounters,
                  ObjectiveOracle, SmoothnessSpec, ToleranceConfig, as_counting,
                  escape_step_length, finite_diff_hvp, get_problem,
                  validate_config)
from gose.core import (EpsilonTooLarge, NonPositiveConstant,
                       StochasticEpsilonTooLarge, ZeroDirection)


def quad_oracle(diag):
    A = np.diag(np.asarray(diag, float))
    return ObjectiveOracle(
        dimension=len(diag),
        value=lambda x: 0.5 * float(x @ (A @ x)),
        gradient=lambda x: A @ x,
    )


def quad_oracle_analytic(diag):
    A = np.diag(np.asarray(diag, float))
    return ObjectiveOracle(
        dimension=len(diag),
        value=lambda x: 0.5 * float(x @ (A @ x)),
        gradient=lambda x: A @ x,
        hvp=lambda x, v: A @ v,
    )


# ---------------------------------------------------------------------------
# validate_config


def test_validate_accepts_instantiated_inequality():
    # 0.01 < 0.5**2 / (16*1*1) = 0.015625
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, c1=1.0)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    vcfg = validate_config(tol, smooth, "deterministic")
    assert vcfg.rho_eff == 1.0
    assert escape_step_length(vcfg, EscapeConfig()) == pytest.approx(0.25)


def test_validate_rejects_eps_at_boundary_and_above():
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    with pytest.raises(EpsilonTooLarge):
        validate_config(ToleranceConfig(eps=0.02, eps_h=0.5), smooth, "deterministic")
    with pytest.raises(EpsilonTooLarge):
        validate_config(ToleranceConfig(eps=0.015625, eps_h=0.5), smooth, "deterministic")


def test_validate_stochastic_three_halves_rule():
    smooth = SmoothnessSpec(L=1.0, rho=0.001)
    # 0.4**1.5 = 0.25298... < 0.3, so eps = 0.3 must be rejected
    assert 0.4 ** 1.5 == pytest.approx(0.2529822128134703)
    with pytest.raises(StochasticEpsilonTooLarge):
        validate_config(ToleranceConfig(eps=0.3, eps_h=0.4, c1=1.0), smooth, "stochastic")
    # but it passes in deterministic mode with the same constants
    validate_config(ToleranceConfig(eps=0.3, eps_h=0.4, c1=1.0), smooth, "deterministic")
    # and a compliant stochastic eps is accepted
    validate_config(ToleranceConfig(eps=0.2, eps_h=0.4, c1=1.0), smooth, "stochastic")


@pytest.mark.parametrize("kwargs", [
    {"eps": 0.0, "eps_h": 0.5},
    {"eps": 0.01, "eps_h": 1.0},
    {"eps": 0.01, "eps_h": 0.5, "delta": 0.0},
    {"eps": 0.01, "eps_h": 0.5, "c1": 0.5},
])
def test_validate_rejects_nonpositive_or_out_of_range(kwargs):
    with pytest.raises(NonPositiveConstant):
        validate_config(ToleranceConfig(**kwargs), SmoothnessSpec(L=1.0, rho=1.0),
                        "deterministic")


def test_validate_rejects_bad_smoothness():
    tol = ToleranceConfig(eps=0.001, eps_h=0.5)
    with pytest.raises(NonPositiveConstant):
        validate_config(tol, SmoothnessSpec(L=0.0, rho=1.0), "deterministic")
    with pytest.raises(NonPositiveConstant):
        validate_config(tol, SmoothnessSpec(L=1.0, rho=-1.0), "deterministic")


def test_rho_floor_applies_to_quadratics():
    tol = ToleranceConfig(eps=1e-5, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=0.0, rho_min=1e-3)
    vcfg = validate_config(tol, smooth, "deterministic")
    assert vcfg.rho_eff == 1e-3
    assert escape_step_length(vcfg, EscapeConfig()) == pytest.approx(0.5 / (2 * 1e-3))


# ---------------------------------------------------------------------------
# finite_diff_hvp


def test_fd_hvp_constant_hessian_exact():
    oracle = quad_oracle([2.0, 3.0])
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(finite_diff_hvp(oracle, x, np.array([1.0, 0.0])),
                               [2.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(finite_diff_hvp(oracle, x, np.array([0.0, 2.0])),
                               [0.0, 6.0], atol=1e-6)


def test_fd_hvp_zero_direction_raises():
    oracle = quad_oracle([2.0, 3.0])
    with pytest.raises(ZeroDirection):
        finite_diff_hvp(oracle, np.zeros(2), np.zeros(2))


def test_fd_hvp_rosenbrock_column_matches_hand_hessian():
    # Hessian of 100(y - x^2)^2 + (1 - x)^2 at (1, 1), assembled by hand
    H = np.array([[1200.0 * 1 - 400.0 * 1 + 2.0, -400.0],
                  [-400.0, 200.0]])
    ros = get_problem("rosenbrock", d=2)
    x = np.array([1.0, 1.0])
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        got = finite_diff_hvp(ros.oracle, x, e)
        rel = np.linalg.norm(got - H[:, i]) / np.linalg.norm(H[:, i])
        assert rel <= 1e-5


def test_fd_hvp_matches_analytic_on_random_quadratics(rng):
    for _ in range(20):
        d = int(rng.integers(2, 8))
        B = rng.standard_normal((d, d))
        A = B + B.T
        oracle = ObjectiveOracle(d, lambda x, A=A: 0.5 * float(x @ (A @ x)),
                                 lambda x, A=A: A @ x)
        x = rng.standard_normal(d)
        v = rng.standard_normal(d)
        got = finite_diff_hvp(oracle, x, v)
        want = A @ v
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def test_synthesized_hvp_is_linear(rng):
    ros = get_problem("rosenbrock", d=3)
    bare = ObjectiveOracle(3, ros.oracle.value, ros.oracle.gradient)
    x = rng.standard_normal(3)
    u, w = rng.standard_normal(3), rng.standard_normal(3)
    combo = bare.hvp(x, 2.0 * u + 0.5 * w)
    parts = 2.0 * bare.hvp(x, u) + 0.5 * bare.hvp(x, w)
    assert np.linalg.norm(combo - parts) <= 1e-4 * max(1.0, np.linalg.norm(parts))


# ---------------------------------------------------------------------------
# oracle capabilities and invariants


def test_capabilities_flags():
    det = quad_oracle([1.0, 2.0])
    assert det.capabilities == Capabilities(False, False, False)
    ana = quad_oracle_analytic([1.0, 2.0])
    assert ana.capabilities.analytic_hvp
    pca = get_problem("nonconvex_pca", n=5, d=3, seed=0)
    assert pca.oracle.capabilities.finite_sum
    assert pca.oracle.n_components == 5


def test_finite_sum_component_average_matches_gradient(rng):
    pca = get_problem("nonconvex_pca", n=16, d=4, seed=1)
    for _ in range(5):
        x = rng.standard_normal(4)
        avg = np.mean([pca.oracle.component_gradient(i, x) for i in range(16)], axis=0)
        full = pca.oracle.gradient(x)
        assert np.linalg.norm(avg - full) <= 1e-10 * max(1.0, np.linalg.norm(full))


def test_outputs_have_dimension_d(rng):
    pca = get_problem("nonconvex_pca", n=4, d=6, seed=2)
    x, v = rng.standard_normal(6), rng.standard_normal(6)
    assert pca.oracle.gradient(x).shape == (6,)
    assert pca.oracle.hvp(x, v).shape == (6,)
    assert pca.oracle.component_gradient(0, x).shape == (6,)


# ---------------------------------------------------------------------------
# counting


def test_counting_gradient_and_value():
    co = as_counting(quad_oracle([1.0, 2.0]))
    x = np.ones(2)
    co.gradient(x)
    co.value(x)
    assert co.counters.grad_evals == 1
    assert co.counters.fn_evals == 1


def test_counting_hvp_analytic_vs_synthesized():
    ana = as_counting(quad_oracle_analytic([1.0, 2.0]))
    ana.hvp(np.ones(2), np.ones(2))
    assert ana.counters.hvp_evals == 1
    assert ana.counters.grad_evals == 0

    fd = as_counting(quad_oracle([1.0, 2.0]))
    fd.hvp(np.ones(2), np.ones(2))
    assert fd.counters.hvp_evals == 0
    assert fd.counters.grad_evals == 2  # synthesized: two gradient calls


def test_counting_finite_sum_full_gradient():
    pca = get_problem("nonconvex_pca", n=7, d=3, seed=0)
    co = as_counting(pca.oracle)
    co.gradient(np.ones(3))
    assert co.counters.grad_evals == 1
    assert co.counters.component_grad_evals == 7
    co.component_gradient_batch([0, 1, 2], np.ones(3))
    assert co.counters.component_grad_evals == 10


def test_counting_stochastic_batches(rng):
    spec = get_problem("sphere", d=3)
    from gose import with_gradient_noise
    noisy = as_counting(with_gradient_noise(spec, sigma=0.1).oracle)
    noisy.sample_gradient(np.ones(3), rng)
    noisy.sample_gradient_batch(np.ones(3), 9, rng)
    noisy.sample_hvp(np.ones(3), np.ones(3), rng)
    assert noisy.counters.stoch_grad_evals == 10
    assert noisy.counters.hvp_evals == 1


def test_as_counting_is_idempotent():
    co = as_counting(quad_oracle([1.0]))
    assert as_counting(co) is co


def test_counters_nondecreasing_along_a_run():
    from gose import EscapeConfig, gose_deterministic
    spec = get_problem("chained_saddles", d=3)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50, seed=0)
    smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
    report = gose_deterministic(spec.oracle, spec.x0, tol, smooth, EscapeConfig(),
                                rng=np.random.default_rng(0))
    fields = EvalCounters().as_dict().keys()
    prev = {k: 0 for k in fields}
    for rec in report.trace:
        cur = rec.counters.as_dict()
        for k in fields:
            assert cur[k] >= prev[k], f"counter {k} decreased"
        prev = cur
