import numpy as np
import pytest

from gose import (NcBudget, NcConfig, ObjectiveOracle, approx_nc_deterministic,
                  approx_nc_finite_sum, approx_nc_stochastic, as_counting,
                  get_problem, lanczos_min_eig, make_nonconvex_pca,
                  with_gradient_noise)
from gose.core import (AsymmetricOperator, BudgetZero, NotFiniteSum,
                       NotStochastic)
from gose.ncfind import (det_max_matvecs, finite_sum_minibatch,
                         oja_total_samples, stoch_minibatch, validation_batch)
from conftest import planted_symmetric


def matrix_oracle(A):
    d = A.shape[0]
    return ObjectiveOracle(d, lambda x: 0.5 * float(x @ (A @ x)),
                           lambda x: A @ x, hvp=lambda x, v: A @ v)


# ---------------------------------------------------------------------------
# lanczos_min_eig


def test_lanczos_2x2_diagonal_exact(rng):
    A = np.diag([1.0, -1.0])
    lam, v = lanczos_min_eig(lambda w: A @ w, 2, NcBudget(10), rng)
    assert lam == pytest.approx(-1.0, abs=1e-8)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-8)  # v = +-e2


def test_lanczos_planted_spectrum_d50(rng):
    spec = rng.uniform(-0.3, 1.0, 50)
    spec[0] = -0.7
    A = planted_symmetric(50, spec, rng)
    true_min = float(np.linalg.eigvalsh(A)[0])
    lam, v = lanczos_min_eig(lambda w: A @ w, 50, NcBudget(200), rng)
    assert abs(lam - true_min) <= 1e-6
    assert abs(float(v @ (A @ v)) - lam) <= 1e-10  # lam is a true Rayleigh quotient


def test_lanczos_identity_breaks_down_cleanly(rng):
    lam, v = lanczos_min_eig(lambda w: w.copy(), 5, NcBudget(50), rng)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_lanczos_rejects_asymmetric_operator(rng):
    A = rng.standard_normal((8, 8))
    A[0, 1] += 3.0
    with pytest.raises(AsymmetricOperator):
        lanczos_min_eig(lambda w: A @ w, 8, NcBudget(10), rng)


def test_lanczos_budget_validation(rng):
    with pytest.raises(BudgetZero):
        NcBudget(0)
    with pytest.raises(BudgetZero):
        NcConfig(restarts=0)


# ---------------------------------------------------------------------------
# deterministic finder


def test_nc_det_simple_saddle(rng):
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    out = approx_nc_deterministic(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert out.rayleigh == pytest.approx(-1.0, abs=1e-8)
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)


def test_nc_det_psd_always_bottom():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(0.05, 1.0, 10)
        A = planted_symmetric(10, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(10), 0.5, 0.01, 1.0, rng)
        assert out.is_bottom


def test_nc_det_statistical_near_threshold():
    # lambda_min = -0.6 just below -eps_h = -0.5: direction in >= 95% of 200 trials
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 50)
        spec[0] = -0.6
        A = planted_symmetric(50, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(50), 0.5, 0.01, 1.0, rng)
        if out.is_direction:
            assert out.rayleigh <= -0.25
            hits += 1
    assert hits >= 190


def test_nc_det_fd_source_matches_contract(rng):
    prob = get_problem("quadratic_saddle", d=4, spectrum=[1.0, 0.5, 0.2, -1.0], orth=True)
    bare = ObjectiveOracle(4, prob.oracle.value, prob.oracle.gradient)
    out = approx_nc_deterministic(bare, np.zeros(4), 0.5, 0.01, 1.0, rng, hvp_source="fd")
    assert out.is_direction
    assert out.rayleigh <= -0.25
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)


def test_nc_det_budget_compliance(rng):
    cfg = NcConfig(budget_mult=4.0, restarts=1)
    mm = det_max_matvecs(12, 0.5, 0.01, 1.0, 4.0)
    spec = np.linspace(-1.0, 1.0, 12)
    A = planted_symmetric(12, spec, rng)
    out = approx_nc_deterministic(matrix_oracle(A), np.zeros(12), 0.5, 0.01, 1.0, rng, cfg)
    assert out.hvp_or_grad_cost <= cfg.restarts * (mm + 3)

    bare = ObjectiveOracle(12, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x)
    out_fd = approx_nc_deterministic(bare, np.zeros(12), 0.5, 0.01, 1.0, rng, cfg)
    assert out_fd.hvp_or_grad_cost <= 2 * cfg.restarts * (mm + 3)


# ---------------------------------------------------------------------------
# stochastic finder


def zero_variance_stochastic(A):
    d = A.shape[0]
    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        sample_gradient=lambda x, rng: A @ x,
        sample_hvp=lambda x, v, rng: A @ v,
    )


@pytest.mark.parametrize("engine", ["minibatch_lanczos", "oja"])
def test_nc_stochastic_zero_variance_degenerates(engine, rng):
    oracle = zero_variance_stochastic(np.diag([1.0, -1.0]))
    cfg = NcConfig(engine=engine)
    out = approx_nc_stochastic(oracle, np.zeros(2), 0.5, 0.01, 1.0, rng, cfg)
    assert out.is_direction
    assert abs(out.direction[1]) == pytest.approx(1.0, abs=1e-6)
    assert out.rayleigh <= -0.3125  # -(eps_h/2 + eps_h/8)


def noisy_stochastic(A, noise):
    d = A.shape[0]

    def sample_hvp(x, v, rng):
        z = rng.standard_normal(d)
        return A @ v + noise * (z * float(z @ v) - v)

    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        sample_gradient=lambda x, rng: A @ x + noise * rng.standard_normal(d),
        sample_hvp=sample_hvp,
    )


def test_nc_stochastic_planted_statistical():
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 20)
        spec[0] = -1.0  # -2 eps_h
        A = planted_symmetric(20, spec, rng)
        out = approx_nc_stochastic(noisy_stochastic(A, 0.02), np.zeros(20),
                                   0.5, 0.01, 1.0, rng)
        if out.is_direction:
            hits += 1
            assert float(out.direction @ (A @ out.direction)) <= -0.25 + 0.05
    assert hits >= 0.9 * trials


def test_nc_stochastic_psd_mean_mostly_bottom():
    bottoms = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        A = planted_symmetric(20, rng.uniform(0.05, 1.0, 20), rng)
        out = approx_nc_stochastic(noisy_stochastic(A, 0.02), np.zeros(20),
                                   0.5, 0.01, 1.0, rng)
        bottoms += out.is_bottom
    assert bottoms >= 0.9 * trials


def test_nc_stochastic_requires_capability(rng):
    prob = get_problem("sphere", d=2)
    with pytest.raises(NotStochastic):
        approx_nc_stochastic(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)


def test_nc_stochastic_budget_compliance(rng):
    A = np.diag([1.0, -1.0, 0.3, 0.7])
    oracle = as_counting(zero_variance_stochastic(A))
    cfg = NcConfig(budget_mult=2.0, restarts=1, engine="minibatch_lanczos")
    out = approx_nc_stochastic(oracle, np.zeros(4), 0.5, 0.01, 1.0, rng, cfg)
    mm = det_max_matvecs(4, 0.5, 0.01, 1.0, 2.0)
    m = stoch_minibatch(4, 0.5, 1.0, 2.0)
    m_val = validation_batch(0.5, 1.0, 2.0)
    assert out.hvp_or_grad_cost <= (mm + 1) * m + m_val

    oracle2 = as_counting(zero_variance_stochastic(A))
    cfg2 = NcConfig(budget_mult=1.0, restarts=1, engine="oja")
    out2 = approx_nc_stochastic(oracle2, np.zeros(4), 0.5, 0.01, 1.0, rng, cfg2)
    total = oja_total_samples(4, 0.5, 0.01, 1.0, 1.0)
    assert out2.hvp_or_grad_cost <= total + validation_batch(0.5, 1.0, 1.0)


# ---------------------------------------------------------------------------
# finite-sum finder


def test_nc_finite_sum_identical_components(rng):
    from gose.problems import as_finite_sum
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    fs = as_finite_sum(prob, 8)
    out = approx_nc_finite_sum(fs.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert out.rayleigh == pytest.approx(-1.0, abs=1e-8)


def test_nc_finite_sum_pca_origin(rng):
    # top covariance eigenvalue 1.0 = 2 eps_h, so the origin Hessian -M
    # has lambda_min = -1.0 and a direction must come back
    pca = make_nonconvex_pca(n=64, d=10, seed=0, top_eig=1.0)
    out = approx_nc_finite_sum(pca.oracle, np.zeros(10), 0.5, 0.01,
                               pca.known_L, rng)
    assert out.is_direction
    assert out.rayleigh <= -0.25
    # dense covariance eigendecomposition as the oracle
    from gose import dense_hessian
    H0 = dense_hessian(pca.oracle, np.zeros(10))
    assert float(np.linalg.eigvalsh(H0)[0]) == pytest.approx(-1.0, abs=1e-10)


def test_nc_finite_sum_psd_bottom(rng):
    from gose.problems import as_finite_sum
    prob = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], orth=True)
    fs = as_finite_sum(prob, 6)
    out = approx_nc_finite_sum(fs.oracle, np.zeros(3), 0.5, 0.01, 2.0, rng)
    assert out.is_bottom


def test_nc_finite_sum_requires_capability(rng):
    prob = get_problem("sphere", d=2)
    with pytest.raises(NotFiniteSum):
        approx_nc_finite_sum(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)


def test_nc_finite_sum_budget_compliance(rng):
    pca = make_nonconvex_pca(n=50, d=8, seed=1, top_eig=1.0)
    oracle = as_counting(pca.oracle)
    cfg = NcConfig(budget_mult=2.0)
    out = approx_nc_finite_sum(oracle, np.zeros(8), 0.5, 0.01, pca.known_L, rng, cfg)
    mm = det_max_matvecs(8, 0.5, 0.01, pca.known_L, 2.0)
    m = finite_sum_minibatch(50, 0.5, pca.known_L, 2.0, mm)
    assert out.hvp_or_grad_cost <= (mm + 1) * m + 50


# ---------------------------------------------------------------------------
# shared contract details


def test_nc_call_counter_increments(rng):
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    co = as_counting(prob.oracle)
    approx_nc_deterministic(co, np.zeros(2), 0.5, 0.01, 1.0, rng)
    approx_nc_deterministic(co, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert co.counters.nc_calls == 2


def test_direction_never_returned_above_threshold():
    # soundness: every direction's validated Rayleigh is <= -eps_h/2
    for seed in range(50):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-1.5, 1.0, 12)
        A = planted_symmetric(12, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(12), 0.5, 0.01,
                                      1.5, rng)
        if out.is_direction:
            assert out.rayleigh <= -0.25
            assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)
