import math

import numpy as np
import pytest

from gose import (ObjectiveOracle, ProblemSpec, approx_nc_deterministic,
                  approx_nc_finite_sum, approx_nc_stochastic, dense_hessian,
                  with_gradient_noise)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def wilson_lower(successes: int, n: int, z: float = 1.645) -> float:
    """Lower 95% (one-sided) Wilson score bound on a binomial proportion."""
    if n == 0:
        return 0.0
    p = successes / n
    denom = 1.0 + z * z / n
    center = p + z * z / (2 * n)
    rad = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (center - rad) / denom


def planted_symmetric(d, spectrum, rng):
    """Q diag(spectrum) Q' with random orthogonal Q; dense ground truth."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    A = (q * np.asarray(spectrum, float)) @ q.T
    return 0.5 * (A + A.T)


def matrix_oracle(A):
    """f(x) = x'Ax/2 with its exact gradient and HVP."""
    d = A.shape[0]
    return ObjectiveOracle(d, lambda x: 0.5 * float(x @ (A @ x)),
                           lambda x: A @ x, hvp=lambda x, v: A @ v)


def verify_lipschitz_constants(spec: ProblemSpec, rng: np.random.Generator) -> bool:
    """Spot-verify known_L and known_rho on 1000 random pairs in the box.

    For each pair: ||grad f(x) - grad f(y)|| <= L ||x - y|| and
    ||H(x) - H(y)||_2 <= rho ||x - y|| + 1e-8.  Raises AssertionError naming
    the first violated bound.
    """
    lo, hi = spec.box
    d = spec.oracle.dimension
    for _ in range(1000):
        x = rng.uniform(lo, hi, size=d)
        y = rng.uniform(lo, hi, size=d)
        dist = float(np.linalg.norm(x - y))
        gdiff = float(np.linalg.norm(spec.oracle.gradient(x) - spec.oracle.gradient(y)))
        assert gdiff <= spec.known_L * dist * (1.0 + 1e-9) + 1e-12, (
            f"{spec.name}: gradient Lipschitz violated, {gdiff} > L*{dist}"
        )
        hdiff = float(np.linalg.norm(dense_hessian(spec.oracle, x)
                                     - dense_hessian(spec.oracle, y), 2))
        assert hdiff <= spec.known_rho * dist + 1e-8, (
            f"{spec.name}: Hessian Lipschitz violated, {hdiff} > rho*{dist}"
        )
    return True


# ---------------------------------------------------------------------------
# Negative-curvature finder contract on planted spectra

SUITE_NOISE = 0.02  # scale of the perturbations around the planted operators

NC_THRESHOLDS = {
    # engine: (min direction rate on lambda_min = -2 eps_h, min bottom rate on PSD)
    "deterministic": (0.95, 1.0),
    "fd": (0.95, 1.0),
    "minibatch_lanczos": (0.90, 0.90),
    "finite_sum": (0.90, 1.0),
}


def finite_sum_quadratic(A: np.ndarray, n: int, rng: np.random.Generator) -> ObjectiveOracle:
    """n components (A + E_i) with sum_i E_i = 0 exactly."""
    d = A.shape[0]
    E = rng.standard_normal((n, d, d)) * SUITE_NOISE
    E = 0.5 * (E + E.transpose(0, 2, 1))
    E -= E.mean(axis=0, keepdims=True)
    comps = A[None, :, :] + E
    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        n_components=n,
        component_gradient=lambda i, x: comps[i] @ x,
        component_hvp=lambda i, x, v: comps[i] @ v,
    )


def verify_nc_suite(d: int, trials: int, engine: str, eps_h: float = 0.5,
                    delta: float = 0.01, seed: int = 0) -> dict:
    """Statistical contract check of one finder engine on planted spectra.

    Half the battery plants lambda_min = -2*eps_h (expect a direction), half
    plants PSD spectra (expect bottom); "bottom" may miss -2*eps_h with
    probability at most delta (Kuczynski-Wozniakowski 1992, Thm 4.2).  Every
    returned direction is re-checked against the dense operator: Rayleigh <=
    -eps_h/2 must hold exactly.  Returns the rates and a pass flag against
    the engine's NC_THRESHOLDS.
    """
    rng = np.random.default_rng(seed)
    L = 2.0 * eps_h
    x = np.zeros(d)

    def call(A):
        if engine in ("deterministic", "fd"):
            oracle = matrix_oracle(A)
            if engine == "fd":  # no analytic HVP: matvecs difference gradients
                oracle = ObjectiveOracle(d, oracle.value, oracle.gradient)
            return approx_nc_deterministic(oracle, x, eps_h, delta, L, rng)
        if engine == "finite_sum":
            return approx_nc_finite_sum(finite_sum_quadratic(A, 32, rng), x, eps_h, delta,
                                        L, rng)
        planted = ProblemSpec(name="planted", oracle=matrix_oracle(A),
                              known_L=L, known_rho=0.0, box=(-1.0, 1.0))
        oracle = with_gradient_noise(planted, SUITE_NOISE).oracle
        return approx_nc_stochastic(oracle, x, eps_h, delta, L, rng)

    directions = unsound = 0
    for _ in range(trials):
        spectrum = rng.uniform(-eps_h / 4.0, 1.0, size=d)
        spectrum[0] = -2.0 * eps_h
        A = planted_symmetric(d, spectrum, rng)
        out = call(A)
        if out.is_direction:
            directions += 1
            if float(out.direction @ (A @ out.direction)) > -eps_h / 2.0 + 1e-9:
                unsound += 1
    bottoms = 0
    for _ in range(trials):
        out = call(planted_symmetric(d, rng.uniform(0.05, 1.0, size=d), rng))
        if out.is_bottom:
            bottoms += 1

    dir_rate = directions / trials
    bot_rate = bottoms / trials
    need_dir, need_bot = NC_THRESHOLDS[engine]
    return {
        "trials": trials, "direction_rate": dir_rate, "bottom_rate_psd": bot_rate,
        "unsound_directions": unsound,
        "passed": dir_rate >= need_dir and bot_rate >= need_bot and unsound == 0,
    }
