"""Test problems with known smoothness constants and planted saddle structure.

Every factory returns a ProblemSpec whose oracle has analytic gradients and
Hessian-vector products, so finite-difference synthesis can be cross-checked
against it.  Declared L and rho are valid on the stated sampling box (they
are global bounds there, not tight values).  certify_second_order is the
brute-force ground truth used by the acceptance tests: dense Hessian from d
HVP calls plus a symmetric eigendecomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import ConfigError, DimensionTooLarge, ObjectiveOracle


@dataclass
class ProblemSpec:
    name: str
    oracle: ObjectiveOracle
    known_L: float
    known_rho: float
    box: tuple  # (lo, hi), sampled per coordinate by the spot checks
    known_minimum_value: Optional[float] = None
    planted_saddles: list = field(default_factory=list)
    planted_minimum: Optional[np.ndarray] = None
    x0_list: list = field(default_factory=list)

    @property
    def x0(self) -> np.ndarray:
        if self.x0_list:
            return np.asarray(self.x0_list[0], float)
        return np.zeros(self.oracle.dimension)


# ---------------------------------------------------------------------------
# Quadratic saddles


def _random_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def _planted_spectrum(spectrum: np.ndarray, rng: np.random.Generator):
    """(A, Q): A = Q diag(spectrum) Q' for a random orthogonal Q drawn from rng, symmetrized."""
    Q = _random_orthogonal(len(spectrum), rng)
    A = (Q * spectrum) @ Q.T
    return 0.5 * (A + A.T), Q


def _quadratic_oracle(A: np.ndarray) -> ObjectiveOracle:
    d = A.shape[0]
    return ObjectiveOracle(
        dimension=d,
        value=lambda x: 0.5 * float(x @ (A @ x)),
        gradient=lambda x: A @ x,
        hvp=lambda x, v: A @ v,
    )


def make_quadratic_saddle(d: int, spectrum, seed: int = 0,
                          orth: bool = True) -> ProblemSpec:
    """f(x) = 0.5 x' Q diag(spectrum) Q' x with seeded random orthogonal Q.

    The origin is a critical point; it is a strict saddle iff the spectrum has
    a negative entry.  L = max |spectrum|; the Hessian is constant so rho = 0
    (the config floor applies).
    """
    spectrum = np.asarray(spectrum, float)
    if spectrum.shape != (d,):
        raise ConfigError(f"spectrum must have length d={d}")
    if orth and d > 1:
        A, _ = _planted_spectrum(spectrum, np.random.default_rng(seed))
    else:
        A = np.diag(spectrum)
    saddles = [np.zeros(d)] if spectrum.min() < 0.0 else []
    minimum = np.zeros(d) if spectrum.min() > 0.0 else None
    return ProblemSpec(
        name="quadratic_saddle",
        oracle=_quadratic_oracle(A),
        known_L=float(np.max(np.abs(spectrum))),
        known_rho=0.0,
        box=(-2.0, 2.0),
        known_minimum_value=0.0 if minimum is not None else None,
        planted_saddles=saddles,
        planted_minimum=minimum,
        x0_list=[np.full(d, 1.0) / math.sqrt(d)],
    )


def make_bowl_saddle(d: int, spectrum, q: float = 0.5, seed: int = 0,
                     orth: bool = True) -> ProblemSpec:
    """Quartic-confined saddle: f(x) = 0.5 x'Ax + (q/4)||x||^4.

    A pure quadratic saddle is unbounded below and admits no second-order
    stationary point; the ||x||^4 bowl creates minima at ||x*|| =
    sqrt(-lambda_min(A)/q) along the most-negative eigenvector, with value
    -lambda_min(A)**2/(4q).  The origin stays a strict saddle.
    """
    spectrum = np.asarray(spectrum, float)
    if spectrum.shape != (d,):
        raise ConfigError(f"spectrum must have length d={d}")
    if orth and d > 1:
        A, Q = _planted_spectrum(spectrum, np.random.default_rng(seed))
        vmin = Q[:, int(np.argmin(spectrum))]
    else:
        A = np.diag(spectrum)
        vmin = np.eye(d)[int(np.argmin(spectrum))]
    lam_min = float(spectrum.min())

    def value(x):
        return 0.5 * float(x @ (A @ x)) + 0.25 * q * float(x @ x) ** 2

    def gradient(x):
        return A @ x + q * float(x @ x) * x

    def hvp(x, v):
        return A @ v + q * (float(x @ x) * v + 2.0 * x * float(x @ v))

    oracle = ObjectiveOracle(d, value, gradient, hvp=hvp)
    box = (-2.0, 2.0)
    r2 = 2.0 * math.sqrt(d)  # l2 radius of the box
    spec = ProblemSpec(
        name="bowl_saddle",
        oracle=oracle,
        known_L=float(np.max(np.abs(spectrum))) + 3.0 * q * r2 ** 2,
        known_rho=6.0 * q * r2,
        box=box,
        x0_list=[np.zeros(d)],
    )
    if lam_min < 0.0:
        radius = math.sqrt(-lam_min / q)
        spec.planted_saddles = [np.zeros(d)]
        spec.planted_minimum = radius * vmin
        spec.known_minimum_value = -lam_min ** 2 / (4.0 * q)
    else:
        spec.planted_minimum = np.zeros(d)
        spec.known_minimum_value = 0.0
    return spec


# ---------------------------------------------------------------------------
# Chained saddles (coordinate-wise double-well quartics)


def make_chained_saddles(d: int, weights=None, seed: int = 0) -> ProblemSpec:
    """f(x) = sum_i a_i (x_i**2 - 1)**2: d strict saddles met in sequence.

    Each coordinate is a double well with a hilltop at 0.  Descent from the
    origin leaves coordinates untouched until a negative-curvature step moves
    them, so the canonical path visits d strict saddles (0, then points with
    one more coordinate settled into its well each time) before the minimum at
    the all-ones corner.  On the box [-1.5, 1.5]: |w''| <= 23 a and
    |w''(s)-w''(t)| <= 36 a |s-t|.
    """
    if d < 2:
        raise ConfigError("chained saddles need d >= 2")
    if weights is None:
        weights = np.linspace(0.5, 0.3, d)
    a = np.asarray(weights, float)
    if a.shape != (d,) or a.min() <= 0.0:
        raise ConfigError("weights must be d positive reals")

    def value(x):
        return float(np.sum(a * (x ** 2 - 1.0) ** 2))

    def gradient(x):
        return 4.0 * a * x * (x ** 2 - 1.0)

    def hvp(x, v):
        return a * (12.0 * x ** 2 - 4.0) * v

    saddles = [np.zeros(d)]
    for j in range(1, d):
        s = np.zeros(d)
        s[:j] = 1.0
        saddles.append(s)
    return ProblemSpec(
        name="chained_saddles",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp),
        known_L=23.0 * float(a.max()),
        known_rho=36.0 * float(a.max()),
        box=(-1.5, 1.5),
        known_minimum_value=0.0,
        planted_saddles=saddles,
        planted_minimum=np.ones(d),
        x0_list=[np.zeros(d)],
    )


def make_saddle_path(d: int = 2, a: float = 0.25, mu: float = 1.0,
                     z0: float = 4.0) -> ProblemSpec:
    """One strict saddle between the start and the minimum.

    f(x) = a (x_1**2 - 1)**2 + (mu/2) sum_{i>=2} x_i**2.  From
    x0 = (0, z0, ..., z0) plain descent keeps x_1 = 0 exactly and slides into
    the saddle at the origin; one curvature step then opens the x_1 well.
    """
    if d < 2:
        raise ConfigError("saddle path needs d >= 2")

    def value(x):
        return a * (x[0] ** 2 - 1.0) ** 2 + 0.5 * mu * float(x[1:] @ x[1:])

    def gradient(x):
        g = mu * x.copy()
        g[0] = 4.0 * a * x[0] * (x[0] ** 2 - 1.0)
        return g

    def hvp(x, v):
        h = mu * v.copy()
        h[0] = a * (12.0 * x[0] ** 2 - 4.0) * v[0]
        return h

    x0 = np.full(d, z0)
    x0[0] = 0.0
    minimum = np.zeros(d)
    minimum[0] = 1.0
    # constants hold on the well region; the start point sits outside the box
    # but the descent path from it only ever sees milder curvature
    return ProblemSpec(
        name="saddle_path",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp),
        known_L=max(23.0 * a, mu),
        known_rho=36.0 * a,
        box=(-1.5, 1.5),
        known_minimum_value=0.0,
        planted_saddles=[np.zeros(d)],
        planted_minimum=minimum,
        x0_list=[x0],
    )


# ---------------------------------------------------------------------------
# Nonconvex PCA (finite sum / stochastic strict-saddle benchmark)


def make_nonconvex_pca(n: int, d: int, seed: int = 0,
                       top_eig: float = 1.5, data=None) -> ProblemSpec:
    """f(x) = (1/n) sum_i [-(a_i'x)**2/2] + ||x||^4/4, rescaled data.

    The data matrix is rescaled so the empirical covariance M = (1/n) sum
    a_i a_i' has top eigenvalue `top_eig`.  The origin is a strict saddle
    (Hessian -M there); every global minimum sits along the top eigenvector
    at radius sqrt(top_eig) with value -top_eig**2/4, and for this objective
    all local minima are global.  Per-component gradients and HVPs are closed
    form, so the oracle is finite-sum capable.  Explicit `data` (n x d) skips
    the draw and the rescaling.
    """
    if n < 1 or d < 2:
        raise ConfigError("nonconvex PCA needs n >= 1 and d >= 2")
    if data is not None:
        A = np.asarray(data, float).reshape(n, d).copy()
    else:
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, d))
        M = A.T @ A / n
        lam1 = float(np.linalg.eigvalsh(M).max())
        A *= math.sqrt(top_eig / lam1)
    M = A.T @ A / n
    evals, evecs = np.linalg.eigh(M)
    lam_top = float(evals[-1])
    v_top = evecs[:, -1]

    def value(x):
        return -0.5 * float(np.mean((A @ x) ** 2)) + 0.25 * float(x @ x) ** 2

    def gradient(x):
        return -M @ x + float(x @ x) * x

    def hvp(x, v):
        return -M @ v + float(x @ x) * v + 2.0 * x * float(x @ v)

    def component_gradient(i, x):
        return -A[i] * float(A[i] @ x) + float(x @ x) * x

    def component_hvp(i, x, v):
        return -A[i] * float(A[i] @ v) + float(x @ x) * v + 2.0 * x * float(x @ v)

    def component_gradient_batch(idx, x):
        Ai = A[idx]
        return -Ai.T @ (Ai @ x) / len(idx) + float(x @ x) * x

    oracle = ObjectiveOracle(
        d, value, gradient, hvp=hvp,
        n_components=n,
        component_gradient=component_gradient,
        component_hvp=component_hvp,
        component_gradient_batch=component_gradient_batch,
    )
    r2 = 2.0 * math.sqrt(d)
    comp_L = float(np.max(np.sum(A ** 2, axis=1))) + 3.0 * r2 ** 2
    x0 = 0.05 * np.random.default_rng(seed + 1).standard_normal(d)
    return ProblemSpec(
        name="nonconvex_pca",
        oracle=oracle,
        known_L=comp_L,
        known_rho=6.0 * r2,
        box=(-2.0, 2.0),
        known_minimum_value=-lam_top ** 2 / 4.0,
        planted_saddles=[np.zeros(d)],
        planted_minimum=math.sqrt(lam_top) * v_top,
        x0_list=[x0],
    )


# ---------------------------------------------------------------------------
# Standard regression problems


def make_rosenbrock(d: int = 2) -> ProblemSpec:
    if d < 2:
        raise ConfigError("rosenbrock needs d >= 2")

    def value(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    def gradient(x):
        g = np.zeros_like(x)
        g[:-1] = -400.0 * x[:-1] * (x[1:] - x[:-1] ** 2) - 2.0 * (1.0 - x[:-1])
        g[1:] += 200.0 * (x[1:] - x[:-1] ** 2)
        return g

    def hvp(x, v):
        h = np.zeros_like(v)
        diag_main = 1200.0 * x[:-1] ** 2 - 400.0 * x[1:] + 2.0
        off = -400.0 * x[:-1]
        h[:-1] += diag_main * v[:-1] + off * v[1:]
        h[1:] += 200.0 * v[1:] + off * v[:-1]
        return h

    # Gershgorin-style bounds on the box [-2, 2]
    return ProblemSpec(
        name="rosenbrock",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp),
        known_L=7500.0,
        known_rho=7000.0,
        box=(-2.0, 2.0),
        known_minimum_value=0.0,
        planted_minimum=np.ones(d),
        x0_list=[np.array([-1.2, 1.0] + [1.0] * (d - 2))],
    )


def make_rastrigin(d: int = 2) -> ProblemSpec:
    two_pi = 2.0 * math.pi

    def value(x):
        return float(10.0 * d + np.sum(x ** 2 - 10.0 * np.cos(two_pi * x)))

    def gradient(x):
        return 2.0 * x + 10.0 * two_pi * np.sin(two_pi * x)

    def hvp(x, v):
        return (2.0 + 10.0 * two_pi ** 2 * np.cos(two_pi * x)) * v

    return ProblemSpec(
        name="rastrigin",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp),
        known_L=2.0 + 10.0 * two_pi ** 2,
        known_rho=10.0 * two_pi ** 3,
        box=(-5.12, 5.12),
        known_minimum_value=0.0,
        planted_minimum=np.zeros(d),
        x0_list=[np.full(d, 2.0)],
    )


def make_sphere(d: int = 2) -> ProblemSpec:
    return ProblemSpec(
        name="sphere",
        oracle=ObjectiveOracle(
            d,
            value=lambda x: 0.5 * float(x @ x),
            gradient=lambda x: x.copy(),
            hvp=lambda x, v: v.copy(),
        ),
        known_L=1.0,
        known_rho=0.0,
        box=(-5.0, 5.0),
        known_minimum_value=0.0,
        planted_minimum=np.zeros(d),
        x0_list=[np.ones(d)],
    )


_STANDARD = {"rosenbrock": make_rosenbrock, "rastrigin": make_rastrigin,
             "sphere": make_sphere}


def make_standard(name: str, d: int = 2) -> ProblemSpec:
    """Standard regression objectives by name (rosenbrock, rastrigin, sphere)."""
    if name not in _STANDARD:
        raise ConfigError(f"unknown standard problem {name!r}; options: {sorted(_STANDARD)}")
    return _STANDARD[name](d)


# ---------------------------------------------------------------------------
# Mode wrappers


def with_gradient_noise(spec: ProblemSpec, sigma: float) -> ProblemSpec:
    """Stochastic view of a deterministic problem.

    Gradient draws are grad f(x) + zeta with zeta ~ N(0, (sigma**2/d) I), so
    E||zeta||**2 = sigma**2 and the variance bound h_star = 2 sigma**2 holds.
    HVP draws add the rank-one mean-zero perturbation
    sigma * (z (z.v) - v), z ~ N(0, I).  All randomness flows through the
    generator argument, so equal generator states reproduce the same draw.
    """
    base = spec.oracle
    d = base.dimension
    coord = sigma / math.sqrt(d)

    def sample_gradient(x, rng):
        return base.gradient(x) + coord * rng.standard_normal(d)

    def sample_gradient_batch(x, m, rng):
        return base.gradient(x) + coord * rng.standard_normal((m, d)).mean(axis=0)

    def sample_hvp(x, v, rng):
        z = rng.standard_normal(d)
        return base.hvp(x, v) + sigma * (z * float(z @ v) - v)

    oracle = ObjectiveOracle(
        d, base.value, base.gradient, hvp=base.hvp,
        sample_gradient=sample_gradient,
        sample_gradient_batch=sample_gradient_batch,
        sample_hvp=sample_hvp,
    )
    out = ProblemSpec(**{**spec.__dict__, "oracle": oracle,
                         "name": spec.name + "+noise"})
    return out


def as_finite_sum(spec: ProblemSpec, n: int) -> ProblemSpec:
    """Finite-sum view with n identical components (zero component variance)."""
    base = spec.oracle

    oracle = ObjectiveOracle(
        base.dimension, base.value, base.gradient, hvp=base.hvp,
        n_components=n,
        component_gradient=lambda i, x: base.gradient(x),
        component_hvp=lambda i, x, v: base.hvp(x, v),
    )
    return ProblemSpec(**{**spec.__dict__, "oracle": oracle,
                          "name": spec.name + f"+sum{n}"})


def as_streaming(spec: ProblemSpec) -> ProblemSpec:
    """Stochastic view of a finite-sum problem: uniform single-component draws."""
    base = spec.oracle
    n = base.n_components
    if n < 1:
        raise ConfigError("as_streaming needs a finite-sum problem")

    def sample_gradient(x, rng):
        return base.component_gradient(int(rng.integers(0, n)), x)

    def sample_hvp(x, v, rng):
        return base.component_hvp(int(rng.integers(0, n)), x, v)

    oracle = ObjectiveOracle(
        base.dimension, base.value, base.gradient, hvp=base.hvp,
        sample_gradient=sample_gradient, sample_hvp=sample_hvp,
    )
    return ProblemSpec(**{**spec.__dict__, "oracle": oracle,
                          "name": spec.name + "+stream"})


# ---------------------------------------------------------------------------
# Certification and verification oracles


def dense_hessian(oracle, x) -> np.ndarray:
    """Assemble the Hessian column by column from d HVP calls, symmetrized."""
    d = oracle.dimension
    if d > 500:
        raise DimensionTooLarge(f"dense certification capped at d=500, got {d}")
    x = np.asarray(x, float)
    H = np.zeros((d, d))
    eye = np.eye(d)
    for i in range(d):
        H[:, i] = oracle.hvp(x, eye[i])
    return 0.5 * (H + H.T)


def certify_second_order(oracle, x, eps: float, eps_h: float):
    """Ground-truth check of the second-order condition at x.

    Returns (ok, grad_norm, lambda_min) where ok means grad_norm <= eps and
    lambda_min >= -eps_h, with lambda_min from a dense symmetric
    eigendecomposition.
    """
    x = np.asarray(x, float)
    grad_norm = float(np.linalg.norm(oracle.gradient(x)))
    lam_min = float(np.linalg.eigvalsh(dense_hessian(oracle, x))[0])
    return (grad_norm <= eps and lam_min >= -eps_h), grad_norm, lam_min


def verify_lipschitz_constants(spec: ProblemSpec, rng: np.random.Generator,
                               pairs: int = 1000) -> bool:
    """Spot-verify known_L and known_rho on random pairs in the box.

    For each pair: ||grad f(x) - grad f(y)|| <= L ||x - y|| and
    ||H(x) - H(y)||_2 <= rho ||x - y|| + 1e-8.  Raises AssertionError naming
    the first violated bound.
    """
    lo, hi = spec.box
    d = spec.oracle.dimension
    for _ in range(pairs):
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
# Registry


PROBLEM_FACTORIES: dict[str, Callable[..., ProblemSpec]] = {
    "quadratic_saddle": lambda d=2, spectrum=None, seed=0, orth=True: make_quadratic_saddle(
        d, spectrum if spectrum is not None else ([1.0] * (d - 1) + [-1.0]), seed, orth),
    "bowl_saddle": lambda d=2, spectrum=None, q=0.5, seed=0, orth=True: make_bowl_saddle(
        d, spectrum if spectrum is not None else ([1.0] * (d - 1) + [-1.0]), q, seed, orth),
    "chained_saddles": make_chained_saddles,
    "saddle_path": make_saddle_path,
    "nonconvex_pca": make_nonconvex_pca,
    "rosenbrock": make_rosenbrock,
    "rastrigin": make_rastrigin,
    "sphere": make_sphere,
}


def list_problems() -> list[str]:
    return sorted(PROBLEM_FACTORIES)


def get_problem(name: str, **params) -> ProblemSpec:
    if name not in PROBLEM_FACTORIES:
        raise ConfigError(f"unknown problem {name!r}; options: {list_problems()}")
    return PROBLEM_FACTORIES[name](**params)
