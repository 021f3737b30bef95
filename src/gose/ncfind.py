"""Negative-curvature finders.

All engines share one output contract: return a unit direction whose measured
Rayleigh quotient is at most -eps_h/2, or bottom meaning that with probability
at least 1-delta no eigenvalue of the Hessian lies below -eps_h.  One Lanczos
core serves every setting; what varies is the Hessian-vector product source
(analytic, finite differences of gradients, per-component minibatch averages,
or a streaming power update on stochastic draws).

Every engine re-measures the Rayleigh quotient before returning a direction
and demotes to bottom on failure, which makes "direction implies Rayleigh
<= -eps_h/2" hold deterministically rather than with probability 1-delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .core import (AsymmetricOperator, BudgetZero, ConfigError, NotFiniteSum,
                   NotStochastic, as_counting, finite_diff_hvp)

BOTTOM = "bottom"
DIRECTION = "direction"

_BREAKDOWN = 1e-13
_RESID_TOL = 1e-12


@dataclass
class NcOutcome:
    """Result of one finder call.

    rayleigh is the exit-validation measurement and is only set for
    directions; lambda_hat is the engine's best minimum-eigenvalue estimate
    and is informative for both kinds.  hvp_or_grad_cost is the oracle work
    (gradients + HVPs, one unit each) consumed by the call.
    """

    kind: str
    direction: Optional[np.ndarray]
    rayleigh: Optional[float]
    hvp_or_grad_cost: int
    lambda_hat: float

    @property
    def is_direction(self) -> bool:
        return self.kind == DIRECTION

    @property
    def is_bottom(self) -> bool:
        return self.kind == BOTTOM


@dataclass
class NcBudget:
    """Iteration cap for one Lanczos run."""

    max_matvecs: int

    def __post_init__(self):
        if self.max_matvecs < 1:
            raise BudgetZero(f"max_matvecs must be >= 1, got {self.max_matvecs}")


ENGINES = ("minibatch_lanczos", "oja")


@dataclass(frozen=True)
class NcConfig:
    """Knobs shared by the finder front ends, checked when constructed.

    budget_mult scales the iteration/sample budgets (the asymptotic formulas
    carry unspecified constants, exposed here).  restarts (>= 1) caps the
    candidates one call may draw.  engine selects the stochastic core: a
    minibatch-averaged Lanczos or the streaming power update on fresh draws
    ("oja").
    """

    budget_mult: float = 4.0
    restarts: int = 1
    engine: str = "minibatch_lanczos"

    def __post_init__(self):
        if self.restarts < 1:
            raise BudgetZero(f"restarts must be >= 1, got {self.restarts}")
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown stochastic engine {self.engine!r}; options: {ENGINES}")


# ---------------------------------------------------------------------------
# Budget formulas (documented cost contracts, also used by tests)


def det_max_matvecs(d: int, eps_h: float, delta: float, L: float, mult: float) -> int:
    """ceil(mult * log(d/delta) * sqrt(L/eps_h))"""
    return int(math.ceil(mult * math.log(d / delta) * math.sqrt(L / eps_h)))


def oja_total_samples(d: int, eps_h: float, delta: float, L: float, mult: float) -> int:
    """ceil(mult * log(d/delta)**2 * L**2 / eps_h**2)"""
    return int(math.ceil(mult * math.log(d / delta) ** 2 * L ** 2 / eps_h ** 2))


def stoch_minibatch(d: int, eps_h: float, L: float, mult: float) -> int:
    """ceil(mult * L**2 / eps_h**2 / sqrt(d)), per matvec"""
    return int(math.ceil(mult * L ** 2 / eps_h ** 2 / math.sqrt(d)))


def validation_batch(eps_h: float, L: float, mult: float) -> int:
    """ceil(mult * L**2 / eps_h**2), one fresh batch at exit"""
    return int(math.ceil(mult * L ** 2 / eps_h ** 2))


def finite_sum_minibatch(n: int, eps_h: float, L: float, mult: float, max_matvecs: int) -> int:
    """min(n, ceil(mult * n**0.75 * sqrt(L/eps_h) / max_matvecs)), per matvec"""
    m = int(math.ceil(mult * n ** 0.75 * math.sqrt(L / eps_h) / max_matvecs))
    return min(n, max(m, 1))


# ---------------------------------------------------------------------------
# Lanczos core


def _symmetry_probe(hvp: Callable, d: int, rng: np.random.Generator, tol: float):
    u = _random_unit(d, rng)
    w = _random_unit(d, rng)
    s1 = float(w @ hvp(u))
    s2 = float(u @ hvp(w))
    if abs(s1 - s2) > tol * (1.0 + max(abs(s1), abs(s2))):
        raise AsymmetricOperator(
            f"probe mismatch: w'Hu={s1:.6g} vs u'Hw={s2:.6g}"
        )


def _random_unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def lanczos_min_eig(hvp: Callable, d: int, budget: NcBudget,
                    rng: np.random.Generator,
                    probe_tol: Optional[float] = 1e-6) -> tuple[float, np.ndarray]:
    """Bottom Ritz pair of a symmetric operator given only v -> H v.

    Random unit start, full reorthogonalization, tridiagonal eigensolve each
    iteration, at most budget.max_matvecs matvecs in the loop (capped at d,
    where the Krylov space is exact).  Stops early on an invariant subspace
    or once the bottom Ritz residual is negligible.  The returned eigenvalue
    is recomputed as v' H v with one extra matvec at exit, so it is a true
    Rayleigh quotient of the returned unit vector.

    probe_tol of None skips the symmetry probe, which is meaningless for
    operators that resample noise on every call.
    """
    if probe_tol is not None:
        _symmetry_probe(hvp, d, rng, probe_tol)

    m = min(budget.max_matvecs, d)
    Q = np.zeros((d, m))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    q = _random_unit(d, rng)
    theta, y, steps = 0.0, None, 0

    for j in range(m):
        Q[:, j] = q
        u = hvp(q)
        a = float(q @ u)
        alphas[j] = a
        r = u - a * q
        if j > 0:
            r -= betas[j - 1] * Q[:, j - 1]
        # full reorthogonalization against all Lanczos vectors so far
        r -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ r)
        b = float(np.linalg.norm(r))
        steps = j + 1
        if j == 0:
            theta, y = a, np.array([1.0])
        else:
            vals, vecs = eigh_tridiagonal(alphas[:j + 1], betas[:j],
                                          select="i", select_range=(0, 0))
            theta, y = float(vals[0]), vecs[:, 0]
        if b < _BREAKDOWN:                      # invariant subspace found
            break
        if abs(b * y[-1]) <= _RESID_TOL * max(1.0, abs(theta)):
            break
        if j + 1 < m:
            betas[j] = b
            q = r / b

    v = Q[:, :steps] @ y
    v = v / np.linalg.norm(v)
    lam = float(v @ hvp(v))
    return lam, v


# ---------------------------------------------------------------------------
# Finder front ends


def _search(oracle, restarts: int, candidate: Callable, threshold: float) -> NcOutcome:
    """The one finder skeleton: up to `restarts` candidates, best one validated.

    candidate() returns (validated Rayleigh quotient, unit vector); the search
    stops at the first quotient at or below threshold.  Counts the call and
    its oracle work and returns a direction or bottom.
    """
    oracle.counters.nc_calls += 1
    start = oracle.counters.work_units()
    best_ray, best_v = math.inf, None
    for _ in range(restarts):
        ray, v = candidate()
        if ray < best_ray:
            best_ray, best_v = ray, v
        if best_ray <= threshold:
            break
    cost = oracle.counters.work_units() - start
    if best_ray <= threshold:
        return NcOutcome(DIRECTION, best_v, best_ray, cost, best_ray)
    return NcOutcome(BOTTOM, None, None, cost, best_ray)


def approx_nc_deterministic(oracle, x, eps_h: float, delta: float, L: float,
                            rng: np.random.Generator,
                            cfg: NcConfig = NcConfig(),
                            hvp_source: str = "auto") -> NcOutcome:
    """Exact-Hessian negative-curvature search via Lanczos.

    hvp_source "auto" uses the oracle's analytic HVP when present, otherwise
    central differences of gradients (two gradient evals per matvec); "fd"
    forces the gradient-only route.  Cost is at most
    restarts * (max_matvecs + 3) matvec-equivalents (probe 2, exit 1), times
    two when differencing gradients.
    """
    oracle = as_counting(oracle)
    x = np.asarray(x, float)
    d = oracle.dimension

    if hvp_source == "fd":
        hvp = lambda v: finite_diff_hvp(oracle, x, v)
    else:
        hvp = lambda v: oracle.hvp(x, v)

    mm = det_max_matvecs(d, eps_h, delta, L, cfg.budget_mult)
    return _search(oracle, cfg.restarts,
                   lambda: lanczos_min_eig(hvp, d, NcBudget(mm), rng),
                   -eps_h / 2.0)


def approx_nc_stochastic(oracle, x, eps_h: float, delta: float, L: float,
                         rng: np.random.Generator,
                         cfg: NcConfig = NcConfig()) -> NcOutcome:
    """Negative-curvature search from stochastic Hessian-vector draws.

    Engine "minibatch_lanczos" averages sample HVPs over a fresh minibatch per
    matvec; engine "oja" streams v <- normalize(v - eta * sample_hvp(x, v))
    over fresh single draws with eta = eps_h/(8 L**2).  Either way the
    candidate is accepted only if its Rayleigh quotient on a fresh validation
    minibatch is at most -(eps_h/2 + eps_h/8); the extra eps_h/8 absorbs
    validation noise.
    """
    oracle = as_counting(oracle)
    if not oracle.capabilities.stochastic:
        raise NotStochastic("approx_nc_stochastic needs a stochastic oracle")
    x = np.asarray(x, float)
    d = oracle.dimension

    def mean_sample_hvp(v, m):
        acc = np.zeros(d)
        for _ in range(m):
            acc += oracle.sample_hvp(x, v, rng)
        return acc / m

    if cfg.engine == "oja":
        eta = eps_h / (8.0 * L ** 2)
        total = oja_total_samples(d, eps_h, delta, L, cfg.budget_mult)

        def draw():
            v = _random_unit(d, rng)
            for _ in range(total):
                v = v - eta * oracle.sample_hvp(x, v, rng)
                v = v / np.linalg.norm(v)
            return v
    else:
        m = stoch_minibatch(d, eps_h, L, cfg.budget_mult)
        mm = det_max_matvecs(d, eps_h, delta, L, cfg.budget_mult)

        def draw():
            _, v = lanczos_min_eig(lambda w: mean_sample_hvp(w, m), d,
                                   NcBudget(mm), rng, probe_tol=None)
            return v

    m_val = validation_batch(eps_h, L, cfg.budget_mult)

    def candidate():
        v = draw()
        return float(v @ mean_sample_hvp(v, m_val)), v

    return _search(oracle, cfg.restarts, candidate, -(eps_h / 2.0 + eps_h / 8.0))


def _index_mean_hvp(oracle, x, v, indices) -> np.ndarray:
    """Mean of component HVPs at x along v over `indices`."""
    acc = np.zeros(oracle.dimension)
    for i in indices:
        acc += oracle.component_hvp(int(i), x, v)
    return acc / len(indices)


def approx_nc_finite_sum(oracle, x, eps_h: float, delta: float, L: float,
                         rng: np.random.Generator,
                         cfg: NcConfig = NcConfig()) -> NcOutcome:
    """Negative-curvature search over a finite sum of components.

    Lanczos where each matvec averages per-component HVPs over a fresh index
    minibatch sized so the loop costs about n**0.75 * sqrt(L/eps_h) component
    HVPs in total, followed by one full-batch Rayleigh validation (n component
    HVPs).  The full-batch measurement is exact, so acceptance uses the plain
    -eps_h/2 threshold.
    """
    oracle = as_counting(oracle)
    if not oracle.capabilities.finite_sum:
        raise NotFiniteSum("approx_nc_finite_sum needs a finite-sum oracle")
    x = np.asarray(x, float)
    d = oracle.dimension
    n = oracle.n_components

    mm = det_max_matvecs(d, eps_h, delta, L, cfg.budget_mult)
    m = finite_sum_minibatch(n, eps_h, L, cfg.budget_mult, mm)

    def minibatch_hvp(v):
        return _index_mean_hvp(oracle, x, v, rng.integers(0, n, size=m))

    def candidate():
        _, v = lanczos_min_eig(minibatch_hvp, d, NcBudget(mm), rng, probe_tol=None)
        return float(v @ _index_mean_hvp(oracle, x, v, range(n))), v

    return _search(oracle, cfg.restarts, candidate, -eps_h / 2.0)
