"""Shared domain types: oracle interface, tolerances, smoothness constants, eval accounting.

Cost convention: one gradient, one stochastic gradient, one component gradient
and one Hessian-vector product each count as one oracle work unit.  Wall time
is never part of any contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np


# ---------------------------------------------------------------------------
# Errors


class GoseError(Exception):
    """Base class for all library errors."""


class ConfigError(GoseError, ValueError):
    """Invalid tolerance / smoothness / algorithm configuration."""


class NonPositiveConstant(ConfigError):
    pass


class EpsilonTooLarge(ConfigError):
    """eps violates eps < eps_h**2 / (16 * c1 * rho_eff)."""


class StochasticEpsilonTooLarge(ConfigError):
    """Stochastic mode additionally needs eps <= eps_h**1.5."""


class ZeroDirection(GoseError, ValueError):
    pass


class NotStochastic(GoseError, TypeError):
    """Operation needs a stochastic-capable oracle."""


class NotFiniteSum(GoseError, TypeError):
    """Operation needs a finite-sum-capable oracle."""


class AsymmetricOperator(GoseError, ValueError):
    """Hessian-vector operator failed the random symmetry probe."""


class BudgetZero(ConfigError):
    pass


class InvalidP(ConfigError):
    pass


class MissingVarianceBound(ConfigError):
    """Stochastic mode needs h_star (or a pilot estimate, see estimate_variance_bound)."""


class DimensionTooLarge(GoseError, ValueError):
    pass


# ---------------------------------------------------------------------------
# Evaluation accounting


@dataclass
class EvalCounters:
    """Tallies of oracle work and driver events.

    All fields are nondecreasing over a run.  A full-batch gradient of a
    finite-sum oracle counts one grad_eval plus n_components
    component_grad_evals (that is what it costs).  A synthesized
    Hessian-vector product counts two gradient evals instead of an hvp_eval.
    """

    grad_evals: int = 0
    stoch_grad_evals: int = 0
    component_grad_evals: int = 0
    hvp_evals: int = 0
    fn_evals: int = 0
    nc_calls: int = 0
    escape_steps: int = 0
    small_region_entries: int = 0
    outer_iters: int = 0
    epochs_run: int = 0

    def snapshot(self) -> "EvalCounters":
        return replace(self)

    def work_units(self) -> int:
        """Total oracle cost, one unit per (stochastic/component) gradient or HVP."""
        return (self.grad_evals + self.stoch_grad_evals
                + self.component_grad_evals + self.hvp_evals)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


# ---------------------------------------------------------------------------
# Oracle interface


@dataclass(frozen=True)
class Capabilities:
    finite_sum: bool
    stochastic: bool
    analytic_hvp: bool


class ObjectiveOracle:
    """Callable bundle for one objective.

    Required: dimension, value(x), gradient(x).  Optional: an analytic
    Hessian-vector product, per-component gradients/HVPs (finite-sum mode) and
    single-draw stochastic gradients/HVPs (stochastic mode).  Missing HVPs are
    synthesized by central differences of the corresponding gradient.

    Stochastic callables must realize their randomness exclusively through the
    generator they receive, so that equal generator states reproduce the same
    draw of the underlying random index xi.  This is what lets variance-reduced
    updates evaluate the same xi at two points.
    """

    def __init__(self, dimension: int,
                 value: Callable,
                 gradient: Callable,
                 hvp: Optional[Callable] = None,
                 n_components: int = 0,
                 component_gradient: Optional[Callable] = None,
                 component_hvp: Optional[Callable] = None,
                 component_gradient_batch: Optional[Callable] = None,
                 sample_gradient: Optional[Callable] = None,
                 sample_hvp: Optional[Callable] = None,
                 sample_gradient_batch: Optional[Callable] = None):
        if dimension < 1:
            raise NonPositiveConstant("dimension must be a positive integer")
        if n_components < 0:
            raise NonPositiveConstant("n_components must be nonnegative")
        if n_components > 0 and component_gradient is None:
            raise ConfigError("finite-sum oracle needs component_gradient")
        self.dimension = int(dimension)
        self.n_components = int(n_components)
        self._value = value
        self._gradient = gradient
        self._hvp = hvp
        self._component_gradient = component_gradient
        self._component_hvp = component_hvp
        self._component_gradient_batch = component_gradient_batch
        self._sample_gradient = sample_gradient
        self._sample_hvp = sample_hvp
        self._sample_gradient_batch = sample_gradient_batch

    @property
    def capabilities(self) -> Capabilities:
        return Capabilities(
            finite_sum=self.n_components > 0,
            stochastic=self._sample_gradient is not None,
            analytic_hvp=self._hvp is not None,
        )

    # -- deterministic surface

    def value(self, x) -> float:
        return float(self._value(np.asarray(x, dtype=float)))

    def gradient(self, x) -> np.ndarray:
        return np.asarray(self._gradient(np.asarray(x, dtype=float)), dtype=float)

    def hvp(self, x, v) -> np.ndarray:
        if self._hvp is not None:
            return np.asarray(self._hvp(np.asarray(x, float), np.asarray(v, float)), float)
        return finite_diff_hvp(self, x, v)

    # -- finite-sum surface

    def component_gradient(self, i: int, x) -> np.ndarray:
        if self._component_gradient is None:
            raise NotFiniteSum("oracle has no component gradients")
        return np.asarray(self._component_gradient(int(i), np.asarray(x, float)), float)

    def component_gradient_batch(self, indices, x) -> np.ndarray:
        """Mean of component gradients over `indices`."""
        if self._component_gradient_batch is not None:
            return np.asarray(self._component_gradient_batch(np.asarray(indices), np.asarray(x, float)), float)
        acc = np.zeros(self.dimension)
        for i in indices:
            acc += self.component_gradient(i, x)
        return acc / max(len(indices), 1)

    def component_hvp(self, i: int, x, v) -> np.ndarray:
        if self._component_hvp is not None:
            return np.asarray(self._component_hvp(int(i), np.asarray(x, float), np.asarray(v, float)), float)
        if self._component_gradient is None:
            raise NotFiniteSum("oracle has no component gradients")
        return _central_diff(lambda y: self.component_gradient(i, y), x, v)

    # -- stochastic surface

    def sample_gradient(self, x, rng: np.random.Generator) -> np.ndarray:
        if self._sample_gradient is None:
            raise NotStochastic("oracle has no stochastic gradients")
        return np.asarray(self._sample_gradient(np.asarray(x, float), rng), float)

    def sample_gradient_batch(self, x, m: int, rng: np.random.Generator) -> np.ndarray:
        """Mean of m independent stochastic gradient draws."""
        if self._sample_gradient_batch is not None:
            return np.asarray(self._sample_gradient_batch(np.asarray(x, float), int(m), rng), float)
        acc = np.zeros(self.dimension)
        for _ in range(int(m)):
            acc += self.sample_gradient(x, rng)
        return acc / max(int(m), 1)

    def sample_hvp(self, x, v, rng: np.random.Generator) -> np.ndarray:
        if self._sample_hvp is not None:
            return np.asarray(self._sample_hvp(np.asarray(x, float), np.asarray(v, float), rng), float)
        if self._sample_gradient is None:
            raise NotStochastic("oracle has no stochastic gradients")
        # Same xi at both probe points: replay one child seed.
        seed = int(rng.integers(0, 2**63 - 1))
        grad = lambda y, s=seed: self.sample_gradient(y, np.random.default_rng(s))
        return _central_diff(grad, x, v)


def _central_diff(grad: Callable, x, v) -> np.ndarray:
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ZeroDirection("cannot differentiate along the zero vector")
    u = v / nv
    r = math.sqrt(np.finfo(float).eps) * (1.0 + float(np.linalg.norm(x)))
    return (grad(x + r * u) - grad(x - r * u)) / (2.0 * r) * nv


def finite_diff_hvp(oracle, x, v) -> np.ndarray:
    """Hessian-vector product from two gradient calls.

    Central difference along u = v/||v|| with radius
    r = sqrt(machine eps) * (1 + ||x||), rescaled by ||v||.  The radius grows
    with ||x|| to keep the relative perturbation stable far from the origin.
    Costs exactly two gradient evaluations.
    """
    return _central_diff(oracle.gradient, x, v)


class CountingOracle:
    """Oracle wrapper that tallies every call into an EvalCounters.

    The wrapped oracle stays untouched; all mutation lives here.  Synthesized
    HVPs route through self.gradient so their two gradient calls are counted
    instead of an hvp_eval.
    """

    def __init__(self, base: ObjectiveOracle, counters: Optional[EvalCounters] = None):
        self.base = base
        self.counters = counters if counters is not None else EvalCounters()

    @property
    def dimension(self):
        return self.base.dimension

    @property
    def n_components(self):
        return self.base.n_components

    @property
    def capabilities(self):
        return self.base.capabilities

    def value(self, x):
        self.counters.fn_evals += 1
        return self.base.value(x)

    def gradient(self, x):
        self.counters.grad_evals += 1
        if self.base.n_components > 0:
            self.counters.component_grad_evals += self.base.n_components
        return self.base.gradient(x)

    def hvp(self, x, v):
        if self.base.capabilities.analytic_hvp:
            self.counters.hvp_evals += 1
            return self.base.hvp(x, v)
        return finite_diff_hvp(self, x, v)

    def component_gradient(self, i, x):
        self.counters.component_grad_evals += 1
        return self.base.component_gradient(i, x)

    def component_gradient_batch(self, indices, x):
        self.counters.component_grad_evals += len(indices)
        return self.base.component_gradient_batch(indices, x)

    def component_hvp(self, i, x, v):
        self.counters.hvp_evals += 1
        return self.base.component_hvp(i, x, v)

    def sample_gradient(self, x, rng):
        self.counters.stoch_grad_evals += 1
        return self.base.sample_gradient(x, rng)

    def sample_gradient_batch(self, x, m, rng):
        self.counters.stoch_grad_evals += int(m)
        return self.base.sample_gradient_batch(x, m, rng)

    def sample_hvp(self, x, v, rng):
        self.counters.hvp_evals += 1
        return self.base.sample_hvp(x, v, rng)


def as_counting(oracle) -> CountingOracle:
    """Wrap in a CountingOracle unless it already is one."""
    if isinstance(oracle, CountingOracle):
        return oracle
    return CountingOracle(oracle)


# ---------------------------------------------------------------------------
# Configuration


MODES = ("deterministic", "stochastic", "finite_sum")


@dataclass(frozen=True)
class ToleranceConfig:
    """First/second-order tolerances and run controls.

    eps: gradient-norm tolerance.  eps_h: Hessian min-eigenvalue tolerance.
    delta: per-subroutine failure probability.  c1: step-size overshoot
    factor (>= 1) applied to the Hessian-Lipschitz constant.
    """

    eps: float
    eps_h: float
    delta: float = 0.01
    c1: float = 1.0
    max_outer: int = 1000
    seed: int = 0


@dataclass
class SmoothnessSpec:
    """Smoothness constants of the objective.

    rho_min floors rho: quadratics have rho = 0, which would make the escape
    step eps_h/(2*c1*rho) infinite; any constant above the true rho is still a
    valid Hessian-Lipschitz bound, so the floor only shortens the step.
    """

    L: float
    rho: float = 0.0
    rho_min: float = 1e-3
    h_star: Optional[float] = None
    sigma: Optional[float] = None

    @property
    def rho_eff(self) -> float:
        return max(self.rho, self.rho_min)


@dataclass(frozen=True)
class ValidatedConfig:
    """Frozen output of validate_config: tolerances plus derived constants."""

    mode: str
    eps: float
    eps_h: float
    delta: float
    c1: float
    L: float
    rho_eff: float
    sigma: Optional[float]


def validate_config(tol: ToleranceConfig, smooth: SmoothnessSpec, mode: str) -> ValidatedConfig:
    """Check tolerance preconditions and freeze derived constants.

    Deterministic and finite-sum modes need eps < eps_h**2/(16*c1*rho_eff);
    stochastic mode additionally needs eps <= eps_h**1.5.
    """
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")
    for name, val in (("eps", tol.eps), ("eps_h", tol.eps_h), ("delta", tol.delta)):
        if not (0.0 < val < 1.0):
            raise NonPositiveConstant(f"{name} must lie in (0, 1), got {val}")
    if tol.c1 < 1.0:
        raise NonPositiveConstant(f"c1 must be >= 1, got {tol.c1}")
    if tol.max_outer < 1:
        raise NonPositiveConstant(f"max_outer must be >= 1, got {tol.max_outer}")
    if smooth.L <= 0.0:
        raise NonPositiveConstant(f"L must be positive, got {smooth.L}")
    if smooth.rho < 0.0:
        raise NonPositiveConstant(f"rho must be nonnegative, got {smooth.rho}")
    if smooth.rho_min <= 0.0:
        raise NonPositiveConstant(f"rho_min must be positive, got {smooth.rho_min}")
    if smooth.h_star is not None and smooth.h_star < 0.0:
        raise NonPositiveConstant(f"h_star must be nonnegative, got {smooth.h_star}")

    rho_eff = smooth.rho_eff
    bound = tol.eps_h ** 2 / (16.0 * tol.c1 * rho_eff)
    if not tol.eps < bound:
        raise EpsilonTooLarge(
            f"eps={tol.eps:.6g} must satisfy eps < eps_h**2/(16*c1*rho_eff)"
            f" = {bound:.6g}"
        )
    if mode == "stochastic":
        sbound = tol.eps_h ** 1.5
        if tol.eps > sbound:
            raise StochasticEpsilonTooLarge(
                f"stochastic mode needs eps <= eps_h**1.5 = {sbound:.6g}, got eps={tol.eps:.6g}"
            )

    return ValidatedConfig(
        mode=mode,
        eps=tol.eps, eps_h=tol.eps_h, delta=tol.delta, c1=tol.c1,
        L=smooth.L, rho_eff=rho_eff, sigma=smooth.sigma,
    )


# ---------------------------------------------------------------------------
# Certificates


STATUS_SECOND_ORDER = "second_order_stationary"
STATUS_FIRST_ORDER = "first_order_only"
STATUS_BUDGET = "budget_exhausted"


@dataclass
class Certificate:
    """Terminal point of a run with the driver's own measurements.

    second_order_stationary is emitted only after the negative-curvature
    finder declares no usable direction, so it carries the finder's failure
    probability delta; ground truth on test problems comes from
    problems.certify_second_order.
    """

    point: np.ndarray
    grad_norm: float
    min_eig_estimate: float
    status: str
    counters: EvalCounters
