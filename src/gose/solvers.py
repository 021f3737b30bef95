"""Large-gradient-region machinery.

First-order solvers that drive the iterate to ||grad f|| <= eps (plain
gradient descent as the certified reference, a guard-restarted accelerated
variant as the faster option), plus the variance-reduced epoch used in the
stochastic and finite-sum drivers: anchor a batch gradient, then take a
geometrically distributed number of control-variate steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ConfigError, InvalidP, MissingVarianceBound,
                   NonPositiveConstant, as_counting)


@dataclass
class SolveResult:
    """Output of a first-order solver; converged=False flags budget exhaustion."""

    point: np.ndarray
    grad_norm: float
    converged: bool
    iters: int


@dataclass
class ScsgConfig:
    """Batch/minibatch sizes and step size for one variance-reduced epoch.

    p = B/(B+b) parameterizes the geometric epoch length, whose mean is B/b.
    degenerate_sgd marks the regime where the minibatch rule met or exceeded
    the batch size and was clamped (the epoch then behaves like plain SGD).
    """

    B: int
    b: int
    eta: float
    p: float
    mode: str  # "stochastic" | "finite_sum"
    degenerate_sgd: bool = False

    def __post_init__(self):
        if not (1 <= self.b <= self.B):
            raise ConfigError(f"need 1 <= b <= B, got b={self.b}, B={self.B}")
        if self.eta <= 0.0:
            raise NonPositiveConstant(f"eta must be positive, got {self.eta}")
        if not (0.0 < self.p < 1.0):
            raise InvalidP(f"p must lie in (0, 1), got {self.p}")


def sample_geometric(p: float, rng: np.random.Generator) -> int:
    """Draw T with Pr(T = k) = p**k * (1 - p) for k = 0, 1, 2, ...

    Inverse-CDF form floor(ln(U)/ln(p)) with U uniform on (0, 1]; the mean is
    p/(1-p).
    """
    if not (0.0 < p < 1.0):
        raise InvalidP(f"p must lie in (0, 1), got {p}")
    u = 1.0 - rng.random()  # in (0, 1]
    return int(math.floor(math.log(u) / math.log(p)))


def derive_scsg_params(tol, smooth, mode: str, n: int = 0,
                       b_mult: float = 1.0, B_mult: float = 96.0,
                       B_override: Optional[int] = None,
                       b_override: Optional[int] = None) -> ScsgConfig:
    """Derive epoch parameters for the chosen mode.

    Stochastic: B = ceil(B_mult * h_star * log(1/delta) / eps**2),
    b = clamp(ceil(b_mult * rho_eff**6 * h_star * eps**4 / (L**3 * eps_h**9)), 1, B),
    eta = b**(2/3) / (6 L B**(2/3)).  The default B_mult of 96 keeps
    B >= 96 * h_star / eps**2, the level the epoch analysis assumes.  When the
    unclamped b reaches B the config is flagged degenerate (plain SGD).

    Finite-sum: B = n, b = 1, eta = 1/(L * n**(2/3)).

    Explicit overrides bypass the corresponding rule (the flag and p are still
    derived from the effective values).
    """
    if mode == "finite_sum":
        if n < 1:
            raise ConfigError("finite_sum mode needs n >= 1")
        B = n if B_override is None else int(B_override)
        b = 1 if b_override is None else int(b_override)
        eta = 1.0 / (smooth.L * n ** (2.0 / 3.0))
        return ScsgConfig(B=B, b=min(b, B), eta=eta, p=B / (B + b),
                          mode=mode, degenerate_sgd=False)
    if mode != "stochastic":
        raise ConfigError(f"mode must be 'stochastic' or 'finite_sum', got {mode!r}")
    h_star = smooth.h_star
    if h_star is None:
        raise MissingVarianceBound(
            "stochastic mode needs h_star; supply it or run estimate_variance_bound"
        )
    rho = smooth.rho_eff
    if B_override is not None:
        B = int(B_override)
    else:
        B = int(math.ceil(B_mult * h_star * math.log(1.0 / tol.delta) / tol.eps ** 2))
    B = max(B, 1)
    if b_override is not None:
        b_raw = int(b_override)
    else:
        b_raw = int(math.ceil(
            b_mult * rho ** 6 * h_star * tol.eps ** 4 / (smooth.L ** 3 * tol.eps_h ** 9)
        ))
    degenerate = b_raw >= B
    b = min(max(b_raw, 1), B)
    eta = b ** (2.0 / 3.0) / (6.0 * smooth.L * B ** (2.0 / 3.0))
    return ScsgConfig(B=B, b=b, eta=eta, p=B / (B + b), mode=mode,
                      degenerate_sgd=degenerate)


def estimate_variance_bound(oracle, x, rng: np.random.Generator,
                            samples: int = 512) -> float:
    """Pilot estimate of the gradient-variance bound h_star (= 2 sigma**2).

    Twice the empirical mean squared deviation of `samples` stochastic
    gradients drawn at x; the factor two is slack for the pilot being local.
    """
    oracle = as_counting(oracle)
    draws = np.stack([oracle.sample_gradient(x, rng) for _ in range(samples)])
    mean = draws.mean(axis=0)
    return 2.0 * float(np.mean(np.sum((draws - mean) ** 2, axis=1)))


def scsg_epoch(oracle, x0, cfg: ScsgConfig, g_anchor: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """One variance-reduced epoch anchored at g_anchor (the batch gradient at x0).

    Draws T ~ Geom(B/(B+b)) and iterates
        y <- y - eta * (g_I(y) - g_I(x0) + g_anchor)
    where g_I is the minibatch-mean gradient over b fresh indices (finite-sum)
    or b fresh draws replayed at both points (stochastic, common random
    numbers).  Returns x0 unchanged when T = 0.  Costs 2*b*T gradient evals.
    """
    oracle = as_counting(oracle)
    x0 = np.asarray(x0, float)
    T = sample_geometric(cfg.p, rng)
    if T == 0:
        return x0
    y = x0.copy()
    n = oracle.n_components
    for _ in range(T):
        if cfg.mode == "finite_sum":
            idx = rng.integers(0, n, size=cfg.b)
            g_y = oracle.component_gradient_batch(idx, y)
            g_0 = oracle.component_gradient_batch(idx, x0)
        else:
            seed = int(rng.integers(0, 2**63 - 1))
            g_y = oracle.sample_gradient_batch(y, cfg.b, np.random.default_rng(seed))
            g_0 = oracle.sample_gradient_batch(x0, cfg.b, np.random.default_rng(seed))
        y = y - cfg.eta * (g_y - g_0 + g_anchor)
    return y


def gd_to_stationarity(oracle, x0, L: float, eps: float,
                       max_iters: int = 200_000) -> SolveResult:
    """Plain gradient descent with step 1/L until ||grad f|| <= eps.

    Returns the first iterate meeting the condition; on budget exhaustion the
    last iterate is returned with converged=False (its gradient norm is
    re-measured, costing one extra eval).
    """
    if L <= 0.0:
        raise NonPositiveConstant(f"L must be positive, got {L}")
    oracle = as_counting(oracle)
    x = np.asarray(x0, float)
    for i in range(max_iters):
        g = oracle.gradient(x)
        gn = float(np.linalg.norm(g))
        if gn <= eps:
            return SolveResult(x, gn, True, i)
        if not math.isfinite(gn):  # unbounded descent, stop honestly
            return SolveResult(x, gn, False, i)
        x = x - g / L
    gn = float(np.linalg.norm(oracle.gradient(x)))
    return SolveResult(x, gn, gn <= eps, max_iters)


def guarded_agd(oracle, x0, L: float, rho: float, eps: float,
                max_iters: int = 200_000) -> SolveResult:
    """Accelerated gradient descent with a nonconvexity guard.

    Nesterov extrapolation with the usual momentum schedule; whenever the
    accelerated step fails to decrease f, momentum is reset and a plain
    1/L step is taken from the current iterate instead (which always
    decreases f under a valid L).  Never returns a point with larger f than
    x0.  rho is accepted for interface parity with the escape machinery but
    the guard needs no Hessian information.
    """
    if L <= 0.0:
        raise NonPositiveConstant(f"L must be positive, got {L}")
    oracle = as_counting(oracle)
    x = np.asarray(x0, float)
    x_prev = x.copy()
    fx = oracle.value(x)
    f0 = fx
    theta = 1.0
    for i in range(max_iters):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        y = x + beta * (x - x_prev)
        g = oracle.gradient(y)
        gn = float(np.linalg.norm(g))
        if gn <= eps and oracle.value(y) <= f0:
            return SolveResult(y, gn, True, i)
        if not math.isfinite(gn) or not math.isfinite(fx):
            return SolveResult(x, float(np.linalg.norm(oracle.gradient(x))), False, i)
        x_new = y - g / L
        f_new = oracle.value(x_new)
        if f_new > fx:  # guard: extrapolation hurt, restart momentum at x
            g = oracle.gradient(x)
            gn = float(np.linalg.norm(g))
            if gn <= eps:
                return SolveResult(x, gn, True, i)
            x_new = x - g / L
            f_new = oracle.value(x_new)
            theta_next = 1.0
        x_prev, x, fx, theta = x, x_new, f_new, theta_next
    g = oracle.gradient(x)
    gn = float(np.linalg.norm(g))
    return SolveResult(x, gn, gn <= eps, max_iters)


def run_solver(choice: str, oracle, x0, L: float, rho: float, eps: float,
               max_iters: int = 200_000) -> SolveResult:
    """Dispatch on the solver name; any solver obeys the same output contract."""
    if choice == "gd":
        return gd_to_stationarity(oracle, x0, L, eps, max_iters)
    if choice == "agd":
        return guarded_agd(oracle, x0, L, rho, eps, max_iters)
    raise ConfigError(f"unknown solver {choice!r}; options: ['agd', 'gd']")
