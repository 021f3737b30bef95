"""One-step negative-curvature escapes.

At a point with small gradient, ask a negative-curvature finder for a unit
direction, flip its sign against the (estimated) gradient, and take a single
step of length C_H * eps_h / rho_eff.  When the Hessian really has an
eigenvalue below -eps_h this one step both decreases the function by order
eps_h**3 and pushes the gradient norm back above eps, so the caller never has
to escape the same region twice.  No retry loop exists by design: a failed
escape is a test failure, not a runtime fallback.

The step coefficient C_H = 1/2 is an analysis constant, not a setting.  The
decrease constants it implies are C_H**2/4 - C_H**3/6 = 1/24 (exact-gradient
adjustment) and C_H**2/4 - C_H**3/3 = 1/48 (subsampled adjustment).  The step
leaves the small-gradient region when C_H*(1 - C_H) > 4*rho_eff*eps/eps_h**2,
which at C_H = 1/2 is exactly the entry bound eps < eps_h**2/(16*rho_eff) of
check_run; in stochastic mode the subsampled decrease needs
C_H**2 >= 6*C_CONC*rho_eff*eps/eps_h**2, which the same bound implies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (EpsilonTooLarge, SmoothnessSpec, StochasticEpsilonTooLarge,
                   ToleranceConfig, as_counting, check_mode, checked_size)
from .ncfind import (NcConfig, NcOutcome, approx_nc_deterministic,
                     approx_nc_finite_sum, approx_nc_stochastic, finder_sizes)


# The escape step coefficient and the analysis constants of the escape
# subsample (subsample_size); not settings.
C_H = 0.5
S_MULT = 4.0
C_CONC = 0.25


def subsample_size(tol: ToleranceConfig, smooth: SmoothnessSpec) -> int:
    """Draws of the stochastic escape's gradient-sign subsample.

    ceil(S_MULT * log(1/delta) / eps_h**2), raised to the concentration size
    ceil(S_MULT * sigma**2 * log(1/delta) / (C_CONC * eps)**2), which is what
    the decrease argument actually consumes, when sigma is known.  A size above
    MAX_DRAWS, or one that is not finite, raises SizeOutOfRange.
    """
    log_term = math.log(1.0 / tol.delta)
    size = checked_size("escape subsample size",
                        lambda: S_MULT * log_term / tol.eps_h ** 2,
                        delta=tol.delta, eps_h=tol.eps_h)
    if smooth.sigma is None:
        return size
    return max(size, checked_size(
        "escape concentration size",
        lambda: S_MULT * smooth.sigma ** 2 * log_term / (C_CONC * tol.eps) ** 2,
        sigma=smooth.sigma, delta=tol.delta, eps=tol.eps))


def check_run(oracle, tol: ToleranceConfig, smooth: SmoothnessSpec,
              ncfg: Optional[NcConfig], mode: str) -> None:
    """The entry check of a run or escape in `mode`, before any oracle work.

    The one home of the rules that tie the configs, the oracle and the mode
    together (each config checks its own ranges when constructed), in order:
    the mode and whether the oracle serves it (check_mode);
    eps < eps_h**2/(16*rho_eff), the bound under which the C_H step leaves
    the small-gradient region, and eps <= eps_h**1.5 in stochastic mode; then
    every size the run's finder and escapes will draw, computed by the
    functions that draw them: finder_sizes of `mode` (and, stochastic, of
    ncfg.engine; the other modes pass None), in stochastic mode the escape
    subsample, and in finite-sum mode n, the rows of the driver's anchor
    table (solvers.anchor_table).
    """
    check_mode(mode, oracle)
    bound = tol.eps_h ** 2 / (16.0 * smooth.rho_eff)
    if not tol.eps < bound:
        raise EpsilonTooLarge(
            f"eps={tol.eps:.6g} must satisfy eps < eps_h**2/(16*rho_eff)"
            f" = {bound:.6g}"
        )
    if mode == "stochastic":
        sbound = tol.eps_h ** 1.5
        if tol.eps > sbound:
            raise StochasticEpsilonTooLarge(
                f"stochastic mode needs eps <= eps_h**1.5 = {sbound:.6g}, got eps={tol.eps:.6g}"
            )
    finder_sizes(mode, oracle, tol.eps_h, tol.delta, smooth.L, ncfg)
    if mode == "stochastic":
        subsample_size(tol, smooth)
    if mode == "finite_sum":
        n = oracle.n_components
        checked_size("finite-sum anchor table rows", lambda: n, n=n)


@dataclass
class EscapeResult:
    """Either an escaped point or bottom, plus the finder's outcome."""

    escaped: bool
    point: Optional[np.ndarray]
    nc: NcOutcome


def adjust_direction(g: np.ndarray, v_hat: np.ndarray) -> np.ndarray:
    """Flip v_hat against the gradient: sign(-g.v) * v with sign(0) := +1.

    The output always satisfies g . v_adjusted <= 0.
    """
    return v_hat if float(np.asarray(g) @ np.asarray(v_hat)) <= 0.0 else -np.asarray(v_hat)


def escape_step_length(tol: ToleranceConfig, smooth: SmoothnessSpec) -> float:
    """C_H * eps_h / rho_eff = eps_h/(2*rho_eff)."""
    return C_H * tol.eps_h / smooth.rho_eff


def _one_step(oracle, x, tol, smooth, rng, mode, finder, sign_gradient, ncfg=None):
    """The one escape body: one finder call, then one step unless bottom.

    Wraps oracle for counting; finder(oracle, x, eps_h, delta, L, rng) is the
    mode's finder; sign_gradient(oracle) supplies the gradient estimate the
    direction is flipped against, and is only evaluated when a direction came
    back.  check_run runs first, so a size out of range raises before the
    finder spends anything.
    """
    oracle = as_counting(oracle)
    check_run(oracle, tol, smooth, ncfg, mode)
    out = finder(oracle, x, tol.eps_h, tol.delta, smooth.L, rng)
    if out.is_bottom:
        return EscapeResult(False, None, out)
    v_tilde = adjust_direction(sign_gradient(oracle), out.direction)
    oracle.counters.escape_steps += 1
    return EscapeResult(True, np.asarray(x, float) + escape_step_length(tol, smooth) * v_tilde, out)


def one_step_deterministic(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                           rng: np.random.Generator,
                           g: Optional[np.ndarray] = None) -> EscapeResult:
    """Single escape step using the exact gradient for the sign adjustment.

    The caller is responsible for having observed ||grad f(x)|| <= eps.  Pass
    g to reuse an already-computed gradient; otherwise one gradient eval is
    spent.  Cost: one finder call plus at most one gradient.
    """
    return _one_step(oracle, x, tol, smooth, rng, "deterministic",
                     approx_nc_deterministic,
                     lambda oracle: oracle.gradient(x) if g is None else g)


def one_step_stochastic(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                        rng: np.random.Generator,
                        ncfg: NcConfig = NcConfig()) -> EscapeResult:
    """Single escape step with a subsampled gradient for the sign adjustment.

    Draws a fresh minibatch (size per subsample_size) to estimate
    the gradient; the step direction satisfies g_hat . v <= 0.  ncfg sets
    the finder's engine.
    """
    return _one_step(oracle, x, tol, smooth, rng, "stochastic",
                     lambda *args: approx_nc_stochastic(*args, ncfg),
                     lambda oracle: oracle.sample_gradient_batch(
                         x, subsample_size(tol, smooth), rng),
                     ncfg=ncfg)


def one_step_finite_sum(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                        rng: np.random.Generator,
                        g: Optional[np.ndarray] = None) -> EscapeResult:
    """Single escape step for finite sums; the sign uses the full gradient."""
    return _one_step(oracle, x, tol, smooth, rng, "finite_sum",
                     approx_nc_finite_sum,
                     lambda oracle: oracle.gradient(x) if g is None else g)
