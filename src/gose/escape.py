"""One-step negative-curvature escapes.

At a point with small gradient, ask a negative-curvature finder for a unit
direction, flip its sign against the (estimated) gradient, and take a single
step of length c_h * eps_h / (c1 * rho_eff).  When the Hessian really has an
eigenvalue below -eps_h this one step both decreases the function by order
eps_h**3 and pushes the gradient norm back above eps, so the caller never has
to escape the same region twice.  No retry loop exists by design: a failed
escape is a test failure, not a runtime fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ConfigError, SmoothnessSpec, ToleranceConfig,
                   ValidatedConfig, as_counting, validate_config)
from .ncfind import (NcConfig, NcOutcome, approx_nc_deterministic,
                     approx_nc_finite_sum, approx_nc_stochastic)

S_RULES = ("auto", "eps_h", "eps")


@dataclass(frozen=True)
class EscapeConfig:
    """Escape step-size coefficient and subsample rules.

    c_h is the step coefficient: step length c_h * eps_h / (c1 * rho_eff).
    The decrease constants it implies are c_h**2/4 - c_h**3/6 (exact-gradient
    adjustment) and c_h**2/4 - c_h**3/3 (subsampled adjustment); both must be
    positive, which the window checks in validate() guarantee.

    The subsample size for the gradient estimate has two rules: "eps_h" uses
    ceil(s_mult * log(1/delta) / eps_h**2); "eps" uses the concentration size
    ceil(s_mult * sigma**2 * log(1/delta) / (c_conc * eps)**2), which is what
    the decrease argument actually consumes.  "auto" takes the larger of the
    two when sigma is known, else "eps_h".  An unknown s_rule is rejected on
    construction; the c_h window depends on the tolerances and is checked by
    validate().
    """

    c_h: float = 0.5
    s_mult: float = 4.0
    c_conc: float = 0.25
    s_rule: str = "auto"

    def __post_init__(self):
        if self.s_rule not in S_RULES:
            raise ConfigError(f"unknown s_rule {self.s_rule!r}; options: {S_RULES}")

    @property
    def c_prime_det(self) -> float:
        return self.c_h ** 2 / 4.0 - self.c_h ** 3 / 6.0

    @property
    def c_prime_stoch(self) -> float:
        return self.c_h ** 2 / 4.0 - self.c_h ** 3 / 3.0

    def validate(self, vcfg: ValidatedConfig) -> None:
        """Check the step-coefficient window for the configured mode."""
        if not (0.0 < self.c_h < 1.5):
            raise ConfigError(f"c_h must lie in (0, 3/2), got {self.c_h}")
        ratio = 16.0 * vcfg.c1 * vcfg.rho_eff * vcfg.eps / vcfg.eps_h ** 2
        # validate_config guarantees ratio < 1
        half_width = 0.5 * math.sqrt(max(1.0 - ratio, 0.0))
        lo, hi = 0.5 - half_width, 0.5 + half_width
        if not (lo < self.c_h < hi):
            raise ConfigError(
                f"c_h={self.c_h} outside the gradient-growth window ({lo:.6g}, {hi:.6g})"
            )
        if vcfg.mode == "stochastic":
            lo_s = math.sqrt(6.0 * self.c_conc * vcfg.c1 * vcfg.rho_eff * vcfg.eps / vcfg.eps_h ** 2)
            if not (lo_s <= self.c_h <= 0.75):
                raise ConfigError(
                    f"stochastic mode needs sqrt(6*c*rho*eps/eps_h**2) <= c_h <= 3/4,"
                    f" i.e. {lo_s:.6g} <= c_h <= 0.75, got {self.c_h}"
                )
            if self.c_prime_stoch <= 0.0:
                raise ConfigError(f"c_h={self.c_h} gives nonpositive stochastic decrease constant")
        if self.c_prime_det <= 0.0:
            raise ConfigError(f"c_h={self.c_h} gives nonpositive decrease constant")

    def subsample_size(self, vcfg: ValidatedConfig) -> int:
        rule = self.s_rule
        log_term = math.log(1.0 / vcfg.delta)
        size_eps_h = int(math.ceil(self.s_mult * log_term / vcfg.eps_h ** 2))
        if rule == "eps_h":
            return size_eps_h
        if vcfg.sigma is None:
            if rule == "eps":
                raise ConfigError("s_rule 'eps' needs sigma in SmoothnessSpec")
            return size_eps_h
        size_eps = int(math.ceil(
            self.s_mult * vcfg.sigma ** 2 * log_term / (self.c_conc * vcfg.eps) ** 2
        ))
        if rule == "eps":
            return size_eps
        return max(size_eps_h, size_eps)


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


def escape_step_length(vcfg: ValidatedConfig, esc: EscapeConfig) -> float:
    """c_h * eps_h / (c1 * rho_eff); at the default c_h = 1/2 this is eps_h/(2*c1*rho_eff)."""
    return esc.c_h * vcfg.eps_h / (vcfg.c1 * vcfg.rho_eff)


def _one_step(oracle, x, tol, smooth, esc, rng, ncfg, mode, finder, sign_gradient):
    """The one escape body: one finder call, then one step unless bottom.

    sign_gradient(vcfg) supplies the gradient estimate the direction is
    flipped against; it is only evaluated when a direction came back.
    """
    vcfg = validate_config(tol, smooth, mode)
    esc.validate(vcfg)
    out = finder(oracle, x, vcfg.eps_h, vcfg.delta, vcfg.L, rng, ncfg)
    if out.is_bottom:
        return EscapeResult(False, None, out)
    v_tilde = adjust_direction(sign_gradient(vcfg), out.direction)
    oracle.counters.escape_steps += 1
    return EscapeResult(True, np.asarray(x, float) + escape_step_length(vcfg, esc) * v_tilde, out)


def one_step_deterministic(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                           esc: EscapeConfig, rng: np.random.Generator,
                           ncfg: NcConfig = NcConfig(),
                           g: Optional[np.ndarray] = None) -> EscapeResult:
    """Single escape step using the exact gradient for the sign adjustment.

    The caller is responsible for having observed ||grad f(x)|| <= eps.  Pass
    g to reuse an already-computed gradient; otherwise one gradient eval is
    spent.  Cost: one finder call plus at most one gradient.
    """
    oracle = as_counting(oracle)
    return _one_step(oracle, x, tol, smooth, esc, rng, ncfg, "deterministic",
                     approx_nc_deterministic,
                     lambda vcfg: oracle.gradient(x) if g is None else g)


def one_step_stochastic(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                        esc: EscapeConfig, rng: np.random.Generator,
                        ncfg: NcConfig = NcConfig()) -> EscapeResult:
    """Single escape step with a subsampled gradient for the sign adjustment.

    Draws a fresh minibatch (size per EscapeConfig.subsample_size) to estimate
    the gradient; the step direction satisfies g_hat . v <= 0.
    """
    oracle = as_counting(oracle)
    return _one_step(oracle, x, tol, smooth, esc, rng, ncfg, "stochastic",
                     approx_nc_stochastic,
                     lambda vcfg: oracle.sample_gradient_batch(x, esc.subsample_size(vcfg), rng))


def one_step_finite_sum(oracle, x, tol: ToleranceConfig, smooth: SmoothnessSpec,
                        esc: EscapeConfig, rng: np.random.Generator,
                        ncfg: NcConfig = NcConfig(),
                        g: Optional[np.ndarray] = None) -> EscapeResult:
    """Single escape step for finite sums; the sign uses the full gradient."""
    oracle = as_counting(oracle)
    return _one_step(oracle, x, tol, smooth, esc, rng, ncfg, "finite_sum",
                     approx_nc_finite_sum,
                     lambda vcfg: oracle.gradient(x) if g is None else g)
