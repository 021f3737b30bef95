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

The deterministic engine asks no more of Lanczos than the contract does, on
either side.  It stops at the first step whose Ritz value is clearly below
-eps_h/2 and validates that Ritz vector (the early stop of lanczos_min_eig).
A stop whose exit Rayleigh quotient misses the threshold is dropped and
Lanczos runs on as if it never stopped, so a stop never turns a direction
into bottom.  It declares bottom at the first step where the random-start
bound of Kuczynski and Wozniakowski (SIAM J. Matrix Anal. Appl. 13(4), 1992,
Thm 4.2, constant 1.648), which det_max_matvecs also rests on, puts
lambda_min above -eps_h/2 with probability 1 - delta given ||H|| <= L (the
settled exit of lanczos_min_eig).  The sampling engines resample on every
matvec, so the bound does not hold for them; they stop early on neither side.

Each finder's sizes come from the five budget formulas below, read through
finder_sizes.  They are the asymptotic formulas times one constant factor,
BUDGET_MULT = 4, an analysis constant and not a setting.

The Ritz solves need two LAPACK routines, dstebz and dstein, and nothing else
of scipy.  _load_lapack takes them from scipy's compiled scipy/linalg/_flapack
module, loaded by its path: importing them through scipy.linalg would run that
package's whole init (array-API shims, numpy.testing, numpy.f2py), about two
thirds of gose's import time and 18 MB, before any oracle call.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import (AsymmetricOperator, BudgetZero, ConfigError, LapackFailure,
                   NonFiniteMeasurement, as_counting, check_mode, check_point,
                   checked_size, is_integer)

BOTTOM = "bottom"
DIRECTION = "direction"

_BREAKDOWN = 1e-13
_RESID_TOL = 1e-12
_EPS = float(np.finfo(float).eps)


def _load_lapack():
    """(dstebz, dstein) from scipy's compiled scipy/linalg/_flapack, loaded by path.

    find_spec("scipy") locates scipy without running its __init__.  The module
    is loaded under its own name, scipy.linalg._flapack, and an extension
    module is initialised once per process, so a later import of scipy.linalg
    hands out the same routines.  Where the file is not found, or will not
    load outside its package, they come through scipy.linalg.lapack.
    """
    spec = importlib.util.find_spec("scipy")
    for folder in spec.submodule_search_locations if spec else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            flapack = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
            try:
                module = importlib.util.module_from_spec(flapack)
                flapack.loader.exec_module(module)
            except ImportError:
                break
            return module.dstebz, module.dstein
    from scipy.linalg.lapack import dstebz, dstein
    return dstebz, dstein


dstebz, dstein = _load_lapack()


@dataclass
class NcOutcome:
    """Result of one finder call.

    lambda_hat is the candidate's validated Rayleigh quotient, the engine's
    minimum-eigenvalue estimate for both kinds; a direction comes back only
    when it is at most the engine's threshold.  Where the deterministic
    engine stopped early, at a direction or a settled bottom, it is the
    quotient at that step: an upper bound on lambda_min, not a converged
    estimate.  hvp_or_grad_cost is the oracle work (gradients + HVPs, one
    unit each) consumed by the call.
    """

    kind: str
    direction: Optional[np.ndarray]
    hvp_or_grad_cost: int
    lambda_hat: float

    @property
    def is_direction(self) -> bool:
        return self.kind == DIRECTION

    @property
    def is_bottom(self) -> bool:
        return self.kind == BOTTOM


ENGINES = ("minibatch_lanczos", "oja")


@dataclass(frozen=True)
class NcConfig:
    """The finder's stochastic core, checked when constructed.

    engine selects a minibatch-averaged Lanczos or the streaming power update
    on fresh draws ("oja").  Only approx_nc_stochastic reads it; the other
    finders have no setting.
    """

    engine: str = "minibatch_lanczos"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigError(f"unknown stochastic engine {self.engine!r}; options: {ENGINES}")


# ---------------------------------------------------------------------------
# Budget formulas (documented cost contracts, also used by tests)

BUDGET_MULT = 4.0  # the constant factor of every budget formula below; not a setting


def det_max_matvecs(d: int, eps_h: float, delta: float, L: float) -> int:
    """ceil(BUDGET_MULT * log(d/delta) * sqrt(L/eps_h)); lanczos_min_eig clamps it to d"""
    return checked_size("det_max_matvecs",
                        lambda: BUDGET_MULT * math.log(d / delta) * math.sqrt(L / eps_h),
                        clamped=True, delta=delta, L=L, eps_h=eps_h)


def oja_total_samples(d: int, eps_h: float, delta: float, L: float) -> int:
    """ceil(BUDGET_MULT * log(d/delta)**2 * L**2 / eps_h**2)"""
    return checked_size("oja_total_samples",
                        lambda: BUDGET_MULT * math.log(d / delta) ** 2 * L ** 2 / eps_h ** 2,
                        delta=delta, L=L, eps_h=eps_h)


def stoch_minibatch(d: int, eps_h: float, L: float) -> int:
    """ceil(BUDGET_MULT * L**2 / eps_h**2 / sqrt(d)), per matvec"""
    return checked_size("stoch_minibatch",
                        lambda: BUDGET_MULT * L ** 2 / eps_h ** 2 / math.sqrt(d),
                        L=L, eps_h=eps_h)


def validation_batch(eps_h: float, L: float) -> int:
    """ceil(BUDGET_MULT * L**2 / eps_h**2), one fresh batch at exit"""
    return checked_size("validation_batch", lambda: BUDGET_MULT * L ** 2 / eps_h ** 2,
                        L=L, eps_h=eps_h)


def finite_sum_minibatch(n: int, eps_h: float, L: float, max_matvecs: int) -> int:
    """min(n, ceil(BUDGET_MULT * n**0.75 * sqrt(L/eps_h) / max_matvecs)), per matvec"""
    m = checked_size("finite_sum_minibatch",
                     lambda: BUDGET_MULT * n ** 0.75 * math.sqrt(L / eps_h) / max_matvecs,
                     clamped=True, L=L, eps_h=eps_h)
    return min(n, max(m, 1))


class FinderSizes(NamedTuple):
    """The counts one finder call draws; None where its engine draws none."""

    max_matvecs: Optional[int] = None   # Lanczos iteration cap, before clamping to d
    minibatch: Optional[int] = None     # draws or component indices per matvec
    validation: Optional[int] = None    # draws of the stochastic exit measurement
    oja_samples: Optional[int] = None   # single draws of the oja stream


def finder_sizes(mode: str, oracle, eps_h: float, delta: float, L: float,
                 cfg: Optional[NcConfig]) -> FinderSizes:
    """The sizes the finder of `mode` (and, stochastic, of cfg.engine) draws.

    The finders take their budgets from here, and check_run calls it at entry,
    so an unknown mode (ConfigError), an oracle that cannot serve `mode`
    (NotStochastic, NotFiniteSum, by core.check_mode), or a setting whose size
    is not finite or passes MAX_DRAWS (SizeOutOfRange), raises before any
    oracle work.
    """
    check_mode(mode, oracle)
    d = oracle.dimension
    if mode == "stochastic" and cfg.engine == "oja":
        return FinderSizes(oja_samples=oja_total_samples(d, eps_h, delta, L),
                           validation=validation_batch(eps_h, L))
    mm = det_max_matvecs(d, eps_h, delta, L)
    if mode == "stochastic":
        return FinderSizes(mm, stoch_minibatch(d, eps_h, L), validation_batch(eps_h, L))
    if mode == "finite_sum":
        return FinderSizes(mm, finite_sum_minibatch(oracle.n_components, eps_h, L, mm))
    return FinderSizes(mm)


# ---------------------------------------------------------------------------
# Lanczos core


def _symmetry_probe(hvp: Callable, d: int, rng: np.random.Generator, tol: float):
    u = _random_unit(d, rng)
    w = _random_unit(d, rng)
    s1 = float(w @ hvp(u))
    s2 = float(u @ hvp(w))
    if not (math.isfinite(s1) and math.isfinite(s2)):
        raise NonFiniteMeasurement(f"symmetry probe: w'Hu={s1} vs u'Hw={s2}")
    if abs(s1 - s2) > tol * (1.0 + max(abs(s1), abs(s2))):
        raise AsymmetricOperator(
            f"probe mismatch: w'Hu={s1:.6g} vs u'Hw={s2:.6g}"
        )


def _random_unit(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def eigh_tridiagonal(d: np.ndarray, e: np.ndarray):
    """Bottom eigenpair (theta, y) of the symmetric tridiagonal matrix (d, e).

    LAPACK dstebz (bisection, block order) gives the smallest eigenvalue and
    dstein (inverse iteration) its eigenvector: the routines and arguments of
    scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0)),
    bit for bit, without that wrapper's argument checks (d and e must be
    finite float64 vectors).  The two routines are scipy's own, loaded from
    its compiled _flapack module by path (_load_lapack), so a run never
    imports scipy.linalg.
    """
    _, w, iblock, isplit, info = dstebz(d, e, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise LapackFailure(f"dstebz returned info={info} (tridiagonal of size {len(d)})")
    z, info = dstein(d, e, w[:1], iblock, isplit)
    if info != 0:
        raise LapackFailure(f"dstein returned info={info} (tridiagonal of size {len(d)})")
    return float(w[0]), z[:, 0]


def lanczos_min_eig(hvp: Callable, d: int, max_matvecs: int,
                    rng: np.random.Generator,
                    probe_tol: Optional[float] = 1e-6,
                    stop_below: Optional[float] = None,
                    L: Optional[float] = None,
                    delta: Optional[float] = None) -> tuple[float, np.ndarray]:
    """Bottom Ritz pair of a symmetric operator given only v -> H v.

    Random unit start, full reorthogonalization, at most max_matvecs matvecs
    in the loop (capped at d, where the Krylov space is exact); a max_matvecs
    that is not an integer >= 1 raises BudgetZero before any matvec.  Stops
    early on an invariant subspace or once the bottom Ritz residual
    |b * y[-1]| is at most 1e-12 * max(1, |theta|).  The returned eigenvalue
    is recomputed as v' H v with one extra matvec at exit, so it is a true
    Rayleigh quotient of the returned unit vector.

    Each step solves the k x k tridiagonal Ritz problem T_k for its bottom
    pair (theta, y) with one call to this module's eigh_tridiagonal, looked
    up at call time (the benchmark tracer patches that name to time the Ritz
    solves).

    stop_below, when given, also ends the run early, from step 2 on, at the
    first step that is not an exit step (breakdown, last step) and whose Ritz
    value is at most stop_below less the rounding margin 8 k eps ||T_k||,
    with ||T_k|| bounded by max|a| + 2 max|b| over T_k's entries; the margin
    covers the rounding error of the computed Ritz value.  The exit matvec is
    then taken at once.  If that Rayleigh quotient is at most stop_below it
    is returned.  Otherwise the stop has missed; it is switched off for the
    rest of the call, which goes on with the same steps and returns the same
    (lam, v) as without stop_below, one matvec later.  A call therefore makes
    at most max_matvecs + 4 matvecs (probe 2, missed stop 1, exit 1).
    Where no Ritz value falls below that level, the run is the one without
    stop_below, bit for bit.

    L and delta, given with stop_below, also settle bottom early.  By the
    random-start bound of Kuczynski and Wozniakowski (SIAM J. Matrix Anal.
    Appl. 13(4), 1992, Thm 4.2), for an operator whose spectrum spans at most
    2L (||H|| <= L), theta_k - lambda_min <= 2L * (c / (2k - 1))**2 fails
    with probability at most delta/m at step k, where
    c = ln(1.648 * sqrt(d) * m / delta) and m = min(max_matvecs, d); dividing
    delta by m is a union bound over the steps, since the step that exits is
    a stopping time.  So from step 2 on, at a step that is not an exit step,
    once theta - margin - 2L * (c / (2k - 1))**2 >= stop_below (margin the
    rounding margin above), the exit matvec is taken at once;
    that quotient is an upper bound on lambda_min, not a converged estimate.
    Without L and delta nothing settles, and every call whose result is
    above stop_below is the run without stop_below, bit for bit.

    Raises NonFiniteMeasurement if a Lanczos coefficient or a symmetry probe
    value is NaN or infinite.  probe_tol of None skips the symmetry probe,
    which is meaningless for operators that resample noise on every call.
    """
    if not (is_integer(max_matvecs) and max_matvecs >= 1):
        raise BudgetZero(f"max_matvecs must be >= 1 and an integer, got {max_matvecs!r}")
    if probe_tol is not None:
        _symmetry_probe(hvp, d, rng, probe_tol)

    m = min(max_matvecs, d)
    Q = np.zeros((d, m))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    q = _random_unit(d, rng)
    a_max = b_max = 0.0
    stop = stop_below                           # None once a stop has missed
    kw_log = None                               # c of the settled exit
    if None not in (stop_below, L, delta):
        kw_log = math.log(1.648 * math.sqrt(d) * m / delta)

    for j in range(m):
        Q[:, j] = q
        u = hvp(q)
        a = float(q @ u)
        if not math.isfinite(a):
            raise NonFiniteMeasurement(f"Lanczos step {j + 1}: a={a}")
        alphas[j] = a
        r = u - a * q
        if j > 0:
            r -= betas[j - 1] * Q[:, j - 1]
        # full reorthogonalization against all Lanczos vectors so far
        r -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ r)
        b = float(np.linalg.norm(r))
        if not math.isfinite(b):
            raise NonFiniteMeasurement(f"Lanczos step {j + 1}: b={b}")
        steps = j + 1
        a_max = max(a_max, abs(a))
        if j == 0:
            theta, y = a, np.array([1.0])
        else:
            theta, y = eigh_tridiagonal(alphas[:steps], betas[:j])
        if b < _BREAKDOWN:                      # invariant subspace found
            break
        if abs(b * y[-1]) <= _RESID_TOL * max(1.0, abs(theta)):
            break
        # no early stop or settled exit on step 1 or the last step
        if 0 < j < m - 1 and (stop is not None or kw_log is not None):
            margin = 8.0 * steps * _EPS * (a_max + 2.0 * b_max)
            if kw_log is not None and theta >= (
                    stop_below + margin + 2.0 * L * (kw_log / (2 * steps - 1)) ** 2):
                break                           # bottom is settled at stop_below
            if stop is not None and theta <= stop - margin:
                lam, v = _ritz_rayleigh(hvp, Q[:, :steps], y)
                if lam <= stop_below:
                    return lam, v
                stop = None                     # missed: finish as if never stopped
        if j + 1 < m:
            betas[j] = b
            b_max = max(b_max, b)
            q = r / b

    return _ritz_rayleigh(hvp, Q[:, :steps], y)


def _ritz_rayleigh(hvp: Callable, Q: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """The exit matvec: the unit Ritz vector v = Q y / ||Q y|| and v' H v."""
    v = Q @ y
    v = v / np.linalg.norm(v)
    return float(v @ hvp(v)), v


# ---------------------------------------------------------------------------
# Finder front ends


def _search(mode: str, oracle, x, eps_h: float, delta: float, L: float, threshold: float,
            candidate: Callable, cfg: Optional[NcConfig] = None) -> NcOutcome:
    """The one finder skeleton: one candidate, validated against threshold.

    Before any oracle work it wraps oracle for counting, checks x
    (check_point) and reads the sizes of `mode` (finder_sizes).  Then
    candidate(oracle, x, sizes) returns (validated Rayleigh quotient, unit
    vector).  Counts the call and its oracle work and returns a direction if
    the quotient is at or below threshold, bottom otherwise, with the
    quotient as lambda_hat.
    """
    oracle = as_counting(oracle)
    x = check_point(x, oracle.dimension)
    sizes = finder_sizes(mode, oracle, eps_h, delta, L, cfg)
    oracle.counters.nc_calls += 1
    start = oracle.counters.work_units()
    ray, v = candidate(oracle, x, sizes)
    if not math.isfinite(ray):
        raise NonFiniteMeasurement(f"candidate Rayleigh quotient is {ray}")
    cost = oracle.counters.work_units() - start
    if ray <= threshold:
        return NcOutcome(DIRECTION, v, cost, ray)
    return NcOutcome(BOTTOM, None, cost, ray)


def approx_nc_deterministic(oracle, x, eps_h: float, delta: float, L: float,
                            rng: np.random.Generator) -> NcOutcome:
    """Exact-Hessian negative-curvature search via Lanczos.

    Matvecs are the oracle's HVPs: analytic when it has them, otherwise
    central differences of gradients (two gradient evals per matvec).
    Lanczos stops at the first Ritz value below the threshold -eps_h/2 (see
    lanczos_min_eig's stop_below), so a direction costs only the steps that
    found it, and its lambda_hat is the quotient at the stop.  L and delta
    end it too at the first step that settles bottom (see lanczos_min_eig),
    so bottom costs only the steps that settle it, and its lambda_hat is the
    quotient there, an upper bound on lambda_min.  Cost is at
    most max_matvecs + 4 matvec-equivalents (probe 2, a missed stop 1, exit
    1), times two when differencing gradients.
    """
    threshold = -eps_h / 2.0
    return _search("deterministic", oracle, x, eps_h, delta, L, threshold,
                   lambda oracle, x, sizes: lanczos_min_eig(
                       lambda v: oracle.hvp(x, v), oracle.dimension, sizes.max_matvecs, rng,
                       stop_below=threshold, L=L, delta=delta))


def approx_nc_stochastic(oracle, x, eps_h: float, delta: float, L: float,
                         rng: np.random.Generator,
                         cfg: NcConfig = NcConfig()) -> NcOutcome:
    """Negative-curvature search from stochastic Hessian-vector draws.

    Engine "minibatch_lanczos" takes each matvec as one sample_hvp(x, v, rng,
    m) call, the mean of a fresh minibatch of m draws; engine "oja" streams
    v <- normalize(v - eta * sample_hvp(x, v, rng)) over fresh single draws
    with eta = eps_h/(8 L**2).  Either way the candidate is accepted only if
    its Rayleigh quotient on a fresh validation minibatch (one more m-draw
    call), the outcome's lambda_hat, is at most -(eps_h/2 + eps_h/8); the
    extra eps_h/8 absorbs validation noise.  Cost: one hvp_eval per draw, or
    two stochastic gradients per draw when the oracle synthesizes its HVPs.
    """
    def candidate(oracle, x, sizes):
        if cfg.engine == "oja":
            eta = eps_h / (8.0 * L ** 2)
            v = _random_unit(oracle.dimension, rng)
            for _ in range(sizes.oja_samples):
                v = v - eta * oracle.sample_hvp(x, v, rng)
                v = v / np.linalg.norm(v)
        else:
            _, v = lanczos_min_eig(lambda w: oracle.sample_hvp(x, w, rng, sizes.minibatch),
                                   oracle.dimension, sizes.max_matvecs, rng, probe_tol=None)
        return float(v @ oracle.sample_hvp(x, v, rng, sizes.validation)), v

    return _search("stochastic", oracle, x, eps_h, delta, L,
                   -(eps_h / 2.0 + eps_h / 8.0), candidate, cfg)


def _index_mean_hvp(oracle, x, v, indices) -> np.ndarray:
    """Mean of component HVPs at x along v over `indices`."""
    acc = np.zeros(oracle.dimension)
    for i in indices:
        acc += oracle.component_hvp(int(i), x, v)
    return acc / len(indices)


def approx_nc_finite_sum(oracle, x, eps_h: float, delta: float, L: float,
                         rng: np.random.Generator) -> NcOutcome:
    """Negative-curvature search over a finite sum of components.

    Lanczos where each matvec averages per-component HVPs over a fresh index
    minibatch sized so the loop costs about n**0.75 * sqrt(L/eps_h) component
    HVPs in total, followed by one full-batch Rayleigh validation (n component
    HVPs), the outcome's lambda_hat.  The full-batch measurement is exact, so
    acceptance uses the plain -eps_h/2 threshold.
    """
    def candidate(oracle, x, sizes):
        n = oracle.n_components
        _, v = lanczos_min_eig(
            lambda w: _index_mean_hvp(oracle, x, w, rng.integers(0, n, size=sizes.minibatch)),
            oracle.dimension, sizes.max_matvecs, rng, probe_tol=None)
        return float(v @ _index_mean_hvp(oracle, x, v, range(n))), v

    return _search("finite_sum", oracle, x, eps_h, delta, L, -eps_h / 2.0, candidate)
