"""Large-gradient-region machinery.

First-order solvers that drive the iterate to ||grad f|| <= eps (the
guard-restarted accelerated method, DEFAULT_SOLVER "agd", and plain gradient
descent, "gd", kept as the reference), plus the variance-reduced epoch used
in the stochastic and finite-sum drivers: anchor a batch gradient, then take a
geometrically distributed number of control-variate steps.  For finite sums
the anchor is anchor_table's n component gradients, whose mean is the full
gradient and whose rows are the anchor side of every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (ConfigError, MissingVarianceBound, as_counting, check_mode,
                   check_number, checked_size, norm)

DEFAULT_SOLVER = "agd"

# Steps after which either solver stops unconverged (read at call time).  The
# analysis bounds the steps to ||grad f|| <= eps, O(L * Delta_f / eps**2) for
# gd, so this only makes the loop end.  Not a setting.
MAX_ITERS = 200_000

# Floats (rows * d) one component_gradient_batch call of anchor_table may
# gather, and one gather of an epoch's anchor rows: bounds the memory of a
# batch callable's intermediates whatever n is, and of the gathered rows
# whatever T is.  fs_pca (n = 200, d = 20) fits 3,276 rows, so its table is
# one call and an epoch one gather.  Not a setting.
ANCHOR_BLOCK_FLOATS = 2 ** 16


@dataclass
class SolveResult:
    """Output of a first-order solver; converged=False flags budget exhaustion.

    gradient is the gradient measured at point, whose norm is grad_norm.
    value is f(point) where the solver evaluated it, else None.
    """

    point: np.ndarray
    grad_norm: float
    converged: bool
    iters: int
    gradient: np.ndarray
    value: Optional[float] = None


@dataclass(frozen=True)
class ScsgConfig:
    """Batch/minibatch sizes and step size for one variance-reduced epoch.

    Needs integers 1 <= b <= B and eta in (0, inf).  The mode is not stored
    here: the driver passes its own to scsg_epoch.
    """

    B: int
    b: int
    eta: float

    def __post_init__(self):
        check_number("B", self.B, 1, integer=True)
        check_number("b", self.b, 1, self.B + 1, integer=True)
        check_number("eta", self.eta)

    @property
    def p(self) -> float:
        """B/(B+b), the parameter of the geometric epoch length (mean B/b)."""
        return self.B / (self.B + self.b)


def sample_geometric(p: float, rng: np.random.Generator) -> int:
    """Draw T with Pr(T = k) = p**k * (1 - p) for k = 0, 1, 2, ...

    Inverse-CDF form floor(ln(U)/ln(p)) with U uniform on (0, 1]; the mean is
    p/(1-p).
    """
    check_number("p", p, 0.0, 1.0)
    u = 1.0 - rng.random()  # in (0, 1]
    return int(math.floor(math.log(u) / math.log(p)))


def check_b_override(b_override) -> None:
    """A minibatch override (scsg_b in a run config) is None or an integer >= 1."""
    if b_override is not None:
        check_number("b_override (scsg_b)", b_override, 1, integer=True)


def derive_scsg_params(tol, smooth, mode: str, n: int = 0,
                       b_override: Optional[int] = None) -> ScsgConfig:
    """Derive epoch parameters for the chosen mode.

    Stochastic: B = ceil(96 * h_star * log(1/delta) / eps**2),
    b = clamp(ceil(rho_eff**6 * h_star * eps**4 / (L**3 * eps_h**9)), 1, B),
    eta = b**(2/3) / (6 L B**(2/3)).  The factor 96 keeps
    B >= 96 * h_star / eps**2, the level the epoch analysis assumes.  When the
    rule for b reaches B, b is clamped to B (the epoch is then plain SGD).
    A B above MAX_DRAWS, or a size that is not finite, raises SizeOutOfRange.

    Finite-sum: B = n, b = 1, eta = 1/(L * n**(2/3)).

    b_override (an integer >= 1) bypasses the rule for b, which is still
    clamped to B.  A caller that must fix B builds its own ScsgConfig.
    """
    check_b_override(b_override)
    if mode == "finite_sum":
        check_number("n", n, 1, integer=True)
        b = 1 if b_override is None else int(b_override)
        return ScsgConfig(B=n, b=min(b, n), eta=1.0 / (smooth.L * n ** (2.0 / 3.0)))
    if mode != "stochastic":
        raise ConfigError(f"mode must be 'stochastic' or 'finite_sum', got {mode!r}")
    h_star = smooth.h_star
    if h_star is None:
        raise MissingVarianceBound(
            "stochastic mode needs h_star; supply it or run estimate_variance_bound"
        )
    rho = smooth.rho_eff
    # h_star = 0 gives B = 0
    B = max(checked_size("SCSG batch size B",
                         lambda: 96.0 * h_star * math.log(1.0 / tol.delta) / tol.eps ** 2,
                         h_star=h_star, delta=tol.delta, eps=tol.eps), 1)
    if b_override is not None:
        b = int(b_override)
    else:
        b = max(checked_size(
            "SCSG minibatch size b",
            lambda: rho ** 6 * h_star * tol.eps ** 4 / (smooth.L ** 3 * tol.eps_h ** 9),
            clamped=True, rho=rho, h_star=h_star, eps=tol.eps, L=smooth.L, eps_h=tol.eps_h), 1)
    b = min(b, B)
    eta = b ** (2.0 / 3.0) / (6.0 * smooth.L * B ** (2.0 / 3.0))
    return ScsgConfig(B=B, b=b, eta=eta)


def estimate_variance_bound(oracle, x, rng: np.random.Generator,
                            samples: int = 512) -> float:
    """Pilot estimate of the gradient-variance bound h_star (= 2 sigma**2).

    Twice the empirical mean squared deviation of `samples` (>= 2) stochastic
    gradients drawn at x; the factor two is slack for the pilot being local.
    """
    check_number("samples", samples, 2, integer=True)
    oracle = as_counting(oracle)
    draws = np.stack([oracle.sample_gradient(x, rng) for _ in range(samples)])
    mean = draws.mean(axis=0)
    return 2.0 * float(np.mean(np.sum((draws - mean) ** 2, axis=1)))


def anchor_table(oracle, x) -> tuple[np.ndarray, np.ndarray]:
    """The n component gradients at x, one row each, and their mean.

    Row i is component_gradient_batch's mean over the one index i; the rows
    come from calls on (k, 1) index rows of at most ANCHOR_BLOCK_FLOATS
    floats (k * d) each, so the table costs exactly n component_grad_evals.
    The mean adds the rows in index order (an accumulation, never pairwise)
    and divides by n.  The finite-sum driver branches on the mean, and the
    epoch that follows takes the table as its anchor side (scsg_epoch).
    """
    oracle = as_counting(oracle)
    check_mode("finite_sum", oracle)
    x = np.asarray(x, float)
    n, d = oracle.n_components, oracle.dimension
    rows = max(ANCHOR_BLOCK_FLOATS // d, 1)
    table = np.empty((n, d))
    for start in range(0, n, rows):
        block = np.arange(start, min(start + rows, n))[:, None]
        table[start:start + len(block)] = oracle.component_gradient_batch(block, x)
    return table, np.add.accumulate(table, axis=0)[-1] / n


def scsg_epoch(oracle, x0, cfg: ScsgConfig, g_anchor: np.ndarray,
               rng: np.random.Generator, mode: str, *,
               table: Optional[np.ndarray] = None) -> np.ndarray:
    """One variance-reduced epoch anchored at g_anchor (the batch gradient at x0).

    mode is the driver's, "stochastic" or "finite_sum"; a mode outside these,
    or an oracle that cannot serve it, raises (core.check_mode) before any
    draw.  Draws T ~ Geom(B/(B+b)) and iterates
        y <- y - eta * (g_I(y) - g_I(x0) + g_anchor)
    where g_I is the minibatch-mean gradient over b fresh indices (finite-sum)
    or b fresh draws evaluated at both points in one stacked
    sample_gradient_batch call on rng (stochastic, common random numbers; rng
    is the only generator the epoch draws from).  Returns x0 unchanged when
    T = 0.  Costs 2*b*T stochastic gradient evals, or b*T component gradient
    evals.

    Finite-sum mode needs table, the (n, d) component gradients at x0 that
    anchor_table returns (a missing or misshapen table is a ConfigError before
    any draw): g_I(x0) is the table row when b = 1, else the b rows added to
    zeros in index order and divided by b, so only the y side costs oracle
    work, one component_gradient_batch call per step.  Its indices come from
    one (T, b) draw per epoch: numpy fills bounded integers one element at a
    time, so the draw yields the same values, and leaves rng in the same
    state, as T draws of b.  The anchor rows are gathered from the table a
    block of at most ANCHOR_BLOCK_FLOATS floats at a time, not step by step.
    """
    oracle = as_counting(oracle)
    check_mode(mode, oracle, ("stochastic", "finite_sum"))
    x0 = np.asarray(x0, float)
    if mode == "finite_sum":
        shape = (oracle.n_components, oracle.dimension)
        if table is None or np.shape(table) != shape:
            raise ConfigError(f"finite_sum epoch needs the anchor table of shape {shape},"
                              f" got {None if table is None else np.shape(table)}")
        table = np.asarray(table, float)
    T = sample_geometric(cfg.p, rng)
    if T == 0:
        return x0
    b, eta = cfg.b, np.array(cfg.eta)  # a 0-d array scales faster than a float, same bits
    if mode == "finite_sum":
        batch = oracle.component_gradient_batch
        rows = rng.integers(0, oracle.n_components, size=(T, b))
        y = x0.copy()
        step = np.empty(oracle.dimension)
        block = max(ANCHOR_BLOCK_FLOATS // oracle.dimension, 1)
        for start in range(0, T, block):  # one block unless T * d > ANCHOR_BLOCK_FLOATS
            chunk = rows[start:start + block]
            for idx, g_0 in zip(chunk, _anchor_rows(table, chunk)):
                np.subtract(batch(idx, y), g_0, step)
                step += g_anchor
                step *= eta
                y -= step
        return y
    batch = oracle.sample_gradient_batch
    points = np.stack([x0, x0])
    y = points[0]  # stepped in place, so every call sees the current iterate
    step = np.empty(oracle.dimension)
    for _ in range(T):
        g = batch(points, b, rng)
        np.subtract(g[0], g[1], step)
        step += g_anchor
        step *= eta
        y -= step
    return y.copy()


def _anchor_rows(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """g_I(x0) for each (b,) index row I of rows: its b table rows added to zeros
    in index order and divided by b, or its one table row when b = 1."""
    if rows.shape[1] == 1:
        return table[rows[:, 0]]
    anchors = np.zeros((len(rows), table.shape[1]))
    for column in rows.T:
        anchors += table[column]
    anchors /= rows.shape[1]
    return anchors


def gd_to_stationarity(oracle, x0, L: float, eps: float,
                       g0: Optional[np.ndarray] = None,
                       f0: Optional[float] = None) -> SolveResult:
    """Plain gradient descent with step 1/L until ||grad f|| <= eps.

    Returns the first iterate meeting the condition; after MAX_ITERS steps the
    last iterate is returned with converged=False (its gradient is measured,
    costing one extra eval).  g0, when given, is the gradient at x0 and is
    used in place of measuring it.  f0, the value at x0, is ignored: gradient
    descent reads no values.  An L that is not a real number in (0, inf)
    raises NonPositiveConstant before any oracle call.
    """
    check_number("L", L)
    oracle = as_counting(oracle)
    x = np.asarray(x0, float)
    g = g0
    for i in range(MAX_ITERS):
        if g is None:
            g = oracle.gradient(x)
        gn = norm(g)
        if gn <= eps:
            return SolveResult(x, gn, True, i, g)
        if not math.isfinite(gn):  # unbounded descent, stop honestly
            return SolveResult(x, gn, False, i, g)
        x = x - g / L
        g = None
    g = oracle.gradient(x)
    gn = norm(g)
    return SolveResult(x, gn, gn <= eps, MAX_ITERS, g)


def guarded_agd(oracle, x0, L: float, eps: float,
                g0: Optional[np.ndarray] = None,
                f0: Optional[float] = None) -> SolveResult:
    """Accelerated gradient descent with a nonconvexity guard.

    Nesterov extrapolation with the usual momentum schedule; whenever the
    accelerated step fails to decrease f, momentum is reset and a plain
    1/L step is taken from the current iterate instead (which always
    decreases f under a valid L).  Never returns a point with larger f than
    x0.  g0, when given, is the gradient at x0: the first extrapolated point
    is x0 + 0 * 0, and g0 serves for it where that is x0 bit for bit (adding
    zero turns a -0.0 entry into +0.0, which is then measured).  f0, when
    given, is f(x0) and is used in place of evaluating it.  Every point it
    returns has been valued, and the result carries that value.  L is checked,
    and MAX_ITERS caps the steps, as in gd_to_stationarity.
    """
    check_number("L", L)
    oracle = as_counting(oracle)
    x = np.asarray(x0, float)
    x_prev = x.copy()
    if f0 is None:
        f0 = oracle.value(x)
    fx = f0
    theta = 1.0
    for i in range(MAX_ITERS):
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        beta = (theta - 1.0) / theta_next
        y = x + beta * (x - x_prev)
        if i == 0 and g0 is not None and y.tobytes() == x.tobytes():
            g = g0
        else:
            g = oracle.gradient(y)
        gn = norm(g)
        if gn <= eps:
            fy = oracle.value(y)
            if fy <= f0:
                return SolveResult(y, gn, True, i, g, fy)
        if not math.isfinite(gn) or not math.isfinite(fx):
            g = oracle.gradient(x)
            return SolveResult(x, norm(g), False, i, g, fx)
        x_new = y - g / L
        f_new = oracle.value(x_new)
        if f_new > fx:  # guard: extrapolation hurt, restart momentum at x
            g = oracle.gradient(x)
            gn = norm(g)
            if gn <= eps:
                return SolveResult(x, gn, True, i, g, fx)
            x_new = x - g / L
            f_new = oracle.value(x_new)
            theta_next = 1.0
        x_prev, x, fx, theta = x, x_new, f_new, theta_next
    g = oracle.gradient(x)
    gn = norm(g)
    return SolveResult(x, gn, gn <= eps, MAX_ITERS, g, fx)


# solver name -> solver; every solver obeys the same output contract
SOLVERS = {"agd": guarded_agd, "gd": gd_to_stationarity}


def check_solver(choice: str) -> None:
    """Reject a solver name SOLVERS does not list."""
    if choice not in SOLVERS:
        raise ConfigError(f"unknown solver {choice!r}; options: {list(SOLVERS)}")


def run_solver(choice: str, oracle, x0, L: float, eps: float,
               g0: Optional[np.ndarray] = None,
               f0: Optional[float] = None) -> SolveResult:
    """Run the solver SOLVERS names; g0 and f0, when given, are the gradient and value at x0."""
    check_solver(choice)
    return SOLVERS[choice](oracle, x0, L, eps, g0, f0)
