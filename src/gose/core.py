"""Shared domain types: oracle interface, tolerances, smoothness constants, eval accounting.

Cost convention: one gradient, one stochastic gradient, one component gradient
and one Hessian-vector product each count as one oracle work unit.  Wall time
is never part of any contract.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Callable, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily; every run draws from it


# ---------------------------------------------------------------------------
# Errors


class GoseError(Exception):
    """Base class for all library errors."""


class ConfigError(GoseError, ValueError):
    """Invalid tolerance / smoothness / algorithm configuration."""


class NonPositiveConstant(ConfigError):
    """A numeric setting or size argument that is out of range or not a number (check_number)."""


class EpsilonTooLarge(ConfigError):
    """eps violates eps < eps_h**2 / (16 * rho_eff)."""


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


class NonFiniteMeasurement(GoseError, ValueError):
    """An oracle measurement a decision rests on is NaN or infinite."""


class LapackFailure(GoseError, ArithmeticError):
    """A LAPACK routine reported failure (info != 0)."""


class MalformedOracleOutput(GoseError, ValueError):
    """A user oracle callable returned an array of the wrong shape, or not numbers."""


class MissingVarianceBound(ConfigError):
    """Stochastic mode needs h_star (or a pilot estimate, see estimate_variance_bound)."""


class DimensionTooLarge(GoseError, ValueError):
    pass


class SizeOutOfRange(ConfigError):
    """A size formula gave a count that is not finite, or above MAX_DRAWS."""


# ---------------------------------------------------------------------------
# Sizes


# Cap on a draw or loop count that nothing clamps afterwards: about 10**4
# times the largest the benchmark workloads draw (SCSG B = 11,053 on
# stoch_bowl).  A loop of this many oracle calls already runs for hours, and
# one stacked draw of it holds 8 * MAX_DRAWS * d bytes.  Not a setting.
MAX_DRAWS = 10 ** 8


def checked_size(name: str, formula: Callable[[], float], clamped: bool = False,
                 **settings) -> int:
    """int(ceil(formula())), the one path from a size formula to a count.

    Raises SizeOutOfRange, naming `settings` (the formula's inputs, by name and
    value), when the formula divides by zero, overflows or is not finite, or,
    unless the caller clamps the count itself (clamped=True), exceeds
    MAX_DRAWS.
    """
    try:
        raw = formula()
    except (ZeroDivisionError, OverflowError):
        raw = math.inf
    if math.isfinite(raw) and (clamped or raw <= MAX_DRAWS):
        return int(math.ceil(raw))
    given = ", ".join(f"{key}={value!r}" for key, value in settings.items())
    problem = "is not finite" if not math.isfinite(raw) else f"= {raw:.6g} exceeds {MAX_DRAWS}"
    raise SizeOutOfRange(f"{name} {problem}; from {given}")


# ---------------------------------------------------------------------------
# Vector norm


def norm(v: np.ndarray) -> float:
    """The 2-norm of a float array, the bits of np.linalg.norm(v) as a float.

    np.linalg.norm takes this path itself for ord=None: ravel in memory order
    (order "K"; a strided view raveled in C order may round differently), one
    dot product, one correctly rounded square root.  Taking it directly skips
    that function's dispatch, about half its cost on a short vector.
    """
    w = v.ravel(order="K")
    return math.sqrt(w.dot(w))


# ---------------------------------------------------------------------------
# Evaluation accounting


@dataclass
class EvalCounters:
    """Tallies of oracle work and driver events.

    All fields are nondecreasing over a run.  A full gradient of an oracle
    with n >= 1 components counts n component_grad_evals and no grad_eval,
    as the incremental first-order complexity of the paper and of SCSG
    counts it, whether it is the gradient method or anchor_table's mean; any
    other oracle's counts one grad_eval.  A synthesized Hessian-vector
    product counts the two gradient evals of its kind (full, component or
    stochastic) instead of an hvp_eval.
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

    hvp also takes a (k, d) stack of directions and returns the (k, d) stack
    of products, row j that of v[j].  An hvp_batch(x, V) callable serves a
    stack in one call and must return V's shape; any other shape raises
    MalformedOracleOutput naming hvp_batch.  V may be read-only (certification
    passes one cached identity), so hvp_batch must not write into it; one that
    does raises MalformedOracleOutput naming hvp_batch.  It
    needs hvp, which serves single directions.  Without it the stack is served
    one row at a time, each call on its own copy of the row, by the analytic
    hvp or central differences.

    Stochastic callables must realize their randomness exclusively through the
    generator they receive, so that equal generator states reproduce the same
    draw of the underlying random index xi.  This is what lets variance-reduced
    updates evaluate the same xi at two points.

    The single-point callables (gradient, hvp, component_gradient,
    component_hvp, sample_gradient, sample_hvp) must return x's shape; any
    other shape raises MalformedOracleOutput naming the method, as does any
    result numpy cannot read as floats, or a value that is not a real number.
    A draw count m that is not an integer >= 1, a component index i that is
    not an integer in [0, n), an index row with no index, or a direction v
    whose shape is not x's (hvp also takes a (k, d) stack), raises
    ConfigError before any callable runs or any counter moves.

    A sample_gradient_batch(x, m, rng) callable returns the mean of m draws.
    It receives either one point of shape (d,) or a (k, d) stack of points;
    for a stack it must evaluate the same m draws at every row and return a
    (k, d) array.  Any other shape raises MalformedOracleOutput.  This stacked
    call, or the row replay that stands in for a missing callable, is the one
    way two points see one draw: the SCSG epoch evaluates its minibatch at
    the current point and at the anchor in one call, and a synthesized
    sample_hvp its two probe points, all from the run's generator.  A
    sample_hvp_batch(x, v, m, rng) callable likewise returns the mean of m
    HVP draws at x along v, of x's shape; any other shape raises
    MalformedOracleOutput.  It needs sample_hvp, which serves single draws.

    A component_gradient_batch(indices, x) callable returns the mean component
    gradient over `indices`.  It receives either one index array of shape (b,),
    and returns shape (d,), or a (T, b) array of index rows, and returns a
    (T, d) array of means, one row per index row.  The finite-sum driver
    relies on this to measure all n component gradients in a few calls (a
    (k, 1) row per component, solvers.anchor_table).  Any other shape raises
    MalformedOracleOutput.  Indices that are ragged, or not integers (bools
    included), raise ConfigError before any callable runs or any counter
    moves; their values are not range-checked.
    """

    def __init__(self, dimension: int,
                 value: Callable,
                 gradient: Callable,
                 hvp: Optional[Callable] = None,
                 hvp_batch: Optional[Callable] = None,
                 n_components: int = 0,
                 component_gradient: Optional[Callable] = None,
                 component_hvp: Optional[Callable] = None,
                 component_gradient_batch: Optional[Callable] = None,
                 sample_gradient: Optional[Callable] = None,
                 sample_hvp: Optional[Callable] = None,
                 sample_gradient_batch: Optional[Callable] = None,
                 sample_hvp_batch: Optional[Callable] = None):
        check_number("dimension", dimension, 1, integer=True)
        check_number("n_components", n_components, 0, integer=True)
        if n_components > 0 and component_gradient is None:
            raise ConfigError("finite-sum oracle needs component_gradient")
        if hvp_batch is not None and hvp is None:
            raise ConfigError("hvp_batch needs hvp")
        if sample_hvp_batch is not None and sample_hvp is None:
            raise ConfigError("sample_hvp_batch needs sample_hvp")
        self.dimension = int(dimension)
        self.n_components = int(n_components)
        self._value = value
        self._gradient = gradient
        self._hvp = hvp
        self._hvp_batch = hvp_batch
        self._component_gradient = component_gradient
        self._component_hvp = component_hvp
        self._component_gradient_batch = component_gradient_batch
        self._sample_gradient = sample_gradient
        self._sample_hvp = sample_hvp
        self._sample_gradient_batch = sample_gradient_batch
        self._sample_hvp_batch = sample_hvp_batch
        self.capabilities = Capabilities(
            finite_sum=self.n_components > 0,
            stochastic=sample_gradient is not None,
            analytic_hvp=hvp is not None,
        )

    # -- deterministic surface

    def value(self, x) -> float:
        out = self._value(np.asarray(x, dtype=float))
        try:
            return float(out)
        except (TypeError, ValueError) as exc:
            raise MalformedOracleOutput(f"value returned {type(out).__name__}, not a real number:"
                                        f" {exc}") from None

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return _shaped("gradient", self._gradient(x), x.shape)

    def hvp(self, x, v) -> np.ndarray:
        x, v = np.asarray(x, float), np.asarray(v, float)
        _check_direction(x, v, stack=True)
        if v.ndim == 2:
            if self._hvp_batch is not None:
                return _shaped("hvp_batch", _batch_products(self._hvp_batch, x, v), v.shape)
            return _hvp_rows(self.hvp, x, v)
        if self._hvp is not None:
            return _shaped("hvp", self._hvp(x, v), x.shape)
        return finite_diff_hvp(self, x, v)

    # -- finite-sum surface

    def component_gradient(self, i: int, x) -> np.ndarray:
        if self._component_gradient is None:
            raise NotFiniteSum("oracle has no component gradients")
        i = _component_index(i, self.n_components)
        x = np.asarray(x, float)
        return _shaped("component_gradient", self._component_gradient(i, x), x.shape)

    def component_gradient_batch(self, indices, x) -> np.ndarray:
        """Mean of component gradients over `indices`; (T, b) rows give (T, d) means.

        Without a batch callable each row sums its gradients in order, over b.
        The index values are not range-checked here: this is the epoch's hot
        path, and the library draws its indices in [0, n) itself.
        """
        indices = _index_rows(indices)
        x = np.asarray(x, float)
        shape = indices.shape[:-1] + (self.dimension,)
        if self._component_gradient_batch is None:
            means = np.zeros(shape).reshape(-1, self.dimension)
            for acc, row in zip(means, np.atleast_2d(indices)):
                for i in row:
                    acc += self.component_gradient(i, x)
            means /= indices.shape[-1]
            return means.reshape(shape)
        return _shaped("component_gradient_batch", self._component_gradient_batch(indices, x),
                       shape)

    def component_hvp(self, i: int, x, v) -> np.ndarray:
        if self._component_hvp is not None:
            i = _component_index(i, self.n_components)
            x, v = np.asarray(x, float), np.asarray(v, float)
            _check_direction(x, v)
            return _shaped("component_hvp", self._component_hvp(i, x, v), x.shape)
        return _finite_diff_component_hvp(self, i, x, v)

    # -- stochastic surface

    def sample_gradient(self, x, rng: np.random.Generator) -> np.ndarray:
        if self._sample_gradient is None:
            raise NotStochastic("oracle has no stochastic gradients")
        x = np.asarray(x, float)
        return _shaped("sample_gradient", self._sample_gradient(x, rng), x.shape)

    def sample_gradient_batch(self, x, m: int, rng: np.random.Generator) -> np.ndarray:
        """Mean of m independent stochastic gradient draws.

        x may also be a (k, d) stack of points: the same m draws are then
        evaluated at every row (common random numbers) and a (k, d) array of
        means comes back.  Without a batch callable each row replays the
        generator from its starting state.
        """
        m = _draw_count(m)
        x = np.asarray(x, float)
        if self._sample_gradient_batch is not None:
            return _shaped("sample_gradient_batch", self._sample_gradient_batch(x, m, rng),
                           x.shape)
        points = np.atleast_2d(x)
        means = np.zeros_like(points)
        state = rng.bit_generator.state
        for acc, row in zip(means, points):
            rng.bit_generator.state = state
            for _ in range(m):
                acc += self.sample_gradient(row, rng)
        means /= m
        return means.reshape(x.shape)

    def sample_hvp(self, x, v, rng: np.random.Generator, m: int = 1) -> np.ndarray:
        """Mean of m stochastic HVP draws at x along v (one draw for m == 1).

        For m > 1 the batch callable, if given, returns the mean; otherwise the
        draws are summed in order and divided by m.  Without sample_hvp the
        mean is one central difference of a stacked sample_gradient_batch call.
        """
        m = _draw_count(m)
        x, v = np.asarray(x, float), np.asarray(v, float)
        _check_direction(x, v)
        if m > 1 and self._sample_hvp_batch is not None:
            return _shaped("sample_hvp_batch", self._sample_hvp_batch(x, v, m, rng), x.shape)
        if self._sample_hvp is None:
            return _finite_diff_sample_hvp(self, x, v, rng, m)
        if m == 1:
            return _shaped("sample_hvp", self._sample_hvp(x, v, rng), x.shape)
        acc = np.zeros(self.dimension)
        for _ in range(m):
            acc += _shaped("sample_hvp", self._sample_hvp(x, v, rng), x.shape)
        return acc / m


def _shaped(method: str, out, shape: tuple) -> np.ndarray:
    """out as a float array, or MalformedOracleOutput naming method if not of `shape`."""
    try:
        out = np.asarray(out, float)
    except (TypeError, ValueError) as exc:
        raise MalformedOracleOutput(f"{method} returned {type(out).__name__}, not an array of"
                                    f" floats: {exc}") from None
    if out.shape != shape:
        raise MalformedOracleOutput(f"{method} returned shape {out.shape}, expected {shape}")
    return out


def _check_direction(x: np.ndarray, v: np.ndarray, stack: bool = False) -> None:
    """ConfigError unless v has x's shape (d,), or, with stack=True, is a (k, d) stack."""
    if v.shape != x.shape and not (stack and v.ndim == 2 and v.shape[1:] == x.shape):
        either = f" or be a (k, {x.size}) stack" if stack else ""
        raise ConfigError(f"direction v must have shape {x.shape}{either}, got shape {v.shape}")


def _batch_products(hvp_batch: Callable, x: np.ndarray, V: np.ndarray):
    """hvp_batch(x, V); MalformedOracleOutput naming hvp_batch if it writes into a read-only V."""
    try:
        return hvp_batch(x, V)
    except ValueError as exc:
        if V.flags.writeable or "read-only" not in str(exc):
            raise
        raise MalformedOracleOutput(f"hvp_batch wrote into its read-only directions V: {exc}"
                                    ) from None


def _hvp_rows(hvp: Callable, x: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The (k, d) stack of hvp(x, V[j]), one call per row, each on its own copy of the row."""
    out = np.empty(V.shape)
    for j, row in enumerate(V):
        out[j] = hvp(x, row.copy())
    return out


def _draw_count(m) -> int:
    """m as an int, or ConfigError unless it is an integer >= 1; a fraction is never truncated."""
    if type(m) is not int or m < 1:  # a plain int in range skips check_number
        check_number("draw count m", m, 1, integer=True)
    return int(m)


def _component_index(i, n: int) -> int:
    """i as an int, or ConfigError unless it is an integer in [0, n)."""
    if type(i) is not int or not 0 <= i < n:  # a plain int in range skips check_number
        check_number("component index i", i, 0, n, integer=True)
    return int(i)


def _index_rows(indices) -> np.ndarray:
    """indices as an integer (b,) array or (T, b) rows, b >= 1, or ConfigError.

    Only the dtype is checked, not the values: a bool, float, string or
    ragged index array is refused, an index outside [0, n) is not.
    """
    try:
        indices = np.asarray(indices)
    except ValueError as exc:  # ragged rows
        raise ConfigError(f"component_gradient_batch needs an array of indices: {exc}") from None
    if indices.ndim not in (1, 2) or indices.shape[-1] == 0:
        raise ConfigError(f"component_gradient_batch needs 1-D or 2-D indices with at least"
                          f" one per row, got shape {indices.shape}")
    if indices.dtype.kind not in "iu":
        raise ConfigError(f"component_gradient_batch needs integer indices, got dtype"
                          f" {indices.dtype}")
    return indices


def _central_diff(grad_pair: Callable, x, v) -> np.ndarray:
    """Difference the gradients grad_pair returns for the (2, d) stack of x +- r*u."""
    x, v = np.asarray(x, float), np.asarray(v, float)
    _check_direction(x, v)
    nv = norm(v)
    if nv == 0.0:
        raise ZeroDirection("cannot differentiate along the zero vector")
    u = v / nv
    r = math.sqrt(np.finfo(float).eps) * (1.0 + norm(x))
    g_plus, g_minus = grad_pair(np.stack([x + r * u, x - r * u]))
    return (g_plus - g_minus) / (2.0 * r) * nv


def finite_diff_hvp(oracle, x, v) -> np.ndarray:
    """Hessian-vector product from two gradient calls.

    Central difference along u = v/||v|| with radius
    r = sqrt(machine eps) * (1 + ||x||), rescaled by ||v||.  The radius grows
    with ||x|| to keep the relative perturbation stable far from the origin.
    Costs exactly two gradient evaluations.
    """
    return _central_diff(lambda probes: [oracle.gradient(y) for y in probes], x, v)


def _finite_diff_component_hvp(oracle, i: int, x, v) -> np.ndarray:
    """Component-i HVP from two component gradients, as finite_diff_hvp."""
    return _central_diff(lambda probes: [oracle.component_gradient(i, y) for y in probes], x, v)


def _finite_diff_sample_hvp(oracle, x, v, rng: np.random.Generator, m: int) -> np.ndarray:
    """Mean of m stochastic HVPs, as finite_diff_hvp from one stacked batch call.

    sample_gradient_batch evaluates the same m draws at both probe points
    (common random numbers), at a cost of 2*m stochastic gradients.
    """
    if not oracle.capabilities.stochastic:
        raise NotStochastic("oracle has no stochastic gradients")
    return _central_diff(lambda probes: oracle.sample_gradient_batch(probes, m, rng), x, v)


class CountingOracle:
    """Oracle wrapper that tallies every call into an EvalCounters.

    The wrapped oracle stays untouched; all mutation lives here.  Synthesized
    HVPs route through this wrapper's gradient methods, so their two gradient
    calls are counted instead of an hvp_eval.  A (k, d) stack of HVP
    directions is charged per row: k hvp_evals, or 2k gradients when
    synthesized.  A call is charged once the base returns, so a call the base
    refuses (NotFiniteSum, NotStochastic, a malformed result) leaves the
    counters where they were.
    """

    def __init__(self, base: ObjectiveOracle):
        self.base = base
        self.counters = EvalCounters()

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
        out = self.base.value(x)
        self.counters.fn_evals += 1
        return out

    def gradient(self, x):
        out = self.base.gradient(x)
        if self.base.n_components > 0:
            self.counters.component_grad_evals += self.base.n_components
        else:
            self.counters.grad_evals += 1
        return out

    def hvp(self, x, v):
        if self.base.capabilities.analytic_hvp:
            out = self.base.hvp(x, v)
            self.counters.hvp_evals += len(out) if out.ndim == 2 else 1
            return out
        x, v = np.asarray(x, float), np.asarray(v, float)
        _check_direction(x, v, stack=True)
        if v.ndim == 2:  # each row's central difference charges its two gradients
            return _hvp_rows(self.hvp, x, v)
        return finite_diff_hvp(self, x, v)

    def component_gradient(self, i, x):
        out = self.base.component_gradient(i, x)
        self.counters.component_grad_evals += 1
        return out

    def component_gradient_batch(self, indices, x):
        out = self.base.component_gradient_batch(indices, x)  # checks the index rows
        self.counters.component_grad_evals += np.asarray(indices).size
        return out

    def component_hvp(self, i, x, v):
        if self.base._component_hvp is None:
            return _finite_diff_component_hvp(self, i, x, v)
        out = self.base.component_hvp(i, x, v)
        self.counters.hvp_evals += 1
        return out

    def sample_gradient(self, x, rng):
        out = self.base.sample_gradient(x, rng)
        self.counters.stoch_grad_evals += 1
        return out

    def sample_gradient_batch(self, x, m, rng):
        out = self.base.sample_gradient_batch(x, m, rng)
        self.counters.stoch_grad_evals += int(m) * (len(out) if out.ndim == 2 else 1)
        return out

    def sample_hvp(self, x, v, rng, m=1):
        if self.base._sample_hvp is None:
            return _finite_diff_sample_hvp(self, x, v, rng, m)
        out = self.base.sample_hvp(x, v, rng, m)
        self.counters.hvp_evals += int(m)
        return out


def as_counting(oracle) -> CountingOracle:
    """Wrap in a CountingOracle unless it already is one."""
    if isinstance(oracle, CountingOracle):
        return oracle
    return CountingOracle(oracle)


# ---------------------------------------------------------------------------
# Configuration


MODES = ("deterministic", "stochastic", "finite_sum")


def check_mode(mode: str, oracle, modes: tuple = MODES) -> None:
    """Reject a mode outside `modes` (ConfigError), or an oracle that cannot serve it."""
    if mode not in modes:
        raise ConfigError(f"mode must be one of {modes}, got {mode!r}")
    if mode == "stochastic" and not oracle.capabilities.stochastic:
        raise NotStochastic("stochastic mode needs an oracle with sample_gradient")
    if mode == "finite_sum" and not oracle.capabilities.finite_sum:
        raise NotFiniteSum("finite_sum mode needs an oracle with n_components >= 1")


def check_number(name: str, value, low=0.0, high=math.inf, *, closed: bool = False,
                 integer: bool = False) -> None:
    """NonPositiveConstant naming `name` unless value is a number in range.

    The one check of a numeric setting or size argument.  A bool or a
    non-number never passes; numpy scalars do, and NaN lies in no interval.
    A real value must lie in (low, high), or in [low, high) with closed=True;
    with integer=True the value must be an integer in [low, high).
    """
    if integer:
        if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
                and low <= value < high):
            return
        where = f">= {low}" if high == math.inf else f"in [{low}, {high})"
        raise NonPositiveConstant(f"{name} must be an integer {where}, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise NonPositiveConstant(f"{name} must be a real number,"
                                  f" got {type(value).__name__} {value!r}")
    if (low <= value if closed else low < value) and value < high:
        return
    if (low, high) == (0.0, math.inf):
        rule = "be nonnegative and finite" if closed else "be positive and finite"
    else:
        rule = f"lie in {'[' if closed else '('}{low:g}, {high:g})"
    raise NonPositiveConstant(f"{name} must {rule}, got {value}")


def check_point(x, d: int, name: str = "x") -> np.ndarray:
    """x as a float array; ConfigError unless it has shape (d,) and finite entries."""
    try:
        x = np.asarray(x, float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name} must be an array of floats: {exc}") from None
    if x.shape != (d,):
        raise ConfigError(f"{name} must have shape ({d},), got {x.shape}")
    if not np.isfinite(x).all():
        raise ConfigError(f"{name} must be finite, got {np.sum(~np.isfinite(x))}"
                          f" non-finite entries")
    return x


@dataclass(frozen=True)
class ToleranceConfig:
    """First/second-order tolerances and the outer-loop cap, checked when constructed.

    eps: gradient-norm tolerance.  eps_h: Hessian min-eigenvalue tolerance.
    delta: per-subroutine failure probability.  Randomness is not configured
    here: every run draws from the generator its caller passes.
    """

    eps: float
    eps_h: float
    delta: float = 0.01
    max_outer: int = 1000

    def __post_init__(self):
        for name in ("eps", "eps_h", "delta"):
            check_number(name, getattr(self, name), 0.0, 1.0)
        check_number("max_outer", self.max_outer, 1, integer=True)


RHO_FLOOR = 1e-3  # the floor of rho_eff; not a setting, a larger one is a larger rho


@dataclass(frozen=True)
class SmoothnessSpec:
    """Smoothness constants of the objective, checked when constructed.

    rho_eff = max(rho, RHO_FLOOR) is the one Hessian-Lipschitz constant every
    curvature formula reads: with rho = 0 (quadratics) the escape step
    eps_h/(2*rho) would be infinite, and any larger constant is still a bound.
    """

    L: float
    rho: float = 0.0
    h_star: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self):
        # L in (0, inf); rho, and h_star and sigma when given, in [0, inf)
        check_number("L", self.L)
        for name in ("rho", "h_star", "sigma"):
            if name == "rho" or getattr(self, name) is not None:
                check_number(name, getattr(self, name), closed=True)

    @property
    def rho_eff(self) -> float:
        return max(self.rho, RHO_FLOOR)


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
