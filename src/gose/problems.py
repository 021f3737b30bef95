"""Test problems with known smoothness constants and planted saddle structure.

Every factory returns a ProblemSpec whose oracle has analytic gradients and
Hessian-vector products, so finite-difference synthesis can be cross-checked
against it.  Declared L and rho are valid on the stated sampling box (they
are global bounds there, not tight values).  certify_second_order is the
brute-force ground truth used by the acceptance tests: dense Hessian
assembled from one HVP call on the d unit directions (one cached, read-only
identity), symmetrized unless it is already diagonal, plus a symmetric
eigendecomposition (the smallest diagonal entry when that Hessian is
diagonal).  Chained saddles build their d planted saddles on read, so the
problem is O(d) to construct and hold, and their HVP keeps the curvature
diagonal of the last point it saw and serves a stack of directions in one
broadcast product (the oracle's hvp_batch); the other fixtures serve a
stack one direction per call.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import (ANCHOR_BLOCK_FLOATS, ConfigError, DimensionTooLarge, ObjectiveOracle,
                   check_number, check_point, norm)


@dataclass
class ProblemSpec:
    name: str
    oracle: ObjectiveOracle
    known_L: float
    known_rho: float
    box: tuple  # (lo, hi), sampled per coordinate by the tests' Lipschitz spot checks
    known_minimum_value: Optional[float] = None
    planted_saddles: Sequence = field(default_factory=list)
    planted_minimum: Optional[np.ndarray] = None
    x0: Optional[np.ndarray] = None  # the start point; every factory sets one


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
        value=lambda x: 0.5 * float(x.dot(A.dot(x))),
        gradient=lambda x: A.dot(x),
        hvp=lambda x, v: A.dot(v),
    )


def _spectrum_or_default(spectrum, d: int) -> np.ndarray:
    check_number("d", d, 1, integer=True)
    spectrum = np.asarray([1.0] * (d - 1) + [-1.0] if spectrum is None else spectrum, float)
    if spectrum.shape != (d,):
        raise ConfigError(f"spectrum must have length d={d}")
    return check_point(spectrum, d, "spectrum")


def make_quadratic_saddle(d: int = 2, spectrum=None, seed: int = 0,
                          orth: bool = True) -> ProblemSpec:
    """f(x) = 0.5 x' Q diag(spectrum) Q' x with seeded random orthogonal Q.

    The origin is a critical point; it is a strict saddle iff the spectrum has
    a negative entry.  L = max |spectrum|; the Hessian is constant so rho = 0
    (rho_eff floors it at RHO_FLOOR).  The default spectrum is d-1 ones and one -1;
    a given one must be finite.  seed must be an int >= 0 (not a SeedSequence).
    """
    check_number("seed", seed, 0, integer=True)
    spectrum = _spectrum_or_default(spectrum, d)
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
        x0=np.full(d, 1.0) / math.sqrt(d),
    )


def make_bowl_saddle(d: int = 2, spectrum=None, q: float = 0.5, seed: int = 0,
                     orth: bool = True) -> ProblemSpec:
    """Quartic-confined saddle: f(x) = 0.5 x'Ax + (q/4)||x||^4.

    A pure quadratic saddle is unbounded below and admits no second-order
    stationary point; the ||x||^4 bowl creates minima at ||x*|| =
    sqrt(-lambda_min(A)/q) along the most-negative eigenvector, with value
    -lambda_min(A)**2/(4q).  The origin stays a strict saddle.  The default
    spectrum is d-1 ones and one -1; a given one must be finite.  q must lie
    in (0, inf), and seed must be an int >= 0 (not a SeedSequence).
    """
    check_number("q", q)
    check_number("seed", seed, 0, integer=True)
    spectrum = _spectrum_or_default(spectrum, d)
    if orth and d > 1:
        A, Q = _planted_spectrum(spectrum, np.random.default_rng(seed))
        vmin = Q[:, int(np.argmin(spectrum))]
    else:
        A = np.diag(spectrum)
        vmin = np.eye(d)[int(np.argmin(spectrum))]
    lam_min = float(spectrum.min())

    def value(x):
        return 0.5 * float(x.dot(A.dot(x))) + 0.25 * q * float(x.dot(x)) ** 2

    def gradient(x):
        return A.dot(x) + q * x.dot(x) * x

    def hvp(x, v):
        return A.dot(v) + q * (float(x.dot(x)) * v + 2.0 * x * float(x.dot(v)))

    oracle = ObjectiveOracle(d, value, gradient, hvp=hvp)
    box = (-2.0, 2.0)
    r2 = 2.0 * math.sqrt(d)  # l2 radius of the box
    spec = ProblemSpec(
        name="bowl_saddle",
        oracle=oracle,
        known_L=float(np.max(np.abs(spectrum))) + 3.0 * q * r2 ** 2,
        known_rho=6.0 * q * r2,
        box=box,
        x0=np.zeros(d),
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


class _ChainedSaddles(Sequence):
    """The d planted saddles of chained saddles, read-only and built on read.

    Saddle j (0 <= j < d) has ones in its first j coordinates and zeros after;
    each read builds a fresh array, so holding the sequence costs O(1) memory
    rather than the O(d^2) of d stored points.
    """

    def __init__(self, d: int):
        self._d = d

    def __len__(self) -> int:
        return self._d

    def __getitem__(self, j):
        j = operator.index(j)
        if not -self._d <= j < self._d:
            raise IndexError(f"saddle index {j} out of range for d={self._d}")
        s = np.zeros(self._d)
        s[:j] = 1.0  # a negative j leaves d + j ones: saddle d + j
        return s


def make_chained_saddles(d: int) -> ProblemSpec:
    """f(x) = sum_i a_i (x_i**2 - 1)**2: d strict saddles met in sequence.

    Each coordinate is a double well with a hilltop at 0.  Descent from the
    origin leaves coordinates untouched until a negative-curvature step moves
    them, so the canonical path visits d strict saddles (0, then points with
    one more coordinate settled into its well each time) before the minimum at
    the all-ones corner.  The weights are a = linspace(0.5, 0.3, d), all
    positive.  On the box [-1.5, 1.5]: |w''| <= 23 a and
    |w''(s)-w''(t)| <= 36 a |s-t|.
    """
    check_number("d", d, 2, integer=True)
    a = np.linspace(0.5, 0.3, d)
    four_a = 4.0 * a

    def value(x):
        return float((a * (x ** 2 - 1.0) ** 2).sum())

    def gradient(x):
        return four_a * x * (x ** 2 - 1.0)

    # (bytes of the last point, the curvature diagonal there); one immutable
    # pair, so a read that another caller races can only miss
    last = [(None, None)]

    def hvp(x, v):
        # a (k, d) stack v broadcasts: row j is diag * v[j], the bits of a single call
        key = x.tobytes()
        seen = last[0]
        if seen[0] != key:
            seen = last[0] = (key, a * (12.0 * x ** 2 - 4.0))
        return seen[1] * v

    return ProblemSpec(
        name="chained_saddles",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp, hvp_batch=hvp),
        known_L=23.0 * float(a.max()),
        known_rho=36.0 * float(a.max()),
        box=(-1.5, 1.5),
        known_minimum_value=0.0,
        planted_saddles=_ChainedSaddles(d),
        planted_minimum=np.ones(d),
        x0=np.zeros(d),
    )


def make_saddle_path(d: int = 2) -> ProblemSpec:
    """One strict saddle between the start and the minimum.

    f(x) = a (x_1**2 - 1)**2 + (1/2) sum_{i>=2} x_i**2 with a = 1/4.  From
    x0 = (0, 4, ..., 4) plain descent keeps x_1 = 0 exactly and slides into
    the saddle at the origin; one curvature step then opens the x_1 well.
    """
    check_number("d", d, 2, integer=True)
    a = 0.25

    def value(x):
        return a * (x[0] ** 2 - 1.0) ** 2 + 0.5 * float(x[1:] @ x[1:])

    def gradient(x):
        g = x.copy()
        g[0] = 4.0 * a * x[0] * (x[0] ** 2 - 1.0)
        return g

    def hvp(x, v):
        h = v.copy()
        h[0] = a * (12.0 * x[0] ** 2 - 4.0) * v[0]
        return h

    x0 = np.full(d, 4.0)
    x0[0] = 0.0
    minimum = np.zeros(d)
    minimum[0] = 1.0
    # constants hold on the well region; the start point sits outside the box
    # but the descent path from it only ever sees milder curvature
    return ProblemSpec(
        name="saddle_path",
        oracle=ObjectiveOracle(d, value, gradient, hvp=hvp),
        known_L=23.0 * a,
        known_rho=36.0 * a,
        box=(-1.5, 1.5),
        known_minimum_value=0.0,
        planted_saddles=[np.zeros(d)],
        planted_minimum=minimum,
        x0=x0,
    )


# ---------------------------------------------------------------------------
# Nonconvex PCA (finite sum / stochastic strict-saddle benchmark)


def make_nonconvex_pca(n: int, d: int, seed: int = 0,
                       top_eig: float = 1.5, data=None) -> ProblemSpec:
    """f(x) = (1/n) sum_i [-(a_i'x)**2/2] + ||x||^4/4, rescaled data.

    The data matrix is rescaled so the empirical covariance M = (1/n) sum
    a_i a_i' has top eigenvalue `top_eig`, in (0, inf).  The origin is a strict saddle
    (Hessian -M there); every global minimum sits along the top eigenvector
    at radius sqrt(top_eig) with value -top_eig**2/4, and for this objective
    all local minima are global.  Per-component gradients and HVPs are closed
    form, so the oracle is finite-sum capable.  Explicit `data`, n * d finite
    entries read as n x d, skips the draw and the rescaling.  seed must be an
    int >= 0 (not a SeedSequence).
    """
    check_number("n", n, 1, integer=True)
    check_number("d", d, 2, integer=True)
    check_number("top_eig", top_eig)
    check_number("seed", seed, 0, integer=True)
    if data is not None:
        A = check_point(np.ravel(data), n * d, "data").reshape(n, d).copy()
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
    neg_M = -M

    def value(x):
        return -0.5 * float(np.mean(A.dot(x) ** 2)) + 0.25 * float(x.dot(x)) ** 2

    def gradient(x):
        return neg_M.dot(x) + float(x.dot(x)) * x

    def hvp(x, v):
        return neg_M.dot(v) + float(x.dot(x)) * v + 2.0 * x * float(x.dot(v))

    def component_gradient(i, x):
        return -A[i] * float(A[i].dot(x)) + float(x.dot(x)) * x

    def component_hvp(i, x, v):
        return -A[i] * float(A[i].dot(v)) + float(x.dot(x)) * v + 2.0 * x * float(x.dot(v))

    def component_gradient_batch(idx, x):
        if idx.ndim == 2:  # stacked products, so each row rounds as a 1-D call
            Ai = A[idx]
            b = idx.shape[1]
            return -(Ai.transpose(0, 2, 1) @ (Ai @ x)[:, :, None])[:, :, 0] / b + float(x @ x) * x
        if len(idx) == 1:  # the finite-sum default b = 1: the bits of the line below
            a = A[idx[0]]
            return a * -a.dot(x) + x.dot(x) * x
        Ai = A[idx]
        return -Ai.T @ Ai.dot(x) / len(idx) + float(x.dot(x)) * x

    def component_hvp_batch(idx, x, v):
        # row j is component_hvp(idx[j], x, v): the stacked (1, d) @ (d, 1)
        # products round each a_i.v as a 1-D dot does (Ai @ v may not)
        Ai = A[idx]
        return -Ai * (Ai[:, None, :] @ v[:, None])[:, 0] + x.dot(x) * v + 2.0 * x * x.dot(v)

    oracle = ObjectiveOracle(
        d, value, gradient, hvp=hvp,
        n_components=n,
        component_gradient=component_gradient,
        component_hvp=component_hvp,
        component_gradient_batch=component_gradient_batch,
        component_hvp_batch=component_hvp_batch,
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
        x0=x0,
    )


# ---------------------------------------------------------------------------
# Standard regression problems


def make_rosenbrock(d: int = 2) -> ProblemSpec:
    check_number("d", d, 2, integer=True)

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
        x0=np.array([-1.2, 1.0] + [1.0] * (d - 2)),
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
        x0=np.full(d, 2.0),
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
        x0=np.ones(d),
    )


# ---------------------------------------------------------------------------
# Mode wrappers


def with_gradient_noise(spec: ProblemSpec, sigma: float) -> ProblemSpec:
    """Stochastic view of a deterministic problem.

    Gradient draws are grad f(x) + zeta with zeta ~ N(0, (sigma**2/d) I), so
    E||zeta||**2 = sigma**2 and the variance bound h_star = 2 sigma**2 holds.
    HVP draws add the rank-one mean-zero perturbation
    sigma * (z (z.v) - v), z ~ N(0, I).  All randomness flows through the
    generator argument, so equal generator states reproduce the same draw.
    sample_gradient_batch returns the base gradient plus the draw of m
    normal rows of d, reduced over m (np.add.reduce), divided by m, times
    sigma/sqrt(d); sample_hvp_batch returns, bit for bit, what m single draws
    summed in order give.  zeta does not depend on x, and a stacked (k, d)
    call shares one draw across its rows, so an SCSG step's g_I(y) - g_I(x0)
    carries none of it: only the branch batch, the escape subsample and the
    finder see noise.  sample_draws returns k such reduced, scaled draws as a
    (k, d) array, from (k, m, d) normal blocks of at most ANCHOR_BLOCK_FLOATS
    floats (one draw at least), the values and generator state of k draws of
    (m, d); sample_gradient_batch adds a block of them to the base gradient at
    one point.  sigma must lie in [0, inf).
    """
    check_number("sigma", sigma, closed=True)
    base = spec.oracle
    d = base.dimension
    coord = sigma / math.sqrt(d)
    # the draws scale by 0-d arrays: the bits of the Python numbers, and faster
    coord_0d = np.array(coord)
    counts = {}  # m -> m as a 0-d float array, one per draw count the caller uses

    def sample_gradient(x, rng):
        return base.gradient(x) + coord * rng.standard_normal(d)

    def sample_draws(k, m, rng):
        # numpy fills normals one at a time, so a (j, m, d) block is the stream
        # of j draws of (m, d), and add.reduce over its axis 1 sums each draw
        # as add.reduce over axis 0 of the draw alone (what .sum(axis=0) calls)
        noise = np.empty((k, d))
        rows = max(ANCHOR_BLOCK_FLOATS // (m * d), 1)
        for start in range(0, k, rows):
            block = noise[start:start + rows]
            np.add.reduce(rng.standard_normal((len(block), m, d)), 1, out=block)
        count = counts.get(m)
        if count is None:
            count = counts[m] = np.array(float(m))
        noise /= count
        noise *= coord_0d
        return noise

    def sample_gradient_batch(x, m, rng):
        # rng is a generator, or a (k, d) block of sample_draws at one point x
        noise = rng if isinstance(rng, np.ndarray) else sample_draws(1, m, rng)[0]
        if x.ndim == 1:
            return base.gradient(x) + noise
        out = np.empty(x.shape)  # one draw, shared by every row of the stack
        for k, point in enumerate(x):
            np.add(base.gradient(point), noise, out[k])
        return out

    def sample_hvp(x, v, rng):
        z = rng.standard_normal(d)
        return base.hvp(x, v) + sigma * (z * float(z.dot(v)) - v)

    def sample_hvp_batch(x, v, m, rng):
        # sample_hvp's arithmetic on all m draws at once: one (m, d) draw is the
        # stream of m draws of d, the stacked (1, d) @ (d, 1) products round
        # each z @ v as a single draw's does (Z @ v may not), and accumulate
        # sums in draw order (add.reduce pairs the rows when d == 1)
        Z = rng.standard_normal((m, d))
        c = (Z[:, None, :] @ v[:, None])[:, 0, 0]
        terms = base.hvp(x, v) + sigma * (Z * c[:, None] - v)
        return np.add.accumulate(terms, axis=0)[-1] / m

    oracle = ObjectiveOracle(
        d, base.value, base.gradient, hvp=base.hvp,
        sample_gradient=sample_gradient,
        sample_gradient_batch=sample_gradient_batch,
        sample_hvp=sample_hvp, sample_hvp_batch=sample_hvp_batch,
        sample_draws=sample_draws,
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


@functools.lru_cache(maxsize=1)
def _unit_stack(d: int) -> np.ndarray:
    """np.eye(d), read-only and cached: certification holds one d x d constant."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


def _unit_products(oracle, x) -> np.ndarray:
    """The raw stack oracle.hvp(x, I), unsymmetrized: row i is the product with e_i.

    d is capped at 500 (DimensionTooLarge), checked before anything is
    allocated.  I is _unit_stack(d): an hvp_batch gets it read-only, and each
    hvp call without one gets a fresh copy of its row, so an hvp that writes
    into v cannot spoil a later row or a later call.
    """
    d = oracle.dimension
    if d > 500:
        raise DimensionTooLarge(f"dense certification capped at d=500, got {d}")
    return oracle.hvp(np.asarray(x, float), _unit_stack(d))


def dense_hessian(oracle, x) -> np.ndarray:
    """0.5 (H' + H) of the raw stack H = _unit_products(oracle, x); d <= 500.

    H takes one hvp_batch call where the oracle has one, else d hvp calls.
    """
    H = _unit_products(oracle, x)
    return 0.5 * (H.T + H)


def _is_diagonal(H: np.ndarray) -> bool:
    return np.count_nonzero(H) == np.count_nonzero(np.diagonal(H))


def certify_second_order(oracle, x, eps: float, eps_h: float):
    """Ground-truth check of the second-order condition at x.

    Returns (ok, grad_norm, lambda_min) where ok means grad_norm <= eps and
    lambda_min >= -eps_h, lambda_min being that of the Hessian dense_hessian
    assembles, bit for bit (d <= 500, else DimensionTooLarge).  A diagonal
    Hessian (a separable f, such as chained saddles) has its eigenvalues on
    the diagonal, so there lambda_min is the smallest diagonal entry, exactly,
    without the O(d^3) eigensolve and the BLAS threads it starts.  A raw
    stack that is already diagonal is not symmetrized: its diagonal h becomes
    0.5 (h + h), the bits symmetrizing gives it, and no d x d copy is made.
    """
    x = np.asarray(x, float)
    grad_norm = norm(oracle.gradient(x))
    H = _unit_products(oracle, x)
    diagonal = _is_diagonal(H)
    if not diagonal:
        H = 0.5 * (H.T + H)
        diagonal = _is_diagonal(H)
    if diagonal:  # 0.5 (h + h) leaves a symmetrized diagonal as it is
        diag = np.diagonal(H)
        lam_min = float((0.5 * (diag + diag)).min())
    else:
        lam_min = float(np.linalg.eigvalsh(H)[0])
    return (grad_norm <= eps and lam_min >= -eps_h), grad_norm, lam_min


# ---------------------------------------------------------------------------
# Registry


PROBLEM_FACTORIES: dict[str, Callable[..., ProblemSpec]] = {
    "quadratic_saddle": make_quadratic_saddle,
    "bowl_saddle": make_bowl_saddle,
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
