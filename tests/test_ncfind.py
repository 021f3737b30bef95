import ast
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import gose.ncfind

from gose import (ObjectiveOracle, approx_nc_deterministic,
                  approx_nc_finite_sum, approx_nc_stochastic, as_counting,
                  get_problem, lanczos_min_eig, make_nonconvex_pca)
from gose.core import (MAX_DRAWS, AsymmetricOperator, EvalCounters, LapackFailure,
                       MalformedOracleOutput, NonFiniteMeasurement, NonPositiveConstant,
                       NotFiniteSum, NotStochastic, SizeOutOfRange)
from gose.ncfind import (_random_unit, _symmetry_probe, det_max_matvecs, eigh_tridiagonal,
                         finder_sizes, finite_sum_minibatch, stoch_minibatch,
                         validation_batch)
import conftest
from conftest import (NC_THRESHOLDS, finite_sum_quadratic, matrix_oracle,
                      planted_symmetric, verify_nc_suite)


# ---------------------------------------------------------------------------
# lanczos_min_eig


def test_lanczos_2x2_diagonal_exact(rng):
    A = np.diag([1.0, -1.0])
    lam, v = lanczos_min_eig(lambda w: A @ w, 2, 10, rng)
    assert lam == pytest.approx(-1.0, abs=1e-8)
    assert abs(v[1]) == pytest.approx(1.0, abs=1e-8)  # v = +-e2


def test_lanczos_planted_spectrum_d50(rng):
    spec = rng.uniform(-0.3, 1.0, 50)
    spec[0] = -0.7
    A = planted_symmetric(50, spec, rng)
    true_min = float(np.linalg.eigvalsh(A)[0])
    lam, v = lanczos_min_eig(lambda w: A @ w, 50, 200, rng)
    assert abs(lam - true_min) <= 1e-6
    assert abs(float(v @ (A @ v)) - lam) <= 1e-10  # lam is a true Rayleigh quotient


def test_lanczos_identity_breaks_down_cleanly(rng):
    lam, v = lanczos_min_eig(lambda w: w.copy(), 5, 50, rng)
    assert lam == pytest.approx(1.0, abs=1e-8)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-10)


def test_lanczos_rejects_asymmetric_operator(rng):
    A = rng.standard_normal((8, 8))
    A[0, 1] += 3.0
    with pytest.raises(AsymmetricOperator):
        lanczos_min_eig(lambda w: A @ w, 8, 10, rng)


@pytest.mark.parametrize("analytic", [True, False], ids=["hvp", "fd"])
def test_deterministic_finder_rejects_asymmetric_operator(rng, analytic):
    # the probe guards the finder too, with differenced gradients as with an HVP
    A = rng.standard_normal((8, 8))
    A[0, 1] += 5.0
    oracle = matrix_oracle(A)
    if not analytic:
        oracle = ObjectiveOracle(8, oracle.value, oracle.gradient)
    with pytest.raises(AsymmetricOperator):
        approx_nc_deterministic(oracle, np.zeros(8), 0.5, 0.01, np.linalg.norm(A, 2), rng)


def test_lanczos_budget_validation(rng):
    calls = []

    def hvp(v):
        calls.append(1)
        return v.copy()
    # a d of 0, 2.0 or -1 was an UnboundLocalError, a TypeError or a ValueError
    for d, max_matvecs, named in ((4, 0, "max_matvecs"), (0, 3, "d"), (2.0, 3, "d"),
                                  (-1, 3, "d")):
        with pytest.raises(NonPositiveConstant, match=f"^{named} must be an integer >= 1"):
            lanczos_min_eig(hvp, d, max_matvecs, rng)
    assert calls == []


def test_lanczos_non_finite_operator_raises_typed(rng):
    nan = np.full(4, np.nan)
    with pytest.raises(NonFiniteMeasurement, match="symmetry probe"):
        lanczos_min_eig(lambda w: nan, 4, 4, rng)
    with pytest.raises(NonFiniteMeasurement, match="Lanczos step 1"):
        lanczos_min_eig(lambda w: nan, 4, 4, rng, probe_tol=None)
    calls = []

    def inf_on_third(w):
        calls.append(1)
        return w * (np.inf if len(calls) == 3 else 1.0 + np.arange(4))
    with pytest.raises(NonFiniteMeasurement, match="Lanczos step 3"):
        lanczos_min_eig(inf_on_third, 4, 4, rng, probe_tol=None)


# ---------------------------------------------------------------------------
# Ritz solves: gose's own LAPACK route must match scipy's wrapper bit for bit


def tridiagonal_cases(count=300):
    rng = np.random.default_rng(0)
    for k in range(count):
        n = int(rng.integers(2, 201))
        d = rng.standard_normal(n)
        e = rng.standard_normal(n - 1)
        if k % 3 == 1:      # tiny off-diagonals: the matrix nearly splits into blocks
            tiny = rng.random(n - 1) < 0.3
            e[tiny] *= 10.0 ** -rng.uniform(8, 300, tiny.sum())
        elif k % 3 == 2:    # two clustered bottom eigenvalues, weakly coupled
            d = rng.uniform(0.0, 1.0, n)
            i, j = rng.choice(n, 2, replace=False)
            d[i], d[j] = -1.0, -1.0 + 10.0 ** -rng.uniform(8, 16)
            e *= 10.0 ** -rng.uniform(0, 12)
        yield d, e


def test_eigh_tridiagonal_matches_scipy_bit_for_bit():
    for d, e in tridiagonal_cases():
        vals, vecs = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
        theta, y = eigh_tridiagonal(d, e)
        assert np.float64(theta).tobytes() == vals[:1].tobytes()
        assert y.tobytes() == vecs[:, 0].tobytes()


def test_eigh_tridiagonal_lapack_failure_is_typed():
    with pytest.raises(LapackFailure, match="dstebz returned info="):
        eigh_tridiagonal(np.array([np.nan, 1.0, 2.0]), np.array([1.0, 0.5]))


# one small run per mode, in a fresh interpreter: scipy.linalg is never imported
NO_SCIPY_LINALG = """
import sys
sys.path.insert(0, sys.argv[1])
import gose, gose.cli
from gose import harness
base = {"eps": 0.01, "eps_h": 0.5, "rho": 1.0, "delta": 0.1}
configs = [
    {"problem": "quadratic_saddle", "mode": "deterministic", "L": 2.0,
     "problem_params": {"d": 3, "spectrum": [0.5, 1.0, 2.0], "seed": 1}},
    {"problem": "bowl_saddle", "mode": "stochastic", "L": 7.0, "noise_sigma": 0.05,
     "sigma": 0.05, "scsg_b": 32, "max_outer": 3,
     "problem_params": {"d": 4, "spectrum": [-1.0, 0.5, 0.8, 1.0], "q": 0.5, "seed": 3}},
    {"problem": "nonconvex_pca", "mode": "finite_sum", "L": 8.0,
     "problem_params": {"n": 20, "d": 4, "seed": 13}},
]
for cfg in configs:
    report, _ = harness.run_one(harness.ExperimentConfig.from_dict({**base, **cfg}), 0)
    assert report.certificate.counters.nc_calls >= 1, cfg
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_runs_in_every_mode_never_import_scipy_linalg():
    src = os.path.dirname(os.path.dirname(gose.ncfind.__file__))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_LINALG, src],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = ast.literal_eval(proc.stdout.strip().splitlines()[-1])
    assert "scipy.linalg" not in loaded


def test_lapack_routines_are_scipys():
    import scipy.linalg.lapack
    assert gose.ncfind.dstebz is scipy.linalg.lapack.dstebz
    assert gose.ncfind.dstein is scipy.linalg.lapack.dstein


@pytest.mark.parametrize("flapack", [None, b"not a shared object"],
                         ids=["not_found", "will_not_load"])
def test_lapack_loader_falls_back_to_scipy_linalg(monkeypatch, tmp_path, flapack):
    import scipy.linalg.lapack
    (tmp_path / "linalg").mkdir()
    if flapack is not None:
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(flapack)
    # the finder points scipy at a folder without a loadable _flapack
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: fake)
    dstebz, dstein = gose.ncfind._load_lapack()
    assert dstebz is scipy.linalg.lapack.dstebz
    assert dstein is scipy.linalg.lapack.dstein


def reference_lanczos(hvp, d, max_matvecs, rng, steps_out=None):
    """lanczos_min_eig as it reads with scipy's full Ritz pair on every step.

    steps_out, when given, receives each step's (alphas, betas, b): T_k and
    the norm of the residual vector that would start step k + 1.
    """
    _symmetry_probe(hvp, d, rng, 1e-6)
    m = min(max_matvecs, d)
    Q, alphas, betas = np.zeros((d, m)), np.zeros(m), np.zeros(max(m - 1, 0))
    q = _random_unit(d, rng)
    for j in range(m):
        Q[:, j] = q
        u = hvp(q)
        a = float(q @ u)
        alphas[j] = a
        r = u - a * q
        if j > 0:
            r -= betas[j - 1] * Q[:, j - 1]
        r -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ r)
        b = float(np.linalg.norm(r))
        steps = j + 1
        if steps_out is not None:
            steps_out.append((alphas[:steps].copy(), betas[:j].copy(), b))
        if j == 0:
            theta, y = a, np.array([1.0])
        else:
            vals, vecs = scipy.linalg.eigh_tridiagonal(alphas[:j + 1], betas[:j],
                                                       select="i", select_range=(0, 0))
            theta, y = float(vals[0]), vecs[:, 0]
        if b < 1e-13 or abs(b * y[-1]) <= 1e-12 * max(1.0, abs(theta)):
            break
        if j + 1 < m:
            betas[j] = b
            q = r / b
    v = Q[:, :steps] @ y
    v = v / np.linalg.norm(v)
    return float(v @ hvp(v)), v


def ritz_operator(kind, d, seed):
    rng = np.random.default_rng(1000 + seed)
    if kind == "chained":
        # Hessian of chained saddles at a point where the wells differ
        prob = get_problem("chained_saddles", d=d)
        x = rng.uniform(-1.2, 1.2, d)
        return lambda v: prob.oracle.hvp(x, v)
    if kind == "uniform":
        spec = rng.uniform(-1.0, 1.0, d)
    elif kind == "clustered_bottom":
        spec = rng.uniform(0.0, 1.0, d)
        spec[:2] = -1.0, -1.0 + 10.0 ** -rng.uniform(8, 14)
    else:
        # a few tight clusters: Krylov spaces become nearly invariant, so the
        # tridiagonal gets tiny off-diagonals between large ones
        centres = rng.uniform(-1.0, 1.0, 3)
        spec = centres[rng.integers(0, 3, d)] + 10.0 ** -rng.uniform(6, 12) * rng.standard_normal(d)
    A = planted_symmetric(d, spec, rng)
    return lambda v: A @ v


@pytest.mark.parametrize("kind", ["chained", "uniform", "clustered_bottom", "clusters"])
@pytest.mark.parametrize("d", [5, 50, 200])
def test_lanczos_matches_full_ritz_reference(kind, d):
    """The LAPACK route equals scipy's full Ritz pair at every step, bit for bit."""
    for seed in range(20):
        op = ritz_operator(kind, d, seed)
        for budget in (d, max(2, d // 4)):
            runs = []
            for run in (lanczos_min_eig, reference_lanczos):
                calls = []

                def hvp(v):
                    calls.append(1)
                    return op(v)
                lam, v = run(hvp, d, budget, np.random.default_rng(seed))
                runs.append((np.float64(lam).tobytes(), v.tobytes(), len(calls)))
            assert runs[0] == runs[1], (kind, d, seed, budget)


def fixed_storage_lanczos(hvp, d, max_matvecs, rng, probe_tol=1e-6, stop_below=None,
                          L=None, delta=None):
    """lanczos_min_eig with its basis allocated at the full budget, np.zeros((d, m))."""
    nc = gose.ncfind
    if probe_tol is not None:
        _symmetry_probe(hvp, d, rng, probe_tol)
    m = min(max_matvecs, d)
    Q = np.zeros((d, m))
    alphas = np.zeros(m)
    betas = np.zeros(max(m - 1, 0))
    q = _random_unit(d, rng)
    a_max = b_max = 0.0
    stop = stop_below
    kw_log = None
    if None not in (stop_below, L, delta):
        kw_log = math.log(1.648 * math.sqrt(d) * m / delta)
    for j in range(m):
        Q[:, j] = q
        u = hvp(q)
        a = float(q @ u)
        alphas[j] = a
        r = u - a * q
        if j > 0:
            r -= betas[j - 1] * Q[:, j - 1]
        r -= Q[:, :j + 1] @ (Q[:, :j + 1].T @ r)
        b = float(np.linalg.norm(r))
        steps = j + 1
        a_max = max(a_max, abs(a))
        if j == 0:
            theta, y = a, np.array([1.0])
        else:
            theta, y = nc.eigh_tridiagonal(alphas[:steps], betas[:j])
        if b < nc._BREAKDOWN:
            break
        if abs(b * y[-1]) <= nc._RESID_TOL * max(1.0, abs(theta)):
            break
        if 0 < j < m - 1 and (stop is not None or kw_log is not None):
            margin = 8.0 * steps * nc._EPS * (a_max + 2.0 * b_max)
            if kw_log is not None and theta >= (
                    stop_below + margin + 2.0 * L * (kw_log / (2 * steps - 1)) ** 2):
                break
            if stop is not None and theta <= stop - margin:
                lam, v = nc._ritz_rayleigh(hvp, Q[:, :steps], y)
                if lam <= stop_below:
                    return lam, v
                stop = None
        if j + 1 < m:
            betas[j] = b
            b_max = max(b_max, b)
            q = r / b
    return nc._ritz_rayleigh(hvp, Q[:, :steps], y)


def growth_operator(kind, d, seed):
    """(hvp, ||H|| bound) of a symmetric operator that keeps Lanczos going for many steps."""
    rng = np.random.default_rng(2000 + seed)
    if kind == "chained":
        prob = get_problem("chained_saddles", d=d)
        x = rng.uniform(-1.2, 1.2, d)
        return (lambda v: prob.oracle.hvp(x, v)), prob.known_L
    # "psd" settles bottom where the budget allows, "indefinite" stops at a direction
    spec = rng.uniform(0.05 if kind == "psd" else -1.0, 1.0, d)
    A = planted_symmetric(d, spec, rng)
    return (lambda v: A @ v), 1.0


GROWTH_MODES = {
    "plain": {},
    "stop_settle": {"stop_below": -0.25, "delta": 0.01},  # L: the operator's bound
    "no_probe": {"probe_tol": None},
}


@pytest.mark.parametrize("mode", sorted(GROWTH_MODES))
@pytest.mark.parametrize("d, m", [(200, m) for m in (1, 2, 7, 8, 9, 16, 17, 33, 190)]
                         + [(20, 20)])
def test_grown_basis_matches_the_full_budget_basis_bit_for_bit(d, m, mode):
    """Growing Q by doubling gives the (lam, v) bytes of the fixed (d, m) basis."""
    for kind in ("chained", "psd", "indefinite"):
        for seed in range(3):
            op, L = growth_operator(kind, d, seed)
            kwargs = dict(GROWTH_MODES[mode])
            if "delta" in kwargs:
                kwargs["L"] = L
            runs = [run(op, d, m, np.random.default_rng(seed), **kwargs)
                    for run in (lanczos_min_eig, fixed_storage_lanczos)]
            (lam, v), (ref_lam, ref_v) = runs
            assert (np.float64(lam).tobytes(), v.tobytes()) == (
                np.float64(ref_lam).tobytes(), ref_v.tobytes()), (kind, seed)


def test_escape_lanczos_at_d20000_holds_no_full_budget_basis():
    """From the origin of chained saddles the call stops within 8 steps of its 279."""
    prob = get_problem("chained_saddles", d=20_000)
    x = np.zeros(20_000)
    budget = det_max_matvecs(20_000, 0.5, 0.01, prob.known_L)
    tracemalloc.start()
    try:
        lam, _ = lanczos_min_eig(lambda v: prob.oracle.hvp(x, v), 20_000, budget,
                                 np.random.default_rng(0), stop_below=-0.25,
                                 L=prob.known_L, delta=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert budget == 279 and lam <= -0.25
    assert peak < 8e6  # the full-budget basis alone is 20,000 * 279 * 8 bytes = 44.6 MB


# ---------------------------------------------------------------------------
# early stop at the NC threshold: lanczos_min_eig(..., stop_below=-eps_h/2)

STOP = -0.25  # -eps_h/2 at eps_h = 0.5
deterministic = settings(derandomize=True, database=None, deadline=None, max_examples=300)


@st.composite
def planted_runs(draw):
    """A planted symmetric operator (d <= 60), a Lanczos budget and a start seed."""
    d = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "deep", "near_threshold", "psd"]))
    if kind == "psd":
        spec = rng.uniform(0.05, 1.0, d)
    elif kind == "uniform":
        spec = rng.uniform(-1.0, 1.0, d)
    else:
        spec = rng.uniform(STOP, 1.0, d)
        # lambda_min far below the threshold, or within 1e-9 of it on either side
        spec[0] = -2.0 if kind == "deep" else STOP + draw(st.floats(-1e-9, 1e-9))
    A = planted_symmetric(d, spec, rng)
    return A, draw(st.integers(1, d + 1)), draw(st.integers(0, 2 ** 32 - 1))


def counted_lanczos(A, budget, seed, stop_below=None, bias_call=None):
    """(lam, v bytes, matvecs); matvec number bias_call raises v'Av by 4.

    The planted spectra lie in [-2, 1], so the biased quotient is above STOP.
    """
    calls = []

    def hvp(v):
        calls.append(1)
        u = A @ v
        return u + 4.0 * v if len(calls) == bias_call else u
    lam, v = lanczos_min_eig(hvp, A.shape[0], budget, np.random.default_rng(seed),
                             stop_below=stop_below)
    return lam, v.tobytes(), len(calls)


@deterministic
@given(planted_runs())
def test_early_stop_keeps_the_decision_and_never_costs_more(run):
    A, budget, seed = run
    lam, v, cost = counted_lanczos(A, budget, seed, stop_below=STOP)
    full_lam, full_v, full_cost = counted_lanczos(A, budget, seed)
    assert (lam <= STOP) == (full_lam <= STOP)
    if full_lam > STOP:
        # bottom: every step as without the stop, bit for bit
        assert (np.float64(lam).tobytes(), v, cost) == (
            np.float64(full_lam).tobytes(), full_v, full_cost)
    else:
        a = np.frombuffer(v)
        assert float(a @ (A @ a)) <= STOP + 1e-12 and lam <= STOP
        # a stop that missed finishes as without one, one matvec later
        assert cost <= full_cost or (
            (lam, v, cost) == (full_lam, full_v, full_cost + 1))


@deterministic
@given(planted_runs())
def test_missed_stop_finishes_as_without_it_one_matvec_later(run):
    A, budget, seed = run
    lam, v, cost = counted_lanczos(A, budget, seed, stop_below=STOP)
    full = counted_lanczos(A, budget, seed)
    if cost >= full[2]:
        return  # no early stop to miss
    # bias only the early stop's exit product, so its Rayleigh quotient misses
    missed = counted_lanczos(A, budget, seed, stop_below=STOP, bias_call=cost)
    assert missed == (full[0], full[1], full[2] + 1)
    assert missed[2] <= min(budget, A.shape[0]) + 4


def test_early_stop_fires_on_deep_negative_curvature():
    # lambda_min = -2 eight times below the threshold: the stop saves most steps
    rng = np.random.default_rng(3)
    spec = rng.uniform(0.0, 1.0, 60)
    spec[0] = -2.0
    A = planted_symmetric(60, spec, rng)
    lam, _, cost = counted_lanczos(A, 60, 0, stop_below=STOP)
    full_lam, _, full_cost = counted_lanczos(A, 60, 0)
    assert lam <= STOP and full_lam <= STOP
    assert 2 * cost < full_cost


# ---------------------------------------------------------------------------
# settled bottom: lanczos_min_eig(..., stop_below, L, delta)

SETTLE_EPS_H, SETTLE_L, SETTLE_DELTA = 0.5, 1.0, 0.01


def settle_operator(lam_min, d, seed):
    """Planted spectrum in [lam_min, L]; even seeds put an eigenvalue at L."""
    rng = np.random.default_rng(seed)
    spec = rng.uniform(lam_min, SETTLE_L, d)
    spec[0] = lam_min
    if seed % 2 == 0:
        spec[-1] = SETTLE_L
    return planted_symmetric(d, spec, rng)


def without_settling(monkeypatch):
    """Make the finder call lanczos_min_eig as it did before the settled exit."""
    lanczos = gose.ncfind.lanczos_min_eig

    def unsettled(*args, L=None, delta=None, **kwargs):
        return lanczos(*args, **kwargs)
    monkeypatch.setattr(gose.ncfind, "lanczos_min_eig", unsettled)


@pytest.mark.parametrize("source", ["analytic", "fd"])
@pytest.mark.parametrize("d", [10, 50, 200])
@pytest.mark.parametrize("lam_scale", [-2.0, -1.0, -0.6, 0.0, 1.0])
def test_settled_exit_keeps_the_outcome_and_never_costs_more(lam_scale, d, source,
                                                             monkeypatch):
    outcomes = {}
    for settled in (True, False):
        if not settled:
            without_settling(monkeypatch)
        runs = []
        for seed in range(10):
            A = settle_operator(lam_scale * SETTLE_EPS_H, d, seed)
            oracle = matrix_oracle(A)
            if source == "fd":
                oracle = ObjectiveOracle(d, oracle.value, oracle.gradient)
            out = approx_nc_deterministic(oracle, np.zeros(d), SETTLE_EPS_H, SETTLE_DELTA,
                                          SETTLE_L, np.random.default_rng(seed))
            runs.append((out.kind, out.hvp_or_grad_cost))
        outcomes[settled] = runs
    for (kind, cost), (full_kind, full_cost) in zip(outcomes[True], outcomes[False]):
        assert kind == full_kind and cost <= full_cost
    if lam_scale >= 0.0 and d >= 50:
        # far from the threshold the bound settles bottom before the budget
        assert sum(c for _, c in outcomes[True]) < sum(c for _, c in outcomes[False])


def first_settled_step(A, budget, seed):
    """The step the settled exit must take, recomputed from reference T_k.

    None where the stop fires first or the reference run exits before any
    step meets the rule.
    """
    d = A.shape[0]
    m = min(budget, d)
    steps = []
    reference_lanczos(lambda v: A @ v, d, budget, np.random.default_rng(seed), steps)
    c = np.log(1.648 * np.sqrt(d) * m / SETTLE_DELTA)
    for k, (alphas, betas, b) in enumerate(steps[:-1], start=1):
        if k == 1 or b < 1e-13:
            continue
        theta = float(scipy.linalg.eigh_tridiagonal(alphas, betas, select="i",
                                                    select_range=(0, 0))[0][0])
        margin = 8.0 * k * np.finfo(float).eps * (np.abs(alphas).max() + 2.0 * betas.max())
        if theta <= STOP - margin:
            return None, None
        if theta >= STOP + margin + 2.0 * SETTLE_L * (c / (2 * k - 1)) ** 2:
            return k, theta
    return None, None


@pytest.mark.parametrize("lam_min", [-0.2, 0.0, 0.5])
@pytest.mark.parametrize("d", [10, 50, 200])
def test_settled_bottom_exits_at_the_first_step_meeting_the_rule(lam_min, d):
    budget = det_max_matvecs(d, SETTLE_EPS_H, SETTLE_DELTA, SETTLE_L)
    settled_any = False
    for seed in range(10):
        A = settle_operator(lam_min, d, seed)
        k, theta = first_settled_step(A, budget, seed)
        calls = []

        def hvp(v):
            calls.append(1)
            return A @ v
        lam, _ = lanczos_min_eig(hvp, d, budget, np.random.default_rng(seed), stop_below=STOP,
                                 L=SETTLE_L, delta=SETTLE_DELTA)
        full_lam, _, full_cost = counted_lanczos(A, budget, seed)
        if k is None:
            assert len(calls) == full_cost and lam == full_lam
        else:
            settled_any = True
            assert len(calls) == 2 + k + 1            # probe, k steps, exit matvec
            assert len(calls) <= full_cost and lam > STOP
            assert lam == pytest.approx(theta, abs=1e-9)  # the Ritz value at step k
    assert settled_any or d == 10


# ---------------------------------------------------------------------------
# deterministic finder


def test_nc_det_simple_saddle(rng):
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    out = approx_nc_deterministic(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert out.lambda_hat == pytest.approx(-1.0, abs=1e-8)
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)


def test_nc_det_psd_always_bottom():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(0.05, 1.0, 10)
        A = planted_symmetric(10, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(10), 0.5, 0.01, 1.0, rng)
        assert out.is_bottom


@pytest.mark.parametrize("lam_min", [-0.6, -0.5])
def test_nc_det_statistical_near_threshold(lam_min):
    # lambda_min just below, or at, -eps_h = -0.5 (the contract's edge):
    # direction in >= 95% of 200 trials
    hits = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 50)
        spec[0] = lam_min
        A = planted_symmetric(50, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(50), 0.5, 0.01, 1.0, rng)
        if out.is_direction:
            assert out.lambda_hat <= -0.25
            hits += 1
    assert hits >= 190


def test_nc_det_fd_source_matches_contract(rng):
    prob = get_problem("quadratic_saddle", d=4, spectrum=[1.0, 0.5, 0.2, -1.0], orth=True)
    bare = ObjectiveOracle(4, prob.oracle.value, prob.oracle.gradient)
    out = approx_nc_deterministic(bare, np.zeros(4), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert out.lambda_hat <= -0.25
    assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)


def test_nc_det_budget_compliance(rng):
    mm = det_max_matvecs(12, 0.5, 0.01, 1.0)
    spec = np.linspace(-1.0, 1.0, 12)
    A = planted_symmetric(12, spec, rng)
    out = approx_nc_deterministic(matrix_oracle(A), np.zeros(12), 0.5, 0.01, 1.0, rng)
    assert out.hvp_or_grad_cost <= mm + 3

    bare = ObjectiveOracle(12, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x)
    out_fd = approx_nc_deterministic(bare, np.zeros(12), 0.5, 0.01, 1.0, rng)
    assert out_fd.hvp_or_grad_cost <= 2 * (mm + 3)


# ---------------------------------------------------------------------------
# stochastic finder


def zero_variance_stochastic(A):
    d = A.shape[0]
    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        sample_gradient=lambda x, rng: A @ x,
        sample_hvp=lambda x, v, rng: A @ v,
    )


@pytest.mark.parametrize("engine", ["minibatch_lanczos"])  # the one stochastic engine
def test_nc_stochastic_zero_variance_degenerates(engine, rng):
    oracle = zero_variance_stochastic(np.diag([1.0, -1.0]))
    out = approx_nc_stochastic(oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert abs(out.direction[1]) == pytest.approx(1.0, abs=1e-6)
    assert out.lambda_hat <= -0.3125  # -(eps_h/2 + eps_h/8)


def noisy_stochastic(A, noise):
    d = A.shape[0]

    def sample_hvp(x, v, rng):
        z = rng.standard_normal(d)
        return A @ v + noise * (z * float(z @ v) - v)

    return ObjectiveOracle(
        d, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        sample_gradient=lambda x, rng: A @ x + noise * rng.standard_normal(d),
        sample_hvp=sample_hvp,
    )


@pytest.mark.parametrize("engine", ["minibatch_lanczos"])  # the one stochastic engine
@pytest.mark.parametrize("lam_min", [-1.0, -0.5])  # -2 eps_h, and the contract's edge -eps_h
def test_nc_stochastic_planted_statistical(lam_min, engine):
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 20)
        spec[0] = lam_min
        A = planted_symmetric(20, spec, rng)
        out = approx_nc_stochastic(noisy_stochastic(A, 0.02), np.zeros(20),
                                   0.5, 0.01, 1.0, rng)
        if out.is_direction:
            hits += 1
            assert float(out.direction @ (A @ out.direction)) <= -0.25 + 0.05
    assert hits >= 0.9 * trials


@pytest.mark.parametrize("shape", [(1, 4), (5,), (4, 1)])
def test_malformed_sample_hvp_batch_raises_typed(shape, rng):
    A = np.diag([1.0, -1.0, 0.3, 0.7])
    oracle = ObjectiveOracle(
        4, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x, hvp=lambda x, v: A @ v,
        sample_gradient=lambda x, rng: A @ x,
        sample_hvp=lambda x, v, rng: A @ v,
        sample_hvp_batch=lambda x, v, m, rng: np.zeros(shape),
    )
    with pytest.raises(MalformedOracleOutput, match="sample_hvp_batch returned shape"):
        oracle.sample_hvp(np.zeros(4), np.ones(4), rng, m=3)
    with pytest.raises(MalformedOracleOutput, match="sample_hvp_batch"):
        approx_nc_stochastic(oracle, np.zeros(4), 0.5, 0.01, 1.0, rng)


def test_nc_stochastic_psd_mean_mostly_bottom():
    bottoms = 0
    trials = 100
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        A = planted_symmetric(20, rng.uniform(0.05, 1.0, 20), rng)
        out = approx_nc_stochastic(noisy_stochastic(A, 0.02), np.zeros(20),
                                   0.5, 0.01, 1.0, rng)
        bottoms += out.is_bottom
    assert bottoms >= 0.9 * trials


def test_nc_stochastic_requires_capability(rng):
    prob = get_problem("sphere", d=2)
    with pytest.raises(NotStochastic):
        approx_nc_stochastic(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)


@pytest.mark.parametrize("mode, error", [("stochastic", NotStochastic),
                                         ("finite_sum", NotFiniteSum)])
def test_finder_sizes_rejects_an_oracle_that_cannot_serve_the_mode(mode, error):
    # the finders and check_run read their sizes here before any oracle work
    co = as_counting(get_problem("sphere", d=2).oracle)
    with pytest.raises(error, match=f"{mode} mode needs an oracle with"):
        finder_sizes(mode, co, 0.5, 0.01, 1.0)
    finder_sizes("deterministic", co, 0.5, 0.01, 1.0)  # every oracle serves it
    assert co.counters == EvalCounters()


def test_nc_stochastic_budget_compliance(rng):
    A = np.diag([1.0, -1.0, 0.3, 0.7])
    oracle = as_counting(zero_variance_stochastic(A))
    out = approx_nc_stochastic(oracle, np.zeros(4), 0.5, 0.01, 1.0, rng)
    mm = det_max_matvecs(4, 0.5, 0.01, 1.0)
    m = stoch_minibatch(4, 0.5, 1.0)
    m_val = validation_batch(0.5, 1.0)
    assert out.hvp_or_grad_cost <= (mm + 1) * m + m_val


# ---------------------------------------------------------------------------
# finite-sum finder


def test_nc_finite_sum_identical_components(rng):
    from gose.problems import as_finite_sum
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    fs = as_finite_sum(prob, 8)
    out = approx_nc_finite_sum(fs.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert out.is_direction
    assert out.lambda_hat == pytest.approx(-1.0, abs=1e-8)


def test_nc_finite_sum_pca_origin(rng):
    # top covariance eigenvalue 1.0 = 2 eps_h, so the origin Hessian -M
    # has lambda_min = -1.0 and a direction must come back
    pca = make_nonconvex_pca(n=64, d=10, seed=0, top_eig=1.0)
    out = approx_nc_finite_sum(pca.oracle, np.zeros(10), 0.5, 0.01,
                               pca.known_L, rng)
    assert out.is_direction
    assert out.lambda_hat <= -0.25
    # dense covariance eigendecomposition as the oracle
    from gose import dense_hessian
    H0 = dense_hessian(pca.oracle, np.zeros(10))
    assert float(np.linalg.eigvalsh(H0)[0]) == pytest.approx(-1.0, abs=1e-10)


def test_nc_finite_sum_psd_bottom(rng):
    from gose.problems import as_finite_sum
    prob = get_problem("quadratic_saddle", d=3, spectrum=[0.5, 1.0, 2.0], orth=True)
    fs = as_finite_sum(prob, 6)
    out = approx_nc_finite_sum(fs.oracle, np.zeros(3), 0.5, 0.01, 2.0, rng)
    assert out.is_bottom


@pytest.mark.parametrize("lam_min", [-1.0, -0.5])  # -2 eps_h, and the contract's edge -eps_h
def test_nc_finite_sum_planted_statistical(lam_min):
    hits = 0
    trials = 200
    for seed in range(trials):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-0.2, 1.0, 20)
        spec[0] = lam_min
        A = planted_symmetric(20, spec, rng)
        out = approx_nc_finite_sum(finite_sum_quadratic(A, 32, rng), np.zeros(20),
                                   0.5, 0.01, 1.0, rng)
        if out.is_direction:
            hits += 1
            assert float(out.direction @ (A @ out.direction)) <= -0.25 + 1e-9
    assert hits >= 0.9 * trials


def test_nc_finite_sum_requires_capability(rng):
    prob = get_problem("sphere", d=2)
    with pytest.raises(NotFiniteSum):
        approx_nc_finite_sum(prob.oracle, np.zeros(2), 0.5, 0.01, 1.0, rng)


def test_nc_finite_sum_budget_compliance(rng):
    pca = make_nonconvex_pca(n=50, d=8, seed=1, top_eig=1.0)
    oracle = as_counting(pca.oracle)
    out = approx_nc_finite_sum(oracle, np.zeros(8), 0.5, 0.01, pca.known_L, rng)
    mm = det_max_matvecs(8, 0.5, 0.01, pca.known_L)
    m = finite_sum_minibatch(50, 0.5, pca.known_L, mm)
    assert out.hvp_or_grad_cost <= (mm + 1) * m + 50


# ---------------------------------------------------------------------------
# shared contract details: the planted-spectrum suite (conftest.verify_nc_suite)


@pytest.mark.parametrize("trials", [40, 30])
def test_verify_nc_deterministic_small(trials):
    res = verify_nc_suite(d=20, trials=trials, engine="deterministic", seed=0)
    assert res["passed"]
    assert res["bottom_rate_psd"] == 1.0


@pytest.mark.parametrize("engine", sorted(NC_THRESHOLDS))
@pytest.mark.parametrize("d, trials", [(10, 20), (50, 100)])
def test_verify_nc_every_engine(d, trials, engine):
    res = verify_nc_suite(d=d, trials=trials, engine=engine, seed=0)
    assert res["passed"] and res["unsound_directions"] == 0


# sha256 per engine over every verify_nc_suite(d=10, trials=20, seed=0) finder
# outcome, in call order: is_direction, the bytes of lambda_hat, the direction's
# bytes and hvp_or_grad_cost.  A mismatch is a change of some finder's result;
# a hash moves only with a finder change that CHANGES.md lists, old and new.
FINDER_OUTCOME_GOLDEN = {
    "deterministic":
        "56353c9cd95855ec919ef06c0baeed35af19d12b8e238c7af590464dc3258dcf",
    "fd":
        "0c66ed87f4d2c0f92f1b441ee4df39d80a44f941b6cd9621fb7626c5f1c4a008",
    "minibatch_lanczos":
        "ccad7647b0b8e4e43d5120d1880c8b627720e16433f52f59a5ae5e37f1869562",
    "finite_sum":
        "b0bc2cb372f64eaa47e5183729ce9a1e4d9ea39b672309976e47891a1754507e",
}


@pytest.mark.parametrize("engine", sorted(FINDER_OUTCOME_GOLDEN))
def test_verify_nc_finder_outcomes_golden(engine, monkeypatch):
    digest = hashlib.sha256()

    def recording(finder):
        def call(*args, **kwargs):
            out = finder(*args, **kwargs)
            digest.update(b"D" if out.is_direction else b"B")
            digest.update(np.float64(out.lambda_hat).tobytes())
            if out.direction is not None:
                digest.update(np.asarray(out.direction, np.float64).tobytes())
            digest.update(str(out.hvp_or_grad_cost).encode())
            return out
        return call

    for name in ("approx_nc_deterministic", "approx_nc_stochastic", "approx_nc_finite_sum"):
        monkeypatch.setattr(conftest, name, recording(getattr(conftest, name)))
    verify_nc_suite(d=10, trials=20, engine=engine, seed=0)
    assert digest.hexdigest() == FINDER_OUTCOME_GOLDEN[engine]


def suite_eps_h_limit(d):
    """The largest eps_h with d * (3L)**2 / eps finite, L = 2 * eps_h.

    The planted operators have norm at most L, so a Lanczos tridiagonal has
    1-norm at most 3L, and LAPACK's inverse iteration for its Ritz vector
    (dstein) grows a vector to about d * (3L)**2 / eps.
    """
    return math.sqrt(np.finfo(float).max * np.finfo(float).eps / d) / 6.0


@pytest.mark.parametrize("engine", sorted(NC_THRESHOLDS))
@pytest.mark.parametrize("d", [1, 5, 50])
def test_verify_nc_runs_finite_up_to_the_eps_h_limit(engine, d):
    # just inside the limit every engine's arithmetic stays finite, with no warning
    with np.errstate(all="raise"):
        res = verify_nc_suite(d=d, trials=3, eps_h=0.9999 * suite_eps_h_limit(d),
                              engine=engine)
    assert res["passed"] and res["unsound_directions"] == 0


@pytest.mark.parametrize("engine", ["deterministic", "fd", "finite_sum", "minibatch_lanczos"])
def test_finder_call_runs_lanczos_once(engine, monkeypatch):
    # one candidate per counted call, whether it ends a direction or bottom
    runs = []
    lanczos = gose.ncfind.lanczos_min_eig

    def counted(*args, **kwargs):
        runs.append(engine)
        return lanczos(*args, **kwargs)

    monkeypatch.setattr(gose.ncfind, "lanczos_min_eig", counted)
    result = verify_nc_suite(d=10, trials=5, engine=engine)
    assert result["direction_rate"] > 0.0 and result["bottom_rate_psd"] > 0.0
    assert len(runs) == 2 * result["trials"]


# budgets that nothing clamps afterwards, as functions of L
UNCLAMPED_BUDGETS = {
    "stoch_minibatch": lambda L: stoch_minibatch(10, 0.5, L),
    "validation_batch": lambda L: validation_batch(0.5, L),
}


@pytest.mark.parametrize("name", list(UNCLAMPED_BUDGETS))
@pytest.mark.parametrize("L, problem", [(1e10, "exceeds"), (1e200, "is not finite")])
def test_unclamped_budget_out_of_range_names_L(name, L, problem):
    with pytest.raises(SizeOutOfRange, match=re.escape(name) + f".*{problem}.*"
                       + re.escape(f"L={L!r}")):
        UNCLAMPED_BUDGETS[name](L)


def test_budget_cap_is_inclusive():
    # validation_batch = ceil(4 * L**2 / 0.25) at eps_h = 0.5; at L = 2500 every
    # product is exact and the count is MAX_DRAWS
    assert validation_batch(0.5, 2500.0) == MAX_DRAWS
    with pytest.raises(SizeOutOfRange, match="validation_batch = 1e\\+08 exceeds"):
        validation_batch(0.5, math.nextafter(2500.0, math.inf))


def test_clamped_budgets_need_only_be_finite():
    # Lanczos clamps max_matvecs to d, and the finite-sum minibatch is clamped to n
    assert det_max_matvecs(10, 0.5, 0.01, 1e300) > MAX_DRAWS
    assert finite_sum_minibatch(50, 0.5, 1e300, 5) == 50
    with pytest.raises(SizeOutOfRange, match="det_max_matvecs is not finite"):
        det_max_matvecs(10, 0.5, 0.01, 1e308)
    with pytest.raises(SizeOutOfRange, match="finite_sum_minibatch is not finite"):
        finite_sum_minibatch(50, 0.5, 1e308, 5)


def test_nc_call_counter_increments(rng):
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    co = as_counting(prob.oracle)
    approx_nc_deterministic(co, np.zeros(2), 0.5, 0.01, 1.0, rng)
    approx_nc_deterministic(co, np.zeros(2), 0.5, 0.01, 1.0, rng)
    assert co.counters.nc_calls == 2


def test_direction_never_returned_above_threshold():
    # soundness: every direction's validated Rayleigh is <= -eps_h/2
    for seed in range(50):
        rng = np.random.default_rng(seed)
        spec = rng.uniform(-1.5, 1.0, 12)
        A = planted_symmetric(12, spec, rng)
        out = approx_nc_deterministic(matrix_oracle(A), np.zeros(12), 0.5, 0.01,
                                      1.5, rng)
        if out.is_direction:
            assert out.lambda_hat <= -0.25
            assert np.linalg.norm(out.direction) == pytest.approx(1.0, abs=1e-10)
