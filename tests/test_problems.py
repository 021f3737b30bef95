import inspect
import re
import tracemalloc

import numpy as np
import pytest

import gose.problems
from gose import (approx_nc_deterministic, as_streaming, certify_second_order, dense_hessian,
                  finite_diff_hvp, get_problem, list_problems,
                  make_chained_saddles, make_nonconvex_pca,
                  make_quadratic_saddle, make_saddle_path, with_gradient_noise)
from gose.core import ConfigError, DimensionTooLarge, MalformedOracleOutput, ObjectiveOracle
from gose.problems import PROBLEM_FACTORIES
from conftest import verify_lipschitz_constants


def test_registry_contents():
    names = list_problems()
    for expected in ["quadratic_saddle", "bowl_saddle", "chained_saddles",
                     "saddle_path", "nonconvex_pca", "rosenbrock", "rastrigin",
                     "sphere"]:
        assert expected in names
    with pytest.raises(ConfigError):
        get_problem("does_not_exist")


# ---------------------------------------------------------------------------
# Lipschitz spot-verification (the registration gate)


SPOT_CASES = [
    ("quadratic_saddle", {"d": 4, "spectrum": [1.0, 0.5, -0.3, -1.0]}),
    ("bowl_saddle", {"d": 4, "spectrum": [1.0, 0.5, 0.3, -1.0]}),
    ("chained_saddles", {"d": 4}),
    ("saddle_path", {"d": 3}),
    ("nonconvex_pca", {"n": 30, "d": 6}),
    ("rosenbrock", {"d": 2}),
    ("rastrigin", {"d": 3}),
    ("sphere", {"d": 4}),
]


@pytest.mark.parametrize("name,params", SPOT_CASES)
def test_lipschitz_spot_verification(name, params):
    spec = get_problem(name, **params)
    assert verify_lipschitz_constants(spec, np.random.default_rng(0))


@pytest.mark.parametrize("name,params", SPOT_CASES)
def test_value_gradient_hvp_consistency(name, params):
    # central differences of value match the gradient, and finite differences
    # of the gradient match the analytic HVP, at 20 random points each
    spec = get_problem(name, **params)
    oracle = spec.oracle
    d = oracle.dimension
    rng = np.random.default_rng(1)
    lo, hi = spec.box
    lo, hi = max(lo, -2.0), min(hi, 2.0)
    for _ in range(20):
        x = rng.uniform(lo, hi, d)
        v = rng.standard_normal(d)
        v /= np.linalg.norm(v)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        fd_dir = (oracle.value(x + h * v) - oracle.value(x - h * v)) / (2 * h)
        an_dir = float(oracle.gradient(x) @ v)
        assert abs(fd_dir - an_dir) <= 1e-5 * max(1.0, abs(an_dir))
        fd_h = finite_diff_hvp(ObjectiveOracle(d, oracle.value, oracle.gradient), x, v)
        an_h = oracle.hvp(x, v)
        assert np.linalg.norm(fd_h - an_h) <= 1e-5 * max(1.0, np.linalg.norm(an_h))


# ---------------------------------------------------------------------------
# quadratic saddle


def test_quadratic_identity_frame():
    spec = make_quadratic_saddle(2, [1.0, -1.0], orth=False)
    x = np.array([3.0, 2.0])
    assert spec.oracle.value(x) == pytest.approx(0.5 * (9.0 - 4.0))
    assert spec.known_L == 1.0
    assert spec.known_rho == 0.0
    assert len(spec.planted_saddles) == 1


def test_quadratic_all_positive_spectrum_has_no_saddle(rng):
    spec = make_quadratic_saddle(3, [0.5, 1.0, 2.0], seed=1)
    assert spec.planted_saddles == []
    out = approx_nc_deterministic(spec.oracle, np.zeros(3), 0.5, 0.01, 2.0, rng)
    assert out.is_bottom


def test_quadratic_d50_certification(rng):
    spec_vals = np.linspace(0.1, 1.0, 50)
    spec_vals[0] = -0.7
    spec = make_quadratic_saddle(50, list(spec_vals), seed=2)
    ok, gn, lam = certify_second_order(spec.oracle, np.zeros(50), 0.01, 0.5)
    assert not ok
    assert gn <= 1e-12
    assert lam == pytest.approx(-0.7, abs=1e-10)


# ---------------------------------------------------------------------------
# bowl saddle


def test_bowl_saddle_planted_minimum_is_stationary():
    spec = get_problem("bowl_saddle", d=5,
                       spectrum=[-1.0, 0.3, 0.5, 0.7, 1.0], q=0.5, seed=3)
    x_star = spec.planted_minimum
    assert np.linalg.norm(spec.oracle.gradient(x_star)) <= 1e-8
    assert spec.oracle.value(x_star) == pytest.approx(spec.known_minimum_value)
    assert spec.known_minimum_value == pytest.approx(-1.0 / (4 * 0.5))
    ok, _, lam = certify_second_order(spec.oracle, x_star, 1e-6, 0.5)
    assert ok and lam > 0.0


# ---------------------------------------------------------------------------
# chained saddles


def test_chained_d2_has_exactly_two_planted_saddles():
    spec = make_chained_saddles(2)
    assert len(spec.planted_saddles) == 2
    for s in spec.planted_saddles:
        ok, gn, lam = certify_second_order(spec.oracle, s, 1e-8, 0.5)
        assert gn <= 1e-10
        assert lam <= -1.0  # strict saddle with margin (weights >= 0.3)
        assert not ok


def test_chained_minimum_is_critical():
    spec = make_chained_saddles(5)
    assert np.linalg.norm(spec.oracle.gradient(spec.planted_minimum)) <= 1e-8
    ok, _, lam = certify_second_order(spec.oracle, spec.planted_minimum, 1e-6, 0.5)
    assert ok and lam > 0.0
    assert spec.oracle.value(spec.planted_minimum) == pytest.approx(0.0)


def test_certify_diagonal_hessian_matches_the_eigensolve(rng):
    spec = make_chained_saddles(60)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=60)
        _, _, lam = certify_second_order(spec.oracle, x, 0.01, 0.5)
        assert lam == float(np.linalg.eigvalsh(dense_hessian(spec.oracle, x))[0])
    # one off-diagonal pair: the smallest diagonal entry (1) is not lambda_min
    M = np.diag([1.0, 1.0, 3.0])
    M[0, 1] = M[1, 0] = 2.0
    quad = ObjectiveOracle(3, lambda x: 0.5 * float(x @ M @ x), lambda x: M @ x,
                           hvp=lambda x, v: M @ v)
    ok, _, lam = certify_second_order(quad, np.zeros(3), 0.01, 0.5)
    assert not ok and lam == pytest.approx(-1.0, abs=1e-12)


def test_chained_rejects_d1():
    with pytest.raises(ConfigError):
        make_chained_saddles(1)


@pytest.mark.parametrize("factory", [make_chained_saddles, make_saddle_path])
def test_fixture_takes_only_its_dimension(factory):
    # the weights, the valley curvature and the start height are constants
    assert list(inspect.signature(factory).parameters) == ["d"]
    spec = factory(3)
    if factory is make_chained_saddles:  # a = linspace(0.5, 0.3, d)
        assert spec.oracle.value(spec.x0) == float(np.linspace(0.5, 0.3, 3).sum())
        assert (spec.known_L, spec.known_rho) == (23.0 * 0.5, 36.0 * 0.5)
    else:  # a = 1/4, unit curvature in the valley, x0 = (0, 4, 4)
        np.testing.assert_array_equal(spec.x0, [0.0, 4.0, 4.0])
        assert spec.oracle.value(spec.x0) == 0.25 + 16.0
        assert (spec.known_L, spec.known_rho) == (23.0 * 0.25, 36.0 * 0.25)


def _uncached_chained_hvp(a, x, v):
    return a * (12.0 * x ** 2 - 4.0) * v


def test_chained_hvp_equals_the_uncached_expression_bit_for_bit(rng):
    d = 7
    spec = make_chained_saddles(d)
    a = np.linspace(0.5, 0.3, d)
    hvp = spec.oracle.hvp

    def check(x):
        v = rng.standard_normal(d)
        assert hvp(x, v).tobytes() == _uncached_chained_hvp(a, x, v).tobytes()

    # interleaved points: each return belongs to the point of its own call
    x1, x2 = rng.uniform(-1.5, 1.5, d), rng.uniform(-1.5, 1.5, d)
    for x in (x1, x2, x1, x1, x2):
        check(x)
    # a point changed in place between two calls
    x = rng.uniform(-1.5, 1.5, d)
    check(x)
    x[3] = 0.25
    check(x)
    x *= -1.0
    check(x)
    # signed zeros, infinities and NaN, interleaved
    neg = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.0, -0.0])
    pos = np.abs(neg)
    with np.errstate(invalid="ignore"):
        for x in (neg, pos, neg):
            check(x)
            v = np.zeros(d)  # inf * 0: NaN in both
            assert hvp(x, v).tobytes() == _uncached_chained_hvp(a, x, v).tobytes()


@pytest.mark.parametrize("d", [2, 7, 200])
def test_chained_value_equals_the_np_sum_expression_bit_for_bit(rng, d):
    # ndarray.sum and np.sum run the same add.reduce; the method skips np.sum's
    # dispatch, so the value is the same float
    value = make_chained_saddles(d).oracle.value
    a = np.linspace(0.5, 0.3, d)

    def check(x):
        expected = float(np.sum(a * (x ** 2 - 1.0) ** 2))
        assert np.float64(value(x)).tobytes() == np.float64(expected).tobytes()

    for _ in range(20):
        check(rng.uniform(-1.5, 1.5, d))
    # signed zeros, then infinities, then NaN among them
    special = np.resize([-0.0, 0.0, 1.0, -1.0], d)
    check(special)
    special[:2] = [np.inf, -np.inf]
    check(special)
    special[-1] = np.nan
    with np.errstate(invalid="ignore"):
        check(special)


def _chained_saddles_as_a_list(d):
    # saddle j: ones in its first j coordinates, zeros after
    saddles = [np.zeros(d)]
    for j in range(1, d):
        s = np.zeros(d)
        s[:j] = 1.0
        saddles.append(s)
    return saddles


@pytest.mark.parametrize("d", [2, 5, 200])
def test_chained_planted_saddles_read_as_the_stored_list(d):
    saddles = make_chained_saddles(d).planted_saddles
    expected = _chained_saddles_as_a_list(d)
    assert len(saddles) == d
    assert all(np.array_equal(s, e) for s, e in zip(saddles, expected, strict=True))
    for j in range(-d, d):  # [-1] included
        assert saddles[j].tobytes() == expected[j].tobytes()
    for j in (d, d + 1, -d - 1):
        with pytest.raises(IndexError):
            saddles[j]
    # every read builds a fresh point, so writing into one leaves the next read as it was
    saddles[0][:] = 7.0
    assert not saddles[0].any()


def test_chained_saddles_build_in_memory_linear_in_d():
    # d stored saddles of d = 20,000 floats each would take 3.2 GB
    tracemalloc.start()
    try:
        spec = make_chained_saddles(20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20
    assert len(spec.planted_saddles) == 20_000


# ---------------------------------------------------------------------------
# saddle path


def test_saddle_path_structure():
    spec = get_problem("saddle_path", d=2)
    ok, gn, lam = certify_second_order(spec.oracle, np.zeros(2), 1e-8, 0.5)
    assert gn <= 1e-12 and lam <= -0.5 and not ok
    assert np.linalg.norm(spec.oracle.gradient(spec.planted_minimum)) <= 1e-10
    assert np.linalg.norm(spec.oracle.gradient(spec.x0)) > 1.0  # large gradient start


# ---------------------------------------------------------------------------
# nonconvex PCA


def test_pca_hand_example_single_unit_component():
    spec = make_nonconvex_pca(n=1, d=2, data=[[1.0, 0.0]])
    H0 = dense_hessian(spec.oracle, np.zeros(2))
    np.testing.assert_allclose(H0, np.diag([-1.0, 0.0]), atol=1e-12)
    ok, _, lam = certify_second_order(spec.oracle, np.zeros(2), 1e-8, 0.5)
    assert not ok and lam == pytest.approx(-1.0)


def test_pca_minimizer_closed_form():
    spec = make_nonconvex_pca(n=40, d=8, seed=5)
    x_star = spec.planted_minimum
    assert np.linalg.norm(spec.oracle.gradient(x_star)) <= 1e-8
    assert spec.oracle.value(x_star) == pytest.approx(spec.known_minimum_value)
    assert spec.known_minimum_value == pytest.approx(-1.5 ** 2 / 4.0)


def test_pca_component_average_is_full_gradient(rng):
    spec = make_nonconvex_pca(n=12, d=5, seed=6)
    x = rng.standard_normal(5)
    avg = np.mean([spec.oracle.component_gradient(i, x) for i in range(12)], axis=0)
    full = spec.oracle.gradient(x)
    assert np.linalg.norm(avg - full) <= 1e-12 * max(1.0, np.linalg.norm(full))


def test_pca_single_index_batch_is_the_general_formula(rng):
    # the b = 1 shortcut returns the bits of the (b,) formula with b = 1
    for d in (2, 5, 20, 63):
        A = rng.standard_normal((7, d))
        oracle = make_nonconvex_pca(n=7, d=d, data=A).oracle
        for i in range(7):
            x = rng.standard_normal(d)
            Ai = A[[i]]
            general = -Ai.T @ (Ai @ x) / 1 + float(x @ x) * x
            got = oracle.component_gradient_batch(np.array([i]), x)
            assert got.tobytes() == general.tobytes(), (d, i)


# ---------------------------------------------------------------------------
# noisy view


@pytest.mark.parametrize("d", [1, 2, 10, 29, 200])
def test_stacked_row_products_round_as_single_dots(d):
    # the noisy view's sample_hvp_batch forms every draw's z @ v in one
    # stacked matmul; each must round as the single draw's 1-D dot does
    rng = np.random.default_rng(d)
    for m in (1, 2, 290):
        Z, v = rng.standard_normal((m, d)), rng.standard_normal(d)
        loop = np.array([float(z @ v) for z in Z])
        assert (Z[:, None, :] @ v[:, None])[:, 0, 0].tobytes() == loop.tobytes(), m


# ---------------------------------------------------------------------------
# per-step products: ndarray.dot gives the bits of @ on the shapes they take


@pytest.mark.parametrize("d", [1, 2, 10, 20, 29, 200])
def test_dot_gives_the_bits_of_matmul_on_the_fixture_product_shapes(d):
    # vector . vector (contiguous, a row of a stack or of the data, a column
    # of a C-order basis) and C-order matrix . vector (d x d, n x d)
    rng = np.random.default_rng(d)
    for _ in range(40):
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
        stack, A = rng.standard_normal((2, d)), rng.standard_normal((7, d))
        M, Q = rng.standard_normal((d, d)), rng.standard_normal((d, 5))
        pairs = [(x, x), (A[3], x), (stack[1], x), (Q[:, 2], x), (x, Q[:, 4]),
                 (Q[:, 1], Q[:, 3]), (M, x), (-M, stack[0]), (A, x), (M, Q[:, 0])]
        for a, b in pairs:
            assert a.dot(b).tobytes() == (a @ b).tobytes(), (a.shape, b.shape)


def _pca_matmul_forms(A):
    """nonconvex_pca's callables written with @, for the data matrix A."""
    M = A.T @ A / len(A)
    return {
        "value": lambda x: -0.5 * float(np.mean((A @ x) ** 2)) + 0.25 * float(x @ x) ** 2,
        "gradient": lambda x: -M @ x + float(x @ x) * x,
        "hvp": lambda x, v: -M @ v + float(x @ x) * v + 2.0 * x * float(x @ v),
        "component_gradient": lambda i, x: -A[i] * float(A[i] @ x) + float(x @ x) * x,
        "component_hvp": lambda i, x, v: (-A[i] * float(A[i] @ v) + float(x @ x) * v
                                          + 2.0 * x * float(x @ v)),
        "batch_one": lambda i, x: A[i] * -float(A[i] @ x) + float(x @ x) * x,
        "batch": lambda idx, x: -A[idx].T @ (A[idx] @ x) / len(idx) + float(x @ x) * x,
    }


@pytest.mark.parametrize("d", [2, 20, 63])
def test_pca_callables_give_the_bits_of_their_matmul_forms(rng, d):
    A = rng.standard_normal((9, d))
    oracle = make_nonconvex_pca(n=9, d=d, data=A).oracle
    ref = _pca_matmul_forms(A)
    for _ in range(20):
        x, v = rng.standard_normal(d), rng.standard_normal(d)
        i, idx = int(rng.integers(9)), rng.integers(0, 9, size=4)
        for got, want in [(oracle.value(x), ref["value"](x)),
                          (oracle.gradient(x), ref["gradient"](x)),
                          (oracle.hvp(x, v), ref["hvp"](x, v)),
                          (oracle.component_gradient(i, x), ref["component_gradient"](i, x)),
                          (oracle.component_hvp(i, x, v), ref["component_hvp"](i, x, v)),
                          (oracle.component_gradient_batch(np.array([i]), x),
                           ref["batch_one"](i, x)),
                          (oracle.component_gradient_batch(idx, x), ref["batch"](idx, x))]:
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("name", ["quadratic_saddle", "bowl_saddle"])
@pytest.mark.parametrize("orth", [True, False])
def test_quadratic_and_bowl_callables_give_the_bits_of_their_matmul_forms(rng, name, orth):
    d, q = 10, 0.5
    spectrum = np.linspace(-1.0, 2.0, d)
    spec = get_problem(name, d=d, spectrum=spectrum, seed=3, orth=orth,
                       **({"q": q} if name == "bowl_saddle" else {}))
    A = (gose.problems._planted_spectrum(spectrum, np.random.default_rng(3))[0] if orth
         else np.diag(spectrum))
    bowl = q if name == "bowl_saddle" else 0.0
    for _ in range(20):
        x, v = rng.standard_normal(d), rng.standard_normal(d)
        if bowl:
            value = 0.5 * float(x @ (A @ x)) + 0.25 * q * float(x @ x) ** 2
            grad = A @ x + q * float(x @ x) * x
            hvp = A @ v + q * (float(x @ x) * v + 2.0 * x * float(x @ v))
        else:
            value, grad, hvp = 0.5 * float(x @ (A @ x)), A @ x, A @ v
        assert spec.oracle.value(x) == value
        assert spec.oracle.gradient(x).tobytes() == grad.tobytes()
        assert spec.oracle.hvp(x, v).tobytes() == hvp.tobytes()


def test_noisy_draws_give_the_bits_of_their_matmul_and_sum_forms():
    base = get_problem("bowl_saddle", d=6, seed=1)
    noisy = with_gradient_noise(base, sigma=0.3).oracle
    rng = np.random.default_rng(5)
    coord = 0.3 / np.sqrt(6)
    for _ in range(20):
        x, v = rng.standard_normal(6), rng.standard_normal(6)
        state = rng.bit_generator.state
        got = noisy.sample_hvp(x, v, rng)
        ref_rng = np.random.default_rng()
        ref_rng.bit_generator.state = state
        z = ref_rng.standard_normal(6)
        want = base.oracle.hvp(x, v) + 0.3 * (z * float(z @ v) - v)
        assert got.tobytes() == want.tobytes()
        points, state = np.stack([x, v]), rng.bit_generator.state
        got = noisy.sample_gradient_batch(points, 7, rng)
        ref_rng.bit_generator.state = state
        noise = ref_rng.standard_normal((7, 6)).sum(axis=0)
        noise /= 7
        noise *= coord
        want = np.stack([base.oracle.gradient(p) for p in points]) + noise
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# standard problems


def test_rosenbrock_known_minimum():
    spec = get_problem("rosenbrock", d=2)
    x = np.ones(2)
    assert spec.oracle.value(x) == 0.0
    np.testing.assert_allclose(spec.oracle.gradient(x), np.zeros(2))


def test_rastrigin_known_minimum():
    spec = get_problem("rastrigin", d=2)
    assert spec.oracle.value(np.zeros(2)) == pytest.approx(0.0, abs=1e-12)


def test_rosenbrock_gradient_matches_finite_differences(rng):
    spec = get_problem("rosenbrock", d=2)
    for _ in range(20):
        x = rng.uniform(-2, 2, 2)
        g = spec.oracle.gradient(x)
        fd = np.zeros(2)
        h = 1e-7 * (1 + np.linalg.norm(x))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (spec.oracle.value(x + e) - spec.oracle.value(x - e)) / (2 * h)
        assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


# ---------------------------------------------------------------------------
# certification


def test_certify_convex_quadratic_at_minimum():
    spec = make_quadratic_saddle(3, [0.5, 1.0, 2.0], orth=False)
    ok, gn, lam = certify_second_order(spec.oracle, np.zeros(3), 0.01, 0.5)
    assert ok and gn == 0.0 and lam == pytest.approx(0.5)


def test_certify_saddle_fails():
    spec = make_quadratic_saddle(2, [1.0, -1.0], orth=False)
    ok, gn, lam = certify_second_order(spec.oracle, np.zeros(2), 0.01, 0.5)
    assert not ok and gn == 0.0 and lam == pytest.approx(-1.0)


def _hessian_by_columns(oracle, x):
    # column i of H is hvp(x, e_i), then H is symmetrized
    d = oracle.dimension
    H = np.zeros((d, d))
    eye = np.eye(d)
    for i in range(d):
        H[:, i] = oracle.hvp(x, eye[i])
    return 0.5 * (H + H.T)


HESSIAN_CASES = {
    "quadratic_saddle": {"d": 6, "spectrum": [1.0, 0.5, 0.25, -0.3, -0.7, -1.0]},
    "bowl_saddle": {"d": 6, "spectrum": [1.0, 0.5, 0.25, 0.3, 0.7, -1.0]},
    "chained_saddles": {"d": 9},
    "saddle_path": {"d": 5},
    "nonconvex_pca": {"n": 30, "d": 7},
    "rosenbrock": {"d": 8},
    "rastrigin": {"d": 5},
    "sphere": {"d": 4},
}


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_dense_hessian_matches_the_column_reference_bit_for_bit(name):
    spec = get_problem(name, **HESSIAN_CASES[name])
    lo, hi = spec.box
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.uniform(lo, hi, spec.oracle.dimension)
        H = dense_hessian(spec.oracle, x)
        assert H.tobytes() == _hessian_by_columns(spec.oracle, x).tobytes()
        assert np.array_equal(H, H.T)


def test_dense_hessian_survives_an_hvp_that_writes_into_v(rng):
    # the callable overwrites v with its result and returns v itself
    d = 5
    A = rng.standard_normal((d, d))
    A = A + A.T

    def hvp(x, v):
        v[:] = A @ v
        return v

    oracle = ObjectiveOracle(d, lambda x: 0.5 * float(x @ A @ x), lambda x: A @ x, hvp=hvp)
    assert np.array_equal(dense_hessian(oracle, np.zeros(d)), 0.5 * (A.T + A))


def test_certify_chained_saddles_calls_its_hvp_once(monkeypatch, rng):
    # every call of the fixture's callables is recorded with its direction shape
    calls = []

    def recorded(name, fn):
        def call(x, v):
            calls.append((name, v.shape))
            return fn(x, v)
        return call

    def build(*args, **kwargs):
        for name in ("hvp", "hvp_batch"):
            kwargs[name] = recorded(name, kwargs[name])
        return ObjectiveOracle(*args, **kwargs)

    monkeypatch.setattr(gose.problems, "ObjectiveOracle", build)
    spec = make_chained_saddles(200)
    x = rng.uniform(-1.5, 1.5, 200)
    _, _, lam = certify_second_order(spec.oracle, x, 0.01, 0.5)
    assert calls == [("hvp_batch", (200, 200))]
    assert lam == float(np.diagonal(_hessian_by_columns(spec.oracle, x)).min())


def test_dense_hessian_without_hvp_batch_calls_hvp_once_per_fresh_unit_row():
    d = 6
    seen = []

    def hvp(x, v):
        seen.append(v)
        return 2.0 * v

    oracle = ObjectiveOracle(d, lambda x: float(x @ x), lambda x: 2.0 * x, hvp=hvp)
    assert np.array_equal(dense_hessian(oracle, np.ones(d)), 2.0 * np.eye(d))
    assert len(seen) == d
    for i, v in enumerate(seen):  # each its own array, none a view of another
        assert v.base is None and np.array_equal(v, np.eye(d)[i])


def _certify_reference(oracle, x, eps, eps_h):
    # symmetrize first, then the smallest diagonal entry of a diagonal H, else eigvalsh
    grad_norm = float(np.linalg.norm(oracle.gradient(x)))
    H = _hessian_by_columns(oracle, x)
    diag = np.diagonal(H)
    if np.count_nonzero(H) == np.count_nonzero(diag):
        lam = float(diag.min())
    else:
        lam = float(np.linalg.eigvalsh(H)[0])
    return grad_norm <= eps and lam >= -eps_h, grad_norm, np.float64(lam).tobytes()


def _certify_bytes(oracle, x, eps, eps_h):
    ok, grad_norm, lam = certify_second_order(oracle, x, eps, eps_h)
    return ok, grad_norm, np.float64(lam).tobytes()


@pytest.mark.parametrize("name", sorted(PROBLEM_FACTORIES))
def test_certify_matches_the_symmetrize_first_reference_bit_for_bit(name):
    spec = get_problem(name, **HESSIAN_CASES[name])
    lo, hi = spec.box
    rng = np.random.default_rng(6)
    for _ in range(10):
        x = rng.uniform(lo, hi, spec.oracle.dimension)
        assert (_certify_bytes(spec.oracle, x, 0.01, 0.5)
                == _certify_reference(spec.oracle, x, 0.01, 0.5))


def _matrix_hvp_oracle(M):
    # hvp(x, v) = M v, and a stack V gives V M', row j the product with V[j]
    d = len(M)
    return ObjectiveOracle(d, lambda x: 0.0, lambda x: np.zeros(d),
                           hvp=lambda x, v: M @ v, hvp_batch=lambda x, V: V @ M.T)


def _diagonal_oracle(h):
    # v -> h * v with 0 where v is 0, so a NaN or huge h_i stays on the diagonal
    h = np.asarray(h)

    def hvp(x, v):
        return np.where(v == 0.0, 0.0, h * v)

    return ObjectiveOracle(len(h), lambda x: 0.0, lambda x: np.zeros(len(h)),
                           hvp=hvp, hvp_batch=hvp)


def _antisymmetric_off_diagonal():
    S = np.triu(np.arange(1.0, 26.0).reshape(5, 5), 1)
    return _matrix_hvp_oracle(np.diag([0.5, -2.0, 3.0, 1.0, 0.25]) + S - S.T)


@pytest.mark.parametrize("oracle, lam", [
    # the raw stack is not diagonal, the symmetrized H is: its diagonal, through 0.5 (H' + H)
    (_antisymmetric_off_diagonal(), -2.0),
    # h + h overflows: both routes read -inf
    (_diagonal_oracle([1.0, -1.5e308, 2.0]), -np.inf),
    (_diagonal_oracle([1.0, np.nan, -2.0]), np.nan),
], ids=["antisymmetric", "overflow", "nan"])
def test_certify_corner_hessians_match_the_reference(oracle, lam):
    x = np.zeros(oracle.dimension)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _certify_bytes(oracle, x, 0.01, 0.5)
        assert got == _certify_reference(oracle, x, 0.01, 0.5)
    assert np.array_equal(np.frombuffer(got[2]), [lam], equal_nan=True)


def test_warm_chained_certification_holds_no_symmetrized_copy(rng):
    d = 200
    spec = make_chained_saddles(d)
    x = rng.uniform(-1.5, 1.5, d)
    certify_second_order(spec.oracle, x, 0.01, 0.5)  # warm: the unit stack is cached
    tracemalloc.start()
    try:
        certify_second_order(spec.oracle, x, 0.01, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one d x d product; the unit stack, H' + H and its half would make four
    assert peak < 1.5 * d * d * 8


def test_hvp_batch_that_writes_into_v_raises_and_spoils_no_later_certification():
    d = 4
    M = np.diag([2.0, -1.0, 3.0, 0.5])

    def writes(x, V):
        V *= 2.0
        return V @ M

    bad = ObjectiveOracle(d, lambda x: 0.0, lambda x: np.zeros(d),
                          hvp=lambda x, v: M @ v, hvp_batch=writes)
    with pytest.raises(MalformedOracleOutput, match="^hvp_batch wrote into .*read-only"):
        certify_second_order(bad, np.zeros(d), 0.01, 0.5)
    ok, _, lam = certify_second_order(_matrix_hvp_oracle(M), np.zeros(d), 0.01, 0.5)
    assert not ok and lam == -1.0
    assert np.array_equal(dense_hessian(_matrix_hvp_oracle(M), np.zeros(d)), M)


def test_certify_dimension_cap():
    big = ObjectiveOracle(501, lambda x: 0.0, lambda x: np.zeros(501))
    with pytest.raises(DimensionTooLarge):
        certify_second_order(big, np.zeros(501), 0.01, 0.5)


@pytest.mark.parametrize("name, params, message", [
    ("quadratic_saddle", {"d": 3, "spectrum": [1.0, -1.0]}, "spectrum must have length d=3"),
    ("bowl_saddle", {"d": 2, "spectrum": [1.0, 0.5, -1.0]}, "spectrum must have length d=2"),
    ("chained_saddles", {"d": 1}, "d must be an integer >= 2, got 1"),
    ("chained_saddles", {"d": 0}, "d must be an integer >= 2, got 0"),
    ("saddle_path", {"d": 1}, "d must be an integer >= 2, got 1"),
    ("rosenbrock", {"d": 1}, "d must be an integer >= 2, got 1"),
    ("nonconvex_pca", {"n": 0, "d": 3}, "n must be an integer >= 1, got 0"),
    ("nonconvex_pca", {"n": 3, "d": 1}, "d must be an integer >= 2, got 1"),
    # each was a bare TypeError
    ("chained_saddles", {"d": 2.5}, "d must be an integer >= 2, got 2.5"),
    ("saddle_path", {"d": 3.0}, "d must be an integer >= 2, got 3.0"),
    ("nonconvex_pca", {"n": 2.5, "d": 3}, "n must be an integer >= 1, got 2.5"),
    ("nonconvex_pca", {"n": 5, "d": 3, "top_eig": -1.0}, "top_eig must be positive and finite"),
    ("bowl_saddle", {"d": 2.5}, "d must be an integer >= 1, got 2.5"),
    ("quadratic_saddle", {"d": 2.5}, "d must be an integer >= 1, got 2.5"),
    ("bowl_saddle", {"q": "a"}, "q must be a real number, got str 'a'"),
    # and True was taken as 1
    ("bowl_saddle", {"q": True}, "q must be a real number, got bool True"),
])
def test_factories_reject_bad_arguments(name, params, message):
    with pytest.raises(ConfigError, match=message):
        get_problem(name, **params)


@pytest.mark.parametrize("name, params", [
    ("quadratic_saddle", {"d": 2}), ("bowl_saddle", {"d": 2}),
    ("nonconvex_pca", {"n": 5, "d": 3}),
])
@pytest.mark.parametrize("seed", [2.5, -1, True])
def test_factory_seeds_must_be_integers(name, params, seed):
    # each was a bare TypeError or ValueError from numpy, or True was taken as 1
    with pytest.raises(ConfigError, match=re.escape(f"seed must be an integer >= 0, got {seed!r}")):
        get_problem(name, seed=seed, **params)


@pytest.mark.parametrize("name", ["quadratic_saddle", "bowl_saddle"])
@pytest.mark.parametrize("spectrum, bad", [
    ([np.nan, 1.0], 1), ([np.inf, -1.0], 1), ([-np.inf, np.nan], 2),
])
def test_spectrum_must_be_finite(name, spectrum, bad):
    # each passed, with known_L NaN or inf
    with pytest.raises(ConfigError, match=f"spectrum must be finite, got {bad} non-finite"):
        get_problem(name, d=2, spectrum=spectrum)


@pytest.mark.parametrize("data, message", [
    (np.ones(7), re.escape("data must have shape (15,), got (7,)")),
    (np.ones((3, 5)).tolist(), None),
    (np.where(np.arange(15) % 4 == 0, np.nan, 1.0), "data must be finite, got 4 non-finite"),
])
def test_pca_data_must_be_n_times_d_finite_entries(data, message):
    if message is None:  # any layout of n * d entries reads as n x d, in C order
        spec = make_nonconvex_pca(5, 3, data=data)
        same = make_nonconvex_pca(5, 3, data=np.ones((5, 3)))
        assert spec.known_L == same.known_L
        return
    with pytest.raises(ConfigError, match=message):
        make_nonconvex_pca(5, 3, data=data)


@pytest.mark.parametrize("sigma, named", [
    ("a", "sigma must be a real number, got str 'a'"),
    (True, "sigma must be a real number, got bool True"),
    (-0.1, "sigma must be nonnegative and finite, got -0.1"),
])
def test_gradient_noise_sigma_must_be_a_nonnegative_number(sigma, named):
    with pytest.raises(ConfigError, match=named):
        with_gradient_noise(get_problem("sphere", d=2), sigma)


def test_as_streaming_draws_one_component_per_call():
    pca = get_problem("nonconvex_pca", n=6, d=3, seed=1)
    stream = as_streaming(pca).oracle
    x, v = np.array([0.3, -0.2, 0.5]), np.array([1.0, 0.0, -1.0])
    for seed in range(5):
        i = int(np.random.default_rng(seed).integers(0, 6))
        np.testing.assert_array_equal(stream.sample_gradient(x, np.random.default_rng(seed)),
                                      pca.oracle.component_gradient(i, x))
        np.testing.assert_array_equal(stream.sample_hvp(x, v, np.random.default_rng(seed)),
                                      pca.oracle.component_hvp(i, x, v))
    with pytest.raises(ConfigError, match="as_streaming needs a finite-sum problem"):
        as_streaming(get_problem("sphere", d=2))
