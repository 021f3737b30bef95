import dataclasses
import math
import re

import numpy as np
import pytest

from gose import (Capabilities, CountingOracle, EvalCounters, ObjectiveOracle,
                  ScsgConfig, SmoothnessSpec, ToleranceConfig,
                  approx_nc_deterministic, as_counting, escape_step_length,
                  finite_diff_hvp, get_problem, gose_deterministic, with_gradient_noise)
from gose.core import (RHO_FLOOR, ConfigError, EpsilonTooLarge, MalformedOracleOutput,
                       NonPositiveConstant, NotFiniteSum, NotStochastic,
                       StochasticEpsilonTooLarge, ZeroDirection, check_number)
from gose.core import norm as core_norm
from gose.escape import check_run
from gose.harness import ExperimentConfig


def quad_oracle(diag):
    A = np.diag(np.asarray(diag, float))
    return ObjectiveOracle(
        dimension=len(diag),
        value=lambda x: 0.5 * float(x @ (A @ x)),
        gradient=lambda x: A @ x,
    )


def quad_oracle_analytic(diag):
    A = np.diag(np.asarray(diag, float))
    return ObjectiveOracle(
        dimension=len(diag),
        value=lambda x: 0.5 * float(x @ (A @ x)),
        gradient=lambda x: A @ x,
        hvp=lambda x, v: A @ v,
    )


# ---------------------------------------------------------------------------
# check_run: the tolerance/smoothness inequalities


def check_tolerances(tol, smooth, mode):
    """check_run on an oracle that serves every mode but finite sums.

    The zero-noise saddle serves the deterministic and stochastic modes, so
    only the inequality under test can fail.
    """
    prob = get_problem("quadratic_saddle", d=2, spectrum=[1.0, -1.0], orth=False)
    oracle = with_gradient_noise(prob, sigma=0.0).oracle
    return check_run(oracle, tol, smooth, mode)


def test_validate_accepts_instantiated_inequality():
    # 0.01 < 0.5**2 / (16*1*1) = 0.015625
    tol = ToleranceConfig(eps=0.01, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    assert check_tolerances(tol, smooth, "deterministic") is None
    assert smooth.rho_eff == 1.0
    assert escape_step_length(tol, smooth) == pytest.approx(0.25)


def test_check_run_rejects_unknown_mode():
    with pytest.raises(ConfigError, match="mode must be one of"):
        check_tolerances(ToleranceConfig(eps=0.01, eps_h=0.5), SmoothnessSpec(L=1.0), "bogus")


def test_validate_rejects_eps_at_boundary_and_above():
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    with pytest.raises(EpsilonTooLarge, match=r"eps=0.02 must satisfy eps <"
                                              r" eps_h\*\*2/\(16\*rho_eff\) = 0.015625"):
        check_tolerances(ToleranceConfig(eps=0.02, eps_h=0.5), smooth, "deterministic")
    with pytest.raises(EpsilonTooLarge):
        check_tolerances(ToleranceConfig(eps=0.015625, eps_h=0.5), smooth, "deterministic")


def test_validate_stochastic_three_halves_rule():
    smooth = SmoothnessSpec(L=1.0, rho=0.001)
    # 0.4**1.5 = 0.25298... < 0.3, so eps = 0.3 must be rejected
    assert 0.4 ** 1.5 == pytest.approx(0.2529822128134703)
    with pytest.raises(StochasticEpsilonTooLarge,
                       match=r"stochastic mode needs eps <= eps_h\*\*1.5 = 0.252982, got eps=0.3"):
        check_tolerances(ToleranceConfig(eps=0.3, eps_h=0.4), smooth, "stochastic")
    # but it passes in deterministic mode with the same constants
    check_tolerances(ToleranceConfig(eps=0.3, eps_h=0.4), smooth, "deterministic")
    # and a compliant stochastic eps is accepted
    check_tolerances(ToleranceConfig(eps=0.2, eps_h=0.4), smooth, "stochastic")


@pytest.mark.parametrize("kwargs", [
    {"eps": 0.0, "eps_h": 0.5},
    {"eps": 0.01, "eps_h": 1.0},
    {"eps": 0.01, "eps_h": 0.5, "delta": 0.0},
    {"eps": 0.01, "eps_h": 0.5, "delta": 1.0},
    {"eps": 0.01, "eps_h": 0.5, "max_outer": 0},
])
def test_validate_rejects_nonpositive_or_out_of_range(kwargs):
    with pytest.raises(NonPositiveConstant):
        ToleranceConfig(**kwargs)


@pytest.mark.parametrize("max_outer", [math.nan, 2.5, math.inf, 10.0, True])
def test_max_outer_must_be_an_integer(max_outer):
    with pytest.raises(NonPositiveConstant, match="max_outer must be an integer >= 1"):
        ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=max_outer)
    assert ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=np.int64(3)).max_outer == 3


@pytest.mark.parametrize("sizes, named", [
    ({"dimension": 2.5}, "dimension must be an integer >= 1, got 2.5"),
    ({"dimension": True}, "dimension must be an integer >= 1, got True"),
    ({"dimension": 0}, "dimension must be an integer >= 1, got 0"),
    ({"dimension": 3, "n_components": 3.7}, "n_components must be an integer >= 0, got 3.7"),
    ({"dimension": 3, "n_components": -1}, "n_components must be an integer >= 0, got -1"),
], ids=["dimension_fraction", "dimension_bool", "dimension_zero", "n_components_fraction",
        "n_components_negative"])
def test_oracle_sizes_must_be_integers(sizes, named):
    # never truncated: dimension=2.5 gave a 2-dimensional oracle
    with pytest.raises(NonPositiveConstant, match=re.escape(named)):
        ObjectiveOracle(value=lambda x: 0.0, gradient=lambda x: x,
                        component_gradient=lambda i, x: x, **sizes)
    oracle = ObjectiveOracle(np.int64(3), lambda x: 0.0, lambda x: x,
                             n_components=np.int32(4), component_gradient=lambda i, x: x)
    assert (oracle.dimension, oracle.n_components) == (3, 4)


def test_validate_rejects_bad_smoothness():
    for kwargs in ({"L": 0.0}, {"L": 1.0, "rho": -1.0}, {"L": 1.0, "rho": math.inf},
                   {"L": 1.0, "h_star": -1.0}):
        with pytest.raises(NonPositiveConstant):
            SmoothnessSpec(**kwargs)


@pytest.mark.parametrize("config, field, value", [
    (ToleranceConfig, "eps", "0.1"), (ToleranceConfig, "eps", 1j),
    (ToleranceConfig, "eps_h", True), (ToleranceConfig, "delta", None),
    (SmoothnessSpec, "L", "1"), (SmoothnessSpec, "L", True),
    (SmoothnessSpec, "rho", [1.0]), (SmoothnessSpec, "h_star", False),
    (SmoothnessSpec, "sigma", "0.05"), (ScsgConfig, "eta", "x"), (ScsgConfig, "eta", True),
    (ExperimentConfig, "noise_sigma", "0.05"), (ExperimentConfig, "noise_sigma", True),
])
def test_config_number_must_be_a_real_number(config, field, value):
    # a string, complex or None was a bare TypeError; a bool, never a number
    # in a JSON config, built
    valid = {ToleranceConfig: {"eps": 0.1, "eps_h": 0.5}, SmoothnessSpec: {"L": 1.0},
             ScsgConfig: {"B": 2, "b": 1, "eta": 0.1}, ExperimentConfig: {}}[config]
    named = f"{field} must be a real number, got {type(value).__name__} {value!r}"
    with pytest.raises(NonPositiveConstant, match=re.escape(named)):
        config(**{**valid, field: value})
    assert config(**{**valid, field: np.float32(0.25)}) is not None


@pytest.mark.parametrize("value, bounds, named", [
    (np.True_, {}, "x must be a real number, got bool"),
    (1.0, {"low": 0.0, "high": 1.0}, "x must lie in (0, 1), got 1.0"),
    (math.nan, {"closed": True}, "x must be nonnegative and finite, got nan"),
    (np.float32(0.0), {}, "x must be positive and finite, got 0.0"),
    (2.0, {"low": 1, "integer": True}, "x must be an integer >= 1, got 2.0"),
    (np.bool_(True), {"low": 0, "integer": True}, "x must be an integer >= 0, got"),
    (3, {"low": 0, "high": 3, "integer": True}, "x must be an integer in [0, 3), got 3"),
])
def test_check_number_names_the_argument(value, bounds, named):
    with pytest.raises(NonPositiveConstant, match=re.escape(named)):
        check_number("x", value, **bounds)


@pytest.mark.parametrize("value, bounds", [
    (np.float32(0.5), {}), (0, {"closed": True}), (np.float64(0.0), {"closed": True}),
    (np.int64(2), {"low": 1, "integer": True}),
    (np.uint8(2), {"low": 0, "high": 3, "integer": True}),
])
def test_check_number_takes_numpy_scalars(value, bounds):
    assert check_number("x", value, **bounds) is None


def test_configs_check_themselves_on_construction():
    with pytest.raises(NonPositiveConstant, match="eps must lie in"):
        ToleranceConfig(eps=0.0, eps_h=0.5)
    with pytest.raises(NonPositiveConstant, match="L must be positive"):
        SmoothnessSpec(L=0.0)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        smooth.L = 2.0
    assert dataclasses.replace(smooth, rho=2.0).rho_eff == 2.0


def test_objective_oracle_checks_itself_on_construction():
    def f(x):
        return 0.0

    def g(x):
        return x

    with pytest.raises(NonPositiveConstant, match="dimension"):
        ObjectiveOracle(0, f, g)
    with pytest.raises(NonPositiveConstant, match="n_components"):
        ObjectiveOracle(2, f, g, n_components=-1)
    with pytest.raises(ConfigError, match="needs component_gradient"):
        ObjectiveOracle(2, f, g, n_components=3)


def test_rho_floor_applies_to_quadratics():
    tol = ToleranceConfig(eps=1e-5, eps_h=0.5)
    smooth = SmoothnessSpec(L=1.0, rho=0.0)
    check_tolerances(tol, smooth, "deterministic")
    assert smooth.rho_eff == RHO_FLOOR == 1e-3
    assert escape_step_length(tol, smooth) == pytest.approx(0.5 / (2 * 1e-3))


# ---------------------------------------------------------------------------
# finite_diff_hvp


def test_fd_hvp_constant_hessian_exact():
    oracle = quad_oracle([2.0, 3.0])
    x = np.array([1.0, 1.0])
    np.testing.assert_allclose(finite_diff_hvp(oracle, x, np.array([1.0, 0.0])),
                               [2.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(finite_diff_hvp(oracle, x, np.array([0.0, 2.0])),
                               [0.0, 6.0], atol=1e-6)


def test_fd_hvp_zero_direction_raises():
    oracle = quad_oracle([2.0, 3.0])
    with pytest.raises(ZeroDirection):
        finite_diff_hvp(oracle, np.zeros(2), np.zeros(2))


def test_fd_hvp_rosenbrock_column_matches_hand_hessian():
    # Hessian of 100(y - x^2)^2 + (1 - x)^2 at (1, 1), assembled by hand
    H = np.array([[1200.0 * 1 - 400.0 * 1 + 2.0, -400.0],
                  [-400.0, 200.0]])
    ros = get_problem("rosenbrock", d=2)
    x = np.array([1.0, 1.0])
    for i in range(2):
        e = np.zeros(2)
        e[i] = 1.0
        got = finite_diff_hvp(ros.oracle, x, e)
        rel = np.linalg.norm(got - H[:, i]) / np.linalg.norm(H[:, i])
        assert rel <= 1e-5


def test_fd_hvp_matches_analytic_on_random_quadratics(rng):
    for _ in range(20):
        d = int(rng.integers(2, 8))
        B = rng.standard_normal((d, d))
        A = B + B.T
        oracle = ObjectiveOracle(d, lambda x, A=A: 0.5 * float(x @ (A @ x)),
                                 lambda x, A=A: A @ x)
        x = rng.standard_normal(d)
        v = rng.standard_normal(d)
        got = finite_diff_hvp(oracle, x, v)
        want = A @ v
        assert np.linalg.norm(got - want) <= 1e-6 * max(1.0, np.linalg.norm(want))


def test_synthesized_hvp_is_linear(rng):
    ros = get_problem("rosenbrock", d=3)
    bare = ObjectiveOracle(3, ros.oracle.value, ros.oracle.gradient)
    x = rng.standard_normal(3)
    u, w = rng.standard_normal(3), rng.standard_normal(3)
    combo = bare.hvp(x, 2.0 * u + 0.5 * w)
    parts = 2.0 * bare.hvp(x, u) + 0.5 * bare.hvp(x, w)
    assert np.linalg.norm(combo - parts) <= 1e-4 * max(1.0, np.linalg.norm(parts))


# ---------------------------------------------------------------------------
# oracle capabilities and invariants


def test_capabilities_flags():
    det = quad_oracle([1.0, 2.0])
    assert det.capabilities == Capabilities(False, False, False)
    ana = quad_oracle_analytic([1.0, 2.0])
    assert ana.capabilities.analytic_hvp
    pca = get_problem("nonconvex_pca", n=5, d=3, seed=0)
    assert pca.oracle.capabilities.finite_sum
    assert pca.oracle.n_components == 5


def test_finite_sum_component_average_matches_gradient(rng):
    pca = get_problem("nonconvex_pca", n=16, d=4, seed=1)
    for _ in range(5):
        x = rng.standard_normal(4)
        avg = np.mean([pca.oracle.component_gradient(i, x) for i in range(16)], axis=0)
        full = pca.oracle.gradient(x)
        assert np.linalg.norm(avg - full) <= 1e-10 * max(1.0, np.linalg.norm(full))


def test_outputs_have_dimension_d(rng):
    pca = get_problem("nonconvex_pca", n=4, d=6, seed=2)
    x, v = rng.standard_normal(6), rng.standard_normal(6)
    assert pca.oracle.gradient(x).shape == (6,)
    assert pca.oracle.hvp(x, v).shape == (6,)
    assert pca.oracle.component_gradient(0, x).shape == (6,)


# ---------------------------------------------------------------------------
# counting


def test_counting_gradient_and_value():
    co = as_counting(quad_oracle([1.0, 2.0]))
    x = np.ones(2)
    co.gradient(x)
    co.value(x)
    assert co.counters.grad_evals == 1
    assert co.counters.fn_evals == 1


def test_counting_hvp_analytic_vs_synthesized():
    ana = as_counting(quad_oracle_analytic([1.0, 2.0]))
    ana.hvp(np.ones(2), np.ones(2))
    assert ana.counters.hvp_evals == 1
    assert ana.counters.grad_evals == 0

    fd = as_counting(quad_oracle([1.0, 2.0]))
    fd.hvp(np.ones(2), np.ones(2))
    assert fd.counters.hvp_evals == 0
    assert fd.counters.grad_evals == 2  # synthesized: two gradient calls


def test_counting_synthesized_component_and_sample_hvps():
    # without analytic component or sample HVPs each product costs two
    # gradients of its kind, with the bare oracle's values and stream
    A = np.diag([1.0, 2.0])
    bare = ObjectiveOracle(2, lambda x: 0.5 * float(x @ (A @ x)), lambda x: A @ x,
                           n_components=2,
                           component_gradient=lambda i, x: (i + 1.0) * (A @ x),
                           sample_gradient=lambda x, rng: A @ x + rng.standard_normal(2))
    co = as_counting(bare)
    x, v = np.ones(2), np.array([1.0, -2.0])
    np.testing.assert_array_equal(co.component_hvp(1, x, v), bare.component_hvp(1, x, v))
    assert (co.counters.component_grad_evals, co.counters.hvp_evals) == (2, 0)
    counted, plain = np.random.default_rng(3), np.random.default_rng(3)
    np.testing.assert_array_equal(co.sample_hvp(x, v, counted), bare.sample_hvp(x, v, plain))
    assert (co.counters.stoch_grad_evals, co.counters.hvp_evals) == (2, 0)
    assert counted.random() == plain.random()
    # the mean of m draws: two stochastic gradients per draw when synthesized,
    # one hvp_eval per draw when the oracle has sample HVPs
    np.testing.assert_array_equal(co.sample_hvp(x, v, counted, 3), bare.sample_hvp(x, v, plain, 3))
    assert (co.counters.stoch_grad_evals, co.counters.hvp_evals) == (2 + 2 * 3, 0)
    assert counted.random() == plain.random()
    analytic = as_counting(with_gradient_noise(get_problem("sphere", d=2), sigma=0.1).oracle)
    analytic.sample_hvp(x, v, counted, 5)
    assert (analytic.counters.stoch_grad_evals, analytic.counters.hvp_evals) == (0, 5)


def test_counting_finite_sum_full_gradient():
    pca = get_problem("nonconvex_pca", n=7, d=3, seed=0)
    co = as_counting(pca.oracle)
    co.gradient(np.ones(3))
    assert co.counters.grad_evals == 0
    assert co.counters.component_grad_evals == 7
    co.component_gradient_batch([0, 1, 2], np.ones(3))
    assert co.counters.component_grad_evals == 10
    # a synthesized hvp differences two full gradients: 2n component gradients
    bare = as_counting(ObjectiveOracle(3, pca.oracle.value, pca.oracle.gradient, n_components=7,
                                       component_gradient=pca.oracle.component_gradient))
    bare.hvp(np.ones(3), np.array([1.0, 0.0, -1.0]))
    assert (bare.counters.grad_evals, bare.counters.component_grad_evals) == (0, 14)
    assert bare.counters.hvp_evals == 0


def test_counting_stochastic_batches(rng):
    spec = get_problem("sphere", d=3)
    from gose import with_gradient_noise
    noisy = as_counting(with_gradient_noise(spec, sigma=0.1).oracle)
    noisy.sample_gradient(np.ones(3), rng)
    noisy.sample_gradient_batch(np.ones(3), 9, rng)
    noisy.sample_hvp(np.ones(3), np.ones(3), rng)
    assert noisy.counters.stoch_grad_evals == 10
    assert noisy.counters.hvp_evals == 1


def _stochastic_oracles():
    noisy = with_gradient_noise(get_problem("bowl_saddle", d=4, seed=2), sigma=0.3).oracle
    draws_only = ObjectiveOracle(4, noisy.value, noisy.gradient,
                                 sample_gradient=noisy.sample_gradient)
    return {"batch_callable": noisy, "row_replay": draws_only}


@pytest.mark.parametrize("kind", ["batch_callable", "row_replay"])
def test_sample_gradient_batch_evaluates_one_draw_at_every_row(kind):
    oracle = _stochastic_oracles()[kind]
    points = np.random.default_rng(1).standard_normal((3, 4))
    co = as_counting(oracle)
    rng = np.random.default_rng(7)
    stacked = co.sample_gradient_batch(points, 5, rng)
    assert stacked.shape == (3, 4)
    assert co.counters.stoch_grad_evals == 5 * 3
    for row, got in zip(points, stacked):
        one_rng = np.random.default_rng(7)
        one = oracle.sample_gradient_batch(row, 5, one_rng)
        assert one.shape == (4,)
        np.testing.assert_array_equal(got, one)
    # the generator moved exactly as far as one single-point call moves it
    assert rng.bit_generator.state == one_rng.bit_generator.state


class StackRecorder(CountingOracle):
    """Records the points shape and draw count of every sample_gradient_batch call."""

    def __init__(self, base):
        super().__init__(base)
        self.batch_calls = []

    def sample_gradient_batch(self, x, m, rng):
        self.batch_calls.append((np.shape(x), m))
        return super().sample_gradient_batch(x, m, rng)


@pytest.mark.parametrize("kind", ["batch_callable", "row_replay"])
@pytest.mark.parametrize("m", [1, 3])
def test_synthesized_sample_hvp_is_one_stacked_batch_call(kind, m):
    # an oracle with stochastic gradients but no sample_hvp: both probe points
    # see the same m draws of additive noise, which cancels in the difference
    quad = get_problem("quadratic_saddle", d=5, spectrum=[-1.0, 0.5, 1.0, 2.0, 3.0], seed=4)
    noisy = with_gradient_noise(quad, sigma=0.3).oracle
    batch = {"batch_callable": noisy.sample_gradient_batch, "row_replay": None}[kind]
    oracle = ObjectiveOracle(5, noisy.value, noisy.gradient,
                             sample_gradient=noisy.sample_gradient,
                             sample_gradient_batch=batch)
    co = StackRecorder(oracle)
    x, v = np.random.default_rng(m).standard_normal((2, 5))
    got = co.sample_hvp(x, v, np.random.default_rng(0), m)
    assert co.batch_calls == [((2, 5), m)]
    assert (co.counters.stoch_grad_evals, co.counters.hvp_evals) == (2 * m, 0)
    np.testing.assert_allclose(got, quad.oracle.hvp(x, v), rtol=0, atol=1e-6)


def _per_draw_mean(oracle, x, v, rng, m):
    acc = np.zeros(oracle.dimension)
    for _ in range(m):
        acc += oracle.sample_hvp(x, v, rng)
    return acc / m


@pytest.mark.parametrize("m", [1, 2, 248, 784])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("d", [1, 3, 10])
def test_sample_hvp_of_m_draws_is_the_per_draw_mean(d, seed, m):
    # the noise wrapper's batch callable and the loop fallback both give, bit
    # for bit, the mean m single draws summed in order give, and leave the
    # generator where those draws leave it
    noisy = with_gradient_noise(get_problem("bowl_saddle", d=d, seed=seed), sigma=0.3).oracle
    draws_only = ObjectiveOracle(d, noisy.value, noisy.gradient, hvp=noisy.hvp,
                                 sample_gradient=noisy.sample_gradient,
                                 sample_hvp=noisy.sample_hvp)
    x, v = np.random.default_rng(seed + 10).standard_normal((2, d))
    loop_rng = np.random.default_rng(seed)
    expected = _per_draw_mean(noisy, x, v, loop_rng, m)
    for oracle in (noisy, draws_only):
        rng = np.random.default_rng(seed)
        got = oracle.sample_hvp(x, v, rng, m)
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_sample_hvp_batch_needs_single_draws():
    with pytest.raises(ConfigError, match="sample_hvp_batch needs sample_hvp"):
        ObjectiveOracle(1, lambda x: 0.0, lambda x: x, sample_gradient=lambda x, rng: x,
                        sample_hvp_batch=lambda x, v, m, rng: v)


def rosenbrock_oracle(analytic: bool) -> ObjectiveOracle:
    # a nonlinear objective without hvp_batch: its stacks take the row path
    base = get_problem("rosenbrock", d=5).oracle
    return ObjectiveOracle(5, base.value, base.gradient, hvp=base.hvp if analytic else None)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic_hvp", "synthesized_hvp"])
def test_hvp_stack_without_batch_is_one_call_per_row_bit_for_bit(analytic, rng):
    oracle = rosenbrock_oracle(analytic)
    x = rng.uniform(-2.0, 2.0, 5)
    V = rng.standard_normal((3, 5))
    singles = np.stack([oracle.hvp(x, V[j]) for j in range(3)])
    assert oracle.hvp(x, V).tobytes() == singles.tobytes()
    assert oracle.hvp(x, np.empty((0, 5))).shape == (0, 5)


@pytest.mark.parametrize("shape", [(3, 5), (4,), (2, 4), (3, 4, 1)])
def test_malformed_hvp_batch_output_raises_typed(shape):
    oracle = ObjectiveOracle(4, lambda x: 0.0, lambda x: x, hvp=lambda x, v: v,
                             hvp_batch=lambda x, V: np.ones(shape))
    x, V = np.arange(4.0), np.ones((3, 4))
    with pytest.raises(MalformedOracleOutput,
                       match=re.escape(f"hvp_batch returned shape {shape}, expected (3, 4)")):
        oracle.hvp(x, V)
    assert oracle.hvp(x, V[0]).shape == (4,)  # single directions go to hvp


def test_hvp_batch_needs_single_directions():
    with pytest.raises(ConfigError, match="hvp_batch needs hvp"):
        ObjectiveOracle(1, lambda x: 0.0, lambda x: x, hvp_batch=lambda x, V: V)


@pytest.mark.parametrize("analytic", [True, False], ids=["analytic_hvp", "synthesized_hvp"])
def test_hvp_stack_of_the_wrong_width_raises_before_any_counter_moves(analytic):
    oracle = as_counting(rosenbrock_oracle(analytic))
    with pytest.raises(ConfigError, match=re.escape("(k, 5) stack, got shape (3, 4)")):
        oracle.hvp(np.zeros(5), np.ones((3, 4)))
    assert oracle.counters == EvalCounters()


def _direction_oracle(analytic, calls):
    """d=4, n=3 components, stochastic; calls records every callable run."""
    def recorded(fn):
        def call(*args):
            calls.append(fn)
            return fn(*args)
        return call

    return ObjectiveOracle(
        4, lambda x: float(x @ x), recorded(lambda x: 2.0 * x),
        hvp=recorded(lambda x, v: 2.0 * v) if analytic else None,
        n_components=3, component_gradient=recorded(lambda i, x: 2.0 * x),
        component_hvp=recorded(lambda i, x, v: 2.0 * v) if analytic else None,
        sample_gradient=recorded(lambda x, rng: 2.0 * x + rng.standard_normal(4)),
        sample_hvp=recorded(lambda x, v, rng: 2.0 * v) if analytic else None)


@pytest.mark.parametrize("shape", [(3,), (), (2, 2, 4)], ids=["wrong_length", "scalar", "3d"])
@pytest.mark.parametrize("method", ["hvp", "component_hvp", "sample_hvp"])
@pytest.mark.parametrize("analytic", [True, False], ids=["analytic_hvp", "synthesized_hvp"])
def test_direction_of_the_wrong_shape_raises_before_any_callable_runs(analytic, method, shape):
    # a wrong length reached the callable (a bare numpy error), and a scalar
    # gave a (d,) answer
    calls = []
    oracle = _direction_oracle(analytic, calls)
    co = as_counting(oracle)
    x, v = np.ones(4), np.ones(shape)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    call = {"hvp": lambda o: o.hvp(x, v), "component_hvp": lambda o: o.component_hvp(1, x, v),
            "sample_hvp": lambda o: o.sample_hvp(x, v, rng)}[method]
    for target in (co, oracle):
        with pytest.raises(ConfigError, match=re.escape("direction v must have shape (4,)")):
            call(target)
    assert calls == [] and co.counters == EvalCounters()
    assert rng.bit_generator.state == state
    v = np.ones(4)
    assert call(co) == pytest.approx(2.0 * v) and calls


@pytest.mark.parametrize("kind", ["hvp_batch", "analytic_rows", "synthesized_rows"])
def test_counting_charges_each_row_of_a_hvp_stack(kind, rng):
    A = np.diag([1.0, 2.0, 3.0])
    oracle = ObjectiveOracle(3, lambda x: 0.5 * float(x @ A @ x), lambda x: A @ x,
                             hvp=None if kind == "synthesized_rows" else lambda x, v: A @ v,
                             hvp_batch=(lambda x, V: V @ A) if kind == "hvp_batch" else None)
    co = as_counting(oracle)
    co.hvp(rng.standard_normal(3), rng.standard_normal((4, 3)))
    if kind == "synthesized_rows":  # two gradients per row's central difference
        assert co.counters == EvalCounters(grad_evals=8)
    else:
        assert co.counters == EvalCounters(hvp_evals=4)


def test_as_counting_is_idempotent():
    co = as_counting(quad_oracle([1.0]))
    assert as_counting(co) is co


def test_counters_nondecreasing_along_a_run():
    spec = get_problem("chained_saddles", d=3)
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=50)
    smooth = SmoothnessSpec(L=spec.known_L, rho=1.0)
    report = gose_deterministic(spec.oracle, spec.x0, tol, smooth,
                                rng=np.random.default_rng(0))
    fields = EvalCounters().as_dict().keys()
    prev = {k: 0 for k in fields}
    for rec in report.trace:
        cur = rec.counters.as_dict()
        for k in fields:
            assert cur[k] >= prev[k], f"counter {k} decreased"
        prev = cur


# ---------------------------------------------------------------------------
# malformed user output, draw counts and index rows


def malformed_oracle(method, shape):
    """A d=4 oracle whose `method` callable returns zeros of `shape`, every other one x."""
    bad = np.zeros(shape)
    callables = {
        "gradient": lambda x: x,
        "hvp": lambda x, v: v,
        "component_gradient": lambda i, x: x,
        "component_hvp": lambda i, x, v: v,
        "sample_gradient": lambda x, rng: x,
        "sample_hvp": lambda x, v, rng: v,
    }
    callables[method] = lambda *args: bad
    return ObjectiveOracle(4, lambda x: 0.5 * float(x @ x), callables["gradient"],
                           hvp=callables["hvp"],
                           n_components=3, component_gradient=callables["component_gradient"],
                           component_hvp=callables["component_hvp"],
                           sample_gradient=callables["sample_gradient"],
                           sample_hvp=callables["sample_hvp"])


SINGLE_POINT_CALLS = {
    "gradient": lambda o, x, v, rng: o.gradient(x),
    "hvp": lambda o, x, v, rng: o.hvp(x, v),
    "component_gradient": lambda o, x, v, rng: o.component_gradient(1, x),
    "component_hvp": lambda o, x, v, rng: o.component_hvp(1, x, v),
    "sample_gradient": lambda o, x, v, rng: o.sample_gradient(x, rng),
    "sample_hvp": lambda o, x, v, rng: o.sample_hvp(x, v, rng),
    "sample_hvp_summed": lambda o, x, v, rng: o.sample_hvp(x, v, rng, 3),
}


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (5,)])
@pytest.mark.parametrize("call", list(SINGLE_POINT_CALLS))
def test_malformed_single_point_output_raises_typed(call, shape):
    method = call.removesuffix("_summed")
    oracle = malformed_oracle(method, shape)
    x, v, rng = np.arange(4.0), np.ones(4), np.random.default_rng(0)
    with pytest.raises(MalformedOracleOutput,
                       match=re.escape(f"{method} returned shape {shape}, expected (4,)")):
        SINGLE_POINT_CALLS[call](oracle, x, v, rng)
    # the well-formed methods of the same oracle return x's shape
    for other, run in SINGLE_POINT_CALLS.items():
        if other.removesuffix("_summed") != method:
            assert run(oracle, x, v, rng).shape == (4,)


@pytest.mark.parametrize("method, out", [("value", np.ones(2)), ("value", "abc"),
                                         ("value", None), ("gradient", "ab"),
                                         ("gradient", [1.0, "x"]), ("gradient", {"a": 1.0})])
def test_non_numeric_oracle_output_stops_a_run_typed(method, out):
    # what numpy cannot read as floats is malformed output, named by its method
    callables = {"value": lambda x: 0.5 * float(x @ x), "gradient": lambda x: x}
    callables[method] = lambda x: out
    oracle = ObjectiveOracle(2, callables["value"], callables["gradient"])
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=5)
    with pytest.raises(MalformedOracleOutput, match=f"^{method} returned {type(out).__name__}"):
        gose_deterministic(oracle, np.ones(2), tol, SmoothnessSpec(L=1.0, rho=1.0),
                           rng=np.random.default_rng(0))


@pytest.mark.parametrize("shape", [(1, 4), (4, 1), (5,)])
def test_malformed_gradient_or_hvp_stops_a_run_typed(shape):
    tol = ToleranceConfig(eps=0.01, eps_h=0.5, max_outer=5)
    smooth = SmoothnessSpec(L=1.0, rho=1.0)
    with pytest.raises(MalformedOracleOutput, match="gradient returned"):
        gose_deterministic(malformed_oracle("gradient", shape), np.ones(4), tol, smooth,
                           rng=np.random.default_rng(0))
    with pytest.raises(MalformedOracleOutput, match="hvp returned"):
        approx_nc_deterministic(malformed_oracle("hvp", shape), np.zeros(4), 0.5, 0.01, 1.0,
                                np.random.default_rng(0))


def _sampling_oracles():
    noisy = with_gradient_noise(get_problem("bowl_saddle", d=3, seed=2), sigma=0.1).oracle
    return {
        "batch_callables": noisy,
        "loops": ObjectiveOracle(3, noisy.value, noisy.gradient,
                                 sample_gradient=noisy.sample_gradient,
                                 sample_hvp=noisy.sample_hvp),
        "synthesized_hvp": ObjectiveOracle(3, noisy.value, noisy.gradient,
                                           sample_gradient=noisy.sample_gradient),
    }


def _assert_draw_count_refused(kind, m):
    oracle = _sampling_oracles()[kind]
    co = as_counting(oracle)
    x, v = np.ones(3), np.array([1.0, 0.0, -1.0])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for call in (lambda o: o.sample_gradient_batch(x, m, rng),
                 lambda o: o.sample_gradient_batch(np.stack([x, v]), m, rng),
                 lambda o: o.sample_hvp(x, v, rng, m)):
        for target in (co, oracle):
            with pytest.raises(ConfigError, match="draw count m must be an integer >= 1"):
                call(target)
    assert co.counters == EvalCounters()
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m", [0, -2, 0.5, math.nan])
@pytest.mark.parametrize("kind", ["batch_callables", "loops", "synthesized_hvp"])
def test_draw_count_below_one_raises_before_any_counter_moves(kind, m):
    _assert_draw_count_refused(kind, m)


@pytest.mark.parametrize("m", [2.5, True, math.inf, math.nan])
@pytest.mark.parametrize("kind", ["batch_callables", "loops", "synthesized_hvp"])
def test_draw_count_that_is_not_an_integer_raises_before_any_counter_moves(kind, m):
    # a fraction is never truncated into fewer draws than it names
    _assert_draw_count_refused(kind, m)


def test_draw_count_may_be_a_numpy_integer():
    co = as_counting(_sampling_oracles()["loops"])
    co.sample_hvp(np.ones(3), np.ones(3), np.random.default_rng(0), np.int64(3))
    assert co.counters.hvp_evals == 3


def _index_oracle(analytic_hvp, calls):
    """n=3 components at d=2; calls records every component callable run."""
    def grad(i, x):
        calls.append(i)
        return (i + 1.0) * x

    def hvp(i, x, v):
        calls.append(i)
        return (i + 1.0) * v

    return ObjectiveOracle(2, lambda x: float(x @ x), lambda x: 2.0 * x, n_components=3,
                           component_gradient=grad,
                           component_hvp=hvp if analytic_hvp else None)


@pytest.mark.parametrize("i", [-1, 3, 0.7, 1.0, True, math.nan, "1"])
@pytest.mark.parametrize("analytic_hvp", [True, False], ids=["analytic_hvp", "synthesized_hvp"])
def test_component_index_out_of_range_raises_before_any_counter_moves(analytic_hvp, i):
    calls = []
    oracle = _index_oracle(analytic_hvp, calls)
    co = as_counting(oracle)
    x, v = np.ones(2), np.array([1.0, -1.0])
    for target in (co, oracle):
        for call in (lambda o: o.component_gradient(i, x), lambda o: o.component_hvp(i, x, v)):
            with pytest.raises(ConfigError, match=r"component index i must be an integer in"
                                                  r" \[0, 3\), got"):
                call(target)
    assert calls == [] and co.counters == EvalCounters()
    # numpy integers in range are components
    assert co.component_gradient(np.int64(2), x) == pytest.approx(3.0 * x)
    assert co.component_hvp(np.int32(0), x, v) == pytest.approx(v)


@pytest.mark.parametrize("indices", [np.zeros(0, int), np.zeros((3, 0), int),
                                     np.zeros((2, 2, 1), int), np.int64(1)],
                         ids=["empty", "empty_rows", "3d", "scalar"])
@pytest.mark.parametrize("batch", [True, False], ids=["batch_callable", "row_loop"])
def test_bad_index_rows_raise_before_any_counter_moves(indices, batch):
    pca = get_problem("nonconvex_pca", n=5, d=3, seed=0).oracle
    oracle = pca if batch else ObjectiveOracle(
        3, pca.value, pca.gradient, n_components=5,
        component_gradient=pca.component_gradient)
    co = as_counting(oracle)
    for target in (co, oracle):
        with pytest.raises(ConfigError, match="component_gradient_batch needs 1-D or 2-D"):
            target.component_gradient_batch(indices, np.ones(3))
    assert co.counters == EvalCounters()


@pytest.mark.parametrize("indices", [[[1, 2], [3]], ["a"], np.array([1.0, 2.0]), [0.5],
                                     [True], np.array([[True], [False]]),
                                     np.array([1, 2], dtype=object)],
                         ids=["ragged", "string", "float_array", "fraction", "bool",
                              "bool_rows", "object"])
@pytest.mark.parametrize("batch", [True, False], ids=["batch_callable", "row_loop"])
def test_non_integer_index_rows_raise_before_any_callable_or_counter(indices, batch):
    # each was a bare ValueError or IndexError, or served as component 0 or 1
    pca = get_problem("nonconvex_pca", n=5, d=3, seed=0).oracle
    calls = []

    def spy(callable_):
        return lambda *args: calls.append(args) or callable_(*args)

    oracle = ObjectiveOracle(
        3, pca.value, pca.gradient, n_components=5,
        component_gradient=spy(pca.component_gradient),
        component_gradient_batch=spy(pca.component_gradient_batch) if batch else None)
    co = as_counting(oracle)
    for target in (co, oracle):
        with pytest.raises(ConfigError, match="^component_gradient_batch needs"):
            target.component_gradient_batch(indices, np.ones(3))
    assert calls == [] and co.counters == EvalCounters()
    # unsigned and narrow integer indices are components
    for good in (np.array([1, 2], dtype=np.uint8), np.array([[4]], dtype=np.int32)):
        assert co.component_gradient_batch(good, np.ones(3)).shape[-1] == 3
    assert co.counters.component_grad_evals == 3


def test_refused_calls_charge_nothing():
    # a call the base refuses, or whose result is malformed, costs no unit
    x, rng = np.ones(2), np.random.default_rng(0)
    co = as_counting(quad_oracle([1.0, 2.0]))
    refused = [(NotFiniteSum, lambda: co.component_gradient(0, x)),
               (NotFiniteSum, lambda: co.component_gradient_batch([0, 1], x)),
               (NotFiniteSum, lambda: co.component_gradient_batch([[0], [1]], x)),
               (NotFiniteSum, lambda: co.component_hvp(0, x, x)),
               (NotStochastic, lambda: co.sample_gradient(x, rng)),
               (NotStochastic, lambda: co.sample_gradient_batch(x, 3, rng)),
               (NotStochastic, lambda: co.sample_gradient_batch(np.stack([x, x]), 3, rng)),
               (NotStochastic, lambda: co.sample_hvp(x, x, rng, 3))]
    bad = as_counting(ObjectiveOracle(2, lambda x: 0.0, lambda x: np.ones(3),
                                      hvp=lambda x, v: np.ones(3)))
    refused += [(MalformedOracleOutput, lambda: bad.gradient(x)),
                (MalformedOracleOutput, lambda: bad.hvp(x, x))]
    for error, call in refused:
        with pytest.raises(error):
            call()
    assert co.counters == EvalCounters()
    assert bad.counters == EvalCounters()


def test_single_draws_need_their_capability():
    plain = quad_oracle([1.0, 2.0])
    co = as_counting(plain)
    for target in (plain, co):
        with pytest.raises(NotFiniteSum, match="no component gradients"):
            target.component_gradient(0, np.ones(2))
        with pytest.raises(NotStochastic, match="no stochastic gradients"):
            target.sample_gradient(np.ones(2), np.random.default_rng(0))


# ---------------------------------------------------------------------------
# core.norm: np.linalg.norm's bits without its dispatch


def _norm_cases():
    rng = np.random.default_rng(7)
    cases = {f"contiguous_{d}": rng.standard_normal(d) for d in (1, 2, 20, 200, 1001)}
    stack = rng.standard_normal((40, 7))
    cases.update(column=stack[:, 3], reversed=stack[::-1, 0], every_third=stack[::3, 5],
                 matrix=stack, fortran=np.asfortranarray(stack), transposed=stack.T,
                 empty=np.zeros(0))
    special = {"zeros": [0.0, 0.0], "negative_zero": [-0.0, -0.0], "inf": [1.0, np.inf],
               "minus_inf": [-np.inf, 2.0], "nan": [np.nan, 1.0], "nan_inf": [np.inf, np.nan],
               "huge": [1e200, -1e200], "tiny": [1e-200, 1e-200], "subnormal": [5e-324, 3e-310],
               "mixed": [1e200, 1e-200, 5e-324, -3.0]}
    cases.update({name: np.array(values) for name, values in special.items()})
    for name, values in special.items():  # the same values in a strided view
        wide = np.zeros((len(values), 3))
        wide[:, 1] = values
        cases[name + "_strided"] = wide[:, 1]
    return cases


@pytest.mark.parametrize("name, v", list(_norm_cases().items()))
def test_norm_gives_the_bits_of_np_linalg_norm(name, v):
    with np.errstate(over="ignore"):  # 1e200 squared overflows in both
        got, want = core_norm(v), np.linalg.norm(v)
    assert type(got) is float
    assert np.float64(got).tobytes() == want.tobytes()


def test_norm_without_ravel_order_k_would_round_differently():
    # a strided view's dot without the memory-order ravel differs in its bits
    # somewhere in this set; with it the bits always match np.linalg.norm
    rng = np.random.default_rng(3)
    differ = 0
    for _ in range(300):
        M = rng.standard_normal((int(rng.integers(2, 60)), int(rng.integers(2, 9))))
        v = M.T if rng.random() < 0.5 else M[:, ::-1]
        assert np.float64(core_norm(v)).tobytes() == np.linalg.norm(v).tobytes()
        flat = v.ravel()
        differ += math.sqrt(flat.dot(flat)) != core_norm(v)
    assert differ > 0
