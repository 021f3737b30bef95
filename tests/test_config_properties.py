"""Property tests for the configuration objects.

Examples are derived from the test names (derandomize=True) and no example
database is kept, so every run checks the same inputs.
"""

import dataclasses
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gose import SmoothnessSpec, ToleranceConfig
from gose.core import MODES, ConfigError, NonPositiveConstant
from gose.harness import ExperimentConfig
from gose.solvers import SOLVERS

deterministic = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalar = st.none() | st.booleans() | st.integers() | finite | st.text()

# one strategy per annotation used in ExperimentConfig; a field of a new type
# makes the lookup below fail until a strategy is added here
BY_ANNOTATION = {
    "float": finite,
    "int": st.integers(),
    "str": st.text(),
    "dict": st.dictionaries(st.text(), json_scalar, max_size=3),
    "list[int]": st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    "Optional[float]": st.none() | finite,
    "Optional[int]": st.none() | st.integers(),
}

# mode, noise_sigma, solver_choice and scsg_b are checked on construction,
# so only their valid values build a config
experiment_configs = st.builds(
    ExperimentConfig,
    **{**{f.name: BY_ANNOTATION[f.type] for f in dataclasses.fields(ExperimentConfig)},
       "mode": st.sampled_from(MODES),
       "noise_sigma": st.none() | st.floats(min_value=0.0, allow_infinity=False),
       "solver_choice": st.sampled_from(sorted(SOLVERS)),
       "scsg_b": st.none() | st.integers(min_value=1)},
)


@deterministic
@given(experiment_configs)
def test_experiment_config_survives_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(cfg.dump())) == cfg


@deterministic
@given(mode=st.sampled_from(MODES) | st.text())
def test_experiment_config_rejects_exactly_unknown_mode(mode):
    try:
        ExperimentConfig(mode=mode)
    except ConfigError:
        assert mode not in MODES
    else:
        assert mode in MODES


@deterministic
@given(mode=st.sampled_from(MODES), choice=st.sampled_from(sorted(SOLVERS)) | st.text())
def test_experiment_config_rejects_exactly_unknown_solver(mode, choice):
    # every mode checks the solver name, though only one mode runs a solver
    try:
        ExperimentConfig(mode=mode, solver_choice=choice)
    except ConfigError as exc:
        assert choice not in SOLVERS and "unknown solver" in str(exc)
    else:
        assert choice in SOLVERS


def first_bad(checks):
    """Name of the first (name, ok) pair that fails, or None."""
    return next((name for name, ok in checks if not ok), None)


def in_range(val, lo, hi, closed_lo=False):
    """lo < val < hi, or lo <= val < hi; False for NaN, and None stays in range."""
    return val is None or (lo <= val < hi if closed_lo else lo < val < hi)


# all floats, NaN and the infinities included, mixed with ones in range so
# that valid configs come up too
any_float = st.floats() | st.floats(0.0, 2.0)
nan = math.nan


@deterministic
@given(eps=any_float, eps_h=any_float, delta=any_float,
       max_outer=st.integers(-2, 3), L=any_float, rho=any_float,
       h_star=st.none() | any_float, sigma=st.none() | any_float)
@example(eps=0.01, eps_h=0.5, delta=0.1, max_outer=0, L=1.0, rho=nan,
         h_star=None, sigma=None)
@example(eps=0.01, eps_h=0.5, delta=1.0, max_outer=1, L=math.inf, rho=nan,
         h_star=math.inf, sigma=nan)
@example(eps=nan, eps_h=0.5, delta=0.1, max_outer=1, L=nan, rho=math.inf,
         h_star=nan, sigma=math.inf)
def test_tolerance_and_smoothness_reject_exactly_out_of_range(
        eps, eps_h, delta, max_outer, L, rho, h_star, sigma):
    inf = math.inf
    tol_bad = first_bad([("eps", in_range(eps, 0.0, 1.0)), ("eps_h", in_range(eps_h, 0.0, 1.0)),
                         ("delta", in_range(delta, 0.0, 1.0)),
                         ("max_outer", max_outer >= 1)])
    smooth_bad = first_bad([("L", in_range(L, 0.0, inf)),
                            ("rho", in_range(rho, 0.0, inf, closed_lo=True)),
                            ("h_star", in_range(h_star, 0.0, inf, closed_lo=True)),
                            ("sigma", in_range(sigma, 0.0, inf, closed_lo=True))])
    for build, bad in ((lambda: ToleranceConfig(eps, eps_h, delta, max_outer), tol_bad),
                       (lambda: SmoothnessSpec(L, rho, h_star, sigma), smooth_bad)):
        try:
            build()
        except NonPositiveConstant as exc:
            assert bad is not None and str(exc).startswith(f"{bad} must")
        else:
            assert bad is None
