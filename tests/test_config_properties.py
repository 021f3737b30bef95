"""Property tests for the configuration objects.

Examples are derived from the test names (derandomize=True) and no example
database is kept, so every run checks the same inputs.
"""

import dataclasses
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gose import EscapeConfig, NcConfig, SmoothnessSpec, ToleranceConfig
from gose.core import MODES, ConfigError, NonPositiveConstant
from gose.harness import ExperimentConfig

deterministic = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
json_scalar = st.none() | st.booleans() | st.integers() | finite | st.text()

# one strategy per annotation used in ExperimentConfig; a field of a new type
# makes the lookup below fail until a strategy is added here
BY_ANNOTATION = {
    "float": finite,
    "int": st.integers(),
    "str": st.text(),
    "bool": st.booleans(),
    "dict": st.dictionaries(st.text(), json_scalar, max_size=3),
    "list[int]": st.lists(st.integers(min_value=0), min_size=1, max_size=4),
    "Optional[float]": st.none() | finite,
    "Optional[int]": st.none() | st.integers(),
    "Optional[str]": st.none() | st.text(),
}

# mode is checked on construction, so only the valid modes build a config
experiment_configs = st.builds(
    ExperimentConfig,
    **{**{f.name: BY_ANNOTATION[f.type] for f in dataclasses.fields(ExperimentConfig)},
       "mode": st.sampled_from(MODES)},
)


@deterministic
@given(experiment_configs)
def test_experiment_config_survives_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(cfg.dump())) == cfg


def in_open_range(val, lo, hi):
    return lo < val < hi  # False for NaN


@deterministic
@given(budget_mult=st.floats(),
       engine=st.sampled_from(["minibatch_lanczos", "oja"]) | st.text())
def test_nc_config_rejects_exactly_bad_budget_or_engine(budget_mult, engine):
    if not in_open_range(budget_mult, 0.0, math.inf):
        expected = NonPositiveConstant
    elif engine not in ("minibatch_lanczos", "oja"):
        expected = ConfigError
    else:
        expected = None
    try:
        NcConfig(budget_mult=budget_mult, engine=engine)
    except ConfigError as exc:
        assert expected is not None and isinstance(exc, expected)
        if expected is NonPositiveConstant:
            assert "budget_mult" in str(exc)
    else:
        assert expected is None


@deterministic
@given(c_h=st.floats() | st.floats(0.0, 1.5), s_mult=st.floats(), c_conc=st.floats())
def test_escape_config_rejects_exactly_out_of_range(c_h, s_mult, c_conc):
    bad_c_h = not in_open_range(c_h, 0.0, 1.5)
    bad_positive = not (in_open_range(s_mult, 0.0, math.inf)
                        and in_open_range(c_conc, 0.0, math.inf))
    try:
        EscapeConfig(c_h=c_h, s_mult=s_mult, c_conc=c_conc)
    except NonPositiveConstant:
        assert bad_positive and not bad_c_h
    except ConfigError as exc:
        assert bad_c_h and "c_h must lie in (0, 3/2)" in str(exc)
    else:
        assert not (bad_c_h or bad_positive)


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
@given(eps=finite, eps_h=finite, delta=finite, c1=finite, max_outer=st.integers(-2, 3),
       L=finite, rho=finite, rho_min=finite, h_star=st.none() | finite)
def test_tolerance_and_smoothness_reject_exactly_out_of_range(
        eps, eps_h, delta, c1, max_outer, L, rho, rho_min, h_star):
    tol_bad = (not all(0.0 < v < 1.0 for v in (eps, eps_h, delta))
               or c1 < 1.0 or max_outer < 1)
    smooth_bad = L <= 0.0 or rho < 0.0 or rho_min <= 0.0 or (h_star is not None and h_star < 0.0)
    for build, bad in ((lambda: ToleranceConfig(eps, eps_h, delta, c1, max_outer), tol_bad),
                       (lambda: SmoothnessSpec(L, rho, rho_min, h_star), smooth_bad)):
        try:
            build()
        except NonPositiveConstant:
            assert bad
        else:
            assert not bad
