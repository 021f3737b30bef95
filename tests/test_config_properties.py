"""Property tests for the configuration objects.

Examples are derived from the test names (derandomize=True) and no example
database is kept, so every run checks the same inputs.
"""

import dataclasses
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gose import EscapeConfig, NcConfig
from gose.core import BudgetZero, ConfigError
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
    "list": st.lists(st.integers(min_value=0), max_size=4),
    "Optional[float]": st.none() | finite,
    "Optional[int]": st.none() | st.integers(),
    "Optional[str]": st.none() | st.text(),
}

experiment_configs = st.builds(
    ExperimentConfig,
    **{f.name: BY_ANNOTATION[f.type] for f in dataclasses.fields(ExperimentConfig)},
)


@deterministic
@given(experiment_configs)
def test_experiment_config_survives_json_round_trip(cfg):
    assert ExperimentConfig.from_dict(json.loads(cfg.dump())) == cfg


@deterministic
@given(budget_mult=finite, restarts=st.integers(-3, 5),
       engine=st.sampled_from(["minibatch_lanczos", "oja"]) | st.text())
def test_nc_config_rejects_exactly_bad_restarts_or_engine(budget_mult, restarts, engine):
    if restarts < 1:
        expected = BudgetZero
    elif engine not in ("minibatch_lanczos", "oja"):
        expected = ConfigError
    else:
        expected = None
    try:
        NcConfig(budget_mult=budget_mult, restarts=restarts, engine=engine)
    except ConfigError as exc:
        assert expected is not None and isinstance(exc, expected)
    else:
        assert expected is None


@deterministic
@given(c_h=finite, s_mult=finite, c_conc=finite,
       s_rule=st.sampled_from(["auto", "eps_h", "eps"]) | st.text())
def test_escape_config_rejects_exactly_unknown_s_rule(c_h, s_mult, c_conc, s_rule):
    bad = s_rule not in ("auto", "eps_h", "eps")
    try:
        EscapeConfig(c_h=c_h, s_mult=s_mult, c_conc=c_conc, s_rule=s_rule)
    except ConfigError:
        assert bad
    else:
        assert not bad
