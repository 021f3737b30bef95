"""The number of values a caller can set is a budget: adding a knob raises it here."""

import dataclasses
import inspect

import gose
import gose.harness
from gose import ScsgConfig, SmoothnessSpec, ToleranceConfig
from gose.harness import ExperimentConfig

CONFIGS = [ToleranceConfig, SmoothnessSpec, ScsgConfig, ExperimentConfig]

# config fields plus defaulted parameters of the public and harness functions
MAX_SETTABLE_VALUES = 61


def settable_values() -> int:
    fields = sum(len(dataclasses.fields(config)) for config in CONFIGS)
    public = (getattr(gose, name) for name in gose.__all__)
    functions = {f for f in public if inspect.isfunction(f)}
    functions |= {f for f in vars(gose.harness).values()
                  if inspect.isfunction(f) and f.__module__ == gose.harness.__name__}
    defaults = sum(param.default is not param.empty
                   for f in functions for param in inspect.signature(f).parameters.values())
    return fields + defaults


def test_settable_values_stay_within_budget():
    assert settable_values() <= MAX_SETTABLE_VALUES
