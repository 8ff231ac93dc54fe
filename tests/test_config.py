"""The config schema, walked from ``ScenarioConfig``: every declared setting
rejects a value of the wrong type and a number just outside a bound with an
error naming its path, and README's scenario example loads."""

import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from epivec.errors import ConfigError
from epivec.interventions import Strategy
from epivec.scenario import (ScenarioConfig, default_disease_dict,
                             default_population_dict, scenario_from_dict)

README = Path(__file__).resolve().parents[1] / "README.md"


def walk(cls, path=""):
    """``(path, setting)`` of every setting under the config class ``cls``,
    the settings of nested config classes included."""
    for f in fields(cls):
        setting = f.metadata.get("setting")
        if setting is None:
            continue
        where = f"{path}.{f.name}" if path else f.name
        if is_dataclass(setting.kind):
            assert setting.kind.PATH == where
            yield from walk(setting.kind, where)
        elif not hasattr(setting.kind, "from_dict"):   # progression has its own loader
            yield where, setting


SETTINGS = dict(walk(ScenarioConfig))


def required(cls, path=""):
    """Paths of the keys without a default under the config class ``cls``."""
    for f in fields(cls):
        setting = f.metadata.get("setting")
        if setting is None:
            continue
        where = f"{path}.{f.name}" if path else f.name
        if f.default is MISSING and f.default_factory is MISSING:
            yield where
        if is_dataclass(setting.kind):
            yield from required(setting.kind, where)


# the loader fills the top-level sections (and the name) itself
REQUIRED = [path for path in required(ScenarioConfig) if "." in path]


def scenario_with(path, value):
    """A valid scenario dict with ``value`` at the dotted ``path``; a callable
    ``value`` maps the packaged value there to the new one."""
    d = {"population": default_population_dict(), "disease": default_disease_dict(),
         "initial_infections": 0}
    *parents, key = path.split(".")
    block = d
    for parent in parents:
        block = block.setdefault(parent, {})
    block[key] = value(block.get(key)) if callable(value) else value
    return d


def test_walk_reaches_every_section():
    sections = {path.split(".")[0] for path in SETTINGS}
    assert sections >= {"population", "disease", "interventions", "horizon"}
    assert "interventions.vaccination.immunity_mode" in SETTINGS
    assert "population.household_size_distribution.sizes" in SETTINGS


@pytest.mark.parametrize("path", sorted(SETTINGS))
def test_wrong_type_names_its_path(path):
    setting = SETTINGS[path]
    wrong = 5 if setting.kind is str else "x"
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected"):
        scenario_from_dict(scenario_with(path, wrong))
    if setting.size is not None and not isinstance(setting.size, tuple):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}\\[0\\]: expected a"):
            scenario_from_dict(scenario_with(path, ["x"]))


def test_required_keys_reach_every_section():
    assert {path.split(".")[0] for path in REQUIRED} == {"population", "disease"}
    assert "population.age_distribution" in REQUIRED


@pytest.mark.parametrize("path", REQUIRED)
def test_absent_required_key_says_it_is_missing(path):
    d = scenario_with(path, None)
    *parents, key = path.split(".")
    block = d
    for parent in parents:
        block = block[parent]
    del block[key]
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: required key missing$"):
        scenario_from_dict(d)


def outside(setting, bound, direction):
    if setting.kind is int:
        return bound + direction
    return float(np.nextafter(bound, direction * math.inf))


BOUNDS = [(path, bound, direction)
          for path, setting in sorted(SETTINGS.items())
          for bound, direction in ((setting.lo, -1), (setting.hi, 1))
          if math.isfinite(bound)]


@pytest.mark.parametrize("path, bound, direction", BOUNDS)
def test_number_outside_a_bound_names_its_path(path, bound, direction):
    setting = SETTINGS[path]
    bad = outside(setting, bound, direction)
    if isinstance(setting.size, tuple):   # an object with one number per name
        value, where = (lambda entries: {**entries, setting.size[0]: bad},
                        f"{path}.{setting.size[0]}")
    elif setting.size is not None:
        value, where = (lambda entries: [bad, *entries[1:]], f"{path}[0]")
    else:
        value, where = bad, path
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected a value "):
        scenario_from_dict(scenario_with(path, value))
    if setting.size is None:   # the bound itself is inside
        scenario_from_dict(scenario_with(path, bound))


TYPED = sorted(path for path, setting in SETTINGS.items()
               if setting.kind in (int, float, bool, str))


@pytest.mark.parametrize("path", TYPED)
def test_wrong_type_in_python_names_its_path(path):
    """A config class built in Python types its values as the JSON reader
    does, before any bound is compared."""
    setting = SETTINGS[path]
    wrong = 5 if setting.kind is str else "7"
    value, where = wrong, path
    if isinstance(setting.size, tuple):
        value, where = [wrong], f"{path}.{setting.size[0]}"
    elif setting.size is not None:
        value, where = [wrong], f"{path}[0]"
    *parents, key = path.split(".")
    owner = scenario_from_dict(scenario_with("initial_infections", 0))
    for parent in parents:
        owner = getattr(owner, parent)
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(where)}: expected .*, got {re.escape(repr(wrong))}$"):
        replace(owner, **{key: value})


def test_readme_scenario_example_loads(tmp_path):
    example = re.search(r"A scenario file inlines.*?```json\n(.*?)```",
                        README.read_text(), re.S).group(1)
    population = default_population_dict()
    population["n_agents"] = 500
    (tmp_path / "pop.json").write_text(json.dumps(population))
    config = scenario_from_dict(json.loads(example), base_dir=tmp_path)
    assert config.population.n_agents == 500
    assert config.interventions.vaccination.strategy == Strategy.DELAYED_SECOND_DOSE
    assert config.interventions.den.enabled and config.interventions.testing.enabled


def test_readme_lists_every_key():
    text = README.read_text()
    assert [path for path in SETTINGS if f"| `{path}` |" not in text] == []
