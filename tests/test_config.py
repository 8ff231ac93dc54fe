"""The config schema, walked from ``ScenarioConfig``: every declared setting
rejects a value of the wrong type and a number just outside a bound with an
error naming its path, and README's scenario example loads."""

import json
import math
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

from epivec.errors import Config, ConfigError
from epivec.interventions import (TEST_KINDS, DiagnosticPolicy, InterventionConfig,
                                  QuarantinePolicy, Strategy, VaccinePolicy)
from epivec.interventions import TestKind as DiagnosticKind
from epivec.scenario import (ScenarioConfig, default_disease_dict,
                             default_population_dict, default_progression_dict,
                             scenario_from_dict)

README = Path(__file__).resolve().parents[1] / "README.md"


def is_config(kind):
    return isinstance(kind, type) and issubclass(kind, Config)


def walk(cls, path=""):
    """``(path, field)`` of every setting under the config class ``cls``, the
    settings of nested config classes included; ``[i]`` in a path stands for
    any entry of a list of objects."""
    for f in fields(cls):
        setting = f.metadata.get("setting")
        if setting is None:
            continue
        key = f.name.removesuffix("_")
        where = f"{path}.{key}" if path else key
        yield where, f
        if is_config(setting.kind):
            where += "[i]" if setting.size else ""
            assert setting.kind.PATH == where
            yield from walk(setting.kind, where)


FIELDS = dict(walk(ScenarioConfig))
# the settings that are not themselves config objects
SETTINGS = {path: f.metadata["setting"] for path, f in FIELDS.items()
            if not is_config(f.metadata["setting"].kind)}
# the loader fills the top-level sections (and the name) itself
REQUIRED = [path for path, f in FIELDS.items() if "." in path
            and f.default is MISSING and f.default_factory is MISSING]


def first(path):
    """``path`` in the first entry of each list of objects."""
    return path.replace("[i]", "[0]")


def block_of(d, path):
    """The block of ``d`` that holds the last key of ``path``, and that key."""
    *parents, key = [int(k) if k.isdigit() else k
                     for k in re.findall(r"[^.\[\]]+", first(path))]
    for parent in parents:
        d = d[parent] if isinstance(d, list) else d.setdefault(parent, {})
    return d, key


def scenario_with(path, value):
    """A valid scenario dict with ``value`` at the dotted ``path``; a callable
    ``value`` maps the packaged value there to the new one."""
    d = {"population": default_population_dict(), "disease": default_disease_dict(),
         "progression": default_progression_dict(), "initial_infections": 0}
    block, key = block_of(d, path)
    block[key] = value(block.get(key)) if callable(value) else value
    return d


def test_walk_reaches_every_section():
    sections = {path.split(".")[0] for path in SETTINGS}
    assert sections >= {"population", "disease", "interventions", "horizon"}
    assert "interventions.vaccination.immunity_mode" in SETTINGS
    assert "population.household_size_distribution.sizes" in SETTINGS
    assert "progression.edges[i].from" in SETTINGS


@pytest.mark.parametrize("path", sorted(SETTINGS))
def test_wrong_type_names_its_path(path):
    setting = SETTINGS[path]
    wrong = 5 if setting.kind is str else "x"
    with pytest.raises(ConfigError, match=f"^{re.escape(first(path))}: expected"):
        scenario_from_dict(scenario_with(path, wrong))
    if setting.size is not None and not isinstance(setting.size, tuple):
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(first(path))}\\[0\\]: expected a"):
            scenario_from_dict(scenario_with(path, ["x"]))


def test_required_keys_reach_every_section():
    assert {path.split(".")[0] for path in REQUIRED} == {"population", "disease",
                                                         "progression"}
    assert "population.age_distribution" in REQUIRED
    assert "progression.edges[i].from" in REQUIRED


@pytest.mark.parametrize("path", REQUIRED)
def test_absent_required_key_says_it_is_missing(path):
    d = scenario_with(path, None)
    block, key = block_of(d, path)
    del block[key]
    with pytest.raises(ConfigError,
                       match=f"^{re.escape(first(path))}: required key missing$"):
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
                        f"{first(path)}.{setting.size[0]}")
    elif setting.size is not None:
        value, where = (lambda entries: [bad, *entries[1:]], f"{first(path)}[0]")
    else:
        value, where = bad, path
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected a value "):
        scenario_from_dict(scenario_with(path, value))
    if setting.size is None:   # the bound itself is inside
        scenario_from_dict(scenario_with(path, bound))


# every setting an attribute reaches: a class in a list knows no index of its own
TYPED = sorted(path for path in FIELDS if "[i]" not in path)


@pytest.mark.parametrize("path", TYPED)
def test_wrong_type_in_python_names_its_path(path):
    """A config class built in Python types its values as the JSON reader
    does, before any bound is compared: a wrong value raises naming its
    path, and a choice's name becomes its choice."""
    setting = FIELDS[path].metadata["setting"]
    wrong = 5 if setting.kind is str else "7"
    got = "str" if is_config(setting.kind) else re.escape(repr(wrong))
    value, where = wrong, path
    if isinstance(setting.size, tuple):
        value, where = [wrong], f"{path}.{setting.size[0]}"
    elif setting.size is not None:
        value, where = [wrong], f"{path}[0]"
    *parents, key = path.split(".")
    owner = scenario_from_dict(scenario_with("initial_infections", 0))
    for parent in parents:
        owner = getattr(owner, parent)
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected .*, got {got}$"):
        replace(owner, **{key: value})
    if isinstance(setting.kind, dict):
        for name, choice in setting.kind.items():
            assert getattr(replace(owner, **{key: name}), key) is choice


def test_python_names_and_objects_are_typed():
    """Set in Python, a choice's name and a nested object are read as from
    JSON, and a choice built in Python, such as a custom test kind, is kept."""
    assert VaccinePolicy(strategy="delayed").strategy is Strategy.DELAYED_SECOND_DOSE
    assert DiagnosticPolicy(kind="rt-pcr").kind is TEST_KINDS["rt-pcr"]
    assert (InterventionConfig(quarantine={"enabled": True}).quarantine
            == QuarantinePolicy(enabled=True))
    sure = DiagnosticKind("sure", 1.0, 1, 1)
    assert DiagnosticPolicy(kind=sure).kind is sure


@pytest.mark.parametrize("path, value, where", [
    ("disease.rate_scale", math.inf, "disease.rate_scale"),
    ("population.random_degree_by_age", [2.0] * 8 + [math.inf],
     "population.random_degree_by_age[8]")], ids=["number", "list entry"])
def test_infinity_set_in_python_is_refused(path, value, where):
    """A float set in Python is checked to be finite, as a JSON one is, even
    where no upper bound would catch it."""
    section, key = path.split(".")
    owner = getattr(scenario_from_dict(scenario_with("initial_infections", 0)), section)
    with pytest.raises(ConfigError, match=f"^{re.escape(where)}: expected a number, got inf$"):
        replace(owner, **{key: value})


# a duration with the parameter of its name at 0
ZERO_DURATIONS = {"mean": {"family": "gamma", "mean": 0, "sd": 2.0},
                  "sd": {"family": "gamma", "mean": 5.0, "sd": 0},
                  "sigma": {"family": "lognormal", "mu": 1.5, "sigma": 0},
                  "days": {"family": "constant", "days": 0}}


@pytest.mark.parametrize("path", [
    "disease.mean_daily_interactions", "disease.infectiousness_mean_days",
    "disease.infectiousness_sd_days",
    *(f"progression.edges[3].duration.{name}" for name in ZERO_DURATIONS)])
def test_zero_is_refused_where_a_value_must_be_positive(path):
    """The bounds that are strict (``> 0``), which ``lo`` cannot declare."""
    parent, key = path.rsplit(".", 1)
    d = (scenario_with(parent, ZERO_DURATIONS[key]) if key in ZERO_DURATIONS
         else scenario_with(path, 0))
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected a value > 0, "):
        scenario_from_dict(d)


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
