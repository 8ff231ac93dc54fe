"""Scenario loading: population spec, disease parameters, progression table,
intervention block, horizon, replications, seeds.

Sub-configs may be inlined as JSON objects or referenced as file paths
(resolved relative to the scenario file).  Missing sub-configs fall back to
the packaged defaults, which are synthetic placeholders — illustrative, not
clinically calibrated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import Config, ConfigError, in_range, setting
from .interventions import InterventionConfig
from .population import PopulationSpec
from .progression import ProgressionTable
from .transmission import DiseaseParams

# Sections that may be referenced by file path, with their packaged defaults.
_PACKAGED = {"population": "population_spec.json", "disease": "disease_params.json",
             "progression": "progression_table.json"}


def _load_default(name: str) -> dict:
    with resources.files("epivec.data").joinpath(name).open() as f:
        return json.load(f)


def default_population_dict() -> dict:
    return _load_default(_PACKAGED["population"])


def default_disease_dict() -> dict:
    return _load_default(_PACKAGED["disease"])


def default_progression_dict() -> dict:
    return _load_default(_PACKAGED["progression"])


@dataclass
class ScenarioConfig(Config):
    """A scenario: what to simulate, for how many steps, how many times.  A
    new key is declared once, with ``setting``, here or in its section.

    ``horizon`` has no upper bound beyond the int32 step columns: a run's
    time and its output (one 152-byte row per step, allocated before step 0)
    grow linearly with it, so a long horizon costs in proportion and never
    blows up the way a large household does.
    """

    name: str = setting(str)
    population: PopulationSpec = setting(PopulationSpec)
    disease: DiseaseParams = setting(DiseaseParams)
    progression: ProgressionTable = setting(ProgressionTable)
    interventions: InterventionConfig = setting(InterventionConfig, InterventionConfig)
    horizon: int = setting(int, 180, lo=1)
    replications: int = setting(int, 15, lo=1)
    base_seed: int = setting(int, 0)
    initial_infections: int = setting(int, 10, lo=0)

    def __post_init__(self):
        super().__post_init__()
        in_range("initial_infections", self.initial_infections, 0,
                 self.population.n_agents)


def _resolve_section(key: str, value, base_dir: Path):
    """The JSON of section ``key``: ``value`` itself, the file it names, or
    the packaged default when it is absent."""
    if value is None:
        return _load_default(_PACKAGED[key])
    if isinstance(value, dict):
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected an object or a file path, "
                          f"got {type(value).__name__}")
    # ``base_dir / value`` is ``value`` itself when ``value`` is absolute
    return _read_json(base_dir / value, f"{key}: referenced file")


def _read_json(path: Path, what: str):
    """The JSON in ``path``; a ConfigError starting with ``what`` when the
    file is missing or cannot be read as JSON."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, ValueError) as e:   # a directory, not UTF-8, not JSON
        raise ConfigError(f"{what} {path} is not readable JSON: {e}") from e


def scenario_from_dict(d: dict, base_dir: Path | str = ".",
                       name: str = "scenario") -> ScenarioConfig:
    if isinstance(d, dict):
        d = {"name": name, **d, **{key: _resolve_section(key, d.get(key), Path(base_dir))
                                   for key in _PACKAGED}}
    return ScenarioConfig.from_dict(d)


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    return scenario_from_dict(_read_json(path, "scenario file"), base_dir=path.parent,
                              name=path.stem)


def default_scenario(n_agents: int = 10_000, **overrides) -> ScenarioConfig:
    """In-memory scenario over the packaged defaults (used by tests/demos)."""
    pop = default_population_dict()
    pop["n_agents"] = n_agents
    cfg = scenario_from_dict({"population": pop}, name="default")
    return replace(cfg, **overrides) if overrides else cfg
