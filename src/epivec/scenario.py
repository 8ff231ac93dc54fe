"""Scenario loading: population spec, disease parameters, progression table,
intervention block, horizon, replications, seeds.

Sub-configs may be inlined as JSON objects or referenced as file paths
(resolved relative to the scenario file).  Missing sub-configs fall back to
the packaged defaults, which are synthetic placeholders — illustrative, not
clinically calibrated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .interventions import (TEST_KINDS, DenConfig, ImmunityMode,
                            InterventionConfig, Strategy, STRATEGY_BY_NAME,
                            VaccinePolicy)
from .population import PopulationSpec
from .progression import ProgressionTable
from .transmission import DiseaseParams


def _load_default(name: str) -> dict:
    with resources.files("epivec.data").joinpath(name).open() as f:
        return json.load(f)


def default_population_dict() -> dict:
    return _load_default("population_spec.json")


def default_disease_dict() -> dict:
    return _load_default("disease_params.json")


def default_progression_dict() -> dict:
    return _load_default("progression_table.json")


@dataclass
class ScenarioConfig:
    name: str
    population: PopulationSpec
    disease: DiseaseParams
    progression: ProgressionTable
    interventions: InterventionConfig
    horizon: int = 180
    replications: int = 15
    base_seed: int = 0
    initial_infections: int = 10

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError(f"horizon must be >= 1, got {self.horizon}")
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        if self.initial_infections < 0:
            raise ConfigError("initial_infections must be >= 0")
        if self.initial_infections > self.population.n_agents:
            raise ConfigError("initial_infections exceeds population size")


def _resolve_section(value, base_dir: Path, loader, default_dict):
    if value is None:
        return loader(default_dict())
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            raise ConfigError(f"referenced file not found: {path}")
        with open(path) as f:
            return loader(json.load(f))
    if isinstance(value, dict):
        return loader(value)
    raise ConfigError(f"expected object or file path, got {type(value).__name__}")


_SCENARIO_KEYS = ("name", "population", "disease", "progression", "interventions",
                  "horizon", "replications", "base_seed", "initial_infections")
_INTERVENTION_KEYS = {
    "quarantine": ("enabled", "duration", "dropout_prob"),
    "testing": ("enabled", "kind", "false_positive_prob"),
    "den": ("enabled", "app_adoption", "compliance_prob", "lookback"),
    "vaccination": ("enabled", "strategy", "dose1_efficacy", "dose2_efficacy",
                    "dose1_latency", "dose2_latency", "dose_gap", "daily_rate",
                    "start_trigger", "immunity_mode", "elderly_band"),
}


def _checked(d, known, path: str) -> dict:
    """``d`` itself, once it is an object holding only ``known`` keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'scenario'}: expected an object, "
                          f"got {type(d).__name__}")
    for key in d:
        if key not in known:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key; "
                              f"expected one of {sorted(known)}")
    return d


def _enabled(block: dict, path: str) -> bool:
    value = block.get("enabled", False)
    if not isinstance(value, bool):
        raise ConfigError(f"{path}.enabled: expected true or false, got {value!r}")
    return value


def _interventions_from_dict(d: dict) -> InterventionConfig:
    _checked(d, _INTERVENTION_KEYS, "interventions")
    q, t, den, vax = (_checked(d.get(name, {}), keys, f"interventions.{name}")
                      for name, keys in _INTERVENTION_KEYS.items())

    kind_name = t.get("kind", "rt-pcr")
    if kind_name not in TEST_KINDS:
        raise ConfigError(f"interventions.testing.kind: unknown test {kind_name!r}; "
                          f"choose from {sorted(TEST_KINDS)}")

    strategy_name = vax.get("strategy", "standard")
    if strategy_name not in STRATEGY_BY_NAME:
        raise ConfigError(f"interventions.vaccination.strategy: unknown strategy "
                          f"{strategy_name!r}; choose from {sorted(STRATEGY_BY_NAME)}")
    mode_name = vax.get("immunity_mode", "sterilizing")
    modes = {"sterilizing": ImmunityMode.STERILIZING,
             "non-sterilizing": ImmunityMode.NON_STERILIZING}
    if mode_name not in modes:
        raise ConfigError(f"interventions.vaccination.immunity_mode: unknown mode "
                          f"{mode_name!r}")

    return InterventionConfig(
        quarantine_enabled=_enabled(q, "interventions.quarantine"),
        quarantine_duration=int(q.get("duration", 14)),
        quarantine_dropout=float(q.get("dropout_prob", 0.05)),
        testing_enabled=_enabled(t, "interventions.testing"),
        test_kind=TEST_KINDS[kind_name],
        false_positive_prob=float(t.get("false_positive_prob", 0.0)),
        den_enabled=_enabled(den, "interventions.den"),
        den=DenConfig(
            app_adoption=float(den.get("app_adoption", 0.3)),
            compliance_prob=float(den.get("compliance_prob", 0.8)),
            lookback=int(den.get("lookback", 7)),
        ),
        vaccination_enabled=_enabled(vax, "interventions.vaccination"),
        vaccine=VaccinePolicy(
            strategy=STRATEGY_BY_NAME[strategy_name],
            dose1_efficacy=float(vax.get("dose1_efficacy", 0.8)),
            dose2_efficacy=float(vax.get("dose2_efficacy", 0.95)),
            dose1_latency=int(vax.get("dose1_latency", 12)),
            dose2_latency=int(vax.get("dose2_latency", 0)),
            dose_gap=int(vax.get("dose_gap", 21)),
            daily_rate=float(vax.get("daily_rate", 0.003)),
            start_trigger=float(vax.get("start_trigger", 0.01)),
            immunity_mode=modes[mode_name],
            elderly_band=int(vax.get("elderly_band", 6)),
        ),
    )


def scenario_from_dict(d: dict, base_dir: Path | str = ".",
                       name: str = "scenario") -> ScenarioConfig:
    base_dir = Path(base_dir)
    _checked(d, _SCENARIO_KEYS, "")
    try:
        population = _resolve_section(d.get("population"), base_dir,
                                      PopulationSpec.from_dict, default_population_dict)
        disease = _resolve_section(d.get("disease"), base_dir,
                                   DiseaseParams.from_dict, default_disease_dict)
        progression = _resolve_section(d.get("progression"), base_dir,
                                       ProgressionTable.from_dict,
                                       default_progression_dict)
    except ConfigError:
        raise
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"failed to load scenario section: {e}") from e
    interventions = _interventions_from_dict(d.get("interventions", {}))
    return ScenarioConfig(
        name=d.get("name", name),
        population=population,
        disease=disease,
        progression=progression,
        interventions=interventions,
        horizon=int(d.get("horizon", 180)),
        replications=int(d.get("replications", 15)),
        base_seed=int(d.get("base_seed", 0)),
        initial_infections=int(d.get("initial_infections", 10)),
    )


def load_scenario(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        with open(path) as f:
            d = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON: {e}") from e
    return scenario_from_dict(d, base_dir=path.parent, name=path.stem)


def default_scenario(n_agents: int = 10_000, **overrides) -> ScenarioConfig:
    """In-memory scenario over the packaged defaults (used by tests/demos)."""
    pop = default_population_dict()
    pop["n_agents"] = n_agents
    cfg = scenario_from_dict({"population": pop}, name="default")
    return replace(cfg, **overrides) if overrides else cfg
