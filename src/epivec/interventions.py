"""Intervention configuration: quarantine, testing, exposure notification,
and two-dose vaccination with three prioritization strategies.

The vaccination priority is a deterministic total order encoded as a sort
key; ties inside an age band break by agent id.  ``detection_prob`` is the
probability that a sample from an actively infected agent returns positive
(the turnaround/detection profiles of the three built-in test kinds model
real-world sample collection and analysis constraints); uninfected samples
return positive with ``false_positive_prob`` (0 by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum, unique

import numpy as np

from .errors import ConfigError
from .graphs import StepGraph


@dataclass(frozen=True)
class TestKind:
    name: str
    detection_prob: float
    turnaround_min: int   # steps, inclusive
    turnaround_max: int   # steps, inclusive; sampled uniformly

    def __post_init__(self):
        if not 0.0 <= self.detection_prob <= 1.0:
            raise ConfigError(f"test {self.name!r}: detection_prob outside [0, 1]")
        if self.turnaround_min < 1 or self.turnaround_max < self.turnaround_min:
            raise ConfigError(f"test {self.name!r}: turnaround must be >= 1 step")

    def turnaround(self, u):
        """Uniform integer turnaround from keyed draws, scalar or array."""
        span = self.turnaround_max - self.turnaround_min + 1
        t = self.turnaround_min + (np.asarray(u) * span).astype(np.int64)
        return int(t) if t.ndim == 0 else t


TEST_KINDS = {
    "rapid-antigen": TestKind("rapid-antigen", 0.65, 2, 2),
    "rt-pcr": TestKind("rt-pcr", 0.95, 3, 5),
    "rapid-poc": TestKind("rapid-poc", 0.85, 1, 1),
}


@dataclass(frozen=True)
class DenConfig:
    app_adoption: float = 0.3
    compliance_prob: float = 0.8
    lookback: int = 7

    def __post_init__(self):
        for name in ("app_adoption", "compliance_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"den.{name} outside [0, 1]")
        if self.lookback < 1:
            raise ConfigError("den.lookback must be >= 1")


@unique
class Strategy(IntEnum):
    STANDARD_DOSING = 0
    DELAYED_SECOND_DOSE = 1
    DELAYED_EXCEPT_ELDERLY = 2


STRATEGY_BY_NAME = {
    "standard": Strategy.STANDARD_DOSING,
    "delayed": Strategy.DELAYED_SECOND_DOSE,
    "delayed-except-elderly": Strategy.DELAYED_EXCEPT_ELDERLY,
}


@unique
class ImmunityMode(IntEnum):
    STERILIZING = 0
    NON_STERILIZING = 1


@dataclass(frozen=True)
class VaccinePolicy:
    strategy: Strategy = Strategy.STANDARD_DOSING
    dose1_efficacy: float = 0.8
    dose2_efficacy: float = 0.95
    dose1_latency: int = 12       # days until first-dose immunity resolves
    dose2_latency: int = 0        # extra days after the second dose
    dose_gap: int = 21            # days before second-dose eligibility
    daily_rate: float = 0.003     # fraction of the population dosed per day
    start_trigger: float = 0.01   # currently-infected fraction that opens the campaign
    immunity_mode: ImmunityMode = ImmunityMode.STERILIZING
    elderly_band: int = 6         # age bands >= this stay on schedule under
                                  # the delayed-except-elderly strategy (61+,
                                  # the closest band boundary to "above 65")

    def __post_init__(self):
        for name in ("dose1_efficacy", "dose2_efficacy", "daily_rate", "start_trigger"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"vaccination.{name} outside [0, 1]")
        if self.dose1_latency < 0 or self.dose2_latency < 0 or self.dose_gap < 1:
            raise ConfigError("vaccination latencies must be >= 0 and dose_gap >= 1")

    def doses_per_day(self, n_agents: int) -> int:
        return int(np.rint(self.daily_rate * n_agents))

    def dose2_topup_prob(self) -> float:
        """P(immune | second dose, first-dose draw failed); lifts the
        marginal immunity probability to dose2_efficacy."""
        e1, e2 = self.dose1_efficacy, self.dose2_efficacy
        if e1 >= 1.0:
            return 0.0
        return max(0.0, (e2 - e1) / (1.0 - e1))


def priority_sort_key(strategy: Strategy, elderly_band: int,
                      age_band: np.ndarray, dose2_eligible: np.ndarray,
                      agent_id: np.ndarray) -> np.ndarray:
    """Return the permutation ordering eligible agents by vaccination priority.

    Key layout (primary first): group, age band descending, first-dose before
    second within a group where both appear, agent id.

    * standard dosing: second-dose-eligible agents first, each cohort by age;
    * delayed second dose: first-dose-eligible agents first, each by age;
    * delayed except elderly: bands >= elderly_band mix both dose types in
      one age-descending sweep; younger agents follow, first doses first.
    """
    dose_rank = dose2_eligible.astype(np.int8)
    if strategy == Strategy.STANDARD_DOSING:
        group = np.where(dose2_eligible, 0, 1).astype(np.int8)
    elif strategy == Strategy.DELAYED_SECOND_DOSE:
        group = np.where(dose2_eligible, 1, 0).astype(np.int8)
    elif strategy == Strategy.DELAYED_EXCEPT_ELDERLY:
        elderly = age_band >= elderly_band
        group = np.where(elderly, 0, np.where(dose2_eligible, 2, 1)).astype(np.int8)
    else:
        raise ConfigError(f"unknown vaccination strategy {strategy!r}")
    return np.lexsort((agent_id, dose_rank, -age_band.astype(np.int64), group))


class ContactLog:
    """Ring buffer of the last ``lookback`` steps of interaction edges."""

    def __init__(self, lookback: int):
        self.lookback = lookback
        self._steps: list[tuple[np.ndarray, np.ndarray]] = []

    def push(self, graph: StepGraph) -> None:
        self._steps.append((graph.src, graph.dst))
        if len(self._steps) > self.lookback:
            self._steps.pop(0)

    def __len__(self) -> int:
        return len(self._steps)

    def contacts_of(self, agents: np.ndarray) -> np.ndarray:
        """Unique ids that interacted with any of ``agents`` in the window."""
        if not len(self._steps) or not len(agents):
            return np.empty(0, dtype=np.int32)
        hits = []
        max_id = int(agents.max()) + 1
        member = np.zeros(max_id, dtype=bool)
        member[agents] = True
        for src, dst in self._steps:
            if not len(src):
                continue
            sel = src < max_id
            mask = np.zeros(len(src), dtype=bool)
            mask[sel] = member[src[sel]]
            if mask.any():
                hits.append(dst[mask])
        if not hits:
            return np.empty(0, dtype=np.int32)
        return np.unique(np.concatenate(hits)).astype(np.int32)


@dataclass
class InterventionConfig:
    """Intervention block of a scenario."""

    quarantine_enabled: bool = False
    quarantine_duration: int = 14
    quarantine_dropout: float = 0.05
    testing_enabled: bool = False
    test_kind: TestKind = field(default_factory=lambda: TEST_KINDS["rt-pcr"])
    false_positive_prob: float = 0.0
    den_enabled: bool = False
    den: DenConfig = field(default_factory=DenConfig)
    vaccination_enabled: bool = False
    vaccine: VaccinePolicy = field(default_factory=VaccinePolicy)

    def __post_init__(self):
        if self.quarantine_duration < 1:
            raise ConfigError("quarantine duration must be >= 1 step")
        if not 0.0 <= self.quarantine_dropout <= 1.0:
            raise ConfigError("quarantine dropout outside [0, 1]")
        if not 0.0 <= self.false_positive_prob <= 1.0:
            raise ConfigError("false_positive_prob outside [0, 1]")
        if self.den_enabled and not self.testing_enabled:
            raise ConfigError("exposure notification requires testing enabled")
