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

from dataclasses import dataclass
from enum import IntEnum, unique

import numpy as np

from .errors import Config, ConfigError, setting
from .graphs import StepGraph
from .stages import N_AGE_BANDS


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


IMMUNITY_MODE_BY_NAME = {
    "sterilizing": ImmunityMode.STERILIZING,
    "non-sterilizing": ImmunityMode.NON_STERILIZING,
}


@dataclass(frozen=True)
class QuarantinePolicy(Config):
    PATH = "interventions.quarantine"
    enabled: bool = setting(bool, False)
    duration: int = setting(int, 14, lo=1)
    dropout_prob: float = setting(float, 0.05, lo=0, hi=1)


@dataclass(frozen=True)
class DiagnosticPolicy(Config):
    PATH = "interventions.testing"
    enabled: bool = setting(bool, False)
    kind: TestKind = setting(TEST_KINDS, TEST_KINDS["rt-pcr"])
    false_positive_prob: float = setting(float, 0.0, lo=0, hi=1)


@dataclass(frozen=True)
class DenConfig(Config):
    PATH = "interventions.den"
    enabled: bool = setting(bool, False)
    app_adoption: float = setting(float, 0.3, lo=0, hi=1)
    compliance_prob: float = setting(float, 0.8, lo=0, hi=1)
    lookback: int = setting(int, 7, lo=1)


@dataclass(frozen=True)
class VaccinePolicy(Config):
    PATH = "interventions.vaccination"
    enabled: bool = setting(bool, False)
    strategy: Strategy = setting(STRATEGY_BY_NAME, Strategy.STANDARD_DOSING)
    dose1_efficacy: float = setting(float, 0.8, lo=0, hi=1)
    dose2_efficacy: float = setting(float, 0.95, lo=0, hi=1)
    dose1_latency: int = setting(int, 12, lo=0)   # days until dose-1 immunity resolves
    dose2_latency: int = setting(int, 0, lo=0)    # extra days after the second dose
    dose_gap: int = setting(int, 21, lo=1)        # days before second-dose eligibility
    daily_rate: float = setting(float, 0.003, lo=0, hi=1)  # population share dosed a day
    # currently-infected fraction that opens the campaign
    start_trigger: float = setting(float, 0.01, lo=0, hi=1)
    immunity_mode: ImmunityMode = setting(IMMUNITY_MODE_BY_NAME, ImmunityMode.STERILIZING)
    # age bands >= this stay on schedule under the delayed-except-elderly
    # strategy (61+, the closest band boundary to "above 65")
    elderly_band: int = setting(int, 6, lo=0, hi=N_AGE_BANDS - 1)

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
    """Ring buffer of the last ``lookback`` steps of interaction edge blocks.

    Only edges whose two ends hold the app (``has_app``, fixed for the run)
    are kept: no other edge can carry an exposure notification.  The kept
    household block is reused while the pushed household ``src`` is the same
    array object as last time; ``GraphRealizer`` shares one read-only
    household block across steps until someone dies, so the same object means
    the same edges.
    """

    def __init__(self, lookback: int, has_app: np.ndarray):
        self.lookback = lookback
        self.has_app = has_app
        self._steps: list[list[tuple[np.ndarray, np.ndarray]]] = []
        self._household = (None, None)   # (pushed src, its kept block)

    def _kept(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        app = self.has_app
        keep = np.flatnonzero(app.take(src) & app.take(dst))
        return src.take(keep), dst.take(keep)

    def push(self, graph: StepGraph) -> None:
        (hh_src, hh_dst), *others = graph.blocks   # NetworkKind order
        if hh_src is not self._household[0]:
            self._household = (hh_src, self._kept(hh_src, hh_dst))
        self._steps.append([self._household[1],
                            *(self._kept(src, dst) for src, dst in others)])
        if len(self._steps) > self.lookback:
            self._steps.pop(0)

    def __len__(self) -> int:
        return len(self._steps)

    def contacts_of(self, agents: np.ndarray) -> np.ndarray:
        """Unique app holders that interacted with any of ``agents`` in the
        window."""
        member = np.zeros(len(self.has_app), dtype=bool)
        member[agents] = True
        hits = [dst[member[src]] for blocks in self._steps for src, dst in blocks]
        if not hits:
            return np.empty(0, dtype=np.int32)
        return np.unique(np.concatenate(hits)).astype(np.int32)


@dataclass
class InterventionConfig(Config):
    """Intervention block of a scenario: one policy per JSON object, each
    with its own ``enabled``.  A new key is declared once, with ``setting``,
    in its policy class."""

    PATH = "interventions"

    quarantine: QuarantinePolicy = setting(QuarantinePolicy, QuarantinePolicy)
    testing: DiagnosticPolicy = setting(DiagnosticPolicy, DiagnosticPolicy)
    den: DenConfig = setting(DenConfig, DenConfig)
    vaccination: VaccinePolicy = setting(VaccinePolicy, VaccinePolicy)

    def __post_init__(self):
        super().__post_init__()
        if self.den.enabled and not self.testing.enabled:
            raise ConfigError("interventions.den.enabled: exposure notification "
                              "requires testing enabled")
