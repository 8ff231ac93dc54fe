"""Within-agent disease progression.

A progression table lists the legal stage transitions, an age-stratified
branch probability for each, and a duration distribution per edge.  Branches
out of a stage sum to one per age band.  Durations are continuous days,
rounded to whole steps with a floor of one step.

Branch and duration draws are quantile transforms of keyed uniforms, so the
engine (array ``ppf`` calls) and the oracle (scalar ``ppf`` calls) sample
identical values from identical keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import ConfigError, Setting, checked, positive
from .stages import NEVER, N_AGE_BANDS, Stage, STAGE_BY_NAME

# Transitions the model allows.  SUSCEPTIBLE edges are entry branches taken at
# the moment of infection (no duration); everything else is scheduled.
LEGAL_EDGES = {
    Stage.SUSCEPTIBLE: (Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD,
                        Stage.PRESYMPTOMATIC_SEVERE),
    Stage.ASYMPTOMATIC: (Stage.RECOVERED,),
    Stage.PRESYMPTOMATIC_MILD: (Stage.MILD_SYMPTOMATIC,),
    Stage.PRESYMPTOMATIC_SEVERE: (Stage.SEVERE_SYMPTOMATIC,),
    Stage.MILD_SYMPTOMATIC: (Stage.RECOVERED,),
    Stage.SEVERE_SYMPTOMATIC: (Stage.HOSPITALIZED, Stage.RECOVERED),
    Stage.HOSPITALIZED: (Stage.CRITICAL_ICU, Stage.RECOVERED),
    Stage.CRITICAL_ICU: (Stage.DEAD, Stage.RECOVERED),
}
# Each duration family's parameters; all but a lognormal's mu must be positive.
_DURATION_PARAMS = {"gamma": ("mean", "sd"), "lognormal": ("mu", "sigma"),
                   "constant": ("days",)}
_PROBABILITY = Setting(float, lo=0, hi=1, size=N_AGE_BANDS)   # one per age band


@dataclass(frozen=True)
class DurationSpec:
    """Family + parameters of one edge's stage-duration distribution (days)."""

    family: str           # "gamma", "lognormal", or "constant"
    params: tuple

    def quantile(self, u):
        """Inverse CDF; u may be a scalar or an array."""
        if self.family == "gamma":
            mean, sd = self.params
            shape = (mean / sd) ** 2
            scale = sd * sd / mean
            return stats.gamma.ppf(u, shape, scale=scale)
        if self.family == "lognormal":
            mu, sigma = self.params
            return stats.lognorm.ppf(u, sigma, scale=math.exp(mu))
        if self.family == "constant":
            days = self.params[0]
            return np.full_like(np.asarray(u, dtype=np.float64), days) \
                if np.ndim(u) else float(days)
        raise ConfigError(f"unknown duration family {self.family!r}")

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "DurationSpec":
        family = d.get("family") if isinstance(d, dict) else None
        names = Setting(_DURATION_PARAMS).parse(family, f"{where}.family")
        checked(d, ("family", *names), where)
        params = tuple(Setting(float).parse(d.get(name), f"{where}.{name}") for name in names)
        for name, value in zip(names, params):
            if name != "mu":
                positive(f"{where}.{name}", value)
        return cls(family, params)


def round_delay(days):
    """Continuous days -> whole steps, minimum 1 (half-even rounding)."""
    return np.maximum(np.rint(days), 1.0)


@dataclass
class StageRule:
    """Outgoing branches of one stage: targets, per-age cumulative probs, durations."""

    targets: list[Stage]
    cum_probs: np.ndarray            # (N_AGE_BANDS, n_targets), rows end at 1.0
    durations: list[DurationSpec | None]


class ProgressionTable:
    """Validated transition table; raises ConfigError with the offending path."""

    def __init__(self, rules: dict[Stage, StageRule]):
        self.rules = rules

    def entry_stage(self, age_band: int, u: float) -> Stage:
        """Initial infected stage for one agent (oracle path)."""
        rule = self.rules[Stage.SUSCEPTIBLE]
        j = int(np.searchsorted(rule.cum_probs[age_band], u, side="right"))
        j = min(j, len(rule.targets) - 1)
        return rule.targets[j]

    def entry_stages(self, age_bands: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Initial infected stages, vectorized (engine path)."""
        rule = self.rules[Stage.SUSCEPTIBLE]
        return self._pick(rule, age_bands, u)

    @staticmethod
    def _pick(rule: StageRule, age_bands: np.ndarray, u: np.ndarray) -> np.ndarray:
        cum = rule.cum_probs[age_bands]                      # (m, n_targets)
        j = (u[:, None] >= cum).sum(axis=1)                  # == searchsorted right
        j = np.minimum(j, len(rule.targets) - 1)
        targets = np.array([int(t) for t in rule.targets], dtype=np.int8)
        return targets[j]

    def schedule_transition(self, stage: Stage, age_band: int,
                            u_branch: float, u_delay: float) -> tuple[Stage, int]:
        """Sample (next_stage, delay_steps) for one agent out of ``stage``."""
        if stage not in self.rules:
            raise ValueError(f"stage {stage!s} is absorbing; nothing to schedule")
        rule = self.rules[stage]
        j = int(np.searchsorted(rule.cum_probs[age_band], u_branch, side="right"))
        j = min(j, len(rule.targets) - 1)
        target = rule.targets[j]
        delay = int(round_delay(rule.durations[j].quantile(u_delay)))
        return target, delay

    def schedule_transitions(self, stages: np.ndarray, age_bands: np.ndarray,
                             u_branch: np.ndarray, u_delay: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized scheduling for a batch of agents (engine path).

        Agents in absorbing stages get (NEVER, NEVER) back; scheduling them is
        the caller's bug and is guarded there.
        """
        n = len(stages)
        next_stage = np.full(n, NEVER, dtype=np.int8)
        delay = np.full(n, NEVER, dtype=np.int64)
        for s, rule in self.rules.items():
            if s == Stage.SUSCEPTIBLE:
                continue
            mask = stages == int(s)
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            picks = self._pick(rule, age_bands[idx], u_branch[idx])
            next_stage[idx] = picks
            for j, spec in enumerate(rule.durations):
                sel = idx[picks == int(rule.targets[j])]
                if len(sel):
                    d = round_delay(spec.quantile(u_delay[sel]))
                    delay[sel] = d.astype(np.int64)
        return next_stage, delay

    @classmethod
    def from_dict(cls, d: dict) -> "ProgressionTable":
        checked(d, ("schema_version", "comment", "edges"), "progression")
        edges = d.get("edges")
        if not isinstance(edges, list) or not edges:
            raise ConfigError("progression.edges: expected a non-empty list")
        by_stage: dict[Stage, list[tuple[Stage, np.ndarray, DurationSpec | None]]] = {}
        for i, e in enumerate(edges):
            where = f"progression.edges[{i}]"
            checked(e, ("from", "to", "probability", "duration"), where)
            try:
                src, dst = STAGE_BY_NAME[e["from"]], STAGE_BY_NAME[e["to"]]
            except (KeyError, TypeError) as err:
                raise ConfigError(f"{where}: 'from' and 'to' must name stages, got "
                                  f"{e.get('from')!r} -> {e.get('to')!r}") from err
            if src not in LEGAL_EDGES or dst not in LEGAL_EDGES[src]:
                raise ConfigError(f"{where}: illegal transition {src!s} -> {dst!s}")
            probs = _PROBABILITY.check(
                _PROBABILITY.parse(e.get("probability"), f"{where}.probability"),
                f"{where}.probability")
            if src == Stage.SUSCEPTIBLE:
                duration = None
                if "duration" in e:
                    raise ConfigError(f"{where}: entry branches take effect at "
                                      "infection and cannot carry a duration")
            else:
                if "duration" not in e:
                    raise ConfigError(f"{where}: missing duration")
                duration = DurationSpec.from_dict(e["duration"], f"{where}.duration")
            by_stage.setdefault(src, []).append((dst, probs, duration))

        rules: dict[Stage, StageRule] = {}
        for src, entries in by_stage.items():
            targets = [t for t, _, _ in entries]
            if len(set(targets)) != len(targets):
                raise ConfigError(f"progression.edges: duplicate edge out of {src!s}")
            probs = np.stack([p for _, p, _ in entries], axis=1)  # (bands, n)
            sums = probs.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
            if len(bad):
                raise ConfigError(
                    f"progression.edges: branch probabilities out of {src!s} sum "
                    f"to {sums[bad[0]]:.12g} for age band {int(bad[0])}; must sum to 1")
            rules[src] = StageRule(
                targets=targets,
                cum_probs=np.cumsum(probs, axis=1),
                durations=[dur for _, _, dur in entries],
            )
        for required in LEGAL_EDGES:
            if required not in rules:
                raise ConfigError(f"progression.edges: no edges out of {required!s}")
        return cls(rules)
