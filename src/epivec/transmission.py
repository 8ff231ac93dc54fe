"""Per-interaction transmission hazard.

One interaction between an infectious source and a susceptible target on day
``t`` since the source's infection carries hazard

    lam = rate_scale * age_susceptibility[target band]
          * asymptomatic_factor (if the source shows no symptoms yet)
          * network_scale[kind] / mean_daily_interactions
          * day_weight(t)

and converts to an infection probability ``1 - exp(-lam)``.  Hazards from
multiple interactions add, so a single draw against the summed hazard is
exactly equivalent to independent per-interaction draws.

``day_weight(t)`` integrates a gamma infectiousness curve over day ``t``:
zero at infection, peaking at an intermediate day, decaying to zero.  The
curve is parameterized by its mean and standard deviation in days
(shape = mean^2/sd^2, scale = sd^2/mean) and precomputed as a lookup table
out to the day where the residual tail mass drops below ``TAIL_EPS``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from .errors import ConfigError
from .stages import N_AGE_BANDS, N_NETWORK_KINDS

TAIL_EPS = 1e-6


def day_weight_table(mean_days: float, sd_days: float) -> np.ndarray:
    """Lookup table w[t] = F(t) - F(t-1) for t = 1..T_max; w[0] = 0.

    T_max is the smallest day whose residual tail mass is below TAIL_EPS.
    """
    if mean_days <= 0 or sd_days <= 0:
        raise ConfigError("infectiousness curve mean/sd must be positive, got "
                          f"mean={mean_days}, sd={sd_days}")
    shape = (mean_days / sd_days) ** 2
    scale = sd_days * sd_days / mean_days
    dist = stats.gamma(shape, scale=scale)
    t_max = int(math.ceil(dist.isf(TAIL_EPS)))
    t_max = max(t_max, 1)
    cdf = dist.cdf(np.arange(0, t_max + 1, dtype=np.float64))
    weights = np.diff(cdf)
    return np.concatenate(([0.0], weights))


def day_weight(t: int, mean_days: float, sd_days: float) -> float:
    """Single day weight; table-free form used for spot checks.

    Rejects t < 1: infectiousness starts the day after infection.
    """
    if t < 1:
        raise ValueError(f"days since infection must be >= 1, got {t}")
    if mean_days <= 0 or sd_days <= 0:
        raise ConfigError("infectiousness curve mean/sd must be positive")
    shape = (mean_days / sd_days) ** 2
    scale = sd_days * sd_days / mean_days
    dist = stats.gamma(shape, scale=scale)
    return float(dist.cdf(t) - dist.cdf(t - 1))


@dataclass
class DiseaseParams:
    """All transmission scale factors plus the precomputed day-weight table."""

    rate_scale: float                      # overall infection-rate scale
    age_susceptibility: np.ndarray         # per 9 age bands
    asymptomatic_factor: float             # source not (yet) symptomatic
    network_scale: np.ndarray              # per network kind [household, occupation, random]
    mean_daily_interactions: float         # normalizer
    infectiousness_mean_days: float
    infectiousness_sd_days: float
    day_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        self.age_susceptibility = np.asarray(self.age_susceptibility, dtype=np.float64)
        self.network_scale = np.asarray(self.network_scale, dtype=np.float64)
        if self.age_susceptibility.shape != (N_AGE_BANDS,):
            raise ConfigError(f"age_susceptibility must have {N_AGE_BANDS} entries, "
                              f"got {self.age_susceptibility.shape}")
        if self.network_scale.shape != (N_NETWORK_KINDS,):
            raise ConfigError(f"network_scale must have {N_NETWORK_KINDS} entries")
        for name in ("rate_scale", "asymptomatic_factor"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        if np.any(self.age_susceptibility < 0) or np.any(self.network_scale < 0):
            raise ConfigError("scale factors must be >= 0")
        if self.mean_daily_interactions <= 0:
            raise ConfigError("mean_daily_interactions must be positive")
        self.day_weights = day_weight_table(self.infectiousness_mean_days,
                                            self.infectiousness_sd_days)

    @property
    def t_max(self) -> int:
        return len(self.day_weights) - 1

    @classmethod
    def from_dict(cls, d: dict) -> "DiseaseParams":
        try:
            net = d["network_scale"]
            network = [net["household"], net["occupation"], net["random"]]
            return cls(
                rate_scale=float(d["rate_scale"]),
                age_susceptibility=d["age_susceptibility"],
                asymptomatic_factor=float(d["asymptomatic_factor"]),
                network_scale=network,
                mean_daily_interactions=float(d["mean_daily_interactions"]),
                infectiousness_mean_days=float(d["infectiousness_mean_days"]),
                infectiousness_sd_days=float(d["infectiousness_sd_days"]),
            )
        except KeyError as e:
            raise ConfigError(f"disease params: missing field {e.args[0]!r}") from e

    @classmethod
    def from_file(cls, path: str | Path) -> "DiseaseParams":
        with open(path) as f:
            return cls.from_dict(json.load(f))


def edge_hazard(t: int, source_asymptomatic: bool, target_age_band: int,
                network_kind: int, params: DiseaseParams) -> float:
    """Hazard of one interaction; 0 outside the infectious window.

    The factor order is pinned (rate * age * symptom * network / mean / weight)
    so vectorized and scalar evaluation agree bitwise.
    """
    if t < 1 or t > params.t_max:
        return 0.0
    a = params.asymptomatic_factor if source_asymptomatic else 1.0
    return (params.rate_scale
            * params.age_susceptibility[target_age_band]
            * a
            * params.network_scale[network_kind]
            / params.mean_daily_interactions
            * params.day_weights[t])


def infection_probability(total_hazard):
    """p = 1 - exp(-lam); accepts a scalar or an array of summed hazards.

    Mathematically p < 1 for finite hazard; in float64 the value saturates to
    exactly 1.0 once exp(-lam) drops below machine epsilon (lam > ~36.7),
    which is benign because infection draws are strict `u < p` with u < 1.
    """
    lam = np.asarray(total_hazard, dtype=np.float64)
    if np.any(lam < 0):
        raise ValueError("negative hazard: upstream accumulation bug")
    p = 1.0 - np.exp(-lam)
    return float(p) if lam.ndim == 0 else p
