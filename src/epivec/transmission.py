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

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import Config, ConfigError, positive, setting
from .stages import N_AGE_BANDS, NetworkKind

TAIL_EPS = 1e-6
MAX_TAIL_DAY = 3650   # ten years; mean = sd = 100 days ends on day 1,382
_NETWORK_NAMES = tuple(kind.name.lower() for kind in NetworkKind)


def _infectiousness_curve(mean_days: float, sd_days: float):
    """The gamma distribution of the given mean and sd, both checked > 0."""
    positive("disease.infectiousness_mean_days", mean_days)
    positive("disease.infectiousness_sd_days", sd_days)
    return stats.gamma((mean_days / sd_days) ** 2, scale=sd_days * sd_days / mean_days)


def day_weight_table(mean_days: float, sd_days: float) -> np.ndarray:
    """Lookup table w[t] = F(t) - F(t-1) for t = 1..T_max; w[0] = 0.

    T_max is the smallest day whose residual tail mass is below TAIL_EPS; a
    curve for which that day is not finite or exceeds MAX_TAIL_DAY is a
    ConfigError, raised before the table is allocated.
    """
    try:
        dist = _infectiousness_curve(mean_days, sd_days)
        with np.errstate(invalid="ignore", over="ignore"):
            t_max = int(math.ceil(dist.isf(TAIL_EPS)))
    except (OverflowError, ValueError):   # shape or tail day overflows, or is NaN
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: "
            f"expected a curve with a finite tail day, got mean={mean_days!r}, "
            f"sd={sd_days!r}") from None
    if t_max > MAX_TAIL_DAY:
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: expected "
            f"a curve whose tail day is at most {MAX_TAIL_DAY}, got day {t_max} for "
            f"mean={mean_days!r}, sd={sd_days!r}")
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
    dist = _infectiousness_curve(mean_days, sd_days)
    return float(dist.cdf(t) - dist.cdf(t - 1))


@dataclass
class DiseaseParams(Config):
    """All transmission scale factors plus the precomputed day-weight table.
    A new key is declared once, with ``setting``."""

    PATH = "disease"
    NOTES = ("schema_version", "comment", "provenance")

    rate_scale: float = setting(float, lo=0)          # overall infection-rate scale
    age_susceptibility: np.ndarray = setting(float, lo=0, size=N_AGE_BANDS)
    asymptomatic_factor: float = setting(float, lo=0)  # source not (yet) symptomatic
    network_scale: np.ndarray = setting(float, lo=0, size=_NETWORK_NAMES)
    mean_daily_interactions: float = setting(float)   # normalizer, > 0
    infectiousness_mean_days: float = setting(float)  # > 0
    infectiousness_sd_days: float = setting(float)    # > 0
    day_weights: np.ndarray = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        positive("disease.mean_daily_interactions", self.mean_daily_interactions)
        self.day_weights = day_weight_table(self.infectiousness_mean_days,
                                            self.infectiousness_sd_days)

    @property
    def t_max(self) -> int:
        return len(self.day_weights) - 1


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
