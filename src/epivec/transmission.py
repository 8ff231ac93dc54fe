"""Per-interaction transmission hazard.

One interaction between an infectious source and a susceptible target on day
``t`` since the source's infection carries hazard

    lam = rate_scale * age_susceptibility[target band]
          * asymptomatic_factor (if the source shows no symptoms yet)
          * network_scale[kind] / mean_daily_interactions
          * day_weights[t]

and converts to an infection probability ``1 - exp(-lam)``.  Hazards from
multiple interactions add, so a single draw against the summed hazard is
exactly equivalent to independent per-interaction draws.

``day_weights[t]`` integrates a gamma infectiousness curve over day ``t``:
zero at infection, peaking at an intermediate day, decaying to zero.  The
curve is parameterized by its mean and standard deviation in days
(shape = mean^2/sd^2, scale = sd^2/mean, from ``gamma_shape_scale``, which
the gamma stage durations share).  ``day_weight_table`` is the one place it
is computed: a lookup table, ``DiseaseParams.day_weights``, out to the day
where the residual tail mass drops below ``TAIL_EPS``.  It calls the
``scipy.special`` kernels that scipy's ``stats.gamma`` ends in:
``gammainccinv(shape, TAIL_EPS) * scale`` for the tail day and
``gammainc(shape, t / scale)`` for the CDF, byte-identical to the frozen
``stats.gamma(shape, scale=scale)``'s ``isf`` and ``cdf``.  The ``stats``
module (about 46 MB and a second to import) is only the tests' reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .errors import Config, ConfigError, positive, setting
from .stages import N_AGE_BANDS, NetworkKind

TAIL_EPS = 1e-6
MAX_TAIL_DAY = 3650   # ten years; mean = sd = 100 days ends on day 1,382
_NETWORK_NAMES = tuple(kind.name.lower() for kind in NetworkKind)


def gamma_shape_scale(mean: float, sd: float) -> tuple[float, float]:
    """A gamma's (shape, scale) from its mean and sd > 0: ((mean/sd)**2,
    sd*sd/mean), the shape inf where it overflows.  Either may be inf or
    underflow to 0, where scipy's ``stats.gamma`` would return NaN; callers
    refuse both."""
    try:
        shape = (mean / sd) ** 2
    except OverflowError:
        shape = math.inf
    return shape, sd * sd / mean


def day_weight_table(mean_days: float, sd_days: float) -> np.ndarray:
    """Lookup table w[t] = F(t) - F(t-1) for t = 1..T_max; w[0] = 0.

    T_max is the smallest day whose residual tail mass is below TAIL_EPS; a
    curve whose shape or scale is not finite and positive, or whose tail day
    is not finite or exceeds MAX_TAIL_DAY, is a ConfigError, raised before
    the table is allocated.
    """
    positive("disease.infectiousness_mean_days", mean_days)
    positive("disease.infectiousness_sd_days", sd_days)
    shape, scale = gamma_shape_scale(mean_days, sd_days)
    tail_day = math.nan
    if 0 < shape < math.inf and 0 < scale < math.inf:
        with np.errstate(over="ignore"):
            tail_day = special.gammainccinv(shape, TAIL_EPS) * scale
    if not math.isfinite(tail_day):
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: "
            f"expected a curve with a finite tail day, got mean={mean_days!r}, "
            f"sd={sd_days!r}")
    t_max = math.ceil(tail_day)
    if t_max > MAX_TAIL_DAY:
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: expected "
            f"a curve whose tail day is at most {MAX_TAIL_DAY}, got day {t_max} for "
            f"mean={mean_days!r}, sd={sd_days!r}")
    t_max = max(t_max, 1)
    cdf = special.gammainc(shape, np.arange(0, t_max + 1, dtype=np.float64) / scale)
    weights = np.diff(cdf)
    return np.concatenate(([0.0], weights))


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
