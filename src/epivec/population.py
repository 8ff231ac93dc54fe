"""Synthetic population generation.

Static agent attributes are drawn from configurable distributions: nine age
bands, household sizes (households are filled from a shuffled agent order, so
membership crosses age bands), 23 occupations restricted to eligible age
bands (everyone else gets occupation 0 = not employed), and an age-stratified
mean count of daily random interactions.

The shipped default distributions are synthetic approximations of county
demographics, not census microdata; every downstream check is phrased
relative to the configured values.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import Config, ConfigError, setting
from .progression import ProgressionTable
from .rng import Purpose, substream
from .stages import N_AGE_BANDS, N_NETWORK_KINDS, N_OCCUPATIONS, Stage
from .state import AgentColumns

_DIST_TOL = 1e-9
# A household of m members is a complete graph of m*(m-1)/2 undirected pairs,
# built before step 0 and kept for the run: a size of 10^5 alone would ask
# for 5*10^9 pairs.  1,000 members is 499,500 pairs (4 MB of int32 pairs).
MAX_HOUSEHOLD_SIZE = 1000
# Agent ids are int32, and the transmission gather keys each directed edge as
# (target * n + source) * N_NETWORK_KINDS + kind in int64: the largest key,
# N_NETWORK_KINDS * n^2 - 1, fits for n up to 1,753,413,056, below 2^31.
MAX_AGENTS = math.isqrt(2**63 // N_NETWORK_KINDS)
# Every step shuffles and pairs about mean degree x agents random-network
# stubs: a mean of 1,000 is already 10^8 stubs a step at 100K agents, and one
# of 10^30 stubs per agent does not fit the int64 stub counts.
MAX_RANDOM_DEGREE = 1000


def _check_sum(p: np.ndarray, path: str) -> None:
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ConfigError(f"{path}: probabilities sum to {p.sum():.12g}, not 1")


@dataclass
class HouseholdSizes(Config):
    """Candidate household sizes, each at most ``MAX_HOUSEHOLD_SIZE``, and
    their probabilities."""

    PATH = "population.household_size_distribution"

    sizes: np.ndarray = setting(int, lo=1, hi=MAX_HOUSEHOLD_SIZE, size=...)
    probabilities: np.ndarray = setting(float, lo=0, size=...)

    def __post_init__(self):
        super().__post_init__()
        if len(self.probabilities) != len(self.sizes):
            raise ConfigError(f"{self.PATH}.probabilities: expected {len(self.sizes)} "
                              f"entries, got {len(self.probabilities)}")
        _check_sum(self.probabilities, f"{self.PATH}.probabilities")


@dataclass
class Networks(Config):
    """Mean daily interactions per occupation, Watts-Strogatz rewiring."""

    PATH = "population.networks"

    occupation_mean_interactions: np.ndarray = setting(float, lo=0, size=N_OCCUPATIONS)
    rewire_beta: float = setting(float, lo=0, hi=1)


@dataclass
class PopulationSpec(Config):
    """Population distributions.  A new key is declared once, with
    ``setting``, in this class or the sub-object it belongs to.

    ``n_agents`` is at most ``MAX_AGENTS``: every per-agent cost is linear in
    it (40 bytes of agent columns, plus each step's edges), so the machine's
    memory bounds it long before that does.
    """

    PATH = "population"
    NOTES = ("schema_version", "comment")

    n_agents: int = setting(int, lo=1, hi=MAX_AGENTS)
    age_distribution: np.ndarray = setting(float, lo=0, size=N_AGE_BANDS)
    household_size_distribution: HouseholdSizes = setting(HouseholdSizes)
    occupation_distribution: np.ndarray = setting(float, lo=0, size=N_OCCUPATIONS)
    # the age bands that can be employed
    occupation_eligible_age_bands: np.ndarray = setting(int, lo=0, hi=N_AGE_BANDS - 1,
                                                        size=...)
    random_degree_by_age: np.ndarray = setting(float, lo=0, hi=MAX_RANDOM_DEGREE,
                                               size=N_AGE_BANDS)  # means
    networks: Networks = setting(Networks)

    def __post_init__(self):
        super().__post_init__()
        _check_sum(self.age_distribution, "population.age_distribution")
        _check_sum(self.occupation_distribution, "population.occupation_distribution")


def synthesize(spec: PopulationSpec, seed: int) -> AgentColumns:
    """Draw the static population for one replication.

    Deterministic per (spec, seed); the synthesis substream is independent of
    the per-step decision streams.
    """
    rng = substream(seed, Purpose.POPULATION)
    n = spec.n_agents
    cols = AgentColumns.allocate(n)

    cols.age_band[:] = rng.choice(N_AGE_BANDS, size=n, p=spec.age_distribution)

    # households: draw sizes until the population is covered, truncate the
    # last.  Sizes are at least 1, so n draws on a copy of the generator find
    # the count k that covers n; the real generator then draws exactly k, the
    # same values as k single draws.
    households = spec.household_size_distribution
    trial = copy.deepcopy(rng).choice(households.sizes, size=n,
                                      p=households.probabilities)
    k = int(np.searchsorted(np.cumsum(trial), n)) + 1
    sizes = rng.choice(households.sizes, size=k, p=households.probabilities)
    sizes[-1] -= sizes.sum() - n
    cols.household_id[rng.permutation(n)] = np.repeat(np.arange(k, dtype=np.int32),
                                                      sizes)

    # everyone outside the eligible bands keeps the column's initial 0
    eligible = np.isin(cols.age_band, spec.occupation_eligible_age_bands.astype(np.int8))
    cols.occupation[eligible] = rng.choice(np.arange(1, N_OCCUPATIONS + 1),
                                           size=int(eligible.sum()),
                                           p=spec.occupation_distribution)
    return cols


def seed_infections(cols: AgentColumns, count: int, seed: int,
                    table: ProgressionTable) -> np.ndarray:
    """Infect ``count`` uniformly chosen susceptible agents at step 0 through
    ``table.infect``.

    Returns the chosen agent ids.  Raises when count exceeds the susceptible
    population.
    """
    susceptible = np.nonzero(cols.stage == int(Stage.SUSCEPTIBLE))[0]
    if count > len(susceptible):
        raise ConfigError(f"initial_infections={count} exceeds susceptible "
                          f"population {len(susceptible)}")
    chooser = substream(seed, Purpose.SEEDING)
    chosen = np.sort(chooser.choice(susceptible, size=count, replace=False))
    table.infect(cols, chosen, seed, 0)
    return chosen
