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
from dataclasses import dataclass

import numpy as np

from .errors import Config, ConfigError, setting
from . import rng as keyed
from .rng import Purpose, substream
from .stages import NEVER, N_AGE_BANDS, N_OCCUPATIONS, Stage
from .state import AgentColumns

_DIST_TOL = 1e-9
# A household of m members is a complete graph of m*(m-1) directed edges,
# built before step 0 and kept for the run: a size of 10^5 alone would ask
# for 10^10 edges.  1,000 members is 999,000 edges (8 MB of int32 pairs).
MAX_HOUSEHOLD_SIZE = 1000


def _check_sum(p: np.ndarray, path: str) -> None:
    if abs(p.sum() - 1.0) > _DIST_TOL:
        raise ConfigError(f"{path}: probabilities sum to {p.sum():.12g}, not 1")


@dataclass
class HouseholdSizes(Config):
    """Candidate household sizes, each at most ``MAX_HOUSEHOLD_SIZE``, and
    their probabilities."""

    PATH = "population.household_size_distribution"

    sizes: np.ndarray = setting(int, lo=1, size=...)
    probabilities: np.ndarray = setting(float, lo=0, size=...)

    def __post_init__(self):
        super().__post_init__()
        too_big = np.flatnonzero(self.sizes > MAX_HOUSEHOLD_SIZE)
        if len(too_big):
            raise ConfigError(
                f"{self.PATH}.sizes[{too_big[0]}]: expected a size of at most "
                f"{MAX_HOUSEHOLD_SIZE}, got {self.sizes[too_big[0]]}")
        if len(self.probabilities) != len(self.sizes):
            raise ConfigError(f"{self.PATH}.probabilities: expected {len(self.sizes)} "
                              f"entries, got {len(self.probabilities)}")
        _check_sum(self.probabilities, f"{self.PATH}.probabilities")


@dataclass
class Networks(Config):
    """Mean daily interactions per occupation, Watts-Strogatz rewiring."""

    PATH = "population.networks"

    occupation_mean_interactions: np.ndarray = setting(
        float, (8.0,) * N_OCCUPATIONS, lo=0, size=N_OCCUPATIONS)
    rewire_beta: float = setting(float, 0.1, lo=0, hi=1)


@dataclass
class PopulationSpec(Config):
    """Population distributions.  A new key is declared once, with
    ``setting``, in this class or the sub-object it belongs to.

    ``n_agents`` has no upper bound beyond the int32 agent ids: every
    per-agent cost is linear in it (70 bytes of agent columns, plus each
    step's edges), so the machine's memory bounds it long before the ids do.
    """

    PATH = "population"
    NOTES = ("schema_version", "comment")

    n_agents: int = setting(int, lo=1)
    age_distribution: np.ndarray = setting(float, lo=0, size=N_AGE_BANDS)
    household_size_distribution: HouseholdSizes = setting(HouseholdSizes)
    occupation_distribution: np.ndarray = setting(float, lo=0, size=N_OCCUPATIONS)
    # the age bands that can be employed
    occupation_eligible_age_bands: np.ndarray = setting(int, lo=0, hi=N_AGE_BANDS - 1,
                                                        size=...)
    random_degree_by_age: np.ndarray = setting(float, lo=0, size=N_AGE_BANDS)  # means
    networks: Networks = setting(Networks, Networks)

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

    eligible = np.isin(cols.age_band, spec.occupation_eligible_age_bands.astype(np.int8))
    if eligible.any():   # everyone else keeps the column's initial 0
        cols.occupation[eligible] = rng.choice(np.arange(1, N_OCCUPATIONS + 1),
                                               size=int(eligible.sum()),
                                               p=spec.occupation_distribution)

    cols.random_degree[:] = spec.random_degree_by_age[cols.age_band]
    return cols


def seed_infections(cols: AgentColumns, count: int, seed: int, table) -> np.ndarray:
    """Move ``count`` uniformly chosen susceptible agents into an initial
    infected stage at step 0 and schedule their first transition.

    Returns the chosen agent ids.  Raises when count exceeds the susceptible
    population.
    """
    susceptible = np.nonzero(cols.stage == int(Stage.SUSCEPTIBLE))[0]
    if count > len(susceptible):
        raise ConfigError(f"initial_infections={count} exceeds susceptible "
                          f"population {len(susceptible)}")
    if count == 0:
        return np.empty(0, dtype=np.int64)
    chooser = substream(seed, Purpose.SEEDING)
    chosen = np.sort(chooser.choice(susceptible, size=count, replace=False))

    u_entry = keyed.uniforms(seed, 0, Purpose.ENTRY_STAGE, chosen)
    entry = table.entry_stages(cols.age_band[chosen], u_entry)
    cols.stage[chosen] = entry
    cols.infected_at[chosen] = 0
    u_branch = keyed.uniforms(seed, 0, Purpose.PROGRESSION_BRANCH, chosen)
    u_delay = keyed.uniforms(seed, 0, Purpose.PROGRESSION_DELAY, chosen)
    nxt, delay = table.schedule_transitions(entry, cols.age_band[chosen],
                                            u_branch, u_delay)
    cols.next_stage[chosen] = nxt
    cols.next_transition_at[chosen] = 0 + delay
    return chosen
