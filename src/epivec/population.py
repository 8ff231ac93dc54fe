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

from .errors import ConfigError, checked, in_range, number, number_list
from . import rng as keyed
from .rng import Purpose, substream
from .stages import NEVER, N_AGE_BANDS, N_OCCUPATIONS, Stage
from .state import AgentColumns

_DIST_TOL = 1e-9
# A household of m members is a complete graph of m*(m-1) directed edges,
# built before step 0 and kept for the run: a size of 10^5 alone would ask
# for 10^10 edges.  1,000 members is 999,000 edges (8 MB of int32 pairs).
MAX_HOUSEHOLD_SIZE = 1000
_POPULATION_KEYS = ("schema_version", "comment", "n_agents", "age_distribution",
                    "household_size_distribution", "occupation_distribution",
                    "occupation_eligible_age_bands", "random_degree_by_age", "networks")


def _check_distribution(p, size: int, path: str) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.shape != (size,):
        raise ConfigError(f"{path}: expected {size} entries, got shape {arr.shape}")
    in_range(path, arr, 0)
    if abs(arr.sum() - 1.0) > _DIST_TOL:
        raise ConfigError(f"{path}: probabilities sum to {arr.sum():.12g}, not 1")
    return arr


@dataclass
class PopulationSpec:
    """Population distributions.

    ``n_agents`` has no upper bound beyond the int32 agent ids: every
    per-agent cost is linear in it (70 bytes of agent columns, plus each
    step's edges), so the machine's memory bounds it long before the ids do.
    Household sizes are bounded by ``MAX_HOUSEHOLD_SIZE``, since a
    household's edges grow with the square of its size.
    """

    n_agents: int
    age_distribution: np.ndarray             # 9 probabilities
    household_sizes: np.ndarray              # candidate sizes
    household_size_probs: np.ndarray
    occupation_distribution: np.ndarray      # 23 probabilities
    occupation_eligible_bands: tuple         # age bands that can be employed
    random_degree_by_age: np.ndarray         # 9 means
    occupation_mean_interactions: np.ndarray  # 23 per-occupation means
    rewire_beta: float = 0.1

    def __post_init__(self):
        in_range("population.n_agents", self.n_agents, 1)
        self.age_distribution = _check_distribution(
            self.age_distribution, N_AGE_BANDS, "population.age_distribution")
        self.household_sizes = np.asarray(self.household_sizes, dtype=np.int64)
        in_range("population.household_size_distribution.sizes", self.household_sizes, 1)
        if np.any(self.household_sizes > MAX_HOUSEHOLD_SIZE):
            i = int(np.flatnonzero(self.household_sizes > MAX_HOUSEHOLD_SIZE)[0])
            raise ConfigError(
                f"population.household_size_distribution.sizes[{i}]: expected a "
                f"size of at most {MAX_HOUSEHOLD_SIZE}, got {self.household_sizes[i]}")
        self.household_size_probs = _check_distribution(
            self.household_size_probs, len(self.household_sizes),
            "population.household_size_distribution.probabilities")
        self.occupation_distribution = _check_distribution(
            self.occupation_distribution, N_OCCUPATIONS,
            "population.occupation_distribution")
        in_range("population.occupation_eligible_age_bands",
                 self.occupation_eligible_bands, 0, N_AGE_BANDS - 1)
        self.random_degree_by_age = np.asarray(self.random_degree_by_age, dtype=np.float64)
        if self.random_degree_by_age.shape != (N_AGE_BANDS,):
            raise ConfigError(f"population.random_degree_by_age: need {N_AGE_BANDS} entries")
        in_range("population.random_degree_by_age", self.random_degree_by_age, 0)
        self.occupation_mean_interactions = np.asarray(
            self.occupation_mean_interactions, dtype=np.float64)
        if self.occupation_mean_interactions.shape != (N_OCCUPATIONS,):
            raise ConfigError("population.networks.occupation_mean_interactions: "
                              f"need {N_OCCUPATIONS} entries")
        in_range("population.networks.occupation_mean_interactions",
                 self.occupation_mean_interactions, 0)
        in_range("population.networks.rewire_beta", self.rewire_beta, 0, 1)

    @classmethod
    def from_dict(cls, d: dict) -> "PopulationSpec":
        checked(d, _POPULATION_KEYS, "population")
        hh_path = "population.household_size_distribution"
        hh = checked(d.get("household_size_distribution"), ("sizes", "probabilities"),
                     hh_path)
        networks = checked(d.get("networks", {}),
                           ("occupation_mean_interactions", "rewire_beta"),
                           "population.networks")
        return cls(
            n_agents=number(d, "n_agents", "population", kind=int),
            age_distribution=number_list(d, "age_distribution", "population"),
            household_sizes=number_list(hh, "sizes", hh_path, kind=int),
            household_size_probs=number_list(hh, "probabilities", hh_path),
            occupation_distribution=number_list(d, "occupation_distribution",
                                                "population"),
            occupation_eligible_bands=tuple(number_list(
                d, "occupation_eligible_age_bands", "population", kind=int)),
            random_degree_by_age=number_list(d, "random_degree_by_age", "population"),
            occupation_mean_interactions=number_list(
                networks, "occupation_mean_interactions", "population.networks",
                [8.0] * N_OCCUPATIONS),
            rewire_beta=number(networks, "rewire_beta", "population.networks",
                               cls.rewire_beta),
        )


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
    trial = copy.deepcopy(rng).choice(spec.household_sizes, size=n,
                                      p=spec.household_size_probs)
    k = int(np.searchsorted(np.cumsum(trial), n)) + 1
    sizes = rng.choice(spec.household_sizes, size=k, p=spec.household_size_probs)
    sizes[-1] -= sizes.sum() - n
    cols.household_id[rng.permutation(n)] = np.repeat(np.arange(k, dtype=np.int32),
                                                      sizes)

    eligible = np.isin(cols.age_band, np.asarray(spec.occupation_eligible_bands, dtype=np.int8))
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
