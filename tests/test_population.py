"""Population synthesis and infection seeding."""

from dataclasses import fields

import numpy as np
import pytest

from epivec.errors import ConfigError
from epivec.population import (MAX_AGENTS, MAX_HOUSEHOLD_SIZE, MAX_RANDOM_DEGREE,
                               PopulationSpec, seed_infections, synthesize)
from epivec.rng import Purpose, substream
from epivec.runner import initialize_run
from epivec.scenario import (default_population_dict, default_progression_dict,
                             default_scenario)
from epivec.progression import ProgressionTable
from epivec.stages import N_AGE_BANDS, N_NETWORK_KINDS, N_OCCUPATIONS, NEVER, Stage
from epivec.state import AgentColumns


def spec_with(n_agents, **overrides):
    d = default_population_dict()
    d["n_agents"] = n_agents
    for key, value in overrides.items():
        d[key] = value
    return PopulationSpec.from_dict(d)


def loop_synthesize(spec, seed):
    """Reference: ``synthesize`` with the one-draw-per-household loop it
    replaced, verbatim."""
    rng = substream(seed, Purpose.POPULATION)
    n = spec.n_agents
    cols = AgentColumns.allocate(n)

    cols.age_band[:] = rng.choice(N_AGE_BANDS, size=n, p=spec.age_distribution)

    # households: draw sizes until the population is covered, truncate the last
    sizes = []
    covered = 0
    while covered < n:
        s = int(rng.choice(spec.household_size_distribution.sizes,
                           p=spec.household_size_distribution.probabilities))
        sizes.append(min(s, n - covered))
        covered += sizes[-1]
    order = rng.permutation(n)
    hh = np.empty(n, dtype=np.int32)
    at = 0
    for i, s in enumerate(sizes):
        hh[order[at:at + s]] = i
        at += s
    cols.household_id[:] = hh

    eligible = np.isin(cols.age_band,
                       np.asarray(spec.occupation_eligible_age_bands, dtype=np.int8))
    n_eligible = int(eligible.sum())
    occ = np.zeros(n, dtype=np.int16)
    if n_eligible:
        occ[eligible] = rng.choice(
            np.arange(1, N_OCCUPATIONS + 1), size=n_eligible,
            p=spec.occupation_distribution).astype(np.int16)
    cols.occupation[:] = occ
    return cols


@pytest.fixture(scope="module")
def table():
    return ProgressionTable.from_dict(default_progression_dict())


class TestValidation:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="age_distribution"):
            spec_with(10, age_distribution=[0.5] + [0.1] * 8)

    def test_negative_probability_reports_index(self):
        dist = [0.2, -0.1, 0.2, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]
        with pytest.raises(ConfigError, match=r"age_distribution\[1\]"):
            spec_with(10, age_distribution=dist)

    def test_household_size_bounded(self):
        hh = {"sizes": [2, MAX_HOUSEHOLD_SIZE + 1], "probabilities": [0.5, 0.5]}
        with pytest.raises(ConfigError, match=r"sizes\[1\]: expected a value in "
                                              rf"\[1, {MAX_HOUSEHOLD_SIZE}\],"):
            spec_with(10, household_size_distribution=hh)
        hh["sizes"][1] = MAX_HOUSEHOLD_SIZE
        spec = spec_with(10, household_size_distribution=hh)
        assert spec.household_size_distribution.sizes[1] == 1000

    def test_random_degree_bounded(self):
        """Refused at the spec, before any stub is counted or allocated."""
        with pytest.raises(ConfigError, match=r"^population\.random_degree_by_age\[0\]: "
                                              rf"expected a value in \[0, "
                                              rf"{MAX_RANDOM_DEGREE}\], got 1e\+30$"):
            spec_with(10, random_degree_by_age=[1e30] * 9)
        spec = spec_with(10, random_degree_by_age=[MAX_RANDOM_DEGREE] * 9)
        assert spec.random_degree_by_age.tolist() == [1000.0] * 9

    def test_n_agents_bounded(self):
        """The largest n whose gather keys, 3n^2 - 1 at most, fit int64, below
        the int32 ids' 2^31; checked at the spec, no population drawn."""
        assert MAX_AGENTS == 1_753_413_056
        assert N_NETWORK_KINDS * MAX_AGENTS**2 - 1 < 2**63 \
            <= N_NETWORK_KINDS * (MAX_AGENTS + 1)**2 - 1
        assert MAX_AGENTS < 2**31
        with pytest.raises(ConfigError, match=r"^population\.n_agents: expected a value "
                                              rf"in \[1, {MAX_AGENTS}\], "
                                              rf"got {MAX_AGENTS + 1}$"):
            spec_with(MAX_AGENTS + 1)
        assert spec_with(MAX_AGENTS).n_agents == MAX_AGENTS

    def test_missing_field_is_config_error(self):
        d = default_population_dict()
        del d["age_distribution"]
        with pytest.raises(ConfigError, match="age_distribution"):
            PopulationSpec.from_dict(d)


class TestSynthesize:
    def test_single_agent_single_household(self):
        spec = spec_with(1, household_size_distribution={
            "sizes": [1], "probabilities": [1.0]})
        cols = synthesize(spec, seed=0)
        assert cols.n_agents == 1
        assert cols.household_id[0] == 0

    def test_point_mass_age_distribution(self):
        dist = [0.0] * 9
        dist[3] = 1.0
        spec = spec_with(500, age_distribution=dist)
        cols = synthesize(spec, seed=1)
        assert np.all(cols.age_band == 3)

    def test_age_frequencies_match_spec(self):
        spec = spec_with(100_000)
        cols = synthesize(spec, seed=2)
        freq = np.bincount(cols.age_band, minlength=9) / 100_000
        assert np.all(np.abs(freq - spec.age_distribution) < 0.01)

    def test_household_partition_and_sizes(self):
        spec = spec_with(5000)
        cols = synthesize(spec, seed=3)
        # every agent in exactly one household; sizes within configured support
        sizes = np.bincount(cols.household_id)
        assert sizes.sum() == 5000
        assert sizes.max() <= int(spec.household_size_distribution.sizes.max())

    def test_occupation_eligibility(self):
        spec = spec_with(20_000)
        cols = synthesize(spec, seed=4)
        eligible = np.isin(cols.age_band,
                           np.asarray(spec.occupation_eligible_age_bands))
        assert np.all(cols.occupation[~eligible] == 0)
        assert np.all(cols.occupation[eligible] >= 1)
        assert np.all(cols.occupation[eligible] <= 23)

    def test_no_eligible_band_leaves_every_occupation_0(self):
        """The occupation draw is the last: no other column changes."""
        cols = synthesize(spec_with(2000, occupation_eligible_age_bands=[]), seed=4)
        ref = synthesize(spec_with(2000), seed=4)
        assert not cols.occupation.any()
        for f in fields(AgentColumns):
            if f.name != "occupation":
                assert getattr(cols, f.name).tobytes() == getattr(ref, f.name).tobytes()

    def test_random_degree_from_age_band(self):
        """No column holds the degree: the run's realizer gets each agent's
        from its age band."""
        config = default_scenario(n_agents=1000)
        cols, realizer = initialize_run(config, seed=5)
        expected = config.population.random_degree_by_age[cols.age_band]
        assert realizer.random_degree.dtype == np.float64
        assert np.array_equal(realizer.random_degree, expected)

    def test_deterministic_per_seed(self):
        spec = spec_with(2000)
        a, b = synthesize(spec, seed=6), synthesize(spec, seed=6)
        c = synthesize(spec, seed=7)
        assert np.array_equal(a.age_band, b.age_band)
        assert np.array_equal(a.household_id, b.household_id)
        assert not np.array_equal(a.age_band, c.age_band)


    @pytest.mark.parametrize("n, households", [
        (1, None),
        (7, {"sizes": [3], "probabilities": [1.0]}),      # 3 + 3 + a truncated 1
        (10, {"sizes": [1, 4, 6], "probabilities": [0.0, 1.0, 0.0]}),
        (10_000, None),
        (100_000, None),
    ])
    @pytest.mark.parametrize("seed", [3, 5, 11])
    def test_matches_loop_reference(self, n, households, seed):
        overrides = {"household_size_distribution": households} if households else {}
        spec = spec_with(n, **overrides)
        cols, ref = synthesize(spec, seed), loop_synthesize(spec, seed)
        assert cols.n_agents == ref.n_agents
        for f in fields(AgentColumns):
            if f.name != "n_agents":
                assert (getattr(cols, f.name).tobytes()
                        == getattr(ref, f.name).tobytes()), f.name


class TestSeedInfections:
    def test_zero_count_unchanged(self, table):
        cols = synthesize(spec_with(100), seed=0)
        before = cols.stage.copy()
        seed_infections(cols, 0, seed=0, table=table)
        assert np.array_equal(cols.stage, before)

    def test_everyone_infected(self, table):
        cols = synthesize(spec_with(50), seed=0)
        seed_infections(cols, 50, seed=0, table=table)
        assert np.all(cols.stage != int(Stage.SUSCEPTIBLE))
        assert np.all(cols.infected_at == 0)

    def test_exact_count_at_step_zero(self, table):
        cols = synthesize(spec_with(100_000), seed=1)
        seed_infections(cols, 10, seed=1, table=table)
        assert int(np.sum(cols.stage != int(Stage.SUSCEPTIBLE))) == 10
        assert np.all(cols.next_transition_at[cols.infected_at == 0] >= 1)

    def test_count_exceeding_population_rejected(self, table):
        cols = synthesize(spec_with(10), seed=2)
        with pytest.raises(ConfigError, match="exceeds"):
            seed_infections(cols, 11, seed=2, table=table)

    def test_entry_stages_use_branch_table(self, table):
        cols = synthesize(spec_with(30_000), seed=3)
        seed_infections(cols, 30_000, seed=3, table=table)
        entered = {int(s) for s in np.unique(cols.stage)}
        assert entered == {int(Stage.ASYMPTOMATIC), int(Stage.PRESYMPTOMATIC_MILD),
                           int(Stage.PRESYMPTOMATIC_SEVERE)}
