"""Engine step semantics: trivial cases, conservation, gather invariance,
and the star-graph marginal checked against exhaustive outcome enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epivec.engine import Engine
from epivec.errors import InvariantViolation
from epivec.graphs import StepGraph
from epivec.interventions import ImmunityMode, InterventionConfig, VaccinePolicy
from epivec.stages import (ASYMPTOMATIC_LIKE_STAGE, INFECTIOUS_STAGE, N_STAGES,
                           NEVER, NetworkKind, Stage)
from epivec.state import AgentColumns
from epivec.transmission import DiseaseParams, edge_hazard, infection_probability

from test_interventions import (blank_state, empty_graph, flat_disease, flat_edges,
                                simple_table, step_graph)


def star_graph(step, n_leaves):
    """Center agent 0 joined to each leaf, both directions."""
    leaves = np.arange(1, n_leaves + 1, dtype=np.int32)
    hub = np.zeros(n_leaves, dtype=np.int32)
    return step_graph(step,
                      np.concatenate([hub, leaves]).astype(np.int32),
                      np.concatenate([leaves, hub]).astype(np.int32),
                      np.full(2 * n_leaves, int(NetworkKind.RANDOM), dtype=np.int8))


def reference_gather_exposure(self, graph: StepGraph) -> np.ndarray:
    """``Engine.gather_exposure`` before it filtered edges by target, verbatim
    but for reading the flattened blocks (``self`` is the engine): every edge
    with a live source, a 3-key lexsort, non-targets zeroed afterwards."""
    c = self.cols
    p = self.disease
    step = self.clock
    n = c.n_agents
    hazard = np.zeros(n, dtype=np.float64)
    if graph.n_edges:
        src, dst, kind = flat_edges(graph)
        src_stage = c.stage[src]
        t = step - c.infected_at[src].astype(np.int64)
        valid = (INFECTIOUS_STAGE[src_stage]
                 & (c.quarantine_until[src] <= step)
                 & (t >= 1) & (t <= p.t_max))
        idx = np.nonzero(valid)[0]
        if len(idx):
            s, d, k, tt = src[idx], dst[idx], kind[idx], t[idx]
            order = np.lexsort((k, s, d))
            s, d, k, tt = s[order], d[order], k[order], tt[order]
            a = np.where(ASYMPTOMATIC_LIKE_STAGE[c.stage[s]],
                         p.asymptomatic_factor, 1.0)
            lam = (p.rate_scale
                   * p.age_susceptibility[c.age_band[d]]
                   * a
                   * p.network_scale[k]
                   / p.mean_daily_interactions
                   * p.day_weights[tt])
            hazard = np.bincount(d, weights=lam, minlength=n)
    hazard[~self._target_mask()] = 0.0
    return hazard


def make_engine(cols, rate=2.0, seed=0, iv=None):
    return Engine(cols, flat_disease(rate), simple_table(),
                  iv or InterventionConfig(), seed)


def enumeration_marginals(per_edge_p):
    """Exhaustive enumeration oracle: marginal infection probability of each
    leaf when every incident edge draws independently."""
    k = len(per_edge_p)
    marginals = np.zeros(k)
    for outcome in itertools.product([0, 1], repeat=k):
        prob = 1.0
        for hit, p in zip(outcome, per_edge_p):
            prob *= p if hit else (1.0 - p)
        marginals += prob * np.array(outcome)
    return marginals


class TestTrivialCases:
    def test_all_susceptible_no_infections(self):
        cols = blank_state(20)
        engine = make_engine(cols, rate=10.0)
        before = cols.stage.copy()
        ev = engine.step(star_graph(0, 19))
        assert ev.new_infections == 0
        assert np.array_equal(cols.stage, before)
        assert engine.clock == 1

    def test_isolated_infected_progresses_without_transmitting(self):
        cols = blank_state(5)
        cols.stage[2] = int(Stage.PRESYMPTOMATIC_MILD)
        cols.infected_at[2] = 0
        cols.next_stage[2] = int(Stage.MILD_SYMPTOMATIC)
        cols.next_transition_at[2] = 3
        engine = make_engine(cols, rate=10.0)
        for step in range(5):
            ev = engine.step(empty_graph(step))
            assert ev.new_infections == 0
        assert cols.stage[2] == int(Stage.MILD_SYMPTOMATIC)

    def test_clock_mismatch_is_hard_error(self):
        engine = make_engine(blank_state(3))
        with pytest.raises(InvariantViolation, match="clock"):
            engine.step(empty_graph(5))

    def test_out_of_range_agent_index_is_hard_error(self):
        engine = make_engine(blank_state(3))
        bad = step_graph(0, np.array([0], dtype=np.int32),
                         np.array([7], dtype=np.int32),
                         np.zeros(1, dtype=np.int8))
        with pytest.raises(InvariantViolation, match="n_agents"):
            engine.step(bad)


class TestGather:
    def infectious_center(self, n_leaves, rate, infected_days_ago=4):
        cols = blank_state(n_leaves + 1)
        cols.stage[0] = int(Stage.MILD_SYMPTOMATIC)
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.RECOVERED)
        cols.next_transition_at[0] = 10_000
        engine = make_engine(cols, rate=rate)
        engine.clock = infected_days_ago
        return cols, engine

    def test_two_identical_neighbors_add(self):
        # a target with two infectious neighbors sums both hazards
        cols = blank_state(3)
        for i in (0, 1):
            cols.stage[i] = int(Stage.MILD_SYMPTOMATIC)
            cols.infected_at[i] = 0
            cols.next_transition_at[i] = 10_000
            cols.next_stage[i] = int(Stage.RECOVERED)
        engine = make_engine(cols, rate=2.0)
        engine.clock = 4
        graph = step_graph(4, np.array([0, 1], dtype=np.int32),
                           np.array([2, 2], dtype=np.int32),
                           np.zeros(2, dtype=np.int8))
        hazard = engine.gather_exposure(graph)
        single = edge_hazard(4, False, 0, 0, engine.disease)
        assert hazard[2] == pytest.approx(2 * single, rel=1e-15)

    def test_gather_matches_edge_hazard_formula(self):
        cols, engine = self.infectious_center(4, rate=2.0)
        hazard = engine.gather_exposure(star_graph(4, 4))
        lam = edge_hazard(4, False, 0, int(NetworkKind.RANDOM), engine.disease)
        assert np.allclose(hazard[1:], lam, rtol=0, atol=0)
        assert hazard[0] == 0.0  # center is not susceptible

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(0)
        n = 150
        cols = blank_state(n)
        infected = rng.choice(n, size=30, replace=False)
        cols.stage[infected] = int(Stage.MILD_SYMPTOMATIC)
        cols.infected_at[infected] = 0
        cols.next_stage[infected] = int(Stage.RECOVERED)
        cols.next_transition_at[infected] = 10_000
        cols.age_band[:] = rng.integers(0, 9, size=n)
        engine = make_engine(cols, rate=3.0)
        engine.clock = 5
        src = rng.integers(0, n, size=2000).astype(np.int32)
        dst = rng.integers(0, n, size=2000).astype(np.int32)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        kind = rng.integers(0, 3, size=len(src)).astype(np.int8)
        g = step_graph(5, src, dst, kind)
        base = engine.gather_exposure(g)
        for _ in range(5):
            perm = rng.permutation(len(src))
            shuffled = step_graph(5, src[perm], dst[perm], kind[perm])
            assert np.array_equal(engine.gather_exposure(shuffled), base)

    def test_star_marginal_matches_enumeration_oracle(self):
        # exhaustive enumeration over all 2^4 per-edge outcomes gives each
        # leaf's marginal = 1 - exp(-lam); the engine's aggregate draw must
        # reproduce it empirically over keyed Monte Carlo trials
        n_leaves = 4
        rate = 3.0
        cols0, engine0 = self.infectious_center(n_leaves, rate)
        lam = edge_hazard(4, False, 0, int(NetworkKind.RANDOM), engine0.disease)
        p_edge = infection_probability(lam)
        oracle = enumeration_marginals([p_edge] * n_leaves)
        assert oracle[0] == pytest.approx(p_edge, abs=1e-15)

        trials = 20_000
        hits = np.zeros(n_leaves)
        for seed in range(trials):
            cols, engine = self.infectious_center(n_leaves, rate)
            engine.seed = seed
            engine.step(star_graph(4, n_leaves))
            hits += cols.stage[1:] != int(Stage.SUSCEPTIBLE)
        freq = hits / trials
        sigma = np.sqrt(p_edge * (1 - p_edge) / trials)
        assert np.all(np.abs(freq - p_edge) < 4 * sigma)


class TestConservation:
    def run_small_epidemic(self, steps=30, n=120, rate=4.0):
        cols = blank_state(n)
        cols.age_band[:] = np.random.default_rng(1).integers(0, 9, size=n)
        for i in range(5):
            cols.stage[i] = int(Stage.PRESYMPTOMATIC_SEVERE)
            cols.infected_at[i] = 0
            cols.next_stage[i] = int(Stage.SEVERE_SYMPTOMATIC)
            cols.next_transition_at[i] = 2
        engine = make_engine(cols, rate=rate, seed=5)
        rng = np.random.default_rng(2)
        series = []
        for step in range(steps):
            src = rng.integers(0, n, size=800).astype(np.int32)
            dst = rng.integers(0, n, size=800).astype(np.int32)
            keep = src != dst
            graph = step_graph(step, src[keep], dst[keep],
                               np.zeros(keep.sum(), dtype=np.int8))
            engine.step(graph)
            counts = cols.stage_counts()
            series.append((counts.sum(),
                           int(np.sum(cols.infected_at != NEVER)),
                           int(counts[int(Stage.DEAD)])))
        return np.array(series)

    def test_stage_counts_partition_population(self):
        series = self.run_small_epidemic()
        assert np.all(series[:, 0] == 120)

    def test_cumulative_series_monotone(self):
        series = self.run_small_epidemic()
        assert np.all(np.diff(series[:, 1]) >= 0)
        assert np.all(np.diff(series[:, 2]) >= 0)
        assert series[-1, 1] > 5  # the epidemic actually spread

    def test_dead_is_absorbing_and_disconnected(self):
        series = self.run_small_epidemic(steps=40)
        assert series[-1, 2] > 0  # someone died through the severe path


class TestGatherMatchesReference:
    """The filtered gather against the unfiltered one it replaced, bit for bit."""

    @staticmethod
    def random_engine(rng, n, step, sterilizing):
        cols = blank_state(n, ages=rng.integers(0, 9, n))
        cols.stage[:] = np.where(rng.random(n) < 0.4, int(Stage.SUSCEPTIBLE),
                                 rng.integers(0, N_STAGES, n))
        cols.infected_at[:] = rng.integers(max(NEVER, step - 25), step + 1, n)
        cols.quarantine_until[:] = np.where(rng.random(n) < 0.3,
                                            step + rng.integers(1, 5, n),
                                            rng.integers(NEVER, step + 1, n))
        cols.immune[:] = rng.random(n) < 0.3
        disease = DiseaseParams(
            rate_scale=float(rng.uniform(0.1, 3.0)),
            age_susceptibility=rng.uniform(0.0, 2.0, 9),
            asymptomatic_factor=float(rng.uniform(0.0, 1.0)),
            network_scale=rng.uniform(0.0, 3.0, 3),
            mean_daily_interactions=float(rng.uniform(1.0, 20.0)),
            infectiousness_mean_days=5.0,
            infectiousness_sd_days=2.0)
        mode = ImmunityMode.STERILIZING if sterilizing else ImmunityMode.NON_STERILIZING
        iv = InterventionConfig(vaccination=VaccinePolicy(immunity_mode=mode))
        engine = Engine(cols, disease, simple_table(), iv, seed=0)
        engine.clock = step
        return engine

    @staticmethod
    def random_graph(rng, n, step):
        m = int(rng.integers(0, 6 * n))
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        keep = src != dst
        src, dst = src[keep], dst[keep]
        kind = rng.integers(0, 3, len(src))
        # the same (src, dst) pair under a second kind, and exact repeats
        twin = rng.random(len(src)) < 0.2
        same = rng.random(len(src)) < 0.05
        src = np.concatenate([src, src[twin], src[same]])
        dst = np.concatenate([dst, dst[twin], dst[same]])
        kind = np.concatenate([kind, (kind[twin] + 1) % 3, kind[same]])
        perm = rng.permutation(len(src))
        return step_graph(step, src[perm].astype(np.int32), dst[perm].astype(np.int32),
                          kind[perm].astype(np.int8))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(2, 60), step=st.integers(0, 40),
           sterilizing=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=2, step=0, sterilizing=True, seed=0)
    def test_hazard_bitwise_equal(self, n, step, sterilizing, seed):
        rng = np.random.default_rng(seed)
        engine = self.random_engine(rng, n, step, sterilizing)
        graph = self.random_graph(rng, n, step)
        hazard = engine.gather_exposure(graph)
        assert hazard.dtype == np.float64 and hazard.shape == (n,)
        assert hazard.tobytes() == reference_gather_exposure(engine, graph).tobytes()

    def test_states_exercise_every_filter(self):
        """The random states hold quarantined live sources, non-target
        destinations and sums over several sources."""
        rng = np.random.default_rng(1)
        engine = self.random_engine(rng, 60, 20, sterilizing=False)
        graph = self.random_graph(rng, 60, 20)
        c = engine.cols
        src, dst, _ = flat_edges(graph)
        infectious = INFECTIOUS_STAGE[c.stage[src]]
        assert np.any(infectious & (c.quarantine_until[src] > 20))
        assert np.any(infectious & ~engine._target_mask()[dst])
        assert np.any(c.immune & (c.stage == int(Stage.SUSCEPTIBLE)))
        assert engine.disease.t_max < 25   # some sources are past the window
        hazard = engine.gather_exposure(graph)
        assert np.count_nonzero(hazard) > 5
