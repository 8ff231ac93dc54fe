"""Reference-oracle checks: replay equivalence with the engine, an engine
mutant that ``verify`` must catch (the vaccination order), the pinned
``epivec verify`` scenarios, the aggregate infection draw's marginal, and the
throughput gap."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from epivec import cli, engine, oracle, runner
from epivec.engine import Engine
from epivec.interventions import STRATEGY_BY_NAME, TEST_KINDS, InterventionConfig
from epivec.oracle import OracleSim, agents_from_columns
from epivec.runner import bench, replication_seed, run_replication, verify_equivalence
from epivec.scenario import (default_disease_dict, default_population_dict,
                             default_progression_dict, scenario_from_dict)
from epivec.stages import NEVER, Stage
from epivec.errors import InvariantViolation, VerificationDivergence

from test_interventions import (blank_state, empty_graph, flat_disease, simple_table,
                                step_graph)


def small_scenario(n=200, horizon=25, seed=1, interventions=None):
    pop = default_population_dict()
    pop["n_agents"] = n
    return scenario_from_dict({
        "population": pop,
        "horizon": horizon,
        "replications": 1,
        "base_seed": seed,
        "initial_infections": 8,
        "interventions": interventions or {},
    }, name="oracle-test")


ALL_INTERVENTIONS = {
    "quarantine": {"enabled": True, "dropout_prob": 0.05},
    "testing": {"enabled": True, "kind": "rt-pcr"},
    "den": {"enabled": True, "app_adoption": 0.4, "compliance_prob": 0.8},
    "vaccination": {"enabled": True, "strategy": "delayed", "daily_rate": 0.01,
                    "start_trigger": 0.01, "immunity_mode": "sterilizing"},
}


class TestReplayEquivalence:
    def test_clock_mismatch_is_hard_error(self):
        sim = OracleSim(agents_from_columns(blank_state(3)), flat_disease(),
                        simple_table(), InterventionConfig(), seed=0)
        with pytest.raises(InvariantViolation, match="oracle clock is 0"):
            sim.step(empty_graph(5))

    def test_empty_graph_noop_parity(self):
        cols = blank_state(10)
        engine = Engine(cols, flat_disease(), simple_table(),
                        InterventionConfig(), seed=0)
        oracle = OracleSim(agents_from_columns(cols), flat_disease(),
                           simple_table(), InterventionConfig(), seed=0)
        engine.step(empty_graph(0))
        oracle.step(empty_graph(0))
        assert np.array_equal(oracle.column("stage"), cols.stage)

    def test_bitwise_equivalence_with_all_interventions(self):
        config = small_scenario(interventions=ALL_INTERVENTIONS)
        assert verify_equivalence(config) == config.horizon

    def test_checker_detects_perturbed_oracle(self):
        config = small_scenario(interventions=ALL_INTERVENTIONS)
        perturbed = flat_disease(rate=1.9)
        with pytest.raises(VerificationDivergence) as exc_info:
            verify_equivalence(config, oracle_disease=perturbed)
        e = exc_info.value
        assert e.step >= 0 and e.field
        # plain Python values, not numpy scalars, in the exception and its text
        assert type(e.engine_value) is type(e.oracle_value) \
            and type(e.engine_value) in (int, float, bool)
        assert str(e) == (f"divergence at step {e.step}, agent {e.agent}, field "
                          f"{e.field!r}: engine={e.engine_value} oracle={e.oracle_value}")

    @pytest.mark.parametrize("field, value", [("age_band", 8), ("household_id", -5)])
    def test_checker_detects_corrupted_static_column(self, monkeypatch, field, value):
        """Static columns are compared too, household_id included although
        the oracle never reads it."""
        def corrupted(cols):
            agents = agents_from_columns(cols)
            setattr(agents[3], field, value)
            return agents
        monkeypatch.setattr(runner, "agents_from_columns", corrupted)
        config = small_scenario(n=150, horizon=5)
        with pytest.raises(VerificationDivergence) as exc_info:
            verify_equivalence(config)
        assert (exc_info.value.step, exc_info.value.agent,
                exc_info.value.field) == (0, 3, field)

    def test_equivalence_with_degenerate_dose_schedule(self):
        # second dose administered before the first dose's immunity check
        config = small_scenario(n=150, horizon=20, interventions={
            "vaccination": {"enabled": True, "strategy": "standard",
                            "daily_rate": 0.2, "start_trigger": 0.0,
                            "dose_gap": 3, "dose1_latency": 12,
                            "dose2_latency": 1,
                            "immunity_mode": "non-sterilizing"}})
        assert verify_equivalence(config) == config.horizon


def youngest_first_key(strategy, elderly_band, age_band, dose2_eligible):
    """Standard dosing's priority order with the age order reversed."""
    group = np.where(dose2_eligible, 0, 1)
    return np.lexsort((dose2_eligible, age_band, group))


class TestVerifySeesTheEngine:
    def test_reversed_age_order_diverges(self, monkeypatch):
        """The oracle sorts eligible agents itself, so an engine dosing the
        youngest first is a divergence however the package looks the key up."""
        monkeypatch.setattr(engine, "priority_sort_key", youngest_first_key)
        monkeypatch.setattr(oracle, "priority_sort_key", youngest_first_key,
                            raising=False)
        # 8 doses a day for 150 agents: the budget binds from step 0
        config = small_scenario(n=150, horizon=5, interventions={
            "vaccination": {"enabled": True, "strategy": "standard",
                            "daily_rate": 0.05, "start_trigger": 0.0}})
        with pytest.raises(VerificationDivergence) as exc_info:
            verify_equivalence(config)
        assert exc_info.value.step == 0
        assert exc_info.value.field == "dose1_at"

    def test_death_on_the_step_a_follow_up_test_falls_due(self, monkeypatch):
        """Agents that die on the step their notification's test falls due,
        with no test pending, so only the dead filter of test sampling keeps
        them untested: an engine without it diverges at step 5."""
        progression = default_progression_dict()
        for edge in progression["edges"]:
            # every infection severe, one-day stages, 90% of each severe
            # stage on towards death; results of rapid-poc come back in a day
            if "duration" in edge:
                edge["duration"] = {"family": "constant", "days": 1}
            if edge["from"] == "susceptible":
                edge["probability"] = [float(edge["to"] == "presymptomatic_severe")] * 9
            elif edge["from"] in ("severe_symptomatic", "hospitalized", "critical_icu"):
                edge["probability"] = [0.1 if edge["to"] == "recovered" else 0.9] * 9
        pop = default_population_dict()
        pop["n_agents"] = 300
        config = scenario_from_dict({
            "population": pop, "progression": progression, "horizon": 8,
            "replications": 1, "base_seed": 3, "initial_infections": 30,
            "interventions": {"testing": {"enabled": True, "kind": "rapid-poc"},
                              "den": {"enabled": True, "app_adoption": 1.0,
                                      "compliance_prob": 1.0}}})
        corner = []
        real = Engine._phase_test_sampling

        def counting(self, newly_symptomatic, ev):
            c = self.cols
            corner.append(int(((c.den_test_due_at == self.clock)
                               & (c.test_result_at == NEVER)
                               & (c.stage == int(Stage.DEAD))).sum()))
            real(self, newly_symptomatic, ev)
        monkeypatch.setattr(Engine, "_phase_test_sampling", counting)
        assert verify_equivalence(config) == config.horizon
        assert sum(corner) > 0

    @pytest.mark.parametrize("phase, event", [
        ("_phase_transmission", "new_infections"),
        ("_phase_test_sampling", "tests_administered"),
        ("_phase_test_delivery", "notifications_sent"),
        ("_phase_vaccination", "doses_given"),
    ])
    def test_over_counted_event_diverges(self, monkeypatch, phase, event):
        """A phase that counts one event too many leaves every column as it
        was; the oracle counts the events itself, so verify names the count."""
        real = getattr(Engine, phase)

        def over_counting(self, *args):
            real(self, *args)
            ev = args[-1]   # every phase takes the step's events last
            setattr(ev, event, getattr(ev, event) + 1)
        monkeypatch.setattr(Engine, phase, over_counting)
        config = small_scenario(n=150, horizon=3, interventions=ALL_INTERVENTIONS)
        with pytest.raises(VerificationDivergence) as exc_info:
            verify_equivalence(config)
        e = exc_info.value
        assert (e.step, e.agent, e.field) == (0, None, event)
        assert e.engine_value == e.oracle_value + 1
        assert str(e) == (f"divergence at step 0, event count {event!r}: "
                          f"engine={e.engine_value} oracle={e.oracle_value}")


def pinned_scenarios():
    """The intervention blocks of the pinned ``verify`` scenarios, by name."""
    base = {"quarantine": {"enabled": True}, "testing": {"enabled": True},
            "den": {"enabled": True}}
    vaccinations = {
        # every intervention at its defaults
        "verify": {"enabled": True, "start_trigger": 0.0},
        # non-sterilizing: immune agents are infected
        "verify_leaky": {"enabled": True, "start_trigger": 0.0,
                         "immunity_mode": "non-sterilizing",
                         "dose1_latency": 0, "daily_rate": 0.1},
        # second doses within the horizon: the dose order meets both types
        "verify_second_doses": {"enabled": True, "start_trigger": 0.0,
                                "strategy": "delayed-except-elderly",
                                "dose_gap": 3, "dose1_latency": 0,
                                "daily_rate": 0.05},
        # delayed second doses: 24 doses a day go to first doses while
        # second doses queue, step 12 gives both, later days bind on
        # second doses alone
        "verify_delayed": {"enabled": True, "start_trigger": 0.0,
                           "strategy": "delayed", "dose_gap": 3,
                           "dose1_latency": 0, "daily_rate": 0.08},
        # non-sterilizing second doses: agents already immune and still
        # susceptible take dose 2, whose check changes nothing
        "verify_leaky_second_doses": {"enabled": True, "start_trigger": 0.0,
                                      "immunity_mode": "non-sterilizing",
                                      "dose1_latency": 0, "dose_gap": 3,
                                      "dose2_latency": 2, "daily_rate": 0.1,
                                      "dose1_efficacy": 0.5},
        # dose 2 on the step dose 1's check falls due: the check resolves
        # first, so dose 2 rolls the top-up, not the full second-dose efficacy
        "verify_same_step_doses": {"enabled": True, "start_trigger": 0.0,
                                   "dose_gap": 3, "dose1_latency": 3,
                                   "daily_rate": 0.1, "dose1_efficacy": 0.6,
                                   "dose2_efficacy": 0.9},
    }
    blocks = {name: {**base, "vaccination": vaccination}
              for name, vaccination in vaccinations.items()}
    # every second dose while the first dose's check is pending, and
    # short quarantines with dropouts: the rules that read the dose
    # and quarantine times
    blocks["verify_pending_checks"] = {
        **base,
        "quarantine": {"enabled": True, "duration": 3, "dropout_prob": 0.3},
        "vaccination": {"enabled": True, "start_trigger": 0.0, "dose_gap": 2,
                        "dose1_latency": 9, "dose2_latency": 1,
                        "daily_rate": 0.05, "dose1_efficacy": 0.5}}
    # 0.001 x 300 agents rounds to no dose a day, and no agent holds the
    # app: a vaccination phase and result deliveries over empty sets
    blocks["verify_no_budget"] = {
        **base,
        "den": {"enabled": True, "app_adoption": 0.0},
        "vaccination": {"enabled": True, "start_trigger": 0.0,
                        "daily_rate": 0.001}}
    return blocks


PINNED_SCENARIOS = pinned_scenarios()


class TestPinnedScenarios:
    """``epivec verify`` through the console entry, on 300 agents of the
    packaged population over 20 steps with each pinned block."""

    @pytest.mark.parametrize("name", list(PINNED_SCENARIOS))
    def test_verify_exits_0(self, tmp_path, name):
        population = default_population_dict()
        population["n_agents"] = 300
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"population": population, "horizon": 20,
                                    "replications": 1,
                                    "interventions": PINNED_SCENARIOS[name]}))
        assert cli.main(["verify", "--scenario", str(path)]) == 0


def differential_scenario(n, horizon, infections, seed, rate, interventions):
    pop = default_population_dict()
    pop["n_agents"] = n
    disease = default_disease_dict()
    disease["rate_scale"] *= rate
    return scenario_from_dict({
        "population": pop, "disease": disease, "horizon": horizon,
        "replications": 1, "base_seed": seed,
        "initial_infections": min(infections, n), "interventions": interventions,
    }, name="differential")


@st.composite
def intervention_blocks(draw):
    testing = draw(st.booleans())
    return {
        "quarantine": {"enabled": draw(st.booleans()),
                       "duration": draw(st.integers(1, 20)),
                       "dropout_prob": draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))},
        "testing": {"enabled": testing,
                    "kind": draw(st.sampled_from(sorted(TEST_KINDS))),
                    "false_positive_prob": draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))},
        "den": {"enabled": testing and draw(st.booleans()),
                "app_adoption": draw(st.sampled_from([0.0, 0.3, 1.0])),
                "compliance_prob": draw(st.floats(0.0, 1.0)),
                "lookback": draw(st.integers(1, 8))},
        "vaccination": {
            "enabled": draw(st.booleans()),
            "strategy": draw(st.sampled_from(sorted(STRATEGY_BY_NAME))),
            "immunity_mode": draw(st.sampled_from(["sterilizing", "non-sterilizing"])),
            "dose1_efficacy": draw(st.floats(0.0, 1.0)),
            "dose2_efficacy": draw(st.floats(0.0, 1.0)),
            "dose1_latency": draw(st.integers(0, 14)),
            "dose2_latency": draw(st.integers(0, 3)),
            "dose_gap": draw(st.integers(1, 21)),
            "daily_rate": draw(st.sampled_from([0.0, 0.01, 0.1, 0.5])),
            "start_trigger": draw(st.sampled_from([0.0, 0.01, 0.05])),
            "elderly_band": draw(st.integers(0, 8))},
    }


# Two corners pinned: zero latencies, lookback 1 and an empty contact-log mask;
# a full mask with frequent false positives.
ZERO_LATENCY = {
    "quarantine": {"enabled": True, "duration": 3, "dropout_prob": 0.5},
    "testing": {"enabled": True, "kind": "rapid-poc", "false_positive_prob": 0.02},
    "den": {"enabled": True, "app_adoption": 0.0, "compliance_prob": 1.0,
            "lookback": 1},
    "vaccination": {"enabled": True, "strategy": "delayed-except-elderly",
                    "immunity_mode": "non-sterilizing", "dose1_latency": 0,
                    "dose2_latency": 0, "dose_gap": 1, "daily_rate": 0.1,
                    "start_trigger": 0.0},
}
FULL_APP = {
    "quarantine": {"enabled": True},
    "testing": {"enabled": True, "kind": "rt-pcr", "false_positive_prob": 0.3},
    "den": {"enabled": True, "app_adoption": 1.0, "lookback": 7},
    "vaccination": {"enabled": True, "strategy": "delayed", "daily_rate": 0.01,
                    "start_trigger": 0.0},
}


class TestDifferentialConfigSpace:
    """Engine/oracle replay over random intervention configs, tiny and
    degenerate populations included."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300), horizon=st.integers(1, 30),
           infections=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           rate=st.sampled_from([1.0, 3.0]), interventions=intervention_blocks())
    @example(n=120, horizon=30, infections=10, seed=3, rate=3.0,
             interventions=ZERO_LATENCY)
    @example(n=200, horizon=30, infections=10, seed=4, rate=3.0,
             interventions=FULL_APP)
    @example(n=2, horizon=5, infections=1, seed=0, rate=1.0, interventions=FULL_APP)
    def test_engine_matches_oracle(self, n, horizon, infections, seed, rate,
                                   interventions):
        config = differential_scenario(n, horizon, infections, seed, rate,
                                       interventions)
        assert verify_equivalence(config) == horizon

    @pytest.mark.parametrize("n, seed, interventions, notified", [
        (120, 3, ZERO_LATENCY, False), (200, 4, FULL_APP, True)])
    def test_pinned_corners_reach_every_phase(self, n, seed, interventions,
                                              notified):
        config = differential_scenario(n, 30, 10, seed, 3.0, interventions)
        result = run_replication(config, 0)
        for column in ("tests_administered", "doses_given"):
            assert result.column(column).sum() > 0, column
        assert (result.column("notifications_sent").sum() > 0) == notified


class TestSterilizingTarget:
    """The engine's and the oracle's transmission target is the susceptible
    stage alone; that rests on no susceptible agent being immune under
    sterilizing immunity (``state.py``)."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 300), horizon=st.integers(1, 30),
           infections=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
           rate=st.sampled_from([1.0, 3.0]), interventions=intervention_blocks())
    @example(n=300, horizon=30, infections=12, seed=4, rate=3.0,
             interventions=ZERO_LATENCY)
    def test_no_susceptible_agent_is_immune(self, n, horizon, infections, seed, rate,
                                            interventions):
        vaccination = {**interventions["vaccination"], "enabled": True,
                       "immunity_mode": "sterilizing"}
        config = differential_scenario(n, horizon, infections, seed, rate,
                                       {**interventions, "vaccination": vaccination})
        steps = runner._replay(config, replication_seed(config.base_seed, 0))
        for cols, *_ in steps:
            assert not (cols.immune & (cols.stage == int(Stage.SUSCEPTIBLE))).any()


class TestAggregateInfectionDraw:
    def test_marginal_on_multi_edge_target(self):
        # two infectious sources into one target: the one aggregate draw
        # infects with probability 1 - exp(-(lam1 + lam2))
        from epivec.transmission import edge_hazard
        disease = flat_disease(rate=3.0)
        lam = edge_hazard(4, False, 0, 0, disease)
        expected = 1.0 - math.exp(-2 * lam)
        trials = 60_000
        hits = 0
        table = simple_table()
        iv = InterventionConfig()
        graph = step_graph(4, np.array([0, 1], dtype=np.int32),
                           np.array([2, 2], dtype=np.int32),
                           np.zeros(2, dtype=np.int8))
        for seed in range(trials):
            cols = blank_state(3)
            for i in (0, 1):
                cols.stage[i] = int(Stage.MILD_SYMPTOMATIC)
                cols.infected_at[i] = 0
                cols.next_stage[i] = int(Stage.RECOVERED)
                cols.next_transition_at[i] = 10_000
            sim = OracleSim(agents_from_columns(cols), disease, table, iv, seed=seed)
            sim.clock = 4
            sim.step(graph)
            hits += sim.agents[2].stage != int(Stage.SUSCEPTIBLE)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * sigma


class TestThroughputFloor:
    def test_engine_at_least_5x_faster_at_10k(self):
        config = small_scenario(n=10_000, horizon=3, seed=2)
        engine_report = bench(config)
        oracle_report = bench(config, use_oracle=True)
        assert engine_report.interactions == oracle_report.interactions
        assert engine_report.interactions_per_second \
            >= 5 * oracle_report.interactions_per_second
