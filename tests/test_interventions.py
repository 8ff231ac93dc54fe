"""Quarantine, testing, exposure notification, and vaccination policy."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epivec.engine import Engine
from epivec.errors import ConfigError
from epivec.graphs import StepGraph
from epivec.interventions import (ContactLog, DenConfig, DiagnosticPolicy,
                                  ImmunityMode, InterventionConfig,
                                  QuarantinePolicy, Strategy, TEST_KINDS,
                                  VaccinePolicy, priority_sort_key)
from epivec.interventions import TestKind as DiagnosticKind
from epivec.progression import ProgressionTable
from epivec.rng import Purpose, uniforms
from epivec.stages import MAX_STEP_OFFSET, N_NETWORK_KINDS, NEVER, NetworkKind, Stage
from epivec.state import AgentColumns
from epivec.transmission import DiseaseParams

SURE_TEST = DiagnosticKind("sure", 1.0, 1, 1)


@functools.lru_cache(maxsize=None)
def flat_disease(rate=2.0):
    return DiseaseParams(
        rate_scale=rate,
        age_susceptibility=np.ones(9),
        asymptomatic_factor=1.0,
        network_scale=np.ones(3),
        mean_daily_interactions=1.0,
        infectiousness_mean_days=5.0,
        infectiousness_sd_days=2.0,
    )


@functools.lru_cache(maxsize=None)
def simple_table():
    ones = [1.0] * 9
    return ProgressionTable.from_dict({"edges": [
        {"from": "susceptible", "to": "asymptomatic", "probability": [0.0] * 9},
        {"from": "susceptible", "to": "presymptomatic_mild", "probability": ones},
        {"from": "susceptible", "to": "presymptomatic_severe",
         "probability": [0.0] * 9},
        {"from": "asymptomatic", "to": "recovered", "probability": ones,
         "duration": {"family": "constant", "days": 30}},
        {"from": "presymptomatic_mild", "to": "mild_symptomatic",
         "probability": ones, "duration": {"family": "constant", "days": 2}},
        {"from": "presymptomatic_severe", "to": "severe_symptomatic",
         "probability": ones, "duration": {"family": "constant", "days": 2}},
        {"from": "mild_symptomatic", "to": "recovered", "probability": ones,
         "duration": {"family": "constant", "days": 30}},
        {"from": "severe_symptomatic", "to": "hospitalized", "probability": ones,
         "duration": {"family": "constant", "days": 3}},
        {"from": "severe_symptomatic", "to": "recovered", "probability": [0.0] * 9,
         "duration": {"family": "constant", "days": 9}},
        {"from": "hospitalized", "to": "critical_icu", "probability": ones,
         "duration": {"family": "constant", "days": 3}},
        {"from": "hospitalized", "to": "recovered", "probability": [0.0] * 9,
         "duration": {"family": "constant", "days": 8}},
        {"from": "critical_icu", "to": "dead", "probability": ones,
         "duration": {"family": "constant", "days": 4}},
        {"from": "critical_icu", "to": "recovered", "probability": [0.0] * 9,
         "duration": {"family": "constant", "days": 7}},
    ]})


def blank_state(n, ages=None):
    cols = AgentColumns.allocate(n)
    if ages is not None:
        cols.age_band[:] = ages
    return cols


def step_graph(step, u, v, kind):
    """A StepGraph from flat pair arrays: the pairs of each network kind, in
    their given order, make up that kind's block."""
    u, v, kind = np.asarray(u), np.asarray(v), np.asarray(kind)
    return StepGraph(step, tuple((u[kind == k].astype(np.int32),
                                  v[kind == k].astype(np.int32))
                                 for k in NetworkKind))


def doubled(graph):
    """``graph`` with each pair block ``(u, v)`` written out as the directed
    block ``(u + v, v + u)``: every pair in both directions, the layout step
    graphs had before they stored each interaction once."""
    return StepGraph(graph.step, tuple((np.concatenate([u, v]), np.concatenate([v, u]))
                                       for u, v in graph.blocks))


def flat_edges(directed):
    """``(src, dst, kind)`` of every block of a directed graph (``doubled``),
    concatenated in kind order."""
    src, dst = (np.concatenate(ends) for ends in zip(*directed.blocks))
    kind = np.repeat(np.arange(N_NETWORK_KINDS, dtype=np.int8),
                     [len(block_src) for block_src, _ in directed.blocks])
    return src, dst, kind


@st.composite
def pair_blocks(draw, n):
    """One int32 pair block per network kind over ``n`` agents: any block may
    be empty, an agent may sit in many pairs, and a pair may repeat, in either
    orientation, within a block or under another kind."""
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    blocks = []
    for _ in NetworkKind:
        pairs = np.array(draw(st.lists(pair, max_size=4 * n)), dtype=np.int32)
        pairs = pairs.reshape(-1, 2)
        blocks.append((pairs[:, 0].copy(), pairs[:, 1].copy()))
    return tuple(blocks)


def empty_graph(step):
    return step_graph(step, [], [], [])


def run_steps(engine, realize, n_steps):
    for _ in range(n_steps):
        engine.step(realize(engine.clock))


class TestPriorityOrdering:
    """The six named hypothetical agents: first-dose-eligible Adam (78),
    second-dose Betty (78), first-dose Charlie (68), second-dose David (68),
    first-dose Eleanor (40), second-dose Frank (40)."""

    AGES = np.array([7, 7, 6, 6, 3, 3])       # bands of 78, 78, 68, 68, 40, 40
    DOSE2 = np.array([False, True, False, True, False, True])
    NAMES = ["Adam", "Betty", "Charlie", "David", "Eleanor", "Frank"]

    def order(self, strategy):
        perm = priority_sort_key(strategy, 6, self.AGES, self.DOSE2)
        return [self.NAMES[i] for i in perm]

    def test_standard_dosing(self):
        assert self.order(Strategy.STANDARD_DOSING) \
            == ["Betty", "David", "Frank", "Adam", "Charlie", "Eleanor"]

    def test_delayed_second_dose(self):
        assert self.order(Strategy.DELAYED_SECOND_DOSE) \
            == ["Adam", "Charlie", "Eleanor", "Betty", "David", "Frank"]

    def test_delayed_except_elderly(self):
        assert self.order(Strategy.DELAYED_EXCEPT_ELDERLY) \
            == ["Adam", "Betty", "Charlie", "David", "Eleanor", "Frank"]

    @given(strategy=st.sampled_from(Strategy), elderly_band=st.integers(0, 8),
           agents=st.lists(st.tuples(st.integers(0, 8), st.booleans()), max_size=300),
           gaps=st.lists(st.integers(1, 3), min_size=300, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_key_orders_by_group_age_dose_then_id(self, strategy, elderly_band,
                                                  agents, gaps):
        """Up to 300 eligible agents in ascending id order, many of them tied
        on (group, age band, dose): the permutation is the sort by (group,
        -age band, dose rank, id), the oracle's rule written out."""
        ids = np.cumsum(gaps[:len(agents)], dtype=np.int64)
        ages = np.array([age for age, _ in agents], dtype=np.int8)
        dose2 = np.array([second for _, second in agents], dtype=bool)

        def priority(i):
            age, second = int(ages[i]), bool(dose2[i])
            if strategy == Strategy.STANDARD_DOSING:
                group = 0 if second else 1
            elif strategy == Strategy.DELAYED_SECOND_DOSE:
                group = 1 if second else 0
            else:
                group = 0 if age >= elderly_band else 1 + second
            return group, -age, second, int(ids[i])

        perm = priority_sort_key(strategy, elderly_band, ages, dose2)
        assert ids[perm].tolist() == [int(ids[i]) for i in
                                      sorted(range(len(agents)), key=priority)]


class TestTestKinds:
    def test_rt_pcr_turnaround_uniform_3_to_5(self):
        kind = TEST_KINDS["rt-pcr"]
        u = uniforms(5, 0, Purpose.TEST_TURNAROUND, np.arange(100_000))
        samples = np.array([kind.turnaround(x) for x in u])
        freq = np.bincount(samples, minlength=6)[3:6] / len(samples)
        assert np.all(np.abs(freq - 1 / 3) < 0.01)
        assert samples.min() == 3 and samples.max() == 5
        # the engine's array call and the oracle's calls on one draw agree
        for each in TEST_KINDS.values():
            scalar = [int(each.turnaround(float(x))) for x in u[:2000]]
            assert np.array_equal(each.turnaround(u[:2000]), scalar)

    def test_fixed_turnarounds(self):
        assert TEST_KINDS["rapid-antigen"].turnaround(0.99) == 2
        assert TEST_KINDS["rapid-poc"].turnaround(0.01) == 1

    def test_detection_profiles(self):
        assert TEST_KINDS["rapid-antigen"].detection_prob == 0.65
        assert TEST_KINDS["rt-pcr"].detection_prob == 0.95
        assert TEST_KINDS["rapid-poc"].detection_prob == 0.85

    def test_invalid_kind_config(self):
        with pytest.raises(ConfigError):
            DiagnosticKind("bad", 1.5, 1, 1)
        with pytest.raises(ConfigError):
            DiagnosticKind("bad", 0.5, 0, 0)

    def test_turnaround_past_max_step_offset_is_refused(self):
        with pytest.raises(ConfigError, match="turnaround must be <= 1073741824 steps"):
            DiagnosticKind("slow", 0.5, 1, MAX_STEP_OFFSET + 1)
        assert DiagnosticKind("slow", 0.5, 1, MAX_STEP_OFFSET).turnaround(0.0) == 1


def quarantine_engine(dropout, n=1, seed=0):
    """One presymptomatic agent that turns symptomatic at step 2, tests with a
    same-day-positive kind, and starts quarantine at step 3."""
    cols = blank_state(n)
    cols.stage[0] = int(Stage.PRESYMPTOMATIC_MILD)
    cols.infected_at[0] = 0
    cols.next_stage[0] = int(Stage.MILD_SYMPTOMATIC)
    cols.next_transition_at[0] = 2
    iv = InterventionConfig(
        quarantine=QuarantinePolicy(enabled=True, dropout_prob=dropout),
        testing=DiagnosticPolicy(enabled=True, kind=SURE_TEST))
    return cols, Engine(cols, flat_disease(), simple_table(), iv, seed)


class TestQuarantine:
    def quarantined_steps(self, dropout, horizon=40, seed=0):
        cols, engine = quarantine_engine(dropout, seed=seed)
        steps = []
        for step in range(horizon):
            engine.step(empty_graph(step))
            if cols.quarantine_until[0] > step:
                steps.append(step)
        return steps

    def test_zero_dropout_lasts_exactly_14_steps(self):
        steps = self.quarantined_steps(dropout=0.0)
        assert len(steps) == 14
        assert steps == list(range(3, 17))

    def test_full_dropout_lasts_exactly_one_step(self):
        steps = self.quarantined_steps(dropout=1.0)
        assert steps == [3]

    def test_no_reentry_without_new_positive(self):
        cols, engine = quarantine_engine(dropout=1.0)
        for step in range(30):
            engine.step(empty_graph(step))
        # symptomatic only once -> one test -> one quarantine episode
        assert cols.quarantine_until[0] == 4

    def test_quarantined_source_contributes_zero_hazard(self):
        cols = blank_state(2)
        cols.stage[0] = int(Stage.MILD_SYMPTOMATIC)
        cols.infected_at[0] = 0
        cols.quarantine_until[0] = 100
        iv = InterventionConfig(quarantine=QuarantinePolicy(enabled=True),
                                testing=DiagnosticPolicy(enabled=True, kind=SURE_TEST))
        engine = Engine(cols, flat_disease(), simple_table(), iv, seed=0)
        engine.clock = 5
        graph = step_graph(5, np.array([0], dtype=np.int32),
                           np.array([1], dtype=np.int32),
                           np.zeros(1, dtype=np.int8))
        hazard = engine.gather_exposure(graph)
        assert hazard[1] == 0.0
        cols.quarantine_until[0] = NEVER
        assert engine.gather_exposure(graph)[1] > 0.0

    def test_hospitalized_and_icu_not_infectious(self):
        for stage in (Stage.HOSPITALIZED, Stage.CRITICAL_ICU, Stage.DEAD,
                      Stage.RECOVERED, Stage.VACCINATED):
            cols = blank_state(2)
            cols.stage[0] = int(stage)
            cols.infected_at[0] = 0
            engine = Engine(cols, flat_disease(), simple_table(),
                            InterventionConfig(), seed=0)
            engine.clock = 5
            graph = step_graph(5, np.array([0], dtype=np.int32),
                               np.array([1], dtype=np.int32),
                               np.zeros(1, dtype=np.int8))
            assert engine.gather_exposure(graph)[1] == 0.0


def den_intervention(adoption=1.0, compliance=1.0, lookback=7):
    return InterventionConfig(
        quarantine=QuarantinePolicy(enabled=True),
        testing=DiagnosticPolicy(enabled=True, kind=SURE_TEST),
        den=DenConfig(enabled=True, app_adoption=adoption,
                      compliance_prob=compliance, lookback=lookback))


def pair_graph(step, a, b):
    return step_graph(step, np.array([a], dtype=np.int32),
                      np.array([b], dtype=np.int32),
                      np.full(1, int(NetworkKind.RANDOM), dtype=np.int8))


class TestExposureNotification:
    def contact_then_positive(self, contact_step, adoption=1.0,
                              positive_delivery_step=10, horizon=14,
                              app=(True, True)):
        """Agent 0 becomes positive at ``positive_delivery_step``; agent 1
        interacted with it only at ``contact_step``.  Returns agent 1's
        follow-up test due step (NEVER when not notified)."""
        cols = blank_state(2)
        cols.has_den_app[:] = app
        # schedule agent 0: symptomatic 2 steps before delivery; sure test
        cols.stage[0] = int(Stage.PRESYMPTOMATIC_MILD)
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.MILD_SYMPTOMATIC)
        cols.next_transition_at[0] = positive_delivery_step - 1
        iv = den_intervention(adoption=adoption)
        engine = Engine(cols, flat_disease(0.0), simple_table(), iv, seed=0)
        due = NEVER
        for step in range(horizon):
            graph = pair_graph(step, 0, 1) if step == contact_step \
                else empty_graph(step)
            engine.step(graph)
            if cols.den_test_due_at[1] != NEVER:
                due = int(cols.den_test_due_at[1])
        return due

    def test_contact_exactly_lookback_ago_included(self):
        # positive delivered at step 10; contact at step 3 = 7 steps earlier
        assert self.contact_then_positive(contact_step=3) == 11

    def test_contact_beyond_lookback_excluded(self):
        assert self.contact_then_positive(contact_step=2) == NEVER

    def test_zero_adoption_notifies_nobody(self):
        assert self.contact_then_positive(contact_step=5, adoption=0.0,
                                          app=(False, False)) == NEVER

    def test_both_parties_need_the_app(self):
        assert self.contact_then_positive(contact_step=5, app=(True, False)) == NEVER
        assert self.contact_then_positive(contact_step=5, app=(False, True)) == NEVER
        assert self.contact_then_positive(contact_step=5, app=(True, True)) == 11

    def test_notified_agent_tests_next_step(self):
        cols = blank_state(2)
        cols.has_den_app[:] = True
        cols.stage[0] = int(Stage.PRESYMPTOMATIC_MILD)
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.MILD_SYMPTOMATIC)
        cols.next_transition_at[0] = 4
        engine = Engine(cols, flat_disease(0.0), simple_table(),
                        den_intervention(), seed=0)
        for step in range(7):
            graph = pair_graph(step, 0, 1) if step == 2 else empty_graph(step)
            ev = engine.step(graph)
        # positive delivered at 5, notification at 5, follow-up sampled at 6,
        # its result due a turnaround (1) later
        assert ev.tests_administered == 1
        assert cols.test_result_at[1] == 7

    def test_contact_log_eviction(self):
        """Step ``s`` pairs agents ``s`` and ``s + 1``: the log holds the last
        ``lookback`` steps' pairs and no older one, lookback 1 included."""
        for lookback in (1, 3):
            log = ContactLog(lookback=lookback, has_app=np.ones(6, dtype=bool))
            for step in range(5):
                log.push(pair_graph(step, step, step + 1))
                assert len(log) == min(lookback, step + 1)
                kept = range(max(0, step + 1 - lookback), step + 2)
                assert log.contacts_of(np.arange(6)).tolist() == list(kept)

    def test_contacts_of_before_any_push_is_empty(self):
        log = ContactLog(lookback=3, has_app=np.ones(4, dtype=bool))
        contacts = log.contacts_of(np.array([0, 2]))
        assert contacts.dtype == np.int32 and contacts.shape == (0,)


class ReferenceContactLog:
    """The contact log before it kept only app-holder pairs, verbatim: every
    edge of the window, rescanned on each query.  It reads directed blocks, so
    it is pushed ``doubled`` graphs."""

    def __init__(self, lookback: int):
        self.lookback = lookback
        self._steps: list[tuple[np.ndarray, np.ndarray]] = []

    def push(self, graph: StepGraph) -> None:
        src, dst, _ = flat_edges(graph)
        self._steps.append((src, dst))
        if len(self._steps) > self.lookback:
            self._steps.pop(0)

    def __len__(self) -> int:
        return len(self._steps)

    def contacts_of(self, agents: np.ndarray) -> np.ndarray:
        """Unique ids that interacted with any of ``agents`` in the window."""
        if not len(self._steps) or not len(agents):
            return np.empty(0, dtype=np.int32)
        hits = []
        max_id = int(agents.max()) + 1
        member = np.zeros(max_id, dtype=bool)
        member[agents] = True
        for src, dst in self._steps:
            if not len(src):
                continue
            sel = src < max_id
            mask = np.zeros(len(src), dtype=bool)
            mask[sel] = member[src[sel]]
            if mask.any():
                hits.append(dst[mask])
        if not hits:
            return np.empty(0, dtype=np.int32)
        return np.unique(np.concatenate(hits)).astype(np.int32)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 30), lookback=st.integers(1, 4),
       adoption=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_contact_log_keeps_what_a_notification_can_reach(n, lookback, adoption, seed):
    """Contacts of app holders equal the full log's contacts that hold the
    app, and no query ever returns an agent without the app."""
    rng = np.random.default_rng(seed)
    has_app = rng.random(n) < adoption
    log, full = ContactLog(lookback, has_app), ReferenceContactLog(lookback)
    for step in range(lookback + 3):
        m = int(rng.integers(0, 4 * n))
        src = rng.integers(0, n, m).astype(np.int32)
        dst = rng.integers(0, n, m).astype(np.int32)
        keep = src != dst
        graph = step_graph(step, src[keep], dst[keep],
                           rng.integers(0, 3, int(keep.sum())).astype(np.int8))
        log.push(graph)
        full.push(doubled(graph))
        assert len(log) == len(full)
        agents = np.flatnonzero(rng.random(n) < 0.4)
        contacts = log.contacts_of(agents)
        assert contacts.dtype == np.int32 and has_app[contacts].all()
        notifiers = agents[has_app[agents]]
        expected = full.contacts_of(notifiers)
        assert np.array_equal(log.contacts_of(notifiers), expected[has_app[expected]])


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), lookback=st.integers(1, 3))
def test_pair_contacts_match_the_directed_reference(data, n, lookback):
    """``contacts_of`` over pair blocks equals the full directed log's
    contacts that hold the app, the full log reading every pair both ways.
    Between pushes every block is kept (the same objects), drawn anew, or
    keeps its ``u`` object with its ``v`` reordered."""
    has_app = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    log, full = ContactLog(lookback, has_app), ReferenceContactLog(lookback)
    graph = StepGraph(0, data.draw(pair_blocks(n)))
    for step in range(lookback + 3):
        change = data.draw(st.sampled_from(["same", "new", "new v"]))
        if change == "new":
            graph = StepGraph(step, data.draw(pair_blocks(n)))
        elif change == "new v":
            graph = StepGraph(step, tuple(
                (u, v[data.draw(st.permutations(range(len(v))))]) for u, v in graph.blocks))
        log.push(graph)
        full.push(doubled(graph))
        agents = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=n)),
                          dtype=np.int64)
        notifiers = agents[has_app[agents]]
        expected = full.contacts_of(notifiers)
        contacts = log.contacts_of(notifiers)
        assert contacts.dtype == np.int32
        assert np.array_equal(contacts, expected[has_app[expected]])


class TestVaccination:
    def vax_config(self, **overrides):
        defaults = dict(strategy=Strategy.DELAYED_SECOND_DOSE,
                        dose1_efficacy=1.0, dose1_latency=12, dose_gap=21,
                        daily_rate=0.5, start_trigger=0.0,
                        immunity_mode=ImmunityMode.STERILIZING)
        defaults.update(overrides)
        return InterventionConfig(vaccination=VaccinePolicy(enabled=True, **defaults))

    def test_daily_budget_never_exceeded(self):
        cols = blank_state(100)
        iv = self.vax_config(daily_rate=0.07)
        engine = Engine(cols, flat_disease(0.0), simple_table(), iv, seed=0)
        for step in range(10):
            ev = engine.step(empty_graph(step))
            assert ev.doses_given <= 7

    def test_no_second_dose_before_gap_and_max_two_doses(self):
        cols = blank_state(10)
        iv = self.vax_config(daily_rate=1.0, dose_gap=5)
        engine = Engine(cols, flat_disease(0.0), simple_table(), iv, seed=0)
        for step in range(30):
            engine.step(empty_graph(step))
            dosed2 = cols.dose2_at != NEVER
            assert np.all(cols.dose2_at[dosed2] >= cols.dose1_at[dosed2] + 5)
        # first doses all at step 0, second doses all at the gap boundary
        assert np.all(cols.dose1_at == 0)
        assert np.all(cols.dose2_at == 5)

    def test_sterilizing_full_efficacy_blocks_infection_after_latency(self):
        # vaccinated agents stop being infectable 12 days after dose 1
        n = 40
        cols = blank_state(n)
        cols.stage[0] = int(Stage.ASYMPTOMATIC)   # infectious seed, never recovers soon
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.RECOVERED)
        cols.next_transition_at[0] = 200
        iv = self.vax_config(daily_rate=1.0, dose1_efficacy=1.0)
        engine = Engine(cols, flat_disease(rate=0.5), simple_table(), iv, seed=3)
        hub = np.zeros(n - 1, dtype=np.int32)
        others = np.arange(1, n, dtype=np.int32)
        kinds = np.zeros(n - 1, dtype=np.int8)
        for step in range(40):
            graph = step_graph(step, hub, others, kinds)
            engine.step(graph)
        dosed = cols.dose1_at != NEVER
        infected = cols.infected_at != NEVER
        late = cols.infected_at >= cols.dose1_at + 12
        assert not np.any(dosed & infected & late)
        # some leaves were infected before immunity resolved, the rest
        # really did convert to the vaccinated stage
        assert np.sum(dosed & infected) > 0
        assert np.sum(cols.stage == int(Stage.VACCINATED)) > 0

    def test_dose2_topup_reaches_marginal(self):
        policy = VaccinePolicy(dose1_efficacy=0.6, dose2_efficacy=0.95)
        q = policy.dose2_topup_prob()
        assert 0.6 + 0.4 * q == pytest.approx(0.95, abs=1e-12)
        assert VaccinePolicy(dose1_efficacy=1.0).dose2_topup_prob() == 0.0

    def test_dose2_before_dose1_latency_supersedes_pending_check(self):
        # gap (3) shorter than the first-dose latency (12): the second dose
        # replaces the pending check and rolls immunity once, at the
        # second-dose efficacy, at once; the dose-1 check (efficacy 1) due at
        # step 12 fires with neither probability
        n = 200
        u = uniforms(2, 3, Purpose.VACCINE_IMMUNITY, np.arange(n), k=2)
        for dose2_efficacy in (0.0, 0.5):
            cols = blank_state(n)
            iv = self.vax_config(daily_rate=1.0, dose_gap=3, dose1_latency=12,
                                 dose1_efficacy=1.0, dose2_efficacy=dose2_efficacy)
            engine = Engine(cols, flat_disease(0.0), simple_table(), iv, seed=2)
            for step in range(16):
                engine.step(empty_graph(step))
            assert np.all(cols.dose1_at == 0)
            assert np.all(cols.dose2_at == 3)
            assert np.array_equal(cols.immune, u < dose2_efficacy)
            assert np.array_equal(cols.stage == int(Stage.VACCINATED), cols.immune)

    def test_no_check_before_any_dose(self):
        # open campaign, no dose a day: at step latency - 1, step - latency is
        # NEVER, the dose time of every undosed agent, yet no check is due
        latency = 12
        cols = blank_state(10)
        iv = self.vax_config(daily_rate=0.0, dose1_latency=latency,
                             dose1_efficacy=1.0)
        engine = Engine(cols, flat_disease(0.0), simple_table(), iv, seed=0)
        for step in range(latency):
            engine.step(empty_graph(step))
        assert engine.vaccination_open
        assert np.all(cols.dose1_at == NEVER)
        assert not np.any(cols.immune)
        assert np.all(cols.stage == int(Stage.SUSCEPTIBLE))

    def test_non_sterilizing_forces_asymptomatic_course(self):
        n = 30
        cols = blank_state(n)
        cols.stage[0] = int(Stage.ASYMPTOMATIC)
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.RECOVERED)
        cols.next_transition_at[0] = 200
        cols.immune[1:] = True      # realized non-sterilizing immunity
        cols.dose1_at[1:] = 0
        iv = InterventionConfig(
            vaccination=VaccinePolicy(enabled=True, daily_rate=0.0,
                                      immunity_mode=ImmunityMode.NON_STERILIZING))
        # simple_table() sends every non-immune infection to the mild branch,
        # so any asymptomatic entry proves the override fired
        engine = Engine(cols, flat_disease(rate=50.0), simple_table(), iv, seed=1)
        hub = np.zeros(n - 1, dtype=np.int32)
        others = np.arange(1, n, dtype=np.int32)
        kinds = np.zeros(n - 1, dtype=np.int8)
        for step in range(8):
            graph = step_graph(step, hub, others, kinds)
            engine.step(graph)
        infected = (cols.infected_at != NEVER) & (np.arange(n) != 0)
        assert infected.sum() > 10  # unreduced infection rate
        assert np.all(np.isin(cols.stage[infected],
                              [int(Stage.ASYMPTOMATIC), int(Stage.RECOVERED)]))

    def test_start_trigger_latches_on_infected_fraction(self):
        n = 100
        cols = blank_state(n)
        # 1 infected agent = 1%; trigger at 0.02 stays shut, 0.01 opens
        cols.stage[0] = int(Stage.ASYMPTOMATIC)
        cols.infected_at[0] = 0
        cols.next_stage[0] = int(Stage.RECOVERED)
        cols.next_transition_at[0] = 200
        for trigger, expect_doses in ((0.02, 0), (0.01, 10)):
            state = cols.copy()
            iv = self.vax_config(daily_rate=0.1, start_trigger=trigger)
            engine = Engine(state, flat_disease(0.0), simple_table(), iv, seed=0)
            ev = engine.step(empty_graph(0))
            assert ev.doses_given == expect_doses


class TestConfigGuards:
    def test_den_requires_testing(self):
        with pytest.raises(ConfigError, match="requires testing"):
            InterventionConfig(den=DenConfig(enabled=True))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ConfigError):
            DenConfig(app_adoption=1.2)
        with pytest.raises(ConfigError):
            VaccinePolicy(dose1_efficacy=-0.1)
        with pytest.raises(ConfigError):
            InterventionConfig(quarantine=QuarantinePolicy(dropout_prob=2.0))


def test_contact_log_reuses_a_repeated_household_block():
    """A household block pushed again as the same object is reused; a new
    object (after a death) is filtered afresh.  Queries match the full log
    after every push."""
    n = 40
    rng = np.random.default_rng(4)
    has_app = rng.random(n) < 0.6
    log, full = ContactLog(2, has_app), ReferenceContactLog(2)
    src = rng.integers(0, n, 120).astype(np.int32)
    dst = (src + rng.integers(1, n, 120).astype(np.int32)) % n
    first = (src[:60], dst[:60])
    later = (src[60:], dst[60:])
    for step, household in enumerate([first, first, first, later, later, later]):
        other = rng.integers(0, n, (2, 60)).astype(np.int32)
        keep = other[0] != other[1]
        random = (other[0][keep], other[1][keep])
        empty = np.empty(0, dtype=np.int32)
        graph = StepGraph(step, (household, (empty, empty), random))
        log.push(graph)
        full.push(doubled(graph))
        notifiers = np.flatnonzero(has_app & (rng.random(n) < 0.5))
        expected = full.contacts_of(notifiers)
        assert np.array_equal(log.contacts_of(notifiers), expected[has_app[expected]])
