"""Naive per-agent reference implementation.

Agents are plain records and every rule runs as an explicit Python loop over
agents and edges.  Used to cross-check the vectorized engine: in ``replay``
mode the oracle consumes the same keyed draws as the engine (one aggregate
infection draw per agent), so trajectories must match bit for bit.  In
``independent-edges`` mode each incident edge gets its own Bernoulli draw;
per-agent infection marginals then coincide with the aggregate draw exactly
because hazards are summed inside one exponent.

No performance work here on purpose: the loops are the point.  The records
are typed by hand: a new agent column is declared in ``AgentColumns``
(``state.py``) and gets a plain field on ``NaiveAgent`` at the same position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graphs import StepGraph
from .interventions import ImmunityMode, InterventionConfig, priority_sort_key
from .progression import ProgressionTable
from .rng import Purpose, uniform
from .stages import (ACTIVE_INFECTION_STAGE, ASYMPTOMATIC_LIKE_STAGE,
                     INFECTIOUS_STAGE, NEVER, Stage, VaccineStatus)
from .state import AGENT_COLUMNS, AgentColumns
from .transmission import DiseaseParams, edge_hazard, infection_probability


@dataclass
class NaiveAgent:
    """One agent as an individual record: ``agent_id``, then one field per
    agent column, in ``AGENT_COLUMNS`` order."""

    agent_id: int
    age_band: int
    occupation: int
    household_id: int
    random_degree: float
    stage: int
    infected_at: int
    next_transition_at: int
    next_stage: int
    quarantine_until: int
    quarantine_started_at: int
    has_den_app: bool
    vaccine_status: int
    dose1_at: int
    dose2_at: int
    immune: bool
    immunity_check_at: int
    immunity_check_prob: float
    immunity_check_dose: int
    test_sample_at: int
    test_result_at: int
    test_positive: bool
    den_test_due_at: int

    def quarantined(self, step: int) -> bool:
        return self.quarantine_until > step


def agents_from_columns(cols: AgentColumns) -> list[NaiveAgent]:
    """One record per agent; ``.tolist()`` gives Python int, bool and float."""
    values = [getattr(cols, name).tolist() for name in AGENT_COLUMNS]
    return [NaiveAgent(i, *row) for i, row in enumerate(zip(*values))]


class OracleSim:
    """Loop-based simulation over NaiveAgent records."""

    REPLAY = "replay"
    INDEPENDENT = "independent-edges"

    def __init__(self, agents: list[NaiveAgent], disease: DiseaseParams,
                 table: ProgressionTable, interventions: InterventionConfig,
                 seed: int, mode: str = REPLAY):
        if mode not in (self.REPLAY, self.INDEPENDENT):
            raise ValueError(f"unknown oracle mode {mode!r}")
        self.agents = agents
        self.disease = disease
        self.table = table
        self.iv = interventions
        self.seed = seed
        self.mode = mode
        self.clock = 0
        self.vaccination_open = False
        self.contact_history: list[list[tuple[int, int]]] = []
        self._sterilizing = (interventions.vaccination.immunity_mode
                             == ImmunityMode.STERILIZING)

    # -- helpers -----------------------------------------------------------

    def _is_target(self, a: NaiveAgent) -> bool:
        if a.stage != int(Stage.SUSCEPTIBLE):
            return False
        if self._sterilizing and a.immune:
            return False
        return True

    def _incident_hazards(self, graph: StepGraph, step: int):
        """Per-target lists of (source id, kind, hazard), one edge at a time."""
        incoming: dict[int, list[tuple[int, int, float]]] = {}
        for kind, (srcs, dsts) in enumerate(graph.blocks):
            for e in range(len(srcs)):
                s = int(srcs[e])
                d = int(dsts[e])
                src = self.agents[s]
                if not INFECTIOUS_STAGE[src.stage]:
                    continue
                if src.quarantined(step):
                    continue
                t = step - src.infected_at
                lam = edge_hazard(t, bool(ASYMPTOMATIC_LIKE_STAGE[src.stage]),
                                  self.agents[d].age_band, kind, self.disease)
                if lam == 0.0:
                    continue
                incoming.setdefault(d, []).append((s, kind, lam))
        return incoming

    # -- the step ----------------------------------------------------------

    def step(self, graph: StepGraph) -> None:
        step = self.clock
        if graph.step != step:
            raise InvariantViolation(
                f"graph built for step {graph.step}, oracle clock is {step}")

        newly_infected = self._transmission(graph, step)
        newly_symptomatic = self._progression(step)
        if self.iv.testing.enabled:
            self._test_sampling(newly_symptomatic, step)
            self._test_delivery(step)
        if self.iv.quarantine.enabled:
            self._quarantine_dropout(step)
        if self.iv.vaccination.enabled:
            self._vaccination(step)

        if self.iv.den.enabled:
            edges = [(int(srcs[e]), int(dsts[e]))
                     for srcs, dsts in graph.blocks for e in range(len(srcs))]
            self.contact_history.append(edges)
            if len(self.contact_history) > self.iv.den.lookback:
                self.contact_history.pop(0)
        self.clock += 1

    def _transmission(self, graph: StepGraph, step: int) -> list[int]:
        incoming = self._incident_hazards(graph, step)
        infected = []
        for a in self.agents:
            if not self._is_target(a):
                continue
            contributions = sorted(incoming.get(a.agent_id, []))
            if self.mode == self.REPLAY:
                lam = 0.0
                for _, _, h in contributions:
                    lam += h
                p = infection_probability(lam)
                hit = uniform(self.seed, step, Purpose.INFECTION, a.agent_id) < p
            else:
                hit = False
                for j, (_, _, h) in enumerate(contributions):
                    p_edge = infection_probability(h)
                    u = uniform(self.seed, step, Purpose.INFECTION_EDGE,
                                a.agent_id, k=j)
                    if u < p_edge:
                        hit = True
            if hit:
                infected.append(a.agent_id)

        for i in infected:
            a = self.agents[i]
            u_entry = uniform(self.seed, step, Purpose.ENTRY_STAGE, i)
            entry = self.table.entry_stage(a.age_band, u_entry)
            if not self._sterilizing and a.immune:
                entry = Stage.ASYMPTOMATIC
            a.stage = int(entry)
            a.infected_at = step
            u_b = uniform(self.seed, step, Purpose.PROGRESSION_BRANCH, i)
            u_d = uniform(self.seed, step, Purpose.PROGRESSION_DELAY, i)
            nxt, delay = self.table.schedule_transition(Stage(a.stage), a.age_band,
                                                        u_b, u_d)
            a.next_stage = int(nxt)
            a.next_transition_at = step + delay
        return infected

    def _progression(self, step: int) -> list[int]:
        symptomatic = []
        for a in self.agents:
            if a.next_transition_at != step:
                continue
            a.stage = a.next_stage
            if a.stage in (int(Stage.MILD_SYMPTOMATIC), int(Stage.SEVERE_SYMPTOMATIC)):
                symptomatic.append(a.agent_id)
            if a.stage in (int(Stage.RECOVERED), int(Stage.DEAD)):
                a.next_stage = NEVER
                a.next_transition_at = NEVER
            else:
                u_b = uniform(self.seed, step, Purpose.PROGRESSION_BRANCH, a.agent_id)
                u_d = uniform(self.seed, step, Purpose.PROGRESSION_DELAY, a.agent_id)
                nxt, delay = self.table.schedule_transition(Stage(a.stage), a.age_band,
                                                            u_b, u_d)
                a.next_stage = int(nxt)
                a.next_transition_at = step + delay
        return symptomatic

    def _test_sampling(self, newly_symptomatic: list[int], step: int) -> None:
        due_den = [a.agent_id for a in self.agents if a.den_test_due_at == step]
        for i in due_den:
            self.agents[i].den_test_due_at = NEVER
        candidates = sorted(set(newly_symptomatic) | set(due_den))
        kind = self.iv.testing.kind
        for i in candidates:
            a = self.agents[i]
            if a.test_result_at != NEVER or a.stage == int(Stage.DEAD):
                continue
            u_pos = uniform(self.seed, step, Purpose.TEST_POSITIVE, i)
            if ACTIVE_INFECTION_STAGE[a.stage]:
                positive = u_pos < kind.detection_prob
            else:
                positive = u_pos < self.iv.testing.false_positive_prob
            u_turn = uniform(self.seed, step, Purpose.TEST_TURNAROUND, i)
            a.test_sample_at = step
            a.test_result_at = step + kind.turnaround(u_turn)
            a.test_positive = bool(positive)

    def _test_delivery(self, step: int) -> None:
        positives = []
        for a in self.agents:
            if a.test_result_at != step:
                continue
            if a.test_positive:
                positives.append(a.agent_id)
            a.test_result_at = NEVER
            a.test_positive = False
        if self.iv.quarantine.enabled:
            for i in positives:
                a = self.agents[i]
                a.quarantine_until = step + self.iv.quarantine.duration
                a.quarantine_started_at = step
        if self.iv.den.enabled and positives:
            self._notify_contacts(positives, step)

    def _notify_contacts(self, positives: list[int], step: int) -> None:
        notifiers = {i for i in positives if self.agents[i].has_den_app}
        if not notifiers:
            return
        contacts: set[int] = set()
        for edges in self.contact_history:
            for s, d in edges:
                if s in notifiers:
                    contacts.add(d)
        for i in sorted(contacts):
            a = self.agents[i]
            if not a.has_den_app or a.quarantined(step) or a.stage == int(Stage.DEAD):
                continue
            u = uniform(self.seed, step, Purpose.DEN_COMPLIANCE, i)
            if u < self.iv.den.compliance_prob:
                a.den_test_due_at = step + 1

    def _quarantine_dropout(self, step: int) -> None:
        for a in self.agents:
            if a.quarantine_until > step and a.quarantine_started_at < step:
                u = uniform(self.seed, step, Purpose.QUARANTINE_DROPOUT, a.agent_id)
                if u < self.iv.quarantine.dropout_prob:
                    a.quarantine_until = step

    def _vaccination(self, step: int) -> None:
        policy = self.iv.vaccination
        for a in self.agents:
            if a.immunity_check_at == step:
                self._realize_immunity(a, step)

        if not self.vaccination_open:
            infected_now = sum(1 for a in self.agents
                               if ACTIVE_INFECTION_STAGE[a.stage])
            if infected_now >= policy.start_trigger * len(self.agents):
                self.vaccination_open = True
        if not self.vaccination_open:
            return

        budget = policy.doses_per_day(len(self.agents))
        if budget <= 0:
            return
        eligible = []
        d2_flags = []
        for a in self.agents:
            if a.stage in (int(Stage.DEAD), int(Stage.HOSPITALIZED),
                           int(Stage.CRITICAL_ICU)):
                continue
            if a.vaccine_status == int(VaccineStatus.PRE_VACCINATION):
                eligible.append(a.agent_id)
                d2_flags.append(False)
            elif (a.vaccine_status == int(VaccineStatus.FIRST_DOSE)
                  and a.dose1_at != NEVER
                  and step >= a.dose1_at + policy.dose_gap):
                eligible.append(a.agent_id)
                d2_flags.append(True)
        if not eligible:
            return
        ids = np.asarray(eligible, dtype=np.int64)
        d2 = np.asarray(d2_flags, dtype=bool)
        ages = np.asarray([self.agents[i].age_band for i in eligible], dtype=np.int64)
        order = priority_sort_key(policy.strategy, policy.elderly_band,
                                  ages, d2, ids)
        take = ids[order][:budget]
        take_d2 = d2[order][:budget]

        for i, is_second in zip(take.tolist(), take_d2.tolist()):
            a = self.agents[i]
            if not is_second:
                a.vaccine_status = int(VaccineStatus.FIRST_DOSE)
                a.dose1_at = step
                a.immunity_check_at = step + policy.dose1_latency
                a.immunity_check_prob = policy.dose1_efficacy
                a.immunity_check_dose = 1
                if policy.dose1_latency == 0:
                    self._realize_immunity(a, step)
            else:
                a.vaccine_status = int(VaccineStatus.FULLY_VACCINATED)
                a.dose2_at = step
                pending = a.immunity_check_at != NEVER
                prob = policy.dose2_efficacy if pending else policy.dose2_topup_prob()
                if a.immune:
                    prob = 0.0
                a.immunity_check_at = step + policy.dose2_latency
                a.immunity_check_prob = prob
                a.immunity_check_dose = 2
                if policy.dose2_latency == 0:
                    self._realize_immunity(a, step)

    def _realize_immunity(self, a: NaiveAgent, step: int) -> None:
        u = uniform(self.seed, step, Purpose.VACCINE_IMMUNITY, a.agent_id,
                    k=a.immunity_check_dose)
        if u < a.immunity_check_prob and a.stage == int(Stage.SUSCEPTIBLE):
            a.immune = True
            if self._sterilizing:
                a.stage = int(Stage.VACCINATED)
        a.immunity_check_at = NEVER
        a.immunity_check_prob = 0.0
        a.immunity_check_dose = 0
    # -- views -------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Current values of one field across agents (comparison hook)."""
        return np.asarray([getattr(a, name) for a in self.agents])
