"""Naive per-agent reference implementation.

Agents are plain records and every rule runs as an explicit Python loop over
agents and edges.  Used to cross-check the vectorized engine: the oracle
consumes the same keyed draws as the engine (one aggregate infection draw per
agent), so trajectories must match bit for bit.  It shares draws and tables
with the engine, not algorithms: a stage entry is its own ``_enter``, a branch
is picked by walking the table's edges with a running sum of their
probabilities (``_branch``), vaccine doses go out in an order it sorts itself,
from the priority rule written out as a tuple, and it counts each step's
events in its own loops.

No performance work here on purpose: the loops are the point.  The records
are typed by hand: a new agent column is declared in ``AgentColumns``
(``state.py``) and gets a plain field on ``NaiveAgent`` at the same position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import StepEvents
from .errors import InvariantViolation
from .graphs import StepGraph
from .interventions import InterventionConfig, Strategy
from .progression import Edge, ProgressionTable, round_delay
from .rng import Purpose, uniform
from .stages import (ACTIVE_INFECTION_STAGE, ASYMPTOMATIC_LIKE_STAGE,
                     INFECTIOUS_STAGE, NEVER, Stage)
from .state import AGENT_COLUMNS, AgentColumns
from .transmission import DiseaseParams, edge_hazard, infection_probability


@dataclass
class NaiveAgent:
    """One agent as an individual record: ``agent_id``, then one field per
    agent column, in ``AGENT_COLUMNS`` order.  Like the columns, the fields
    store no fact that others determine: the doses had, when an immunity
    check falls due, its dose and its probability, dropout eligibility and
    whether an agent can be infected are read off them (``state.py``)."""

    agent_id: int
    age_band: int
    occupation: int
    household_id: int
    stage: int
    infected_at: int
    next_transition_at: int
    next_stage: int
    quarantine_until: int
    has_den_app: bool
    dose1_at: int
    dose2_at: int
    immune: bool
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

    def __init__(self, agents: list[NaiveAgent], disease: DiseaseParams,
                 table: ProgressionTable, interventions: InterventionConfig,
                 seed: int):
        self.agents = agents
        self.disease = disease
        self.table = table
        self.iv = interventions
        self.seed = seed
        self.clock = 0
        self.vaccination_open = False
        self.contact_history: list[list[tuple[int, int]]] = []

    # -- helpers -----------------------------------------------------------

    def _is_target(self, a: NaiveAgent) -> bool:
        return a.stage == int(Stage.SUSCEPTIBLE)

    def _incident_hazards(self, graph: StepGraph, step: int):
        """Per-target lists of (source id, kind, hazard), each pair walked both ways."""
        incoming: dict[int, list[tuple[int, int, float]]] = {}
        for kind, (us, vs) in enumerate(graph.blocks):
            for e in range(len(us)):
                for s, d in ((int(us[e]), int(vs[e])), (int(vs[e]), int(us[e]))):
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

    def step(self, graph: StepGraph) -> StepEvents:
        """Advance one step; return the graph's edge count and the step's four
        event counts, each counted in the loops below."""
        step = self.clock
        if graph.step != step:
            raise InvariantViolation(
                f"graph built for step {graph.step}, oracle clock is {step}")
        ev = StepEvents(step=step, n_edges=graph.n_edges)

        ev.new_infections = len(self._transmission(graph, step))
        newly_symptomatic = self._progression(step)
        if self.iv.testing.enabled:
            ev.tests_administered = self._test_sampling(newly_symptomatic, step)
            ev.notifications_sent = self._test_delivery(step)
        if self.iv.quarantine.enabled:
            self._quarantine_dropout(step)
        if self.iv.vaccination.enabled:
            ev.doses_given = self._vaccination(step)

        if self.iv.den.enabled:
            edges = [(int(a), int(b)) for us, vs in graph.blocks for e in range(len(us))
                     for a, b in ((us[e], vs[e]), (vs[e], us[e]))]
            self.contact_history.append(edges)
            if len(self.contact_history) > self.iv.den.lookback:
                self.contact_history.pop(0)
        self.clock += 1
        return ev

    def _transmission(self, graph: StepGraph, step: int) -> list[int]:
        incoming = self._incident_hazards(graph, step)
        infected = []
        for a in self.agents:
            if not self._is_target(a):
                continue
            lam = 0.0
            for _, _, h in sorted(incoming.get(a.agent_id, [])):
                lam += h
            p = infection_probability(lam)
            if uniform(self.seed, step, Purpose.INFECTION, a.agent_id) < p:
                infected.append(a.agent_id)

        for i in infected:
            a = self.agents[i]
            u_entry = uniform(self.seed, step, Purpose.ENTRY_STAGE, i)
            entry = self._branch(Stage.SUSCEPTIBLE, a.age_band, u_entry).to
            if a.immune:
                entry = Stage.ASYMPTOMATIC
            a.infected_at = step
            self._enter(a, int(entry), step)
        return infected

    def _progression(self, step: int) -> list[int]:
        symptomatic = []
        for a in self.agents:
            if a.next_transition_at != step:
                continue
            self._enter(a, a.next_stage, step)
            if a.stage in (int(Stage.MILD_SYMPTOMATIC), int(Stage.SEVERE_SYMPTOMATIC)):
                symptomatic.append(a.agent_id)
        return symptomatic

    def _enter(self, a: NaiveAgent, stage: int, step: int) -> None:
        """Move ``a`` into ``stage`` at ``step`` and schedule where and when it
        goes next from its keyed draws; none out of recovered or dead."""
        a.stage = stage
        nxt, at = NEVER, NEVER
        if stage not in (int(Stage.RECOVERED), int(Stage.DEAD)):
            u_b = uniform(self.seed, step, Purpose.PROGRESSION_BRANCH, a.agent_id)
            u_d = uniform(self.seed, step, Purpose.PROGRESSION_DELAY, a.agent_id)
            edge = self._branch(stage, a.age_band, u_b)
            nxt = int(edge.to)
            at = step + int(round_delay(edge.duration.quantile(u_d)))
        a.next_stage, a.next_transition_at = nxt, at

    def _branch(self, stage: int, age_band: int, u: float) -> Edge:
        """The edge out of ``stage`` that draw ``u`` takes: the first whose
        running sum of branch probabilities exceeds ``u``, else the last."""
        out = [e for e in self.table.edges if e.from_ == stage]
        total = 0.0
        for edge in out:
            total += edge.probability[age_band]
            if u < total:
                return edge
        return out[-1]

    def _test_sampling(self, newly_symptomatic: list[int], step: int) -> int:
        """Sample the due tests; return how many were taken."""
        due_den = [a.agent_id for a in self.agents if a.den_test_due_at == step]
        for i in due_den:
            self.agents[i].den_test_due_at = NEVER
        candidates = sorted(set(newly_symptomatic) | set(due_den))
        kind = self.iv.testing.kind
        tests = 0
        for i in candidates:
            a = self.agents[i]
            if a.test_result_at != NEVER or a.stage == int(Stage.DEAD):
                continue
            tests += 1
            u_pos = uniform(self.seed, step, Purpose.TEST_POSITIVE, i)
            if ACTIVE_INFECTION_STAGE[a.stage]:
                positive = u_pos < kind.detection_prob
            else:
                positive = u_pos < self.iv.testing.false_positive_prob
            u_turn = uniform(self.seed, step, Purpose.TEST_TURNAROUND, i)
            a.test_result_at = step + int(kind.turnaround(u_turn))
            a.test_positive = bool(positive)
        return tests

    def _test_delivery(self, step: int) -> int:
        """Deliver the due results; return how many contacts were notified."""
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
        if self.iv.den.enabled and positives:
            return self._notify_contacts(positives, step)
        return 0

    def _notify_contacts(self, positives: list[int], step: int) -> int:
        notifiers = {i for i in positives if self.agents[i].has_den_app}
        if not notifiers:
            return 0
        contacts: set[int] = set()
        for edges in self.contact_history:
            for s, d in edges:
                if s in notifiers:
                    contacts.add(d)
        notified = 0
        for i in sorted(contacts):
            a = self.agents[i]
            if not a.has_den_app or a.quarantined(step) or a.stage == int(Stage.DEAD):
                continue
            notified += 1
            u = uniform(self.seed, step, Purpose.DEN_COMPLIANCE, i)
            if u < self.iv.den.compliance_prob:
                a.den_test_due_at = step + 1
        return notified

    def _quarantine_dropout(self, step: int) -> None:
        for a in self.agents:
            if step < a.quarantine_until < step + self.iv.quarantine.duration:
                u = uniform(self.seed, step, Purpose.QUARANTINE_DROPOUT, a.agent_id)
                if u < self.iv.quarantine.dropout_prob:
                    a.quarantine_until = step

    def _vaccination(self, step: int) -> int:
        """Resolve the due immunity checks, then dose; return the doses given."""
        policy = self.iv.vaccination
        for a in self.agents:
            # dose k's check falls due dose<k>_latency steps after it, dose 1's
            # only while there is no dose 2
            if a.dose2_at != NEVER:
                due = a.dose2_at + policy.dose2_latency == step
            else:
                due = a.dose1_at != NEVER and a.dose1_at + policy.dose1_latency == step
            if due:
                self._realize_immunity(a, step)

        if not self.vaccination_open:
            infected_now = sum(1 for a in self.agents
                               if ACTIVE_INFECTION_STAGE[a.stage])
            if infected_now >= policy.start_trigger * len(self.agents):
                self.vaccination_open = True
        if not self.vaccination_open:
            return 0

        budget = policy.doses_per_day(len(self.agents))
        if budget <= 0:
            return 0
        eligible = []   # (agent, is second dose)
        for a in self.agents:
            if a.stage in (int(Stage.DEAD), int(Stage.HOSPITALIZED),
                           int(Stage.CRITICAL_ICU)):
                continue
            if a.dose1_at == NEVER:
                eligible.append((a, False))
            elif a.dose2_at == NEVER and step >= a.dose1_at + policy.dose_gap:
                eligible.append((a, True))

        doses = sorted(eligible, key=lambda e: self._priority(*e))[:budget]
        for a, is_second in doses:
            if is_second:
                a.dose2_at = step
                latency = policy.dose2_latency
            else:
                a.dose1_at = step
                latency = policy.dose1_latency
            if latency == 0:
                self._realize_immunity(a, step)
        return len(doses)

    def _priority(self, a: NaiveAgent, is_second: bool) -> tuple:
        """Vaccination order: group by strategy, age band descending, first
        dose before second, agent id.  Standard dosing puts second doses
        first, delayed dosing first doses; delayed-except-elderly puts the
        elderly bands first, both doses mixed, then the rest, first doses first."""
        policy = self.iv.vaccination
        if policy.strategy == Strategy.STANDARD_DOSING:
            group = 0 if is_second else 1
        elif policy.strategy == Strategy.DELAYED_SECOND_DOSE:
            group = 1 if is_second else 0
        else:   # DELAYED_EXCEPT_ELDERLY
            group = 0 if a.age_band >= policy.elderly_band else 1 + is_second
        return (group, -a.age_band, is_second, a.agent_id)

    def _realize_immunity(self, a: NaiveAgent, step: int) -> None:
        policy = self.iv.vaccination
        if a.dose2_at == NEVER:
            dose_k, prob = 1, policy.dose1_efficacy
        elif a.dose1_at + policy.dose1_latency > a.dose2_at:   # dose 1's pending
            dose_k, prob = 2, policy.dose2_efficacy
        else:
            dose_k, prob = 2, policy.dose2_topup_prob()
        u = uniform(self.seed, step, Purpose.VACCINE_IMMUNITY, a.agent_id, k=dose_k)
        if u < prob and a.stage == int(Stage.SUSCEPTIBLE):
            a.immune = True
            if policy.sterilizing:
                a.stage = int(Stage.VACCINATED)

    # -- views -------------------------------------------------------------

    def column(self, name: str) -> np.ndarray:
        """Current values of one field across agents (comparison hook)."""
        return np.asarray([getattr(a, name) for a in self.agents])
