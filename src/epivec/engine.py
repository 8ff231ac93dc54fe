"""Vectorized simulation engine.

One ``step(graph)`` call advances the population by one day through a pinned
phase order (the reference oracle mirrors it exactly):

1. transmission: gather per-agent hazard over the edge blocks, one aggregate
   infection draw per agent with hazard, then ``ProgressionTable.infect`` for
   the newly infected (entry stage and first scheduled transition);
2. progression: every agent due this step ``ProgressionTable.enter``s its
   next stage, which schedules the onward transition (none out of recovered
   or dead);
3. test sampling: agents who just turned symptomatic plus notified agents
   whose follow-up test is due;
4. test result delivery: positives start quarantine and (when enabled)
   trigger exposure notifications with next-step compliance follow-ups;
5. quarantine dropout for agents quarantined before this step;
6. vaccination: resolve due immunity checks, then administer the daily dose
   budget in priority order once the start trigger has latched;
7. bookkeeping: contact-log push, event counts, invariant checks, clock.

Every phase runs one path for any number of agents: on an empty selection
its array operations do nothing.  The README ("One path for any size") states
that rule for the whole package and lists the six branches on an empty set
that stay, each with the reason it does.

Hazard accumulation reads each pair of a network block in both directions,
visits only those from a live source into a susceptible target, and sums them
in canonical (target, source, network) order, so the gather is invariant
bit-for-bit to the order and the orientation of the pairs inside a block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graphs import StepGraph
from .interventions import InterventionConfig, ContactLog, priority_sort_key
from .progression import ProgressionTable
from .rng import Purpose, uniforms
from .stages import (ACTIVE_INFECTION_STAGE, ASYMPTOMATIC_LIKE_STAGE,
                     INFECTIOUS_STAGE, N_NETWORK_KINDS, NEVER, Stage)
from .state import AgentColumns
from .transmission import DiseaseParams


def _unsigned(ids: np.ndarray) -> np.ndarray:
    """``ids`` viewed as the unsigned integers of its width."""
    return ids.view(ids.dtype.str.replace("i", "u"))


@dataclass
class StepEvents:
    """Per-step outcome counts, for time-series logging and benchmarks;
    ``verify`` compares them with the counts the oracle makes itself."""

    step: int
    n_edges: int = 0
    new_infections: int = 0
    tests_administered: int = 0
    doses_given: int = 0
    notifications_sent: int = 0


class Engine:
    """Single-writer columnar engine for one replication."""

    def __init__(self, cols: AgentColumns, disease: DiseaseParams,
                 table: ProgressionTable, interventions: InterventionConfig,
                 seed: int):
        self.cols = cols
        self.disease = disease
        self.table = table
        self.iv = interventions
        self.seed = seed
        self.clock = 0
        self.vaccination_open = False
        self.contact_log = ContactLog(interventions.den.lookback,
                                      cols.has_den_app) \
            if interventions.den.enabled else None

    # -- transmission -----------------------------------------------------

    def gather_exposure(self, graph: StepGraph) -> np.ndarray:
        """Summed hazard per agent; zero for everyone who cannot be infected.

        Each pair is read both ways; only edges from a live source (infectious,
        not quarantined, inside the infectiousness window) into a target are
        gathered, and accumulated per target in (source id, network kind)
        order, so the order and orientation of the pairs do not matter.
        """
        c = self.cols
        p = self.disease
        step = self.clock
        n = c.n_agents
        t = step - c.infected_at.astype(np.int64)
        source = (INFECTIOUS_STAGE[c.stage] & (c.quarantine_until <= step)
                  & (t >= 1) & (t <= p.t_max))
        target = self._target_mask()
        keys = []
        for kind, (u, v) in enumerate(graph.blocks):
            for src, dst in ((u, v), (v, u)):
                idx = np.flatnonzero(source.take(src))
                idx = idx[target.take(dst.take(idx))]
                keys.append((dst.take(idx).astype(np.int64) * n + src.take(idx))
                            * N_NETWORK_KINDS + kind)
        # one key per (target, source, kind); equal keys carry equal hazard,
        # so sorting the keys alone leaves every per-target sum bit-identical
        key = np.sort(np.concatenate(keys))
        if not len(key):   # bincount of no index returns int64, not float64
            return np.zeros(n, dtype=np.float64)
        k = key % N_NETWORK_KINDS
        d, s = np.divmod(key // N_NETWORK_KINDS, n)
        a = np.where(ASYMPTOMATIC_LIKE_STAGE[c.stage[s]],
                     p.asymptomatic_factor, 1.0)
        lam = (p.rate_scale
               * p.age_susceptibility[c.age_band[d]]
               * a
               * p.network_scale[k]
               / p.mean_daily_interactions
               * p.day_weights[t[s]])
        return np.bincount(d, weights=lam, minlength=n)

    def _target_mask(self) -> np.ndarray:
        # a sterilized agent is vaccinated, so no target is immune (state.py)
        return self.cols.stage == int(Stage.SUSCEPTIBLE)

    # -- the step ----------------------------------------------------------

    def step(self, graph: StepGraph) -> StepEvents:
        c = self.cols
        step = self.clock
        if graph.step != step:
            raise InvariantViolation(
                f"graph built for step {graph.step}, engine clock is {step}")
        for u, v in graph.blocks:
            if len(u) != len(v):
                raise InvariantViolation(
                    f"graph block has {len(u)} and {len(v)} pair ends")
            # viewed as unsigned, a negative id reads as a huge one
            top = max(_unsigned(u).max(initial=0), _unsigned(v).max(initial=0))
            if top >= c.n_agents:
                ends = np.concatenate([u, v])
                bad = ends[(ends < 0) | (ends >= c.n_agents)][0]
                raise InvariantViolation(f"graph references agent {bad} outside "
                                         f"[0, n_agents {c.n_agents})")
            if np.any(u == v):
                raise InvariantViolation("graph contains a self-loop")
        ev = StepEvents(step=step, n_edges=graph.n_edges)

        self._phase_transmission(graph, ev)
        newly_symptomatic = self._phase_progression()
        if self.iv.testing.enabled:
            self._phase_test_sampling(newly_symptomatic, ev)
            self._phase_test_delivery(ev)
        if self.iv.quarantine.enabled:
            self._phase_quarantine_dropout()
        if self.iv.vaccination.enabled:
            self._phase_vaccination(ev)

        if self.contact_log is not None:
            self.contact_log.push(graph)
        c.check_invariants(step)
        self.clock += 1
        return ev

    def _phase_transmission(self, graph: StepGraph, ev: StepEvents) -> None:
        step = self.clock
        hazard = self.gather_exposure(graph)
        if np.any(hazard < 0):
            raise InvariantViolation("negative hazard out of gather")
        # only targets carry hazard, and the draws are keyed per agent
        exposed = np.flatnonzero(hazard)
        u = uniforms(self.seed, step, Purpose.INFECTION, exposed)
        new = exposed[u < 1.0 - np.exp(-hazard[exposed])]
        self.table.infect(self.cols, new, self.seed, step)
        ev.new_infections = len(new)

    def _phase_progression(self) -> np.ndarray:
        c = self.cols
        due = np.nonzero(c.next_transition_at == self.clock)[0]
        dest = c.next_stage[due]
        self.table.enter(c, due, dest, self.seed, self.clock)
        return due[(dest == int(Stage.MILD_SYMPTOMATIC))
                   | (dest == int(Stage.SEVERE_SYMPTOMATIC))]

    def _phase_test_sampling(self, newly_symptomatic: np.ndarray,
                             ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        den_due = np.nonzero(c.den_test_due_at == step)[0]
        c.den_test_due_at[den_due] = NEVER
        candidates = np.unique(np.concatenate([newly_symptomatic, den_due]))
        ok = ((c.test_result_at[candidates] == NEVER)
              & (c.stage[candidates] != int(Stage.DEAD)))
        ids = candidates[ok]
        kind = self.iv.testing.kind
        u_pos = uniforms(self.seed, step, Purpose.TEST_POSITIVE, ids)
        active = ACTIVE_INFECTION_STAGE[c.stage[ids]]
        positive = np.where(active, u_pos < kind.detection_prob,
                            u_pos < self.iv.testing.false_positive_prob)
        u_turn = uniforms(self.seed, step, Purpose.TEST_TURNAROUND, ids)
        c.test_result_at[ids] = step + kind.turnaround(u_turn)
        c.test_positive[ids] = positive
        ev.tests_administered = len(ids)

    def _phase_test_delivery(self, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        due = np.nonzero(c.test_result_at == step)[0]
        positives = due[c.test_positive[due]]
        c.test_result_at[due] = NEVER
        c.test_positive[due] = False
        if self.iv.quarantine.enabled:
            c.quarantine_until[positives] = step + self.iv.quarantine.duration
        if self.iv.den.enabled:
            self._notify_contacts(positives, ev)

    def _notify_contacts(self, positives: np.ndarray, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        notifiers = positives[c.has_den_app[positives]]
        if not len(notifiers):   # skips the scan of every block in the window
            return
        contacts = self.contact_log.contacts_of(notifiers)   # app holders only
        keep = ((c.quarantine_until[contacts] <= step)
                & (c.stage[contacts] != int(Stage.DEAD)))
        notified = contacts[keep]
        ev.notifications_sent = len(notified)
        u = uniforms(self.seed, step, Purpose.DEN_COMPLIANCE, notified)
        compliant = notified[u < self.iv.den.compliance_prob]
        c.den_test_due_at[compliant] = step + 1

    def _phase_quarantine_dropout(self) -> None:
        c = self.cols
        step = self.clock
        q = np.nonzero((c.quarantine_until > step)
                       & (c.quarantine_until < step + self.iv.quarantine.duration))[0]
        u = uniforms(self.seed, step, Purpose.QUARANTINE_DROPOUT, q)
        leavers = q[u < self.iv.quarantine.dropout_prob]
        c.quarantine_until[leavers] = step

    def _phase_vaccination(self, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        policy = self.iv.vaccination

        # when a check falls due (state.py); step - latency can be NEVER
        no_dose2 = c.dose2_at == NEVER
        due = ((no_dose2 & (c.dose1_at != NEVER)
                & (c.dose1_at == step - policy.dose1_latency))
               | (~no_dose2 & (c.dose2_at == step - policy.dose2_latency)))
        self._realize_immunity(np.flatnonzero(due))

        if not self.vaccination_open:
            infected_now = int(ACTIVE_INFECTION_STAGE[c.stage].sum())
            if infected_now >= policy.start_trigger * c.n_agents:
                self.vaccination_open = True
        if not self.vaccination_open:
            return

        budget = policy.doses_per_day(c.n_agents)
        blocked = ((c.stage == int(Stage.DEAD))
                   | (c.stage == int(Stage.HOSPITALIZED))
                   | (c.stage == int(Stage.CRITICAL_ICU)))
        d1 = (c.dose1_at == NEVER) & ~blocked
        d2 = ((c.dose1_at != NEVER) & (c.dose2_at == NEVER)
              & (step >= c.dose1_at + policy.dose_gap) & ~blocked)
        eligible = np.nonzero(d1 | d2)[0]
        order = priority_sort_key(policy.strategy, policy.elderly_band,
                                  c.age_band[eligible], d2[eligible])
        take = eligible[order[:budget]]
        ev.doses_given = len(take)

        second = d2[take]
        c.dose1_at[take[~second]] = step
        c.dose2_at[take[second]] = step
        latency = np.where(second, policy.dose2_latency, policy.dose1_latency)
        self._realize_immunity(take[latency == 0])

    def _realize_immunity(self, ids: np.ndarray) -> None:
        c = self.cols
        policy = self.iv.vaccination
        # a due check is dose 2's iff dose 2 was given; it rolls the full
        # second-dose efficacy iff dose 1's check was still pending (state.py)
        second = c.dose2_at[ids] != NEVER
        pending = c.dose1_at[ids] + policy.dose1_latency > c.dose2_at[ids]
        prob = np.where(second, np.where(pending, policy.dose2_efficacy,
                                         policy.dose2_topup_prob()),
                        policy.dose1_efficacy)
        u = uniforms(self.seed, self.clock, Purpose.VACCINE_IMMUNITY, ids,
                     k=np.where(second, 2, 1))
        ok = ids[(u < prob) & (c.stage[ids] == int(Stage.SUSCEPTIBLE))]
        c.immune[ok] = True
        if policy.sterilizing:
            c.stage[ok] = int(Stage.VACCINATED)
