"""Vectorized simulation engine.

One ``step(graph)`` call advances the population by one day through a pinned
phase order (the reference oracle mirrors it exactly):

1. transmission: gather per-agent hazard over the edge blocks, one aggregate
   infection draw per agent with hazard, entry-stage assignment, progression
   scheduling for the newly infected;
2. progression: fire transitions due this step, schedule onward transitions;
3. test sampling: agents who just turned symptomatic plus notified agents
   whose follow-up test is due;
4. test result delivery: positives start quarantine and (when enabled)
   trigger exposure notifications with next-step compliance follow-ups;
5. quarantine dropout for agents quarantined before this step;
6. vaccination: resolve due immunity checks, then administer the daily dose
   budget in priority order once the start trigger has latched;
7. bookkeeping: contact-log push, event counts, invariant checks, clock.

Hazard accumulation visits only edges from a live source into a susceptible
target, one network block at a time, and sums them in canonical (target,
source, network) edge order, so the gather is invariant to any permutation of
the edges inside a block bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .graphs import StepGraph
from .interventions import ImmunityMode, InterventionConfig, ContactLog, priority_sort_key
from .progression import ProgressionTable
from .rng import Purpose, uniforms
from .stages import (ACTIVE_INFECTION_STAGE, ASYMPTOMATIC_LIKE_STAGE,
                     INFECTIOUS_STAGE, N_NETWORK_KINDS, NEVER, Stage,
                     VaccineStatus)
from .state import AgentColumns
from .transmission import DiseaseParams


@dataclass
class StepEvents:
    """Per-step outcome counts, for time-series logging and benchmarks."""

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
        self._sterilizing = (interventions.vaccination.immunity_mode
                             == ImmunityMode.STERILIZING)

    # -- transmission -----------------------------------------------------

    def gather_exposure(self, graph: StepGraph) -> np.ndarray:
        """Summed hazard per agent; zero for everyone who cannot be infected.

        Only edges from a live source (infectious, not quarantined, inside
        the infectiousness window) into a target are gathered.  Their
        contributions are accumulated per target in (source id, network kind)
        order, making the result independent of edge-list permutation.
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
        for kind, (src, dst) in enumerate(graph.blocks):
            idx = np.flatnonzero(source.take(src))
            idx = idx[target.take(dst.take(idx))]
            keys.append((dst.take(idx).astype(np.int64) * n + src.take(idx))
                        * N_NETWORK_KINDS + kind)
        # one key per (target, source, kind); equal keys carry equal hazard,
        # so sorting the keys alone leaves every per-target sum bit-identical
        key = np.sort(np.concatenate(keys))
        if not len(key):
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
        c = self.cols
        mask = c.stage == int(Stage.SUSCEPTIBLE)
        if self._sterilizing:
            mask &= ~c.immune
        return mask

    # -- the step ----------------------------------------------------------

    def step(self, graph: StepGraph) -> StepEvents:
        c = self.cols
        step = self.clock
        if graph.step != step:
            raise InvariantViolation(
                f"graph built for step {graph.step}, engine clock is {step}")
        for src, dst in graph.blocks:
            if not len(src):
                continue
            top = max(int(src.max()), int(dst.max()))
            if top >= c.n_agents:
                raise InvariantViolation(
                    f"graph references agent {top} >= n_agents {c.n_agents}")
            if np.any(src == dst):
                raise InvariantViolation("graph contains a self-loop")
        ev = StepEvents(step=step, n_edges=graph.n_edges)

        self._phase_transmission(graph, ev)
        newly_symptomatic = self._phase_progression(ev)
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
        c = self.cols
        step = self.clock
        hazard = self.gather_exposure(graph)
        if np.any(hazard < 0):
            raise InvariantViolation("negative hazard out of gather")
        # only targets carry hazard, and the draws are keyed per agent
        exposed = np.flatnonzero(hazard)
        u = uniforms(self.seed, step, Purpose.INFECTION, exposed)
        new = exposed[u < 1.0 - np.exp(-hazard[exposed])]
        if not len(new):
            return
        u_entry = uniforms(self.seed, step, Purpose.ENTRY_STAGE, new)
        entry = self.table.entry_stages(c.age_band[new], u_entry)
        if not self._sterilizing:
            entry = np.where(c.immune[new], np.int8(Stage.ASYMPTOMATIC), entry)
        c.stage[new] = entry
        c.infected_at[new] = step
        u_b = uniforms(self.seed, step, Purpose.PROGRESSION_BRANCH, new)
        u_d = uniforms(self.seed, step, Purpose.PROGRESSION_DELAY, new)
        nxt, delay = self.table.schedule_transitions(entry, c.age_band[new], u_b, u_d)
        c.next_stage[new] = nxt
        c.next_transition_at[new] = step + delay
        ev.new_infections = len(new)

    def _phase_progression(self, ev: StepEvents) -> np.ndarray:
        c = self.cols
        step = self.clock
        due = np.nonzero(c.next_transition_at == step)[0]
        if not len(due):
            return np.empty(0, dtype=np.int64)
        dest = c.next_stage[due].copy()
        c.stage[due] = dest
        symptomatic = due[(dest == int(Stage.MILD_SYMPTOMATIC))
                          | (dest == int(Stage.SEVERE_SYMPTOMATIC))]
        absorbing = (dest == int(Stage.RECOVERED)) | (dest == int(Stage.DEAD))
        c.next_stage[due[absorbing]] = NEVER
        c.next_transition_at[due[absorbing]] = NEVER
        onward = due[~absorbing]
        if len(onward):
            u_b = uniforms(self.seed, step, Purpose.PROGRESSION_BRANCH, onward)
            u_d = uniforms(self.seed, step, Purpose.PROGRESSION_DELAY, onward)
            nxt, delay = self.table.schedule_transitions(
                c.stage[onward], c.age_band[onward], u_b, u_d)
            c.next_stage[onward] = nxt
            c.next_transition_at[onward] = step + delay
        return symptomatic

    def _phase_test_sampling(self, newly_symptomatic: np.ndarray,
                             ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        den_due = np.nonzero(c.den_test_due_at == step)[0]
        c.den_test_due_at[den_due] = NEVER
        candidates = np.unique(np.concatenate([newly_symptomatic, den_due]))
        if not len(candidates):
            return
        ok = ((c.test_result_at[candidates] == NEVER)
              & (c.stage[candidates] != int(Stage.DEAD)))
        ids = candidates[ok]
        if not len(ids):
            return
        kind = self.iv.testing.kind
        u_pos = uniforms(self.seed, step, Purpose.TEST_POSITIVE, ids)
        active = ACTIVE_INFECTION_STAGE[c.stage[ids]]
        positive = np.where(active, u_pos < kind.detection_prob,
                            u_pos < self.iv.testing.false_positive_prob)
        u_turn = uniforms(self.seed, step, Purpose.TEST_TURNAROUND, ids)
        c.test_sample_at[ids] = step
        c.test_result_at[ids] = step + kind.turnaround(u_turn)
        c.test_positive[ids] = positive
        ev.tests_administered = len(ids)

    def _phase_test_delivery(self, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        due = np.nonzero(c.test_result_at == step)[0]
        if not len(due):
            return
        positives = due[c.test_positive[due]]
        c.test_result_at[due] = NEVER
        c.test_positive[due] = False
        if self.iv.quarantine.enabled and len(positives):
            c.quarantine_until[positives] = step + self.iv.quarantine.duration
            c.quarantine_started_at[positives] = step
        if self.iv.den.enabled and len(positives):
            self._notify_contacts(positives, ev)

    def _notify_contacts(self, positives: np.ndarray, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        notifiers = positives[c.has_den_app[positives]]
        if not len(notifiers) or self.contact_log is None:
            return
        contacts = self.contact_log.contacts_of(notifiers)   # app holders only
        if not len(contacts):
            return
        keep = ((c.quarantine_until[contacts] <= step)
                & (c.stage[contacts] != int(Stage.DEAD)))
        notified = contacts[keep]
        if not len(notified):
            return
        ev.notifications_sent = len(notified)
        u = uniforms(self.seed, step, Purpose.DEN_COMPLIANCE, notified)
        compliant = notified[u < self.iv.den.compliance_prob]
        c.den_test_due_at[compliant] = step + 1

    def _phase_quarantine_dropout(self) -> None:
        c = self.cols
        step = self.clock
        q = np.nonzero((c.quarantine_until > step)
                       & (c.quarantine_started_at < step))[0]
        if not len(q):
            return
        u = uniforms(self.seed, step, Purpose.QUARANTINE_DROPOUT, q)
        leavers = q[u < self.iv.quarantine.dropout_prob]
        c.quarantine_until[leavers] = step

    def _phase_vaccination(self, ev: StepEvents) -> None:
        c = self.cols
        step = self.clock
        policy = self.iv.vaccination

        due = np.nonzero(c.immunity_check_at == step)[0]
        for dose_k in (1, 2):
            ids = due[c.immunity_check_dose[due] == dose_k]
            if len(ids):
                self._realize_immunity(ids, dose_k)

        if not self.vaccination_open:
            infected_now = int(ACTIVE_INFECTION_STAGE[c.stage].sum())
            if infected_now >= policy.start_trigger * c.n_agents:
                self.vaccination_open = True
        if not self.vaccination_open:
            return

        budget = policy.doses_per_day(c.n_agents)
        if budget <= 0:
            return
        blocked = ((c.stage == int(Stage.DEAD))
                   | (c.stage == int(Stage.HOSPITALIZED))
                   | (c.stage == int(Stage.CRITICAL_ICU)))
        d1 = (c.vaccine_status == int(VaccineStatus.PRE_VACCINATION)) & ~blocked
        d2 = ((c.vaccine_status == int(VaccineStatus.FIRST_DOSE))
              & (c.dose1_at != NEVER)
              & (step >= c.dose1_at + policy.dose_gap) & ~blocked)
        eligible = np.nonzero(d1 | d2)[0]
        if not len(eligible):
            return
        order = priority_sort_key(policy.strategy, policy.elderly_band,
                                  c.age_band[eligible], d2[eligible],
                                  eligible)
        take = eligible[order][:budget]
        ev.doses_given = len(take)

        second_mask = d2[take]
        first = take[~second_mask]
        second = take[second_mask]
        if len(first):
            c.vaccine_status[first] = int(VaccineStatus.FIRST_DOSE)
            c.dose1_at[first] = step
            c.immunity_check_at[first] = step + policy.dose1_latency
            c.immunity_check_prob[first] = policy.dose1_efficacy
            c.immunity_check_dose[first] = 1
            if policy.dose1_latency == 0:
                self._realize_immunity(first, 1)

        if len(second):
            c.vaccine_status[second] = int(VaccineStatus.FULLY_VACCINATED)
            c.dose2_at[second] = step
            pending = c.immunity_check_at[second] != NEVER
            prob = np.where(pending, policy.dose2_efficacy,
                            policy.dose2_topup_prob())
            prob = np.where(c.immune[second], 0.0, prob)
            c.immunity_check_at[second] = step + policy.dose2_latency
            c.immunity_check_prob[second] = prob
            c.immunity_check_dose[second] = 2
            if policy.dose2_latency == 0:
                self._realize_immunity(second, 2)

    def _realize_immunity(self, ids: np.ndarray, dose_k: int) -> None:
        c = self.cols
        u = uniforms(self.seed, self.clock, Purpose.VACCINE_IMMUNITY, ids, k=dose_k)
        ok = ids[(u < c.immunity_check_prob[ids])
                 & (c.stage[ids] == int(Stage.SUSCEPTIBLE))]
        c.immune[ok] = True
        if self._sterilizing:
            c.stage[ok] = int(Stage.VACCINATED)
        c.immunity_check_at[ids] = NEVER
        c.immunity_check_prob[ids] = 0.0
        c.immunity_check_dose[ids] = 0
