"""Columnar agent state: one numpy array per attribute, one row per agent.

Step indices use -1 (NEVER) as the "not scheduled / never happened" sentinel.
An agent is quarantined at step t iff quarantine_until > t.  A test is
pending iff test_result_at != NEVER.  Pending vaccine-immunity realizations
carry the probability decided at scheduling time (first dose: configured
efficacy; second dose: the top-up that lifts the marginal to the second-dose
efficacy).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvariantViolation
from .stages import NEVER, N_STAGES, Stage, VaccineStatus


@dataclass
class AgentColumns:
    n_agents: int
    # static
    age_band: np.ndarray          # int8, 0..8
    occupation: np.ndarray        # int16, 0 = not employed, 1..23
    household_id: np.ndarray      # int32
    random_degree: np.ndarray     # float64, mean daily random interactions
    # dynamic
    stage: np.ndarray             # int8 Stage
    infected_at: np.ndarray       # int32 step or NEVER
    next_transition_at: np.ndarray  # int32 step or NEVER
    next_stage: np.ndarray        # int8 Stage or NEVER
    quarantine_until: np.ndarray  # int32; quarantined while > current step
    quarantine_started_at: np.ndarray  # int32 step or NEVER
    has_den_app: np.ndarray       # bool
    vaccine_status: np.ndarray    # int8 VaccineStatus
    dose1_at: np.ndarray          # int32 step or NEVER
    dose2_at: np.ndarray          # int32 step or NEVER
    immune: np.ndarray            # bool, vaccine immunity realized
    immunity_check_at: np.ndarray   # int32 step or NEVER
    immunity_check_prob: np.ndarray  # float64 probability for the pending check
    immunity_check_dose: np.ndarray  # int8 dose that scheduled the check (0 = none)
    test_sample_at: np.ndarray    # int32 step or NEVER
    test_result_at: np.ndarray    # int32 step or NEVER (pending while set)
    test_positive: np.ndarray     # bool, outcome decided at sampling
    den_test_due_at: np.ndarray   # int32 step or NEVER

    @classmethod
    def allocate(cls, n: int) -> "AgentColumns":
        return cls(
            n_agents=n,
            age_band=np.zeros(n, dtype=np.int8),
            occupation=np.zeros(n, dtype=np.int16),
            household_id=np.zeros(n, dtype=np.int32),
            random_degree=np.zeros(n, dtype=np.float64),
            stage=np.full(n, int(Stage.SUSCEPTIBLE), dtype=np.int8),
            infected_at=np.full(n, NEVER, dtype=np.int32),
            next_transition_at=np.full(n, NEVER, dtype=np.int32),
            next_stage=np.full(n, NEVER, dtype=np.int8),
            quarantine_until=np.full(n, NEVER, dtype=np.int32),
            quarantine_started_at=np.full(n, NEVER, dtype=np.int32),
            has_den_app=np.zeros(n, dtype=bool),
            vaccine_status=np.full(n, int(VaccineStatus.PRE_VACCINATION), dtype=np.int8),
            dose1_at=np.full(n, NEVER, dtype=np.int32),
            dose2_at=np.full(n, NEVER, dtype=np.int32),
            immune=np.zeros(n, dtype=bool),
            immunity_check_at=np.full(n, NEVER, dtype=np.int32),
            immunity_check_prob=np.zeros(n, dtype=np.float64),
            immunity_check_dose=np.zeros(n, dtype=np.int8),
            test_sample_at=np.full(n, NEVER, dtype=np.int32),
            test_result_at=np.full(n, NEVER, dtype=np.int32),
            test_positive=np.zeros(n, dtype=bool),
            den_test_due_at=np.full(n, NEVER, dtype=np.int32),
        )

    def copy(self) -> "AgentColumns":
        kwargs = {}
        for f in fields(self):
            v = getattr(self, f.name)
            kwargs[f.name] = v.copy() if isinstance(v, np.ndarray) else v
        return AgentColumns(**kwargs)

    def stage_counts(self) -> np.ndarray:
        return np.bincount(self.stage, minlength=N_STAGES)

    def check_invariants(self, step: int) -> None:
        """Cheap structural checks; raise InvariantViolation on breakage."""
        counts = self.stage_counts()
        if counts.sum() != self.n_agents:
            raise InvariantViolation(
                f"step {step}: stage counts sum to {counts.sum()} != {self.n_agents}")
        if np.any(self.stage < 0) or np.any(self.stage >= N_STAGES):
            raise InvariantViolation(f"step {step}: stage out of range")
        infected_mask = self.infected_at != NEVER
        if np.any((self.stage != int(Stage.SUSCEPTIBLE))
                  & (self.stage != int(Stage.VACCINATED)) & ~infected_mask):
            raise InvariantViolation(
                f"step {step}: non-susceptible agent without infection timestamp")


# Column names compared field-by-field during oracle equivalence checks.
DYNAMIC_COLUMNS = (
    "stage", "infected_at", "next_transition_at", "next_stage",
    "quarantine_until", "quarantine_started_at", "has_den_app",
    "vaccine_status", "dose1_at", "dose2_at", "immune",
    "immunity_check_at", "immunity_check_prob", "immunity_check_dose",
    "test_sample_at", "test_result_at", "test_positive", "den_test_due_at",
)
