"""Columnar agent state: one numpy array per attribute, one row per agent.

``AgentColumns`` is the agent schema.  Each column is declared there once,
with its dtype and the value every agent starts with (``_column``); a new
column is declared there and nowhere else.  ``allocate``, ``AGENT_COLUMNS``,
the oracle's per-agent records and the engine/oracle comparison of
``verify`` are all derived from those declarations.

Step indices use -1 (NEVER) as the "not scheduled / never happened" sentinel.
An agent is quarantined at step t iff quarantine_until > t.  A test is
pending iff test_result_at != NEVER.

No column stores what other columns and the scenario determine.  An agent's
mean daily random interactions are ``population.random_degree_by_age`` at its
age band, which the run hands the graph realizer at set-up.  An agent has had
dose k iff dose<k>_at != NEVER.  Dose k's immunity check falls due
dose<k>_latency steps after it; a second dose replaces a pending first-dose
check, so a due check is dose 2's iff dose2_at != NEVER.  It succeeds with the
first-dose efficacy, or for dose 2 with the second-dose efficacy if dose 1's
check was pending (dose1_at + dose1_latency > dose2_at), else with the top-up
that lifts the marginal to it; on an agent already immune it changes nothing.
A dose-1 check that falls due on the step of dose 2 resolves first, so that
dose 2 rolls the top-up.  An agent quarantined at step t may drop out iff its
quarantine began before t, that is iff quarantine_until < t + the quarantine
duration.  Under sterilizing immunity an immune agent is vaccinated, a stage
it never leaves, so the transmission target is exactly the susceptible stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvariantViolation
from .stages import NEVER, N_STAGES, Stage


def _column(dtype, initial=0):
    """An agent column of ``dtype`` that every agent starts at ``initial``."""
    return field(metadata={"dtype": np.dtype(dtype), "initial": initial})


@dataclass
class AgentColumns:
    # static
    age_band: np.ndarray = _column(np.int8)             # 0..8
    occupation: np.ndarray = _column(np.int16)          # 0 = not employed, 1..23
    household_id: np.ndarray = _column(np.int32)
    # dynamic
    stage: np.ndarray = _column(np.int8, Stage.SUSCEPTIBLE)
    infected_at: np.ndarray = _column(np.int32, NEVER)  # step
    next_transition_at: np.ndarray = _column(np.int32, NEVER)  # step
    next_stage: np.ndarray = _column(np.int8, NEVER)    # Stage
    quarantine_until: np.ndarray = _column(np.int32, NEVER)  # quarantined while > step
    has_den_app: np.ndarray = _column(bool, False)
    dose1_at: np.ndarray = _column(np.int32, NEVER)     # step
    dose2_at: np.ndarray = _column(np.int32, NEVER)     # step
    immune: np.ndarray = _column(bool, False)           # vaccine immunity realized
    test_result_at: np.ndarray = _column(np.int32, NEVER)  # step; pending while set
    test_positive: np.ndarray = _column(bool, False)    # outcome decided at sampling
    den_test_due_at: np.ndarray = _column(np.int32, NEVER)  # step

    @property
    def n_agents(self) -> int:
        return len(self.stage)

    @classmethod
    def allocate(cls, n: int) -> "AgentColumns":
        return cls(**{f.name: np.full(n, f.metadata["initial"], f.metadata["dtype"])
                      for f in fields(cls)})

    def copy(self) -> "AgentColumns":
        return AgentColumns(**{name: getattr(self, name).copy()
                               for name in AGENT_COLUMNS})

    def stage_counts(self) -> np.ndarray:
        return np.bincount(self.stage, minlength=N_STAGES)

    def check_invariants(self, step: int) -> None:
        """Cheap structural checks; raise InvariantViolation on breakage."""
        if np.any(self.stage < 0) or np.any(self.stage >= N_STAGES):
            raise InvariantViolation(f"step {step}: stage out of range")
        infected_mask = self.infected_at != NEVER
        if np.any((self.stage != int(Stage.SUSCEPTIBLE))
                  & (self.stage != int(Stage.VACCINATED)) & ~infected_mask):
            raise InvariantViolation(
                f"step {step}: non-susceptible agent without infection timestamp")


# Every agent column in declaration order: static columns first, then dynamic.
AGENT_COLUMNS = tuple(f.name for f in fields(AgentColumns))
