"""The agent schema: ``AgentColumns`` declares each column once, and the
allocation, the oracle's records and ``verify``'s column list follow it."""

import dataclasses
import typing

import numpy as np
import pytest

from epivec.errors import InvariantViolation
from epivec.oracle import NaiveAgent, agents_from_columns
from epivec.stages import NEVER, Stage
from epivec.state import AGENT_COLUMNS, AgentColumns


def explicit_allocate(n):
    """The hand-written allocation the column declarations replaced."""
    return AgentColumns(
        age_band=np.zeros(n, dtype=np.int8),
        occupation=np.zeros(n, dtype=np.int16),
        household_id=np.zeros(n, dtype=np.int32),
        stage=np.full(n, int(Stage.SUSCEPTIBLE), dtype=np.int8),
        infected_at=np.full(n, NEVER, dtype=np.int32),
        next_transition_at=np.full(n, NEVER, dtype=np.int32),
        next_stage=np.full(n, NEVER, dtype=np.int8),
        quarantine_until=np.full(n, NEVER, dtype=np.int32),
        has_den_app=np.zeros(n, dtype=bool),
        dose1_at=np.full(n, NEVER, dtype=np.int32),
        dose2_at=np.full(n, NEVER, dtype=np.int32),
        immune=np.zeros(n, dtype=bool),
        test_result_at=np.full(n, NEVER, dtype=np.int32),
        test_positive=np.zeros(n, dtype=bool),
        den_test_due_at=np.full(n, NEVER, dtype=np.int32),
    )


def python_type(dtype):
    """The type ``.tolist()`` gives for an element of ``dtype``."""
    return type(np.zeros(1, dtype=dtype).tolist()[0])


@pytest.mark.parametrize("n", [0, 1, 17])
def test_allocate_matches_explicit_reference(n):
    got, want = AgentColumns.allocate(n), explicit_allocate(n)
    assert got.n_agents == n and got.copy().n_agents == n
    for f in dataclasses.fields(AgentColumns):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype, f.name
        assert a.tobytes() == b.tobytes(), f.name


def test_agent_columns_cover_every_array_field():
    assert AGENT_COLUMNS == tuple(f.name for f in dataclasses.fields(AgentColumns))
    assert AGENT_COLUMNS[:4] == ("age_band", "occupation", "household_id", "stage")
    assert len(AGENT_COLUMNS) == 15
    assert sum(np.dtype(f.metadata["dtype"]).itemsize
               for f in dataclasses.fields(AgentColumns)) == 40


def test_naive_agent_fields_follow_the_schema():
    assert tuple(f.name for f in dataclasses.fields(NaiveAgent)) \
        == ("agent_id", *AGENT_COLUMNS)
    assert all(f.default is dataclasses.MISSING for f in dataclasses.fields(NaiveAgent))
    hints = typing.get_type_hints(NaiveAgent)
    cols = AgentColumns.allocate(1)
    assert hints["agent_id"] is int
    for name in AGENT_COLUMNS:
        assert hints[name] is python_type(getattr(cols, name).dtype), name


def test_records_carry_python_scalars_of_every_column():
    cols = AgentColumns.allocate(3)
    cols.household_id[:] = [4, 0, 9]
    cols.immune[1] = True
    cols.infected_at[2] = 7
    agents = agents_from_columns(cols)
    assert [a.agent_id for a in agents] == [0, 1, 2]
    for name in AGENT_COLUMNS:
        column = getattr(cols, name)
        values = [getattr(a, name) for a in agents]
        assert values == column.tolist(), name
        assert all(type(v) is python_type(column.dtype) for v in values), name


def test_copy_is_deep_and_complete():
    cols = AgentColumns.allocate(4)
    dup = cols.copy()
    for name in AGENT_COLUMNS:
        a, b = getattr(cols, name), getattr(dup, name)
        assert a is not b and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    dup.stage[0] = int(Stage.DEAD)
    assert cols.stage[0] == int(Stage.SUSCEPTIBLE)


@pytest.mark.parametrize("stage, infected_at, message", [
    (-1, 0, "stage out of range"),
    (len(Stage), 0, "stage out of range"),
    (int(Stage.RECOVERED), NEVER, "non-susceptible agent without infection timestamp"),
])
def test_broken_state_is_invariant_violation(stage, infected_at, message):
    cols = AgentColumns.allocate(4)
    cols.stage[2] = stage
    cols.infected_at[2] = infected_at
    with pytest.raises(InvariantViolation, match=f"^step 7: {message}$"):
        cols.check_invariants(7)
