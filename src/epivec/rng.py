"""Counter-based keyed random streams.

Every stochastic decision in a replication is a pure function of the key
``(replication_seed, step, purpose, agent_id, k)``.  The value is produced by
a splitmix-style hash chain over the key fields, so the vectorized engine and
the per-agent reference oracle obtain bit-identical draws regardless of the
order (or batching) in which they ask for them.  Replications never share
draws because each derives its own 64-bit seed from ``(base_seed, index)``.

Two implementations are kept in lockstep and unit-tested against each other:
a numpy ``uint64`` array path for the engine and a plain-int path for the
oracle's scalar loops (Python ints reduced mod 2**64 wrap exactly like numpy
uint64 arithmetic).
"""

from enum import IntEnum, unique

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INIT = 0x243F6A8885A308D3  # pi fraction; avoids the all-zero key

_U_GOLDEN = np.uint64(_GOLDEN)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV_2_53 = 1.0 / (1 << 53)


@unique
class Purpose(IntEnum):
    """Tags separating the independent decision streams within one step."""

    INFECTION = 1          # per-agent aggregate infection draw
    # per-edge draws: no simulator takes them, only the keyed Monte Carlo of
    # test_criterion_3_hazard_aggregation_identity (tests/test_acceptance.py)
    INFECTION_EDGE = 2
    ENTRY_STAGE = 3        # branch into asymptomatic / presymptomatic on infection
    PROGRESSION_BRANCH = 4
    PROGRESSION_DELAY = 5
    TEST_POSITIVE = 6
    TEST_TURNAROUND = 7
    QUARANTINE_DROPOUT = 8
    DEN_COMPLIANCE = 9
    DEN_APP = 10           # app adoption assignment at initialization
    VACCINE_IMMUNITY = 11  # k = dose number
    # Substream derivation tags (feed PCG64 generators, not keyed uniforms).
    REPLICATION = 64
    POPULATION = 65
    SEEDING = 66
    GRAPH_OCCUPATION = 67
    GRAPH_RANDOM = 68


def _mix_scalar(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _fold_scalar(h: int, value: int) -> int:
    return _mix_scalar(h ^ ((_GOLDEN * (value + 1)) & _MASK64))


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _U30)) * _U_MIX1
    z = (z ^ (z >> _U27)) * _U_MIX2
    return z ^ (z >> _U31)


def key_prefix(seed: int, step: int, purpose: int) -> int:
    """Hash the scalar part of the key; shared by both draw paths."""
    h = _mix_scalar(_INIT ^ (seed & _MASK64))
    h = _fold_scalar(h, step)
    h = _fold_scalar(h, int(purpose))
    return h


def uniform(seed: int, step: int, purpose: int, agent: int, k: int = 0) -> float:
    """One keyed draw in [0, 1); scalar path used by the reference oracle."""
    h = key_prefix(seed, step, purpose)
    h = _fold_scalar(h, agent)
    h = _fold_scalar(h, k)
    return (h >> 11) * _INV_2_53


def uniforms(seed: int, step: int, purpose: int, agents: np.ndarray,
             k: int | np.ndarray = 0) -> np.ndarray:
    """Keyed draws in [0, 1) for an array of agent ids; engine path.  ``k`` is
    one value or one per agent.  No ids return at once, since hashing the key
    prefix alone costs tens of microseconds and the engine's phases call this
    on empty sets every step."""
    if not len(agents):   # saves hashing the key prefix
        return np.empty(0, dtype=np.float64)
    h0 = key_prefix(seed, step, purpose)
    with np.errstate(over="ignore"):
        a = np.asarray(agents, dtype=np.uint64)
        h = _mix_array(np.uint64(h0) ^ (_U_GOLDEN * (a + np.uint64(1))))
        h = _mix_array(h ^ (_U_GOLDEN * np.uint64(k + 1)))
    return (h >> _U11).astype(np.float64) * _INV_2_53


def derive_seed(seed: int, purpose: int, *indices: int) -> int:
    """Derive an independent 64-bit substream seed (replications, graphs)."""
    h = key_prefix(seed, 0, purpose)
    for ix in indices:
        h = _fold_scalar(h, ix)
    return h


def substream(seed: int, purpose: int, *indices: int) -> np.random.Generator:
    """A PCG64 generator for bulk sampling within one derived substream."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, purpose, *indices)))
