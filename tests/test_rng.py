"""Keyed-stream determinism and the scalar/vector lockstep contract."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epivec.rng import Purpose, derive_seed, substream, uniform, uniforms

KEYS = st.integers(min_value=0, max_value=2**63 - 1)
SMALL = st.integers(min_value=0, max_value=10_000)


@given(seed=KEYS, step=SMALL, agent=SMALL, k=st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_scalar_matches_vector(seed, step, agent, k):
    scalar = uniform(seed, step, Purpose.INFECTION, agent, k=k)
    vector = uniforms(seed, step, Purpose.INFECTION, np.array([agent]), k=k)
    assert scalar == vector[0]


@pytest.mark.parametrize("per_agent_k", [False, True])
def test_vector_batch_matches_scalars(per_agent_k):
    agents = np.arange(500)
    k = np.where(agents % 3 == 0, 2, 1) if per_agent_k else 0
    vec = uniforms(11, 3, Purpose.PROGRESSION_DELAY, agents, k=k)
    for i in (0, 1, 17, 498, 499):
        k_i = int(k[i]) if per_agent_k else 0
        assert vec[i] == uniform(11, 3, Purpose.PROGRESSION_DELAY, i, k=k_i)
    if per_agent_k:
        # one call with a k per agent draws what one call per k value draws
        for value in (1, 2):
            split = uniforms(11, 3, Purpose.PROGRESSION_DELAY, agents[k == value],
                             k=value)
            assert np.array_equal(vec[k == value], split)


def test_no_ids_draw_nothing():
    u = uniforms(11, 3, Purpose.VACCINE_IMMUNITY, np.empty(0, dtype=np.int64),
                 k=np.empty(0, dtype=np.int64))
    assert u.dtype == np.float64 and u.shape == (0,)


def test_draws_in_unit_interval_and_spread():
    u = uniforms(42, 0, Purpose.INFECTION, np.arange(200_000))
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.var(u) - 1 / 12) < 0.01


def test_keys_separate_streams():
    base = uniform(1, 5, Purpose.INFECTION, 7)
    assert base != uniform(2, 5, Purpose.INFECTION, 7)
    assert base != uniform(1, 6, Purpose.INFECTION, 7)
    assert base != uniform(1, 5, Purpose.ENTRY_STAGE, 7)
    assert base != uniform(1, 5, Purpose.INFECTION, 8)
    assert base != uniform(1, 5, Purpose.INFECTION, 7, k=1)


def test_same_key_same_draw():
    assert uniform(9, 9, Purpose.DEN_COMPLIANCE, 9) \
        == uniform(9, 9, Purpose.DEN_COMPLIANCE, 9)


def test_derive_seed_distinct_per_replication():
    seeds = {derive_seed(123, Purpose.REPLICATION, r) for r in range(1000)}
    assert len(seeds) == 1000


def test_substream_reproducible():
    a = substream(5, Purpose.GRAPH_RANDOM, 3).integers(0, 1000, size=10)
    b = substream(5, Purpose.GRAPH_RANDOM, 3).integers(0, 1000, size=10)
    c = substream(5, Purpose.GRAPH_RANDOM, 4).integers(0, 1000, size=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
