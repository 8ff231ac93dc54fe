"""Network construction: households, small-world graphs, per-step realization.

Graph statistics are checked with a brute-force adjacency-set oracle
(degrees, clustering coefficients) rather than the builders' own arithmetic,
the vectorized small-world generator against the per-edge loop it replaced,
and the one-pass rewiring of every occupation against one call per
occupation.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from epivec import graphs
from epivec.engine import Engine
from epivec.errors import InvariantViolation
from epivec.graphs import (GraphRealizer, StepGraph, build_households,
                           round_to_even, stub_pairing, watts_strogatz)
from epivec.interventions import InterventionConfig
from epivec.rng import Purpose, substream
from epivec.stages import NetworkKind

from test_interventions import blank_state, doubled, flat_disease, simple_table


def adjacency_sets(us, vs, n):
    """Brute-force oracle: neighbor sets from an undirected edge list."""
    adj = [set() for _ in range(n)]
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def mean_clustering(adj):
    """Brute-force mean local clustering coefficient."""
    coeffs = []
    for neighbors in adj:
        d = len(neighbors)
        if d < 2:
            coeffs.append(0.0)
            continue
        links = 0
        nb = sorted(neighbors)
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                if b in adj[a]:
                    links += 1
        coeffs.append(2.0 * links / (d * (d - 1)))
    return float(np.mean(coeffs))


def loop_watts_strogatz(n_nodes: int, k: int, beta: float,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the per-edge rewiring loop ``watts_strogatz`` replaced.

    Small-world graph; returns undirected edges as (u, v) position arrays.

    Ring lattice joining each node to k/2 neighbors per side, then each edge
    rewired at its source end with probability beta, avoiding self-loops and
    duplicate edges.  Rewiring replaces edges one-for-one, so the undirected
    edge count is always n*k/2.
    """
    if k % 2 != 0:
        raise ValueError(f"mean degree k must be even, got {k}")
    if k >= n_nodes:
        raise ValueError(f"need k < n_nodes, got k={k}, n={n_nodes}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {beta}")
    if k == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()

    half = k // 2
    base = np.arange(n_nodes, dtype=np.int64)
    us = np.concatenate([base for _ in range(half)])
    vs = np.concatenate([(base + j) % n_nodes for j in range(1, half + 1)])

    if beta > 0.0:
        rewire = np.nonzero(rng.random(len(us)) < beta)[0]
        if len(rewire):
            lo = np.minimum(us, vs)
            hi = np.maximum(us, vs)
            taken = set((lo * n_nodes + hi).tolist())
            for i in rewire.tolist():
                u, v = int(us[i]), int(vs[i])
                old_key = min(u, v) * n_nodes + max(u, v)
                taken.discard(old_key)
                new_v = v
                for _ in range(8 * n_nodes):
                    w = int(rng.integers(0, n_nodes))
                    key = min(u, w) * n_nodes + max(u, w)
                    if w != u and key not in taken:
                        new_v = w
                        break
                vs[i] = new_v
                taken.add(min(u, new_v) * n_nodes + max(u, new_v))
    return us, vs


def reference_watts_strogatz(n_nodes: int, k: int, beta: float,
                             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Reference: ``watts_strogatz`` as one call per graph, before the
    realizer rewired all occupations in one pass, verbatim.

    Small-world graph; returns undirected edges as (u, v) position arrays.

    Ring lattice joining each node to k/2 neighbors per side, then each edge
    rewired at its source end with probability beta, in vectorized rounds:
    every pending edge draws a new endpoint among the nodes that are neither
    its source nor a lattice neighbor of it, and a pair already rewired to, or
    drawn twice in the round, is redrawn next round.  Rewired edges so avoid
    all lattice pairs; an edge whose source has no free pair left, or that is
    still pending after 8*n rounds, keeps its lattice endpoint.  The
    undirected edge count is always n*k/2.
    """
    if k % 2 != 0:
        raise ValueError(f"mean degree k must be even, got {k}")
    if k >= n_nodes:
        raise ValueError(f"need k < n_nodes, got k={k}, n={n_nodes}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {beta}")
    if k == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()

    half = k // 2
    us = np.tile(np.arange(n_nodes, dtype=np.int64), half)
    vs = (us + np.repeat(np.arange(1, half + 1), n_nodes)) % n_nodes
    rewired = np.empty(0, dtype=np.int64)
    degree = np.full(n_nodes, k)   # lattice plus rewired pairs per node
    pending = np.nonzero(rng.random(len(us)) < beta)[0]
    for _ in range(8 * n_nodes):
        pending = pending[degree[us[pending]] < n_nodes - 1]
        if not len(pending):
            break
        u = us[pending]
        w = (u + half + 1 + rng.integers(0, n_nodes - k - 1, size=len(u))) % n_nodes
        key = np.minimum(u, w) * n_nodes + np.maximum(u, w)
        free = np.nonzero(~np.isin(key, rewired))[0]
        new_keys, first = np.unique(key[free], return_index=True)
        won = free[first]
        vs[pending[won]] = w[won]
        rewired = np.concatenate([rewired, new_keys])
        degree += np.bincount(np.concatenate([u[won], w[won]]), minlength=n_nodes)
        pending = np.delete(pending, won)
    return us, vs


def reference_occupation_block(realizer, step, dead, substream=substream):
    """Reference: the occupation block of ``GraphRealizer.realize`` as one
    ``watts_strogatz`` call per occupation, the loop verbatim but for
    returning the pairs rather than writing out both directions."""
    occ_live = {j: members[~dead[members]]
                for j, members in realizer.occ_members.items()}
    empty = np.empty(0, dtype=np.int32)   # for steps with no occupation graph
    us_parts, vs_parts = [empty], [empty]
    for j, live in occ_live.items():
        m = len(live)
        k = min(round_to_even(realizer.occ_k[j]), 2 * ((m - 1) // 2))
        if m < 3 or k < 2:
            continue
        rng = substream(realizer.seed, Purpose.GRAPH_OCCUPATION, step, int(j))
        us, vs = reference_watts_strogatz(m, k, realizer.rewire_beta, rng)
        us_parts.append(live[us])
        vs_parts.append(live[vs])
    return np.concatenate(us_parts), np.concatenate(vs_parts)


class RecordingGenerator:
    """A generator that logs each draw's arguments under the generator's key;
    ``integers`` returns zeros for its first ``stuck`` calls."""

    def __init__(self, rng, calls, stuck=0):
        self.rng, self.calls, self.stuck = rng, calls, stuck

    def random(self, size):
        self.calls.append(("random", size))
        return self.rng.random(size)

    def integers(self, low, high, size):
        self.calls.append(("integers", high, size))
        if sum(call[0] == "integers" for call in self.calls) <= self.stuck:
            return np.zeros(size, dtype=np.int64)
        return self.rng.integers(low, high, size=size)


def recording_substream(log, stuck=0):
    """``substream`` returning, for occupation graphs, ``RecordingGenerator``s
    that log into ``log``, one list of calls per (step, occupation) key."""
    def make(seed, purpose, *keys):
        rng = substream(seed, purpose, *keys)
        if purpose != Purpose.GRAPH_OCCUPATION:
            return rng
        return RecordingGenerator(rng, log.setdefault(keys, []), stuck)
    return make


def unique_stub_pairing(agents: np.ndarray, target_degrees: np.ndarray,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Reference: ``stub_pairing`` with the ``np.unique`` dedupe it replaced.

    Configuration-model pairing honoring fractional degrees in expectation.

    Each agent contributes floor(d) stubs plus one more with probability
    frac(d); shuffled stubs are paired off, dropping self-pairs and duplicate
    pairs (rare for large populations).
    """
    base = np.floor(target_degrees).astype(np.int64)
    frac = target_degrees - base
    extra = rng.random(len(agents)) < frac
    counts = base + extra
    stubs = np.repeat(agents, counts)
    if len(stubs) < 2:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty.copy()
    stubs = rng.permutation(stubs)
    if len(stubs) % 2:
        stubs = stubs[:-1]
    us = stubs[0::2].astype(np.int64)
    vs = stubs[1::2].astype(np.int64)
    keep = us != vs
    us, vs = us[keep], vs[keep]
    # drop duplicate undirected pairs
    n = int(max(us.max(), vs.max())) + 1 if len(us) else 0
    if len(us):
        key = np.minimum(us, vs) * n + np.maximum(us, vs)
        _, first = np.unique(key, return_index=True)
        keep_idx = np.sort(first)
        us, vs = us[keep_idx], vs[keep_idx]
    return us.astype(np.int32), vs.astype(np.int32)


def reference_build_households(household_id):
    """``build_households`` before it was vectorized, verbatim: one Python
    iteration and one m x m mask per household."""
    order = np.argsort(household_id, kind="stable")
    sorted_ids = household_id[order]
    boundaries = np.nonzero(np.diff(sorted_ids))[0] + 1
    groups = np.split(order, boundaries)
    src_parts, dst_parts = [], []
    for members in groups:
        m = len(members)
        if m < 2:
            continue
        src_parts.append(np.repeat(members, m - 1))
        dst_parts.append(_all_others(members))
    if not src_parts:
        empty = np.empty(0, dtype=np.int32)
        return empty, empty.copy()
    return (np.concatenate(src_parts).astype(np.int32),
            np.concatenate(dst_parts).astype(np.int32))


def _all_others(members):
    """For each member, all other members, flattened (complete-graph targets)."""
    m = len(members)
    tiled = np.broadcast_to(members, (m, m))
    mask = ~np.eye(m, dtype=bool)
    return tiled[mask]


def household_edges(household_id):
    """``build_households`` as directed ``(src, dst)`` arrays (``doubled``)."""
    return doubled(StepGraph(0, (build_households(household_id),))).blocks[0]


class TestHouseholds:
    @settings(max_examples=300, deadline=None)
    @given(ids=st.lists(st.integers(0, 12), max_size=60))
    @example(ids=[])
    @example(ids=list(range(8)))
    @example(ids=[3] * 9)
    def test_matches_loop_reference_bytewise(self, ids):
        """The pairs are the reference's edges from a lower to a higher id, in
        its order, and doubled they are its edges (each once: sorting both
        sides compares them whole)."""
        household_id = np.array(ids, dtype=np.int64)
        u, v = build_households(household_id)
        ref_src, ref_dst = reference_build_households(household_id)
        assert u.dtype == v.dtype == np.int32
        upper = ref_src < ref_dst
        assert u.tobytes() == ref_src[upper].tobytes()
        assert v.tobytes() == ref_dst[upper].tobytes()
        src, dst = household_edges(household_id)
        order, ref_order = np.lexsort((dst, src)), np.lexsort((ref_dst, ref_src))
        assert src[order].tobytes() == ref_src[ref_order].tobytes()
        assert dst[order].tobytes() == ref_dst[ref_order].tobytes()

    def test_sizes_three_and_two(self):
        hh = np.array([0, 0, 0, 1, 1])
        u, v = build_households(hh)
        assert len(u) == 3 + 1
        assert len(household_edges(hh)[0]) == 3 * 2 + 2 * 1
        assert not np.any(u == v)

    def test_all_singletons(self):
        src, dst = build_households(np.arange(6))
        assert len(src) == 0

    def test_size_four_every_pair(self):
        u, v = build_households(np.zeros(4, dtype=int))
        assert len(u) == 6
        pairs = set(zip(u.tolist(), v.tolist()))
        assert pairs == {(a, b) for a in range(4) for b in range(4) if a < b}
        src, dst = household_edges(np.zeros(4, dtype=int))
        assert len(src) == 12
        edges = set(zip(src.tolist(), dst.tolist()))
        assert edges == {(a, b) for a in range(4) for b in range(4) if a != b}

    def test_both_directions_present(self):
        """Each pair is stored once; doubled, both directions are there."""
        u, v = build_households(np.array([0, 0, 1, 1, 1]))
        pairs = set(zip(u.tolist(), v.tolist()))
        assert len(pairs) == len(u) == 1 + 3
        assert not any((b, a) in pairs for a, b in pairs)
        src, dst = household_edges(np.array([0, 0, 1, 1, 1]))
        edges = set(zip(src.tolist(), dst.tolist()))
        for a, b in list(edges):
            assert (b, a) in edges


class TestWattsStrogatz:
    def test_beta_zero_is_ring_lattice(self):
        rng = np.random.default_rng(0)
        us, vs = watts_strogatz(10, 4, 0.0, rng)
        adj = adjacency_sets(us, vs, 10)
        assert all(len(a) == 4 for a in adj)
        assert adj[0] == {1, 2, 8, 9}

    def test_edge_count_preserved_at_full_rewiring(self):
        rng = np.random.default_rng(1)
        us, vs = watts_strogatz(10, 4, 1.0, rng)
        assert len(us) == 10 * 4 // 2
        assert not np.any(us == vs)
        key = np.minimum(us, vs) * 10 + np.maximum(us, vs)
        assert len(np.unique(key)) == len(key)

    @given(n=st.integers(3, 60), half_k=st.integers(1, 2),
           beta=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           seed=st.integers(0, 10_000))
    @example(n=3, half_k=1, beta=1.0, seed=0)
    @example(n=5, half_k=2, beta=1.0, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_rewiring_never_changes_edge_count(self, n, half_k, beta, seed):
        k = 2 * half_k
        assume(k < n)
        rng = np.random.default_rng(seed)
        us, vs = watts_strogatz(n, k, beta, rng)
        assert len(us) == n * k // 2
        assert not np.any(us == vs)
        key = np.minimum(us, vs) * n + np.maximum(us, vs)
        assert len(np.unique(key)) == len(key)
        if k == n - 1:   # complete lattice: no free pair, nothing can move
            lattice = watts_strogatz(n, k, 0.0, rng)
            assert np.array_equal(us, lattice[0]) and np.array_equal(vs, lattice[1])

    def test_rejects_bad_degree(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            watts_strogatz(10, 3, 0.1, rng)
        with pytest.raises(ValueError):
            watts_strogatz(10, 10, 0.1, rng)
        with pytest.raises(ValueError, match="rewire probability"):
            watts_strogatz(10, 4, 1.5, rng)
        # degree 0 is no error: a graph without edges
        us, vs = watts_strogatz(10, 0, 0.1, rng)
        assert len(us) == len(vs) == 0

    def test_clustering_between_lattice_and_random(self):
        # 1000 nodes, k=6: rewiring at beta=0.1 must land strictly between
        # the lattice (beta=0) and fully random (beta=1) clustering levels
        n, k = 1000, 6
        values = {}
        for beta in (0.0, 0.1, 1.0):
            rng = np.random.default_rng(7)
            us, vs = watts_strogatz(n, k, beta, rng)
            values[beta] = mean_clustering(adjacency_sets(us, vs, n))
        assert values[0.0] == pytest.approx(0.6, abs=1e-12)  # 3(k-2)/(4(k-1))
        assert values[0.0] > values[0.1] > values[1.0]


    @pytest.mark.parametrize("beta", [0.1, 0.5])
    def test_statistics_match_loop_reference(self, beta):
        # rewired edges avoid every lattice pair here, while the loop could
        # land on a pair freed earlier; at n=1000 that must not show in the
        # edge count, the degree spread or the clustering over 10 seeds.
        # Tolerances are about four standard errors of the difference of two
        # 10-seed means (per-seed sd: degree spread 0.035, clustering 0.011)
        n, k = 1000, 6
        stats = {}
        for name, generate in (("vectorized", watts_strogatz),
                               ("loop", loop_watts_strogatz)):
            sds, clustering = [], []
            for seed in range(10):
                us, vs = generate(n, k, beta, np.random.default_rng(seed))
                assert len(us) == n * k // 2
                adj = adjacency_sets(us, vs, n)
                sds.append(np.std([len(a) for a in adj]))
                clustering.append(mean_clustering(adj))
            stats[name] = np.mean(sds), np.mean(clustering)
        (sd, c), (sd_ref, c_ref) = stats["vectorized"], stats["loop"]
        assert sd == pytest.approx(sd_ref, abs=0.06)
        assert c == pytest.approx(c_ref, abs=0.02)


class TestStubPairing:
    def test_degrees_close_to_targets(self):
        agents = np.arange(2000, dtype=np.int32)
        targets = np.full(2000, 4.0)
        rng = np.random.default_rng(3)
        us, vs = stub_pairing(agents, targets, rng)
        adj = adjacency_sets(us.astype(int), vs.astype(int), 2000)
        degrees = np.array([len(a) for a in adj])
        assert abs(degrees.mean() - 4.0) < 0.15

    def test_fractional_targets_in_expectation(self):
        agents = np.arange(4000, dtype=np.int32)
        targets = np.full(4000, 2.5)
        rng = np.random.default_rng(4)
        us, vs = stub_pairing(agents, targets, rng)
        assert abs(2 * len(us) / 4000 - 2.5) < 0.15

    def test_no_self_loops_or_duplicates(self):
        agents = np.arange(300, dtype=np.int32)
        rng = np.random.default_rng(5)
        us, vs = stub_pairing(agents, np.full(300, 6.0), rng)
        assert not np.any(us == vs)
        key = np.minimum(us, vs) * 300 + np.maximum(us, vs)
        assert len(np.unique(key)) == len(key)


    @settings(max_examples=300, deadline=None)
    @given(degrees=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=12),
           stride=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    @example(degrees=[4.0] * 6, stride=1, seed=0)   # 11 pairs, 3 of them repeats
    @example(degrees=[6.0] * 3, stride=1, seed=0)   # keys 0-1 and 0-2 thrice each,
                                                   # in both orientations
    @example(degrees=[], stride=1, seed=0)         # no live agent
    @example(degrees=[5.0], stride=1, seed=0)      # one agent: only self-pairs
    def test_dedupe_matches_unique_reference(self, degrees, stride, seed):
        agents = (np.arange(len(degrees)) * stride).astype(np.int32)
        targets = np.array(degrees)
        us, vs = stub_pairing(agents, targets, np.random.default_rng(seed))
        ref_us, ref_vs = unique_stub_pairing(agents, targets,
                                             np.random.default_rng(seed))
        assert us.dtype == vs.dtype == np.int32
        assert us.tobytes() == ref_us.tobytes() and vs.tobytes() == ref_vs.tobytes()

    def test_pinned_seed_has_repeated_pairs(self):
        rng = np.random.default_rng(0)
        rng.random(6)                     # the fractional-stub draws
        stubs = rng.permutation(np.repeat(np.arange(6), 4))
        pairs = {(min(u, v), max(u, v)) for u, v in zip(stubs[0::2], stubs[1::2])
                 if u != v}
        n_pairs = int(np.count_nonzero(stubs[0::2] != stubs[1::2]))
        us, _ = stub_pairing(np.arange(6, dtype=np.int32), np.full(6, 4.0),
                             np.random.default_rng(0))
        assert len(us) == len(pairs) < n_pairs


class TestSegmentedRewiring:
    """All occupations of a step rewired in one pass give the same bytes, and
    the same draws from each occupation's substream, as one
    ``watts_strogatz`` call per occupation."""

    @staticmethod
    def realizer(sizes, means, beta, seed, n_unemployed=3):
        occupation = np.concatenate([np.full(m, j + 1) for j, m in enumerate(sizes)]
                                    + [np.zeros(n_unemployed, dtype=np.int64)])
        order = np.random.default_rng(seed).permutation(len(occupation))
        occ_means = np.resize(np.asarray(means, dtype=np.float64), 23)
        return make_realizer(np.arange(len(occupation)) // 4, occupation[order],
                             np.full(len(occupation), 2.0), occ_means, beta, seed)

    @staticmethod
    def compare(r, step, dead, stuck=0):
        """Assert the realized occupation block and draws equal the reference;
        returns the reference's draws per key."""
        log, ref_log = {}, {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "substream", recording_substream(log, stuck))
            u, v = r.realize(step, dead).blocks[NetworkKind.OCCUPATION]
        ref_u, ref_v = reference_occupation_block(
            r, step, dead, recording_substream(ref_log, stuck))
        assert u.dtype == v.dtype == ref_u.dtype == ref_v.dtype == np.int32
        assert u.tobytes() == ref_u.tobytes() and v.tobytes() == ref_v.tobytes()
        assert log == ref_log
        return ref_log

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 60), min_size=1, max_size=8),
           means=st.lists(st.sampled_from([0.0, 2.0, 4.0, 6.0, 10.0, 200.0]),
                          min_size=1, max_size=8),
           beta=st.sampled_from([0.0, 0.1, 1.0]), seed=st.integers(0, 2**32 - 1))
    @example(sizes=[1, 2, 3, 4, 5, 6], means=[200.0], beta=1.0, seed=0)
    @example(sizes=[12, 12, 12], means=[6.0], beta=1.0, seed=1)
    def test_matches_per_occupation_reference(self, sizes, means, beta, seed):
        r = self.realizer(sizes, means, beta, seed)
        n = len(r.random_degree)
        rng = np.random.default_rng(seed)
        none = np.zeros(n, dtype=bool)
        some = rng.random(n) < 0.3
        revived = some.copy()
        revived[np.flatnonzero(some)[:1]] = False   # an agent comes back
        for step, dead in enumerate([none, some, some.copy(), revived]):
            self.compare(r, step, dead)

    def test_pinned_second_round(self):
        """Three 10-member occupations at k = 6, all edges rewired: one is
        done after the first round and the other two are not, so they run a
        second round without it."""
        r = self.realizer([10, 10, 10], [6.0], 1.0, seed=3)
        log = self.compare(r, 0, np.zeros(len(r.random_degree), dtype=bool))
        rounds = [sum(call[0] == "integers" for call in calls) for calls in log.values()]
        assert len(rounds) == 3 and min(rounds) == 1 and max(rounds) >= 2

    def test_round_cap_is_per_occupation(self):
        """Draws that stay at 0 leave two of each source's three rewired edges
        pending: an occupation of 10 members stops after its own 80 rounds,
        while one of 40 members runs on and escapes once the draws move."""
        r = self.realizer([10, 40], [6.0], 1.0, seed=4)
        log = self.compare(r, 0, np.zeros(len(r.random_degree), dtype=bool), stuck=100)
        rounds = {key[-1]: sum(call[0] == "integers" for call in calls)
                  for key, calls in log.items()}
        assert rounds[1] == 80 and rounds[2] > 100


def make_realizer(household_id, occupation, random_degree, occ_means=None,
                  beta=0.1, seed=11):
    occ_means = occ_means if occ_means is not None else np.full(23, 6.0)
    return GraphRealizer(seed, np.asarray(household_id),
                         np.asarray(occupation, dtype=np.int16),
                         np.asarray(random_degree, dtype=np.float64),
                         np.asarray(occ_means), beta)


class TestRealizeStepGraph:
    def test_all_dead_empty_graph(self):
        r = make_realizer([0, 0, 1], [0, 0, 0], [3.0, 3.0, 3.0])
        g = r.realize(0, np.array([True, True, True]))
        assert g.n_edges == 0

    def test_single_household_no_other_networks(self):
        r = make_realizer([0, 0, 0], [0, 0, 0], [0.0, 0.0, 0.0])
        g = r.realize(0, np.zeros(3, dtype=bool))
        assert g.n_edges == 6
        assert g.kind_counts().tolist() == [6, 0, 0]
        assert len(g.blocks[NetworkKind.HOUSEHOLD][0]) == 3

    def test_household_edges_stable_random_edges_resampled(self):
        n = 400
        rng = np.random.default_rng(0)
        hh = rng.integers(0, 150, size=n)
        occ = np.where(rng.random(n) < 0.6, rng.integers(1, 24, size=n), 0)
        r = make_realizer(hh, occ, np.full(n, 3.0))
        dead = np.zeros(n, dtype=bool)
        g0, g1 = r.realize(0, dead), r.realize(1, dead)

        def kind_edges(g, kind):
            src, dst = g.blocks[kind]
            return set(zip(src.tolist(), dst.tolist()))

        assert kind_edges(g0, NetworkKind.HOUSEHOLD) \
            == kind_edges(g1, NetworkKind.HOUSEHOLD)
        assert kind_edges(g0, NetworkKind.RANDOM) \
            != kind_edges(g1, NetworkKind.RANDOM)
        assert kind_edges(g0, NetworkKind.OCCUPATION) \
            != kind_edges(g1, NetworkKind.OCCUPATION)

    def test_no_edge_touches_dead_agent(self):
        n = 300
        rng = np.random.default_rng(1)
        hh = rng.integers(0, 100, size=n)
        occ = np.where(rng.random(n) < 0.5, rng.integers(1, 24, size=n), 0)
        r = make_realizer(hh, occ, np.full(n, 4.0))
        dead = rng.random(n) < 0.2
        g = r.realize(3, dead)
        for src, dst in g.blocks:
            assert not np.any(dead[src])
            assert not np.any(dead[dst])

    def test_same_inputs_same_graph(self):
        r = make_realizer(np.arange(50) // 3, np.zeros(50), np.full(50, 2.0))
        dead = np.zeros(50, dtype=bool)
        g0, g1 = r.realize(5, dead), r.realize(5, dead)
        assert len(g0.blocks) == len(g1.blocks) == len(NetworkKind)
        for (s0, d0), (s1, d1) in zip(g0.blocks, g1.blocks):
            assert np.array_equal(s0, s1)
            assert np.array_equal(d0, d1)

    def test_block_contract(self):
        n = 400
        rng = np.random.default_rng(2)
        hh = rng.integers(0, 150, size=n)
        occ = np.where(rng.random(n) < 0.6, rng.integers(1, 24, size=n), 0)
        r = make_realizer(hh, occ, np.full(n, 3.0))
        dead = rng.random(n) < 0.15
        g = r.realize(2, dead)
        assert len(g.blocks) == len(NetworkKind)
        for src, dst in g.blocks:
            assert src.dtype == dst.dtype == np.int32
            assert not np.any(dead[src]) and not np.any(dead[dst])
        # the household block is exactly the live part of build_households
        hh_src, hh_dst = build_households(hh)
        live = ~(dead[hh_src] | dead[hh_dst])
        src, dst = g.blocks[NetworkKind.HOUSEHOLD]
        assert np.array_equal(src, hh_src[live]) and np.array_equal(dst, hh_dst[live])
        # every occupation pair shares an occupation
        src, dst = g.blocks[NetworkKind.OCCUPATION]
        assert len(src) and np.all(occ[src] == occ[dst]) and np.all(occ[src] > 0)
        assert len(g.blocks[NetworkKind.RANDOM][0])
        assert g.n_edges == g.kind_counts().sum()
        # counts and sources are those of the directed interactions
        directed = doubled(g)
        assert g.kind_counts().tolist() == [len(s) for s, _ in directed.blocks]
        assert np.array_equal(g.src, np.concatenate([s for s, _ in directed.blocks]))

    def test_mask_sequence_matches_fresh_realizer(self):
        """The kept live sets follow the mask, whatever its history: no deaths,
        some, the same mask again, one agent revived and another dead (the
        same death count), then all dead."""
        n = 400
        rng = np.random.default_rng(3)
        hh = rng.integers(0, 150, size=n)
        occ = np.where(rng.random(n) < 0.6, rng.integers(1, 24, size=n), 0)
        args = (hh, occ, np.full(n, 3.0))
        r = make_realizer(*args)
        hh_src, hh_dst = build_households(hh)
        none = np.zeros(n, dtype=bool)
        some = rng.random(n) < 0.1
        revived = some.copy()
        revived[np.flatnonzero(some)[0]] = False
        revived[np.flatnonzero(~some)[0]] = True
        masks = [none, some, some.copy(), revived, np.ones(n, dtype=bool)]
        previous = None
        for step, dead in enumerate(masks):
            g = r.realize(step, dead)
            live = ~(dead[hh_src] | dead[hh_dst])
            src, dst = g.blocks[NetworkKind.HOUSEHOLD]
            assert np.array_equal(src, hh_src[live]) and np.array_equal(dst, hh_dst[live])
            assert not src.flags.writeable and not dst.flags.writeable
            if previous is not None and np.array_equal(dead, masks[step - 1]):
                assert src is previous
            previous = src
            fresh = make_realizer(*args).realize(step, dead)
            for (s, d), (fs, fd) in zip(g.blocks, fresh.blocks):
                assert s.tobytes() == fs.tobytes() and d.tobytes() == fd.tobytes()
        assert g.n_edges == 0

    @pytest.mark.parametrize("builder", ["build_households", "stub_pairing"])
    def test_self_pair_is_invariant_violation(self, monkeypatch, builder):
        """A self-pair in the household block or in a step's random block
        stops the run at the engine's graph check, the one check a realized
        graph passes through."""
        def self_pair(*args):
            one = np.array([1], dtype=np.int32)
            return one, one.copy()
        monkeypatch.setattr(graphs, builder, self_pair)
        r = make_realizer([0, 0, 1, 1], [0, 0, 0, 0], [2.0] * 4)
        engine = Engine(blank_state(4), flat_disease(), simple_table(),
                        InterventionConfig(), seed=0)
        with pytest.raises(InvariantViolation, match="self-loop"):
            engine.step(r.realize(0, np.zeros(4, dtype=bool)))
