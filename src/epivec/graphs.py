"""Interaction-network construction.

Three network families are realized each step, each into its own edge block:

* households: complete graphs, fixed for the whole run; the live block is
  filtered again only after a step on which someone died;
* occupations: one small-world graph per occupation, membership fixed but
  edges redrawn every step with that occupation's mean interaction count;
* a global random network redrawn every step, honoring per-agent target
  degrees in expectation via configuration-model stub pairing (a small-world
  approximation: one ring-lattice-plus-rewiring graph cannot honor
  heterogeneous per-agent degrees).

Undirected interactions are stored as two directed edges so that the
transmission gather can treat every edge as (source candidate -> target).
Dead agents appear in no network; quarantined and hospitalized agents stay in
the edge blocks and are silenced by the transmission pass instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .rng import Purpose, substream


@dataclass
class StepGraph:
    """One step's interactions: an int32 ``(src, dst)`` edge block per network
    kind, in ``NetworkKind`` order, like a per-edge-type ``edge_index``."""

    step: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def src(self) -> np.ndarray:
        """Sources of every block, concatenated in kind order (a new array)."""
        return np.concatenate([src for src, _ in self.blocks])

    @property
    def n_edges(self) -> int:
        return sum(len(src) for src, _ in self.blocks)

    def kind_counts(self) -> np.ndarray:
        return np.array([len(src) for src, _ in self.blocks])


def build_households(household_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directed edge arrays for complete per-household graphs.

    Households of size one contribute no edges; a household of size m
    contributes m*(m-1) directed edges, in (household id, source, target
    index) order.
    """
    order = np.argsort(household_id, kind="stable")
    _, start, size = np.unique(household_id[order], return_index=True,
                               return_counts=True)
    per = size * (size - 1)
    first = np.repeat(start, per)
    # edge e of a household is (row, col) = divmod(e, m - 1) of its m x (m - 1)
    # table of member pairs; col skips the diagonal
    row, col = np.divmod(np.arange(per.sum()) - np.repeat(np.cumsum(per) - per, per),
                         np.repeat(size - 1, per))
    return (order[first + row].astype(np.int32),
            order[first + col + (col >= row)].astype(np.int32))


def watts_strogatz(n_nodes: int, k: int, beta: float,
                   rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Small-world graph; returns undirected edges as (u, v) position arrays.

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


def undirected_to_directed(us: np.ndarray, vs: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray]:
    return (np.concatenate([us, vs], dtype=np.int32),
            np.concatenate([vs, us], dtype=np.int32))


def stub_pairing(agents: np.ndarray, target_degrees: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Configuration-model pairing honoring fractional degrees in expectation.

    Each agent contributes floor(d) stubs plus one more with probability
    frac(d); shuffled stubs are paired off, dropping self-pairs and every
    occurrence of a pair after its first.  Repeated pairs are rare (about 2
    per call at 100K agents), so one sort of the pair keys finds the repeated
    values and only the pairs holding one are stable-sorted.
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
    us, vs = stubs[0::2], stubs[1::2]
    keep = us != vs
    us, vs = us[keep], vs[keep]
    # drop duplicate undirected pairs, keeping each pair's first occurrence
    if len(us):
        n = int(max(us.max(), vs.max())) + 1
        key = np.minimum(us, vs).astype(np.int64)
        key *= n
        key += np.maximum(us, vs)
        sk = np.sort(key)
        repeated = sk[1:][sk[1:] == sk[:-1]]
        if len(repeated):
            at = np.flatnonzero(np.isin(key, repeated))
            at = at[np.argsort(key[at], kind="stable")]
            keep = np.ones(len(key), dtype=bool)
            keep[at[1:][key[at[1:]] == key[at[:-1]]]] = False
            us, vs = us[keep], vs[keep]
    return us.astype(np.int32, copy=False), vs.astype(np.int32, copy=False)


def round_to_even(x: float) -> int:
    """Nearest even integer (mean interaction counts -> lattice degree)."""
    return int(2 * round(x / 2.0))


class GraphRealizer:
    """Rebuilds the per-step edge blocks for one replication.

    Construction is a pure function of (replication seed, step, dead mask),
    so any two simulations holding identical state realize identical graphs.
    What depends on the dead mask alone (the live household block, the live
    members of each occupation, the live agents) is kept with the mask it was
    derived from and derived again only when a step's mask differs from it.
    The kept arrays are read-only: every step's graph until the next death
    shares the same household block, checked for self-loops once, when it is
    derived.
    """

    def __init__(self, seed: int, household_id: np.ndarray,
                 occupation: np.ndarray, random_degree: np.ndarray,
                 occupation_mean_interactions: np.ndarray,
                 rewire_beta: float):
        self.seed = seed
        self.n_agents = len(household_id)
        self.hh_src, self.hh_dst = build_households(household_id)
        self.occupation = occupation
        self.random_degree = np.asarray(random_degree, dtype=np.float64)
        self.occ_members = {
            j: np.nonzero(occupation == j)[0].astype(np.int32)
            for j in np.unique(occupation) if j > 0
        }
        self.occ_k = {j: float(occupation_mean_interactions[j - 1])
                      for j in self.occ_members}
        self.rewire_beta = float(rewire_beta)
        self._dead = None

    def _live(self, dead: np.ndarray) -> None:
        """Derive the live household block, occupation members and agents from
        ``dead`` unless the last mask equals it.  Masks are compared whole, not
        by death count, so a mask that revives an agent is derived afresh."""
        if self._dead is not None and np.array_equal(dead, self._dead):
            return
        alive = ~(dead[self.hh_src] | dead[self.hh_dst])
        self._household = (self.hh_src[alive], self.hh_dst[alive])
        _check_no_self_loops(self._household)
        self._occ_live = {j: members[~dead[members]]
                          for j, members in self.occ_members.items()}
        self._live_agents = np.flatnonzero(~dead).astype(np.int32)
        self._live_degree = self.random_degree[self._live_agents]
        self._dead = dead.copy()
        for a in (*self._household, *self._occ_live.values(), self._live_agents,
                  self._live_degree, self._dead):
            a.flags.writeable = False

    def realize(self, step: int, dead: np.ndarray) -> StepGraph:
        self._live(dead)

        empty = np.empty(0, dtype=np.int32)   # for steps with no occupation graph
        us_parts, vs_parts = [empty], [empty]
        for j, live in self._occ_live.items():
            m = len(live)
            k = min(round_to_even(self.occ_k[j]), 2 * ((m - 1) // 2))
            if m < 3 or k < 2:
                continue
            rng = substream(self.seed, Purpose.GRAPH_OCCUPATION, step, int(j))
            us, vs = watts_strogatz(m, k, self.rewire_beta, rng)
            us_parts.append(live[us])
            vs_parts.append(live[vs])
        occupation = undirected_to_directed(np.concatenate(us_parts),
                                            np.concatenate(vs_parts))

        rng = substream(self.seed, Purpose.GRAPH_RANDOM, step)
        random = undirected_to_directed(
            *stub_pairing(self._live_agents, self._live_degree, rng))

        _check_no_self_loops(occupation, random)
        return StepGraph(step, (self._household, occupation, random))  # NetworkKind order


def _check_no_self_loops(*blocks) -> None:
    if any(np.any(src == dst) for src, dst in blocks):
        raise InvariantViolation("graph realization produced a self-loop")
