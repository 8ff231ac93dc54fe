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

Every interaction is symmetric and is stored once, as an undirected ``(u, v)``
pair; consumers derive the second direction where they read a block (the
transmission gather and the contact log read both ends of each pair).  Dead
agents appear in no network; quarantined and hospitalized agents stay in
the edge blocks and are silenced by the transmission pass instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rng import Purpose, substream


@dataclass
class StepGraph:
    """One step's interactions: an int32 ``(u, v)`` block of undirected pairs
    per network kind, in ``NetworkKind`` order, one entry per interaction.
    Counts and sources are of directed interactions, two per pair."""

    step: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def src(self) -> np.ndarray:
        """The source of every directed interaction, that is both ends of each
        pair, concatenated in kind order (a new array)."""
        return np.concatenate([end for block in self.blocks for end in block])

    @property
    def n_edges(self) -> int:
        return 2 * sum(len(u) for u, _ in self.blocks)

    def kind_counts(self) -> np.ndarray:
        return 2 * np.array([len(u) for u, _ in self.blocks])


def build_households(household_id: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undirected pairs of complete per-household graphs.

    Households of size one contribute no pairs; a household of size m
    contributes m*(m-1)/2 pairs ``(u, v)`` with ``u < v``, in (household id,
    u, v) order.
    """
    order = np.argsort(household_id, kind="stable")
    _, start, size = np.unique(household_id[order], return_index=True,
                               return_counts=True)
    # the member at sorted position i pairs with every later member of its
    # household, the ``later[i]`` positions i + 1, i + 2, ... before its end
    later = np.repeat(start + size, size) - 1 - np.arange(len(order))
    at = np.repeat(np.arange(len(order)), later)
    offset = np.arange(len(at)) - np.repeat(np.cumsum(later) - later, later) + 1
    return order[at].astype(np.int32), order[at + offset].astype(np.int32)


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
    undirected edge count is always n*k/2.  ``GraphRealizer`` rewires many
    such graphs at once through the same rounds (``_rewire``).
    """
    if k % 2 != 0:
        raise ValueError(f"mean degree k must be even, got {k}")
    if k >= n_nodes:
        raise ValueError(f"need k < n_nodes, got k={k}, n={n_nodes}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"rewire probability must be in [0, 1], got {beta}")
    us, vs = _ring_lattice(np.arange(n_nodes, dtype=np.int64), k // 2)
    edge, node = _rewire(_segments([n_nodes], [k]), [rng], beta)
    vs[edge] = node
    return us, vs


def _ring_lattice(nodes: np.ndarray, half: int) -> tuple[np.ndarray, np.ndarray]:
    """Ring lattice over ``nodes`` as (u, v) arrays: edge ``h*m + i`` joins
    ``nodes[i]`` to ``nodes[(i + h + 1) % m]``."""
    m = len(nodes)
    ring = np.concatenate([nodes, nodes[:half]])
    return (np.tile(nodes, half),
            np.lib.stride_tricks.sliding_window_view(ring, m)[1:half + 1].flatten())


def _segments(m, k) -> tuple[np.ndarray, ...]:
    """Per-graph (m, k, node offset, edge offset) of lattices laid end to end."""
    m, k = np.asarray(m, dtype=np.int64), np.asarray(k, dtype=np.int64)
    n_edges = m * (k // 2)
    return m, k, np.cumsum(m) - m, np.cumsum(n_edges) - n_edges


def _rewire(segments: tuple[np.ndarray, ...], rngs: list[np.random.Generator],
            beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The rewiring rounds of ``watts_strogatz`` over ring lattices laid end to
    end (``_segments``), each drawing from its own generator exactly what it
    draws alone: ``random(m*k/2)``, then one ``integers`` per round in which
    it has pending edges.  Nodes and edges are numbered across segments, so
    pair keys of different segments never meet.  Returns the positions of the
    rewired edges and their new endpoints' node numbers.
    """
    m, k, node_offset, edge_offset = segments
    n_nodes = int(m.sum())
    high = (m - k - 1).tolist()
    n_edges = m * (k // 2)
    rewire = np.empty(int(n_edges.sum()), dtype=bool)
    for rng, start, e in zip(rngs, edge_offset.tolist(), n_edges.tolist()):
        np.less(rng.random(e), beta, out=rewire[start:start + e])
    pending = np.flatnonzero(rewire)
    degree = np.repeat(k, m)   # lattice plus rewired pairs per node
    rewired = np.array([-1])   # sorted keys of the rewired pairs, after one no key equals
    edges, nodes = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for done in itertools.count():   # rounds run so far
        seg = np.searchsorted(edge_offset, pending, side="right") - 1
        u = (pending - edge_offset[seg]) % m[seg] + node_offset[seg]
        keep = (done < 8 * m[seg]) & (degree[u] < m[seg] - 1)
        pending, seg, u = pending[keep], seg[keep], u[keep]
        if not len(pending):
            break
        # a segment draws only in rounds in which it has pending edges, as alone
        draw = np.concatenate([rngs[s].integers(0, high[s], size=c)
                               for s, c in enumerate(np.bincount(seg).tolist()) if c])
        base = node_offset[seg]
        w = (u - base + k[seg] // 2 + 1 + draw) % m[seg] + base
        key = np.minimum(u, w) * n_nodes + np.maximum(u, w)
        at = np.minimum(np.searchsorted(rewired, key), len(rewired) - 1)
        free = np.flatnonzero(rewired[at] != key)
        won = np.delete(free, _later_repeats(key[free]))
        edges.append(pending[won])
        nodes.append(w[won])
        rewired = np.sort(np.concatenate([rewired, key[won]]))
        degree += np.bincount(np.concatenate([u[won], w[won]]), minlength=n_nodes)
        pending = np.delete(pending, won)
    return np.concatenate(edges), np.concatenate(nodes)


def stub_pairing(agents: np.ndarray, target_degrees: np.ndarray,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Configuration-model pairing honoring fractional degrees in expectation.

    Each agent contributes floor(d) stubs plus one more with probability
    frac(d); shuffled stubs are paired off, dropping self-pairs and every
    occurrence of a pair after its first (``_later_repeats``; about 2 pairs
    per call at 100K agents).
    """
    base = np.floor(target_degrees).astype(np.int64)
    frac = target_degrees - base
    extra = rng.random(len(agents)) < frac
    counts = base + extra
    stubs = rng.permutation(np.repeat(agents, counts))
    if len(stubs) % 2:
        stubs = stubs[:-1]
    us, vs = stubs[0::2], stubs[1::2]
    keep = us != vs
    us, vs = us[keep], vs[keep]
    # drop duplicate undirected pairs, keeping each pair's first occurrence
    n = int(max(us.max(initial=0), vs.max(initial=0))) + 1
    key = np.minimum(us, vs).astype(np.int64)
    key *= n
    key += np.maximum(us, vs)
    later = _later_repeats(key)
    us, vs = np.delete(us, later), np.delete(vs, later)
    return us.astype(np.int32, copy=False), vs.astype(np.int32, copy=False)


def _later_repeats(key: np.ndarray) -> np.ndarray:
    """Positions in ``key`` of every occurrence of a value after its first.
    Repeats are rare, so one sort of the keys finds the repeated values and
    only the positions holding one are stable-sorted."""
    sk = np.sort(key)
    repeated = sk[1:][sk[1:] == sk[:-1]]
    if not len(repeated):   # skips an isin and a stable sort
        return repeated
    at = np.flatnonzero(np.isin(key, repeated))
    at = at[np.argsort(key[at], kind="stable")]
    return at[1:][key[at[1:]] == key[at[:-1]]]


def round_to_even(x: float) -> int:
    """Nearest even integer (mean interaction counts -> lattice degree)."""
    return int(2 * round(x / 2.0))


class GraphRealizer:
    """Rebuilds the per-step pair blocks for one replication.

    Construction is a pure function of (replication seed, step, dead mask),
    so any two simulations holding identical state realize identical graphs.
    What depends on the dead mask alone is kept with the mask it was derived
    from and derived again only when a step's mask differs from it: the live
    household block, the live agents with their degrees, and the ring lattice
    of every occupation with at least 3 live members and k >= 2, laid end to
    end (its (u, v) pair in agent ids, the per-occupation m, k and offsets,
    and the node-to-agent map).  A step then only rewires the lattices, all
    occupations in one pass, each from its own substream.  The kept arrays
    are read-only: every step's graph until the next death shares the same
    household block.  The realizer checks nothing itself: ``Engine.step``
    checks every block's range and self-loops, the one graph check.
    """

    def __init__(self, seed: int, household_id: np.ndarray,
                 occupation: np.ndarray, random_degree: np.ndarray,
                 occupation_mean_interactions: np.ndarray,
                 rewire_beta: float):
        self.seed = seed
        self.hh_u, self.hh_v = build_households(household_id)
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
        """Derive the live household block, occupation lattices and agents from
        ``dead`` unless the last mask equals it.  Masks are compared whole, not
        by death count, so a mask that revives an agent is derived afresh."""
        if self._dead is not None and np.array_equal(dead, self._dead):
            return
        alive = ~(dead[self.hh_u] | dead[self.hh_v])
        self._household = (self.hh_u[alive], self.hh_v[alive])
        self._occ_ids, lives, ks = [], [], []
        for j, members in self.occ_members.items():
            live = members[~dead[members]]
            m = len(live)
            k = min(round_to_even(self.occ_k[j]), 2 * ((m - 1) // 2))
            if m >= 3 and k >= 2:
                self._occ_ids.append(int(j))
                lives.append(live)
                ks.append(k)
        empty = np.empty(0, dtype=np.int32)   # concatenating no arrays raises
        lattices = [(empty, empty), *(_ring_lattice(live, k // 2)
                                      for live, k in zip(lives, ks))]
        self._occ_agent = np.concatenate([empty, *lives])
        self._occ_u, self._occ_v = (np.concatenate(part) for part in zip(*lattices))
        self._occ_segments = _segments([len(live) for live in lives], ks)
        self._live_agents = np.flatnonzero(~dead).astype(np.int32)
        self._live_degree = self.random_degree[self._live_agents]
        self._dead = dead.copy()
        for a in (*self._household, self._occ_agent, self._occ_u, self._occ_v,
                  *self._occ_segments, self._live_agents, self._live_degree,
                  self._dead):
            a.flags.writeable = False

    def realize(self, step: int, dead: np.ndarray) -> StepGraph:
        self._live(dead)

        rngs = [substream(self.seed, Purpose.GRAPH_OCCUPATION, step, j)
                for j in self._occ_ids]
        edge, node = _rewire(self._occ_segments, rngs, self.rewire_beta)
        vs = self._occ_v.copy()
        vs[edge] = self._occ_agent[node]
        occupation = (self._occ_u, vs)

        rng = substream(self.seed, Purpose.GRAPH_RANDOM, step)
        random = stub_pairing(self._live_agents, self._live_degree, rng)
        return StepGraph(step, (self._household, occupation, random))  # NetworkKind order
