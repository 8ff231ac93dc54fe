"""Interaction networks: households, small-world occupations, random pairing.

Builds each network family over a synthetic population and reports edge
shares, degree statistics, and the small-world clustering signature.
"""

import numpy as np

from epivec import PopulationSpec, synthesize, watts_strogatz
from epivec.graphs import GraphRealizer
from epivec.scenario import default_population_dict
from epivec.stages import NetworkKind

pop_dict = default_population_dict()
pop_dict["n_agents"] = 20_000
spec = PopulationSpec.from_dict(pop_dict)
cols = synthesize(spec, seed=7)

realizer = GraphRealizer(7, cols.household_id, cols.occupation, cols.random_degree,
                         spec.networks.occupation_mean_interactions,
                         spec.networks.rewire_beta)
dead = np.zeros(cols.n_agents, dtype=bool)

print("=== per-step graph, one edge block per network kind ===")
for step in range(3):
    g = realizer.realize(step, dead)
    counts = g.kind_counts()
    shares = counts / g.n_edges
    print(f"step {step}: {g.n_edges:7d} directed edges | "
          + " ".join(f"{k.name.lower()}={shares[int(k)]:.2f}" for k in NetworkKind))
print("household edges repeat every step; occupation and random edges are "
      "redrawn (same membership, fresh realization)")

print()
print("=== Watts-Strogatz clustering vs rewiring ===")
n, k = 1000, 6
for beta in (0.0, 0.05, 0.1, 0.5, 1.0):
    rng = np.random.default_rng(3)
    us, vs = watts_strogatz(n, k, beta, rng)
    adj = [set() for _ in range(n)]
    for u, v in zip(us.tolist(), vs.tolist()):
        adj[u].add(v)
        adj[v].add(u)
    c = []
    for nb in adj:
        d = len(nb)
        if d < 2:
            c.append(0.0)
            continue
        links = sum(1 for i, a in enumerate(sorted(nb))
                    for b in sorted(nb)[i + 1:] if b in adj[a])
        c.append(2 * links / (d * (d - 1)))
    print(f"  beta={beta:4.2f}: mean clustering {np.mean(c):.4f}")
print("(beta=0 is the exact ring lattice: clustering 3(k-2)/(4(k-1)) = 0.6)")

print()
print("=== realized degrees ===")
g = realizer.realize(0, dead)
out_degree = np.bincount(g.src, minlength=cols.n_agents)
print(f"mean directed degree {out_degree.mean():.2f} "
      f"(min {out_degree.min()}, max {out_degree.max()})")
employed = cols.occupation > 0
print(f"employed agents average {out_degree[employed].mean():.2f}, "
      f"not employed {out_degree[~employed].mean():.2f}")
