"""Acceptance suite: one test per headline criterion, each printing a
PASS line with its measured numbers.  Tolerances are pinned here, not tuned
at runtime.  The long-running criteria carry the `slow` marker.

All Monte Carlo here rides the keyed counter-based draw scheme, so every
"random" check is reproducible and the pass/fail outcome is deterministic.
"""

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy import integrate, stats

import epivec
from epivec.engine import Engine
from epivec.graphs import watts_strogatz
from epivec.interventions import InterventionConfig, Strategy, priority_sort_key
from epivec.rng import Purpose, uniforms
from epivec.runner import (bench, run_replication, run_scenario,
                           verify_equivalence)
from epivec.scenario import (default_population_dict, default_scenario,
                             scenario_from_dict)
from epivec.stages import NetworkKind, Stage
from epivec.transmission import (day_weight_table, edge_hazard,
                                 infection_probability)

from test_interventions import blank_state, flat_disease, simple_table


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


# -- 1. equation fidelity ----------------------------------------------------

def test_criterion_1_equation_fidelity():
    t0 = time.perf_counter()
    assert infection_probability(0.0) == 0.0
    assert abs(infection_probability(math.log(2.0)) - 0.5) < 1e-12

    rng = np.random.default_rng(1)
    params = epivec.DiseaseParams(
        rate_scale=rng.uniform(0.5, 4.0),
        age_susceptibility=rng.uniform(0.2, 2.0, size=9),
        asymptomatic_factor=rng.uniform(0.2, 1.0),
        network_scale=rng.uniform(0.5, 3.0, size=3),
        mean_daily_interactions=rng.uniform(5.0, 20.0),
        infectiousness_mean_days=5.0, infectiousness_sd_days=2.0)
    s, b, w = params.age_susceptibility, params.network_scale, params.day_weights
    a_of = lambda asym: params.asymptomatic_factor if asym else 1.0

    # 1000 random cross-ratio draws: the hazard factors as a product, so
    # lam1 * (S2 A2 B2 w2) == lam2 * (S1 A1 B1 w1)
    for _ in range(1000):
        t1, t2 = rng.integers(1, params.t_max + 1, size=2)
        b1, b2 = rng.integers(0, 9, size=2)
        k1, k2 = rng.integers(0, 3, size=2)
        a1, a2 = rng.random(2) < 0.5
        lam1 = edge_hazard(int(t1), bool(a1), int(b1), int(k1), params)
        lam2 = edge_hazard(int(t2), bool(a2), int(b2), int(k2), params)
        left = lam1 * (s[b2] * a_of(a2) * b[k2] * w[t2])
        right = lam2 * (s[b1] * a_of(a1) * b[k1] * w[t1])
        assert left == pytest.approx(right, rel=1e-12, abs=1e-300)

    # explicit linear / inverse-linear scaling of the two scalar knobs
    doubled_rate = epivec.DiseaseParams(
        rate_scale=2 * params.rate_scale,
        age_susceptibility=s, asymptomatic_factor=params.asymptomatic_factor,
        network_scale=b, mean_daily_interactions=params.mean_daily_interactions,
        infectiousness_mean_days=5.0, infectiousness_sd_days=2.0)
    doubled_ibar = epivec.DiseaseParams(
        rate_scale=params.rate_scale,
        age_susceptibility=s, asymptomatic_factor=params.asymptomatic_factor,
        network_scale=b,
        mean_daily_interactions=2 * params.mean_daily_interactions,
        infectiousness_mean_days=5.0, infectiousness_sd_days=2.0)
    lam = edge_hazard(4, False, 2, 1, params)
    assert edge_hazard(4, False, 2, 1, doubled_rate) \
        == pytest.approx(2 * lam, rel=1e-12)
    assert edge_hazard(4, False, 2, 1, doubled_ibar) \
        == pytest.approx(lam / 2, rel=1e-12)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"p(0)=0, p(ln2)=0.5 @1e-12, 1000 linearity draws in {elapsed:.2f}s")


# -- 2. gamma table vs quadrature oracle --------------------------------------

def test_criterion_2_gamma_table_quadrature():
    t0 = time.perf_counter()
    pairs = [(5.0, 2.0), (7.0, 3.0), (3.0, 1.0), (10.0, 4.5), (6.5, 2.2)]
    worst = 0.0
    for mean, sd in pairs:
        table = day_weight_table(mean, sd)
        assert table[1:].sum() >= 1.0 - 1e-6
        shape, scale = (mean / sd) ** 2, sd * sd / mean
        norm = math.gamma(shape) * scale ** shape
        pdf = lambda x: x ** (shape - 1.0) * math.exp(-x / scale) / norm
        for t in range(1, len(table)):
            ref, _ = integrate.quad(pdf, t - 1, t, epsabs=1e-12, epsrel=1e-12)
            worst = max(worst, abs(table[t] - ref))
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(2, f"5 (mean, sd) pairs, worst |table - quadrature| = {worst:.2e}, "
              f"tail mass < 1e-6, in {elapsed:.2f}s")


# -- 3. hazard-aggregation identity -------------------------------------------

def all_graphs_up_to(n_max):
    for n in range(2, n_max + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1, 2 ** len(pairs)):
            yield n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


def test_criterion_3_hazard_aggregation_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    checked = 0
    for n, edges in all_graphs_up_to(5):
        lam = rng.uniform(0.01, 1.5, size=len(edges))
        for agent in range(n):
            incident = [lam[i] for i, (u, v) in enumerate(edges)
                        if agent in (u, v)]
            if not incident:
                continue
            aggregate = 1.0 - math.exp(-sum(incident))
            independent = 1.0 - math.prod(1.0 - (1.0 - math.exp(-l))
                                          for l in incident)
            assert abs(aggregate - independent) < 1e-12
            checked += 1

    # keyed Monte Carlo at 1e5 trials on a 4-edge star, both draw styles
    lam_edge = 0.35
    p_edge = 1.0 - math.exp(-lam_edge)
    trials = 100_000
    seeds = np.arange(trials, dtype=np.int64)
    # aggregate: one draw per trial against the summed hazard of one edge
    u = uniforms(12345, 0, Purpose.INFECTION, seeds)
    agg_freq = float(np.mean(u < p_edge))
    # independent: per-edge draws; a leaf has one incident edge, the center 4
    center_p = 1.0 - math.exp(-4 * lam_edge)
    hit = np.zeros(trials, dtype=bool)
    for j in range(4):
        u_edge = uniforms(999, j, Purpose.INFECTION_EDGE, seeds)
        hit |= u_edge < p_edge
    indep_freq = float(np.mean(hit))
    sigma_leaf = math.sqrt(p_edge * (1 - p_edge) / trials)
    sigma_center = math.sqrt(center_p * (1 - center_p) / trials)
    assert abs(agg_freq - p_edge) < 3 * sigma_leaf
    assert abs(indep_freq - center_p) < 3 * sigma_center
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, f"{checked} analytic agent checks over all graphs <= 5 nodes @1e-12; "
              f"MC 1e5: aggregate |{agg_freq:.4f}-{p_edge:.4f}|, "
              f"independent |{indep_freq:.4f}-{center_p:.4f}| within 3 sigma; "
              f"{elapsed:.1f}s")


# -- 4. priority-order table ---------------------------------------------------

def test_criterion_4_dosing_priority_orders():
    t0 = time.perf_counter()
    ages = np.array([7, 7, 6, 6, 3, 3])    # 78, 78, 68, 68, 40, 40
    dose2 = np.array([False, True, False, True, False, True])
    names = ["Adam", "Betty", "Charlie", "David", "Eleanor", "Frank"]
    expected = {
        Strategy.STANDARD_DOSING: ["Betty", "David", "Frank",
                                   "Adam", "Charlie", "Eleanor"],
        Strategy.DELAYED_SECOND_DOSE: ["Adam", "Charlie", "Eleanor",
                                       "Betty", "David", "Frank"],
        Strategy.DELAYED_EXCEPT_ELDERLY: ["Adam", "Betty", "Charlie",
                                          "David", "Eleanor", "Frank"],
    }
    for strategy, want in expected.items():
        perm = priority_sort_key(strategy, 6, ages, dose2)
        assert [names[i] for i in perm] == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, "all three strategy orders over the six named agents exact")


# -- 5. small-world generator ---------------------------------------------------

def test_criterion_5_watts_strogatz_statistics():
    t0 = time.perf_counter()
    n, k = 1000, 6

    def brute_clustering(us, vs):
        adj = [set() for _ in range(n)]
        for u, v in zip(us.tolist(), vs.tolist()):
            adj[u].add(v)
            adj[v].add(u)
        total = 0.0
        for nb in adj:
            d = len(nb)
            if d < 2:
                continue
            nbl = sorted(nb)
            links = sum(1 for i, a in enumerate(nbl)
                        for b in nbl[i + 1:] if b in adj[a])
            total += 2.0 * links / (d * (d - 1))
        return total / n

    us0, vs0 = watts_strogatz(n, k, 0.0, np.random.default_rng(0))
    degrees = np.bincount(np.concatenate([us0, vs0]), minlength=n)
    assert np.all(degrees == k)

    clustering = {}
    for beta in (0.0, 0.1, 1.0):
        us, vs = watts_strogatz(n, k, beta, np.random.default_rng(17))
        assert len(us) == n * k // 2          # edge count preserved
        clustering[beta] = brute_clustering(us, vs)
    assert clustering[0.0] > clustering[0.1] > clustering[1.0]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, "beta=0 all degrees k; edge count n*k/2 at every beta; "
              f"clustering {clustering[0.0]:.3f} > {clustering[0.1]:.3f} > "
              f"{clustering[1.0]:.3f}; {elapsed:.1f}s")


# -- 6. oracle replay equivalence ------------------------------------------------

@pytest.mark.slow
def test_criterion_6_oracle_replay_equivalence():
    t0 = time.perf_counter()
    pop = default_population_dict()
    pop["n_agents"] = 500
    config = scenario_from_dict({
        "population": pop, "horizon": 50, "replications": 1,
        "base_seed": 11, "initial_infections": 10,
        "interventions": {
            "quarantine": {"enabled": True, "dropout_prob": 0.05},
            "testing": {"enabled": True, "kind": "rt-pcr"},
            "den": {"enabled": True, "app_adoption": 0.4,
                    "compliance_prob": 0.8},
            "vaccination": {"enabled": True, "strategy": "standard",
                            "daily_rate": 0.005, "start_trigger": 0.01,
                            "immunity_mode": "sterilizing"},
        }}, name="replay")
    steps = verify_equivalence(config)
    elapsed = time.perf_counter() - t0
    assert steps == 50
    assert elapsed < 60.0
    report(6, f"500 agents x 50 steps, all interventions, bitwise identical "
              f"in {elapsed:.1f}s")


# -- 7. intervention stacking -----------------------------------------------------

@pytest.mark.slow
def test_criterion_7_intervention_stacking():
    t0 = time.perf_counter()
    ladder = {
        "none": {},
        "quarantine": {
            "quarantine": {"enabled": True},
            "testing": {"enabled": True, "kind": "rt-pcr"}},
        "quarantine+den": {
            "quarantine": {"enabled": True},
            "testing": {"enabled": True, "kind": "rt-pcr"},
            "den": {"enabled": True, "app_adoption": 0.3,
                    "compliance_prob": 0.8}},
        "quarantine+den+poc": {
            "quarantine": {"enabled": True},
            "testing": {"enabled": True, "kind": "rapid-poc"},
            "den": {"enabled": True, "app_adoption": 0.3,
                    "compliance_prob": 0.8}},
    }
    medians = []
    for name, interventions in ladder.items():
        pop = default_population_dict()
        pop["n_agents"] = 10_000
        config = scenario_from_dict({
            "population": pop, "horizon": 120, "replications": 10,
            "base_seed": 42, "initial_infections": 10,
            "interventions": interventions}, name=name)
        results = run_scenario(config)
        medians.append(float(np.median(
            [r.column("cumulative_infections")[-1] for r in results])))
    assert medians[0] >= medians[1] >= medians[2] >= medians[3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report(7, "median cumulative infections "
              + " >= ".join(f"{m:.0f}" for m in medians)
              + f" (none, q, q+den, q+den+poc); {elapsed:.0f}s")


# -- 8. dosing case study ----------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_dosing_case_study():
    t0 = time.perf_counter()

    def median_deaths(strategy, efficacy, rate):
        pop = default_population_dict()
        pop["n_agents"] = 20_000
        config = scenario_from_dict({
            "population": pop, "horizon": 180, "replications": 5,
            "base_seed": 99, "initial_infections": 10,
            "interventions": {"vaccination": {
                "enabled": True, "strategy": strategy,
                "dose1_efficacy": efficacy, "daily_rate": rate,
                "start_trigger": 0.01, "immunity_mode": "sterilizing"}},
        }, name=f"{strategy}-{efficacy}-{rate}")
        results = run_scenario(config)
        return float(np.median([r.column("cumulative_deaths")[-1]
                                for r in results]))

    high_std = median_deaths("standard", 0.9, 0.003)
    high_dly = median_deaths("delayed", 0.9, 0.003)
    low_std = median_deaths("standard", 0.6, 0.003)
    low_dly = median_deaths("delayed", 0.6, 0.003)
    fast_std = median_deaths("standard", 0.8, 0.01)
    fast_dly = median_deaths("delayed", 0.8, 0.01)

    assert high_dly <= high_std     # strong first dose: cover more people
    assert low_std <= low_dly       # weak first dose: protect the old deeply
    assert fast_std <= fast_dly     # ample supply: standard catches up
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    report(8, f"e1=0.9@0.3%: delayed {high_dly:.0f} <= standard {high_std:.0f}; "
              f"e1=0.6@0.3%: standard {low_std:.0f} <= delayed {low_dly:.0f}; "
              f"e1=0.8@1%: standard {fast_std:.0f} <= delayed {fast_dly:.0f}; "
              f"{elapsed:.0f}s")


# -- 9. scale benchmark -------------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_scale_benchmark():
    big = default_scenario(n_agents=100_000, horizon=180, replications=8,
                           base_seed=5)
    single = bench(big)
    assert single.wall_seconds <= 900.0
    assert 1e8 <= single.interactions <= 4e8

    t0 = time.perf_counter()
    run_scenario(big, workers=8)
    batch_wall = time.perf_counter() - t0
    amortized = batch_wall / 8
    assert amortized <= 300.0

    small = default_scenario(n_agents=10_000, horizon=180, replications=1,
                             base_seed=5)
    small_report = bench(small)
    edge_ratio = single.interactions / small_report.interactions
    time_ratio = single.wall_seconds / small_report.wall_seconds
    assert time_ratio <= 2.0 * edge_ratio
    report(9, f"single {single.wall_seconds:.0f}s for "
              f"{single.interactions / 1e8:.2f}e8 interactions; 8 workers "
              f"amortized {amortized:.0f}s/run; 10K->100K wall ratio "
              f"{time_ratio:.1f} vs edge ratio {edge_ratio:.1f}")


# -- 10. determinism ------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_10_byte_identical_reruns(tmp_path):
    t0 = time.perf_counter()
    pop = default_population_dict()
    pop["n_agents"] = 10_000
    config = scenario_from_dict({
        "population": pop, "horizon": 60, "replications": 3,
        "base_seed": 77, "initial_infections": 10,
        "interventions": {
            "quarantine": {"enabled": True},
            "testing": {"enabled": True, "kind": "rt-pcr"},
            "den": {"enabled": True},
            "vaccination": {"enabled": True, "daily_rate": 0.003,
                            "start_trigger": 0.01}}}, name="determinism")
    run_scenario(config, out_dir=tmp_path / "a", workers=1)
    run_scenario(config, out_dir=tmp_path / "b", workers=3)
    run_scenario(config, out_dir=tmp_path / "c", workers=1)
    names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
    assert names == ["run_000.csv", "run_001.csv", "run_002.csv"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a == (tmp_path / "c" / name).read_bytes()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(10, f"3 replications x 3 runs (1 and 3 workers) byte-identical; "
               f"{elapsed:.0f}s")
