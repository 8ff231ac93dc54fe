"""Progression table validation, scheduling, stage entry, and Monte Carlo
branch checks."""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from epivec.errors import ConfigError
from epivec.interventions import InterventionConfig
from epivec.oracle import OracleSim
from epivec.progression import (LEGAL_EDGES, DurationSpec, Edge, ProgressionTable,
                                round_delay)
from epivec.rng import Purpose, uniform, uniforms
from epivec.scenario import default_progression_dict
from epivec.stages import MAX_STEP_OFFSET, NEVER, N_AGE_BANDS, Stage
from epivec.state import AgentColumns

from test_interventions import blank_state, flat_disease, simple_table


def minimal_table(p_hosp_80plus=0.3, asymp_duration=None):
    """Small but complete table; uniform entry into ASYMPTOMATIC for youth."""
    ones = [1.0] * 9
    p_hosp = [0.1] * 8 + [p_hosp_80plus]
    p_rec = [round(1.0 - p, 10) for p in p_hosp]
    duration = asymp_duration or {"family": "constant", "days": 7}
    return ProgressionTable.from_dict({"edges": [
        {"from": "susceptible", "to": "asymptomatic", "probability": [0.4] * 9},
        {"from": "susceptible", "to": "presymptomatic_mild", "probability": [0.5] * 9},
        {"from": "susceptible", "to": "presymptomatic_severe", "probability": [0.1] * 9},
        {"from": "asymptomatic", "to": "recovered", "probability": ones,
         "duration": duration},
        {"from": "presymptomatic_mild", "to": "mild_symptomatic",
         "probability": ones, "duration": {"family": "gamma", "mean": 5, "sd": 2}},
        {"from": "presymptomatic_severe", "to": "severe_symptomatic",
         "probability": ones, "duration": {"family": "lognormal", "mu": 1.5, "sigma": 0.4}},
        {"from": "mild_symptomatic", "to": "recovered", "probability": ones,
         "duration": {"family": "gamma", "mean": 7, "sd": 2}},
        {"from": "severe_symptomatic", "to": "hospitalized", "probability": p_hosp,
         "duration": {"family": "gamma", "mean": 4, "sd": 1}},
        {"from": "severe_symptomatic", "to": "recovered", "probability": p_rec,
         "duration": {"family": "gamma", "mean": 9, "sd": 2}},
        {"from": "hospitalized", "to": "critical_icu", "probability": [0.2] * 9,
         "duration": {"family": "gamma", "mean": 3, "sd": 1}},
        {"from": "hospitalized", "to": "recovered", "probability": [0.8] * 9,
         "duration": {"family": "gamma", "mean": 8, "sd": 2}},
        {"from": "critical_icu", "to": "dead", "probability": [0.5] * 9,
         "duration": {"family": "gamma", "mean": 5, "sd": 2}},
        {"from": "critical_icu", "to": "recovered", "probability": [0.5] * 9,
         "duration": {"family": "gamma", "mean": 7, "sd": 2}},
    ]})


class TestValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError, match=r"sum to"):
            ProgressionTable.from_dict({"edges": [
                {"from": "susceptible", "to": "asymptomatic",
                 "probability": [0.5] * 9},
                {"from": "susceptible", "to": "presymptomatic_mild",
                 "probability": [0.4] * 9},
                {"from": "susceptible", "to": "presymptomatic_severe",
                 "probability": [0.2] * 9},
            ]})

    def test_illegal_edge_rejected_with_location(self):
        with pytest.raises(ConfigError, match=r"edges\[0\].*illegal"):
            ProgressionTable.from_dict({"edges": [
                {"from": "recovered", "to": "susceptible", "probability": [1.0] * 9},
            ]})

    @pytest.mark.parametrize("ends", [{"from": "susceptibl", "to": "asymptomatic"},
                                      {"from": ["susceptible"], "to": "asymptomatic"},
                                      {"to": "asymptomatic"},
                                      {"from": "susceptible", "to": "asymptomatc"}])
    def test_edge_ends_must_name_stages(self, ends):
        with pytest.raises(ConfigError, match=r"^progression\.edges\[0\]\.(from|to): "
                                              "(expected one of|required key missing)"):
            ProgressionTable.from_dict({"edges": [{**ends, "probability": [1.0] * 9}]})

    def test_out_of_range_probability_reports_band(self):
        probs = [0.4] * 9
        probs[7] = 1.4
        with pytest.raises(ConfigError, match=r"probability\[7\]"):
            ProgressionTable.from_dict({"edges": [
                {"from": "susceptible", "to": "asymptomatic", "probability": probs},
            ]})

    def test_duration_family_errors(self):
        with pytest.raises(ConfigError, match="duration"):
            DurationSpec.from_dict({"family": "weibull", "k": 2}, "edges[0].duration")
        with pytest.raises(ConfigError):
            DurationSpec.from_dict({"family": "gamma", "mean": -1, "sd": 2}, "x")

    @pytest.mark.parametrize("family, params, message", [
        ("gamma", (-1.0, 2.0), r"\.mean: expected a value > 0, got -1\.0$"),
        ("weibull", (1.0,), r"\.family: expected one of \['constant', 'gamma', "
                            r"'lognormal'\], got 'weibull'$"),
        ("constant", (0,), r"\.days: expected a value > 0, got 0\.0$"),
        ("lognormal", (1.5,), r": expected the 2 parameters \(mu, sigma\) of "
                              r"lognormal, got \(1\.5,\)$"),
        (("mean", "sd"), (5, 2), r"\.family: expected one of \['constant', 'gamma', "
                                 r"'lognormal'\], got \('mean', 'sd'\)$"),
        ("gamma", (1e-300, 1.0), r": expected gamma parameters whose shape is finite "
                                 r"and > 0, got shape=0\.0 from \(1e-300, 1\.0\)$"),
        ("gamma", (1e200, 1e-200), r": expected gamma parameters whose shape is "
                                   r"finite and > 0, got shape=inf from "),
        ("gamma", (1.0, 1e-300), r": expected gamma parameters whose shape is finite "
                                 r"and > 0, got shape=inf from "),
        ("gamma", (1.0, 1e155), r": expected gamma parameters whose scale is finite "
                                r"and > 0, got scale=inf from "),
        ("lognormal", (-800.0, 1.0), r": expected lognormal parameters whose exp\(mu\) "
                                     r"is finite and > 0, got exp\(mu\)=0\.0 from "),
        ("lognormal", (800.0, 1.0), r": expected lognormal parameters whose exp\(mu\) "
                                    r"is finite and > 0, got exp\(mu\)=inf from "),
        # delays past MAX_STEP_OFFSET, at the largest keyed uniform
        ("gamma", (3e9, 1.0), r": expected gamma parameters whose longest delay is at "
                              r"most 1073741824 steps, got 3000000008\.0 from "),
        ("gamma", (1e150, 1e150), r": expected gamma parameters whose longest delay "
                                  r"is at most 1073741824 steps, got 3\.67\d*e\+151 "),
        ("lognormal", (700.0, 10.0), r": expected lognormal parameters whose longest "
                                     r"delay is at most 1073741824 steps, got inf "),
        ("constant", (1e10,), r": expected constant parameters whose longest delay is "
                              r"at most 1073741824 steps, got 10000000000\.0 "),
    ])
    def test_duration_built_in_python_is_checked(self, family, params, message):
        with pytest.raises(ConfigError,
                           match=r"^progression\.edges\[i\]\.duration" + message):
            DurationSpec(family, params)

    def test_longest_delay_up_to_max_step_offset_is_accepted(self):
        """A lognormal with a median of 20 days and sigma 1 reaches 73,517
        days at the largest keyed uniform, far past ten years, and is kept."""
        spec = DurationSpec("lognormal", (math.log(20.0), 1.0))
        assert round_delay(spec.quantile(np.nextafter(1.0, 0.0))) == 73_517
        assert DurationSpec("constant", (float(MAX_STEP_OFFSET),)).params == (2.0**30,)

    def test_duration_read_from_json_names_its_edge(self):
        table = default_progression_dict()
        table["edges"][3]["duration"] = {"family": "gamma", "mean": -1, "sd": 2}
        with pytest.raises(ConfigError, match=r"^progression\.edges\[3\]\.duration"
                                              r"\.mean: expected a value > 0, got -1\.0$"):
            ProgressionTable.from_dict(table)
        assert DurationSpec("gamma", [5, 2]).params == (5.0, 2.0)

    @pytest.mark.parametrize("change, message", [
        pytest.param(lambda edges: edges[0].update(duration={"family": "constant",
                                                             "days": 1}),
                     r"^progression\.edges\[0\]: entry branches take effect at "
                     "infection and cannot carry a duration$", id="entry duration"),
        pytest.param(lambda edges: edges[3].pop("duration"),
                     r"^progression\.edges\[3\]: missing duration$", id="no duration"),
        pytest.param(lambda edges: edges.append(edges[3]),
                     r"^progression\.edges\[13\]: duplicate transition asymptomatic "
                     "-> recovered$",
                     id="duplicate"),
        pytest.param(lambda edges: edges.pop(3),
                     r"^progression\.edges: no edges out of asymptomatic$",
                     id="missing stage"),
    ])
    def test_rules_across_edges(self, change, message):
        table = default_progression_dict()
        change(table["edges"])
        with pytest.raises(ConfigError, match=message):
            ProgressionTable.from_dict(table)

    def test_table_built_in_python_reads_names(self):
        """Edges set in Python are typed and checked as the JSON ones are."""
        table = ProgressionTable.from_dict(default_progression_dict())
        edges = [Edge(from_=str(e.from_), to=str(e.to), probability=list(e.probability),
                      duration=e.duration) for e in table.edges]
        rebuilt = ProgressionTable(edges=edges)
        assert [(e.from_, e.to) for e in rebuilt.edges] == [(e.from_, e.to)
                                                           for e in table.edges]
        for name in ("to", "first", "count", "cum_probs"):
            assert np.array_equal(getattr(rebuilt, name), getattr(table, name)), name
        with pytest.raises(ConfigError, match=r"^progression\.edges\[i\]\.to: expected "
                                              "one of"):
            Edge(from_="susceptible", to="asymptomatc", probability=[1.0] * 9)


def schedule(table, stages, ages, u_branch, u_delay):
    """``schedule_transitions`` over lists, back as two lists."""
    nxt, delay = table.schedule_transitions(
        np.asarray(stages, dtype=np.int8), np.asarray(ages, dtype=np.int8),
        np.asarray(u_branch, dtype=np.float64), np.asarray(u_delay, dtype=np.float64))
    return nxt.tolist(), delay.tolist()


def walk(table):
    """The oracle's own branch pick, ``OracleSim._branch``, over ``table``."""
    return OracleSim([], flat_disease(), table, InterventionConfig(), seed=0)._branch


class TestScheduling:
    def test_degenerate_constant_table(self):
        assert schedule(minimal_table(), [Stage.ASYMPTOMATIC], [3], [0.37], [0.91]) \
            == ([int(Stage.RECOVERED)], [7])

    def test_absorbing_stages_are_never_scheduled(self):
        """Dead, recovered and vaccinated give (NEVER, NEVER)."""
        absorbing = [Stage.DEAD, Stage.RECOVERED, Stage.VACCINATED]
        assert schedule(minimal_table(), absorbing, [0, 4, 8], [0.5, 0.0, 0.99],
                        [0.5, 0.0, 0.99]) == ([NEVER] * 3, [NEVER] * 3)

    def test_delay_at_least_one_step(self):
        table = minimal_table(asymp_duration={"family": "gamma",
                                              "mean": 0.3, "sd": 0.2})
        u = [0.001, 0.5, 0.999]
        _, delay = schedule(table, [Stage.ASYMPTOMATIC] * 3, [0] * 3, [0.0] * 3, u)
        assert min(delay) >= 1

    def test_round_delay_half_even(self):
        assert round_delay(1.5) == 2.0
        assert round_delay(2.5) == 2.0
        assert round_delay(0.2) == 1.0

    def test_pick_matches_the_oracle_walk(self):
        table = minimal_table()
        rng = np.random.default_rng(0)
        stages = rng.choice([int(Stage.ASYMPTOMATIC), int(Stage.SEVERE_SYMPTOMATIC),
                             int(Stage.HOSPITALIZED), int(Stage.CRITICAL_ICU)],
                            size=400).astype(np.int8)
        ages = rng.integers(0, 9, size=400).astype(np.int8)
        u_b = rng.random(400)
        u_d = rng.random(400)
        nxt_vec, delay_vec = table.schedule_transitions(stages, ages, u_b, u_d)
        branch = walk(table)
        for i in range(400):
            edge = branch(int(stages[i]), int(ages[i]), float(u_b[i]))
            assert nxt_vec[i] == int(edge.to)
            assert delay_vec[i] == int(round_delay(edge.duration.quantile(float(u_d[i]))))

    def test_entry_stages_match_the_oracle_walk(self):
        table = minimal_table()
        rng = np.random.default_rng(1)
        ages = rng.integers(0, 9, size=300).astype(np.int8)
        u = rng.random(300)
        vec = table.entry_stages(ages, u)
        branch = walk(table)
        for i in range(300):
            assert vec[i] == int(branch(Stage.SUSCEPTIBLE, int(ages[i]), float(u[i])).to)

    def test_branch_frequency_monte_carlo(self):
        # configured P(severe -> hospitalized) = 0.3 for the 80+ band; the
        # empirical rate over 1e5 keyed draws must sit within +-0.005
        table = minimal_table(p_hosp_80plus=0.3)
        n = 100_000
        ids = np.arange(n, dtype=np.int64)
        u_b = uniforms(99, 0, Purpose.PROGRESSION_BRANCH, ids)
        u_d = uniforms(99, 0, Purpose.PROGRESSION_DELAY, ids)
        stages = np.full(n, int(Stage.SEVERE_SYMPTOMATIC), dtype=np.int8)
        ages = np.full(n, 8, dtype=np.int8)
        nxt, _ = table.schedule_transitions(stages, ages, u_b, u_d)
        freq = np.mean(nxt == int(Stage.HOSPITALIZED))
        assert abs(freq - 0.3) < 0.005

    def test_only_legal_destinations_fire(self):
        table = minimal_table()
        rng = np.random.default_rng(2)
        for stage in (Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD,
                      Stage.PRESYMPTOMATIC_SEVERE, Stage.MILD_SYMPTOMATIC,
                      Stage.SEVERE_SYMPTOMATIC, Stage.HOSPITALIZED,
                      Stage.CRITICAL_ICU):
            nxt, delay = schedule(table, [stage] * 50, rng.integers(0, 9, size=50),
                                  rng.random(50), rng.random(50))
            assert set(nxt) <= {int(t) for t in LEGAL_EDGES[stage]}
            assert min(delay) >= 1


class TestPickBoundaries:
    """The two boundaries of the pick that keyed draws almost never land on,
    each pinned against the oracle's walk."""

    def test_a_band_summing_below_one_takes_the_last_edge_at_the_largest_draw(self):
        """The packaged entry branches of age band 5 sum to 1 - 2**-53, the
        largest keyed uniform, which no branch's sum then exceeds; the pick
        clamps to the last."""
        table = default_table()
        assert table.cum_probs[Stage.SUSCEPTIBLE, 5, 2] == 0.9999999999999999
        u = np.nextafter(1.0, 0.0)
        assert u == 1 - 2**-53
        last = int(table.edges[2].to)
        assert table.entry_stages(np.array([5], dtype=np.int8), np.array([u])).tolist() \
            == [last]
        assert int(walk(table)(Stage.SUSCEPTIBLE, 5, u).to) == last

    @pytest.mark.parametrize("band", range(N_AGE_BANDS))
    def test_a_draw_on_an_interior_sum_takes_the_next_edge(self, band):
        table = default_table()
        branch = walk(table)
        for k in (0, 1):   # the sums after entry branches 0 and 1
            u = float(table.cum_probs[Stage.SUSCEPTIBLE, band, k])
            entry = table.entry_stages(np.array([band], dtype=np.int8), np.array([u]))
            assert entry.tolist() == [int(table.edges[k + 1].to)]
            assert branch(Stage.SUSCEPTIBLE, band, u) is table.edges[k + 1]
        u = float(table.cum_probs[Stage.SEVERE_SYMPTOMATIC, band, 0])
        nxt, _ = schedule(table, [Stage.SEVERE_SYMPTOMATIC], [band], [u], [0.5])
        assert nxt == [int(branch(Stage.SEVERE_SYMPTOMATIC, band, u).to)] \
            == [int(Stage.RECOVERED)]


def reference_quantile(spec: DurationSpec, u):
    """``DurationSpec.quantile`` through ``scipy.stats`` for a gamma or a
    lognormal, the parent's forms verbatim but for the names."""
    if spec.family == "gamma":
        mean, sd = spec.params
        shape = (mean / sd) ** 2
        scale = sd * sd / mean
        return stats.gamma.ppf(u, shape, scale=scale)
    mu, sigma = spec.params
    return stats.lognorm.ppf(u, sigma, scale=math.exp(mu))


# u = 0, the smallest subnormal and the largest double below 1
PINNED_U = np.array([0.0, 5e-324, np.nextafter(1.0, 0.0)])
UNIT = st.floats(0.0, 1.0, exclude_max=True)


def assert_same_quantiles(spec, u, scalar):
    """Equal bytes for the pinned values and ``u``, and for one scalar, of
    the same type."""
    u = np.concatenate((PINNED_U, u))
    with np.errstate(over="ignore"):
        assert spec.quantile(u).tobytes() == reference_quantile(spec, u).tobytes()
        for x in (*PINNED_U.tolist(), scalar):
            got, want = spec.quantile(x), reference_quantile(spec, x)
            assert type(got) is type(want)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def accepted(family_params):
    """The spec, or None where construction refuses it."""
    try:
        return DurationSpec(*family_params)
    except ConfigError:
        return None


def duration_specs():
    """Gamma means and sds, lognormal mus and sigmas, over many decades;
    specs whose kernel constants overflow or underflow, or whose longest
    delay exceeds ``MAX_STEP_OFFSET``, are refused at construction, so are
    not drawn."""
    decades = st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)
    positive = st.one_of(decades, st.floats(1e-6, 1e6))
    gamma = st.tuples(st.just("gamma"), st.tuples(positive, positive))
    lognormal = st.tuples(st.just("lognormal"),
                          st.tuples(st.floats(-700.0, 20.0), st.floats(1e-4, 100.0)))
    return st.one_of(gamma, lognormal).map(accepted).filter(bool)


class TestQuantileKernels:
    """``quantile`` calls the kernels that ``scipy.stats``'s wrappers end in;
    the wrappers stay here as the reference."""

    @settings(max_examples=300, deadline=None)
    @given(spec=duration_specs(), u=arrays(np.float64, st.integers(0, 40), elements=UNIT),
           scalar=UNIT)
    @example(spec=DurationSpec("gamma", (5.0, 2.0)), u=np.empty(0), scalar=0.5)
    # exp(sigma * ndtri(u)) is near overflow at the largest u, 0 at the smallest
    @example(spec=DurationSpec("lognormal", (-700.0, 86.0)), u=np.empty(0), scalar=0.5)
    def test_matches_scipy_stats_bytes(self, spec, u, scalar):
        assert_same_quantiles(spec, u, scalar)

    def test_packaged_specs_match_scipy_stats_bytes(self):
        u = np.random.default_rng(5).random(10_000)
        specs = [d for d in default_table().durations
                 if d is not None and d.family != "constant"]
        assert {d.family for d in specs} == {"gamma", "lognormal"}
        for spec in specs:
            assert_same_quantiles(spec, u, float(u[0]))


@functools.lru_cache(maxsize=None)
def default_table():
    return ProgressionTable.from_dict(default_progression_dict())


def parent_infect(table, c, new, seed, step, sterilizing):
    """Seeding and ``Engine._phase_transmission`` before ``infect``, verbatim
    but for the names (seeding had no immunity override)."""
    u_entry = uniforms(seed, step, Purpose.ENTRY_STAGE, new)
    entry = table.entry_stages(c.age_band[new], u_entry)
    if not sterilizing:
        entry = np.where(c.immune[new], np.int8(Stage.ASYMPTOMATIC), entry)
    c.stage[new] = entry
    c.infected_at[new] = step
    u_b = uniforms(seed, step, Purpose.PROGRESSION_BRANCH, new)
    u_d = uniforms(seed, step, Purpose.PROGRESSION_DELAY, new)
    nxt, delay = table.schedule_transitions(entry, c.age_band[new], u_b, u_d)
    c.next_stage[new] = nxt
    c.next_transition_at[new] = step + delay


def parent_progression(table, c, step, seed):
    """``Engine._phase_progression`` before ``enter``, verbatim but for the
    names, with its absorbing branch."""
    due = np.nonzero(c.next_transition_at == step)[0]
    if not len(due):
        return np.empty(0, dtype=np.int64)
    dest = c.next_stage[due].copy()
    c.stage[due] = dest
    symptomatic = due[(dest == int(Stage.MILD_SYMPTOMATIC))
                      | (dest == int(Stage.SEVERE_SYMPTOMATIC))]
    absorbing = (dest == int(Stage.RECOVERED)) | (dest == int(Stage.DEAD))
    c.next_stage[due[absorbing]] = NEVER
    c.next_transition_at[due[absorbing]] = NEVER
    onward = due[~absorbing]
    if len(onward):
        u_b = uniforms(seed, step, Purpose.PROGRESSION_BRANCH, onward)
        u_d = uniforms(seed, step, Purpose.PROGRESSION_DELAY, onward)
        nxt, delay = table.schedule_transitions(
            c.stage[onward], c.age_band[onward], u_b, u_d)
        c.next_stage[onward] = nxt
        c.next_transition_at[onward] = step + delay
    return symptomatic


ENTERED = sorted({int(t) for targets in LEGAL_EDGES.values() for t in targets})
ENTRY_COLUMNS = ("stage", "infected_at", "next_stage", "next_transition_at")


def agents(draw, n):
    """Twin columns of ``n`` agents with drawn age bands and immunity."""
    ages = draw(st.lists(st.integers(0, N_AGE_BANDS - 1), min_size=n, max_size=n))
    immune = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    twins = []
    for _ in range(2):
        c = AgentColumns.allocate(n)
        c.age_band[:] = ages
        c.immune[:] = immune
        twins.append(c)
    return twins


def assert_same_entries(cols, ref):
    for name in ENTRY_COLUMNS:
        assert getattr(cols, name).tobytes() == getattr(ref, name).tobytes(), name


class TestStageEntry:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**31 - 1),
           step=st.integers(0, 400), sterilizing=st.booleans())
    def test_infect_matches_the_parent_sequence(self, data, n, seed, step, sterilizing):
        """In sterilizing mode no immune agent is a target, so the override
        the parent skipped there never changes a stage."""
        cols, ref = agents(data.draw, n)
        new = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        if sterilizing:
            new = new[~cols.immune[new]]
        default_table().infect(cols, new, seed, step)
        parent_infect(default_table(), ref, new, seed, step, sterilizing)
        assert_same_entries(cols, ref)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40), seed=st.integers(0, 2**31 - 1),
           step=st.integers(0, 400))
    def test_enter_matches_the_parent_sequence(self, data, n, seed, step):
        cols, ref = agents(data.draw, n)
        dest = data.draw(st.lists(st.sampled_from(ENTERED), min_size=n, max_size=n))
        due = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        for c in (cols, ref):
            c.next_stage[:] = dest
            c.next_transition_at[:] = np.where(due, step, step + 1)
        ids = np.flatnonzero(cols.next_transition_at == step)
        default_table().enter(cols, ids, cols.next_stage[ids], seed, step)
        parent_progression(default_table(), ref, step, seed)
        assert_same_entries(cols, ref)

    def test_enter_on_no_ids_changes_nothing(self):
        cols, ref = blank_state(3), blank_state(3)
        none = np.empty(0, dtype=np.int64)
        default_table().enter(cols, none, none.astype(np.int8), seed=4, step=9)
        assert_same_entries(cols, ref)

    def test_recovered_and_dead_have_no_next_transition(self):
        cols = blank_state(3)
        stages = np.array([Stage.RECOVERED, Stage.DEAD, Stage.ASYMPTOMATIC], dtype=np.int8)
        simple_table().enter(cols, np.arange(3), stages, seed=4, step=9)
        assert cols.stage.tolist() == stages.tolist()
        assert cols.next_stage.tolist() == [NEVER, NEVER, int(Stage.RECOVERED)]
        assert cols.next_transition_at.tolist() == [NEVER, NEVER, 9 + 30]

    def test_infected_immune_agent_enters_asymptomatic(self):
        """The table sends every non-immune agent to presymptomatic_mild."""
        cols = blank_state(2)
        cols.immune[0] = True
        simple_table().infect(cols, np.arange(2), seed=1, step=6)
        assert cols.stage.tolist() == [int(Stage.ASYMPTOMATIC),
                                       int(Stage.PRESYMPTOMATIC_MILD)]
        assert cols.infected_at.tolist() == [6, 6]
        assert cols.next_stage.tolist() == [int(Stage.RECOVERED),
                                            int(Stage.MILD_SYMPTOMATIC)]
        assert cols.next_transition_at.tolist() == [6 + 30, 6 + 2]
