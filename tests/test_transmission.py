"""Hazard formula and infectiousness-curve checks.

The day-weight table is validated against an independent numerical-quadrature
oracle (adaptive quadrature of the gamma density over each day), never
against the table's own CDF arithmetic.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate, stats

from epivec.errors import ConfigError, positive
from epivec.stages import NetworkKind
from epivec.transmission import (MAX_TAIL_DAY, TAIL_EPS, DiseaseParams,
                                 day_weight_table, edge_hazard, infection_probability)


def quadrature_mass(lo: float, hi: float, mean: float, sd: float) -> float:
    """Independent oracle: integrate the gamma pdf over [lo, hi]."""
    shape = (mean / sd) ** 2
    scale = sd * sd / mean
    norm = math.gamma(shape) * scale ** shape

    def pdf(x):
        return x ** (shape - 1.0) * math.exp(-x / scale) / norm

    value, _ = integrate.quad(pdf, lo, hi, epsabs=1e-12, epsrel=1e-12)
    return value


def quadrature_day_weight(t: int, mean: float, sd: float) -> float:
    """The curve's mass over day t, [t-1, t]."""
    return quadrature_mass(t - 1, t, mean, sd)


def reference_day_weight_table(mean_days: float, sd_days: float) -> np.ndarray:
    """``day_weight_table`` through the frozen ``scipy.stats.gamma``, the
    parent's body verbatim."""
    positive("disease.infectiousness_mean_days", mean_days)
    positive("disease.infectiousness_sd_days", sd_days)
    try:
        dist = stats.gamma((mean_days / sd_days) ** 2,
                           scale=sd_days * sd_days / mean_days)
        with np.errstate(invalid="ignore", over="ignore"):
            t_max = int(math.ceil(dist.isf(TAIL_EPS)))
    except (OverflowError, ValueError):   # shape or tail day overflows, or is NaN
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: "
            f"expected a curve with a finite tail day, got mean={mean_days!r}, "
            f"sd={sd_days!r}") from None
    if t_max > MAX_TAIL_DAY:
        raise ConfigError(
            "disease.infectiousness_mean_days, disease.infectiousness_sd_days: expected "
            f"a curve whose tail day is at most {MAX_TAIL_DAY}, got day {t_max} for "
            f"mean={mean_days!r}, sd={sd_days!r}")
    t_max = max(t_max, 1)
    cdf = dist.cdf(np.arange(0, t_max + 1, dtype=np.float64))
    weights = np.diff(cdf)
    return np.concatenate(([0.0], weights))


# 1e-8 to 1e8 days, drawn both uniformly and by decade
DAYS = st.one_of(st.floats(1e-8, 1e8), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e))


def table_or_error(build, mean, sd):
    try:
        return build(mean, sd).tobytes()
    except ConfigError as e:
        return str(e)


def make_params(**overrides) -> DiseaseParams:
    kwargs = dict(
        rate_scale=2.0,
        age_susceptibility=np.ones(9),
        asymptomatic_factor=0.5,
        network_scale=np.array([2.0, 1.0, 1.0]),
        mean_daily_interactions=10.0,
        infectiousness_mean_days=5.0,
        infectiousness_sd_days=2.0,
    )
    kwargs.update(overrides)
    return DiseaseParams(**kwargs)


class TestDayWeights:
    @pytest.mark.parametrize("mean,sd", [(5.0, 2.0), (7.0, 3.0), (3.0, 1.0),
                                         (10.0, 4.5), (6.5, 2.2)])
    def test_matches_quadrature_oracle(self, mean, sd):
        table = day_weight_table(mean, sd)
        for t in range(1, len(table)):
            assert table[t] == pytest.approx(
                quadrature_day_weight(t, mean, sd), abs=1e-8)

    @pytest.mark.parametrize("mean,sd", [(5.0, 2.0), (7.0, 3.0), (2.0, 2.0)])
    def test_weights_sum_to_one(self, mean, sd):
        """The table and the quadrature tail past its last day make up the curve."""
        table = day_weight_table(mean, sd)
        tail = quadrature_mass(len(table) - 1, math.inf, mean, sd)
        assert table.sum() + tail == pytest.approx(1.0, abs=1e-9)

    def test_telescoping_prefix(self):
        table = day_weight_table(5.0, 2.0)
        shape, scale = (5.0 / 2.0) ** 2, 4.0 / 5.0
        assert table[1] + table[2] == pytest.approx(
            stats.gamma.cdf(2, shape, scale=scale), abs=1e-12)

    def test_unimodal_rise_then_decay(self):
        table = day_weight_table(7.0, 3.0)
        w = table[1:]
        peak = int(np.argmax(w))
        assert 0 < peak < len(w) - 1
        assert np.all(np.diff(w[:peak + 1]) >= 0)
        assert np.all(np.diff(w[peak:]) <= 0)

    def test_residual_tail_below_threshold(self):
        table = day_weight_table(5.0, 2.0)
        t_max = len(table) - 1
        shape, scale = (5.0 / 2.0) ** 2, 4.0 / 5.0
        assert stats.gamma.sf(t_max, shape, scale=scale) < 1e-6
        assert table[1:].sum() >= 1.0 - 1e-6

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigError):
            day_weight_table(-1.0, 2.0)
        with pytest.raises(ConfigError):
            day_weight_table(5.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(mean=DAYS, sd=DAYS)
    @example(mean=1e-300, sd=1.0)      # the shape underflows to 0
    @example(mean=1e-308, sd=1e-308)   # the scale underflows to 0
    @example(mean=5.0, sd=2.0)
    def test_matches_scipy_stats_bytes(self, mean, sd):
        """The kernels give the bytes of the frozen ``stats.gamma``, and raise
        the same ConfigError where it gives NaN or an overlong tail."""
        assert table_or_error(day_weight_table, mean, sd) \
            == table_or_error(reference_day_weight_table, mean, sd)


class TestEdgeHazard:
    def test_direct_arithmetic(self):
        # rate=2, susceptibility=1, symptomatic source, network scale 1,
        # mean interactions 10, day weight w  ->  lam = 0.2 * w
        p = make_params()
        t = 5
        w = p.day_weights[t]
        lam = edge_hazard(t, False, 0, int(NetworkKind.OCCUPATION), p)
        assert lam == pytest.approx(2.0 * 1.0 * 1.0 * 1.0 / 10.0 * w, rel=1e-15)

    def test_far_tail_is_zero(self):
        p = make_params()
        assert edge_hazard(p.t_max + 50, False, 0, 0, p) == 0.0
        assert edge_hazard(0, False, 0, 0, p) == 0.0
        assert edge_hazard(-3, False, 0, 0, p) == 0.0

    def test_asymptomatic_scaling(self):
        p = make_params()
        lam_sym = edge_hazard(4, False, 2, 1, p)
        lam_asym = edge_hazard(4, True, 2, 1, p)
        assert lam_asym == pytest.approx(0.5 * lam_sym, rel=1e-12)

    @given(scale=st.floats(0.1, 8.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity_in_network_scale(self, scale):
        base = make_params()
        bumped = make_params(network_scale=np.array([2.0, scale, 1.0]))
        lam0 = edge_hazard(4, False, 3, int(NetworkKind.OCCUPATION), base)
        lam1 = edge_hazard(4, False, 3, int(NetworkKind.OCCUPATION), bumped)
        assert lam1 == pytest.approx(scale * lam0, rel=1e-12)

    def test_household_amplification(self):
        p = make_params()
        hh = edge_hazard(4, False, 3, int(NetworkKind.HOUSEHOLD), p)
        occ = edge_hazard(4, False, 3, int(NetworkKind.OCCUPATION), p)
        assert hh > occ

    def test_linearity_relations_random_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            rate, s, a, b, ibar = rng.uniform(0.1, 5.0, size=5)
            c = rng.uniform(1.2, 3.0)
            p0 = make_params(rate_scale=rate,
                             age_susceptibility=np.full(9, s),
                             asymptomatic_factor=a,
                             network_scale=np.array([b, b, b]),
                             mean_daily_interactions=ibar,
                             infectiousness_mean_days=5.0,
                             infectiousness_sd_days=2.0)
            lam0 = edge_hazard(5, True, 1, 2, p0)
            p_rate = make_params(rate_scale=rate * c,
                                 age_susceptibility=np.full(9, s),
                                 asymptomatic_factor=a,
                                 network_scale=np.array([b, b, b]),
                                 mean_daily_interactions=ibar)
            assert edge_hazard(5, True, 1, 2, p_rate) == pytest.approx(
                c * lam0, rel=1e-12)
            p_ibar = make_params(rate_scale=rate,
                                 age_susceptibility=np.full(9, s),
                                 asymptomatic_factor=a,
                                 network_scale=np.array([b, b, b]),
                                 mean_daily_interactions=ibar * c)
            assert edge_hazard(5, True, 1, 2, p_ibar) == pytest.approx(
                lam0 / c, rel=1e-12)


class TestInfectionProbability:
    def test_zero_hazard(self):
        assert infection_probability(0.0) == 0.0

    def test_log_two(self):
        assert infection_probability(math.log(2.0)) == pytest.approx(0.5, abs=1e-12)

    def test_small_hazard(self):
        assert infection_probability(0.05) == pytest.approx(0.048770575499286005,
                                                            abs=1e-12)

    def test_additivity_of_two_neighbors(self):
        # two identical contributions of 0.05 sum before the draw
        assert infection_probability(0.05 + 0.05) \
            == pytest.approx(1.0 - math.exp(-0.10), abs=1e-15)

    def test_negative_hazard_raises(self):
        with pytest.raises(ValueError):
            infection_probability(-1e-9)

    @given(lam=st.floats(0.0, 15.0), bump=st.floats(1e-4, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_strictly_monotone_where_resolvable(self, lam, bump):
        # strict growth holds wherever the increment clears one ulp of p
        p = infection_probability(lam)
        assert 0.0 <= p < 1.0
        assert infection_probability(lam + bump) > p

    @given(lam=st.floats(0.0, 60.0), bump=st.floats(0.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_nondecreasing_everywhere(self, lam, bump):
        assert infection_probability(lam + bump) >= infection_probability(lam)

    def test_float_saturation_far_tail(self):
        # beyond exp(-lam) < eps the float value pins to 1.0 exactly; draws
        # stay strict (u < 1), so behavior is still "certain infection"
        assert infection_probability(50.0) == 1.0
        assert infection_probability(1e9) == 1.0
