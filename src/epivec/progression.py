"""Within-agent disease progression.

A progression table lists the legal stage transitions, an age-stratified
branch probability for each, and a duration distribution per edge.  Branches
out of a stage sum to one per age band.  Durations are continuous days,
rounded to whole steps with a floor of one step.

Branch and duration draws are quantile transforms of keyed uniforms, so the
engine and the oracle sample identical values from identical keys.  The
table keeps its edges grouped by source stage with each stage's cumulative
branch probabilities, and picks every agent's edge in one array pass; the
oracle walks ``edges`` itself and calls each edge's quantile on its own
draw.  A duration's quantile calls the ``scipy.special``
kernel that scipy's ``stats`` distributions end in, with constants derived
once per spec: ``gammaincinv(shape, u) * scale`` for a gamma and
``exp(sigma * ndtri(u)) * exp(mu)`` for a lognormal, byte-identical to
``stats.gamma.ppf`` and ``stats.lognorm.ppf``.  The ``stats`` module costs
about 46 MB and a second to import, so only the tests load it, as the
reference.

The table also writes stage entries into the agent columns: ``infect`` draws
an entry stage and ``enter`` writes a stage and schedules the transition out
of it, for seeding, transmission and progression alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import rng as keyed
from .errors import Config, ConfigError, Setting, checked, positive, setting
from .rng import Purpose
from .stages import (MAX_STEP_OFFSET, NEVER, N_AGE_BANDS, N_STAGES, Stage,
                     STAGE_BY_NAME)
from .state import AgentColumns
from .transmission import gamma_shape_scale

# Transitions the model allows.  SUSCEPTIBLE edges are entry branches taken at
# the moment of infection (no duration); everything else is scheduled.
LEGAL_EDGES = {
    Stage.SUSCEPTIBLE: (Stage.ASYMPTOMATIC, Stage.PRESYMPTOMATIC_MILD,
                        Stage.PRESYMPTOMATIC_SEVERE),
    Stage.ASYMPTOMATIC: (Stage.RECOVERED,),
    Stage.PRESYMPTOMATIC_MILD: (Stage.MILD_SYMPTOMATIC,),
    Stage.PRESYMPTOMATIC_SEVERE: (Stage.SEVERE_SYMPTOMATIC,),
    Stage.MILD_SYMPTOMATIC: (Stage.RECOVERED,),
    Stage.SEVERE_SYMPTOMATIC: (Stage.HOSPITALIZED, Stage.RECOVERED),
    Stage.HOSPITALIZED: (Stage.CRITICAL_ICU, Stage.RECOVERED),
    Stage.CRITICAL_ICU: (Stage.DEAD, Stage.RECOVERED),
}
# Each duration family's parameters; all but a lognormal's mu must be positive.
_DURATION_PARAMS = {"gamma": ("mean", "sd"), "lognormal": ("mu", "sigma"),
                   "constant": ("days",)}
_PARAMETER = Setting(float)


def _family_params(family, where: str) -> tuple[str, ...]:
    """The parameter names of the family named ``family``; a family is stored
    by its name, so anything but one of the names is refused at ``where``."""
    if not isinstance(family, str) or family not in _DURATION_PARAMS:
        raise ConfigError(f"{where}: expected one of {sorted(_DURATION_PARAMS)}, "
                          f"got {family!r}")
    return _DURATION_PARAMS[family]


@dataclass(frozen=True)
class DurationSpec:
    """Family + parameters of one edge's stage-duration distribution (days),
    checked at construction: a known family, its parameter count, every
    parameter but a lognormal's ``mu`` positive, the constants its quantile
    reads, ``kernel``, finite and positive, and its longest delay at most
    ``MAX_STEP_OFFSET`` steps.  Quantiles rise with u, so the delay at the
    largest keyed uniform, 1 - 2**-53, bounds every delay it schedules."""

    PATH = "progression.edges[i].duration"

    family: str           # "gamma", "lognormal", or "constant"
    params: tuple
    # gamma (shape, scale); lognormal (sigma, exp(mu)); constant ()
    kernel: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = _family_params(self.family, f"{self.PATH}.family")
        if not isinstance(self.params, (tuple, list)) or len(self.params) != len(names):
            raise ConfigError(f"{self.PATH}: expected the {len(names)} parameters "
                              f"({', '.join(names)}) of {self.family}, "
                              f"got {self.params!r}")
        params = tuple(_PARAMETER.check(value, f"{self.PATH}.{name}")
                       for name, value in zip(names, self.params))
        for name, value in zip(names, params):
            if name != "mu":
                positive(f"{self.PATH}.{name}", value)
        if self.family == "gamma":
            kernel = dict(zip(("shape", "scale"), gamma_shape_scale(*params)))
        elif self.family == "lognormal":
            mu, sigma = params
            try:
                exp_mu = math.exp(mu)
            except OverflowError:
                exp_mu = math.inf
            kernel = {"sigma": sigma, "exp(mu)": exp_mu}
        else:
            kernel = {}   # a constant's quantile reads its days
        for name, value in kernel.items():
            if not 0 < value < math.inf:
                raise ConfigError(f"{self.PATH}: expected {self.family} parameters "
                                  f"whose {name} is finite and > 0, got "
                                  f"{name}={value!r} from {params!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "kernel", tuple(kernel.values()))
        with np.errstate(over="ignore"):   # an infinite delay is refused below
            longest = float(round_delay(self.quantile(np.nextafter(1.0, 0.0))))
        if not longest <= MAX_STEP_OFFSET:
            raise ConfigError(f"{self.PATH}: expected {self.family} parameters whose "
                              f"longest delay is at most {MAX_STEP_OFFSET} steps, "
                              f"got {longest!r} from {params!r}")

    def quantile(self, u):
        """Inverse CDF, elementwise over ``u``.  Byte-identical to
        ``stats.gamma.ppf(u, shape, scale=scale)`` and ``stats.lognorm.ppf(u,
        sigma, scale=exp(mu))``, whose wrappers end in these kernels."""
        if self.family == "gamma":
            shape, scale = self.kernel
            return special.gammaincinv(shape, u) * scale
        if self.family == "lognormal":
            sigma, exp_mu = self.kernel
            return np.exp(sigma * special.ndtri(u)) * exp_mu
        days = self.params[0]   # constant
        return np.full_like(np.asarray(u, dtype=np.float64), days)

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "DurationSpec":
        """The object ``d`` at ``where``, whose ``family`` names its numbers;
        the spec takes ``where`` as its ``PATH`` before construction checks it."""
        names = (_family_params(d.get("family"), f"{where}.family")
                 if isinstance(d, dict) else ())   # not an object: refused below
        checked(d, ("family", *names), where)
        spec = cls.__new__(cls)
        object.__setattr__(spec, "PATH", where)
        spec.__init__(d["family"], tuple(d.get(name) for name in names))
        return spec


def round_delay(days):
    """Continuous days -> whole steps, minimum 1 (half-even rounding)."""
    return np.maximum(np.rint(days), 1.0)


@dataclass(frozen=True)
class Edge(Config):
    """One transition: its branch probability per age band and, unless it is
    an entry branch, the duration of the stage it leaves."""

    PATH = "progression.edges[i]"

    from_: Stage = setting(STAGE_BY_NAME)
    to: Stage = setting(STAGE_BY_NAME)
    probability: np.ndarray = setting(float, lo=0, hi=1, size=N_AGE_BANDS)
    duration: DurationSpec | None = setting(DurationSpec, None)


@dataclass(eq=False)
class ProgressionTable(Config):
    """Validated transition table; raises ConfigError with the offending path.
    The schema checks each edge; the rules across edges are checked here.

    The edges are kept grouped by source stage, in file order within a stage:
    edge ``i`` goes to ``to[i]`` after ``durations[i]``, and stage ``s`` owns
    edges ``first[s]`` to ``first[s] + count[s] - 1``.  ``cum_probs[s, band]``
    holds their cumulative branch probabilities, padded with ``inf``, which
    no draw reaches.  An absorbing stage has ``first`` and ``count`` 0."""

    PATH = "progression"
    NOTES = ("schema_version", "comment")

    edges: list[Edge] = setting(Edge, size=...)
    to: np.ndarray = field(init=False, repr=False)
    durations: list[DurationSpec | None] = field(init=False, repr=False)
    first: np.ndarray = field(init=False, repr=False)
    count: np.ndarray = field(init=False, repr=False)
    cum_probs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        by_stage: dict[Stage, list[Edge]] = {}
        for i, edge in enumerate(self.edges):
            where, src = f"{self.PATH}.edges[{i}]", edge.from_
            if edge.to not in LEGAL_EDGES.get(src, ()):
                raise ConfigError(f"{where}: illegal transition {src!s} -> {edge.to!s}")
            if any(e.to == edge.to for e in by_stage.get(src, ())):
                raise ConfigError(f"{where}: duplicate transition {src!s} -> {edge.to!s}")
            if (edge.duration is None) != (src == Stage.SUSCEPTIBLE):
                raise ConfigError(f"{where}: " + (
                    "missing duration" if edge.duration is None else
                    "entry branches take effect at infection and cannot carry a duration"))
            by_stage.setdefault(src, []).append(edge)

        self.first = np.zeros(N_STAGES, dtype=np.int64)
        self.count = np.zeros(N_STAGES, dtype=np.int64)
        widest = max(map(len, LEGAL_EDGES.values()))
        self.cum_probs = np.full((N_STAGES, N_AGE_BANDS, widest), np.inf)
        grouped: list[Edge] = []
        for src, edges in by_stage.items():
            probs = np.stack([e.probability for e in edges], axis=1)  # (bands, n)
            sums = probs.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > 1e-9)[0]
            if len(bad):
                raise ConfigError(
                    f"{self.PATH}.edges: branch probabilities out of {src!s} sum "
                    f"to {sums[bad[0]]:.12g} for age band {int(bad[0])}; must sum to 1")
            self.first[src], self.count[src] = len(grouped), len(edges)
            self.cum_probs[src, :, :len(edges)] = np.cumsum(probs, axis=1)
            grouped += edges
        for required in LEGAL_EDGES:
            if not self.count[required]:
                raise ConfigError(f"{self.PATH}.edges: no edges out of {required!s}")
        self.to = np.array([e.to for e in grouped], dtype=np.int8)
        self.durations = [e.duration for e in grouped]

    def _branches(self, stages, age_bands: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Each agent's edge out of its stage: the first whose cumulative
        probability exceeds ``u``, else the last (a band's sum may round a
        hair below 1); out of an absorbing stage, 0 + min(0, -1) = -1."""
        j = (u[:, None] >= self.cum_probs[stages, age_bands]).sum(axis=1)
        return self.first[stages] + np.minimum(j, self.count[stages] - 1)

    def entry_stages(self, age_bands: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The stage each newly infected agent enters, from its entry draw."""
        return self.to[self._branches(int(Stage.SUSCEPTIBLE), age_bands, u)]

    def schedule_transitions(self, stages: np.ndarray, age_bands: np.ndarray,
                             u_branch: np.ndarray, u_delay: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Where each agent goes next out of ``stages`` and after how many steps.

        Agents in absorbing stages get (NEVER, NEVER) back: ``enter`` relies on
        it to leave recovered and dead agents with no next transition.
        Susceptible agents do too: their entry branches carry no duration.
        """
        edge = self._branches(stages, age_bands, u_branch)
        delay = np.full(len(stages), NEVER, dtype=np.int64)
        for i, spec in enumerate(self.durations):
            if spec is not None:   # an entry branch schedules nothing
                sel = edge == i
                delay[sel] = round_delay(spec.quantile(u_delay[sel]))
        return np.where(delay == NEVER, NEVER, self.to[edge]), delay

    def enter(self, cols: AgentColumns, ids: np.ndarray, stages: np.ndarray,
              seed: int, step: int) -> None:
        """Move agents ``ids`` into ``stages`` at ``step`` and schedule where
        and when each goes next, from its keyed branch and delay draws; an
        absorbing stage leaves ``next_stage`` and ``next_transition_at`` NEVER."""
        cols.stage[ids] = stages
        u_branch = keyed.uniforms(seed, step, Purpose.PROGRESSION_BRANCH, ids)
        u_delay = keyed.uniforms(seed, step, Purpose.PROGRESSION_DELAY, ids)
        nxt, delay = self.schedule_transitions(stages, cols.age_band[ids],
                                               u_branch, u_delay)
        cols.next_stage[ids] = nxt
        cols.next_transition_at[ids] = np.where(nxt == NEVER, NEVER, step + delay)

    def infect(self, cols: AgentColumns, ids: np.ndarray, seed: int, step: int) -> None:
        """Infect agents ``ids`` at ``step``: each ``enter``s the entry stage
        drawn for its age band, or ``asymptomatic`` if it holds vaccine immunity."""
        u_entry = keyed.uniforms(seed, step, Purpose.ENTRY_STAGE, ids)
        entry = self.entry_stages(cols.age_band[ids], u_entry)
        entry = np.where(cols.immune[ids], np.int8(Stage.ASYMPTOMATIC), entry)
        cols.infected_at[ids] = step
        self.enter(cols, ids, entry, seed, step)
