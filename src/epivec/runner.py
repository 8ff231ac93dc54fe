"""Replication runner, time-series output, summaries, benchmark, verifier.

One private loop, ``_replay``, sets up a replication and steps it: it realizes
each step's graph from the dead mask and steps the engine, the oracle or both
on it.  ``run_replication``, ``bench`` and ``verify_equivalence`` consume it.

Each replication derives its own 64-bit seed from ``(base_seed, index)``, so
results are independent of execution order and worker count.  Worker
processes return ``RunResult`` objects; text is written only at the file
boundary, as one CSV per replication with a versioned header.  Summaries
report the 25th/50th/75th percentiles across replications per step and
metric.
"""

from __future__ import annotations

import csv
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import rng as keyed
from .engine import Engine, StepEvents
from .errors import ConfigError, VerificationDivergence
from .graphs import GraphRealizer
from .oracle import OracleSim, agents_from_columns
from .population import seed_infections, synthesize
from .rng import Purpose
from .scenario import ScenarioConfig
from .stages import NEVER, Stage
from .state import AGENT_COLUMNS, AgentColumns

SCHEMA = "epivec-timeseries-v1"
STAGE_COLUMNS = [f"n_{s.name.lower()}" for s in Stage]
CSV_COLUMNS = (["step"] + STAGE_COLUMNS
               + ["cumulative_infections", "cumulative_deaths", "in_hospital_or_icu",
                  "new_infections", "tests_administered", "doses_given",
                  "notifications_sent"])
SUMMARY_METRICS = [c for c in CSV_COLUMNS if c != "step"]
QUARTILES = (25, 50, 75)


def csv_text(meta_lines, header, rows) -> str:
    """Every output CSV: ``# `` comment lines, the header, one line per row.
    Cells are Python scalars (rows from ``.tolist()``): integers print as
    digits, floats as their shortest round-trip repr, and a cell is quoted
    only when it holds a comma, a quote, a line feed or a carriage return."""
    # the writer quotes a cell holding any character of its line terminator,
    # so "\r\n" quotes both; it writes each row whole, whose "\r\n" becomes "\n"
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return "".join([*(f"# {m}\n" for m in meta_lines),
                    *(line[:-2] + "\n" for line in lines)])


@dataclass
class RunResult:
    """Per-step time series of one replication."""

    replication: int
    seed: int
    data: np.ndarray        # (horizon, len(CSV_COLUMNS)) int64
    n_edges_total: int = 0
    wall_seconds: float = 0.0

    def column(self, name: str) -> np.ndarray:
        return self.data[:, CSV_COLUMNS.index(name)]

    def to_csv(self) -> str:
        return csv_text([f"schema={SCHEMA}",
                         f"replication={self.replication} seed={self.seed}"],
                        CSV_COLUMNS, self.data.tolist())

    @classmethod
    def from_csv(cls, text: str) -> "RunResult":
        """Parse ``to_csv`` output; anything else raises a ConfigError."""
        lines = text.splitlines()
        if lines[:1] != [f"# schema={SCHEMA}"]:
            raise ConfigError(f"not a {SCHEMA} file")
        meta = re.fullmatch(r"# replication=(\d+) seed=(\d+)", "".join(lines[1:2]))
        if meta is None:
            raise ConfigError("line 2: expected '# replication=<int> seed=<int>'")
        if lines[2:3] != [",".join(CSV_COLUMNS)]:
            raise ConfigError("time-series column mismatch with schema")
        if not any(lines[3:]):
            raise ConfigError("no data rows")
        try:
            data = np.loadtxt(lines[3:], delimiter=",", dtype=np.int64, ndmin=2)
        except ValueError as e:
            raise ConfigError(f"time-series rows: {e}") from e
        if data.shape[1] != len(CSV_COLUMNS):
            raise ConfigError(f"time-series rows: expected {len(CSV_COLUMNS)} columns")
        return cls(replication=int(meta[1]), seed=int(meta[2]), data=data)


def replication_seed(base_seed: int, index: int) -> int:
    return keyed.derive_seed(base_seed, Purpose.REPLICATION, index)


def initialize_run(config: ScenarioConfig, seed: int
                   ) -> tuple[AgentColumns, GraphRealizer]:
    """Population synthesis, initial infections, app assignment, graph realizer."""
    cols = synthesize(config.population, seed)
    seed_infections(cols, config.initial_infections, seed, config.progression)
    if config.interventions.den.enabled:
        u = keyed.uniforms(seed, 0, Purpose.DEN_APP,
                           np.arange(cols.n_agents, dtype=np.int64))
        cols.has_den_app[:] = u < config.interventions.den.app_adoption
    realizer = GraphRealizer(
        seed,
        cols.household_id,
        cols.occupation,
        config.population.random_degree_by_age[cols.age_band],
        config.population.networks.occupation_mean_interactions,
        config.population.networks.rewire_beta,
    )
    return cols, realizer


def _record_row(out: np.ndarray, row: int, cols: AgentColumns,
                ev: StepEvents) -> None:
    counts = cols.stage_counts()
    out[row] = [ev.step, *counts,
                np.sum(cols.infected_at != NEVER),
                counts[int(Stage.DEAD)],
                counts[int(Stage.HOSPITALIZED)] + counts[int(Stage.CRITICAL_ICU)],
                ev.new_infections, ev.tests_administered, ev.doses_given,
                ev.notifications_sent]


def _replay(config: ScenarioConfig, seed: int, engine: bool = True,
            oracle_disease=None):
    """The replication loop: set up now, then return an iterator that per step
    realizes the graph from the dead mask and steps every simulator on it.

    Runs the engine unless ``engine`` is false, and the oracle (with
    ``oracle_disease`` as its transmission parameters) when that is given.
    It yields ``(cols, oracle, graph, events, oracle_events)`` after each
    step: each simulator's ``StepEvents``, None for one that does not run.
    """
    cols, realizer = initialize_run(config, seed)
    eng = Engine(cols, config.disease, config.progression, config.interventions,
                 seed) if engine else None
    oracle = None
    if oracle_disease is not None:
        oracle = OracleSim(agents_from_columns(cols), oracle_disease,
                           config.progression, config.interventions, seed)

    def steps():
        for step in range(config.horizon):
            stage = oracle.column("stage") if eng is None else cols.stage
            graph = realizer.realize(step, stage == int(Stage.DEAD))
            events = None if eng is None else eng.step(graph)
            oracle_events = None if oracle is None else oracle.step(graph)
            yield cols, oracle, graph, events, oracle_events
    return steps()


def run_replication(config: ScenarioConfig, index: int) -> RunResult:
    """One seeded end-to-end replication; wall time includes set-up."""
    seed = replication_seed(config.base_seed, index)
    data = np.zeros((config.horizon, len(CSV_COLUMNS)), dtype=np.int64)
    edges_total = 0
    t0 = time.perf_counter()
    for cols, _, _, ev, _ in _replay(config, seed):
        edges_total += ev.n_edges
        _record_row(data, ev.step, cols, ev)
    wall = time.perf_counter() - t0
    return RunResult(replication=index, seed=seed, data=data,
                     n_edges_total=edges_total, wall_seconds=wall)


def run_scenario(config: ScenarioConfig, out_dir: str | Path | None = None,
                 workers: int = 1) -> list[RunResult]:
    """Run all replications; optionally write one CSV per replication.

    Results are identical for any worker count: each replication depends only
    on (base_seed, index).
    """
    if out_dir is not None:   # an unusable output path fails before any run
        out_dir = output_dir(out_dir)
        _check_run_files(out_dir, config.replications)
    run = partial(run_replication, config)
    indices = range(config.replications)
    if workers > 1 and len(indices) > 1:
        # the pool starts all its workers at once: no more than there is work for
        with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
            results = list(pool.map(run, indices))
    else:
        results = list(map(run, indices))
    if out_dir is not None:
        for r in results:
            write_file(out_dir / f"run_{r.replication:03d}.csv", r.to_csv())
    return results


def _check_run_files(out_dir: Path, replications: int) -> None:
    """A ConfigError naming the first ``run_*.csv`` under ``out_dir`` that this
    run would not overwrite (the file of no replication in
    ``range(replications)``, which ``load_results`` would mix into the
    summary) or cannot write (a directory)."""
    names = {f"run_{i:03d}.csv" for i in range(replications)}
    for path in sorted(out_dir.glob("run_*.csv")):
        if path.name not in names:
            raise ConfigError(f"{path}: a run file of no replication in "
                              f"range({replications}); remove it or write elsewhere")
        output_file(path)


def output_dir(path: str | Path) -> Path:
    """``path`` made a directory, parents too; a ConfigError naming it if it
    cannot be one (a file is in the way)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"{path}: not usable as an output directory: {e.strerror}") from e
    return path


def output_file(path: str | Path) -> Path:
    """``path`` with its parent made a directory (``output_dir``); a
    ConfigError naming it if a directory is where the file would go."""
    path = Path(path)
    output_dir(path.parent)
    if path.is_dir():
        raise ConfigError(f"{path}: not usable as an output file: Is a directory")
    return path


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a ConfigError naming it if it cannot be
    written (a directory is in the way)."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ConfigError(f"{path}: not usable as an output file: {e.strerror}") from e


# -- summaries --------------------------------------------------------------

def summarize(results: list[RunResult]) -> dict[str, np.ndarray]:
    """Quartiles across replications: metric -> (horizon, 3) array [q25, q50, q75]."""
    if not results:
        raise ConfigError("summarize needs at least one replication")
    horizon = results[0].data.shape[0]
    for r in results:
        if r.data.shape[0] != horizon:
            raise ConfigError("replications disagree on horizon")
    out = {}
    for metric in SUMMARY_METRICS:
        stacked = np.stack([r.column(metric) for r in results], axis=1)
        out[metric] = np.percentile(stacked, QUARTILES, axis=1).T
    return out


def summary_to_csv(summary: dict[str, np.ndarray]) -> str:
    """Wide layout: one row per step, three columns per metric."""
    header = ["step"] + [f"{m}_q{q}" for m in SUMMARY_METRICS for q in QUARTILES]
    table = np.hstack([summary[m] for m in SUMMARY_METRICS]).tolist()
    return csv_text(["schema=epivec-summary-v1"], header,
                    ([step, *row] for step, row in enumerate(table)))


def summary_to_long_csv(summary: dict[str, np.ndarray]) -> str:
    """Plot-ready long layout: step, metric, quantile, value."""
    rows = ([step, metric, f"q{q}", value] for metric in SUMMARY_METRICS
            for step, values in enumerate(summary[metric].tolist())
            for q, value in zip(QUARTILES, values))
    return csv_text(["schema=epivec-summary-long-v1"],
                    ["step", "metric", "quantile", "value"], rows)


def load_results(run_dir: str | Path) -> list[RunResult]:
    """Every run_*.csv under ``run_dir``; a bad file is a ConfigError naming it."""
    run_dir = Path(run_dir)
    paths = sorted(run_dir.glob("run_*.csv"))
    if not paths:
        raise ConfigError(f"no run_*.csv files under {run_dir}")
    results = []
    for path in paths:
        try:
            results.append(RunResult.from_csv(path.read_text()))
        except (ConfigError, OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"{path}: {e}") from e
    return results


# -- benchmark ----------------------------------------------------------------

@dataclass
class BenchReport:
    n_agents: int
    steps: int
    interactions: int
    wall_seconds: float

    @property
    def interactions_per_second(self) -> float:
        return self.interactions / self.wall_seconds if self.wall_seconds else 0.0

    def __str__(self):
        return (f"{self.n_agents} agents x {self.steps} steps: "
                f"{self.interactions:,} interactions in {self.wall_seconds:.2f}s "
                f"({self.interactions_per_second:,.0f} interactions/s)")


def bench(config: ScenarioConfig, use_oracle: bool = False) -> BenchReport:
    """Throughput of one replication's step loop, set-up excluded;
    interactions = directed edges gathered."""
    seed = replication_seed(config.base_seed, 0)
    steps = _replay(config, seed, engine=not use_oracle,
                    oracle_disease=config.disease if use_oracle else None)
    interactions = 0
    t0 = time.perf_counter()
    for _, _, graph, _, _ in steps:
        interactions += graph.n_edges
    wall = time.perf_counter() - t0
    return BenchReport(config.population.n_agents, config.horizon,
                       interactions, wall)


# -- engine/oracle equivalence ------------------------------------------------

def verify_equivalence(config: ScenarioConfig, oracle_disease=None) -> int:
    """Run engine and oracle of replication 0 in lockstep on identical inputs,
    comparing every agent column, then every event count, after every step.

    Returns the number of steps checked; raises VerificationDivergence at the
    first differing (step, agent, field), or (step, event count).
    ``oracle_disease`` substitutes the oracle's transmission parameters (the
    checker's own sanity test).
    """
    if config.population.n_agents > 2000:
        raise ConfigError("population.n_agents: verification runs on at most 2000 "
                          f"agents, got {config.population.n_agents}")
    seed = replication_seed(config.base_seed, 0)
    for cols, oracle, graph, events, oracle_events in _replay(
            config, seed, oracle_disease=oracle_disease or config.disease):
        _compare_states(graph.step, cols, oracle)
        _compare_events(events, oracle_events)
    return config.horizon


def _compare_states(step: int, cols: AgentColumns, oracle: OracleSim) -> None:
    """Every agent column, the oracle's cast to the engine's dtype; no column
    holds NaN, so ``!=`` finds every difference."""
    for name in AGENT_COLUMNS:
        engine_vals = getattr(cols, name)
        oracle_vals = oracle.column(name).astype(engine_vals.dtype)
        differ = np.flatnonzero(engine_vals != oracle_vals)
        if len(differ):
            agent = int(differ[0])
            raise VerificationDivergence(step, agent, name, engine_vals[agent].item(),
                                         oracle_vals[agent].item())


def _compare_events(events: StepEvents, oracle_events: StepEvents) -> None:
    """Every field of the two simulators' counts of one step's events."""
    for f in fields(StepEvents):
        ours, theirs = getattr(events, f.name), getattr(oracle_events, f.name)
        if ours != theirs:
            raise VerificationDivergence(events.step, None, f.name, ours, theirs)
