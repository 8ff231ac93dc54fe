"""The benchmark's workloads and the measured runs that drive them.

epivec is driven only through its public functions.  A workload is built from
the seed alone; the program receives nothing but the resulting scenario.
See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from epivec import Engine, Stage, runner
from epivec.runner import CSV_COLUMNS, replication_seed
from epivec.scenario import default_population_dict, scenario_from_dict
from epivec.stages import NEVER

import checks
import tracing

ALL_ON = {
    "quarantine": {"enabled": True},
    "testing": {"enabled": True, "kind": "rt-pcr"},
    "den": {"enabled": True, "app_adoption": 0.3, "lookback": 7},
    "vaccination": {"enabled": True, "strategy": "standard"},
}

ALL_ON_OTHER_BRANCHES = {
    "quarantine": {"enabled": True},
    "testing": {"enabled": True, "kind": "rapid-poc"},
    "den": {"enabled": True, "app_adoption": 0.3, "lookback": 7},
    "vaccination": {"enabled": True, "strategy": "delayed-except-elderly",
                    "immunity_mode": "non-sterilizing"},
}


@dataclass(frozen=True)
class Workload:
    name: str
    n_agents: int
    horizon: int
    replications: int = 1
    workers: int = 1
    interventions: dict = field(default_factory=dict)
    setup_repeats: int = 3
    # Size of the copy replayed against the oracle on every run.
    check_agents: int = 500
    check_horizon: int = 60

    def scenario(self, seed: int, n_agents: int | None = None,
                 horizon: int | None = None, replications: int | None = None):
        pop = default_population_dict()
        pop["n_agents"] = n_agents or self.n_agents
        return scenario_from_dict({
            "population": pop,
            "horizon": horizon or self.horizon,
            "replications": replications or self.replications,
            "base_seed": seed,
            "interventions": self.interventions,
        }, name=self.name)

    def shrunk(self, seed: int):
        """The workload's scenario cut to oracle size (one replication)."""
        return self.scenario(seed, min(self.n_agents, self.check_agents),
                             min(self.horizon, self.check_horizon), 1)


# The 100K horizon is 100 steps, not the ROADMAP's 180: it covers the
# default peak (near step 82) and the interventions peak (near step 95) at
# seed 5, leaves exactly 10 step samples beyond p90, and keeps one run within
# the benchmark's time budget.
WORKLOADS = {w.name: w for w in (
    Workload("default_100k", 100_000, 100),
    Workload("interventions_100k", 100_000, 100, interventions=ALL_ON),
    Workload("replicate_10k", 10_000, 180, replications=8, workers=2,
             interventions=ALL_ON_OTHER_BRANCHES, setup_repeats=10),
)}


@dataclass
class Unit:
    """One measured execution of a workload (one replication or one batch)."""

    setup_s: list[float]
    wall_s: float
    cpu_s: float
    edges: int
    replications: int
    step_ms: list[float]
    rows: list[np.ndarray]
    problems: list[list[str]]   # per replication; empty when it passed

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems if p)


# -- set-up -----------------------------------------------------------------

def set_up(config):
    """initialize_run + Engine for replication 0, as a run pays before step 0."""
    rep_seed = replication_seed(config.base_seed, 0)
    cols, realizer = runner.initialize_run(config, rep_seed)
    engine = Engine(cols, config.disease, config.progression,
                    config.interventions, rep_seed)
    return config, cols, realizer, engine


def timed_set_up(workload: Workload, seed: int, repeats: int):
    """Scenario build + set_up, ``repeats`` times; the last state is returned."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = set_up(workload.scenario(seed))
        samples.append(time.perf_counter() - t0)
    return samples, state


# -- single replication: the step loop driven here ------------------------------

def _row(step: int, cols, ev) -> np.ndarray:
    """One time-series row in the runner's CSV column order."""
    counts = cols.stage_counts()
    return np.concatenate([
        [step], counts,
        [int(np.count_nonzero(cols.infected_at != NEVER)), counts[int(Stage.DEAD)],
         counts[int(Stage.HOSPITALIZED)] + counts[int(Stage.CRITICAL_ICU)],
         ev.new_infections, ev.tests_administered, ev.doses_given,
         ev.notifications_sent]]).astype(np.int64)


def step_loop(config, cols, realizer, engine):
    """Realize + step for every step; returns (wall, cpu, edges, step_ms, rows)."""
    rows = np.zeros((config.horizon, len(CSV_COLUMNS)), dtype=np.int64)
    step_ms = []
    edges = 0
    c0, t0 = time.process_time(), time.perf_counter()
    for step in range(config.horizon):
        s0 = time.perf_counter()
        graph = realizer.realize(step, cols.stage == int(Stage.DEAD))
        ev = engine.step(graph)
        step_ms.append((time.perf_counter() - s0) * 1e3)
        edges += ev.n_edges
        rows[step] = _row(step, cols, ev)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return wall, cpu, edges, step_ms, rows


def run_single(workload: Workload, seed: int, setup_repeats: int,
               tracer=None, marks: dict | None = None) -> Unit:
    trace = tracer.installed(tracing.SETUP_TARGETS + tracing.STEP_TARGETS) \
        if tracer else nullcontext()
    with trace:
        setup, (config, cols, realizer, engine) = timed_set_up(
            workload, seed, setup_repeats)
        start = time.perf_counter()
        wall, cpu, edges, step_ms, rows = step_loop(config, cols, realizer, engine)
        if marks is not None:
            marks["loop"] = (start, time.perf_counter())
    return Unit(setup, wall, cpu, edges, 1, step_ms, [rows],
                [checks.check_rows(rows, config.population.n_agents)])


# -- many replications: the runner's user path ----------------------------------

def _cpu_with_children() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_replicated(workload: Workload, seed: int, setup_repeats: int, scratch: Path,
                   tracer=None, marks: dict | None = None) -> Unit:
    """run_scenario with workers, CSVs to disk, load, summarize, summary CSVs.

    Worker processes pay each replication's set-up inside ``wall_s``; the
    ``setup_s`` samples time one replication's set-up in this process.  When
    traced, only set-up and the parent-side runner calls carry spans.
    """
    trace = tracer.installed(tracing.SETUP_TARGETS) if tracer else nullcontext()
    with trace:
        setup, (config, *_) = timed_set_up(workload, seed, setup_repeats)
    trace = tracer.installed(tracing.RUNNER_TARGETS) if tracer else nullcontext()
    with trace, tempfile.TemporaryDirectory(dir=scratch) as tmp:
        out = Path(tmp)
        c0, t0 = _cpu_with_children(), time.perf_counter()
        results = runner.run_scenario(config, out_dir=out / "runs",
                                      workers=workload.workers)
        loaded = runner.load_results(out / "runs")
        summary = runner.summarize(loaded)
        (out / "summary.csv").write_text(runner.summary_to_csv(summary))
        (out / "summary_long.csv").write_text(runner.summary_to_long_csv(summary))
        wall, cpu = time.perf_counter() - t0, _cpu_with_children() - c0
        if marks is not None:
            marks["loop"] = (t0, t0 + wall)
    problems = checks.check_results(results, loaded, config.population.n_agents)
    step_ms = [r.wall_seconds * 1e3 / config.horizon for r in results]
    return Unit(setup, wall, cpu, sum(r.n_edges_total for r in results),
                len(results), step_ms, [r.data for r in loaded], problems)


def run_unit(workload: Workload, seed: int, scratch: Path, setup_repeats: int,
             tracer=None, marks=None) -> Unit:
    if workload.replications == 1:
        return run_single(workload, seed, setup_repeats, tracer, marks)
    return run_replicated(workload, seed, setup_repeats, scratch, tracer, marks)


# -- metrics ----------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def end_to_end(units: list[Unit]) -> dict[str, float]:
    """End-to-end metrics, each the median over the measured units."""
    def med(values):
        return statistics.median(values)

    # Highest percentile with at least ten samples beyond it: p90 needs at
    # least 100 step samples per unit.
    step_ms = [np.percentile(u.step_ms, [50, 90]) for u in units]
    return {
        "wall_s": med([u.wall_s for u in units]),
        "setup_s": med([s for u in units for s in u.setup_s]),
        "cpu_s": med([u.cpu_s for u in units]),
        "edges_per_s": med([u.edges / u.wall_s for u in units]),
        "step_p50_ms": med([float(p[0]) for p in step_ms]),
        "step_p90_ms": med([float(p[1]) for p in step_ms]),
        "replications_per_s": med([u.replications / u.wall_s for u in units]),
        "peak_rss_mb": peak_rss_mb(),
    }


def rows_digest(units: list[Unit]) -> str:
    h = hashlib.sha256()
    for rows in units[0].rows:
        h.update(np.ascontiguousarray(rows, dtype=np.int64).tobytes())
    return h.hexdigest()


def measure(workload: Workload, seed: int, seconds: float, scratch: Path) -> list[Unit]:
    """Whole units, at least one, for as long as the next one fits in ``seconds``."""
    units: list[Unit] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        units.append(run_unit(workload, seed, scratch,
                              workload.setup_repeats if not units else 1))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            break
    # As many set-ups again at the end, so that the setup_s median spans the
    # machine's state over the whole run rather than its first seconds.
    units[-1].setup_s += timed_set_up(workload, seed, workload.setup_repeats)[0]
    return units


def replay_rows(config, tracer=None) -> np.ndarray:
    """Rows of one replication of ``config``, optionally with every layer wrapped."""
    trace = tracer.installed(tracing.SETUP_TARGETS + tracing.STEP_TARGETS) \
        if tracer else nullcontext()
    with trace:
        return step_loop(*set_up(config))[4]


def measure_traced(workload: Workload, seed: int, scratch: Path):
    """One unit with every layer wrapped; returns (unit, tracer, layer metrics)."""
    tracer = tracing.Tracer()
    marks: dict = {}
    unit = run_unit(workload, seed, scratch, 1, tracer, marks)
    return unit, tracer, tracing.layer_metrics(tracer, *marks["loop"])


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": asdict(workload),
    }
