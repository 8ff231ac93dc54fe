"""Span recorder that wraps epivec's public functions from outside the package.

Each target is replaced at the name its caller looks up: ``engine`` imports
``uniforms`` and ``priority_sort_key`` by name, ``graphs`` and ``population``
import ``substream`` by name, ``runner`` imports ``synthesize`` and
``seed_infections`` by name, and methods are looked up on their class.  The
original objects are put back on leaving ``Tracer.installed``, so nothing of the tracer outlives a traced run.

Spans (name, start, end, parent) are kept in memory; ``write`` dumps them as
JSON at the end of a run.  Counters are updated by observers that run after
the wrapped call returns, inside a ``trace.counters`` span of their own, so
the work they do is never charged to a layer.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, deque
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from epivec import engine, graphs, interventions, population, progression, rng, runner
from epivec.stages import INFECTIOUS_STAGE

COUNTERS = "trace.counters"


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._log_sizes: dict[int, deque] = {}

    # -- spans ----------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    # -- wrapping -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span ``name``."""
        original = inspect.getattr_static(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                with self.span(COUNTERS):
                    observe(self, args, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__wrapped__ = fn
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)
        self._installed.append((owner, attr, original))

    @contextmanager
    def installed(self, targets):
        """Wrap every (owner, attribute, span name, observer) target for the block."""
        for owner, attr, name, observe in targets:
            self.wrap(owner, attr, name, observe)
        try:
            yield self
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)

    # -- derived times --------------------------------------------------------

    def durations(self) -> list[float]:
        """Span durations with nested ``trace.counters`` time taken out."""
        own = [end - start for _, start, end, _ in self.spans]
        out = list(own)
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == COUNTERS:
                while parent >= 0:
                    out[parent] -= own[i]
                    parent = self.spans[parent][3]
        return out

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        out: Counter = Counter()
        for (name, *_), d in zip(self.spans, self.durations()):
            out[name] += d
        return dict(out)

    def self_time(self, name: str) -> float:
        """Total of ``name`` spans minus the time of their direct children."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name == name:
                total += end - start
            elif parent >= 0 and self.spans[parent][0] == name:
                total -= end - start
        return total

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def window(self, start: float, end: float) -> tuple[float, float]:
        """(parentless layer time, tracer counter time) inside [start, end]."""
        layered = counters = 0.0
        for (name, s, e, parent), d in zip(self.spans, self.durations()):
            if s < start or e > end:
                continue
            if name == COUNTERS:
                counters += e - s
            elif parent < 0:
                layered += d
        return layered, counters


# -- observers: counters at the layer boundaries ---------------------------------

def _count_draws(tracer, args, result):
    tracer.counts["rng.draws"] += len(result)


def _count_transitions(tracer, args, result):
    tracer.counts["progression.transitions"] += len(args[1])


def _count_edges(tracer, args, graph):
    household, occupation, random = graph.kind_counts().tolist()
    tracer.counts["graphs.edges_household"] += household
    tracer.counts["graphs.edges_occupation"] += occupation
    tracer.counts["graphs.edges_random"] += random


def _count_gather(tracer, args, hazard):
    eng, graph = args[0], args[1]
    c = eng.cols
    t = eng.clock - c.infected_at.astype(np.int64)
    source_ok = (INFECTIOUS_STAGE[c.stage] & (c.quarantine_until <= eng.clock)
                 & (t >= 1) & (t <= eng.disease.t_max))
    tracer.counts["engine.edges_gathered"] += graph.n_edges
    tracer.counts["engine.edges_useful"] += int(np.count_nonzero(source_ok[graph.src]))
    tracer.counts["engine.hazard_targets"] += int(np.count_nonzero(hazard > 0))
    tracer.counts["engine.hazard_mass"] += float(hazard.sum())


def _count_contacts(tracer, args, contacts):
    tracer.counts["interventions.contacts_returned"] += len(contacts)


def _count_log_push(tracer, args, result):
    log, graph = args[0], args[1]
    sizes = tracer._log_sizes.setdefault(id(log), deque(maxlen=log.lookback))
    sizes.append(graph.n_edges)
    key = "interventions.contact_log_edges_peak"
    tracer.counts[key] = max(tracer.counts[key], sum(sizes))


def _count_csv_bytes(tracer, args, text):
    tracer.counts["runner.csv_bytes"] += len(text.encode())


# (owner, attribute, span name, observer)
SETUP_TARGETS = [
    (runner, "synthesize", "population.synthesize", None),
    (runner, "seed_infections", "population.seed_infections", None),
    (population, "substream", "rng.substream", None),
    (graphs, "build_households", "graphs.build_households", None),
    (rng, "uniforms", "rng.uniforms", _count_draws),
    (progression.ProgressionTable, "entry_stages", "progression.entry_stages", None),
    (progression.ProgressionTable, "schedule_transitions",
     "progression.schedule_transitions", _count_transitions),
]

STEP_TARGETS = [
    (graphs.GraphRealizer, "realize", "graphs.realize", _count_edges),
    (graphs, "watts_strogatz", "graphs.watts_strogatz", None),
    (graphs, "stub_pairing", "graphs.stub_pairing", None),
    (graphs, "substream", "rng.substream", None),
    (engine.Engine, "step", "engine.step", None),
    (engine.Engine, "gather_exposure", "engine.gather_exposure", _count_gather),
    (engine, "uniforms", "rng.uniforms", _count_draws),
    (engine, "priority_sort_key", "interventions.priority_sort_key", None),
    (interventions.ContactLog, "contacts_of", "interventions.contacts_of",
     _count_contacts),
    (interventions.ContactLog, "push", "interventions.contact_log_push",
     _count_log_push),
]

RUNNER_TARGETS = [
    (runner, "run_scenario", "runner.run_scenario", None),
    (runner.RunResult, "to_csv", "runner.to_csv", _count_csv_bytes),
    (runner.RunResult, "from_csv", "runner.from_csv", None),
    (runner, "load_results", "runner.load_results", None),
    (runner, "summarize", "runner.summarize", None),
    (runner, "summary_to_csv", "runner.summary_csv", None),
    (runner, "summary_to_long_csv", "runner.summary_csv", None),
]

ALL_TARGETS = SETUP_TARGETS + STEP_TARGETS + RUNNER_TARGETS


def layer_metrics(tracer: Tracer, loop_start: float, loop_end: float) -> dict:
    """Per-layer metrics of one traced run, keyed by their benchmark names."""
    totals = tracer.totals()
    counts = tracer.counts
    wall = loop_end - loop_start
    layered, counters = tracer.window(loop_start, loop_end)
    gathered = counts["engine.edges_gathered"]
    out = {
        "graphs.realize_s": totals.get("graphs.realize", 0.0),
        "graphs.realize_self_s": tracer.self_time("graphs.realize"),
        "graphs.watts_strogatz_s": totals.get("graphs.watts_strogatz", 0.0),
        "graphs.watts_strogatz_calls": tracer.calls("graphs.watts_strogatz"),
        "graphs.stub_pairing_s": totals.get("graphs.stub_pairing", 0.0),
        "graphs.build_households_s": totals.get("graphs.build_households", 0.0),
        "population.synthesize_s": totals.get("population.synthesize", 0.0),
        "population.seed_infections_s": totals.get("population.seed_infections", 0.0),
        "engine.step_s": totals.get("engine.step", 0.0),
        "engine.step_self_s": tracer.self_time("engine.step"),
        "engine.gather_exposure_s": totals.get("engine.gather_exposure", 0.0),
        "engine.gather_useful_ratio":
            counts["engine.edges_useful"] / gathered if gathered else 0.0,
        "interventions.contacts_of_s": totals.get("interventions.contacts_of", 0.0),
        "interventions.contacts_of_calls": tracer.calls("interventions.contacts_of"),
        "interventions.contact_log_push_s":
            totals.get("interventions.contact_log_push", 0.0),
        "interventions.priority_sort_key_s":
            totals.get("interventions.priority_sort_key", 0.0),
        "progression.schedule_transitions_s":
            totals.get("progression.schedule_transitions", 0.0),
        "progression.entry_stages_s": totals.get("progression.entry_stages", 0.0),
        "rng.uniforms_s": totals.get("rng.uniforms", 0.0),
        "rng.substream_s": totals.get("rng.substream", 0.0),
        "runner.run_scenario_s": totals.get("runner.run_scenario", 0.0),
        "runner.to_csv_s": totals.get("runner.to_csv", 0.0),
        "runner.from_csv_s": totals.get("runner.from_csv", 0.0),
        "runner.load_results_s": totals.get("runner.load_results", 0.0),
        "runner.summarize_s": totals.get("runner.summarize", 0.0),
        "runner.summary_csv_s": totals.get("runner.summary_csv", 0.0),
        "trace.wall_s": wall,
        "trace.counters_s": counters,
        "trace.unattributed_share":
            max(0.0, wall - layered - counters) / wall if wall else 0.0,
    }
    for name in ("graphs.edges_household", "graphs.edges_occupation",
                 "graphs.edges_random", "engine.hazard_targets", "engine.hazard_mass",
                 "interventions.contacts_returned",
                 "interventions.contact_log_edges_peak", "progression.transitions",
                 "rng.draws", "runner.csv_bytes"):
        out[name] = counts[name]
    return out
