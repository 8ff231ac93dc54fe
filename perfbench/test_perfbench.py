"""Tests of the benchmark harness itself, at tiny sizes.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import inspect
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny(name):
    w = workloads.WORKLOADS[name]
    return replace(w, n_agents=600, horizon=15, replications=min(w.replications, 2),
                   setup_repeats=2, check_agents=200, check_horizon=10)


def originals():
    return [inspect.getattr_static(owner, attr)
            for owner, attr, _, _ in tracing.ALL_TARGETS]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_removes_every_wrapper(name, tmp_path):
    before = originals()
    record = run.run_once(tiny(name), 3, 0.0, True, tmp_path)
    assert record["failed"] == 0, record["problems"]
    assert all(a is b for a, b in zip(before, originals()))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_installs_no_wrapper(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("untraced run installed a wrapper")

    monkeypatch.setattr(tracing.Tracer, "wrap", refuse)
    record = run.run_once(tiny(name), 3, 0.0, False, tmp_path)
    assert record["failed"] == 0, record["problems"]


@pytest.mark.parametrize("trace", [False, True])
def test_emitted_metric_names_are_in_benchmark_json(trace, tmp_path):
    names = {m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]}
    for name in workloads.WORKLOADS:
        record = run.run_once(tiny(name), 3, 0.0, trace, tmp_path)
        assert set(record["metrics"]) <= names
        run.select(record["metrics"], run.declared(SPEC, trace))


def test_counts_repeat_exactly_for_a_fixed_seed(tmp_path):
    count_names = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    first, second = (run.run_once(tiny("interventions_100k"), 4, 0.0, True,
                                  tmp_path / str(i))["metrics"] for i in range(2))
    assert first["graphs.edges_occupation"] > 0
    assert first["interventions.contacts_of_calls"] > 0
    assert {k: first[k] for k in count_names} == {k: second[k] for k in count_names}


def test_traced_rows_compared_with_untraced_run_of_same_seed(tmp_path):
    w = tiny("default_100k")
    run.run_once(w, 3, 0.0, False, tmp_path)
    record = run.run_once(w, 3, 0.0, True, tmp_path)
    # measured replication + oracle replay + shrunk traced replay + digest match
    assert (record["attempted"], record["failed"]) == (4, 0)


def test_equivalence_check_fails_when_oracle_disease_differs():
    config = tiny("interventions_100k").shrunk(2)
    assert checks.check_equivalence(config) == []
    other = replace(config.disease, rate_scale=config.disease.rate_scale * 1.5)
    assert checks.check_equivalence(config, oracle_disease=other)


def test_row_check_flags_broken_rows():
    config = tiny("default_100k").shrunk(1)
    rows = workloads.replay_rows(config)
    n = config.population.n_agents
    assert checks.check_rows(rows, n) == []
    bad = rows.copy()
    bad[-1, 1] += 1
    assert checks.check_rows(bad, n)
    bad = rows.copy()
    cumulative = workloads.CSV_COLUMNS.index("cumulative_infections")
    bad[-1, cumulative] = bad[0, cumulative] - 1
    assert checks.check_rows(bad, n)


def test_select_rejects_undeclared_metrics():
    units = run.declared(SPEC, False)
    metrics = {name: 1.0 for name in units}
    assert set(run.select(metrics, units)) == set(units)
    with pytest.raises(RuntimeError):
        run.select({**metrics, "extra_s": 1.0}, units)
    with pytest.raises(RuntimeError):
        run.select({k: v for k, v in metrics.items() if k != "wall_s"}, units)


def test_tracer_self_time_excludes_children_and_counters():
    tr = tracing.Tracer()
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                [tracing.COUNTERS, 4.0, 5.0, 0], ["c", 2.0, 3.0, 1]]
    assert tr.self_time("a") == pytest.approx(10.0 - 3.0 - 1.0)
    assert tr.totals()["a"] == pytest.approx(9.0)
    layered, counters = tr.window(0.0, 10.0)
    assert (layered, counters) == (pytest.approx(9.0), pytest.approx(1.0))
    assert np.isclose(tracing.layer_metrics(tr, 0.0, 10.0)["trace.unattributed_share"],
                      0.0)
