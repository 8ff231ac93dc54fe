"""Replication runner, CSV round-trips, quantile summaries, scenario key
checks, CLI exit codes and flags."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epivec import cli
from epivec.cli import main
from epivec.errors import ConfigError, InvariantViolation, VerificationDivergence
from epivec.runner import (CSV_COLUMNS, RunResult, bench, load_results,
                           replication_seed, run_replication, run_scenario,
                           summarize, summary_to_csv, summary_to_long_csv)
from epivec.scenario import (ScenarioConfig, default_population_dict,
                             default_scenario, load_scenario,
                             scenario_from_dict)


def tiny_scenario(n=300, horizon=12, replications=2, seed=5, **kwargs):
    pop = default_population_dict()
    pop["n_agents"] = n
    d = {"population": pop, "horizon": horizon, "replications": replications,
         "base_seed": seed, "initial_infections": 5}
    d.update(kwargs)
    return scenario_from_dict(d, name="tiny")


def run_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("run_*.csv"))}


def bench_interactions(seed=0, use_oracle=False):
    config = default_scenario(n_agents=300, horizon=3, replications=1,
                              base_seed=seed)
    return f"{bench(config, use_oracle).interactions:,} interactions"


def exit_code(argv):
    """``main``'s return value, or the code of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code


def sort_based_quantile(values, q):
    """Independent oracle: linear-interpolation quantile from a manual sort."""
    v = sorted(values)
    if len(v) == 1:
        return float(v[0])
    pos = q * (len(v) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return float(v[lo] * (1 - frac) + v[hi] * frac)


class TestScenarioLoading:
    def test_horizon_zero_rejected(self):
        with pytest.raises(ConfigError, match="horizon"):
            tiny_scenario(horizon=0)

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario("/nonexistent/path.json")

    def test_file_references_resolve_relative(self, tmp_path):
        pop = default_population_dict()
        pop["n_agents"] = 50
        (tmp_path / "pop.json").write_text(json.dumps(pop))
        (tmp_path / "scen.json").write_text(json.dumps({
            "population": "pop.json", "horizon": 3, "replications": 1}))
        config = load_scenario(tmp_path / "scen.json")
        assert config.population.n_agents == 50

    def test_unknown_test_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown test"):
            tiny_scenario(interventions={"testing": {"enabled": True,
                                                     "kind": "mystery"}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="^horizn: unknown key"):
            tiny_scenario(horizn=5)

    @pytest.mark.parametrize("interventions, path", [
        ({"quarantine": {"enabled": True, "dropout": 0.9}},
         "interventions.quarantine.dropout"),
        ({"testing": {"sensitivity": 0.9}}, "interventions.testing.sensitivity"),
        ({"den": {"adoption": 0.5}}, "interventions.den.adoption"),
        ({"vaccination": {"efficacy": 0.9}}, "interventions.vaccination.efficacy"),
        ({"vacination": {"enabled": True}}, "interventions.vacination"),
    ])
    def test_unknown_intervention_key_rejected(self, interventions, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown key"):
            tiny_scenario(interventions=interventions)

    @pytest.mark.parametrize("block", ["quarantine", "testing", "den", "vaccination"])
    @pytest.mark.parametrize("value", ["false", 0, None])
    def test_enabled_must_be_json_boolean(self, block, value):
        with pytest.raises(ConfigError, match=f"^interventions.{block}.enabled: "
                                              "expected true or false"):
            tiny_scenario(interventions={block: {"enabled": value}})

    @pytest.mark.parametrize("d, path", [
        ([], "scenario"),
        ({"interventions": []}, "interventions"),
        ({"interventions": {"den": "on"}}, "interventions.den"),
    ])
    def test_non_object_section_rejected(self, d, path):
        with pytest.raises(ConfigError, match=f"^{path}: expected an object"):
            scenario_from_dict(d)


class TestDeterminism:
    def test_same_seed_byte_identical_csv(self):
        config = tiny_scenario()
        a = run_replication(config, 0).to_csv()
        b = run_replication(config, 0).to_csv()
        assert a == b

    def test_replications_differ(self):
        config = tiny_scenario()
        assert run_replication(config, 0).to_csv() \
            != run_replication(config, 1).to_csv()

    def test_worker_count_does_not_change_results(self, tmp_path):
        config = tiny_scenario(replications=3)
        serial = run_scenario(config, out_dir=tmp_path / "serial", workers=1)
        pooled = run_scenario(config, out_dir=tmp_path / "pooled", workers=3)
        for a, b in zip(serial, pooled):
            assert a.to_csv() == b.to_csv()
        for name in ("run_000.csv", "run_001.csv", "run_002.csv"):
            assert (tmp_path / "serial" / name).read_bytes() \
                == (tmp_path / "pooled" / name).read_bytes()

    def test_zero_transmission_keeps_seeded_count(self):
        disease = json.loads(json.dumps({
            "rate_scale": 0.0,
            "age_susceptibility": [1.0] * 9,
            "asymptomatic_factor": 0.5,
            "network_scale": {"household": 2.0, "occupation": 1.0, "random": 1.0},
            "mean_daily_interactions": 10.0,
            "infectiousness_mean_days": 7.0,
            "infectiousness_sd_days": 3.0,
        }))
        config = tiny_scenario(n=500, horizon=30, replications=1, disease=disease)
        result = run_replication(config, 0)
        assert np.all(result.column("cumulative_infections") == 5)

    def test_single_step_horizon_single_row(self):
        config = tiny_scenario(horizon=1, replications=1)
        result = run_replication(config, 0)
        assert result.data.shape[0] == 1
        assert result.column("step")[0] == 0


class TestCsvRoundTrip:
    def test_schema_and_parse(self):
        config = tiny_scenario(replications=1)
        result = run_replication(config, 0)
        text = result.to_csv()
        assert text.startswith("# schema=epivec-timeseries-v1\n")
        parsed = RunResult.from_csv(text)
        assert parsed.replication == result.replication
        assert parsed.seed == result.seed
        assert np.array_equal(parsed.data, result.data)

    def test_stage_counts_sum_to_population(self):
        config = tiny_scenario(n=250, replications=1)
        result = run_replication(config, 0)
        stage_cols = [c for c in CSV_COLUMNS if c.startswith("n_")]
        totals = sum(result.column(c) for c in stage_cols)
        assert np.all(totals == 250)


class TestSummaries:
    def test_single_replication_quantiles_collapse(self):
        config = tiny_scenario(replications=1)
        results = run_scenario(config)
        summary = summarize(results)
        for metric, block in summary.items():
            series = results[0].column(metric)
            for j in range(3):
                assert np.allclose(block[:, j], series)

    def test_constant_values_median(self):
        rows = []
        for value, rep in zip((1, 2, 3), range(3)):
            data = np.zeros((4, len(CSV_COLUMNS)), dtype=np.int64)
            data[:, 0] = np.arange(4)
            data[:, CSV_COLUMNS.index("cumulative_infections")] = value
            rows.append(RunResult(replication=rep, seed=rep, data=data))
        summary = summarize(rows)
        assert np.all(summary["cumulative_infections"][:, 1] == 2.0)

    @given(values=st.lists(st.integers(0, 10_000), min_size=1, max_size=25),
           q=st.sampled_from([0.25, 0.5, 0.75]))
    @settings(max_examples=100, deadline=None)
    def test_quantiles_match_sort_oracle(self, values, q):
        via_numpy = float(np.percentile(np.array(values), q * 100))
        assert via_numpy == pytest.approx(sort_based_quantile(values, q),
                                          rel=1e-12, abs=1e-9)

    def test_summary_csv_layouts(self):
        config = tiny_scenario(replications=2, horizon=4)
        summary = summarize(run_scenario(config))
        wide = summary_to_csv(summary)
        assert wide.startswith("# schema=epivec-summary-v1\n")
        header = wide.splitlines()[1].split(",")
        assert header[0] == "step"
        assert "cumulative_deaths_q50" in header
        long = summary_to_long_csv(summary)
        lines = long.splitlines()
        assert lines[1] == "step,metric,quantile,value"
        n_metrics = len(summary)
        assert len(lines) == 2 + n_metrics * 4 * 3

    def test_empty_results_rejected(self):
        with pytest.raises(ConfigError):
            summarize([])


class TestCli:
    def write_scenario(self, tmp_path, **kwargs):
        pop = default_population_dict()
        pop["n_agents"] = kwargs.pop("n", 200)
        d = {"population": pop, "horizon": kwargs.pop("horizon", 6),
             "replications": kwargs.pop("replications", 2),
             "base_seed": 3, "initial_infections": 5}
        d.update(kwargs)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(d))
        return path

    def test_simulate_then_summarize(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path)
        out = tmp_path / "runs"
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("run_*.csv")) \
            == ["run_000.csv", "run_001.csv"]
        summary = tmp_path / "summary.csv"
        assert main(["summarize", "--in", str(out), "--out", str(summary)]) == 0
        assert summary.exists()
        assert (tmp_path / "summary_long.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"horizon\": 0}")
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]) == 1

    @pytest.mark.parametrize("argv", [[], ["simulate"], ["frobnicate"],
                                      ["bench", "--agents", "many"]])
    def test_usage_error_exit_code(self, argv, capsys):
        assert exit_code(argv) == 1
        assert "usage: epivec" in capsys.readouterr().err

    @pytest.mark.parametrize("error, code", [
        (ConfigError("bad field"), 1),
        (InvariantViolation("broken invariant"), 2),
        (VerificationDivergence(0, 1, "stage", 0, 1), 3),
        (RuntimeError("boom"), 4),
    ])
    def test_error_exit_codes(self, tmp_path, capsys, monkeypatch, error, code):
        def fail(*args, **kwargs):
            raise error
        monkeypatch.setattr(cli, "run_scenario", fail)
        scenario = self.write_scenario(tmp_path)
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(error) in err

    @pytest.mark.parametrize("command, flags, code, check", [
        pytest.param("simulate", ["--replications", "3"], 0,
                     lambda out, stdout, stderr, base: sorted(run_files(out))
                     == ["run_000.csv", "run_001.csv", "run_002.csv"],
                     id="simulate --replications"),
        pytest.param("simulate", ["--seed", "9"], 0,
                     lambda out, stdout, stderr, base:
                     (out / "run_000.csv").read_text().splitlines()[1]
                     == f"# replication=0 seed={replication_seed(9, 0)}",
                     id="simulate --seed"),
        pytest.param("simulate", ["--threads", "2"], 0,
                     lambda out, stdout, stderr, base:
                     run_files(out) == run_files(base()),
                     id="simulate --threads"),
        pytest.param("bench", ["--seed", "4"], 0,
                     lambda out, stdout, stderr, base:
                     bench_interactions(seed=4) in stdout
                     and bench_interactions() not in stdout,
                     id="bench --seed"),
        pytest.param("bench", ["--oracle"], 0,
                     lambda out, stdout, stderr, base:
                     stdout.startswith("[oracle]")
                     and bench_interactions() in stdout
                     and bench_interactions(use_oracle=True) in stdout,
                     id="bench --oracle"),
        pytest.param("compare", ["--threads", "2"], 0,
                     lambda out, stdout, stderr, base:
                     out.read_bytes() == base().read_bytes(),
                     id="compare --threads"),
        pytest.param("simulate", ["--dump-graphs", "graphs"], 1,
                     lambda out, stdout, stderr, base:
                     "unrecognized arguments: --dump-graphs" in stderr,
                     id="simulate --dump-graphs is gone"),
    ])
    def test_every_flag(self, tmp_path, capsys, command, flags, code, check):
        """``base()`` reruns the command without the flag, as a reference."""
        scenario = str(self.write_scenario(tmp_path, horizon=5))

        def argv(out):
            return [command, *{
                "simulate": ["--scenario", scenario, "--out", str(out)],
                "bench": ["--agents", "300", "--steps", "3"],
                "compare": ["--scenarios", scenario, scenario, "--out", str(out)],
            }[command]]

        def base():
            assert main(argv(tmp_path / "base")) == 0
            return tmp_path / "base"

        out = tmp_path / "out"
        assert exit_code([*argv(out), *flags]) == code
        assert check(out, *capsys.readouterr(), base)

    def test_verify_ok_and_bench(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path, interventions={
            "quarantine": {"enabled": True},
            "testing": {"enabled": True}})
        assert main(["verify", "--scenario", str(scenario)]) == 0
        assert main(["bench", "--agents", "300", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "interactions" in out

    def test_verify_rejects_large_population(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path, n=3000)
        assert main(["verify", "--scenario", str(scenario)]) == 1

    def test_compare_matched_seeds(self, tmp_path, capsys):
        a = self.write_scenario(tmp_path)
        b = tmp_path / "b.json"
        b.write_text(a.read_text())
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--scenarios", str(a), str(b),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        # identical scenarios + matched seeds -> identical summaries
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]
