"""Replication runner, CSV round-trips, quantile summaries, scenario key
checks, CLI exit codes and flags."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import epivec
from epivec import cli, runner
from epivec.cli import main
from epivec.errors import ConfigError, InvariantViolation, VerificationDivergence
from epivec.interventions import InterventionConfig
from epivec.runner import (CSV_COLUMNS, SCHEMA, SUMMARY_METRICS, RunResult,
                           bench, load_results, replication_seed,
                           run_replication, run_scenario, summarize,
                           summary_to_csv, summary_to_long_csv)
from epivec.scenario import (ScenarioConfig, default_disease_dict,
                             default_population_dict, default_progression_dict,
                             default_scenario, load_scenario, scenario_from_dict)


def tiny_scenario(n=300, horizon=12, replications=2, seed=5, **kwargs):
    pop = default_population_dict()
    pop["n_agents"] = n
    d = {"population": pop, "horizon": horizon, "replications": replications,
         "base_seed": seed, "initial_infections": 5}
    d.update(kwargs)
    return scenario_from_dict(d, name="tiny")


def with_sections(population=None, disease=None, progression=None, **top):
    """A scenario dict with the packaged sections, each updated at its top level."""
    return {"population": {**default_population_dict(), **(population or {})},
            "disease": {**default_disease_dict(), **(disease or {})},
            "progression": {**default_progression_dict(), **(progression or {})},
            **top}


# the packaged networks object, for cases that change one of its two keys
NETWORKS = default_population_dict()["networks"]


def edges_with(i, **edge):
    """The packaged progression edges, edge ``i`` updated at its top level;
    edge 3 is asymptomatic -> recovered with a gamma duration."""
    edges = default_progression_dict()["edges"]
    edges[i] = {**edges[i], **edge}
    return {"edges": edges}


def run_files(out):
    return {p.name: p.read_bytes() for p in sorted(out.glob("run_*.csv"))}


# Two rows, 0..18 and 19..37: the second starts "\n19,20,21," and ends ",37\n".
GOOD_RUN = RunResult(0, 7, np.arange(2 * len(CSV_COLUMNS)).reshape(2, -1)).to_csv()


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


# -- References: the per-value CSV writers and the parser that the shared codec
# (``runner.csv_text`` and ``np.loadtxt``) replaced, kept verbatim; the codec
# must reproduce their bytes.

def reference_to_csv(self) -> str:
    """Was ``RunResult.to_csv``."""
    buf = io.StringIO()
    buf.write(f"# schema={SCHEMA}\n")
    buf.write(f"# replication={self.replication} seed={self.seed}\n")
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in self.data:
        buf.write(",".join(str(int(v)) for v in row) + "\n")
    return buf.getvalue()


def reference_from_csv(text: str) -> RunResult:
    """Was ``RunResult.from_csv``; it raised IndexError or ValueError on a
    truncated or corrupt file, so only well-formed text is compared."""
    lines = text.splitlines()
    if not lines or lines[0] != f"# schema={SCHEMA}":
        raise ConfigError(f"not a {SCHEMA} file")
    meta = dict(part.split("=") for part in lines[1][2:].split(" "))
    header = lines[2].split(",")
    if header != CSV_COLUMNS:
        raise ConfigError("time-series column mismatch with schema")
    data = np.array([[int(v) for v in line.split(",")]
                     for line in lines[3:] if line], dtype=np.int64)
    return RunResult(replication=int(meta["replication"]), seed=int(meta["seed"]),
                     data=data)


def reference_summary_to_csv(summary: dict[str, np.ndarray]) -> str:
    """Wide layout: one row per step, three columns per metric."""
    buf = io.StringIO()
    buf.write("# schema=epivec-summary-v1\n")
    header = ["step"]
    for metric in SUMMARY_METRICS:
        header += [f"{metric}_q25", f"{metric}_q50", f"{metric}_q75"]
    buf.write(",".join(header) + "\n")
    horizon = next(iter(summary.values())).shape[0]
    for step in range(horizon):
        row = [str(step)]
        for metric in SUMMARY_METRICS:
            row += [repr(float(v)) for v in summary[metric][step]]
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def reference_summary_to_long_csv(summary: dict[str, np.ndarray]) -> str:
    """Plot-ready long layout: step, metric, quantile, value."""
    buf = io.StringIO()
    buf.write("# schema=epivec-summary-long-v1\n")
    buf.write("step,metric,quantile,value\n")
    horizon = next(iter(summary.values())).shape[0]
    for metric in SUMMARY_METRICS:
        block = summary[metric]
        for step in range(horizon):
            for qname, value in zip(("q25", "q50", "q75"), block[step]):
                buf.write(f"{step},{metric},{qname},{repr(float(value))}\n")
    return buf.getvalue()


def reference_compare_csv(rows) -> str:
    """The file half of ``epivec compare``: rows of (name, infections, deaths);
    a name holding a comma, a quote, a line feed or a carriage return is
    quoted, its quotes doubled."""
    lines = ["scenario,infections_q25,infections_q50,infections_q75,"
             "deaths_q25,deaths_q50,deaths_q75"]
    for name, infections, deaths in rows:
        if any(c in name for c in ',"\n\r'):
            name = '"' + name.replace('"', '""') + '"'
        lines.append(",".join([name]
                              + [repr(float(v)) for v in infections]
                              + [repr(float(v)) for v in deaths]))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [-0.0, 0.0, 1e16, 5e-324, 0.1 + 0.2, 1e-7, 123456789.0, 1e300]
quartile_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())


def quartile_arrays(horizon):
    """(horizon, 3) float64 quartile blocks, edge values included."""
    return arrays(np.float64, (horizon, 3), elements=quartile_floats)


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
        with pytest.raises(ConfigError, match=r"^interventions\.testing\.kind: "
                                              r"expected one of \[.*\], got 'mystery'$"):
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

    @pytest.mark.parametrize("d, path", [
        ({"population": {"n_agnts": 300}}, "population.n_agnts"),
        ({"population": {"networks": {"rewire_bta": 0.9}}},
         "population.networks.rewire_bta"),
        ({"population": {"household_size_distribution": {
            "sizes": [1], "probabilities": [1.0], "weights": [1.0]}}},
         "population.household_size_distribution.weights"),
        ({"disease": {"rate_scal": 3.0}}, "disease.rate_scal"),
        ({"disease": {"network_scale": {"household": 2.0, "occupation": 1.0,
                                        "random": 1.0, "school": 1.0}}},
         "disease.network_scale.school"),
        ({"progression": {"edgez": []}}, "progression.edgez"),
        ({"progression": edges_with(3, probabilty=[1.0] * 9)},
         "progression.edges[3].probabilty"),
        ({"progression": edges_with(3, duration={"family": "gamma", "mean": 8.0,
                                                 "sd": 3.0, "sigma": 1.0})},
         "progression.edges[3].duration.sigma"),
    ])
    def test_unknown_section_key_rejected(self, d, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: unknown key"):
            scenario_from_dict(with_sections(**d))

    @pytest.mark.parametrize("d, path, problem", [
        ({"horizon": "abc"}, "horizon", "a number"),
        ({"horizon": 2.9}, "horizon", "a whole number"),
        ({"replications": True}, "replications", "a number"),
        ({"base_seed": None}, "base_seed", "a number"),
        ({"interventions": {"quarantine": {"duration": 14.9}}},
         "interventions.quarantine.duration", "a whole number"),
        ({"interventions": {"den": {"app_adoption": "most"}}},
         "interventions.den.app_adoption", "a number"),
        ({"interventions": {"vaccination": {"daily_rate": float("nan")}}},
         "interventions.vaccination.daily_rate", "a number"),
        ({"population": {"n_agents": 300.5}}, "population.n_agents", "a whole number"),
        ({"disease": {"network_scale": {"household": "2", "occupation": 1.0,
                                        "random": 1.0}}},
         "disease.network_scale.household", "a number"),
        ({"progression": edges_with(3, duration={"family": "gamma", "mean": "abc",
                                                 "sd": 3.0})},
         "progression.edges[3].duration.mean", "a number"),
        ({"progression": edges_with(3, duration={"family": "gamma", "mean": 8.0})},
         "progression.edges[3].duration.sd", "a number"),
        ({"progression": edges_with(4, duration={"family": "lognormal", "mu": None,
                                                 "sigma": 0.35})},
         "progression.edges[4].duration.mu", "a number"),
        ({"progression": edges_with(3, duration={"family": "constant", "days": True})},
         "progression.edges[3].duration.days", "a number"),
        ({"progression": edges_with(3, probability=["1"] * 9)},
         "progression.edges[3].probability[0]", "a number"),
        ({"population": {"age_distribution": ["a"] + [0.125] * 8}},
         "population.age_distribution[0]", "a number"),
        ({"population": {"age_distribution": [0.125] * 8}},
         "population.age_distribution", "9 entries"),
        ({"population": {"household_size_distribution": {
            "sizes": [1, 2, 3, 4, 5, 6], "probabilities": [0.2] * 5}}},
         "population.household_size_distribution.probabilities", "6 entries"),
        ({"population": {"occupation_eligible_age_bands": [2, 2.5, 4]}},
         "population.occupation_eligible_age_bands[1]", "a whole number"),
        ({"population": {"household_size_distribution": {
            "sizes": [1, 1.5], "probabilities": [0.5, 0.5]}}},
         "population.household_size_distribution.sizes[1]", "a whole number"),
        ({"population": {"random_degree_by_age": [2.0] * 8 + [float("inf")]}},
         "population.random_degree_by_age[8]", "a number"),
        ({"population": {"networks": {**NETWORKS,
                                      "occupation_mean_interactions": "eight"}}},
         "population.networks.occupation_mean_interactions", "a list"),
        ({"population": {"household_size_distribution": {
            "sizes": [1, 1e308], "probabilities": [0.5, 0.5]}}},
         "population.household_size_distribution.sizes[1]",
         "a whole number in the int64 range"),
        ({"horizon": 2**63}, "horizon", "a whole number in the int64 range"),
        ({"base_seed": -1e19}, "base_seed", "a whole number in the int64 range"),
        ({"disease": {"infectiousness_sd_days": 1e308}},
         "disease.infectiousness_mean_days, disease.infectiousness_sd_days",
         "a curve with a finite tail day"),
        ({"disease": {"infectiousness_mean_days": 1e308}},
         "disease.infectiousness_mean_days, disease.infectiousness_sd_days",
         "a curve with a finite tail day"),
        ({"disease": {"infectiousness_mean_days": 1e7, "infectiousness_sd_days": 1e3}},
         "disease.infectiousness_mean_days, disease.infectiousness_sd_days",
         "a curve whose tail day is at most 3650"),
        ({"population": {"household_size_distribution": {
            "sizes": [1, 10**6], "probabilities": [0.5, 0.5]}}},
         "population.household_size_distribution.sizes[1]",
         re.escape("a value in [1, 1000]")),
        ({"name": None}, "name", "a string"),
        ({"name": 5}, "name", "a string"),
        ({"interventions": {"vaccination": {"strategy": "x"}}},
         "interventions.vaccination.strategy",
         re.escape("one of ['delayed', 'delayed-except-elderly', 'standard']")),
        ({"interventions": {"vaccination": {"immunity_mode": "x"}}},
         "interventions.vaccination.immunity_mode",
         re.escape("one of ['non-sterilizing', 'sterilizing']")),
    ])
    def test_bad_scalar_rejected(self, d, path, problem):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected {problem},"):
            scenario_from_dict(with_sections(**d))

    @pytest.mark.parametrize("d, path", [
        ({"horizon": 0}, "horizon"),
        ({"replications": 0}, "replications"),
        ({"initial_infections": -1}, "initial_infections"),
        ({"initial_infections": 10**6}, "initial_infections"),
        ({"interventions": {"quarantine": {"duration": 0}}},
         "interventions.quarantine.duration"),
        ({"interventions": {"quarantine": {"dropout_prob": 2}}},
         "interventions.quarantine.dropout_prob"),
        ({"interventions": {"testing": {"false_positive_prob": 2}}},
         "interventions.testing.false_positive_prob"),
        ({"interventions": {"den": {"app_adoption": -0.5}}},
         "interventions.den.app_adoption"),
        ({"interventions": {"den": {"lookback": 0}}}, "interventions.den.lookback"),
        ({"interventions": {"vaccination": {"daily_rate": 2}}},
         "interventions.vaccination.daily_rate"),
        ({"interventions": {"vaccination": {"dose_gap": 0}}},
         "interventions.vaccination.dose_gap"),
        ({"interventions": {"vaccination": {"dose1_latency": -1}}},
         "interventions.vaccination.dose1_latency"),
        ({"interventions": {"vaccination": {"dose2_latency": -1}}},
         "interventions.vaccination.dose2_latency"),
        ({"interventions": {"vaccination": {"elderly_band": 99}}},
         "interventions.vaccination.elderly_band"),
        ({"interventions": {"vaccination": {"elderly_band": -1}}},
         "interventions.vaccination.elderly_band"),
        ({"disease": {"rate_scale": -1}}, "disease.rate_scale"),
        ({"disease": {"asymptomatic_factor": -1}}, "disease.asymptomatic_factor"),
        ({"disease": {"mean_daily_interactions": 0}}, "disease.mean_daily_interactions"),
        ({"disease": {"infectiousness_mean_days": 0}}, "disease.infectiousness_mean_days"),
        ({"disease": {"infectiousness_sd_days": 0}}, "disease.infectiousness_sd_days"),
        ({"disease": {"age_susceptibility": [1.0] * 8 + [-1]}},
         "disease.age_susceptibility[8]"),
        ({"disease": {"network_scale": {"household": 2.0, "occupation": 1.0,
                                        "random": -1}}},
         "disease.network_scale.random"),
        ({"population": {"n_agents": 0}}, "population.n_agents"),
        ({"population": {"random_degree_by_age": [2.0] * 8 + [-1]}},
         "population.random_degree_by_age[8]"),
        ({"population": {"random_degree_by_age": [1e30] * 9}},
         "population.random_degree_by_age[0]"),
        ({"population": {"occupation_eligible_age_bands": [2, 3, 12]}},
         "population.occupation_eligible_age_bands[2]"),
        ({"population": {"household_size_distribution": {
            "sizes": [0, 2], "probabilities": [0.5, 0.5]}}},
         "population.household_size_distribution.sizes[0]"),
        ({"population": {"networks": {**NETWORKS, "occupation_mean_interactions":
                                      [8.0] * 22 + [-1]}}},
         "population.networks.occupation_mean_interactions[22]"),
        ({"population": {"networks": {**NETWORKS, "rewire_beta": 1.5}}},
         "population.networks.rewire_beta"),
    ])
    def test_out_of_range_value_names_its_path(self, d, path):
        with pytest.raises(ConfigError, match=f"^{re.escape(path)}: expected "):
            scenario_from_dict(with_sections(**d))

    def test_absent_interventions_take_the_dataclass_defaults(self):
        assert scenario_from_dict({}).interventions == InterventionConfig()

    def test_whole_float_accepted_for_integer_field(self):
        config = tiny_scenario(horizon=3.0)
        assert config.horizon == 3 and isinstance(config.horizon, int)

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

    @pytest.mark.parametrize("key", ["population", "disease", "progression"])
    @pytest.mark.parametrize("value, message", [
        pytest.param(5, "expected an object or a file path, got int", id="number"),
        pytest.param("nope.json", "referenced file not found: .*nope.json",
                     id="missing file"),
        pytest.param("bad.json", "referenced file .*bad.json is not readable JSON: "
                     "Expecting property name", id="bad JSON"),
        pytest.param("bin.json", "referenced file .*bin.json is not readable JSON: "
                     "'utf-8' codec", id="not UTF-8"),
        pytest.param(".", "referenced file .* is not readable JSON: ", id="directory"),
    ])
    def test_section_error_names_its_section(self, tmp_path, key, value, message):
        (tmp_path / "bad.json").write_text("{oops}")
        (tmp_path / "bin.json").write_bytes(b"\xff\xfe\x00")
        with pytest.raises(ConfigError, match=f"^{key}: {message}"):
            scenario_from_dict({key: value}, base_dir=tmp_path)

    @pytest.mark.parametrize("key", ["population", "disease", "progression"])
    def test_null_section_is_config_error(self, tmp_path, capsys, key):
        """Only an absent section takes the packaged default; null is an error."""
        message = f"{key}: expected an object or a file path, got null"
        with pytest.raises(ConfigError, match=f"^{message}$"):
            scenario_from_dict({key: None})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 3, key: None}))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"


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

    def test_pool_starts_no_more_workers_than_replications(self, monkeypatch):
        """The pool starts every worker it is asked for at its first submit, so
        asking for more than there are replications starts idle processes."""
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        config = tiny_scenario(horizon=2, replications=2)
        assert len(run_scenario(config, workers=64)) == 2
        assert asked == [2]

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


RUN_WITHOUT_STATS = """
import sys
import epivec.cli
from epivec.runner import run_scenario, verify_equivalence
from epivec.scenario import default_population_dict, scenario_from_dict
population = default_population_dict()
population["n_agents"] = 300
config = scenario_from_dict({
    "population": population, "horizon": 10, "replications": 2,
    "interventions": {"quarantine": {"enabled": True}, "testing": {"enabled": True},
                      "den": {"enabled": True},
                      "vaccination": {"enabled": True, "start_trigger": 0.0}}})
run_scenario(config, workers=2)
verify_equivalence(config)
print(sorted(name for name in sys.modules if name.startswith("scipy.stats")))
"""


class TestRunTimeImports:
    def test_a_run_loads_no_scipy_stats(self):
        """``scipy.stats`` is the tests' reference only, and pytest's own
        process has loaded it, so a fresh interpreter runs replications on
        the pool and the engine/oracle replay with every intervention on."""
        package = Path(epivec.__file__).parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (str(package.parent), os.environ.get("PYTHONPATH"))))}
        run = subprocess.run([sys.executable, "-c", RUN_WITHOUT_STATS], env=env,
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_no_source_file_names_scipy_stats(self):
        package = Path(epivec.__file__).parent
        files = [p for p in package.rglob("*")
                 if p.is_file() and "__pycache__" not in p.parts]
        assert any(p.name == "progression.py" for p in files)
        assert [p.name for p in files
                if re.search(rb"scipy\.stats|from scipy import stats", p.read_bytes())] == []


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

    @given(data=st.integers(1, 12).flatmap(
               lambda horizon: arrays(np.int64, (horizon, len(CSV_COLUMNS)))),
           replication=st.integers(0, 10**6), seed=st.integers(0, 2**64 - 1))
    @example(data=np.array([[np.iinfo(np.int64).min] * (len(CSV_COLUMNS) - 1)
                            + [np.iinfo(np.int64).max]]), replication=0, seed=0)
    @settings(max_examples=100, deadline=None)
    def test_run_codec_matches_reference(self, data, replication, seed):
        result = RunResult(replication, seed, data)
        text = result.to_csv()
        assert text == reference_to_csv(result)
        parsed, expected = RunResult.from_csv(text), reference_from_csv(text)
        assert (parsed.replication, parsed.seed) == (expected.replication, expected.seed)
        assert parsed.data.dtype == expected.data.dtype == np.int64
        assert np.array_equal(parsed.data, expected.data)

    @given(summary=st.integers(1, 6).flatmap(lambda horizon: st.fixed_dictionaries(
        {m: quartile_arrays(horizon) for m in SUMMARY_METRICS})))
    @example(summary={m: np.array([[-0.0, 1e16, 5e-324]]) for m in SUMMARY_METRICS})
    @settings(max_examples=100, deadline=None)
    def test_summary_codec_matches_reference(self, summary):
        assert summary_to_csv(summary) == reference_summary_to_csv(summary)
        assert summary_to_long_csv(summary) == reference_summary_to_long_csv(summary)

    @given(rows=st.lists(st.tuples(
        st.text(alphabet='az09_ ,"\n\r', max_size=12),
        arrays(np.float64, 3, elements=quartile_floats),
        arrays(np.float64, 3, elements=quartile_floats)), min_size=1, max_size=4))
    @example(rows=[("s", np.array([-0.0, 1e16, 5e-324]), np.array([0.1 + 0.2] * 3))])
    @example(rows=[(name, np.zeros(3), np.ones(3))
                   for name in ("a,b", 'say "hi"', "two\nlines", "a\rb", "c\r\nd", "")])
    @settings(max_examples=50, deadline=None)
    def test_compare_file_matches_reference(self, tmp_path_factory, rows):
        """``epivec compare`` with scenario loading and running stubbed out;
        ``csv`` reads back every name, each row as wide as the header."""
        by_path = {f"s{i}.json": row for i, row in enumerate(rows)}
        out = tmp_path_factory.mktemp("compare") / "cmp.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "load_scenario",
                       lambda path: SimpleNamespace(name=by_path[path][0], path=path))
            mp.setattr(cli, "run_scenario", lambda config, workers: config.path)
            mp.setattr(cli, "summarize", lambda path: {
                "cumulative_infections": by_path[path][1][None],
                "cumulative_deaths": by_path[path][2][None]})
            assert main(["compare", "--scenarios", *by_path, "--out", str(out)]) == 0
        text = out.read_bytes().decode()   # read_text would turn "\r" into "\n"
        assert text == reference_compare_csv(rows)
        header, *read = csv.reader(io.StringIO(text))
        assert [len(row) for row in read] == [len(header)] * len(rows)
        assert [row[0] for row in read] == [name for name, _, _ in rows]

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

    @pytest.mark.parametrize("content", [
        pytest.param(f"# schema={SCHEMA}\n", id="schema line only"),
        pytest.param("".join(GOOD_RUN.splitlines(keepends=True)[:2]), id="two lines"),
        pytest.param(GOOD_RUN.replace("seed=7", "seed=x"), id="non-integer seed"),
        pytest.param(GOOD_RUN.replace(" seed=7", ""), id="no seed"),
        pytest.param(GOOD_RUN.replace(SCHEMA, "epivec-timeseries-v0"),
                     id="another schema"),
        pytest.param(GOOD_RUN.replace(",20,", ",x190,"), id="non-integer cell"),
        pytest.param(GOOD_RUN.replace(",21,", ",2.5,"), id="fractional cell"),
        pytest.param(GOOD_RUN.replace(",37\n", "\n"), id="ragged row"),
        pytest.param(GOOD_RUN.replace(",18\n", "\n").replace(",37\n", "\n"),
                     id="every row one cell short"),
        pytest.param("".join(GOOD_RUN.splitlines(keepends=True)[:3]),
                     id="no data rows"),
        pytest.param(b"\xff\xfe\x00", id="not text"),
        pytest.param(None, id="directory"),
    ])
    def test_bad_run_file_is_config_error(self, tmp_path, capsys, content):
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        (run_dir / "run_000.csv").write_text(GOOD_RUN)
        bad = run_dir / "run_001.csv"
        if content is None:
            bad.mkdir()
        elif isinstance(content, str):
            bad.write_text(content)
        else:
            bad.write_bytes(content)
        assert main(["summarize", "--in", str(run_dir),
                     "--out", str(tmp_path / "summary.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {bad}: ") and err.count("\n") == 1

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for d in ({"horizon": 0}, {"horizon": "abc"}, {"horizon": 2.9},
                  {"interventions": {"quarantine": {"duration": 14.9}}},
                  with_sections(population={"networks": {"rewire_bta": 0.9}}),
                  with_sections(progression={"edgez": []}),
                  with_sections(population={"occupation_eligible_age_bands": [2.5]}),
                  with_sections(population={"household_size_distribution": {
                      "sizes": [1, 1e308], "probabilities": [0.5, 0.5]}}),
                  with_sections(population={"household_size_distribution": {
                      "sizes": [1, 10**6], "probabilities": [0.5, 0.5]}}),
                  with_sections(disease={"infectiousness_sd_days": 1e308}),
                  with_sections(disease={"infectiousness_mean_days": 1e7,
                                         "infectiousness_sd_days": 1e3})):
            bad.write_text(json.dumps(d))
            assert main(["simulate", "--scenario", str(bad),
                         "--out", str(tmp_path / "x")]) == 1, d

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00", None], ids=["not UTF-8",
                                                                       "directory"])
    def test_unreadable_scenario_file_exit_code(self, tmp_path, capsys, content):
        scenario = tmp_path / "scenario.json"
        if content is None:
            scenario.mkdir()
        else:
            scenario.write_bytes(content)
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(
            f"configuration error: scenario file {scenario} is not readable JSON: ")

    @pytest.mark.parametrize("block, path", [
        ({"den": {"lookback": 0}}, "interventions.den.lookback"),
        ({"vaccination": {"elderly_band": 99}}, "interventions.vaccination.elderly_band"),
    ])
    def test_range_error_exit_code_names_the_path(self, tmp_path, capsys, block, path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"horizon": 3, "interventions": block}))
        assert main(["simulate", "--scenario", str(bad),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")

    @pytest.mark.parametrize("sections, path", [
        pytest.param(with_sections(progression=edges_with(0, **{"from": "susceptibl"})),
                     "progression.edges[0].from", id="misspelled stage"),
        pytest.param(with_sections(population={"random_degree_by_age": [1e30] * 9}),
                     "population.random_degree_by_age[0]", id="random degree 1e30"),
        pytest.param({"population": {key: value for key, value
                                     in default_population_dict().items()
                                     if key != "networks"}},
                     "population.networks", id="no networks"),
    ])
    def test_bad_section_exits_1_naming_the_path(self, tmp_path, capsys, sections,
                                                 path):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({"horizon": 5, **sections}))
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")
        assert not (tmp_path / "x").exists()

    # 3e9 steps: each wrapped or overflowed an int32 step column at run time
    @pytest.mark.parametrize("overrides, path", [
        ({"interventions": {"quarantine": {"enabled": True, "duration": 3e9},
                            "testing": {"enabled": True}}},
         "interventions.quarantine.duration"),
        ({"interventions": {"vaccination": {"enabled": True, "dose1_latency": 3e9}}},
         "interventions.vaccination.dose1_latency"),
        ({"interventions": {"vaccination": {"enabled": True, "dose2_latency": 3e9}}},
         "interventions.vaccination.dose2_latency"),
        ({"interventions": {"vaccination": {"enabled": True, "dose_gap": 3e9}}},
         "interventions.vaccination.dose_gap"),
        ({"horizon": 2**30 + 1}, "horizon"),
        (with_sections(progression=edges_with(3, duration={
            "family": "gamma", "mean": 3e9, "sd": 1.0})), "progression.edges[3].duration"),
        (with_sections(progression=edges_with(3, duration={
            "family": "constant", "days": 1e10})), "progression.edges[3].duration"),
    ])
    def test_step_offset_past_the_int32_clock_exits_1(self, tmp_path, capsys,
                                                       overrides, path):
        scenario = self.write_scenario(tmp_path, n=100, replications=1,
                                       **{"horizon": 3, **overrides})
        assert main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {path}: ")

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
        pytest.param("simulate", ["--threads", "0"], 1,
                     lambda out, stdout, stderr, base:
                     "argument --threads: expected a whole number >= 1, got '0'" in stderr
                     and not out.exists(),
                     id="simulate --threads 0"),
        pytest.param("simulate", ["--threads", "-4"], 1,
                     lambda out, stdout, stderr, base:
                     "argument --threads: expected a whole number >= 1, got '-4'" in stderr
                     and not out.exists(),
                     id="simulate --threads -4"),
        pytest.param("compare", ["--threads", "0"], 1,
                     lambda out, stdout, stderr, base:
                     "argument --threads: expected a whole number >= 1, got '0'" in stderr
                     and not out.exists(),
                     id="compare --threads 0"),
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

    @pytest.mark.parametrize("flags", [[], ["--oracle"]], ids=["engine", "oracle"])
    def test_bench_counts_directed_interactions(self, capsys, flags):
        """Steps store each interaction once, as a pair; ``bench`` still counts
        the directed interactions, two per pair, as it always has."""
        assert main(["bench", "--agents", "5000", "--steps", "3", *flags]) == 0
        assert "5000 agents x 3 steps: 168,516 interactions in" in capsys.readouterr().out

    def test_verify_ok_and_bench(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path, interventions={
            "quarantine": {"enabled": True},
            "testing": {"enabled": True}})
        assert main(["verify", "--scenario", str(scenario)]) == 0
        assert main(["bench", "--agents", "300", "--steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "interactions" in out

    @pytest.mark.parametrize("runs, message", [
        pytest.param([GOOD_RUN, RunResult(1, 7, np.arange(len(CSV_COLUMNS))
                                          .reshape(1, -1)).to_csv()],
                     "replications disagree on horizon", id="two horizons"),
        pytest.param([], "no run_*.csv files under {}", id="no run files"),
    ])
    def test_summarize_refuses_runs_it_cannot_stack(self, tmp_path, capsys, runs,
                                                    message):
        run_dir = tmp_path / "runs"
        run_dir.mkdir()
        for i, text in enumerate(runs):
            (run_dir / f"run_{i:03d}.csv").write_text(text)
        assert main(["summarize", "--in", str(run_dir),
                     "--out", str(tmp_path / "summary.csv")]) == 1
        assert capsys.readouterr().err == \
            f"configuration error: {message.format(run_dir)}\n"

    @pytest.mark.parametrize("command", ["summarize", "compare"])
    def test_out_into_a_new_directory(self, tmp_path, capsys, command):
        scenario = self.write_scenario(tmp_path, horizon=3)
        runs = tmp_path / "runs"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(runs)]) == 0
        out = tmp_path / "new" / "dir" / "x.csv"
        source = {"summarize": ["--in", str(runs)],
                  "compare": ["--scenarios", str(scenario)]}[command]
        assert main([command, *source, "--out", str(out)]) == 0
        assert out.read_text()

    @pytest.mark.parametrize("command", ["simulate", "summarize", "compare"])
    def test_out_where_a_file_is_exits_1_before_any_run(self, tmp_path, capsys,
                                                        monkeypatch, command):
        scenario = self.write_scenario(tmp_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_000.csv").write_text(GOOD_RUN)
        afile = tmp_path / "afile"
        afile.write_text("")
        ran = []
        monkeypatch.setattr(runner, "run_replication",
                            lambda config, index: ran.append(index))
        argv = {"simulate": ["--scenario", str(scenario), "--out", str(afile)],
                "summarize": ["--in", str(runs), "--out", str(afile / "x.csv")],
                "compare": ["--scenarios", str(scenario),
                            "--out", str(afile / "x.csv")]}[command]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err.startswith(f"configuration error: {afile}: ")
        assert ran == []
        assert afile.read_text() == ""

    def test_write_file_under_a_file_is_config_error(self, tmp_path):
        """``runner.write_file``'s own error mapping, which the commands'
        checks of their output paths before any run leave unreached."""
        (tmp_path / "afile").write_text("")
        target = tmp_path / "afile" / "x.csv"
        with pytest.raises(ConfigError, match=f"^{re.escape(str(target))}: not usable "
                                              "as an output file: Not a directory$"):
            runner.write_file(target, "t")

    @pytest.mark.parametrize("command, name", [
        pytest.param("simulate", "run_000.csv", id="simulate"),
        pytest.param("summarize", "x.csv", id="summarize"),
        pytest.param("summarize", "x_long.csv", id="summarize-long"),
        pytest.param("compare", "x.csv", id="compare")])
    def test_out_file_where_a_directory_is_exits_1(self, tmp_path, capsys, monkeypatch,
                                                   command, name):
        """The file a command writes is a directory: simulate's first run CSV,
        summarize's ``--out`` or the ``*_long`` file next to it, or compare's
        ``--out``.  No replication runs, no run file is read, nothing is
        written."""
        scenario = self.write_scenario(tmp_path, horizon=3)
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "run_000.csv").write_text(GOOD_RUN)
        blocked = tmp_path / name
        blocked.mkdir()
        before = sorted(tmp_path.iterdir())
        ran, loaded = [], []
        monkeypatch.setattr(runner, "run_replication",
                            lambda config, index: ran.append(index))
        monkeypatch.setattr(cli, "load_results", loaded.append)
        out = str(tmp_path / "x.csv")
        argv = {"simulate": ["--scenario", str(scenario), "--out", str(tmp_path)],
                "summarize": ["--in", str(runs), "--out", out],
                "compare": ["--scenarios", str(scenario), "--out", out]}[command]
        assert main([command, *argv]) == 1
        assert capsys.readouterr().err == (f"configuration error: {blocked}: not "
                                           "usable as an output file: Is a directory\n")
        assert ran == [] and loaded == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("stale", [False, True], ids=["a directory", "stale index"])
    def test_run_file_it_cannot_keep_exits_1_before_any_run(self, tmp_path, capsys,
                                                            monkeypatch, stale):
        """A run CSV in the way, or one left by a 3-replication run under a
        1-replication rerun, which ``summarize`` would mix in."""
        scenario = self.write_scenario(tmp_path, horizon=3, replications=3)
        runs = tmp_path / "runs"
        if stale:
            assert main(["simulate", "--scenario", str(scenario),
                         "--out", str(runs)]) == 0
            blocked, problem = runs / "run_001.csv", ("a run file of no replication "
                                                      "in range(1); remove it or "
                                                      "write elsewhere")
        else:
            blocked, problem = runs / "run_002.csv", ("not usable as an output file: "
                                                      "Is a directory")
            blocked.mkdir(parents=True)
        before = sorted(runs.iterdir())
        ran = []
        monkeypatch.setattr(runner, "run_replication",
                            lambda config, index: ran.append(index))
        argv = ["--replications", "1", "--seed", "9"] if stale else []
        assert main(["simulate", "--scenario", str(scenario), "--out", str(runs),
                     *argv]) == 1
        assert capsys.readouterr().err == f"configuration error: {blocked}: {problem}\n"
        assert ran == []
        assert sorted(runs.iterdir()) == before

    def test_verify_rejects_large_population(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path, n=3000)
        assert main(["verify", "--scenario", str(scenario)]) == 1
        assert capsys.readouterr().err.startswith(
            "configuration error: population.n_agents: ")

    def test_compare_rejects_a_name_that_is_not_a_string(self, tmp_path, capsys):
        scenario = self.write_scenario(tmp_path, name=None)
        assert main(["compare", "--scenarios", str(scenario),
                     "--out", str(tmp_path / "cmp.csv")]) == 1
        assert capsys.readouterr().err == ("configuration error: "
                                           "name: expected a string, got None\n")

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
