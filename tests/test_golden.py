"""Golden run CSVs: the byte-identity gate for realization and engine changes.

Each scenario's ``RunResult.to_csv()`` text is compared byte for byte with a
file committed under ``tests/data/``.  Both scenarios see deaths, so the
household block is refiltered mid-run; the second turns every intervention on
(the non-default test kind, strategy and immunity mode) and sends exposure
notifications, so the contact log runs over reused household blocks.

Only a change that deliberately alters realized graphs or trajectories may
regenerate these files, and it must say so where it is described.  Regenerate
with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

import pytest

from epivec.runner import run_replication
from epivec.scenario import default_population_dict, scenario_from_dict

DATA = Path(__file__).parent / "data"

SCENARIOS = {
    "golden_default": {},
    "golden_all_on": {
        "quarantine": {"enabled": True},
        "testing": {"enabled": True, "kind": "rapid-poc"},
        "den": {"enabled": True},
        "vaccination": {"enabled": True, "strategy": "delayed-except-elderly",
                        "immunity_mode": "non-sterilizing"},
    },
}


def golden_run(name):
    pop = default_population_dict()
    pop["n_agents"] = 1500
    config = scenario_from_dict({"population": pop, "horizon": 60,
                                 "replications": 1, "base_seed": 2,
                                 "initial_infections": 20,
                                 "interventions": SCENARIOS[name]}, name=name)
    return run_replication(config, 0)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_csv_matches_golden_file(name):
    result = golden_run(name)
    assert result.column("cumulative_deaths")[-1] >= 1
    if SCENARIOS[name]:
        assert result.column("notifications_sent").sum() >= 1
    assert result.to_csv() == (DATA / f"{name}.csv").read_text()


if __name__ == "__main__":
    for name in SCENARIOS:
        (DATA / f"{name}.csv").write_text(golden_run(name).to_csv())
