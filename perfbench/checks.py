"""Correctness checks run on every benchmark run.

None of them pins a trajectory digest: a change to how graphs are realized
may legitimately change every trajectory, but never these properties.
"""

from __future__ import annotations

import numpy as np

from epivec import VerificationDivergence, verify_equivalence
from epivec.runner import CSV_COLUMNS, STAGE_COLUMNS

_STAGES = slice(CSV_COLUMNS.index(STAGE_COLUMNS[0]),
                CSV_COLUMNS.index(STAGE_COLUMNS[-1]) + 1)
_CUMULATIVE = [CSV_COLUMNS.index("cumulative_infections"),
               CSV_COLUMNS.index("cumulative_deaths")]


def check_rows(rows: np.ndarray, n_agents: int) -> list[str]:
    """Stage counts sum to n_agents at every step; cumulative counts never fall."""
    problems = []
    totals = rows[:, _STAGES].sum(axis=1)
    bad = np.nonzero(totals != n_agents)[0]
    if len(bad):
        problems.append(f"step {int(rows[bad[0], 0])}: stage counts sum to "
                        f"{int(totals[bad[0]])}, not {n_agents}")
    for col in _CUMULATIVE:
        falls = np.nonzero(np.diff(rows[:, col]) < 0)[0]
        if len(falls):
            problems.append(f"step {int(rows[falls[0] + 1, 0])}: "
                            f"{CSV_COLUMNS[col]} decreased")
    return problems


def check_results(results, loaded, n_agents: int) -> list[list[str]]:
    """Per replication: row checks, and the CSV round trip returns the same rows."""
    by_index = {r.replication: r for r in loaded}
    out = []
    for r in results:
        problems = check_rows(r.data, n_agents)
        back = by_index.get(r.replication)
        if back is None or not np.array_equal(back.data, r.data):
            problems.append(f"replication {r.replication}: CSV round trip differs")
        out.append(problems)
    return out


def check_equivalence(config, oracle_disease=None) -> list[str]:
    """Engine/oracle bitwise replay on a scenario of at most 2000 agents."""
    try:
        verify_equivalence(config, oracle_disease=oracle_disease)
    except VerificationDivergence as e:
        return [f"engine/oracle divergence: {e}"]
    return []


def check_same_rows(untraced: np.ndarray, traced: np.ndarray) -> list[str]:
    if untraced.shape != traced.shape or not np.array_equal(untraced, traced):
        return ["traced and untraced runs of one seed produced different rows"]
    return []
