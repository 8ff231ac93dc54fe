"""epivec: vectorized agent-based epidemic simulation.

Columnar agent state, per-step interaction graphs realized from household /
occupation / random networks, hazard message passing for transmission, a
stochastic disease-progression machine, intervention modeling (quarantine,
testing, exposure notification, two-dose vaccination), a seeded replication
runner, and a naive per-agent reference oracle for equivalence testing.
"""

from .engine import Engine, StepEvents
from .errors import (ConfigError, EpivecError, InvariantViolation,
                     VerificationDivergence)
from .graphs import GraphRealizer, StepGraph, build_households, watts_strogatz
from .interventions import (DenConfig, DiagnosticPolicy, ImmunityMode,
                            InterventionConfig, QuarantinePolicy, Strategy,
                            TestKind, TEST_KINDS, VaccinePolicy)
from .oracle import NaiveAgent, OracleSim, agents_from_columns
from .population import (HouseholdSizes, Networks, PopulationSpec,
                         seed_infections, synthesize)
from .progression import ProgressionTable
from .runner import (BenchReport, RunResult, bench, initialize_run,
                     replication_seed, run_replication, run_scenario,
                     summarize, verify_equivalence)
from .scenario import ScenarioConfig, default_scenario, load_scenario
from .stages import NetworkKind, Stage, VaccineStatus
from .state import AgentColumns
from .transmission import (DiseaseParams, day_weight, day_weight_table,
                           edge_hazard, infection_probability)

__version__ = "0.1.0"

__all__ = [
    "AgentColumns", "BenchReport", "ConfigError", "DenConfig",
    "DiagnosticPolicy", "DiseaseParams", "Engine", "EpivecError",
    "GraphRealizer", "HouseholdSizes", "ImmunityMode", "InterventionConfig",
    "InvariantViolation", "NaiveAgent", "NetworkKind", "Networks", "OracleSim",
    "PopulationSpec", "ProgressionTable", "QuarantinePolicy", "RunResult",
    "ScenarioConfig", "Stage", "StepEvents", "StepGraph", "Strategy",
    "TestKind", "TEST_KINDS", "VaccinePolicy", "VaccineStatus",
    "VerificationDivergence", "agents_from_columns", "bench",
    "build_households", "day_weight", "day_weight_table", "default_scenario",
    "edge_hazard", "infection_probability", "initialize_run", "load_scenario",
    "replication_seed", "run_replication", "run_scenario", "seed_infections",
    "summarize", "synthesize", "verify_equivalence", "watts_strogatz",
]
