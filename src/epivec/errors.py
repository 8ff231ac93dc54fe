"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError (and command-line usage
errors) -> 1, InvariantViolation -> 2, VerificationDivergence -> 3, any other
exception -> 4.
"""


class EpivecError(Exception):
    """Base class for all package errors."""


class ConfigError(EpivecError):
    """Invalid configuration or parameter file; message carries the field path."""


class InvariantViolation(EpivecError):
    """A runtime model invariant was violated mid-run (engine bug or bad input)."""


class VerificationDivergence(EpivecError):
    """Engine and reference oracle disagreed during an equivalence check."""

    def __init__(self, step: int, agent: int, field: str, engine_value, oracle_value):
        self.step = step
        self.agent = agent
        self.field = field
        self.engine_value = engine_value
        self.oracle_value = oracle_value
        super().__init__(
            f"divergence at step {step}, agent {agent}, field {field!r}: "
            f"engine={engine_value!r} oracle={oracle_value!r}"
        )
