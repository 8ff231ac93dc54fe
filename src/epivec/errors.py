"""Exception hierarchy shared across the package, and the unknown-key and
number checks the config loaders raise ConfigError through.

Exit-code mapping used by the CLI: ConfigError (and command-line usage
errors) -> 1, InvariantViolation -> 2, VerificationDivergence -> 3, any other
exception -> 4.
"""

import math
import numbers

import numpy as np


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


def checked(d, known, path: str) -> dict:
    """``d`` itself, once it is an object holding only ``known`` keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{path or 'scenario'}: expected an object, "
                          f"got {type(d).__name__}")
    for key in d:
        if key not in known:
            raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key; "
                              f"expected one of {sorted(known)}")
    return d


def number(d: dict, key: str, path: str, default=None, kind=float):
    """``d[key]`` as ``kind`` (int or float), or ``default`` when it is absent.

    Without a default the key is required.  An absent required key, a value
    that is not a finite number, or one that is not a whole number in the
    int64 range for an int field raises a ConfigError naming ``path.key``.
    """
    return _finite(d.get(key, default), f"{path}.{key}" if path else key, kind)


def number_list(d: dict, key: str, path: str, default=None, kind=float) -> list:
    """``d[key]`` as a list of ``kind``, each entry checked like ``number``;
    a bad entry raises a ConfigError naming ``path.key[index]``."""
    values = d.get(key, default)
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}.{key}: expected a list, got {values!r}")
    return [_finite(v, f"{path}.{key}[{i}]", kind) for i, v in enumerate(values)]


def _finite(value, where: str, kind):
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{where}: expected a whole number, got {value!r}")
    if kind is int and not -2**63 <= value < 2**63:
        raise ConfigError(f"{where}: expected a whole number in the int64 range, "
                          f"got {value!r}")
    return kind(value)


def positive(where: str, value) -> None:
    """Raise a ConfigError naming ``where`` unless ``value > 0``."""
    if not value > 0:
        raise ConfigError(f"{where}: expected a value > 0, got {value!r}")


def in_range(where: str, value, lo, hi=math.inf) -> None:
    """Raise a ConfigError naming ``where`` unless ``lo <= value <= hi``; for a
    sequence ``value`` it names ``where[i]`` of the first entry out of range."""
    values = np.asarray(value)
    bad = np.flatnonzero(~((values >= lo) & (values <= hi)))
    if len(bad):
        where = f"{where}[{bad[0]}]" if values.ndim else where
        bound = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
        raise ConfigError(f"{where}: expected a value {bound}, "
                          f"got {values.ravel()[bad[0]].item()!r}")
