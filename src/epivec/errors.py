"""Exception hierarchy shared across the package, and the config schema the
loaders raise ConfigError through.

Each config class is a ``Config`` dataclass, the schema of one JSON object:
it declares each key once, as a field made by ``setting``.  From those
declarations ``Config.from_dict`` derives the unknown-key check and the typed
read of every key with its default, and construction derives each list's
length check and every bound.  Each error names the path of the field, e.g.
``interventions.den.lookback: expected a value >= 1, got 0``.

Exit-code mapping used by the CLI: ConfigError (and command-line usage
errors) -> 1, InvariantViolation -> 2, VerificationDivergence -> 3, any other
exception -> 4.
"""

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

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
            raise ConfigError(f"{_join(path, key)}: unknown key; "
                              f"expected one of {sorted(known)}")
    return d


@dataclass(frozen=True)
class Setting:
    """How one config key is read and checked.

    ``kind`` is bool, int, float or str, a dict of named choices, or a class
    with a ``from_dict`` (a nested object).  ``size`` makes the value a list
    of ``kind`` numbers: of that many entries, of any length for ``...``, or,
    for a tuple of names, an object with one number per name, in that order.
    ``lo`` and ``hi`` bound every number.
    """

    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    size: object = None

    def parse(self, value, where: str):
        """The JSON ``value`` as this setting's kind; a value of another type
        raises a ConfigError naming ``where`` (and the entry, in a list)."""
        if isinstance(self.size, tuple):
            checked(value, self.size, where)
            return [_scalar(value.get(name), self.kind, f"{where}.{name}")
                    for name in self.size]
        if self.size is not None:
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{where}: expected a list, got {value!r}")
            return [_scalar(v, self.kind, f"{where}[{i}]") for i, v in enumerate(value)]
        return _scalar(value, self.kind, where)

    def check(self, value, where: str):
        """``value``, once its length and bounds hold (else a ConfigError
        naming ``where``); a list comes back as an int64 or float64 array."""
        if self.size is not None:
            value = np.asarray(value, dtype=np.int64 if self.kind is int else np.float64)
            n = len(self.size) if isinstance(self.size, tuple) else self.size
            if n is not ... and value.shape != (n,):
                raise ConfigError(f"{where}: expected {n} entries, got shape {value.shape}")
        if isinstance(self.size, tuple):
            for name, entry in zip(self.size, value):
                in_range(f"{where}.{name}", entry, self.lo, self.hi)
        elif (self.lo, self.hi) != (-math.inf, math.inf):
            in_range(where, value, self.lo, self.hi)
        return value


def setting(kind, default=MISSING, *, lo=-math.inf, hi=math.inf, size=None):
    """A ``Config`` field read from the JSON key of its name (see ``Setting``).
    An absent key takes ``default``, a fresh instance if ``default`` is a
    class; a field without a default is a required key."""
    metadata = {"setting": Setting(kind, lo, hi, size)}
    if isinstance(default, type):
        return field(default_factory=default, metadata=metadata)
    return field(default=default, metadata=metadata)


class Config:
    """Base of the config dataclasses: the schema of the JSON object at
    ``PATH``, whose keys are its ``setting`` fields and the unread ``NOTES``."""

    PATH = ""
    NOTES = ()

    @classmethod
    def from_dict(cls, d):
        """An instance read from the JSON object ``d``.  An unknown key, a value
        of the wrong type or an absent required key raises a ConfigError
        naming its path; an absent key with a default takes it."""
        schema = [f for f in fields(cls) if "setting" in f.metadata]
        checked(d, (*(f.name for f in schema), *cls.NOTES), cls.PATH)
        return cls(**{f.name: f.metadata["setting"].parse(d.get(f.name),
                                                            _join(cls.PATH, f.name))
                      for f in schema
                      if f.name in d or (f.default is MISSING
                                         and f.default_factory is MISSING)})

    def __post_init__(self):
        for f in fields(self):
            if "setting" in f.metadata:
                value = f.metadata["setting"].check(getattr(self, f.name),
                                                    _join(self.PATH, f.name))
                object.__setattr__(self, f.name, value)   # frozen classes too


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_TYPE_NAMES = {bool: "true or false", str: "a string"}


def _scalar(value, kind, where: str):
    """One JSON value as ``kind``; an int must be whole and fit in int64."""
    if kind is float or kind is int:
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if kind is int and value != int(value):
            raise ConfigError(f"{where}: expected a whole number, got {value!r}")
        if kind is int and not -2**63 <= value < 2**63:
            raise ConfigError(f"{where}: expected a whole number in the int64 range, "
                              f"got {value!r}")
        return kind(value)
    if isinstance(kind, dict):
        if not isinstance(value, str) or value not in kind:
            raise ConfigError(f"{where}: expected one of {sorted(kind)}, got {value!r}")
        return kind[value]
    if kind in _TYPE_NAMES:
        if not isinstance(value, kind):
            raise ConfigError(f"{where}: expected {_TYPE_NAMES[kind]}, got {value!r}")
        return value
    return kind.from_dict(value)


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
