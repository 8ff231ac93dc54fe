"""Exception hierarchy shared across the package, and the config schema the
loaders raise ConfigError through.

Each config class is a ``Config`` dataclass, the schema of one JSON object:
it declares each key once, as a field made by ``setting`` (``from_`` for the
key ``from``).  ``Config.from_dict`` derives the unknown-key check and the
defaults from those declarations; ``Setting.check`` types and checks every
value, read from JSON or set in Python, down to a list of nested objects.
Each error names the path of the field, e.g.
``progression.edges[3].probability[7]: expected a value in [0, 1], got 1.4``.

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
    """Engine and reference oracle disagreed during an equivalence check: in
    one agent's column ``field``, or, with ``agent`` None, in the step's event
    count ``field``."""

    def __init__(self, step: int, agent: int | None, field: str, engine_value,
                 oracle_value):
        self.step = step
        self.agent = agent
        self.field = field
        self.engine_value = engine_value
        self.oracle_value = oracle_value
        where = "event count" if agent is None else f"agent {agent}, field"
        super().__init__(
            f"divergence at step {step}, {where} {field!r}: "
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
    with a ``from_dict(value, where)`` (a nested object).  ``size`` makes the
    value a list of ``kind`` entries: of that many entries, of any length for
    ``...``, or, for a tuple of names, an object with one number per name.
    A list of numbers becomes an array; a list of objects stays a list.
    ``lo`` and ``hi`` bound every number.
    """

    kind: object
    lo: float = -math.inf
    hi: float = math.inf
    size: object = None

    def check(self, value, where: str):
        """``value`` as this setting's kind, once its type, length and bounds
        hold; else a ConfigError naming ``where`` (and the entry, in a list).
        JSON and Python values are typed alike: a choice's name becomes the
        choice, and an object a nested instance; a value set in Python that
        already is one is kept, as is a list in the order of ``size``'s names."""
        names = self.size if isinstance(self.size, tuple) else ()
        if names and not isinstance(value, (list, tuple, np.ndarray)):
            value = [checked(value, names, where).get(name) for name in names]
        if self.size is None:
            value = _scalar(value, self.kind, where)
        elif not isinstance(value, (list, tuple, np.ndarray)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        else:
            value = [_scalar(v, self.kind, f"{where}.{names[i]}" if i < len(names)
                             else f"{where}[{i}]") for i, v in enumerate(value)]
        if self.size is not None and self.kind in (int, float):
            value = np.asarray(value, dtype=np.int64 if self.kind is int else np.float64)
            n = len(names) or self.size
            if n is not ... and value.shape != (n,):
                raise ConfigError(f"{where}: expected {n} entries, got shape {value.shape}")
        if names:
            for name, entry in zip(names, value):
                in_range(f"{where}.{name}", entry, self.lo, self.hi)
        elif (self.lo, self.hi) != (-math.inf, math.inf):
            in_range(where, value, self.lo, self.hi)
        return value


def setting(kind, default=MISSING, *, lo=-math.inf, hi=math.inf, size=None):
    """A ``Config`` field read from the JSON key of its name, less a trailing
    ``_`` (PEP 8's ``from_`` for the keyword ``from``); see ``Setting``.  An
    absent key takes ``default``, a fresh instance if ``default`` is a class;
    a field without one is required, and ``None`` marks an optional object."""
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
    def from_dict(cls, d, where=None):
        """An instance read from the JSON object ``d`` at ``where`` (``PATH`` by
        default), which it takes as its ``PATH`` before construction checks each
        value once, so every error, an unknown or absent key too, names its path."""
        config = cls.__new__(cls)
        object.__setattr__(config, "PATH", cls.PATH if where is None else where)
        schema = _schema(cls)
        checked(d, (*schema, *cls.NOTES), config.PATH)
        for key, f in schema.items():
            if key not in d and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{_join(config.PATH, key)}: required key missing")
        config.__init__(**{f.name: d[key] for key, f in schema.items() if key in d})
        return config

    def __post_init__(self):
        for key, f in _schema(type(self)).items():
            value = getattr(self, f.name)
            if value is not None or f.default is not None:   # None: left out, optional
                value = f.metadata["setting"].check(value, _join(self.PATH, key))
                object.__setattr__(self, f.name, value)   # frozen classes too


def _schema(cls) -> dict:
    """The ``setting`` fields of ``cls`` by JSON key: ``from_`` reads ``from``."""
    return {f.name.removesuffix("_"): f for f in fields(cls) if "setting" in f.metadata}


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


_TYPE_NAMES = {bool: "true or false", str: "a string"}


def _scalar(value, kind, where: str):
    """One value as ``kind``; an int must be whole and fit in int64."""
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
    if isinstance(kind, dict):   # a choice's name, or the choice itself
        if isinstance(value, str) and value in kind:
            return kind[value]
        if isinstance(value, str) or not isinstance(value, type(next(iter(kind.values())))):
            raise ConfigError(f"{where}: expected one of {sorted(kind)}, got {value!r}")
        return value
    if kind in _TYPE_NAMES:
        if not isinstance(value, kind):
            raise ConfigError(f"{where}: expected {_TYPE_NAMES[kind]}, got {value!r}")
        return value
    return value if isinstance(value, kind) else kind.from_dict(value, where)


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
