"""Error types, and the one owner of the rules of an argument and of a record's construction.

Every config number and every number, sample array or path an exported function takes is
read through ``as_real``, ``as_finite``, ``as_positive``, ``as_int``, ``as_db``, ``as_samples``,
``as_vector`` or ``as_path``, and each config object or result list one takes through
``as_instance``; the ``ConfigError`` they raise names the argument, its rule and the value.
Every record is a ``record``, whose constructor binds its arguments to its fields.
A config object's number fields are checked, and stored as what their rules return, by
``set_checked``: a numpy scalar or a ``Fraction`` becomes a Python int or float, so a float32
carrier cannot round the carrier phase and a config still writes as JSON.
"""

import dataclasses
import functools
import math
import numbers
import os

import numpy as np

# Bound on a finite dB figure (Rician K, SNR): far past any link, while
# 10 ** (x / 10) overflows near 3083 dB.
MAX_ABS_DB = 300.0


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class NoSignalError(RuntimeError):
    """No usable signal energy for the requested measurement."""


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:   # an int past Python's int-to-str digit limit
        return f"an int of {value.bit_length()} bits"


def as_real(name: str, value) -> float:
    """``value`` as a float; ConfigError for a bool, a non-real or an int past float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} must fit in a float, got {_shown(value)}") from exc


def as_finite(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float; ConfigError unless ``as_real`` takes it, finite and in [lo, hi]."""
    real = as_real(name, value)
    if not (math.isfinite(real) and lo <= real <= hi):
        raise ConfigError(f"{name} must be finite and in [{lo}, {hi}], got {_shown(value)}")
    return real


def as_positive(name: str, value) -> float:
    """``value`` as a float; ConfigError unless ``as_real`` takes it, finite and positive."""
    real = as_real(name, value)
    if not 0.0 < real < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {_shown(value)}")
    return real


def as_int(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int; ConfigError for a bool, a non-integer or a value outside [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not lo <= value <= hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {_shown(value)}")
    return int(value)


def as_db(name: str, value) -> float:
    """``value`` as a dB float; ConfigError unless a number within +-``MAX_ABS_DB`` or +inf."""
    db = as_real(name, value)
    if not (db == math.inf or abs(db) <= MAX_ABS_DB):
        raise ConfigError(f"{name} must lie within +-{MAX_ABS_DB:g} dB or be +inf, got {value!r}")
    return db


def set_checked(config, rules) -> None:
    """Set each ``(field, rule, *bounds)`` field of frozen ``config`` to what its rule returns."""
    for name, rule, *bounds in rules:
        object.__setattr__(config, name, rule(name, getattr(config, name), *bounds))


def as_path(name: str, value):
    """``value`` unchanged; ConfigError unless a str or os.PathLike, not an int (a descriptor)."""
    if not isinstance(value, (str, os.PathLike)):
        raise ConfigError(f"{name} must be a str or os.PathLike, got {_shown(value)}")
    return value


def as_instance(name: str, value, cls):
    """``value`` unchanged; ConfigError unless an instance of ``cls``, a class or a tuple of them."""
    if not isinstance(value, cls):
        kinds = " or ".join(c.__name__ for c in (cls if isinstance(cls, tuple) else (cls,)))
        raise ConfigError(f"{name} must be a {kinds}, got {_shown(value)}")
    return value


def as_samples(name: str, value, kinds: str = "iufc") -> np.ndarray:
    """``np.asarray(value)``: no copy, cast or pass over the data.  ConfigError unless
    it is non-empty and its dtype kind is in ``kinds`` ("iufc": numeric)."""
    samples = np.asarray(value)
    if samples.dtype.kind not in kinds or samples.size == 0:
        raise ConfigError(f"{name} must be a non-empty array of dtype kind in {kinds!r}, "
                          f"got {samples.size} {samples.dtype} values")
    return samples


def as_vector(name: str, value, kinds: str, max_size: float) -> np.ndarray:
    """``as_samples(name, value, kinds)``, uncopied and uncast; ConfigError unless
    it is 1-D, of at most ``max_size`` entries, all of them finite."""
    vector = as_samples(name, value, kinds)
    if vector.ndim != 1 or vector.size > max_size:
        raise ConfigError(f"{name} must be 1-D with at most {max_size} entries, "
                          f"got shape {vector.shape}")
    if not np.isfinite(vector).all():
        raise ConfigError(f"{name} must be finite, got {vector[~np.isfinite(vector)][0].item()!r}")
    return vector


def record(**options):
    """``dataclasses.dataclass(**options)``, its ``__init__`` binding the arguments to the init
    fields first (pickle and copy never call it): ConfigError for a keyword that is no field, a
    surplus positional value, a field given both ways, or one with no default given neither way."""
    def build(cls):
        cls = dataclasses.dataclass(**options)(cls)
        fields, init = [f for f in dataclasses.fields(cls) if f.init], cls.__init__
        names, keys = tuple(f.name for f in fields), {f.name for f in fields}   # once per class
        needed = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}
        @functools.wraps(init)
        def __init__(self, *args, **kwargs):
            if unknown := kwargs.keys() - keys:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            if len(args) > len(names):
                raise ConfigError(f"{len(args)} positional values for {len(names)} fields")
            if twice := kwargs.keys() & names[:len(args)]:
                raise ConfigError(f"config keys given by position and by keyword: {sorted(twice)}")
            if missing := needed.difference(kwargs, names[:len(args)]):
                raise ConfigError(f"missing config keys: {sorted(missing)}")
            init(self, *args, **kwargs)
        cls.__init__ = __init__
        return cls
    return build
