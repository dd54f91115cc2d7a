"""Error types, and the one owner of the rules of a number or a sample-array argument.

Every config number and every number or sample array an exported function takes
is read through ``as_real``, ``as_finite``, ``as_positive``, ``as_int``, ``as_db``,
``as_samples`` or ``as_vector``; the ``ConfigError`` they raise names the argument,
its rule and the value.
A config object's number fields are checked, and stored as what their rules return, by
``set_checked``: a numpy scalar or a ``Fraction`` becomes a Python int or float.
"""

import math
import numbers

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
