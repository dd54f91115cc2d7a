"""Error types, and the one owner of the type, positivity and range rules of a number.

Every config number and count is read through ``as_real``, ``as_positive``,
``as_int`` or ``as_db``; the ``ConfigError`` they raise names the field, its rule
and the value.
"""

import math
import numbers

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
