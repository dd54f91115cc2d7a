"""Error types shared across the simulator, and the one type check of a config number.

``Geometry``, ``ScenarioProfile`` and ``ScenarioConfig`` read every number
through ``as_real`` or ``as_int``, so a bool, a string or an int too large for
a float is a ``ConfigError`` whichever constructor it reaches.
"""

import numbers


class ConfigError(ValueError):
    """A configuration value is missing, unknown, or out of range."""


class NoSignalError(RuntimeError):
    """No usable signal energy for the requested measurement."""


class AmbiguityError(RuntimeError):
    """Integer-ambiguity search produced no admissible candidate."""


class InfeasibleMeasurementError(RuntimeError):
    """Measured value is inconsistent with any physical geometry."""


def as_real(name: str, value) -> float:
    """``value`` as a float; ConfigError for a bool, a non-real or an int past float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ConfigError(f"{name} is too large for a float") from exc


def as_int(name: str, value) -> int:
    """``value`` as an int; ConfigError for a bool or a non-integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)
