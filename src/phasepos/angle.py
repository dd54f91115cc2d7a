"""Two-antenna phase interferometry for angle of arrival."""

from __future__ import annotations

import numpy as np

from .errors import as_finite, as_instance, as_positive, record, set_checked
from .receiver import wrap_phase


@record(frozen=True)
class InterferometerConfig:
    """Antenna pair: spacing and the carrier wavelength it measures at."""

    antenna_spacing_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        set_checked(self, (("antenna_spacing_m", as_positive), ("wavelength_m", as_positive)))


def aoa_from_phase_diff(phase_diff_rad: float, config: InterferometerConfig) -> list[float]:
    """All arrival angles consistent with a measured phase difference.

    A plane wave from angle theta (measured from the baseline axis) arrives
    with inter-antenna phase difference 2 pi d cos(theta) / lambda; spacings
    beyond half a wavelength alias, so every integer wrap m with
    |(Delta + 2 pi m) lambda / (2 pi d)| <= 1 contributes a candidate.
    Candidates are returned ascending in angle, in [0, pi]; a phase no angle
    fits (|Delta| > 2 pi d / lambda at sub-half-wave spacing) gives [], and a
    phase ``as_finite`` rejects (a NaN or infinite one) or a ``config`` of another kind is a
    ConfigError.
    """
    as_instance("config", config, InterferometerConfig)
    phase_diff_rad = as_finite("phase_diff_rad", phase_diff_rad)
    d, lam = config.antenna_spacing_m, config.wavelength_m
    scale = lam / (2.0 * np.pi * d)
    # cos(theta) = (Delta + 2 pi m) * scale must land in [-1, 1]
    m_lo = int(np.ceil((-1.0 / scale - phase_diff_rad) / (2.0 * np.pi) - 1e-12))
    m_hi = int(np.floor((1.0 / scale - phase_diff_rad) / (2.0 * np.pi) + 1e-12))
    angles = []
    for m in range(m_lo, m_hi + 1):
        c = (phase_diff_rad + 2.0 * np.pi * m) * scale
        if -1.0 <= c <= 1.0:
            angles.append(float(np.arccos(c)))
    return sorted(angles)


def phase_diff_for_angle(angle_rad: float, config: InterferometerConfig) -> float:
    """Wrapped phase difference of a plane wave at a finite angle (ConfigError otherwise,
    or for a ``config`` of another kind)."""
    as_instance("config", config, InterferometerConfig)
    angle_rad = as_finite("angle_rad", angle_rad)
    delta = 2.0 * np.pi * config.antenna_spacing_m * np.cos(angle_rad) / config.wavelength_m
    return float(wrap_phase(delta))
