"""Two-antenna phase interferometry for angle of arrival."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import as_positive
from .receiver import wrap_phase


@dataclass(frozen=True)
class InterferometerConfig:
    """Antenna pair: spacing and the carrier wavelength it measures at."""

    antenna_spacing_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        as_positive("antenna_spacing_m", self.antenna_spacing_m)
        as_positive("wavelength_m", self.wavelength_m)


def aoa_from_phase_diff(phase_diff_rad: float, config: InterferometerConfig) -> list[float]:
    """All arrival angles consistent with a measured phase difference.

    A plane wave from angle theta (measured from the baseline axis) arrives
    with inter-antenna phase difference 2 pi d cos(theta) / lambda; spacings
    beyond half a wavelength alias, so every integer wrap m with
    |(Delta + 2 pi m) lambda / (2 pi d)| <= 1 contributes a candidate.
    Candidates are returned ascending in angle, in [0, pi]; a phase no angle
    fits (|Delta| > 2 pi d / lambda at sub-half-wave spacing) gives [], and a
    NaN or infinite one is a ValueError.
    """
    if not math.isfinite(phase_diff_rad):
        raise ValueError(f"phase difference must be finite, got {phase_diff_rad!r}")
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
    """Forward model: wrapped phase difference seen for a plane wave."""
    delta = 2.0 * np.pi * config.antenna_spacing_m * np.cos(angle_rad) / config.wavelength_m
    return float(wrap_phase(delta))
