"""Integer ambiguity of a wrapped phase: carrier ranges and two-antenna angle of arrival.

Distance maps to phase through d = (N + fraction) * wavelength with
fraction = ((-phase) mod 2 pi) / 2 pi, consistent with the delay =>
negative-phase convention used by the channel and receiver.  ``ia_search``
is the one integer search, over a window in metres that widelane takes too;
``resolve`` alone decides IA failure and names its reason, with one window
rule for every mode: +- the searched wavelength around the mode's centre.
Angle of arrival lists an antenna pair's phase wraps through ``ia_search``'s ``_wraps``.
"""

from __future__ import annotations

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import as_finite, as_instance, as_int, as_positive, as_samples, record, set_checked
from .receiver import wrap_phase

IA_MODES = ("oracle", "toa", "widelane")
# An antenna pair's spacing in wavelengths.  At the top a phase has at most 2e6 + 1 angles:
# (1e3 m, 1e-3 m) lists 2,000,000 in about a second.  At the bottom the phase's wrap, to
# ulp(pi) / 2, moves an angle theta by up to 3.5e-14 / sin(theta) rad; a ratio of 0 lists none.
MIN_SPACING_WAVELENGTHS, MAX_SPACING_WAVELENGTHS = 1e-3, 1e6


@record(frozen=True)
class CarrierRange:
    """A (possibly unresolved) phase-derived range on one wavelength.

    ConfigError unless the wavelength is finite and positive, the fraction finite
    in [0, 1] (closed: widelane's beat fraction ``x % 1.0`` can round to 1.0) and
    the integer None or an int >= 0.  ``distance_m`` is (N + fraction) * wavelength
    once resolved, else None.
    """

    wavelength_m: float
    fractional_cycles: float
    integer_cycles: int | None = None
    distance_m = property(lambda self: None if self.integer_cycles is None else
                          (self.integer_cycles + self.fractional_cycles) * self.wavelength_m)

    def __post_init__(self) -> None:
        set_checked(self, (("wavelength_m", as_positive), ("fractional_cycles", as_finite, 0, 1),
                           *(() if self.integer_cycles is None
                             else (("integer_cycles", as_int, 0),))))

    def resolved(self, integer_cycles: int) -> "CarrierRange":
        return CarrierRange(self.wavelength_m, self.fractional_cycles, integer_cycles)


def phase_to_fraction(phase_rad: float, frequency_hz: float) -> CarrierRange:
    """Fractional carrier cycles implied by a measured phase.

    A pure delay tau gives phase -2 pi f tau, so the fraction of a cycle
    travelled is (-phase mod 2 pi) / 2 pi.  ConfigError unless the phase is
    finite and the frequency finite and positive.
    """
    phase_rad = as_finite("phase_rad", phase_rad)
    frequency_hz = as_positive("frequency_hz", frequency_hz)
    frac = float((-phase_rad) % (2.0 * np.pi)) / (2.0 * np.pi)
    if frac >= 1.0:    # a positive phase under half an ulp of 2 pi wraps to 2 pi
        frac -= 1.0
    return CarrierRange(SPEED_OF_LIGHT / frequency_hz, frac)


def _wraps(lo: float, hi: float) -> range:
    """The integers in [lo, hi], each end widened by 1e-12 against rounding."""
    return range(int(np.ceil(lo - 1e-12)), int(np.floor(hi + 1e-12)) + 1)


def ia_search(fraction: CarrierRange, center_m: float,
              half_width_m: float) -> CarrierRange | None:
    """Resolve the integer ambiguity inside a distance window.

    Candidates are every integer N >= 0 with (N + fraction) * wavelength
    inside [max(0, center - half_width), center + half_width]; the one whose
    distance lies closest to ``center_m`` wins, ties going to the smaller N.
    That distance is convex in N, so only floor(x) and floor(x) + 1 with
    x = center / wavelength - fraction, clipped into the window, are compared:
    time and memory do not grow with the window.  A window with no candidate
    (narrower than a wavelength and between two, e.g. under NLOS bias) gives
    None.  ConfigError unless ``fraction`` is a CarrierRange, ``center_m`` finite,
    ``half_width_m`` finite and positive, and both window edges finite in wavelengths.
    """
    as_instance("fraction", fraction, CarrierRange)
    center_m = as_finite("center_m", center_m)
    half_width_m = as_positive("half_width_m", half_width_m)
    lam = fraction.wavelength_m
    frac = fraction.fractional_cycles
    lo, hi = (as_finite("center_m +- half_width_m in wavelengths", edge / lam)
              for edge in (center_m - half_width_m, center_m + half_width_m))
    wraps = _wraps(lo - frac, hi - frac)
    n_min, n_max = max(0, wraps.start), wraps.stop - 1     # no N < 0: the window starts at 0
    if n_max < n_min:
        return None
    below = int(np.floor(center_m / lam - frac))
    pair = (min(max(n, n_min), n_max) for n in (below, below + 1))
    best = min(pair, key=lambda n: abs((n + frac) * lam - center_m))   # first on ties
    return fraction.resolved(best)


def virtual_wavelength(lambda1_m: float, lambda2_m: float) -> float:
    """Beat wavelength of two carriers: lambda1*lambda2 / |lambda2 - lambda1|.  ConfigError
    unless both are finite and positive; ValueError when they are equal."""
    lambda1_m, lambda2_m = as_positive("lambda1_m", lambda1_m), as_positive("lambda2_m", lambda2_m)
    if lambda1_m == lambda2_m:
        raise ValueError("equal wavelengths have no beat (virtual wavelength diverges)")
    return lambda1_m * lambda2_m / abs(lambda2_m - lambda1_m)


def widelane_resolve(range1: CarrierRange, range2: CarrierRange, *,
                     center_m: float) -> CarrierRange | None:
    """Two-carrier widelane resolution refined back to the finer carrier.

    The difference of the two fractional phases lives on the much longer
    beat wavelength lambda_v, where ``ia_search`` fixes the integer within
    +- lambda_v of ``center_m``.  The widelane distance then bounds a second
    integer search on the shorter carrier wavelength within +- lambda_v/4.

    Returns the refined CarrierRange on the shorter wavelength, or None when
    either search finds no candidate.  ConfigError unless both ranges are CarrierRanges,
    and as ``ia_search`` for a bad ``center_m``, one whose window edges overflow included.
    """
    as_instance("range1", range1, CarrierRange)
    as_instance("range2", range2, CarrierRange)
    lam_v = virtual_wavelength(range1.wavelength_m, range2.wavelength_m)
    fine, coarse = ((range1, range2) if range1.wavelength_m <= range2.wavelength_m
                    else (range2, range1))
    # Higher-frequency fraction minus lower-frequency fraction advances with
    # distance at the beat rate d / lambda_v.
    frac_v = (fine.fractional_cycles - coarse.fractional_cycles) % 1.0
    wide = ia_search(CarrierRange(lam_v, frac_v), center_m, lam_v)
    return None if wide is None else ia_search(fine, wide.distance_m, lam_v / 4.0)


def resolve(mode: str, fractions: list[CarrierRange], truth_m: float,
            toa_s: float | None) -> tuple[CarrierRange | None, str | None]:
    """(range, IA failure reason) of ``fractions`` (band carrier, then widelane's) under ``mode``.

    Every mode searches +- the searched wavelength (widelane's beat one) around its centre:
    the truth for the oracle, else the TOA range clamped at zero.  Only widelane's fine
    search, +- lambda_v / 4, can find no candidate (when lambda_v / 2 is under the finer
    wavelength), giving (None, "no_candidate"); else the reason is None for the integer
    nearest the truth, else "wrong_integer".  A +- lambda window always holds the integer
    nearest its centre, so the oracle never fails.  ValueError for an unknown mode.
    """
    if mode not in IA_MODES:
        raise ValueError(f"ambiguity mode must be one of {IA_MODES}, got {mode!r}")
    # A TOA range below zero (a UE next to the gNB) could leave no N >= 0 within +-lambda.
    center_m = truth_m if mode == "oracle" else max(toa_s * SPEED_OF_LIGHT, 0.0)
    resolved = (widelane_resolve(*fractions, center_m=center_m) if mode == "widelane"
                else ia_search(fractions[0], center_m, fractions[0].wavelength_m))
    if resolved is None:
        return None, "no_candidate"
    nearest = ia_search(resolved, truth_m, resolved.wavelength_m)   # on widelane's finer carrier
    return resolved, None if resolved.integer_cycles == nearest.integer_cycles else "wrong_integer"


def double_difference(phases_rad: np.ndarray) -> float:
    """Double difference over a 2x2 real phase matrix [receivers x anchors].

    (phi_A1 - phi_A2) - (phi_B1 - phi_B2), wrapped to [-pi, pi); a receiver- or
    anchor-common phase offset cancels exactly before the wrap.  ConfigError for a
    non-real matrix, ValueError for another shape or a NaN or infinite entry."""
    mat = as_samples("phases_rad", phases_rad, "iuf").astype(np.float64)
    if mat.shape != (2, 2):
        raise ValueError(f"phase matrix must be 2x2 [receivers x anchors], got {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("phase matrix contains a missing or non-finite entry")
    return float(wrap_phase((mat[0, 0] - mat[0, 1]) - (mat[1, 0] - mat[1, 1])))


@record(frozen=True)
class InterferometerConfig:
    """Antenna pair: spacing and the carrier wavelength it measures at.  ConfigError unless both
    are finite and positive and the spacing in wavelengths within ``*_SPACING_WAVELENGTHS``."""

    antenna_spacing_m: float
    wavelength_m: float

    def __post_init__(self) -> None:
        set_checked(self, (("antenna_spacing_m", as_positive), ("wavelength_m", as_positive)))
        as_finite("antenna_spacing_m / wavelength_m", self.antenna_spacing_m / self.wavelength_m,
                  MIN_SPACING_WAVELENGTHS, MAX_SPACING_WAVELENGTHS)


def aoa_from_phase_diff(phase_diff_rad: float, config: InterferometerConfig) -> list[float]:
    """All arrival angles consistent with a measured phase difference.

    A plane wave from angle theta (measured from the baseline axis) arrives with inter-antenna
    phase difference 2 pi d cos(theta) / lambda; spacings beyond half a wavelength alias, so
    every integer wrap m with |(Delta + 2 pi m) lambda / (2 pi d)| <= 1 gives a candidate.
    Candidates are returned ascending in angle, in [0, pi]; a phase no angle fits
    (|Delta| > 2 pi d / lambda at sub-half-wave spacing) gives [], and a NaN or
    infinite phase or a ``config`` of another kind is a ConfigError.
    """
    as_instance("config", config, InterferometerConfig)
    phase_diff_rad = as_finite("phase_diff_rad", phase_diff_rad)
    d, lam = config.antenna_spacing_m, config.wavelength_m
    scale = lam / (2.0 * np.pi * d)
    # cos(theta) = (Delta + 2 pi m) * scale must land in [-1, 1]
    cosines = ((phase_diff_rad + 2.0 * np.pi * m) * scale
               for m in _wraps((-1.0 / scale - phase_diff_rad) / (2.0 * np.pi),
                               (1.0 / scale - phase_diff_rad) / (2.0 * np.pi)))
    return sorted(float(np.arccos(c)) for c in cosines if -1.0 <= c <= 1.0)


def phase_diff_for_angle(angle_rad: float, config: InterferometerConfig) -> float:
    """Wrapped phase difference of a plane wave at a finite angle (ConfigError otherwise,
    or for a ``config`` of another kind)."""
    as_instance("config", config, InterferometerConfig)
    angle_rad = as_finite("angle_rad", angle_rad)
    delta = 2.0 * np.pi * config.antenna_spacing_m * np.cos(angle_rad) / config.wavelength_m
    return float(wrap_phase(delta))
