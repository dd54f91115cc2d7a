"""Multipath channel models for indoor factory scenarios.

The channel is a tapped delay line applied in the frequency domain over the
whole stream: tap i multiplies the stream spectrum by
gain_i * exp(-j 2 pi f_c tau_i) * exp(-j 2 pi f tau_i), which realizes the
fractional delay exactly for the simulated band (no interpolation error) and
bakes the carrier-phase rotation of each path into the baseband signal.  The
sign convention is fixed here once: a delay produces a *negative* phase.
Streams are complex sample arrays; the carrier f_c and the sample rate that
spaces the frequencies f are read from the numerology passed with them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, NoSignalError, as_int, as_real
from .waveform import NumerologyConfig

# 25 clusters x 20 rays, the largest ray count of TR 38.901's InF model;
# ``apply_channel`` loops over the taps, so the count bounds a trial's time.
MAX_CLUTTER_TAPS = 500


@dataclass(frozen=True)
class Geometry:
    """Static transmitter/receiver placement, coordinates in metres.

    Each position is a 3-element tuple, list or array of finite real numbers,
    stored as a tuple of floats; ``ConfigError`` otherwise, or when the two
    positions coincide or their distance overflows a float.
    """

    gnb_position_m: tuple[float, float, float]
    ue_position_m: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name in ("gnb_position_m", "ue_position_m"):
            position = getattr(self, name)
            if isinstance(position, np.ndarray):
                position = position.tolist()
            if not isinstance(position, (tuple, list)) or len(position) != 3:
                raise ConfigError(f"{name} must be three coordinates, got {position!r}")
            object.__setattr__(self, name, tuple(as_real(name, v) for v in position))
        # NaN and infinite coordinates give a NaN or infinite distance.
        if not 0.0 < self.true_distance_m < math.inf:
            raise ConfigError(f"positions must be finite and distinct, got {self.gnb_position_m} "
                              f"and {self.ue_position_m}")

    @property
    def true_distance_m(self) -> float:
        return math.dist(self.ue_position_m, self.gnb_position_m)

    @property
    def true_delay_s(self) -> float:
        return self.true_distance_m / SPEED_OF_LIGHT


@dataclass(frozen=True)
class ScenarioProfile:
    """Statistical description of one propagation scenario.

    The numeric defaults are simulator choices sized to indoor-factory
    behaviour; every field but ``kind`` can be overridden through the harness
    config.  A field the kind does not read (``rician_k_db`` on NLOS,
    ``nlos_excess_delay_mean_s`` on LOS) is rejected rather than ignored, as
    is a value that is not a real number (a bool included) or a tap count
    outside [1, ``MAX_CLUTTER_TAPS``].
    """

    kind: str
    rician_k_db: float | None = None          # LOS only; +inf collapses to a single tap
    rms_delay_spread_s: float = 30e-9
    n_clutter_taps: int = 12
    nlos_excess_delay_mean_s: float | None = None   # NLOS only

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _PROFILE_PRESETS:
            raise ConfigError(f"unknown profile kind {self.kind!r}")
        if self.is_los != (self.rician_k_db is not None):
            raise ConfigError("rician_k_db is required for InF-LOS and applies to no NLOS kind")
        if self.is_los != (self.nlos_excess_delay_mean_s is None):
            raise ConfigError("nlos_excess_delay_mean_s is required for NLOS kinds and "
                              "does not apply to InF-LOS")
        if not 0 < as_real("rms_delay_spread_s", self.rms_delay_spread_s) < math.inf:
            raise ConfigError("rms_delay_spread_s must be finite and positive")
        if not 1 <= as_int("n_clutter_taps", self.n_clutter_taps) <= MAX_CLUTTER_TAPS:
            raise ConfigError(f"n_clutter_taps must be an integer in [1, {MAX_CLUTTER_TAPS}]")
        if self.is_los and math.isnan(as_real("rician_k_db", self.rician_k_db)):
            raise ConfigError("rician_k_db must not be NaN")
        excess = self.nlos_excess_delay_mean_s
        if not (self.is_los or 0 < as_real("nlos_excess_delay_mean_s", excess) < math.inf):
            raise ConfigError("nlos_excess_delay_mean_s must be finite and positive")

    @property
    def is_los(self) -> bool:
        return self.kind == "InF-LOS"


# Delay spreads grow and the direct path disappears as clutter density rises.
_PROFILE_PRESETS = {
    "InF-LOS": dict(rician_k_db=16.0, rms_delay_spread_s=30e-9, n_clutter_taps=12),
    "InF-NLOS-S": dict(rms_delay_spread_s=60e-9, n_clutter_taps=12,
                       nlos_excess_delay_mean_s=50e-9),
    "InF-NLOS-D": dict(rms_delay_spread_s=90e-9, n_clutter_taps=12,
                       nlos_excess_delay_mean_s=100e-9),
}


def profile_preset(kind: str, /, **overrides) -> ScenarioProfile:
    """Profile for ``kind`` with optional overrides of its other fields."""
    if not isinstance(kind, str) or kind not in _PROFILE_PRESETS:
        raise ConfigError(f"unknown profile kind {kind!r}")
    unknown = set(overrides) - {f.name for f in fields(ScenarioProfile) if f.name != "kind"}
    if unknown:
        raise ConfigError(f"unknown profile overrides: {sorted(unknown)}")
    params = dict(_PROFILE_PRESETS[kind])
    params.update(overrides)
    return ScenarioProfile(kind=kind, **params)


@dataclass
class ChannelRealization:
    """One drawn tapped-delay-line: (delay_s, complex gain) per tap."""

    taps: list[tuple[float, complex]]

    @property
    def first_tap_delay_s(self) -> float:
        return min(t for t, _ in self.taps)

    @property
    def total_power(self) -> float:
        return float(sum(abs(g) ** 2 for _, g in self.taps))


def draw_channel(profile: ScenarioProfile, geometry: Geometry, seed: int) -> ChannelRealization:
    """Draw one tapped-delay-line realization.

    LOS: a deterministic real direct tap at the geometric delay plus Rayleigh
    clutter taps at exponentially distributed excess delays, mean powers
    decaying exponentially with excess delay.  The K-factor is enforced
    exactly by rescaling the clutter block.  NLOS: no direct tap; the first
    tap is pushed past the geometric delay by an exponential excess.
    Total tap power is normalized to exactly 1.
    """
    rng = np.random.default_rng(seed)
    tau0 = geometry.true_delay_s

    if profile.is_los and math.isinf(profile.rician_k_db):
        return ChannelRealization([(tau0, 1.0 + 0.0j)])

    n = profile.n_clutter_taps
    if profile.is_los:
        excess = rng.exponential(profile.rms_delay_spread_s, size=n)
        k_lin = 10.0 ** (profile.rician_k_db / 10.0)
        direct_power = k_lin / (k_lin + 1.0)
        clutter_power = 1.0 / (k_lin + 1.0)
    else:
        first = rng.exponential(profile.nlos_excess_delay_mean_s)
        excess = np.concatenate([[first],
                                 first + rng.exponential(profile.rms_delay_spread_s, size=n - 1)])
        direct_power = 0.0
        clutter_power = 1.0

    delays = tau0 + np.sort(excess)
    mean_power = np.exp(-(delays - delays[0]) / profile.rms_delay_spread_s)
    gains = np.sqrt(mean_power / 2.0) * (rng.standard_normal(delays.size)
                                         + 1j * rng.standard_normal(delays.size))
    gains *= np.sqrt(clutter_power / np.sum(np.abs(gains) ** 2))

    taps = []
    if direct_power > 0.0:
        taps.append((tau0, complex(np.sqrt(direct_power))))
    taps.extend((float(t), complex(g)) for t, g in zip(delays, gains))
    return ChannelRealization(taps)


def apply_channel(x: np.ndarray, num: NumerologyConfig,
                  channel: ChannelRealization) -> np.ndarray:
    """Convolve stream ``x`` with the tapped delay line (length preserved).

    Delays are applied as exp(-j 2 pi (f_c + f) tau) over the stream's DFT,
    f_c and the sample rate from ``num``, so fractional delays are exact.
    """
    n = len(x)
    freqs = np.fft.fftfreq(n, d=1.0 / num.sample_rate_hz)
    response = np.zeros(n, dtype=np.complex128)
    for tau, gain in channel.taps:
        response += gain * np.exp(-2j * np.pi * (num.carrier_frequency_hz * tau
                                                 + freqs * tau))
    return np.fft.ifft(np.fft.fft(x) * response)


def add_awgn(x: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Stream ``x`` plus circularly symmetric white noise at the given SNR.

    snr_db = +inf is the noiseless sentinel and returns a copy of ``x``.
    SNR is referenced to the mean power of the incoming samples.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return x.copy()
    power = float(np.mean(np.abs(x) ** 2))
    if power == 0.0:
        raise NoSignalError("cannot scale noise against a zero-power signal")
    rng = np.random.default_rng(seed)
    noise_var = power / 10.0 ** (snr_db / 10.0)
    n = len(x)
    noise = np.sqrt(noise_var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return x + noise


def doppler_ppm(speed_m_s: float) -> float:
    """Fractional Doppler shift in parts per million for a radial speed."""
    if speed_m_s < 0:
        raise ValueError("speed must be nonnegative")
    return speed_m_s / SPEED_OF_LIGHT * 1e6
