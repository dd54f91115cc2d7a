"""Multipath channel models for indoor factory scenarios.

The channel is a tapped delay line applied circularly in the frequency
domain: tap i multiplies the stream spectrum by
gain_i * exp(-j 2 pi f_c tau_i) * exp(-j 2 pi f tau_i), which realizes the
fractional delay exactly for the simulated band (no interpolation error) and
bakes the carrier-phase rotation of each path into the baseband signal.  The
transform's bins are a uniform grid, so ``ChannelRealization.response``
factors each tap's exponential into two short tables (the chirp-z
factoring): n bins cost taps * (sqrt(n) + n / sqrt(n)) exps plus a taps * n
multiply-add, where one exp per tap per bin would cost taps * n.  The
filter writes the spectrum times that response straight into FFT order, so
it holds two period-sized arrays at once.
A periodic stream (``ofdm_modulate``'s ``(n / p, p)`` view) is filtered
through the spectrum of one period, which the caller keeps, and that equals
the filter over the whole stream; the filtered period is broadcast to the
rows, and ``add_awgn`` turns that view into a flat stream: it squares the
magnitudes of one row only, into the first half of its own complex output,
copies the view in and adds the noise over flat ``STREAM_BLOCK`` slices from
one small buffer, so its output is the only stream-sized array it makes.
The sign convention is fixed here once: a delay produces a *negative* phase.
Streams are complex sample arrays; the carrier f_c and the sample rate that
spaces the frequencies f are read from the numerology passed with them.
"""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from .constants import SPEED_OF_LIGHT, STREAM_BLOCK
from .errors import (ConfigError, NoSignalError, as_db, as_finite, as_instance, as_int,
                     as_positive, as_real, as_samples, as_vector, record, set_checked)
from .waveform import NumerologyConfig

# 25 clusters x 20 rays, the largest ray count of TR 38.901's InF model;
# ``ChannelRealization.response`` costs taps * (sqrt(n) + n / sqrt(n)) exps and
# a taps * n multiply-add on n bins, so the count bounds a trial's time.
MAX_CLUTTER_TAPS = 500


@record(frozen=True)
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


@record(frozen=True)
class ScenarioProfile:
    """Statistical description of one propagation scenario.

    The numeric defaults are simulator choices sized to indoor-factory
    behaviour; every field but ``kind`` can be overridden through the harness
    config.  A field the kind does not read (``rician_k_db`` on NLOS,
    ``nlos_excess_delay_mean_s`` on LOS) is rejected rather than ignored, as
    is a value that is not a real number (a bool included) or a tap count
    outside [1, ``MAX_CLUTTER_TAPS``].  Each value is stored as the Python
    float or int its check returns.
    """

    kind: str
    rician_k_db: float | None = None          # LOS only; +inf is one direct tap, -inf refused
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
        set_checked(self, (("rms_delay_spread_s", as_positive),
                           ("n_clutter_taps", as_int, 1, MAX_CLUTTER_TAPS),
                           ("rician_k_db", as_db) if self.is_los
                           else ("nlos_excess_delay_mean_s", as_positive)))

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
    """Profile for ``kind`` with optional overrides of its other fields.  ``ScenarioProfile``
    owns the kind rule: a kind with no preset gets none here, and its constructor rejects it."""
    unknown = set(overrides) - {f.name for f in fields(ScenarioProfile) if f.name != "kind"}
    if unknown:
        raise ConfigError(f"unknown profile overrides: {sorted(unknown)}")
    preset = _PROFILE_PRESETS.get(kind, {}) if isinstance(kind, str) else {}   # a list: unhashable
    return ScenarioProfile(kind=kind, **{**preset, **overrides})


@record(frozen=True, eq=False)     # a generated == or hash over arrays is ambiguous
class ChannelRealization:
    """One drawn tapped-delay-line: tap i delays by ``delays_s[i]`` and scales by ``gains[i]``.

    ConfigError unless ``delays_s`` is a 1-D array of finite real numbers and ``gains``
    a 1-D array of finite real or complex ones, the two of one length from 1 to
    ``MAX_CLUTTER_TAPS`` + 1 (a direct tap and the clutter).  Each is stored as
    ``np.asarray`` gives it: float64 delays and complex128 gains are neither copied nor cast.
    """

    delays_s: np.ndarray      # float64
    gains: np.ndarray         # complex128

    def __post_init__(self) -> None:
        set_checked(self, (("delays_s", as_vector, "iuf", MAX_CLUTTER_TAPS + 1),
                           ("gains", as_vector, "iufc", MAX_CLUTTER_TAPS + 1)))
        if self.delays_s.size != self.gains.size:
            raise ConfigError(f"delays_s and gains must have one entry per tap, got "
                              f"{self.delays_s.size} delays and {self.gains.size} gains")

    def response(self, num: NumerologyConfig, first_bin: int, n_bins: int,
                 spacing_hz: float) -> np.ndarray:
        """Sum of g_i exp(-j 2 pi (f_c + f) tau_i) at f = (first_bin + j) * spacing_hz, j < n_bins.

        f_c is the carrier of ``num``, so ``response(num, k, 1, num.scs_hz)[0]`` has the angle
        of the noiseless carrier phase that cp and ccp measure on subcarrier k.  This is the one
        place the tap line is evaluated.  Writing j = q * B + r with B = ceil(sqrt(n_bins)),
        each tap's term is a table over q times a table over r, so the grid is a
        (ceil(n_bins / B), B) sum of outer products, reshaped and cut to ``n_bins``.
        ConfigError unless ``first_bin`` is finite, ``spacing_hz`` finite > 0, n_bins an int
        >= 1 that indexes an array, and 2 pi times f_c plus the first and the last bin's
        frequency finite, and ``num`` a NumerologyConfig.
        """
        as_instance("num", num, NumerologyConfig)
        first_bin = as_finite("first_bin", first_bin)
        block = math.isqrt(as_int("n_bins", n_bins, 1, np.iinfo(np.intp).max) - 1) + 1
        spacing_hz = as_positive("spacing_hz", spacing_hz)
        for edge in (first_bin, first_bin + n_bins - 1):
            as_finite("2 pi (f_c + f) at the grid's edges",
                      2.0 * math.pi * (num.carrier_frequency_hz + edge * spacing_hz))
        rows = -(-n_bins // block)
        tau = self.delays_s
        # The carrier's large phase is rounded once per tap, not once per bin;
        # the tables hold only phases of at most 2 pi n_bins spacing_hz tau.
        start = self.gains * np.exp(
            -2j * np.pi * (num.carrier_frequency_hz + first_bin * spacing_hz) * tau)
        hi = start * np.exp(-2j * np.pi * tau * (block * spacing_hz * np.arange(rows))[:, None])
        lo = np.exp(-2j * np.pi * tau * (spacing_hz * np.arange(block))[:, None])
        # Each (bins, taps) table is C-contiguous, so the tap sum of every bin
        # runs over adjacent memory; einsum sums in numpy's own loops: no BLAS call.
        # OpenBLAS's threads spin on after a call, against the other workers: a 60-trial
        # fr1-short-widelane run at 2 workers took about twice as long with hi @ lo.T.
        # tests/test_budgets.py::test_a_trial_leaves_no_blas_thread_spinning guards it.
        return np.einsum("qi,ri->qr", hi, lo).reshape(-1)[:n_bins]


def draw_channel(profile: ScenarioProfile, geometry: Geometry, seed: int) -> ChannelRealization:
    """Draw one tapped-delay-line realization.

    LOS: a deterministic real direct tap at the geometric delay, first, then Rayleigh
    clutter taps at exponentially distributed excess delays, mean powers
    decaying exponentially with excess delay.  The K-factor is enforced
    exactly by rescaling the clutter block.  NLOS: no direct tap; the first
    tap is pushed past the geometric delay by an exponential excess.
    Total tap power is normalized to exactly 1.  ConfigError unless ``seed``
    is an integer >= 0, ``profile`` a ScenarioProfile and ``geometry`` a Geometry.
    """
    as_instance("profile", profile, ScenarioProfile)
    as_instance("geometry", geometry, Geometry)
    rng = np.random.default_rng(as_int("seed", seed, 0))
    tau0 = geometry.true_delay_s

    if profile.is_los and profile.rician_k_db == math.inf:
        return ChannelRealization(np.array([tau0]), np.array([1.0 + 0.0j]))

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

    if direct_power > 0.0:
        delays = np.concatenate([[tau0], delays])
        gains = np.concatenate([[np.sqrt(direct_power)], gains])
    return ChannelRealization(delays, gains)


def apply_channel(spectrum: np.ndarray, rows: int, num: NumerologyConfig,
                  channel: ChannelRealization) -> np.ndarray:
    """Circularly convolve a stream of ``rows`` periods with the tapped delay line.

    ``spectrum``, read flattened, is the DFT of one period of p =
    ``spectrum.size`` samples (a whole stream is one period); delays act as
    exp(-j 2 pi (f_c + f) tau) on its bins, f_c and the sample rate from
    ``num``, so fractional delays are exact.  A periodic stream's whole-length
    spectrum is zero off that period's bins, so this is the whole-stream
    filter.  The response, on bins -(p // 2) .. p - p // 2 - 1, multiplies the
    spectrum in two halves written in FFT order: element for element
    ``spectrum * np.fft.ifftshift(response)``, without the shifted copy, and
    the response is freed before the inverse transform.  Returns the filtered
    period broadcast to ``(rows, p)``: a read-only view a caller copies to write.
    ConfigError unless ``rows`` is an integer >= 1, ``spectrum`` non-empty and numeric,
    ``num`` a NumerologyConfig and ``channel`` a ChannelRealization.
    """
    as_instance("num", num, NumerologyConfig)
    as_instance("channel", channel, ChannelRealization)
    rows, spectrum = as_int("rows", rows, 1), as_samples("spectrum", spectrum).reshape(-1)
    p, half = spectrum.size, spectrum.size // 2
    h = channel.response(num, -half, p, num.sample_rate_hz / p)
    y = np.empty(p, np.result_type(spectrum, h))
    # Spectrum first, as in spectrum * h: numpy's complex product is not bitwise commutative.
    np.multiply(spectrum[:p - half], h[half:], out=y[:p - half])
    np.multiply(spectrum[p - half:], h[:half], out=y[p - half:])
    del h
    return np.broadcast_to(np.fft.ifft(y), (rows, p))


def add_awgn(x: np.ndarray, snr_db: float, seed: int) -> np.ndarray:
    """Stream ``x``, flattened, plus circularly symmetric white noise at the given SNR.

    snr_db = +inf is the noiseless sentinel and returns a copy of ``x``.
    SNR is referenced to the mean power of the incoming samples: the mean of
    |x|^2, held in the first ``x.size`` float64s of the complex output.  A
    period view (rows of stride 0, as ``apply_channel`` returns) has one
    row's magnitudes squared and copied to the other rows, so the mean sums
    the same array in the same order as over the whole stream.  ``x`` is then
    copied into the output, read flat from there on (a wider dtype, such as
    long double, is rounded to complex128 first), and the real and then the
    imaginary noise draw are added ``STREAM_BLOCK`` samples at a time from one
    small buffer; consecutive draws from one generator are one draw, so the
    noise is that of two whole-stream draws, bit for bit.

    Raises:
        ConfigError: an SNR ``as_db`` rejects (not a number, NaN, -inf, or past
            +-``MAX_ABS_DB``), a seed not an integer >= 0, or an empty or non-numeric ``x``.
        ValueError: the mean power is not finite (a NaN or inf sample, or an overflow).
        NoSignalError: the mean power is zero.
    """
    seed = as_int("seed", seed, 0)
    x = as_samples("x", x)
    if as_db("snr_db", snr_db) == math.inf:
        return x.flatten()
    out = np.empty(x.size, dtype=np.complex128)
    squares = out.view(np.float64)[:x.size].reshape(x.shape)
    with np.errstate(over="ignore"):
        if x.ndim > 1 and x.strides[0] == 0:
            np.square(np.abs(x[:1], out=squares[:1]), out=squares[:1])
            squares[1:] = squares[:1]
        else:
            np.square(np.abs(x, out=squares), out=squares)
    power = float(np.mean(squares))
    if not math.isfinite(power):
        raise ValueError(f"signal power is {power}, not finite")
    if power == 0.0:
        raise NoSignalError("cannot scale noise against a zero-power signal")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(power / 10.0 ** (snr_db / 10.0) / 2.0)
    out.reshape(x.shape)[...] = x
    noise = np.empty(min(STREAM_BLOCK, x.size))
    for part in (out.real, out.imag):
        for lo in range(0, x.size, STREAM_BLOCK):
            block = noise[:min(STREAM_BLOCK, x.size - lo)]
            np.multiply(rng.standard_normal(out=block), scale, out=block)
            part[lo:lo + STREAM_BLOCK] += block
    return out


def doppler_ppm(speed_m_s: float) -> float:
    """Fractional Doppler shift in parts per million for a radial speed.

    ConfigError unless the speed is a finite real number >= 0.
    """
    return as_finite("speed_m_s", speed_m_s, 0) / SPEED_OF_LIGHT * 1e6
