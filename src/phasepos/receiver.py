"""Time-of-arrival and carrier-phase measurements.

There is one phase primitive, ``ccp_measure``: the derotated bin of one
subcarrier averaged over swept FFT windows.  A single window (cp) is the
same measurement with ``n_sweeps=1``.  Streams are complex sample arrays;
the numerology passed beside one gives its sample rate and FFT size.

Phase convention matches the channel: a propagation delay rotates the
received tone by a negative angle, so distance grows as the measured phase
decreases.  All reported phases are wrapped to [-pi, pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NoSignalError
from .waveform import NumerologyConfig, PrsConfig, signed_to_row


EARLY_PEAK_RATIO = 0.6     # first-arrival peak height / global correlation maximum


@dataclass(frozen=True)
class ToaMeasurement:
    toa_s: float
    peak_metric: float      # chosen peak height / global correlation maximum


@dataclass(frozen=True)
class PhaseMeasurement:
    phase_rad: float
    circular_variance: float    # 1 - |mean unit phasor|, in [0, 1]


def wrap_phase(phase: float | np.ndarray):
    """Wrap angle(s) to [-pi, pi)."""
    return (np.asarray(phase) + np.pi) % (2.0 * np.pi) - np.pi


def estimate_toa(rx: np.ndarray, num: NumerologyConfig, reference: np.ndarray) -> ToaMeasurement:
    """First-arrival TOA from the normalized circular cross-correlation.

    Lags up to half the stream duration are searched.  The earliest local
    maximum whose height reaches ``EARLY_PEAK_RATIO`` times the global
    maximum is taken as the first arrival (later, possibly stronger
    multipath is ignored), then refined with a three-point parabolic fit so
    the estimate is not pinned to the sampling grid.

    Args:
        rx: received stream.
        num: numerology of both streams; its sample rate converts lags to seconds.
        reference: clean transmitted stream, same length as ``rx``.

    Returns:
        ToaMeasurement: the refined delay in seconds, off the sampling grid,
        and the chosen peak's height relative to the global maximum.

    Raises:
        ValueError: the two streams differ in length.
        NoSignalError: no energy or no correlation peak.
    """
    n = len(rx)
    if len(reference) != n:
        raise ValueError(f"received stream has {n} samples, reference {len(reference)}")
    energy = np.linalg.norm(rx) * np.linalg.norm(reference)
    if energy == 0.0:
        raise NoSignalError("correlation input has no energy")

    cross_spectrum = np.fft.fft(rx) * np.conj(np.fft.fft(reference))
    corr = np.abs(np.fft.ifft(cross_spectrum)) / energy

    horizon = n // 2
    window = corr[:horizon + 1]
    peak_global = float(np.max(window))
    if peak_global <= 0.0:
        raise NoSignalError("correlation floor is zero over the search window")

    prev = np.roll(corr, 1)[:horizon + 1]
    nxt = np.roll(corr, -1)[:horizon + 1]
    is_peak = (window > prev) & (window >= nxt) & (window >= EARLY_PEAK_RATIO * peak_global)
    candidates = np.nonzero(is_peak)[0]
    if candidates.size == 0:
        raise NoSignalError("no correlation peak above the early-arrival threshold")
    p = int(candidates[0])

    # Refine around the chosen peak: evaluate the correlation on a 1/16-
    # sample grid straight from the cross-spectrum, then fit a parabola at
    # the fine maximum.  A three-point fit on the integer grid alone leaves
    # a bias of a few percent of a sample, which is fatal at carrier-
    # wavelength scale.  The fine lags reuse one running phase ramp instead
    # of a full lag-by-frequency matrix.
    freqs = np.fft.fftfreq(n)
    lags = p + np.arange(-16, 17) / 16.0
    ramp = cross_spectrum * np.exp(2j * np.pi * freqs * lags[0])
    step = np.exp(2j * np.pi * freqs / 16.0)
    fine = np.empty(lags.size)
    for i in range(lags.size):
        fine[i] = np.abs(ramp.sum())
        ramp *= step
    fine /= n * energy
    q = int(np.argmax(fine))
    sub = 0.0
    if 0 < q < fine.size - 1:
        c_m, c_0, c_p = fine[q - 1], fine[q], fine[q + 1]
        denom = c_m - 2.0 * c_0 + c_p
        if denom != 0.0:
            sub = float(np.clip(0.5 * (c_m - c_p) / denom, -0.5, 0.5))
    lag = float(lags[q]) + sub / 16.0
    return ToaMeasurement(lag / num.sample_rate_hz, float(corr[p] / peak_global))


def ccp_measure(rx: np.ndarray, num: NumerologyConfig, subcarrier: int,
                n_sweeps: int, shift_samples: int,
                ref_symbol: complex = 1.0 + 0.0j, window_start: int = 0,
                prs: PrsConfig | None = None) -> PhaseMeasurement:
    """Carrier phase of one subcarrier averaged over swept FFT windows.

    Places ``n_sweeps`` FFT windows ``shift_samples`` apart starting at
    ``window_start`` and returns the circular mean of the per-window phases,
    each derotated by its stream position.  ``n_sweeps=1`` is the
    single-window (cp) measurement.  ``ref_symbol`` is the known transmitted
    QPSK value on that subcarrier; it is conjugated away so the result is
    the channel phase alone.

    Derotating window ``o``'s bin by exp(-j 2 pi k o / n_fft) turns it into
    a sum over absolute stream positions, so every window is a difference
    of one prefix sum of the covered span times a fixed tone (the sliding-
    DFT identity): z(o) = C[o + n_fft] - C[o].  Integer modular arithmetic
    keeps the tone exact at large stream positions.

    Raises:
        ValueError: the sweep starts before or ends past the stream.
        ConfigError: bad sweep parameters or unoccupied subcarrier.
        NoSignalError: a window saw an empty subcarrier bin.
    """
    if n_sweeps < 1 or shift_samples < 1:
        raise ConfigError("n_sweeps and shift_samples must be positive")
    k = int(subcarrier)
    if prs is not None and signed_to_row(num, k) % prs.comb_size != prs.comb_offset:
        raise ConfigError(f"subcarrier {k} is not occupied by the configured comb")

    span = (n_sweeps - 1) * shift_samples + num.n_fft
    end = window_start + span
    if window_start < 0 or end > len(rx):
        raise ValueError(f"sweep [{window_start}, {end}) out of range "
                         f"for stream of {len(rx)} samples")
    turns = (k * np.arange(window_start, end, dtype=np.int64)) % num.n_fft
    tone = np.exp(-2j * np.pi * np.arange(num.n_fft) / num.n_fft)[turns]
    prefix = np.zeros(span + 1, dtype=np.complex128)
    np.cumsum(rx[window_start:end] * tone, out=prefix[1:])
    offsets = np.arange(n_sweeps, dtype=np.int64) * shift_samples
    z = ((prefix[offsets + num.n_fft] - prefix[offsets])
         * (np.conj(ref_symbol) / np.sqrt(num.n_fft)))

    mags = np.abs(z)
    if np.any(mags == 0.0):
        raise NoSignalError("swept window saw an empty subcarrier bin")
    mean_phasor = np.mean(z / mags)
    phase = float(wrap_phase(np.angle(mean_phasor)))
    return PhaseMeasurement(phase, float(1.0 - np.abs(mean_phasor)))
