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

import numpy as np

from .constants import STREAM_BLOCK
from .errors import (ConfigError, NoSignalError, as_instance, as_int, as_positive, as_samples,
                     record)
from .waveform import NumerologyConfig


EARLY_PEAK_RATIO = 0.6     # first-arrival peak height / global correlation maximum


@record(frozen=True)
class ToaMeasurement:
    toa_s: float
    peak_metric: float      # chosen peak height / global correlation maximum


@record(frozen=True)
class PhaseMeasurement:
    phase_rad: float
    circular_variance: float    # 1 - |mean unit phasor|, clamped into [0, 1] against rounding


def wrap_phase(phase: float | np.ndarray):
    """Wrap angle(s) to [-pi, pi), NaN for a NaN or inf; ConfigError unless real and non-empty.
    A phase already in [-pi, pi) comes back exact, not rounded to ulp(pi) by the wrap."""
    p = as_samples("phase", phase, "iuf")
    with np.errstate(invalid="ignore"):     # an inf phase gives NaN, as a NaN one does
        return np.where((p >= -np.pi) & (p < np.pi), p, (p + np.pi) % (2.0 * np.pi) - np.pi)[()]


def estimate_toa(rx: np.ndarray, num: NumerologyConfig,
                 reference_spectrum: np.ndarray) -> ToaMeasurement:
    """First-arrival TOA from the circular cross-correlation.

    The reference, never the noisy ``rx``, gives the period p: the length of
    ``reference_spectrum``, the DFT of one period of the clean stream (one
    row of ``ofdm_modulate``'s ``(n / p, p)`` period view; a whole stream is
    one period, p = n).  The reference's n-point spectrum is zero off every
    (n / p)-th bin, and on those bins the received spectrum is the p-point
    DFT of ``rx`` folded into one period (its n / p periods summed).  The
    correlation is then p-periodic and is computed on p points; lags up to
    one period, or half the stream if that is shorter, are searched.  The
    earliest local maximum whose height reaches ``EARLY_PEAK_RATIO`` times
    the global maximum is taken as the first arrival (later, possibly
    stronger multipath is ignored), then refined with a three-point
    parabolic fit so the estimate is not pinned to the sampling grid.

    Args:
        rx: received stream, of any shape.
        num: numerology of both streams; its sample rate converts lags to seconds.
        reference_spectrum: DFT of one period of the clean sent stream, read flattened.

    Returns:
        ToaMeasurement: the refined delay in seconds, off the sampling grid,
        and the chosen peak's height relative to the global maximum.

    Raises:
        ConfigError: ``rx`` or ``reference_spectrum`` is not a non-empty numeric array,
            ``num`` no NumerologyConfig, or their cross spectrum not finite (a NaN or inf sample).
        ValueError: ``rx`` is not a whole number of periods.
        NoSignalError: no correlation peak (an all-zero correlation has none).
    """
    as_instance("num", num, NumerologyConfig)
    rx, ref = as_samples("rx", rx), as_samples("reference_spectrum", reference_spectrum)
    n, p = rx.size, ref.size
    if n % p:
        raise ValueError(f"{n} received samples are no whole number of {p}-sample periods")
    with np.errstate(invalid="ignore", over="ignore"):     # a NaN or inf is refused below
        cross_spectrum = np.fft.fft(rx.reshape(-1, p).sum(axis=0)) * np.conj(ref.reshape(-1))
    if not np.isfinite(cross_spectrum).all():
        raise ConfigError("rx and reference_spectrum must give a finite cross spectrum")
    corr = np.abs(np.fft.ifft(cross_spectrum))

    horizon = min(n // 2, p - 1)
    window = corr[:horizon + 1]
    peak_global = float(np.max(window))
    prev = np.roll(corr, 1)[:horizon + 1]
    nxt = np.roll(corr, -1)[:horizon + 1]
    is_peak = (window > prev) & (window >= nxt) & (window >= EARLY_PEAK_RATIO * peak_global)
    candidates = np.nonzero(is_peak)[0]
    if candidates.size == 0:
        raise NoSignalError("no correlation peak above the early-arrival threshold")
    peak = int(candidates[0])

    # Refine around the chosen peak: evaluate the correlation on a 1/16-
    # sample grid straight from the cross-spectrum, then fit a parabola at
    # the fine maximum.  A three-point fit on the integer grid alone leaves
    # a bias of a few percent of a sample, which is fatal at carrier-
    # wavelength scale.  The fine lags reuse one running phase ramp instead
    # of a full lag-by-frequency matrix.
    freqs = np.fft.fftfreq(p)
    lags = peak + np.arange(-16, 17) / 16.0
    ramp = cross_spectrum * np.exp(2j * np.pi * freqs * lags[0])
    step = np.exp(2j * np.pi * freqs / 16.0)
    fine = np.empty(lags.size)
    for i in range(lags.size):
        fine[i] = np.abs(ramp.sum())
        ramp *= step
    q = int(np.argmax(fine))
    sub = 0.0
    if 0 < q < fine.size - 1:
        c_m, c_0, c_p = fine[q - 1], fine[q], fine[q + 1]
        denom = c_m - 2.0 * c_0 + c_p
        if denom != 0.0:
            sub = float(np.clip(0.5 * (c_m - c_p) / denom, -0.5, 0.5))
    lag = float(lags[q]) + sub / 16.0
    return ToaMeasurement(lag / num.sample_rate_hz, float(corr[peak] / peak_global))


def ccp_measure(rx: np.ndarray, num: NumerologyConfig, subcarrier: int,
                n_sweeps: int, shift_samples: int,
                ref_symbol: complex = 1.0 + 0.0j, window_start: int = 0) -> PhaseMeasurement:
    """Carrier phase of one subcarrier averaged over swept FFT windows.

    Places ``n_sweeps`` FFT windows ``shift_samples`` apart from ``window_start`` and
    returns the circular mean of the per-window phases, each derotated by its stream
    position; ``n_sweeps=1`` is the single-window (cp) measurement.  The known QPSK value
    ``ref_symbol`` on that subcarrier is conjugated away: the result is the channel phase.

    Derotating window ``o``'s bin by exp(-j 2 pi k o / n_fft) turns it into a
    sum over absolute stream positions, so every window is a difference of one
    prefix sum of the covered span times a fixed tone (the sliding-DFT
    identity): z(o) = C[o + n_fft] - C[o].  Integer modular arithmetic keeps
    the tone exact at large stream positions.  The prefix sum runs over blocks
    of about ``STREAM_BLOCK`` samples, each seeded with the last sum before it
    (the additions of one ``np.cumsum``, in its order), and keeps only the C
    entries the windows read: a sweep costs one pass over its span whatever its window
    count, and memory grows with the block and ``n_sweeps``, not with the span.  ``rx`` is
    read flattened (a period view is copied once).

    Raises:
        ValueError: the sweep ends past the stream.
        ConfigError: ``rx`` empty, non-numeric or summing to a non-finite bin (a NaN or inf
            sample in the sweep), ``ref_symbol`` not one finite non-zero number, ``num`` no
            NumerologyConfig, ``subcarrier`` outside the allocation, or a bad sweep.
        NoSignalError: a window's bin is at most eps span sqrt(n_fft) |ref_symbol| a, for a the
            largest |rx| of the first window (at most the span's).  That bounds what rounding
            leaves of a subcarrier the stream does not carry: it sums to zero over any n_fft
            samples, so each exact C is at most n_fft a, and each of the at most ``span``
            additions behind a computed C rounds by at most eps / 2 of that.
    """
    as_instance("num", num, NumerologyConfig)
    rx = as_samples("rx", rx).reshape(-1)
    as_int("n_sweeps", n_sweeps, 1)
    as_int("shift_samples", shift_samples, 1)
    as_int("window_start", window_start, 0)
    half = num.n_active_subcarriers // 2
    k = as_int("subcarrier", subcarrier, -half, half)    # inside the allocation: no alias
    if (ref := np.asarray(ref_symbol)).ndim:    # a list or an array, not one number
        raise ConfigError(f"ref_symbol must be one finite non-zero number, got shape {ref.shape}")
    ref_abs = as_positive("|ref_symbol|", abs(as_samples("ref_symbol", ref).item()))
    n_fft = num.n_fft
    span = (n_sweeps - 1) * shift_samples + n_fft
    if window_start + span > rx.size:
        raise ValueError(f"sweep [{window_start}, {window_start + span}) out of range "
                         f"for stream of {rx.size} samples")
    # The tone exp(-j 2 pi (k t mod n_fft) / n_fft) repeats every n_fft positions t, and each
    # block starts on a multiple of n_fft: one row multiplies a block's whole rows, then its tail.
    turns = (k * np.arange(window_start, window_start + n_fft, dtype=np.int64)) % n_fft
    tone = np.exp(-2j * np.pi * turns / n_fft)
    block = max(STREAM_BLOCK // n_fft, 1) * n_fft
    sums = np.empty(min(block, span), dtype=np.complex128)
    picked = np.zeros((2, n_sweeps), dtype=np.complex128)   # C[j shift], C[j shift + n_fft]
    with np.errstate(invalid="ignore", over="ignore"):     # a NaN or inf is refused below
        for lo in range(0, span, block):
            hi = min(lo + block, span)
            covered = rx[window_start + lo:window_start + hi]
            part, cut = sums[:hi - lo], (hi - lo) - (hi - lo) % n_fft
            np.multiply(covered[:cut].reshape(-1, n_fft), tone, out=part[:cut].reshape(-1, n_fft))
            np.multiply(covered[cut:], tone[:hi - lo - cut], out=part[cut:])
            if lo:
                part[0] += carry    # C[lo], the previous block's last sum
            np.cumsum(part, out=part)
            carry = part[-1]
            for value, base in zip(picked, (0, n_fft)):    # C[i], lo < i <= hi: part[i - lo - 1]
                a = max((lo - base) // shift_samples + 1, 0)   # window j reads i = j shift + base
                b = min((hi - base) // shift_samples + 1, n_sweeps)
                if a < b:
                    value[a:b] = part[a * shift_samples + base - lo - 1::shift_samples][:b - a]
        z = (picked[1] - picked[0]) * (np.conj(ref) / np.sqrt(n_fft))
    if not np.isfinite(z).all():     # a NaN or inf read makes every later prefix sum one
        raise ConfigError("rx must be finite and sum to finite window bins")
    peak = np.abs(rx[window_start:window_start + n_fft]).max()
    if (mags := np.abs(z)).min() <= np.finfo(float).eps * span * np.sqrt(n_fft) * ref_abs * peak:
        raise NoSignalError("swept window saw an empty subcarrier bin")
    # |z| = m 2^e with m in [0.5, 1): z 2^-e is exact, so z 2^-e / m has the bits of z / |z|
    # (each multiplies by its divisor's reciprocal), and no reciprocal of a subnormal overflows.
    exps = np.frexp(mags, out=(mags, np.empty(mags.shape, np.intc)))[1]
    parts = z.view(np.float64).reshape(-1, 2)     # each window's real and imaginary part
    np.ldexp(parts, -exps[:, None], out=parts)
    mean_phasor = np.mean(np.divide(z, mags, out=z))
    phase = float(wrap_phase(np.angle(mean_phasor)))
    return PhaseMeasurement(phase, max(0.0, float(1.0 - np.abs(mean_phasor))))
