"""OFDM waveform generation for positioning reference signals.

Conventions used throughout:

- Transforms are unitary (scaled by 1/sqrt(n_fft) in both directions), so
  Parseval holds symmetrically and a unit QPSK pilot column carries power
  equal to the number of occupied subcarriers.
- Subcarriers are addressed by *signed* index relative to DC.  DC itself is
  never occupied; an even allocation of K active subcarriers spans
  -K/2 .. -1 and +1 .. +K/2.  A pilot column, like the unitary FFT of any
  n_fft window, is n_fft values in FFT-bin order: signed subcarrier k sits
  at bin k % n_fft.
- The pilot is block-type: one seeded column on every symbol.  "conventional"
  mode is plain CP-OFDM, one cyclic-prefixed symbol repeated.  "continuous"
  mode repeats the useful symbol with no prefix of its own, so every occupied
  subcarrier is one phase-continuous tone across symbol and cyclic-prefix
  boundaries.
- A stream is a plain complex ``np.ndarray``.  Its sample rate and carrier
  are those of the ``NumerologyConfig`` passed beside it, the one owner of
  both; a second carrier is a copy of the numerology, not of the samples.
- Sending one pilot column on every symbol makes both streams exactly
  periodic: conventional with one prefixed symbol, continuous with n_fft
  samples when n_fft divides n_symbols * n_cp.  ``ofdm_modulate`` returns
  a stream as its read-only ``(n / p, p)`` period view, one period held in
  memory, and the channel, noise and TOA correlator work on that period.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import (ConfigError, as_instance, as_int, as_positive, as_samples, record,
                     set_checked)

CONVENTIONAL = "conventional"
CONTINUOUS = "continuous"

_COMB_SIZES = (2, 4, 6, 12)


@record(frozen=True)
class NumerologyConfig:
    """Static OFDM dimensioning for one carrier; the sample rate is scs_hz * n_fft.

    The carrier must exceed half the sample rate, so every subcarrier sits at a
    positive frequency; ``ConfigError`` otherwise or for a malformed field.
    """

    carrier_frequency_hz: float
    scs_hz: float                 # subcarrier spacing
    n_fft: int                    # power of two
    n_cp: int                     # cyclic prefix length in samples
    n_active_subcarriers: int

    def __post_init__(self) -> None:
        set_checked(self, (("carrier_frequency_hz", as_positive), ("scs_hz", as_positive),
                           ("n_fft", as_int, 1, sys.float_info.max)))   # sample rate: a float
        if self.n_fft & (self.n_fft - 1):
            raise ConfigError(f"n_fft must be a power of two, got {self.n_fft}")
        set_checked(self, (("n_cp", as_int, 0, self.n_fft - 1),
                           ("n_active_subcarriers", as_int, 1, self.n_fft - 1)))   # DC excluded
        if not self.carrier_frequency_hz > self.sample_rate_hz / 2:
            raise ConfigError(f"carrier {self.carrier_frequency_hz:g} Hz must exceed half the "
                              f"sample rate, {self.sample_rate_hz / 2:g} Hz, so that every "
                              f"subcarrier has a positive frequency")

    @property
    def sample_rate_hz(self) -> float:
        return self.scs_hz * self.n_fft

    @property
    def symbol_samples(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.n_fft + self.n_cp


@record(frozen=True)
class PrsConfig:
    """Comb occupancy and seeding for a positioning reference signal, as checked Python ints."""

    comb_size: int = 6
    comb_offset: int = 0
    n_symbols: int = 1
    sequence_seed: int = 0

    def __post_init__(self) -> None:
        set_checked(self, (("comb_size", as_int),))
        if self.comb_size not in _COMB_SIZES:
            raise ConfigError(f"comb_size must be one of {_COMB_SIZES}, got {self.comb_size!r}")
        set_checked(self, (("comb_offset", as_int, 0, self.comb_size - 1),
                           ("n_symbols", as_int, 1), ("sequence_seed", as_int, 0)))


def make_numerology(band: str) -> NumerologyConfig:
    """Return the preset numerology for band "FR1" or "FR2", in either letter case."""
    key = band.upper() if isinstance(band, str) else band
    if key == "FR1":
        return NumerologyConfig(3.8e9, 30e3, 4096, 288, 3276)
    if key == "FR2":
        return NumerologyConfig(28e9, 120e3, 4096, 288, 3276)
    raise ConfigError(f"unknown band {band!r}, expected FR1 or FR2")


def comb_subcarriers(prs: PrsConfig, num: NumerologyConfig) -> np.ndarray:
    """Signed indices of the comb's subcarriers, ascending, DC excluded.

    The comb takes every ``comb_size``-th of the active subcarriers, counted
    from the lowest one at ``comb_offset``; the allocation's upper half
    starts at +1, so it skips DC.  ConfigError unless ``prs`` is a PrsConfig and ``num`` a
    NumerologyConfig.
    """
    as_instance("prs", prs, PrsConfig)
    as_instance("num", num, NumerologyConfig)
    half = num.n_active_subcarriers // 2
    rows = np.arange(prs.comb_offset, num.n_active_subcarriers, prs.comb_size)
    return rows - half + (rows >= half)


def middle_subcarrier(prs: PrsConfig, num: NumerologyConfig) -> int:
    """Occupied signed index closest to DC.  Ties break to the positive side."""
    return int(min(comb_subcarriers(prs, num), key=lambda k: (abs(k), k < 0)))


def generate_prs_column(prs: PrsConfig, num: NumerologyConfig) -> np.ndarray:
    """Seeded unit-magnitude QPSK on the comb, as an n_fft column in FFT-bin order.

    Signed subcarrier k sits at bin k % n_fft; every other bin is zero.  The
    sequence is drawn once from numpy's PCG64 generator, one value per comb
    subcarrier in ascending order, so a fixed ``sequence_seed`` reproduces
    the column bit for bit.
    """
    k = comb_subcarriers(prs, num)
    quadrants = np.random.default_rng(prs.sequence_seed).integers(0, 4, size=k.size)
    column = np.zeros(num.n_fft, dtype=np.complex128)
    column[k % num.n_fft] = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    return column


def ofdm_modulate(column: np.ndarray, num: NumerologyConfig, n_symbols: int,
                  mode: str = CONVENTIONAL) -> np.ndarray:
    """Modulate one pilot column, sent on ``n_symbols`` symbols, into a baseband stream.

    Args:
        column: n_fft numeric frequency-domain values in FFT-bin order;
            ConfigError for a non-numeric or empty one, ValueError for another count.
        mode: CONVENTIONAL for plain CP-OFDM, CONTINUOUS to make each
            subcarrier a single tone across the whole stream.

    Returns:
        the n = n_symbols * (n_fft + n_cp) samples as a read-only ``(n / p, p)``
        view whose rows share one period: p is one prefixed symbol
        (conventional) or n_fft (continuous) when that divides n, else n.
        A caller copies it before writing to it.
    """
    if mode not in (CONVENTIONAL, CONTINUOUS):
        raise ConfigError(f"unknown modulation mode {mode!r}")
    as_instance("num", num, NumerologyConfig)
    as_int("n_symbols", n_symbols, 1)
    column = as_samples("column", column).astype(np.complex128, copy=False)
    if column.shape != (num.n_fft,):
        raise ValueError(f"column must hold n_fft = {num.n_fft} bins, got {column.shape}")
    useful = np.fft.ifft(column) * np.sqrt(num.n_fft)
    # Conventional repeats the prefixed symbol, continuous the useful one:
    # subcarrier k completes whole cycles in n_fft samples, so that equals
    # CP-OFDM with symbol l pre-rotated by exp(+j 2 pi k (l+1) n_cp / n_fft),
    # prefixes included.
    block = (useful if mode == CONTINUOUS
             else np.concatenate([useful[num.n_fft - num.n_cp:], useful]))
    n = n_symbols * num.symbol_samples
    p = block.size if n % block.size == 0 else n
    return np.broadcast_to(np.resize(block, p), (n // p, p))
