"""OFDM waveform generation for positioning reference signals.

Conventions used throughout:

- Transforms are unitary (scaled by 1/sqrt(n_fft) in both directions), so
  Parseval holds symmetrically and a unit QPSK pilot column carries power
  equal to the number of occupied subcarriers.
- Subcarriers are addressed by *signed* index relative to DC.  DC itself is
  never occupied; an even allocation of K active subcarriers spans
  -K/2 .. -1 and +1 .. +K/2.
- The pilot is block-type: one seeded column on every symbol.  "conventional"
  mode is plain CP-OFDM, one cyclic-prefixed symbol repeated.  "continuous"
  mode repeats the useful symbol with no prefix of its own, so every occupied
  subcarrier is one phase-continuous tone across symbol and cyclic-prefix
  boundaries.
- A stream is a plain complex ``np.ndarray``.  Its sample rate and carrier
  are those of the ``NumerologyConfig`` passed beside it, the one owner of
  both; a second carrier is a copy of the numerology, not of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

CONVENTIONAL = "conventional"
CONTINUOUS = "continuous"

_COMB_SIZES = (2, 4, 6, 12)


@dataclass(frozen=True)
class NumerologyConfig:
    """Static OFDM dimensioning for one carrier; the sample rate is scs_hz * n_fft."""

    carrier_frequency_hz: float
    scs_hz: float                 # subcarrier spacing
    n_fft: int                    # power of two
    n_cp: int                     # cyclic prefix length in samples
    n_active_subcarriers: int

    def __post_init__(self) -> None:
        if self.carrier_frequency_hz <= 0 or self.scs_hz <= 0:
            raise ConfigError("carrier frequency and subcarrier spacing must be positive")
        if self.n_fft <= 0 or (self.n_fft & (self.n_fft - 1)) != 0:
            raise ConfigError(f"n_fft must be a positive power of two, got {self.n_fft}")
        if not 0 <= self.n_cp < self.n_fft:
            raise ConfigError("n_cp must satisfy 0 <= n_cp < n_fft")
        if not 0 < self.n_active_subcarriers <= self.n_fft - 1:
            raise ConfigError("active subcarriers must fit in the FFT with DC excluded")

    @property
    def sample_rate_hz(self) -> float:
        return self.scs_hz * self.n_fft

    @property
    def symbol_samples(self) -> int:
        """Samples per OFDM symbol including the cyclic prefix."""
        return self.n_fft + self.n_cp


@dataclass(frozen=True)
class PrsConfig:
    """Comb occupancy and seeding for a positioning reference signal."""

    comb_size: int = 6
    comb_offset: int = 0
    n_symbols: int = 1
    sequence_seed: int = 0

    def __post_init__(self) -> None:
        if self.comb_size not in _COMB_SIZES:
            raise ConfigError(f"comb_size must be one of {_COMB_SIZES}")
        if not 0 <= self.comb_offset < self.comb_size:
            raise ConfigError("comb_offset must lie in [0, comb_size)")
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be positive")


def make_numerology(band: str) -> NumerologyConfig:
    """Return the preset numerology for band "FR1" or "FR2"."""
    key = band.strip().upper()
    if key == "FR1":
        return NumerologyConfig(3.8e9, 30e3, 4096, 288, 3276)
    if key == "FR2":
        return NumerologyConfig(28e9, 120e3, 4096, 288, 3276)
    raise ConfigError(f"unknown band {band!r}, expected FR1 or FR2")


def active_signed_indices(num: NumerologyConfig) -> np.ndarray:
    """Signed subcarrier indices of the active allocation, ascending, DC excluded."""
    half = num.n_active_subcarriers // 2
    neg = np.arange(-half, 0)
    pos = np.arange(1, num.n_active_subcarriers - half + 1)
    return np.concatenate([neg, pos])


def comb_rows(prs: PrsConfig, num: NumerologyConfig) -> np.ndarray:
    """Row indices (into the active allocation) occupied by the comb."""
    rows = np.arange(num.n_active_subcarriers)
    return rows[rows % prs.comb_size == prs.comb_offset]


def occupied_signed_indices(prs: PrsConfig, num: NumerologyConfig) -> np.ndarray:
    return active_signed_indices(num)[comb_rows(prs, num)]


def signed_to_row(num: NumerologyConfig, subcarrier: int) -> int:
    """Row in the active allocation holding signed ``subcarrier``."""
    half = num.n_active_subcarriers // 2
    if subcarrier == 0:
        raise ConfigError("DC is never part of the active allocation")
    row = subcarrier + half if subcarrier < 0 else half + subcarrier - 1
    if not 0 <= row < num.n_active_subcarriers:
        raise ConfigError(f"subcarrier {subcarrier} outside the active allocation")
    return row


def middle_subcarrier(prs: PrsConfig, num: NumerologyConfig) -> int:
    """Occupied signed index closest to DC.  Ties break to the positive side."""
    occ = occupied_signed_indices(prs, num)
    order = sorted(occ, key=lambda k: (abs(int(k)), k < 0))
    return int(order[0])


def generate_prs_column(prs: PrsConfig, num: NumerologyConfig) -> np.ndarray:
    """Seeded unit-magnitude QPSK on the comb, one value per active subcarrier.

    The sequence is drawn once from numpy's PCG64 generator, so a fixed
    ``sequence_seed`` reproduces the column bit for bit.
    """
    rows = comb_rows(prs, num)
    quadrants = np.random.default_rng(prs.sequence_seed).integers(0, 4, size=rows.size)
    column = np.zeros(num.n_active_subcarriers, dtype=np.complex128)
    column[rows] = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    return column


def ofdm_modulate(column: np.ndarray, num: NumerologyConfig, n_symbols: int,
                  mode: str = CONVENTIONAL) -> np.ndarray:
    """Modulate one pilot column, sent on ``n_symbols`` symbols, into a baseband stream.

    Args:
        column: frequency-domain values, one per active subcarrier.
        mode: CONVENTIONAL for plain CP-OFDM, CONTINUOUS to make each
            subcarrier a single tone across the whole stream.

    Returns:
        complex samples, n_symbols * (n_fft + n_cp) of them.
    """
    if mode not in (CONVENTIONAL, CONTINUOUS):
        raise ConfigError(f"unknown modulation mode {mode!r}")
    if n_symbols < 1:
        raise ConfigError("n_symbols must be positive")
    spectrum = np.zeros(num.n_fft, dtype=np.complex128)
    spectrum[active_signed_indices(num) % num.n_fft] = column
    useful = np.fft.ifft(spectrum) * np.sqrt(num.n_fft)
    if mode == CONVENTIONAL:
        return np.tile(np.concatenate([useful[num.n_fft - num.n_cp:], useful]), n_symbols)
    # Subcarrier k completes whole cycles in n_fft samples, so repeating the
    # useful symbol equals CP-OFDM with symbol l pre-rotated by
    # exp(+j 2 pi k (l+1) n_cp / n_fft), prefixes included.
    return np.resize(useful, n_symbols * num.symbol_samples)


def ofdm_demodulate(x: np.ndarray, num: NumerologyConfig, window_start: int) -> np.ndarray:
    """Unitary DFT of one n_fft window.  No derotation is applied here.

    Returns the full n_fft spectrum in FFT bin order; signed subcarrier k
    lives at bin k % n_fft.
    """
    if window_start < 0 or window_start + num.n_fft > len(x):
        raise ValueError(
            f"window [{window_start}, {window_start + num.n_fft}) out of range "
            f"for stream of {len(x)} samples")
    return np.fft.fft(x[window_start:window_start + num.n_fft]) / np.sqrt(num.n_fft)
