"""OFDM waveform generation for positioning reference signals.

Conventions used throughout:

- Transforms are unitary (scaled by 1/sqrt(n_fft) in both directions), so
  Parseval holds symmetrically and a unit QPSK grid column carries power
  equal to the number of occupied subcarriers.
- Subcarriers are addressed by *signed* index relative to DC.  DC itself is
  never occupied; an even allocation of K active subcarriers spans
  -K/2 .. -1 and +1 .. +K/2.
- "conventional" mode is plain CP-OFDM.  "continuous" mode pre-rotates
  subcarrier k of symbol l by exp(+j 2 pi k (l+1) n_cp / n_fft), which makes
  every occupied subcarrier one phase-continuous tone across symbol and
  cyclic-prefix boundaries (the prefix of symbol 0 lands on the tone as
  well: substituting l = -1 gives a rotation of exactly 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import SPEED_OF_LIGHT
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
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency_hz

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


@dataclass
class ResourceGrid:
    """Frequency-domain grid, shape [n_active_subcarriers, n_symbols]."""

    values: np.ndarray
    numerology: NumerologyConfig

    @property
    def n_symbols(self) -> int:
        return self.values.shape[1]


@dataclass
class BasebandStream:
    """Complex time-domain samples plus the physical context they carry."""

    samples: np.ndarray
    sample_rate_hz: float
    carrier_frequency_hz: float


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


def generate_prs_grid(prs: PrsConfig, num: NumerologyConfig) -> ResourceGrid:
    """Fill the comb with seeded unit-magnitude QPSK symbols.

    The sequence is drawn once from numpy's PCG64 generator, so a fixed
    ``sequence_seed`` reproduces the grid bit for bit.
    """
    rows = comb_rows(prs, num)
    rng = np.random.default_rng(prs.sequence_seed)
    quadrants = rng.integers(0, 4, size=(rows.size, prs.n_symbols))
    values = np.zeros((num.n_active_subcarriers, prs.n_symbols), dtype=np.complex128)
    values[rows, :] = np.exp(1j * (np.pi / 4 + np.pi / 2 * quadrants))
    return ResourceGrid(values, num)


def tile_grid(grid: ResourceGrid, n_symbols: int) -> ResourceGrid:
    """Repeat the first grid column across ``n_symbols`` symbols.

    A constant-per-subcarrier grid is what makes the continuous mode a true
    tone set (block-type reference signal); the harness transmits these.
    """
    if n_symbols < 1:
        raise ConfigError("n_symbols must be positive")
    col = grid.values[:, :1]
    return ResourceGrid(np.tile(col, (1, n_symbols)), grid.numerology)


def symbol_phase_rotation(subcarrier: int | np.ndarray, symbol_index: int,
                          num: NumerologyConfig) -> np.ndarray:
    """Continuous-mode rotation for ``subcarrier`` of symbol ``symbol_index``.

    Computed with integer modular arithmetic so the angle stays in one turn;
    naive k*(l+1)*n_cp/n_fft exponents lose ~1e-10 rad per 1e5 cycles, which
    would show up in the sub-nanoradian window-invariance checks.
    """
    k = np.asarray(subcarrier, dtype=np.int64)
    turns = (k * (symbol_index + 1) * num.n_cp) % num.n_fft
    return np.exp(2j * np.pi * turns / num.n_fft)


def ofdm_modulate(grid: ResourceGrid, mode: str = CONVENTIONAL) -> BasebandStream:
    """Modulate a resource grid into a cyclic-prefixed baseband stream.

    Args:
        grid: frequency-domain values, [n_active_subcarriers x n_symbols].
        mode: CONVENTIONAL for plain CP-OFDM, CONTINUOUS to apply the
            per-symbol phase rotation that stitches each subcarrier into a
            single tone across the whole stream.

    Returns:
        BasebandStream of n_symbols * (n_fft + n_cp) samples.
    """
    if mode not in (CONVENTIONAL, CONTINUOUS):
        raise ConfigError(f"unknown modulation mode {mode!r}")
    num = grid.numerology
    n_sym = grid.n_symbols
    signed = active_signed_indices(num)
    spectrum = np.zeros((num.n_fft, n_sym), dtype=np.complex128)
    spectrum[signed % num.n_fft, :] = grid.values
    if mode == CONTINUOUS:
        for l in range(n_sym):
            spectrum[signed % num.n_fft, l] *= symbol_phase_rotation(signed, l, num)
    useful = np.fft.ifft(spectrum, axis=0) * np.sqrt(num.n_fft)
    with_cp = np.concatenate([useful[-num.n_cp:, :], useful], axis=0) if num.n_cp else useful
    samples = with_cp.reshape(-1, order="F")  # symbol after symbol
    return BasebandStream(samples, num.sample_rate_hz, num.carrier_frequency_hz)


def ofdm_demodulate(stream: BasebandStream, num: NumerologyConfig,
                    window_start: int) -> np.ndarray:
    """Unitary DFT of one n_fft window.  No derotation is applied here.

    Returns the full n_fft spectrum in FFT bin order; signed subcarrier k
    lives at bin k % n_fft.
    """
    if window_start < 0 or window_start + num.n_fft > len(stream.samples):
        raise ValueError(
            f"window [{window_start}, {window_start + num.n_fft}) out of range "
            f"for stream of {len(stream.samples)} samples")
    segment = stream.samples[window_start:window_start + num.n_fft]
    return np.fft.fft(segment) / np.sqrt(num.n_fft)
