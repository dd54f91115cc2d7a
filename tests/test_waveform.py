import numpy as np
import pytest

from phasepos.errors import ConfigError
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig,
                               ResourceGrid, active_signed_indices, generate_prs_grid,
                               make_numerology, middle_subcarrier, occupied_signed_indices,
                               ofdm_demodulate, ofdm_modulate,
                               signed_to_row, symbol_phase_rotation, tile_grid)

SPEED_OF_LIGHT = 299_792_458.0


def small_num(n_fft=64, n_cp=9, n_active=48, scs=15e3, fc=1e9):
    return NumerologyConfig(carrier_frequency_hz=fc, scs_hz=scs, n_fft=n_fft,
                            n_cp=n_cp, n_active_subcarriers=n_active)


def tone_grid(num, subcarrier, value, n_symbols):
    """Grid with one subcarrier carrying the same value in every symbol."""
    values = np.zeros((num.n_active_subcarriers, n_symbols), dtype=complex)
    values[signed_to_row(num, subcarrier), :] = value
    return ResourceGrid(values, num)


# ---------------------------------------------------------------- numerology

def test_fr1_parameters():
    num = make_numerology("FR1")
    assert num.carrier_frequency_hz == 3.8e9
    assert num.scs_hz == 30e3
    assert num.n_fft == 4096
    assert num.n_cp == 288
    assert num.n_active_subcarriers == 3276
    assert num.sample_rate_hz == 30_000 * 4096  # 122.88 Msps


def test_fr2_parameters():
    num = make_numerology("FR2")
    assert num.carrier_frequency_hz == 28e9
    assert num.scs_hz == 120e3
    assert num.sample_rate_hz == 120_000 * 4096  # 491.52 Msps
    assert num.n_fft == 4096 and num.n_cp == 288


def test_fr1_wavelength():
    num = make_numerology("FR1")
    assert SPEED_OF_LIGHT / num.carrier_frequency_hz == pytest.approx(0.078893, abs=5e-7)


def test_fr1_occupied_bandwidth_inside_allocation():
    num = make_numerology("FR1")
    assert num.n_active_subcarriers * num.scs_hz == pytest.approx(98.28e6)
    assert num.n_active_subcarriers * num.scs_hz <= 100e6


def test_unknown_band_rejected():
    with pytest.raises(ConfigError):
        make_numerology("FR9")


def test_active_indices_exclude_dc_and_are_centered():
    num = small_num()
    idx = active_signed_indices(num)
    assert 0 not in idx
    assert idx.min() == -24 and idx.max() == 24
    assert len(idx) == 48


# ----------------------------------------------------------------------- prs

def test_comb6_occupancy_count():
    num = make_numerology("FR1")
    prs = PrsConfig(comb_size=6, comb_offset=0, n_symbols=2, sequence_seed=3)
    grid = generate_prs_grid(prs, num)
    occupied = np.abs(grid.values[:, 0]) > 0
    assert occupied.sum() == 3276 // 6 == 546


def test_comb2_offset1_occupies_odd_rows():
    num = small_num()
    prs = PrsConfig(comb_size=2, comb_offset=1, n_symbols=1, sequence_seed=0)
    grid = generate_prs_grid(prs, num)
    rows = np.nonzero(np.abs(grid.values[:, 0]) > 0)[0]
    assert np.all(rows % 2 == 1)


def test_occupied_symbols_are_unit_qpsk():
    num = small_num()
    grid = generate_prs_grid(PrsConfig(6, 2, 3, 11), num)
    occ = grid.values[np.abs(grid.values) > 0]
    assert np.allclose(np.abs(occ), 1.0)
    # QPSK at 45/135/225/315 degrees
    quad = np.angle(occ) / (np.pi / 2) - 0.5
    assert np.allclose(quad, np.round(quad), atol=1e-12)


def test_unoccupied_entries_exactly_zero():
    num = small_num()
    grid = generate_prs_grid(PrsConfig(4, 1, 2, 5), num)
    mask = np.abs(grid.values) > 0
    assert np.all(grid.values[~mask] == 0)


def test_same_seed_same_grid():
    num = small_num()
    a = generate_prs_grid(PrsConfig(6, 0, 4, 99), num)
    b = generate_prs_grid(PrsConfig(6, 0, 4, 99), num)
    assert np.array_equal(a.values, b.values)


def test_bad_comb_rejected():
    with pytest.raises(ConfigError):
        PrsConfig(comb_size=5, comb_offset=0, n_symbols=1, sequence_seed=0)
    with pytest.raises(ConfigError):
        PrsConfig(comb_size=6, comb_offset=6, n_symbols=1, sequence_seed=0)


def test_middle_subcarrier_closest_to_dc():
    num = make_numerology("FR1")
    prs = PrsConfig(6, 0, 1, 0)
    k = middle_subcarrier(prs, num)
    occ = occupied_signed_indices(prs, num)
    assert k in occ
    assert abs(k) == np.min(np.abs(occ))


def test_signed_to_row_round_trip():
    num = small_num()
    for k in active_signed_indices(num):
        row = signed_to_row(num, int(k))
        assert 0 <= row < num.n_active_subcarriers
    with pytest.raises(ConfigError):
        signed_to_row(num, 0)
    with pytest.raises(ConfigError):
        signed_to_row(num, 25)


# ---------------------------------------------------------------- modulation

def test_stream_length():
    num = small_num()
    grid = generate_prs_grid(PrsConfig(6, 0, 5, 1), num)
    stream = ofdm_modulate(grid, CONVENTIONAL)
    assert len(stream.samples) == 5 * (num.n_fft + num.n_cp)
    assert stream.sample_rate_hz == num.sample_rate_hz
    assert stream.carrier_frequency_hz == num.carrier_frequency_hz


def test_continuous_single_tone_is_global_tone():
    # A constant symbol on one subcarrier must come out as one pure complex
    # exponential across every symbol and prefix boundary.
    num = small_num()
    k, value, n_symbols = 6, np.exp(1j * np.pi / 4), 7
    stream = ofdm_modulate(tone_grid(num, k, value, n_symbols), CONTINUOUS)
    m = np.arange(len(stream.samples))
    expected = value / np.sqrt(num.n_fft) * np.exp(2j * np.pi * k * m / num.n_fft)
    assert np.max(np.abs(stream.samples - expected)) < 1e-10


def test_conventional_single_tone_jumps_at_boundaries():
    # n_cp=9 is not a multiple of 64/6 of a cycle, so the prefix copy breaks
    # the tone's phase at some boundary.
    num = small_num()
    stream = ofdm_modulate(tone_grid(num, 6, 1.0 + 0j, 4), CONVENTIONAL)
    x = stream.samples
    steps = np.angle(x[1:] * np.conj(x[:-1]))
    expected_step = 2 * np.pi * 6 / num.n_fft
    assert np.max(np.abs(steps - expected_step)) > 1e-3


def test_continuous_rotation_identity_for_symbol_minus_one():
    num = small_num()
    assert symbol_phase_rotation(17, -1, num) == 1.0 + 0.0j


def test_rotation_unit_magnitude():
    num = make_numerology("FR1")
    for l in (0, 1, 63):
        for k in (-1638, -7, 1, 1638):
            assert abs(abs(symbol_phase_rotation(k, l, num)) - 1.0) < 1e-15


def test_demodulate_round_trip_conventional():
    num = small_num()
    prs = PrsConfig(2, 0, 3, 8)
    grid = generate_prs_grid(prs, num)
    stream = ofdm_modulate(grid, CONVENTIONAL)
    for sym in range(3):
        start = sym * num.symbol_samples + num.n_cp
        spectrum = ofdm_demodulate(stream, num, start)
        for k in occupied_signed_indices(prs, num):
            got = spectrum[int(k) % num.n_fft]
            want = grid.values[signed_to_row(num, int(k)), sym]
            assert abs(got - want) < 1e-10


def test_continuous_any_window_keeps_bin_magnitude():
    num = small_num()
    prs = PrsConfig(6, 3, 4, 21)
    grid = tile_grid(generate_prs_grid(PrsConfig(6, 3, 1, 21), num), 4)
    stream = ofdm_modulate(grid, CONTINUOUS)
    aligned = np.abs(ofdm_demodulate(stream, num, num.n_cp))
    for start in (0, 1, 13, num.n_cp + 7, 2 * num.symbol_samples + 5):
        shifted = np.abs(ofdm_demodulate(stream, num, start))
        for k in occupied_signed_indices(prs, num):
            b = int(k) % num.n_fft
            assert abs(shifted[b] - aligned[b]) < 1e-10


def test_window_out_of_bounds():
    num = small_num()
    stream = ofdm_modulate(generate_prs_grid(PrsConfig(2, 0, 1, 0), num), CONVENTIONAL)
    with pytest.raises(ValueError):
        ofdm_demodulate(stream, num, len(stream.samples) - num.n_fft + 1)
    with pytest.raises(ValueError):
        ofdm_demodulate(stream, num, -1)


@pytest.mark.parametrize("mode", [CONVENTIONAL, CONTINUOUS])
def test_mean_power_matches_occupancy(mode):
    num = small_num()
    prs = PrsConfig(6, 0, 6, 2)
    grid = generate_prs_grid(prs, num)
    stream = ofdm_modulate(grid, mode)
    occupied = num.n_active_subcarriers // prs.comb_size
    # Unitary transforms: each symbol's useful part carries exactly the
    # grid column's power.
    useful = stream.samples.reshape(-1, num.symbol_samples)[:, num.n_cp:]
    assert np.mean(np.abs(useful) ** 2) == pytest.approx(occupied / num.n_fft, rel=1e-9)
    # Prefix samples duplicate a random stretch of the useful part, so the
    # whole-stream mean only matches statistically.
    assert np.mean(np.abs(stream.samples) ** 2) == pytest.approx(
        occupied / num.n_fft, rel=0.2)


def test_modulation_deterministic():
    num = small_num()
    grid = generate_prs_grid(PrsConfig(6, 0, 3, 4), num)
    a = ofdm_modulate(grid, CONTINUOUS)
    b = ofdm_modulate(grid, CONTINUOUS)
    assert np.array_equal(a.samples, b.samples)


def test_tile_grid_repeats_first_column():
    num = small_num()
    grid = generate_prs_grid(PrsConfig(6, 0, 1, 12), num)
    tiled = tile_grid(grid, 5)
    assert tiled.values.shape == (num.n_active_subcarriers, 5)
    for col in range(5):
        assert np.array_equal(tiled.values[:, col], grid.values[:, 0])
