import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepos.errors import ConfigError
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig,
                               comb_subcarriers, generate_prs_column, make_numerology,
                               middle_subcarrier, ofdm_modulate)

SPEED_OF_LIGHT = 299_792_458.0


def small_num(n_fft=64, n_cp=9, n_active=48, scs=15e3, fc=1e9):
    return NumerologyConfig(carrier_frequency_hz=fc, scs_hz=scs, n_fft=n_fft,
                            n_cp=n_cp, n_active_subcarriers=n_active)


def tone_column(num, subcarrier, value):
    """Pilot column with one subcarrier carrying ``value``."""
    column = np.zeros(num.n_fft, dtype=complex)
    column[subcarrier % num.n_fft] = value
    return column


def row_based_comb(prs, num):
    """Reference: signed indices of the active allocation, ascending, at the comb's rows."""
    half = num.n_active_subcarriers // 2
    active = np.concatenate([np.arange(-half, 0),
                             np.arange(1, num.n_active_subcarriers - half + 1)])
    rows = np.arange(num.n_active_subcarriers)
    return active[rows % prs.comb_size == prs.comb_offset]


def per_symbol_reference(column, num, n_symbols, mode):
    """CP-OFDM symbol by symbol, with one IFFT each.

    In continuous mode subcarrier k of symbol l is pre-rotated by
    exp(+j 2 pi k (l+1) n_cp / n_fft), its turns reduced mod n_fft in integers;
    bin k % n_fft gives the same turns as signed k.
    """
    bins = np.arange(num.n_fft)
    symbols = []
    for l in range(n_symbols):
        spectrum = np.array(column, dtype=complex)
        if mode == CONTINUOUS:
            turns = (bins * (l + 1) * num.n_cp) % num.n_fft
            spectrum *= np.exp(2j * np.pi * turns / num.n_fft)
        useful = np.fft.ifft(spectrum) * np.sqrt(num.n_fft)
        symbols.append(np.concatenate([useful[num.n_fft - num.n_cp:], useful]))
    return np.concatenate(symbols)


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
    for band in ("FR9", 3, " FR1 "):
        with pytest.raises(ConfigError):
            make_numerology(band)


def test_active_indices_exclude_dc_and_are_centered():
    num = small_num()
    idx = np.sort(np.concatenate([comb_subcarriers(PrsConfig(2, o), num) for o in (0, 1)]))
    assert 0 not in idx
    assert idx.min() == -24 and idx.max() == 24
    assert len(idx) == 48


# ----------------------------------------------------------------------- prs

def test_comb6_occupancy_count():
    num = make_numerology("FR1")
    prs = PrsConfig(comb_size=6, comb_offset=0, n_symbols=2, sequence_seed=3)
    column = generate_prs_column(prs, num)
    assert column.shape == (num.n_fft,)
    occupied = np.abs(column) > 0
    assert occupied.sum() == 3276 // 6 == 546


def test_comb2_offset1_occupies_odd_rows():
    num = small_num()
    prs = PrsConfig(comb_size=2, comb_offset=1, n_symbols=1, sequence_seed=0)
    allocation = np.concatenate([np.arange(-24, 0), np.arange(1, 25)])   # row order
    column = generate_prs_column(prs, num)
    rows = np.nonzero(np.abs(column[allocation % num.n_fft]) > 0)[0]
    assert np.all(rows % 2 == 1)


def test_occupied_symbols_are_unit_qpsk():
    num = small_num()
    column = generate_prs_column(PrsConfig(6, 2, 3, 11), num)
    occ = column[np.abs(column) > 0]
    assert np.allclose(np.abs(occ), 1.0)
    # QPSK at 45/135/225/315 degrees
    quad = np.angle(occ) / (np.pi / 2) - 0.5
    assert np.allclose(quad, np.round(quad), atol=1e-12)


def test_unoccupied_entries_exactly_zero():
    num = small_num()
    column = generate_prs_column(PrsConfig(4, 1, 2, 5), num)
    mask = np.abs(column) > 0
    assert np.all(column[~mask] == 0)


def test_same_seed_same_grid():
    num = small_num()
    a = generate_prs_column(PrsConfig(6, 0, 4, 99), num)
    b = generate_prs_column(PrsConfig(6, 0, 4, 99), num)
    assert np.array_equal(a, b)


def test_numpy_integers_are_stored_as_python_ints():
    # An int8 comb offset once made comb_subcarriers' arange overflow on FR1.
    prs = PrsConfig(np.int64(6), np.int8(1), np.int32(4), np.uint8(99))
    assert [type(v) for v in vars(prs).values()] == [int] * 4
    num = make_numerology("FR1")
    assert np.array_equal(generate_prs_column(prs, num),
                          generate_prs_column(PrsConfig(6, 1, 4, 99), num))


def test_bad_comb_rejected():
    with pytest.raises(ConfigError):
        PrsConfig(comb_size=5, comb_offset=0, n_symbols=1, sequence_seed=0)
    with pytest.raises(ConfigError):
        PrsConfig(comb_size=6, comb_offset=6, n_symbols=1, sequence_seed=0)
    # Wrongly typed or negative numbers, each of which once built a PrsConfig.
    for args in ((6.0, 0, 1, 7), (6, 0.0, 1, 7), (6, 0, 1.5, 7), (6, 0, 1, -1), (6, 0, 1, "x")):
        with pytest.raises(ConfigError):
            PrsConfig(*args)


@pytest.mark.parametrize("changes", [
    {"fc": "3.8e9"}, {"fc": float("nan")}, {"fc": float("inf")}, {"fc": True},
    {"scs": float("nan")}, {"scs": float("inf")},
    {"n_fft": 8.0}, {"n_cp": 9.0}, {"n_active": 48.0},
    {"fc": 480e3}, {"fc": 1e3},    # at or below half the 960 kHz sample rate
    {"n_fft": 2 ** 1100},          # a power of two past float range
    {"n_fft": 100},                # no power of two
])
def test_bad_numerology_rejected(changes):
    with pytest.raises(ConfigError):
        small_num(**changes)


def test_middle_subcarrier_closest_to_dc():
    num = make_numerology("FR1")
    prs = PrsConfig(6, 0, 1, 0)
    k = middle_subcarrier(prs, num)
    occ = comb_subcarriers(prs, num)
    assert k in occ
    assert abs(k) == np.min(np.abs(occ))


@settings(max_examples=300, deadline=None)
@given(n_fft=st.sampled_from((16, 64, 128, 4096)), comb_size=st.sampled_from((2, 4, 6, 12)),
       data=st.data())
def test_comb_subcarriers_match_row_based_definition(n_fft, comb_size, data):
    n_active = data.draw(st.integers(comb_size, n_fft - 1), label="n_active")
    offset = data.draw(st.integers(0, comb_size - 1), label="comb_offset")
    num = small_num(n_fft=n_fft, n_cp=0, n_active=n_active)
    prs = PrsConfig(comb_size, offset)
    assert np.array_equal(comb_subcarriers(prs, num), row_based_comb(prs, num))


# ---------------------------------------------------------------- modulation

def test_stream_length():
    num = small_num()
    column = generate_prs_column(PrsConfig(6, 0, 5, 1), num)
    stream = ofdm_modulate(column, num, 5, CONVENTIONAL)
    assert stream.size == 5 * (num.n_fft + num.n_cp)
    assert stream.dtype == np.complex128
    with pytest.raises(ConfigError):
        ofdm_modulate(column, num, 0, CONVENTIONAL)
    with pytest.raises(ValueError):
        ofdm_modulate(column[:-1], num, 5, CONVENTIONAL)
    with pytest.raises(ConfigError):
        ofdm_modulate(column, num, 5, "bogus")


def test_continuous_single_tone_is_global_tone():
    # A constant symbol on one subcarrier must come out as one pure complex
    # exponential across every symbol and prefix boundary.
    num = small_num()
    k, value, n_symbols = 6, np.exp(1j * np.pi / 4), 7
    stream = ofdm_modulate(tone_column(num, k, value), num, n_symbols, CONTINUOUS).reshape(-1)
    m = np.arange(len(stream))
    expected = value / np.sqrt(num.n_fft) * np.exp(2j * np.pi * k * m / num.n_fft)
    assert np.max(np.abs(stream - expected)) < 1e-10


def test_conventional_single_tone_jumps_at_boundaries():
    # n_cp=9 is not a multiple of 64/6 of a cycle, so the prefix copy breaks
    # the tone's phase at some boundary.
    num = small_num()
    x = ofdm_modulate(tone_column(num, 6, 1.0 + 0j), num, 4, CONVENTIONAL).reshape(-1)
    steps = np.angle(x[1:] * np.conj(x[:-1]))
    expected_step = 2 * np.pi * 6 / num.n_fft
    assert np.max(np.abs(steps - expected_step)) > 1e-3


def test_demodulate_round_trip_conventional():
    num = small_num()
    prs = PrsConfig(2, 0, 3, 8)
    column = generate_prs_column(prs, num)
    stream = ofdm_modulate(column, num, prs.n_symbols, CONVENTIONAL).reshape(-1)
    for sym in range(prs.n_symbols):
        start = sym * num.symbol_samples + num.n_cp
        spectrum = np.fft.fft(stream[start:start + num.n_fft]) / np.sqrt(num.n_fft)
        assert np.max(np.abs(spectrum - column)) < 1e-10


def test_continuous_any_window_keeps_bin_magnitude():
    num = small_num()
    prs = PrsConfig(6, 3, 4, 21)
    stream = ofdm_modulate(generate_prs_column(prs, num), num, prs.n_symbols,
                           CONTINUOUS).reshape(-1)

    def bins(s):
        return np.abs(np.fft.fft(stream[s:s + num.n_fft]) / np.sqrt(num.n_fft))

    aligned = bins(num.n_cp)
    for start in (0, 1, 13, num.n_cp + 7, 2 * num.symbol_samples + 5):
        shifted = bins(start)
        for k in comb_subcarriers(prs, num):
            b = int(k) % num.n_fft
            assert abs(shifted[b] - aligned[b]) < 1e-10


@pytest.mark.parametrize("mode", [CONVENTIONAL, CONTINUOUS])
def test_mean_power_matches_occupancy(mode):
    num = small_num()
    prs = PrsConfig(6, 0, 6, 2)
    stream = ofdm_modulate(generate_prs_column(prs, num), num, prs.n_symbols, mode)
    occupied = num.n_active_subcarriers // prs.comb_size
    # Unitary transforms: each symbol's useful part carries exactly the
    # pilot column's power.
    useful = stream.reshape(-1, num.symbol_samples)[:, num.n_cp:]
    assert np.mean(np.abs(useful) ** 2) == pytest.approx(occupied / num.n_fft, rel=1e-9)
    # Prefix samples duplicate a random stretch of the useful part, so the
    # whole-stream mean only matches statistically.
    assert np.mean(np.abs(stream) ** 2) == pytest.approx(
        occupied / num.n_fft, rel=0.2)


def test_modulation_deterministic():
    num = small_num()
    column = generate_prs_column(PrsConfig(6, 0, 3, 4), num)
    a = ofdm_modulate(column, num, 3, CONTINUOUS)
    b = ofdm_modulate(column, num, 3, CONTINUOUS)
    assert np.array_equal(a, b)


@settings(max_examples=150, deadline=None)
@given(n_fft=st.sampled_from((64, 128)), comb_size=st.sampled_from((2, 4, 6, 12)),
       seed=st.integers(0, 2**32 - 1), n_symbols=st.integers(1, 20), data=st.data())
def test_modulator_matches_per_symbol_reference(n_fft, comb_size, seed, n_symbols, data):
    n_cp = data.draw(st.just(0) | st.integers(0, n_fft - 1), label="n_cp")
    n_active = data.draw(st.integers(comb_size, n_fft - 1), label="n_active")
    offset = data.draw(st.integers(0, comb_size - 1), label="comb_offset")
    num = small_num(n_fft=n_fft, n_cp=n_cp, n_active=n_active)
    prs = PrsConfig(comb_size, offset, n_symbols, seed)
    column = generate_prs_column(prs, num)
    assert np.count_nonzero(column) == comb_subcarriers(prs, num).size
    conv = ofdm_modulate(column, num, n_symbols, CONVENTIONAL).reshape(-1)
    assert np.array_equal(conv, per_symbol_reference(column, num, n_symbols, CONVENTIONAL))
    cont = ofdm_modulate(column, num, n_symbols, CONTINUOUS).reshape(-1)
    want = per_symbol_reference(column, num, n_symbols, CONTINUOUS)
    assert cont.shape == want.shape
    assert np.max(np.abs(cont - want)) <= 1e-12


# ------------------------------------------------------------- stream period

def scanned_period(x, num):
    """First of one symbol and n_fft samples that ``x`` repeats with exactly, else ``len(x)``."""
    for p in (num.symbol_samples, num.n_fft):
        if p < len(x) and len(x) % p == 0 and np.array_equal(x[p:], x[:-p]):
            return p
    return len(x)


@pytest.mark.parametrize("n_symbols, mode, period", [
    (128, CONVENTIONAL, 4384),      # one prefixed symbol, for any symbol count
    (128, CONTINUOUS, 4096),        # n_fft divides 128 * n_cp
    (16, CONTINUOUS, 16 * 4384),    # 70,144 samples: no whole number of n_fft periods
])
def test_stream_period_of_fr1_streams(n_symbols, mode, period):
    num = make_numerology("FR1")
    stream = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, n_symbols, 2), num), num,
                           n_symbols, mode)
    assert stream.shape == (n_symbols * num.symbol_samples // period, period)
    assert scanned_period(stream.reshape(-1), num) == period


def test_stream_period_is_exact():
    """The oracle notices one changed sample, so the property below can fail."""
    num = make_numerology("FR1")
    stream = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 8, 2), num), num, 8,
                           CONVENTIONAL).reshape(-1)
    assert scanned_period(stream, num) == num.symbol_samples
    stream[5 * num.symbol_samples + 17] += 1e-12    # one sample changed
    assert scanned_period(stream, num) == stream.size
    one_symbol = stream[:num.symbol_samples]
    assert scanned_period(one_symbol, num) == one_symbol.size


@settings(max_examples=50, deadline=None)
@given(band=st.sampled_from(["FR1", "FR2"]), mode=st.sampled_from([CONVENTIONAL, CONTINUOUS]),
       # n_fft divides the continuous stream only at multiples of 128 symbols.
       n_symbols=st.integers(1, 300) | st.sampled_from((128, 256)),
       comb_size=st.sampled_from((2, 4, 6, 12)), seed=st.integers(0, 2 ** 32 - 1),
       data=st.data())
def test_stream_is_its_scanned_period_view(band, mode, n_symbols, comb_size, seed, data):
    num = make_numerology(band)
    offset = data.draw(st.integers(0, comb_size - 1), label="comb_offset")
    column = generate_prs_column(PrsConfig(comb_size, offset, n_symbols, seed), num)
    stream = ofdm_modulate(column, num, n_symbols, mode)
    assert not stream.flags.writeable and stream.strides[0] == 0
    flat = stream.reshape(-1)
    assert stream.shape[1] == scanned_period(flat, num)
    want = per_symbol_reference(column, num, n_symbols, mode)
    if mode == CONVENTIONAL:
        assert np.array_equal(flat, want)
    else:
        assert flat.shape == want.shape
        assert np.max(np.abs(flat - want)) <= 1e-12
