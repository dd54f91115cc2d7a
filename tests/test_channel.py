import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepos.channel import (ChannelRealization, Geometry, ScenarioProfile, add_awgn,
                              apply_channel, doppler_ppm, draw_channel, profile_preset)
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.errors import ConfigError, NoSignalError
from phasepos.harness import ScenarioConfig, _Assets
from phasepos.receiver import ccp_measure
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, PrsConfig, generate_prs_column,
                               make_numerology, middle_subcarrier, ofdm_modulate)

GNB = (100.0, 100.0, 15.0)
UE = (120.0, 100.0, 1.5)
NUM = make_numerology("FR1")      # 122.88 MHz sampling on a 3.8 GHz carrier


def make_stream(n=4096, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)


# ------------------------------------------------------------------ geometry

def test_reference_geometry_distance():
    geo = Geometry(GNB, UE)
    assert geo.true_distance_m == pytest.approx(math.sqrt(20.0 ** 2 + 13.5 ** 2), rel=1e-12)
    assert geo.true_distance_m == pytest.approx(24.1299, abs=5e-5)


def test_unit_displacement():
    assert Geometry((0, 0, 0), (1, 0, 0)).true_distance_m == 1.0


def test_coincident_positions_rejected():
    with pytest.raises(ValueError):
        Geometry((0, 0, 0), (0, 0, 0))


def test_positions_stored_as_tuples_of_floats():
    geo = Geometry(np.zeros(3), [3, 4, 0])
    assert geo == Geometry((0.0, 0.0, 0.0), (3.0, 4.0, 0.0))
    assert all(type(v) is float for v in geo.gnb_position_m + geo.ue_position_m)
    assert geo.true_distance_m == 5.0


@pytest.mark.parametrize("gnb,ue", [
    ((0, 0), (3, 4)),                          # 2-D
    ((0, 0, 0), (3, 4, 0, 1)),
    (("a", 0, 0), (1, 1, 1)),
    ((0, 0, 0), (True, 0, 0)),
    ((0, 0, 0), (float("nan"), 0, 0)),
    ((0, 0, 0), (float("inf"), 0, 0)),
    ((float("inf"), 0, 0), (float("inf"), 0, 0)),
    ((0, 0, 0), (10 ** 400, 0, 0)),
    ((0, 0, -1.7e308), (0, 0, 1.7e308)),      # finite positions, distance overflows
    ((0, 0, 0), np.array(5.0)),
    ((0, 0, 0), np.ones((3, 1))),
    ((0, 0, 0), "abc"),
    ((0, 0, 0), None),
])
def test_malformed_positions_rejected(gnb, ue):
    with pytest.raises(ConfigError):
        Geometry(gnb, ue)


def test_true_delay():
    geo = Geometry(GNB, UE)
    assert geo.true_delay_s == pytest.approx(geo.true_distance_m / SPEED_OF_LIGHT, rel=1e-12)
    assert geo.true_delay_s == pytest.approx(80.49e-9, abs=5e-12)


# ------------------------------------------------------------------ profiles

def test_profile_presets_well_formed():
    for kind in ("InF-LOS", "InF-NLOS-S", "InF-NLOS-D"):
        p = profile_preset(kind)
        assert p.kind == kind
        assert p.is_los == (kind == "InF-LOS")


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        profile_preset("InF-XXL")


def test_los_requires_k_factor():
    with pytest.raises(ConfigError):
        ScenarioProfile(kind="InF-LOS")


def test_nlos_requires_excess_delay():
    with pytest.raises(ConfigError):
        ScenarioProfile(kind="InF-NLOS-S")


# -------------------------------------------------------------- draw_channel

def test_pure_los_limit_single_tap():
    geo = Geometry(GNB, UE)
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 3)
    assert ch.delays_s.tolist() == [geo.true_delay_s]
    assert ch.gains.tolist() == [1.0 + 0.0j]


@pytest.mark.parametrize("k_db", [-300.0, 300.0])
def test_rician_k_bound_is_inclusive(k_db):
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=k_db), Geometry(GNB, UE), 3)
    assert np.sum(np.abs(ch.gains) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_los_earliest_tap_at_geometric_delay():
    geo = Geometry(GNB, UE)
    for seed in range(20):
        ch = draw_channel(profile_preset("InF-LOS"), geo, seed)
        first = ch.delays_s.min()
        assert first == pytest.approx(geo.true_delay_s, rel=1e-12)
        assert first == pytest.approx(80.49e-9, abs=5e-12)


def test_tap_power_normalized():
    geo = Geometry(GNB, UE)
    for kind in ("InF-LOS", "InF-NLOS-S", "InF-NLOS-D"):
        for seed in range(25):
            ch = draw_channel(profile_preset(kind), geo, seed)
            assert np.sum(np.abs(ch.gains) ** 2) == pytest.approx(1.0, abs=1e-9)


def test_rician_k_enforced_exactly():
    geo = Geometry(GNB, UE)
    profile = profile_preset("InF-LOS", rician_k_db=16.0)
    for seed in range(10):
        ch = draw_channel(profile, geo, seed)
        is_direct = ch.delays_s == geo.true_delay_s
        assert np.count_nonzero(is_direct) == 1
        power = np.abs(ch.gains) ** 2
        ratio = np.sum(power[is_direct]) / np.sum(power[~is_direct])
        assert ratio == pytest.approx(10.0 ** 1.6, rel=1e-9)


def test_nlos_strictly_delays_many_seeds():
    geo = Geometry(GNB, UE)
    tau0 = geo.true_delay_s
    for kind in ("InF-NLOS-S", "InF-NLOS-D"):
        profile = profile_preset(kind)
        for seed in range(5000):
            ch = draw_channel(profile, geo, seed)
            assert ch.delays_s.min() > tau0


def test_channel_deterministic_per_seed():
    geo = Geometry(GNB, UE)
    a = draw_channel(profile_preset("InF-LOS"), geo, 77)
    b = draw_channel(profile_preset("InF-LOS"), geo, 77)
    assert np.array_equal(a.delays_s, b.delays_s)
    assert np.array_equal(a.gains, b.gains)


# ------------------------------------------------------------- apply_channel

def test_identity_channel():
    tx = make_stream()
    ch = ChannelRealization(np.array([0.0]), np.array([1.0 + 0.0j]))
    rx = apply_channel(np.fft.fft(tx), 1, NUM, ch)
    assert np.max(np.abs(rx - tx)) < 1e-12


def test_integer_sample_delay_is_circular_shift():
    tx = make_stream()
    d_samples = 9
    tau = d_samples / NUM.sample_rate_hz
    ch = ChannelRealization(np.array([tau]), np.array([1.0 + 0.0j]))
    rx = apply_channel(np.fft.fft(tx), 1, NUM, ch)
    expected = np.roll(tx, d_samples) * np.exp(-2j * np.pi * NUM.carrier_frequency_hz * tau)
    assert np.max(np.abs(rx - expected)) < 1e-10


def test_superposition_over_taps():
    tx = make_stream(n=2048)
    ch1 = ChannelRealization(np.array([5e-9]), np.array([0.8 + 0.1j]))
    ch2 = ChannelRealization(np.array([40e-9]), np.array([-0.3 + 0.5j]))
    both = ChannelRealization(np.array([5e-9, 40e-9]), np.array([0.8 + 0.1j, -0.3 + 0.5j]))
    spectrum = np.fft.fft(tx)
    lhs = apply_channel(spectrum, 1, NUM, both)
    rhs = apply_channel(spectrum, 1, NUM, ch1) + apply_channel(spectrum, 1, NUM, ch2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def dense_channel(x, num, ch):
    """The tapped delay line over the whole stream's DFT."""
    n = len(x)
    return np.fft.ifft(np.fft.fft(x) * np.fft.ifftshift(ch.response(num, -(n // 2), n,
                                                                   num.sample_rate_hz / n)))


@pytest.mark.parametrize("n_symbols, mode, periodic", [
    (128, CONVENTIONAL, True), (128, CONTINUOUS, True),
    (16, CONTINUOUS, False),    # 70,144 samples: no whole number of n_fft periods
    (16, CONVENTIONAL, True),
])
def test_apply_channel_matches_dense_transform(n_symbols, mode, periodic):
    tx = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, n_symbols, 7), NUM), NUM,
                       n_symbols, mode)
    ch = draw_channel(profile_preset("InF-NLOS-S"), Geometry(GNB, UE), 4)
    rx = apply_channel(np.fft.fft(tx[0]), len(tx), NUM, ch).reshape(-1)
    dense = dense_channel(tx.reshape(-1), NUM, ch)
    if periodic:
        rms = np.sqrt(np.mean(np.abs(tx) ** 2))
        assert np.max(np.abs(rx - dense)) <= 1e-12 * rms
    else:
        assert np.array_equal(rx, dense)


def test_apply_channel_on_an_aperiodic_stream_is_the_dense_transform():
    ch = draw_channel(profile_preset("InF-LOS"), Geometry(GNB, UE), 2)
    tx = np.tile(make_stream(NUM.symbol_samples), 4)
    tx[5000] += 1.0     # one changed sample breaks the one-symbol period
    for x in (make_stream(), tx):
        rx = apply_channel(np.fft.fft(x), 1, NUM, ch)[0]
        assert np.array_equal(rx, dense_channel(x, NUM, ch))


def test_apply_channel_broadcasts_a_period_view_and_filters_a_1d_stream_whole():
    ch = draw_channel(profile_preset("InF-LOS"), Geometry(GNB, UE), 2)
    tx = np.tile(make_stream(NUM.symbol_samples), 4)
    view = apply_channel(np.fft.fft(tx[:NUM.symbol_samples]), 4, NUM, ch)
    assert view.shape == (4, NUM.symbol_samples) and view.strides[0] == 0
    assert not view.flags.writeable
    for x in (tx, make_stream()):       # periodic and aperiodic whole streams: one period each
        rx = apply_channel(np.fft.fft(x), 1, NUM, ch)
        assert rx.shape == (1, x.size) and not rx.flags.writeable
        assert np.array_equal(rx[0], dense_channel(x, NUM, ch))


@pytest.mark.parametrize("rows", [0, -1, 2.5, True, None, "2"])
def test_apply_channel_rejects_a_row_count_that_is_not_a_positive_integer(rows):
    ch = ChannelRealization(np.array([0.0]), np.array([1.0 + 0.0j]))
    with pytest.raises(ConfigError, match=r"^rows must be an integer in \[1, inf\], got "):
        apply_channel(np.fft.fft(make_stream()), rows, NUM, ch)


def test_apply_channel_rejects_an_empty_spectrum():
    ch = ChannelRealization(np.array([0.0]), np.array([1.0 + 0.0j]))
    with pytest.raises(ValueError, match="empty"):
        apply_channel(np.array([], dtype=complex), 1, NUM, ch)


def loop_response(ch, num, first_bin, n_bins, spacing_hz):
    """The tap line with one exp per tap per bin, each phase in turns reduced in long double."""
    ld = np.longdouble
    bins = np.arange(first_bin, first_bin + n_bins).astype(ld)
    f = ld(num.carrier_frequency_hz) + bins * ld(spacing_hz)
    out = np.zeros(n_bins, dtype=complex)
    for tau, gain in zip(ch.delays_s.astype(ld), ch.gains):
        turns = f * tau
        out += gain * np.exp(-2j * np.pi * (turns - np.round(turns)).astype(float))
    return out


PROFILE_KINDS = ["InF-LOS", "InF-NLOS-S", "InF-NLOS-D"]


@settings(max_examples=100, deadline=None)
@given(band=st.sampled_from(["FR1", "FR2"]), kind=st.sampled_from(PROFILE_KINDS),
       seed=st.integers(0, 2 ** 32 - 1), n_bins=st.integers(1, 20_000),
       grid=st.sampled_from(["transform", "subcarrier"]), data=st.data())
def test_response_matches_per_tap_loop(band, kind, seed, n_bins, grid, data):
    num = make_numerology(band)
    if grid == "transform":         # apply_channel's bins: a DFT of n_bins points
        first_bin, spacing_hz = -(n_bins // 2), num.sample_rate_hz / n_bins
    else:
        first_bin = data.draw(st.integers(-num.n_fft, num.n_fft), label="first_bin")
        spacing_hz = num.scs_hz
    ch = draw_channel(profile_preset(kind), Geometry(GNB, UE), seed)
    got = ch.response(num, first_bin, n_bins, spacing_hz)
    assert got.shape == (n_bins,)
    # Relative to sum |g_i|, the largest |H| can be.
    err = np.max(np.abs(got - loop_response(ch, num, first_bin, n_bins, spacing_hz)))
    assert err <= 2e-11 * np.sum(np.abs(ch.gains))


@settings(max_examples=10, deadline=None)
@given(band=st.sampled_from(["FR1", "FR2"]), mode=st.sampled_from([CONVENTIONAL, CONTINUOUS]),
       kind=st.sampled_from(PROFILE_KINDS), n_symbols=st.integers(2, 300),
       seed=st.integers(0, 2 ** 32 - 1))
def test_apply_channel_matches_dense_transform_property(band, mode, kind, n_symbols, seed):
    num = make_numerology(band)
    tx = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, n_symbols, seed), num), num,
                       n_symbols, mode)
    ch = draw_channel(profile_preset(kind), Geometry(GNB, UE), seed)
    rx = apply_channel(np.fft.fft(tx[0]), len(tx), num, ch).reshape(-1)
    dense = dense_channel(tx.reshape(-1), num, ch)
    assert np.max(np.abs(rx - dense)) <= 1e-12 * np.sqrt(np.mean(np.abs(tx) ** 2))


@pytest.mark.parametrize("kind", ["InF-LOS", "InF-NLOS-S"])
def test_response_is_the_noiseless_carrier_phase(kind):
    # At 128 symbols the continuous stream is n_fft-periodic, so the circular
    # channel scales each subcarrier's tone by exactly the tap response there.
    prs = PrsConfig(6, 0, 128, 7)
    column = generate_prs_column(prs, NUM)
    tx = ofdm_modulate(column, NUM, prs.n_symbols, CONTINUOUS)
    k = middle_subcarrier(prs, NUM)
    for seed in range(3):
        ch = draw_channel(profile_preset(kind), Geometry(GNB, UE), seed)
        rx = apply_channel(np.fft.fft(tx[0]), len(tx), NUM, ch)
        phase = ccp_measure(rx, NUM, k, 1, 1, complex(column[k % NUM.n_fft]),
                            NUM.symbol_samples + NUM.n_cp).phase_rad   # the harness's cp window
        expected = np.angle(ch.response(NUM, k, 1, NUM.scs_hz)[0])
        assert abs(np.angle(np.exp(1j * (phase - expected)))) < 1e-12


def test_response_reads_an_int_spacing_past_int64_as_a_float():
    ch = draw_channel(profile_preset("InF-LOS"), Geometry(GNB, UE), 0)
    assert np.all(np.isfinite(ch.response(NUM, 0, 4, spacing_hz=10 ** 30)))


@pytest.mark.parametrize(
    "spacing_hz", [0.0, -1.0, math.nan, math.inf, 10 ** 400, "1", None, True],
    ids=["zero", "negative", "nan", "inf", "past-float", "str", "None", "bool"])
def test_response_spacing_that_is_not_finite_and_positive_is_a_config_error(spacing_hz):
    ch = draw_channel(profile_preset("InF-LOS"), Geometry(GNB, UE), 0)
    with pytest.raises(ConfigError, match="^spacing_hz must "):
        ch.response(NUM, 0, 4, spacing_hz)


# ---------------------------------------------------------------------- awgn

def test_awgn_snr_calibrated():
    tx = make_stream(n=1_000_000)
    rx = add_awgn(tx, 10.0, seed=11)
    noise = rx - tx
    snr_db = 10 * np.log10(np.mean(np.abs(tx) ** 2)
                           / np.mean(np.abs(noise) ** 2))
    assert abs(snr_db - 10.0) < 0.1


def test_awgn_infinite_snr_passthrough():
    tx = make_stream()
    rx = add_awgn(tx, float("inf"), seed=4)
    assert rx is tx or np.array_equal(rx, tx)


def test_awgn_deterministic():
    tx = make_stream()
    a = add_awgn(tx, 10.0, seed=8)
    b = add_awgn(tx, 10.0, seed=8)
    assert np.array_equal(a, b)


def test_awgn_zero_power_rejected():
    tx = np.zeros(64, dtype=complex)
    with pytest.raises(NoSignalError):
        add_awgn(tx, 10.0, seed=0)


@pytest.mark.parametrize("snr_db", [float("nan"), -math.inf, 4000.0, -4000.0, "10"])
def test_awgn_non_finite_snr_rejected(snr_db):
    with pytest.raises(ConfigError):
        add_awgn(np.ones(64, dtype=complex), snr_db, seed=0)


@pytest.mark.parametrize("sample, fill", [(np.nan, 1.0), (np.inf, 1.0), (1e200, 1e200)],
                         ids=["nan-sample", "inf-sample", "overflowing-stream"])
def test_awgn_non_finite_power_rejected(sample, fill):
    tx = np.full(64, fill, dtype=complex)
    tx[17] = sample
    with pytest.raises(ValueError, match="not finite"):
        add_awgn(tx, 10.0, seed=0)


@pytest.mark.parametrize("seed", ["x", -1, 2.5, None, True], ids=repr)
@pytest.mark.parametrize("call", [
    lambda seed: add_awgn(np.ones(64, dtype=complex), 10.0, seed),
    lambda seed: add_awgn(np.ones(64, dtype=complex), math.inf, seed),
    lambda seed: draw_channel(profile_preset("InF-LOS"), Geometry(GNB, UE), seed),
], ids=["add_awgn", "add_awgn-noiseless", "draw_channel"])
def test_seed_that_is_not_a_non_negative_integer_is_a_config_error(call, seed):
    with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, inf\], got "):
        call(seed)


@pytest.mark.parametrize("snr_db", [10.0, math.inf])
@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_awgn_empty_stream_rejected(shape, snr_db):
    with warnings.catch_warnings():
        warnings.simplefilter("error")      # no "Mean of empty slice" on the way
        with pytest.raises(ValueError, match="^x must be a non-empty array of dtype kind "):
            add_awgn(np.zeros(shape, dtype=complex), snr_db, seed=0)


@pytest.mark.parametrize(
    "x", [None, "abc", [None, 1.0], [True, False], np.array([1, 2], dtype=object)],
    ids=["None", "str", "object-list", "bool-list", "object-array"])
def test_awgn_non_numeric_stream_rejected(x):
    with pytest.raises(ValueError, match="^x must be a non-empty array of dtype kind in 'iufc'"):
        add_awgn(x, 10.0, seed=0)


def test_awgn_reads_a_sequence_as_its_array():
    tx = make_stream(n=64)
    assert np.array_equal(add_awgn(tx.tolist(), 10.0, seed=3), add_awgn(tx, 10.0, seed=3))


def tiled_awgn(x, snr_db, seed):
    """``x`` plus noise built as sqrt(v / 2) * (a + 1j * b) from two full-length draws."""
    rng = np.random.default_rng(seed)
    noise_var = float(np.mean(np.abs(x) ** 2)) / 10.0 ** (snr_db / 10.0)
    n = len(x)
    return x + np.sqrt(noise_var / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


@settings(max_examples=15, deadline=None)
@given(band=st.sampled_from(["FR1", "FR2"]), mode=st.sampled_from([CONVENTIONAL, CONTINUOUS]),
       kind=st.sampled_from(PROFILE_KINDS), n_symbols=st.integers(2, 300),
       seed=st.integers(0, 2 ** 32 - 1), snr_db=st.sampled_from([-5.0, 10.0, 40.0]))
def test_period_view_receive_path_is_the_tiled_one(band, mode, kind, n_symbols, seed, snr_db):
    # The harness holds each transmit stream as one period's spectrum and its row count.
    assets = _Assets(ScenarioConfig(band=band, profile=kind, methods=("toa", "cp"),
                                    n_symbols=n_symbols))
    spectrum, rows = assets.conv_period if mode == CONVENTIONAL else assets.cont_period
    ch = draw_channel(assets.profile, Geometry(GNB, UE), seed)
    filtered = apply_channel(spectrum, rows, assets.num, ch)
    tiled = np.tile(filtered[0], rows)
    rx = add_awgn(filtered, snr_db, seed)
    assert rx.shape == (rows * spectrum.size,)
    assert np.array_equal(rx, add_awgn(tiled, snr_db, seed))
    assert np.array_equal(rx, tiled_awgn(tiled, snr_db, seed))


@pytest.mark.parametrize("band", ["FR1", "FR2"])
def test_awgn_on_a_period_view_is_the_tiled_stream_bit_for_bit(band):
    # The continuous 128-symbol stream is a 137-row view whose one-row power
    # differs from the whole-stream power by an ulp.  At -5 and 40 dB on both
    # bands (10 dB on FR1 alone) that ulp survives the square root, so a power
    # taken over one row would rescale every noise sample.
    cfg = ScenarioConfig(band=band, methods=("ccp",), n_symbols=128)
    assets = _Assets(cfg)
    spectrum, rows = assets.cont_period
    view = apply_channel(spectrum, rows, assets.num, draw_channel(assets.profile, cfg.geometry, 0))
    before = view.copy()
    tiled = np.tile(view[0], rows)
    assert rows == 137
    assert np.mean(np.abs(view[0]) ** 2) != np.mean(np.abs(tiled) ** 2)
    for snr_db in (-5.0, 10.0, 40.0):
        rx = add_awgn(view, snr_db, 0)
        assert rx.tobytes() == tiled_awgn(tiled, snr_db, 0).tobytes()
        assert rx.shape == (tiled.size,) and rx.dtype == np.complex128 and rx.flags.writeable
    assert view.tobytes() == before.tobytes()


# ------------------------------------------------------- doppler and offsets

def test_doppler_ppm_values():
    assert doppler_ppm(0.83) == pytest.approx(0.83 / SPEED_OF_LIGHT * 1e6, rel=1e-12)
    assert doppler_ppm(0.83) == pytest.approx(0.00277, abs=5e-6)
    assert doppler_ppm(2.5) == pytest.approx(0.00834, abs=5e-6)
    assert doppler_ppm(0.0) == 0.0


def test_doppler_negative_speed_rejected():
    for speed_m_s in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            doppler_ppm(speed_m_s)


@pytest.mark.parametrize("speed_m_s", [None, "1", True, 10 ** 400],
                         ids=["None", "str", "bool", "past-float"])
def test_doppler_speed_that_is_not_a_real_number_is_a_config_error(speed_m_s):
    with pytest.raises(ConfigError, match="^speed_m_s must "):
        doppler_ppm(speed_m_s)
