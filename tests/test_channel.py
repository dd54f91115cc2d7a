import math

import numpy as np
import pytest

from phasepos.channel import (ChannelRealization, Geometry, ScenarioProfile, add_awgn,
                              apply_channel, doppler_ppm, draw_channel, profile_preset)
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.errors import ConfigError, NoSignalError
from phasepos.waveform import make_numerology

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
    assert ch.taps == [(geo.true_delay_s, 1.0 + 0.0j)]


def test_los_earliest_tap_at_geometric_delay():
    geo = Geometry(GNB, UE)
    for seed in range(20):
        ch = draw_channel(profile_preset("InF-LOS"), geo, seed)
        assert ch.first_tap_delay_s == pytest.approx(geo.true_delay_s, rel=1e-12)
        assert ch.first_tap_delay_s == pytest.approx(80.49e-9, abs=5e-12)


def test_tap_power_normalized():
    geo = Geometry(GNB, UE)
    for kind in ("InF-LOS", "InF-NLOS-S", "InF-NLOS-D"):
        for seed in range(25):
            ch = draw_channel(profile_preset(kind), geo, seed)
            assert ch.total_power == pytest.approx(1.0, abs=1e-9)


def test_rician_k_enforced_exactly():
    geo = Geometry(GNB, UE)
    profile = profile_preset("InF-LOS", rician_k_db=16.0)
    for seed in range(10):
        ch = draw_channel(profile, geo, seed)
        direct = [g for t, g in ch.taps if t == geo.true_delay_s]
        clutter = [g for t, g in ch.taps if t != geo.true_delay_s]
        assert len(direct) == 1
        ratio = abs(direct[0]) ** 2 / sum(abs(g) ** 2 for g in clutter)
        assert ratio == pytest.approx(10.0 ** 1.6, rel=1e-9)


def test_nlos_strictly_delays_many_seeds():
    geo = Geometry(GNB, UE)
    tau0 = geo.true_delay_s
    for kind in ("InF-NLOS-S", "InF-NLOS-D"):
        profile = profile_preset(kind)
        for seed in range(5000):
            ch = draw_channel(profile, geo, seed)
            assert ch.first_tap_delay_s > tau0


def test_channel_deterministic_per_seed():
    geo = Geometry(GNB, UE)
    a = draw_channel(profile_preset("InF-LOS"), geo, 77)
    b = draw_channel(profile_preset("InF-LOS"), geo, 77)
    assert a.taps == b.taps


# ------------------------------------------------------------- apply_channel

def test_identity_channel():
    tx = make_stream()
    ch = ChannelRealization([(0.0, 1.0 + 0.0j)])
    rx = apply_channel(tx, NUM, ch)
    assert np.max(np.abs(rx - tx)) < 1e-12


def test_integer_sample_delay_is_circular_shift():
    tx = make_stream()
    d_samples = 9
    tau = d_samples / NUM.sample_rate_hz
    ch = ChannelRealization([(tau, 1.0 + 0.0j)])
    rx = apply_channel(tx, NUM, ch)
    expected = np.roll(tx, d_samples) * np.exp(-2j * np.pi * NUM.carrier_frequency_hz * tau)
    assert np.max(np.abs(rx - expected)) < 1e-10


def test_superposition_over_taps():
    tx = make_stream(n=2048)
    ch1 = ChannelRealization([(5e-9, 0.8 + 0.1j)])
    ch2 = ChannelRealization([(40e-9, -0.3 + 0.5j)])
    both = ChannelRealization([(5e-9, 0.8 + 0.1j), (40e-9, -0.3 + 0.5j)])
    lhs = apply_channel(tx, NUM, both)
    rhs = apply_channel(tx, NUM, ch1) + apply_channel(tx, NUM, ch2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


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


# ------------------------------------------------------- doppler and offsets

def test_doppler_ppm_values():
    assert doppler_ppm(0.83) == pytest.approx(0.83 / SPEED_OF_LIGHT * 1e6, rel=1e-12)
    assert doppler_ppm(0.83) == pytest.approx(0.00277, abs=5e-6)
    assert doppler_ppm(2.5) == pytest.approx(0.00834, abs=5e-6)
    assert doppler_ppm(0.0) == 0.0


def test_doppler_negative_speed_rejected():
    with pytest.raises(ValueError):
        doppler_ppm(-1.0)
