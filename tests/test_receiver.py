import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasepos.channel import ChannelRealization, add_awgn, apply_channel, draw_channel, \
    make_geometry, profile_preset
from phasepos.constants import NR_TIME_UNIT_S, SPEED_OF_LIGHT
from phasepos.errors import ConfigError, NoSignalError
from phasepos.receiver import (ToaMeasurement, ccp_measure, circular_mean, estimate_toa,
                               quantize_toa, wrap_phase)
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig,
                               generate_prs_grid, make_numerology, middle_subcarrier,
                               occupied_signed_indices, ofdm_modulate, signed_to_row,
                               tile_grid)


def small_num(n_fft=64, n_cp=9, n_active=48, scs=15e3, fc=1e9):
    return NumerologyConfig(carrier_frequency_hz=fc, scs_hz=scs, n_fft=n_fft,
                            n_cp=n_cp, n_active_subcarriers=n_active)


def continuous_stream(num, n_symbols, seed=7, comb=6, offset=0):
    prs = PrsConfig(comb, offset, 1, seed)
    grid = tile_grid(generate_prs_grid(prs, num), n_symbols)
    full_prs = PrsConfig(comb, offset, n_symbols, seed)
    k = middle_subcarrier(full_prs, num)
    ref = complex(grid.values[signed_to_row(num, k), 0])
    return ofdm_modulate(grid, CONTINUOUS), k, ref


# ----------------------------------------------------------------------- toa

def test_toa_integer_delay_exact():
    num = make_numerology("FR1")
    grid = tile_grid(generate_prs_grid(PrsConfig(6, 0, 1, 3), num), 4)
    ref = ofdm_modulate(grid, CONVENTIONAL)
    d = 7
    rx = type(ref)(np.roll(ref.samples, d), ref.sample_rate_hz, ref.carrier_frequency_hz)
    m = estimate_toa(rx, ref)
    assert m.toa_s == pytest.approx(d / num.sample_rate_hz, rel=1e-12)
    assert not m.quantized
    assert 0.0 <= m.peak_metric <= 1.0


def test_toa_fractional_geometric_delay():
    num = make_numerology("FR1")
    geo = make_geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    grid = tile_grid(generate_prs_grid(PrsConfig(6, 0, 1, 3), num), 16)
    ref = ofdm_modulate(grid, CONVENTIONAL)
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    rx = apply_channel(ref, ch)
    m = estimate_toa(rx, ref)
    half_sample = 0.5 / num.sample_rate_hz
    assert abs(m.toa_s - geo.true_delay_s) <= half_sample
    # fine refinement should do far better than the half-sample bound
    assert abs(m.toa_s - geo.true_delay_s) <= 0.01 / num.sample_rate_hz


def test_toa_prefers_earliest_strong_peak():
    num = make_numerology("FR1")
    grid = tile_grid(generate_prs_grid(PrsConfig(6, 0, 1, 3), num), 4)
    ref = ofdm_modulate(grid, CONVENTIONAL)
    rx_samples = 0.7 * np.roll(ref.samples, 5) + 1.0 * np.roll(ref.samples, 50)
    rx = type(ref)(rx_samples, ref.sample_rate_hz, ref.carrier_frequency_hz)
    m = estimate_toa(rx, ref)
    assert abs(m.toa_s * num.sample_rate_hz - 5) < 0.5
    assert m.peak_metric < 1.0


def test_toa_zero_input_rejected():
    num = small_num()
    stream, _, _ = continuous_stream(num, 4)
    silent = type(stream)(np.zeros_like(stream.samples), stream.sample_rate_hz,
                          stream.carrier_frequency_hz)
    with pytest.raises(NoSignalError):
        estimate_toa(silent, stream)


def test_toa_unequal_lengths_rejected():
    num = small_num()
    stream, _, _ = continuous_stream(num, 4)
    short = type(stream)(stream.samples[:-1], stream.sample_rate_hz, stream.carrier_frequency_hz)
    with pytest.raises(ValueError):
        estimate_toa(short, stream)


# ------------------------------------------------------------------ quantize

def test_basic_time_unit_value():
    assert NR_TIME_UNIT_S == pytest.approx(0.5086e-9, abs=5e-14)
    assert NR_TIME_UNIT_S == 1.0 / (480_000 * 4096)


def test_quantize_step_k2():
    m = ToaMeasurement(10e-9, 1.0, False)
    q = quantize_toa(m, 2)
    step = 4 * NR_TIME_UNIT_S
    assert step == pytest.approx(2.0345e-9, abs=5e-13)
    assert q.quantized
    assert q.toa_s / step == pytest.approx(round(q.toa_s / step), abs=1e-9)


def test_quantize_zero_stays_zero():
    for k in range(6):
        assert quantize_toa(ToaMeasurement(0.0, 1.0, False), k).toa_s == 0.0


def test_quantize_k_out_of_range():
    with pytest.raises(ConfigError):
        quantize_toa(ToaMeasurement(1e-9, 1.0, False), 6)
    with pytest.raises(ConfigError):
        quantize_toa(ToaMeasurement(1e-9, 1.0, False), -1)


# ------------------------------------------------------ single-window phase

def test_phase_zero_for_identity_channel():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    m = ccp_measure(stream, num, k, 1, 1, ref, num.n_cp)
    assert abs(m.phase_rad) < 1e-12
    assert m.n_windows == 1


def test_phase_matches_analytic_delay_rotation():
    # Pure LOS: the middle-subcarrier phase is -2 pi (f_c + f_sub) tau, mod 2 pi.
    num = make_numerology("FR1")
    geo = make_geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    prs = PrsConfig(6, 0, 16, 5)
    grid = tile_grid(generate_prs_grid(PrsConfig(6, 0, 1, 5), num), 16)
    stream = ofdm_modulate(grid, CONTINUOUS)
    k = middle_subcarrier(prs, num)
    ref = complex(grid.values[signed_to_row(num, k), 0])
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    rx = apply_channel(stream, ch)
    m = ccp_measure(rx, num, k, 1, 1, ref, num.symbol_samples + num.n_cp)
    f_eff = num.carrier_frequency_hz + k * num.scs_hz
    expected = wrap_phase(-2 * np.pi * f_eff * geo.true_delay_s)
    assert abs(wrap_phase(m.phase_rad - expected)) < 1e-6


def test_phase_window_invariance_one_sample():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    a = ccp_measure(stream, num, k, 1, 1, ref, 17)
    b = ccp_measure(stream, num, k, 1, 1, ref, 18)
    assert abs(wrap_phase(a.phase_rad - b.phase_rad)) < 1e-9


def test_phase_unoccupied_subcarrier_rejected():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4, comb=6, offset=0)
    prs = PrsConfig(6, 0, 4, 7)
    bad = k + 1 if k + 1 != 0 else k + 2
    with pytest.raises(ConfigError):
        ccp_measure(stream, num, bad, 1, 1, ref, 0, prs=prs)


# --------------------------------------------------------------- ccp_measure

def test_ccp_noiseless_matches_single_shot():
    num = small_num()
    stream, k, ref = continuous_stream(num, 16)
    single = ccp_measure(stream, num, k, 1, 1, ref, 0)
    swept = ccp_measure(stream, num, k, n_sweeps=200, shift_samples=5,
                        ref_symbol=ref, window_start=0)
    assert swept.circular_variance < 1e-12
    assert abs(wrap_phase(swept.phase_rad - single.phase_rad)) < 1e-12
    assert swept.n_windows == 200


def test_ccp_averaging_reduces_variance():
    # 200 noisy trials: swept-window phase spreads less than one-shot phase.
    num = small_num()
    stream, k, ref = continuous_stream(num, 16)
    cp, ccp = [], []
    for trial in range(200):
        noisy = add_awgn(stream, 10.0, seed=trial)
        cp.append(ccp_measure(noisy, num, k, 1, 1, ref, 0).phase_rad)
        ccp.append(ccp_measure(noisy, num, k, n_sweeps=1000, shift_samples=1,
                               ref_symbol=ref, window_start=0).phase_rad)
    assert np.var(ccp, ddof=1) < np.var(cp, ddof=1)


def test_ccp_sweep_too_long_rejected():
    num = small_num()
    stream, k, ref = continuous_stream(num, 2)
    with pytest.raises(ValueError):
        ccp_measure(stream, num, k, n_sweeps=300, shift_samples=1,
                    ref_symbol=ref, window_start=0)


def test_ccp_negative_window_start_rejected():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    with pytest.raises(ValueError):
        ccp_measure(stream, num, k, n_sweeps=1, shift_samples=1,
                    ref_symbol=ref, window_start=-1)


def fft_window_phase(samples, num, k, n_sweeps, shift, ref, window_start):
    """Reference: one full FFT per window, derotated by the window's stream position."""
    z = []
    for o in window_start + shift * np.arange(n_sweeps):
        value = np.fft.fft(samples[o:o + num.n_fft])[k % num.n_fft] / np.sqrt(num.n_fft)
        z.append(value * np.exp(-2j * np.pi * ((k * o) % num.n_fft) / num.n_fft)
                 * np.conj(ref))
    z = np.asarray(z)
    return np.mean(z / np.abs(z))


PROPERTY_NUM = small_num()
PROPERTY_PRS = PrsConfig(6, 0, 6, 7)
PROPERTY_GRID = tile_grid(generate_prs_grid(PrsConfig(6, 0, 1, 7), PROPERTY_NUM), 6)
PROPERTY_STREAMS = {mode: ofdm_modulate(PROPERTY_GRID, mode)
                    for mode in (CONVENTIONAL, CONTINUOUS)}


@settings(max_examples=150, deadline=None)
@given(mode=st.sampled_from((CONVENTIONAL, CONTINUOUS)),
       k=st.sampled_from(occupied_signed_indices(PROPERTY_PRS, PROPERTY_NUM).tolist()),
       n_sweeps=st.integers(1, 40), shift=st.integers(1, 9),
       noise_seed=st.integers(0, 2**16), data=st.data())
def test_ccp_matches_per_window_fft(mode, k, n_sweeps, shift, noise_seed, data):
    num = PROPERTY_NUM
    rx = add_awgn(PROPERTY_STREAMS[mode], 10.0, seed=noise_seed)
    span = (n_sweeps - 1) * shift + num.n_fft
    assume(span <= len(rx.samples))
    start = data.draw(st.integers(0, len(rx.samples) - span), label="window_start")
    ref = complex(PROPERTY_GRID.values[signed_to_row(num, k), 0])

    expected = fft_window_phase(rx.samples, num, k, n_sweeps, shift, ref, start)
    assume(abs(expected) > 1e-6)    # the mean phase is undefined when phasors cancel
    got = ccp_measure(rx, num, k, n_sweeps, shift, ref, start, prs=PROPERTY_PRS)
    assert abs(wrap_phase(got.phase_rad - np.angle(expected))) < 1e-9
    assert got.circular_variance == pytest.approx(1.0 - abs(expected), abs=1e-9)
    assert got.n_windows == n_sweeps


def test_ccp_parameters_validated():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    with pytest.raises(ConfigError):
        ccp_measure(stream, num, k, n_sweeps=0, shift_samples=1)
    with pytest.raises(ConfigError):
        ccp_measure(stream, num, k, n_sweeps=10, shift_samples=0)


# ------------------------------------------------------------ phase plumbing

def test_wrap_phase_principal_interval():
    vals = wrap_phase(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3.5 * np.pi, 6.5]))
    assert np.all(vals >= -np.pi) and np.all(vals < np.pi)
    assert wrap_phase(np.pi) == pytest.approx(-np.pi)
    assert wrap_phase(0.25) == pytest.approx(0.25, abs=1e-15)


def test_circular_mean_near_wrap():
    phases = np.array([np.pi - 0.01, -np.pi + 0.01])
    cm = circular_mean(phases)
    assert min(abs(cm - np.pi), abs(cm + np.pi)) < 1e-9


def test_circular_mean_ignores_2pi_offsets():
    phases = np.array([0.3, -0.2, 0.1])
    assert circular_mean(phases) == pytest.approx(circular_mean(phases + 2 * np.pi),
                                                  abs=1e-12)
