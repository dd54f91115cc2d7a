import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phasepos.channel import ChannelRealization, Geometry, add_awgn, apply_channel, \
    draw_channel, profile_preset
from phasepos.errors import ConfigError, NoSignalError
from phasepos.receiver import ccp_measure, estimate_toa, wrap_phase
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig,
                               generate_prs_column, make_numerology, middle_subcarrier,
                               occupied_signed_indices, ofdm_modulate, signed_to_row)


def small_num(n_fft=64, n_cp=9, n_active=48, scs=15e3, fc=1e9):
    return NumerologyConfig(carrier_frequency_hz=fc, scs_hz=scs, n_fft=n_fft,
                            n_cp=n_cp, n_active_subcarriers=n_active)


def continuous_stream(num, n_symbols, seed=7, comb=6, offset=0):
    prs = PrsConfig(comb, offset, n_symbols, seed)
    column = generate_prs_column(prs, num)
    k = middle_subcarrier(prs, num)
    ref = complex(column[signed_to_row(num, k)])
    return ofdm_modulate(column, num, n_symbols, CONTINUOUS), k, ref


# ----------------------------------------------------------------------- toa

def test_toa_integer_delay_exact():
    num = make_numerology("FR1")
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 4, 3), num), num, 4, CONVENTIONAL)
    d = 7
    rx = np.roll(ref, d)
    m = estimate_toa(rx, num, ref)
    assert m.toa_s == pytest.approx(d / num.sample_rate_hz, rel=1e-12)
    assert 0.0 <= m.peak_metric <= 1.0


def test_toa_fractional_geometric_delay():
    num = make_numerology("FR1")
    geo = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 16, 3), num), num, 16,
                        CONVENTIONAL)
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    rx = apply_channel(ref, num, ch)
    m = estimate_toa(rx, num, ref)
    half_sample = 0.5 / num.sample_rate_hz
    assert abs(m.toa_s - geo.true_delay_s) <= half_sample
    # fine refinement should do far better than the half-sample bound
    assert abs(m.toa_s - geo.true_delay_s) <= 0.01 / num.sample_rate_hz


def test_toa_prefers_earliest_strong_peak():
    num = make_numerology("FR1")
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 4, 3), num), num, 4, CONVENTIONAL)
    rx = 0.7 * np.roll(ref, 5) + 1.0 * np.roll(ref, 50)
    m = estimate_toa(rx, num, ref)
    assert abs(m.toa_s * num.sample_rate_hz - 5) < 0.5
    assert m.peak_metric < 1.0


def test_toa_zero_input_rejected():
    num = small_num()
    stream, _, _ = continuous_stream(num, 4)
    with pytest.raises(NoSignalError):
        estimate_toa(np.zeros_like(stream), num, stream)


def test_toa_unequal_lengths_rejected():
    num = small_num()
    stream, _, _ = continuous_stream(num, 4)
    with pytest.raises(ValueError):
        estimate_toa(stream[:-1], num, stream)


# ------------------------------------------------------ single-window phase

def test_phase_zero_for_identity_channel():
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    m = ccp_measure(stream, num, k, 1, 1, ref, num.n_cp)
    assert abs(m.phase_rad) < 1e-12


def test_phase_matches_analytic_delay_rotation():
    # Pure LOS: the middle-subcarrier phase is -2 pi (f_c + f_sub) tau, mod 2 pi.
    num = make_numerology("FR1")
    geo = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    prs = PrsConfig(6, 0, 16, 5)
    column = generate_prs_column(prs, num)
    stream = ofdm_modulate(column, num, prs.n_symbols, CONTINUOUS)
    k = middle_subcarrier(prs, num)
    ref = complex(column[signed_to_row(num, k)])
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    rx = apply_channel(stream, num, ch)
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
PROPERTY_COLUMN = generate_prs_column(PROPERTY_PRS, PROPERTY_NUM)
PROPERTY_STREAMS = {mode: ofdm_modulate(PROPERTY_COLUMN, PROPERTY_NUM, PROPERTY_PRS.n_symbols,
                                        mode)
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
    assume(span <= len(rx))
    start = data.draw(st.integers(0, len(rx) - span), label="window_start")
    ref = complex(PROPERTY_COLUMN[signed_to_row(num, k)])

    expected = fft_window_phase(rx, num, k, n_sweeps, shift, ref, start)
    assume(abs(expected) > 1e-6)    # the mean phase is undefined when phasors cancel
    got = ccp_measure(rx, num, k, n_sweeps, shift, ref, start, prs=PROPERTY_PRS)
    assert abs(wrap_phase(got.phase_rad - np.angle(expected))) < 1e-9
    assert got.circular_variance == pytest.approx(1.0 - abs(expected), abs=1e-9)


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


def test_ccp_mean_near_wrap():
    # Window phases scattered across the +-pi cut average to +-pi, where a
    # plain mean of the wrapped angles would land near 0.
    num = small_num()
    stream, k, ref = continuous_stream(num, 16)
    rx = add_awgn(-stream, 10.0, seed=0)
    starts = 5 * np.arange(100)
    phases = [ccp_measure(rx, num, k, 1, 1, ref, int(o)).phase_rad for o in starts]
    assert min(phases) < 0.0 < max(phases)
    assert abs(np.mean(phases)) < np.pi / 2
    swept = ccp_measure(rx, num, k, starts.size, 5, ref, 0).phase_rad
    assert np.pi - abs(swept) < 0.05
