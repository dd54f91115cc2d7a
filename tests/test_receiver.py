import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from phasepos.channel import Geometry, add_awgn, apply_channel, draw_channel, profile_preset
from phasepos.constants import STREAM_BLOCK
from phasepos.harness import ScenarioConfig, _Assets
from phasepos.receiver import PhaseMeasurement, ccp_measure, estimate_toa, wrap_phase
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig,
                               comb_subcarriers, generate_prs_column, make_numerology,
                               middle_subcarrier, ofdm_modulate)


def small_num(n_fft=64, n_cp=9, n_active=48, scs=15e3, fc=1e9):
    return NumerologyConfig(carrier_frequency_hz=fc, scs_hz=scs, n_fft=n_fft,
                            n_cp=n_cp, n_active_subcarriers=n_active)


def continuous_stream(num, n_symbols, seed=7, comb=6, offset=0):
    prs = PrsConfig(comb, offset, n_symbols, seed)
    column = generate_prs_column(prs, num)
    k = middle_subcarrier(prs, num)
    ref = complex(column[k % num.n_fft])
    return ofdm_modulate(column, num, n_symbols, CONTINUOUS), k, ref


# ----------------------------------------------------------------------- toa

def test_toa_integer_delay_exact():
    num = make_numerology("FR1")
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 4, 3), num), num, 4, CONVENTIONAL)
    d = 7
    rx = np.roll(ref, d)
    m = estimate_toa(rx, num, np.fft.fft(ref[0]))
    assert m.toa_s == pytest.approx(d / num.sample_rate_hz, rel=1e-12)
    assert 0.0 <= m.peak_metric <= 1.0


def test_toa_fractional_geometric_delay():
    num = make_numerology("FR1")
    geo = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 16, 3), num), num, 16,
                        CONVENTIONAL)
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    spectrum = np.fft.fft(ref[0])
    rx = apply_channel(spectrum, len(ref), num, ch)
    m = estimate_toa(rx, num, spectrum)
    half_sample = 0.5 / num.sample_rate_hz
    assert abs(m.toa_s - geo.true_delay_s) <= half_sample
    # fine refinement should do far better than the half-sample bound
    assert abs(m.toa_s - geo.true_delay_s) <= 0.01 / num.sample_rate_hz


def test_toa_prefers_earliest_strong_peak():
    num = make_numerology("FR1")
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, 4, 3), num), num, 4, CONVENTIONAL)
    rx = 0.7 * np.roll(ref, 5) + 1.0 * np.roll(ref, 50)
    m = estimate_toa(rx, num, np.fft.fft(ref[0]))
    assert abs(m.toa_s * num.sample_rate_hz - 5) < 0.5
    assert m.peak_metric < 1.0


def test_toa_reads_a_sequence_as_its_array():
    num = small_num()
    stream, _, _ = continuous_stream(num, 4)
    spectrum = np.fft.fft(stream[0])
    assert estimate_toa(stream.reshape(-1).tolist(), num, spectrum) == estimate_toa(stream, num,
                                                                                    spectrum)


# (band, n_symbols, mode) -> (toa_s, peak_metric) of one noisy InF-NLOS-D
# stream, recorded from the full-length cross-correlation.  The 128-symbol
# conventional references are one-symbol periodic; the 16-symbol continuous
# one (70,144 samples, no multiple of n_fft) is not periodic at all.
TOA_PINNED = {
    ("FR1", 128, CONVENTIONAL): (1.8739743448282446e-07, 0.9041964273852287),
    ("FR2", 128, CONVENTIONAL): (1.881148620439413e-07, 0.9999999999999996),
    ("FR1", 16, CONTINUOUS): (1.8744401387780577e-07, 0.8863153899068416),
}


@pytest.mark.parametrize("band, n_symbols, mode", sorted(TOA_PINNED))
def test_toa_matches_pinned_values(band, n_symbols, mode):
    num = make_numerology(band)
    ref = ofdm_modulate(generate_prs_column(PrsConfig(6, 0, n_symbols, 3), num), num,
                        n_symbols, mode)
    ch = draw_channel(profile_preset("InF-NLOS-D"),
                      Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5)), 1)
    spectrum = np.fft.fft(ref[0])
    m = estimate_toa(add_awgn(apply_channel(spectrum, len(ref), num, ch), 0.0, 11), num, spectrum)
    toa_s, peak_metric = TOA_PINNED[band, n_symbols, mode]
    assert abs(m.toa_s - toa_s) <= 1e-15
    assert m.peak_metric == pytest.approx(peak_metric, rel=1e-12)


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
    ref = complex(column[k % num.n_fft])
    ch = draw_channel(profile_preset("InF-LOS", rician_k_db=float("inf")), geo, 0)
    rx = apply_channel(np.fft.fft(stream[0]), len(stream), num, ch)
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


# --------------------------------------------------------------- ccp_measure

def test_ccp_noiseless_matches_single_shot():
    num = small_num()
    stream, k, ref = continuous_stream(num, 16)
    single = ccp_measure(stream, num, k, 1, 1, ref, 0)
    swept = ccp_measure(stream, num, k, n_sweeps=200, shift_samples=5,
                        ref_symbol=ref, window_start=0)
    assert 0.0 <= swept.circular_variance < 1e-12
    assert abs(wrap_phase(swept.phase_rad - single.phase_rad)) < 1e-12
    # On the FR1 16-symbol stream 1 - |mean unit phasor| rounds to -2.2e-16; it is clamped.
    fr1 = make_numerology("FR1")
    assert ccp_measure(continuous_stream(fr1, 16)[0], fr1, 1, 10, 100).circular_variance == 0.0


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


@pytest.mark.parametrize("rx_scale, ref_scale", [(1.0, 2.22507386e-311), (1e-310, 1.0)],
                         ids=["subnormal-ref", "subnormal-rx"])
def test_ccp_subnormal_bins_measure_their_phase(rx_scale, ref_scale):
    # 1 / |z| of a subnormal bin overflows (a RuntimeWarning before it was handled).
    num = small_num()
    stream, k, ref = continuous_stream(num, 4)
    normal = ccp_measure(stream, num, k, n_sweeps=20, shift_samples=3, ref_symbol=ref)
    tiny = ccp_measure(stream * rx_scale, num, k, n_sweeps=20, shift_samples=3,
                       ref_symbol=ref * ref_scale)
    assert abs(wrap_phase(tiny.phase_rad - normal.phase_rad)) < 1e-9
    assert tiny.circular_variance == pytest.approx(normal.circular_variance, abs=1e-9)


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
       k=st.sampled_from(comb_subcarriers(PROPERTY_PRS, PROPERTY_NUM).tolist()),
       n_sweeps=st.integers(1, 40), shift=st.integers(1, 9),
       noise_seed=st.integers(0, 2**16), data=st.data())
def test_ccp_matches_per_window_fft(mode, k, n_sweeps, shift, noise_seed, data):
    num = PROPERTY_NUM
    rx = add_awgn(PROPERTY_STREAMS[mode], 10.0, seed=noise_seed)
    span = (n_sweeps - 1) * shift + num.n_fft
    assume(span <= len(rx))
    start = data.draw(st.integers(0, len(rx) - span), label="window_start")
    ref = complex(PROPERTY_COLUMN[k % num.n_fft])

    expected = fft_window_phase(rx, num, k, n_sweeps, shift, ref, start)
    assume(abs(expected) > 1e-6)    # the mean phase is undefined when phasors cancel
    got = ccp_measure(rx, num, k, n_sweeps, shift, ref, start)
    assert abs(wrap_phase(got.phase_rad - np.angle(expected))) < 1e-9
    assert got.circular_variance == pytest.approx(1.0 - abs(expected), abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(mode=st.sampled_from((CONVENTIONAL, CONTINUOUS)), n_sweeps=st.integers(1, 40),
       shift=st.integers(1, 9), data=st.data())
def test_ccp_reads_a_period_view_as_its_samples(mode, n_sweeps, shift, data):
    # A period view is read flattened, so a window may straddle rows (six of
    # them in the conventional view) and read the same bits.
    num, view = PROPERTY_NUM, PROPERTY_STREAMS[mode]
    span = (n_sweeps - 1) * shift + num.n_fft
    start = data.draw(st.integers(0, view.size), label="window_start")
    k = middle_subcarrier(PROPERTY_PRS, num)
    args = (num, k, n_sweeps, shift, complex(PROPERTY_COLUMN[k % num.n_fft]), start)
    if start + span > view.size:
        with pytest.raises(ValueError, match="out of range"):
            ccp_measure(view, *args)
    else:
        assert ccp_measure(view, *args) == ccp_measure(view.reshape(-1), *args)


def resized_tone_ccp(rx, num, k, n_sweeps, shift, ref, start):
    """ccp_measure's phase with the tone ``np.resize``d to the whole span before the product."""
    span = (n_sweeps - 1) * shift + num.n_fft
    turns = (k * np.arange(start, start + num.n_fft, dtype=np.int64)) % num.n_fft
    tone = np.resize(np.exp(-2j * np.pi * np.arange(num.n_fft) / num.n_fft)[turns], span)
    prefix = np.zeros(span + 1, dtype=np.complex128)
    np.cumsum(rx[start:start + span] * tone, out=prefix[1:])
    offsets = np.arange(n_sweeps, dtype=np.int64) * shift
    z = (prefix[offsets + num.n_fft] - prefix[offsets]) * (np.conj(ref) / np.sqrt(num.n_fft))
    mean_phasor = np.mean(z / np.abs(z))
    return PhaseMeasurement(float(wrap_phase(np.angle(mean_phasor))),
                            max(0.0, float(1.0 - np.abs(mean_phasor))))   # clamped as ccp_measure


BLOCK_NUM = small_num()     # its block is STREAM_BLOCK samples: 512 rows of n_fft
BLOCK_STREAM = np.random.default_rng(3).standard_normal((3 * STREAM_BLOCK + 1000, 2)) @ [1, 1j]
BLOCK_VIEW = np.broadcast_to(BLOCK_STREAM[:1000], (BLOCK_STREAM.size // 1000, 1000))


@pytest.mark.parametrize("n_sweeps, shift, start", [
    (100, 997, 5),                                  # a span of 3 blocks and 463 samples
    (3, STREAM_BLOCK, 0),                           # C[o] on block edges
    (2, STREAM_BLOCK - 64, 0),                      # C[o + n_fft] on a block edge
    (2, 2 * STREAM_BLOCK - 64, 999),                # a span of exactly two blocks
    (40, 811, 40_000),                              # window_start a block into the stream
    (1, 1, 970),                                    # one window, across a view row
    (3000, 32, 1),                                  # many windows per block
    (2, 2 * STREAM_BLOCK + 100, 300),               # a middle block that no window reads
    (100, 990, None),                               # ends on the stream's last sample
    (2048, 16, 3),                                  # a last block past every window's start
], ids=["ragged-span", "starts-on-edges", "ends-on-edge", "two-whole-blocks", "late-start",
        "one-window", "dense-windows", "shift-past-two-blocks", "ends-on-stream-end",
        "last-block-only-ends"])
@pytest.mark.parametrize("layout", ["1-D", "period view"])
def test_ccp_in_blocks_is_the_one_cumsum_prefix(n_sweeps, shift, start, layout):
    rx = BLOCK_STREAM if layout == "1-D" else BLOCK_VIEW
    flat = rx.reshape(-1)
    if start is None:       # 1,230 (1-D) or 926 (view): off every block and row edge
        start = flat.size - (n_sweeps - 1) * shift - BLOCK_NUM.n_fft
    args = (BLOCK_NUM, 5, n_sweeps, shift, 0.6 - 0.8j, start)
    assert ccp_measure(rx, *args) == resized_tone_ccp(flat, *args)


@st.composite
def ccp_runs(draw):
    """(band, n_symbols, ccp_sweeps) with every sweep inside the stream at stride 1."""
    band, n_symbols = draw(st.sampled_from(["FR1", "FR2"])), draw(st.integers(2, 300))
    num = make_numerology(band)
    longest = (n_symbols - 1) * num.symbol_samples - num.n_fft + 1
    return band, n_symbols, draw(st.integers(1, min(longest, 8192)), label="ccp_sweeps")


# The continuous stream is a multi-row period view only at multiples of 128
# symbols, so every run measures a 128- and a 256-symbol view explicitly.
@settings(max_examples=25, deadline=None)
@given(run=ccp_runs(), noise_seed=st.integers(0, 2 ** 32 - 1))
@example(run=("FR1", 128, 8192), noise_seed=1)
@example(run=("FR2", 256, 1000), noise_seed=2)
def test_ccp_matches_resized_tone_formulation(run, noise_seed):
    band, n_symbols, sweeps = run
    num = make_numerology(band)
    assets = _Assets(ScenarioConfig(band=band, methods=("cp", "ccp"), n_symbols=n_symbols,
                                    ccp_sweeps=sweeps))
    tx = ofdm_modulate(assets.column, num, n_symbols, CONTINUOUS)
    assert (tx.shape[0] > 1) == (n_symbols % 128 == 0)
    rx = add_awgn(tx, 10.0, noise_seed)
    for start, n_sweeps, shift in (assets.windows["cp"], assets.windows["ccp"]):
        args = (assets.subcarrier, n_sweeps, shift, assets.ref_symbol, start)
        assert ccp_measure(rx, num, *args) == resized_tone_ccp(rx, num, *args)
        # The period view is read by the rows that hold the span, to the same bits.
        assert ccp_measure(tx, num, *args) == resized_tone_ccp(tx.reshape(-1), num, *args)


# ------------------------------------------------------------ phase plumbing

def test_wrap_phase_principal_interval():
    vals = wrap_phase(np.array([0.0, np.pi, -np.pi, 3 * np.pi, -3.5 * np.pi, 6.5]))
    assert np.all(vals >= -np.pi) and np.all(vals < np.pi)
    assert wrap_phase(np.pi) == -np.pi
    assert wrap_phase(0.25) == 0.25
    assert wrap_phase(1e-17) == 1e-17     # (1e-17 + pi) - pi would read 0


@given(st.one_of(st.floats(-np.pi, np.pi, exclude_max=True),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_wrap_phase_keeps_a_principal_phase_and_wraps_the_rest_by_the_modulo(phase):
    got = wrap_phase(phase)
    if -np.pi <= phase < np.pi:
        assert got.tobytes() == np.float64(phase).tobytes()     # bit for bit, -0.0 too
    else:
        assert got == (np.float64(phase) + np.pi) % (2.0 * np.pi) - np.pi


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
