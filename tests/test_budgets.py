"""Work and memory budgets of one trial.

Both 128-symbol streams repeat exactly (conventional every symbol,
continuous every n_fft samples), so the channel and the TOA correlator need
transforms and tap responses of one period only, the noise's signal power
needs the magnitudes of one period, and the modulator holds that one period.
The scenario keeps each period's spectrum, so after its first trial no trial
transforms a transmit period again.  The receive path makes no stream-sized
array but the received stream: ``add_awgn`` squares into its own output,
copies the period view in and adds the noise over flat blocks of
``STREAM_BLOCK`` samples, ``ccp_measure`` prefix-sums the flat stream in
such blocks and keeps two sums per window, and ``run_trial`` holds one
received stream at a time, in every IA mode.  These tests hold the simulator
to that: a transform, a response or magnitudes over the whole 561,152-sample
stream, a forward transform of a transmit period or a tiled or resized
stream inside a trial, a transmit stream held whole, a stream-sized
temporary or a buffer for strided rows in ``add_awgn``, a ``ccp_measure``
whose memory grows with its span, or one more full-length array alive at
once, fails them.  A stream with no period is filtered whole, but its tap
response is two short exp tables per tap, not one exp per tap per bin, and
the filter holds two period-sized arrays at once: the response and the
product, written in FFT order, then the product and its inverse transform.
A shifted copy of the response, or a response kept alive through the
transform, fails them.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from phasepos.channel import ChannelRealization, add_awgn, apply_channel, draw_channel
from phasepos.constants import STREAM_BLOCK
from phasepos.harness import ScenarioConfig, _Assets, _build_assets, run_trial
from phasepos.receiver import ccp_measure
from phasepos.waveform import CONTINUOUS, CONVENTIONAL, make_numerology, ofdm_modulate

FR1_TOA = ScenarioConfig(band="FR1", methods=("toa", "cp", "ccp"), ambiguity="toa",
                         n_symbols=128, ccp_sweeps=1000)
FR2_CCP = ScenarioConfig(band="FR2", methods=("ccp",), ambiguity="oracle",
                         n_symbols=128, ccp_sweeps=8192)
# The fr1-short-widelane benchmark scenario: 16 * 4,384 samples is no whole
# number of n_fft periods, so its continuous streams are filtered whole.
FR1_WIDELANE = ScenarioConfig(band="FR1", methods=("toa", "cp", "ccp"), ambiguity="widelane",
                              widelane_second_fc_hz=3.9e9, n_symbols=16, ccp_sweeps=1000)
# Two periodic continuous streams, one per carrier, each 8.56 MiB.
FR1_WIDELANE_128 = dataclasses.replace(FR1_WIDELANE, n_symbols=128)
ONE_SYMBOL = make_numerology("FR1").symbol_samples      # 4,384 samples, FR1 and FR2 alike
# Elements through np.exp in one widelane trial: measured at 40.7k, while one
# exp per tap per bin of the two dense 70,144-sample streams is 1.9M.
WIDELANE_EXP_ELEMENTS = 64_000

MIB = 2 ** 20
# tracemalloc peak of one trial after a warm-up trial, measured with
# numpy 2.4 (FR1: 9.34 MiB, FR2: 10.04 MiB, FR1 128-symbol widelane: 9.32 MiB;
# one received stream is 8.56 MiB), plus a headroom of under half of one
# stream, so one more full-length array alive at the peak fails: the two
# widelane streams alive at once read 17.88 MiB.
PEAK_HEADROOM_MIB = 4.0
PEAK_MIB = {"FR1 toa+cp+ccp": (FR1_TOA, 9.4), "FR2 ccp 8192 sweeps": (FR2_CCP, 10.1),
            "FR1 widelane 128 symbols": (FR1_WIDELANE_128, 9.4)}
# ccp_measure's allocations beside its STREAM_BLOCK-sample block of sums: the
# two prefix sums each window reads, then its bin, magnitude and unit phasor
# (measured 68.3 B per window on FR2's 8,192 sweeps), where one n_fft window
# per sweep is 64 KiB, and the n_fft-sample tone row.
CCP_BYTES_PER_WINDOW = 72
CCP_BYTES_PER_TONE_SAMPLE = 64
# Two warm calls on different spans differ by Python objects alone (measured
# peaks alternate between 1,345,278 and 1,345,310 B over strides 5 to 67),
# where the longer span's 417,674 extra samples are 6.7 MB as one complex array.
CCP_SPAN_SLACK_BYTES = 1024
# add_awgn's allocations beside its complex output and its float64 noise
# block: the generator and a few scalars (measured 2,832 B on the conventional
# view, 1,776 B on the continuous one), where one stream-sized temporary is
# 4.5 MB or more and one 64 KiB ufunc buffer for strided rows is 65,536 B.
AWGN_OVERHEAD_BYTES = 16 * 1024
# One dense apply_channel beside its two period-sized arrays: the response's
# ceil(sqrt(p))**2 - p spare bins (1,296 B at p = 70,144) and numpy's small
# objects (measured 2,064 B in all), where one more period is 1.1 MB.
DENSE_FILTER_OVERHEAD_BYTES = 16 * 1024
# Building both 128-symbol FR1 transmit streams: one period and a few
# one-symbol transforms each (measured peak 0.33 MB), where each stream held
# whole is 8.98 MB.
STREAM_BUILD_BYTES = 2 ** 20


def test_no_transform_is_longer_than_one_symbol(monkeypatch):
    run_trial(FR1_TOA, 0)       # builds the cached streams outside the count
    lengths = []

    def counted(transform):
        def wrapper(a, *args, **kwargs):
            lengths.append(np.shape(a)[-1])
            return transform(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", counted(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", counted(np.fft.ifft))
    run_trial(FR1_TOA, 1)
    assert lengths, "the trial ran no transform through numpy.fft"
    assert max(lengths) <= ONE_SYMBOL, f"transform lengths {lengths}"


def test_awgn_takes_the_magnitudes_of_one_period_row(monkeypatch):
    assets = _Assets(FR1_TOA)
    spectrum, rows = assets.conv_period
    view = apply_channel(spectrum, rows, assets.num,
                         draw_channel(assets.profile, FR1_TOA.geometry, 0))
    sizes = []
    absolute = np.abs

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return absolute(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counted)
    add_awgn(view, FR1_TOA.snr_db, 0)
    assert view.shape == (128, ONE_SYMBOL)
    assert sizes, "add_awgn took no magnitude through np.abs"
    assert sum(sizes) <= ONE_SYMBOL, f"np.abs sizes {sizes}"


@pytest.mark.parametrize("cfg", [FR1_TOA, FR2_CCP], ids=["FR1-toa", "FR2-ccp"])
def test_tap_response_is_evaluated_on_one_period(monkeypatch, cfg):
    sizes = []
    response = ChannelRealization.response

    def counted(self, num, first_bin, n_bins, spacing_hz):
        sizes.append(n_bins)
        return response(self, num, first_bin, n_bins, spacing_hz)

    monkeypatch.setattr(ChannelRealization, "response", counted)
    run_trial(cfg, 0)
    assert sizes, "the trial evaluated no tap response"
    assert max(sizes) <= ONE_SYMBOL, f"response sizes {sizes}"


def test_dense_trial_exp_work(monkeypatch):
    run_trial(FR1_WIDELANE, 0)      # builds the cached streams outside the count
    sizes = []
    exp = np.exp

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)
    run_trial(FR1_WIDELANE, 1)
    assert sizes, "the trial made no np.exp call"
    assert max(sizes) <= ONE_SYMBOL, f"np.exp sizes {sorted(sizes)[-5:]}"
    assert sum(sizes) <= WIDELANE_EXP_ELEMENTS, f"{sum(sizes)} np.exp elements"


def test_dense_filter_holds_two_periods():
    assets = _Assets(FR1_WIDELANE)
    spectrum, rows = assets.cont_period
    channel = draw_channel(assets.profile, FR1_WIDELANE.geometry, 0)
    apply_channel(spectrum, rows, assets.num, channel)     # a warm-up outside the count
    tracemalloc.start()
    try:
        apply_channel(spectrum, rows, assets.num, channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (spectrum.size, rows) == (16 * ONE_SYMBOL, 1)
    assert peak <= 2 * spectrum.nbytes + DENSE_FILTER_OVERHEAD_BYTES, f"{peak} bytes"


@pytest.mark.parametrize("name", sorted(PEAK_MIB))
def test_trial_peak_memory(name):
    cfg, measured_mib = PEAK_MIB[name]
    run_trial(cfg, 0)
    tracemalloc.start()
    try:
        run_trial(cfg, 1)
        peak_mib = tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()
    assert peak_mib <= measured_mib + PEAK_HEADROOM_MIB


@pytest.mark.parametrize("cfg", [FR1_TOA, FR2_CCP], ids=["FR1-toa", "FR2-ccp"])
def test_trial_tiles_and_resizes_nothing(monkeypatch, cfg):
    run_trial(cfg, 0)       # builds the cached streams outside the count
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("tile", "resize"):
        monkeypatch.setattr(np, name, counted(name, getattr(np, name)))
    run_trial(cfg, 1)
    assert calls == []


def test_ccp_measure_memory_does_not_grow_with_the_span():
    assets = _build_assets(FR2_CCP)
    num = assets.num
    rx = ofdm_modulate(assets.column, num, FR2_CCP.n_symbols, CONTINUOUS).reshape(-1)   # a copy
    start, sweeps, shift = assets.windows["ccp"]
    peaks = []
    for stride in (shift // 4, shift):      # spans of 135,152 and 552,826 samples
        # An untraced warm-up per stride, so neither traced call is the first.
        ccp_measure(rx, num, assets.subcarrier, sweeps, stride, assets.ref_symbol, start)
        tracemalloc.start()
        try:
            ccp_measure(rx, num, assets.subcarrier, sweeps, stride, assets.ref_symbol, start)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert sweeps == 8192
    assert peaks[1] <= peaks[0] + CCP_SPAN_SLACK_BYTES, f"{peaks} bytes"
    assert peaks[1] <= (STREAM_BLOCK * 16 + CCP_BYTES_PER_WINDOW * sweeps
                        + CCP_BYTES_PER_TONE_SAMPLE * num.n_fft), f"{peaks[1]} bytes"


@pytest.mark.parametrize("mode", [CONVENTIONAL, CONTINUOUS])
def test_awgn_allocates_its_output_and_one_noise_block(mode):
    assets = _Assets(FR1_TOA)
    spectrum, rows = assets.conv_period if mode == CONVENTIONAL else assets.cont_period
    view = apply_channel(spectrum, rows, assets.num,
                         draw_channel(assets.profile, FR1_TOA.geometry, 0))
    tracemalloc.start()
    try:
        rx = add_awgn(view, FR1_TOA.snr_db, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rx.nbytes == 128 * ONE_SYMBOL * 16
    assert peak <= rx.nbytes + STREAM_BLOCK * 8 + AWGN_OVERHEAD_BYTES, f"{peak} bytes"


def test_transmit_streams_hold_one_period():
    assets = _Assets(FR1_TOA)
    tracemalloc.start()
    try:
        periods = (assets.conv_period, assets.cont_period)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [spectrum.size * rows for spectrum, rows in periods] == [128 * ONE_SYMBOL] * 2
    assert peak < STREAM_BUILD_BYTES, f"{peak} bytes"


@pytest.mark.parametrize("cfg, folds", [(FR1_WIDELANE, 1), (FR1_TOA, 1), (FR2_CCP, 0)],
                         ids=["FR1-widelane", "FR1-toa", "FR2-ccp"])
def test_trial_transforms_no_transmit_period(monkeypatch, cfg, folds):
    run_trial(cfg, 0)       # builds the cached period spectra outside the count
    lengths = []
    fft = np.fft.fft

    def counted(a, *args, **kwargs):
        lengths.append(np.shape(a)[-1])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    run_trial(cfg, 1)
    # The only forward transform left is estimate_toa's fold of the received stream.
    assert len(lengths) == folds, f"forward transform lengths {lengths}"


@pytest.mark.parametrize("cfg", [FR1_WIDELANE, FR1_TOA, FR2_CCP],
                         ids=["FR1-widelane", "FR1-toa", "FR2-ccp"])
def test_cached_spectra_are_the_transmit_periods(cfg):
    assets = _Assets(cfg)
    for (spectrum, rows), mode in ((assets.conv_period, CONVENTIONAL),
                                   (assets.cont_period, CONTINUOUS)):
        stream = ofdm_modulate(assets.column, assets.num, cfg.n_symbols, mode)
        assert not spectrum.flags.writeable
        assert rows == stream.shape[0]
        assert np.array_equal(spectrum, np.fft.fft(stream[0]))
