"""Work and memory budgets of one trial.

Both 128-symbol streams repeat exactly (conventional every symbol, continuous every n_fft
samples), so the channel, the noise's signal power and the TOA correlator need the
transforms, tap responses and magnitudes of one period only, and the modulator holds that
one period.  The scenario keeps each period's spectrum, so no trial after its first
transforms a transmit period.  The receive path makes no stream-sized array but the
received stream: ``add_awgn`` squares into its own output, copies the period view in and
adds the noise over flat blocks of ``STREAM_BLOCK`` samples, ``ccp_measure`` prefix-sums the
flat stream in such blocks and keeps two sums per window, and ``run_trial`` holds one
received stream at a time, in every IA mode.  A stream with no period is filtered whole,
but its tap response is two short exp tables per tap, not one exp per tap per bin, and the
filter holds two period-sized arrays at once: the response and the product, written in FFT
order, then the product and its inverse transform.

Each benchmark workload's trial 1 has a work vector (``work_counter``'s), held to those
bounds and exactly to ``trial_work.json``: one more noise draw, transform, exp or magnitude,
or one of another length, fails with the counter named, as does a tiled or resized stream.
``PYTHONPATH=src python tests/test_budgets.py`` rewrites the file, printing each changed
counter as ``config counter old → new``.  Counts do not drift with the machine the way wall
time does: a change that lowers one rewrites the file and quotes those lines in CHANGES.md,
and a raised one is a regression unless CHANGES.md explains it.  The traced peaks fail on a
transmit stream held whole, a stream-sized temporary or strided-row buffer in ``add_awgn``, a
``ccp_measure`` whose memory grows with its span, a shifted or kept-alive response, one
more full-length array alive, or a run file's writer that holds memory per trial.  A fresh
interpreter's trials leave no BLAS worker thread spinning.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from work_counter import calls, count_work, traced_peak, work_delta

import phasepos
from phasepos.channel import add_awgn, apply_channel, draw_channel
from phasepos.constants import STREAM_BLOCK
from phasepos.harness import (METHODS, CdfResult, MethodOutcome, ScenarioConfig, _Assets,
                              _build_assets, emit_results, run_trial)
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
# two prefix sums each window reads, then its bin, magnitude and exponent, the
# bin scaled to its unit phasor in place (measured 56.2 B per window on FR2's
# 8,192 sweeps), where one n_fft window per sweep is 64 KiB, and the n_fft-sample
# tone row and the first window's magnitudes.
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
# emit_results' peak after a warm-up write of the same run, which derives each CdfResult's
# sorted errors, CDF and percentiles: the open file's buffer and a line at a time (measured
# 34,721 and 34,930 B as csv, 88,658 and 31,450 B as json, at the two sizes below), where a
# writer that keeps 6 B per trial grows by 16 KiB.  A writer that builds the whole text first
# peaked at 0.15 and 1.42 MB as csv, 0.89 and 8.36 MB as json.
WRITE_SLACK_BYTES = 16 * 1024
WRITE_TRIALS = (300, 3000)


# The benchmark workload shapes by name, each with its streams' longest period and a trial's
# forward transforms: estimate_toa's fold where the trial estimates TOA, no transmit period.
WORK_CONFIGS = {"FR1_TOA": (FR1_TOA, ONE_SYMBOL, 1), "FR2_CCP": (FR2_CCP, ONE_SYMBOL, 0),
                "FR1_WIDELANE": (FR1_WIDELANE, 16 * ONE_SYMBOL, 1)}
WORK_PATH = Path(__file__).with_name("trial_work.json")


def trial_work(cfg):
    """Trial 1's work vector, after a warm-up trial 0 builds the cached streams outside it."""
    run_trial(cfg, 0)
    with count_work() as work:
        run_trial(cfg, 1)
    return dict(work)


def work_text(vectors):
    """The committed file's text: one vector per config, in WORK_CONFIGS order, keys sorted."""
    return json.dumps({name: dict(sorted(vectors[name].items())) for name in WORK_CONFIGS},
                      indent=2) + "\n"


@pytest.mark.parametrize("name", WORK_CONFIGS)
def test_trial_work(name):
    cfg, period, folds = WORK_CONFIGS[name]
    work = trial_work(cfg)
    # No transform or tap response spans more than one period, no magnitude more than one
    # period (add_awgn squares one row) or one value per ccp window, no exp more than one symbol.
    for op, longest in (("fft", period), ("ifft", period), ("response", period),
                        ("abs", max(period, cfg.ccp_sweeps)), ("exp", ONE_SYMBOL)):
        assert max(calls(work, op), default=0) <= longest, \
            f"{op} calls by length {calls(work, op)}"
    exp_elements = sum(n * c for n, c in calls(work, "exp").items())
    assert exp_elements <= WIDELANE_EXP_ELEMENTS, f"{exp_elements} exp elements"
    assert not work.keys() & {"tile", "resize"}, work
    assert sum(calls(work, "fft").values()) == folds, f"fft calls by length {calls(work, 'fft')}"
    stored = json.loads(WORK_PATH.read_text(encoding="utf-8"))[name]
    assert not (delta := work_delta(stored, work)), f"{name}: " + "; ".join(delta)


def test_trial_work_file_is_in_canonical_form():
    text = WORK_PATH.read_text(encoding="utf-8")
    stored = json.loads(text)
    assert list(stored) == list(WORK_CONFIGS) and text == work_text(stored)
    assert all(type(n) is int and n >= 1 for vector in stored.values() for n in vector.values())


def test_dense_filter_holds_two_periods():
    assets = _Assets(FR1_WIDELANE)
    spectrum, rows = assets.cont_period
    channel = draw_channel(assets.profile, FR1_WIDELANE.geometry, 0)
    apply_channel(spectrum, rows, assets.num, channel)     # a warm-up outside the count
    peak = traced_peak(apply_channel, spectrum, rows, assets.num, channel)[1]
    assert (spectrum.size, rows) == (16 * ONE_SYMBOL, 1)
    assert peak <= 2 * spectrum.nbytes + DENSE_FILTER_OVERHEAD_BYTES, f"{peak} bytes"


@pytest.mark.parametrize("name", sorted(PEAK_MIB))
def test_trial_peak_memory(name):
    cfg, measured_mib = PEAK_MIB[name]
    run_trial(cfg, 0)
    peak_mib = traced_peak(run_trial, cfg, 1)[1] / MIB
    assert peak_mib <= measured_mib + PEAK_HEADROOM_MIB


def test_ccp_measure_memory_does_not_grow_with_the_span():
    assets = _build_assets(FR2_CCP)
    num = assets.num
    rx = ofdm_modulate(assets.column, num, FR2_CCP.n_symbols, CONTINUOUS).reshape(-1)   # a copy
    start, sweeps, shift = assets.windows["ccp"]
    peaks = []
    for stride in (shift // 4, shift):      # spans of 135,152 and 552,826 samples
        # An untraced warm-up per stride, so neither traced call is the first.
        ccp_measure(rx, num, assets.subcarrier, sweeps, stride, assets.ref_symbol, start)
        peaks.append(traced_peak(ccp_measure, rx, num, assets.subcarrier, sweeps, stride,
                                 assets.ref_symbol, start)[1])
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
    rx, peak = traced_peak(add_awgn, view, FR1_TOA.snr_db, 0)
    assert rx.nbytes == 128 * ONE_SYMBOL * 16
    assert peak <= rx.nbytes + STREAM_BLOCK * 8 + AWGN_OVERHEAD_BYTES, f"{peak} bytes"


def test_transmit_streams_hold_one_period():
    assets = _Assets(FR1_TOA)
    periods, peak = traced_peak(lambda: (assets.conv_period, assets.cont_period))
    assert [spectrum.size * rows for spectrum, rows in periods] == [128 * ONE_SYMBOL] * 2
    assert peak < STREAM_BUILD_BYTES, f"{peak} bytes"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writing_a_run_takes_memory_that_does_not_grow_with_its_trials(tmp_path, fmt):
    path, peaks = tmp_path / f"run.{fmt}", []
    for n in WRITE_TRIALS:    # a tenth of the trials fail with no range (a null record)
        cdfs = [CdfResult(m, tuple(MethodOutcome(None, None, "no_signal") if t % 10 == 0
                                   else MethodOutcome(t / 7, t) for t in range(n)))
                for m in METHODS]
        emit_results(cdfs, FR1_TOA, path, fmt)
        peaks.append(traced_peak(emit_results, cdfs, FR1_TOA, path, fmt)[1])
    assert peaks[1] <= peaks[0] + WRITE_SLACK_BYTES, f"{peaks} bytes"


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


# A fresh interpreter runs a dense widelane trial (two 70,144-bin tap responses) and a
# 128-symbol ia=toa trial, then sleeps.  A BLAS call on the trial path leaves OpenBLAS's
# worker threads spinning past it: 0.038 to 0.068 s of CPU in the 0.3 s sleep with the
# response as hi @ lo.T, under 0.001 s with einsum (2 CPUs, OpenBLAS 0.3.31).
SPIN_PROBE = """
import resource, time
from phasepos.harness import ScenarioConfig, run_trial
for kw in (dict(ambiguity="widelane", widelane_second_fc_hz=3.9e9, n_symbols=16),
           dict(ambiguity="toa", n_symbols=128)):
    run_trial(ScenarioConfig(band="FR1", ccp_sweeps=1000, **kw), 0)
before = resource.getrusage(resource.RUSAGE_SELF)
time.sleep(0.3)
after = resource.getrusage(resource.RUSAGE_SELF)
print(after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)
"""
SPIN_CPU_S = 0.02


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS threads need 2 CPUs")
def test_a_trial_leaves_no_blas_thread_spinning():
    env = {k: v for k, v in os.environ.items()      # BLAS at its default thread count
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(phasepos.__file__).parents[1])
    probe = subprocess.run([sys.executable, "-c", SPIN_PROBE], env=env, capture_output=True,
                           text=True, timeout=120)
    assert probe.returncode == 0, probe.stderr
    assert float(probe.stdout) < SPIN_CPU_S, f"{probe.stdout.strip()} s of CPU while asleep"


if __name__ == "__main__":     # PYTHONPATH=src python tests/test_budgets.py rewrites the file
    old = json.loads(WORK_PATH.read_text(encoding="utf-8")) if WORK_PATH.exists() else {}
    new = {name: trial_work(cfg) for name, (cfg, _, _) in WORK_CONFIGS.items()}
    for name in WORK_CONFIGS:
        for line in work_delta(old.get(name, {}), new[name]):
            print(name, line)
    WORK_PATH.write_text(work_text(new), encoding="utf-8")
