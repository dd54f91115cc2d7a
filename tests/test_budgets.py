"""Work and memory budgets of one 128-symbol trial.

Both 128-symbol streams repeat exactly (conventional every symbol,
continuous every n_fft samples), so the channel and the TOA correlator need
transforms and tap responses of one period only.  These tests hold the
simulator to that: a transform or a response over the whole 561,152-sample
stream, or one more full-length array alive at once, fails them.
"""

import tracemalloc

import numpy as np
import pytest

from phasepos.channel import ChannelRealization
from phasepos.harness import ScenarioConfig, run_trial
from phasepos.waveform import make_numerology

FR1_TOA = ScenarioConfig(band="FR1", methods=("toa", "cp", "ccp"), ambiguity="toa",
                         n_symbols=128, ccp_sweeps=1000)
FR2_CCP = ScenarioConfig(band="FR2", methods=("ccp",), ambiguity="oracle",
                         n_symbols=128, ccp_sweeps=8192)
ONE_SYMBOL = make_numerology("FR1").symbol_samples      # 4,384 samples, FR1 and FR2 alike

MIB = 2 ** 20
# tracemalloc peak of one trial after a warm-up trial, measured with
# numpy 2.4 (FR1: 46.9 MiB, FR2: 38.1 MiB), plus a headroom of under half
# of one 8.6 MiB stream, so one more full-length array alive at the peak fails.
PEAK_HEADROOM_MIB = 4.0
PEAK_MIB = {"FR1 toa+cp+ccp": (FR1_TOA, 46.9), "FR2 ccp 8192 sweeps": (FR2_CCP, 38.1)}


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


@pytest.mark.parametrize("cfg", [FR1_TOA, FR2_CCP], ids=["FR1-toa", "FR2-ccp"])
def test_tap_response_is_evaluated_on_one_period(monkeypatch, cfg):
    sizes = []
    response = ChannelRealization.response

    def counted(self, num, baseband_hz):
        sizes.append(np.size(baseband_hz))
        return response(self, num, baseband_hz)

    monkeypatch.setattr(ChannelRealization, "response", counted)
    run_trial(cfg, 0)
    assert sizes, "the trial evaluated no tap response"
    assert max(sizes) <= ONE_SYMBOL, f"response sizes {sizes}"


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
