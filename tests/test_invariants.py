"""End-to-end physics invariants of the assembled pipeline, through ``run_trial``.

Each test changes one thing a trial sees, the drawn channel (by wrapping
``harness.draw_channel``) or the geometry, and checks that every method's
outcome moves as the physics says:

- every tap gain x2 changes nothing: SNR is referenced to the received power;
- every gain x e^{j theta} moves the carrier-phase ranges by -theta lambda_eff / 2 pi
  and leaves TOA where it was;
- every delay + 1/fs moves TOA by c/fs;
- exchanging gNB and UE changes nothing;
- moving the UE lambda_eff along the gNB-UE line adds one integer cycle.

lambda_eff is the wavelength of the measured subcarrier, f_c + k scs.  The
scenario is short (16 symbols, 200 sweeps) and each test draws few examples,
so the five take a few seconds together.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepos import harness
from phasepos.channel import ChannelRealization, Geometry
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.harness import ScenarioConfig, run_trial
from phasepos.waveform import make_numerology

BASE = ScenarioConfig(n_symbols=16, ccp_sweeps=200)
BANDS = st.sampled_from(("FR1", "FR2"))
PROFILES = st.sampled_from(("InF-LOS", "InF-NLOS-S", "InF-NLOS-D"))
TRIALS = st.integers(0, 10_000)
PHASE_METHODS = ("cp", "ccp")
EXAMPLES = settings(max_examples=10, deadline=None)


def run_with_channel(cfg, trial, change):
    """``run_trial`` with the drawn channel passed through ``change``."""
    draw = harness.draw_channel
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "draw_channel", lambda *args: change(draw(*args)))
        return run_trial(cfg, trial)


def effective_wavelength(cfg):
    """Wavelength of the subcarrier the phase methods measure."""
    num = make_numerology(cfg.band)
    subcarrier = harness._build_assets(cfg).subcarrier
    return SPEED_OF_LIGHT / (num.carrier_frequency_hz + subcarrier * num.scs_hz)


@EXAMPLES
@given(band=BANDS, profile=PROFILES, trial=TRIALS)
def test_doubled_tap_gains_change_no_outcome(band, profile, trial):
    # Power-of-two scaling is exact, and the noise follows the received power.
    cfg = dataclasses.replace(BASE, band=band, profile=profile, ambiguity="toa", snr_db=10.0)
    doubled = run_with_channel(cfg, trial, lambda ch: ChannelRealization(ch.delays_s,
                                                                         ch.gains * 2.0))
    assert repr(doubled) == repr(run_trial(cfg, trial))


@EXAMPLES
@given(band=BANDS, profile=PROFILES, trial=TRIALS, theta=st.floats(-math.pi, math.pi))
def test_common_phase_moves_carrier_phase_ranges_only(band, profile, trial, theta):
    cfg = dataclasses.replace(BASE, band=band, profile=profile, snr_db=math.inf)
    base = run_trial(cfg, trial).outcomes
    turned = run_with_channel(cfg, trial, lambda ch: ChannelRealization(
        ch.delays_s, ch.gains * np.exp(1j * theta))).outcomes
    assert abs(turned["toa"].error_m - base["toa"].error_m) <= 1e-12
    wavelength = effective_wavelength(cfg)
    for m in PHASE_METHODS:     # the oracle may pick another integer: compare modulo lambda_eff
        moved = turned[m].error_m - base[m].error_m
        assert abs(math.remainder(moved + theta * wavelength / (2 * math.pi),
                                  wavelength)) <= 1e-12, m


@EXAMPLES
@given(band=BANDS, profile=PROFILES, trial=TRIALS)
def test_one_sample_of_delay_moves_toa_by_one_sample(band, profile, trial):
    # Not bit-exact: the fine TOA search rounds differently around the shifted peak.
    cfg = dataclasses.replace(BASE, band=band, profile=profile, methods=("toa",),
                              snr_db=math.inf)
    fs = make_numerology(band).sample_rate_hz
    late = run_with_channel(cfg, trial, lambda ch: ChannelRealization(ch.delays_s + 1.0 / fs,
                                                                      ch.gains))
    grown = late.outcomes["toa"].error_m - run_trial(cfg, trial).outcomes["toa"].error_m
    assert abs(grown - SPEED_OF_LIGHT / fs) <= 1e-11


@EXAMPLES
@given(band=BANDS, profile=PROFILES, trial=TRIALS)
def test_exchanging_gnb_and_ue_changes_no_outcome(band, profile, trial):
    cfg = dataclasses.replace(BASE, band=band, profile=profile, ambiguity="toa", snr_db=10.0)
    geo = cfg.geometry
    swapped = dataclasses.replace(cfg, geometry=Geometry(geo.ue_position_m, geo.gnb_position_m))
    assert repr(run_trial(swapped, trial)) == repr(run_trial(cfg, trial))


@EXAMPLES
@given(band=BANDS, trial=TRIALS)
def test_one_wavelength_further_is_one_more_integer(band, trial):
    # One noiseless direct path: the oracle integer is the only thing that moves.
    cfg = dataclasses.replace(BASE, band=band, methods=PHASE_METHODS, snr_db=math.inf,
                              profile_overrides={"rician_k_db": math.inf})
    gnb, ue = (np.array(p) for p in (cfg.geometry.gnb_position_m, cfg.geometry.ue_position_m))
    step = effective_wavelength(cfg) * (ue - gnb) / cfg.geometry.true_distance_m
    far = dataclasses.replace(cfg, geometry=Geometry(gnb, ue + step))
    near, further = run_trial(cfg, trial).outcomes, run_trial(far, trial).outcomes
    for m in PHASE_METHODS:
        assert further[m].integer == near[m].integer + 1, m
        assert max(abs(near[m].error_m), abs(further[m].error_m)) <= 1e-9, m
        assert near[m].failure is None and further[m].failure is None, m
