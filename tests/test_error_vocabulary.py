"""Every exported callable lets only the package's three errors escape.

Each number, sample-array and config-object parameter of each callable in
``__all__``, and of ``ChannelRealization.response``, is fed None, text, bools,
NaN, the infinities, ints past float range, a subnormal, and empty, 0-d, object
and wrongly shaped arrays, while its other arguments stay valid.  Whatever the
callable makes of the value, only ``ConfigError``, ``NoSignalError`` or
``ValueError`` may escape; the tests turn a warning into an error too
(pyproject's ``filterwarnings``).

Every refused argument is a row of ``REJECTED``: the callable, the arguments it
changes, the exact class raised and the start of its message.  The class is exact,
``type(exc) is cls``: ``ConfigError`` and numpy's own errors both subclass ``ValueError``,
so a bare ``ValueError`` check would pass when a check is gone and numpy fails later.  Each
rule has a row just past each of its bounds, a config object (a numerology, a channel, a
scenario) of the wrong kind is a ``ConfigError`` that names its parameter, and
every checked parameter has a row.  ``ccp_measure``'s rounding floor has a row for a
bin just under it, and a check that a bin just over it is measured.

Every record (dataclass) of the package binds its constructor's arguments by one
rule: an unknown keyword, a surplus positional value, a field given both ways
and a missing field are each a ``ConfigError``, while pickle, copy and
``dataclasses.replace`` rebuild the record as it was.  A record given its numbers
as numpy scalars or ``Fraction``s stores the Python ints and floats it stores
when given them plainly.
"""

import copy
import dataclasses
import decimal
import importlib
import math
import numbers
import os
import pickle
import pkgutil
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phasepos as pp
from phasepos import ConfigError, NoSignalError

NUM = pp.NumerologyConfig(3.8e9, 30e3, 64, 8, 48)
PRS = pp.PrsConfig(6, 0, 4, 7)
COLUMN = pp.generate_prs_column(PRS, NUM)
K = pp.middle_subcarrier(PRS, NUM)
STREAM = pp.ofdm_modulate(COLUMN, NUM, 4, pp.CONTINUOUS)
SPECTRUM = np.fft.fft(STREAM[0])
CHANNEL = pp.ChannelRealization(np.array([1.234e-7]), np.array([0.6 + 0.8j]))
IFC = pp.InterferometerConfig(0.5, 1.0)
FINE, COARSE = pp.phase_to_fraction(0.5, 3.9e9), pp.phase_to_fraction(-1.0, 3.8e9)
CFG = pp.ScenarioConfig(n_trials=1, n_symbols=8, ccp_sweeps=20)
KEPT, FAILED = pp.harness.MethodOutcome(0.1, 3), pp.harness._NO_SIGNAL
RESULTS = [pp.TrialResult(0, {"cp": KEPT})]
CDFS = [pp.CdfResult("cp", (KEPT,))]

# Each callable, with its other arguments bound, and a valid value of each of its
# number, sample-array and config-object parameters; None marks one that has none.
SIGNATURES = {
    "CarrierRange": (pp.CarrierRange, dict(wavelength_m=0.08, fractional_cycles=0.25,
                                           integer_cycles=3)),
    "CdfResult": (partial(pp.CdfResult, method="cp"), dict(outcomes=(KEPT, FAILED))),
    "ChannelRealization": (pp.ChannelRealization,
                           dict(delays_s=np.array([1e-7]), gains=np.array([1.0 + 0.0j]))),
    "ChannelRealization.response": (CHANNEL.response,
                                    dict(num=NUM, first_bin=-32, n_bins=64, spacing_hz=30e3)),
    "ConfigError": None,
    "Geometry": (pp.Geometry, dict(gnb_position_m=(0.0, 0.0, 10.0),
                                   ue_position_m=(20.0, 0.0, 1.5))),
    "InterferometerConfig": (pp.InterferometerConfig,
                             dict(antenna_spacing_m=0.5, wavelength_m=1.0)),
    "MethodOutcome": (pp.harness.MethodOutcome, dict(error_m=0.1, integer=3)),   # not exported
    "NoSignalError": None,
    "NumerologyConfig": (pp.NumerologyConfig,
                         dict(carrier_frequency_hz=3.8e9, scs_hz=30e3, n_fft=64, n_cp=8,
                              n_active_subcarriers=48)),
    "PhaseMeasurement": (pp.PhaseMeasurement, dict(phase_rad=0.5, circular_variance=0.1)),
    "PrsConfig": (pp.PrsConfig, dict(comb_size=6, comb_offset=0, n_symbols=4,
                                     sequence_seed=7)),
    "ScenarioConfig": (partial(pp.ScenarioConfig, ambiguity="widelane"),   # reads the carrier
                       dict(snr_db=10.0, n_trials=1, ccp_sweeps=20, n_symbols=8, master_seed=1,
                            comb_size=6, comb_offset=0, prs_seed=7,
                            widelane_second_fc_hz=3.9e9)),
    "ScenarioProfile": (partial(pp.ScenarioProfile, "InF-NLOS-S"),
                        dict(rms_delay_spread_s=60e-9, n_clutter_taps=12,
                             nlos_excess_delay_mean_s=50e-9)),
    "ToaMeasurement": (pp.ToaMeasurement, dict(toa_s=1e-7, peak_metric=1.0)),
    "TrialResult": (partial(pp.TrialResult, outcomes={}), dict(trial_index=0)),
    "add_awgn": (pp.add_awgn, dict(x=STREAM, snr_db=10.0, seed=0)),
    "aoa_from_phase_diff": (pp.aoa_from_phase_diff, dict(phase_diff_rad=0.5, config=IFC)),
    "apply_channel": (pp.apply_channel, dict(spectrum=SPECTRUM, rows=1, num=NUM, channel=CHANNEL)),
    "ccp_measure": (pp.ccp_measure, dict(rx=STREAM, num=NUM, subcarrier=K, n_sweeps=2,
                                         shift_samples=8, ref_symbol=COLUMN[K % NUM.n_fft],
                                         window_start=0)),
    "compute_cdf": (partial(pp.compute_cdf, method="cp"), dict(results=RESULTS)),
    "doppler_ppm": (pp.doppler_ppm, dict(speed_m_s=1.0)),
    "double_difference": (pp.double_difference, dict(phases_rad=np.zeros((2, 2)))),
    "draw_channel": (pp.draw_channel, dict(profile=pp.profile_preset("InF-LOS"),
                                           geometry=CFG.geometry, seed=0)),
    "emit_results": (partial(pp.emit_results, path=os.devnull, fmt="json"),
                     dict(cdfs=CDFS, cfg=CFG)),    # its path: tests/test_harness.py
    "estimate_toa": (pp.estimate_toa, dict(rx=STREAM, num=NUM, reference_spectrum=SPECTRUM)),
    "generate_prs_column": (pp.generate_prs_column, dict(prs=PRS, num=NUM)),
    "ia_search": (pp.ia_search, dict(fraction=FINE, center_m=10.0, half_width_m=1.0)),
    "load_config": None,          # its path: tests/test_harness.py
    "make_numerology": None,
    "middle_subcarrier": (pp.middle_subcarrier, dict(prs=PRS, num=NUM)),
    "ofdm_modulate": (pp.ofdm_modulate, dict(column=COLUMN, num=NUM, n_symbols=4)),
    "phase_diff_for_angle": (pp.phase_diff_for_angle, dict(angle_rad=0.5, config=IFC)),
    "phase_to_fraction": (pp.phase_to_fraction, dict(phase_rad=0.5, frequency_hz=3.8e9)),
    "profile_preset": (partial(pp.profile_preset, "InF-LOS"),
                       dict(rician_k_db=16.0, rms_delay_spread_s=30e-9, n_clutter_taps=12)),
    "run_scenario": (pp.run_scenario, dict(cfg=CFG, workers=1)),
    "run_trial": (pp.run_trial, dict(cfg=CFG, trial=0)),
    "virtual_wavelength": (pp.virtual_wavelength, dict(lambda1_m=0.079, lambda2_m=0.077)),
    "widelane_resolve": (pp.widelane_resolve, dict(range1=FINE, range2=COARSE, center_m=10.0)),
    "wrap_phase": (pp.wrap_phase, dict(phase=0.5)),
}
CASES = [(name, param) for name, sig in SIGNATURES.items() if sig for param in sig[1]]

# The values every case is fed, then hypothesis draws more of each sort.
LISTED = [None, "1", True, False, math.nan, math.inf, -math.inf, 10 ** 400, -(10 ** 400),
          1e-310, np.array([]), np.array(1.0), np.array([None, 1.0], dtype=object), np.ones((2, 3, 2))]
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
BAD = st.one_of(
    st.sampled_from(LISTED), st.none(), st.booleans(), st.text(max_size=3),
    st.integers(2 ** 1024, 2 ** 1100), st.integers(-(2 ** 1100), -(2 ** 1024)),
    hnp.arrays(np.float64, _SHAPES, elements=st.floats(-1e3, 1e3)),
    hnp.arrays(np.complex128, _SHAPES, elements=st.complex_numbers(max_magnitude=1e3)),
    hnp.arrays(np.int64, _SHAPES, elements=st.integers(-1000, 1000)),
    hnp.arrays(np.bool_, _SHAPES),
    hnp.arrays("U2", _SHAPES),
    hnp.arrays(object, _SHAPES, elements=st.one_of(st.none(), st.floats(), st.text(max_size=2))),
)


def test_every_exported_callable_is_listed():
    exported = {name for name in pp.__all__ if callable(getattr(pp, name))}
    assert set(SIGNATURES) == exported | {"ChannelRealization.response", "MethodOutcome"}


@pytest.mark.parametrize("name", [name for name, sig in SIGNATURES.items() if sig])
def test_the_valid_arguments_pass(name):
    call, valid = SIGNATURES[name]
    call(**valid)


def _with_listed_examples(test):
    for value in LISTED:
        test = example(value=value)(test)
    return test


@pytest.mark.parametrize("name,param", CASES, ids=[f"{n}-{p}" for n, p in CASES])
@settings(max_examples=10, deadline=None)
@given(value=BAD)
@_with_listed_examples
def test_a_bad_argument_raises_only_the_package_errors(name, param, value):
    call, valid = SIGNATURES[name]
    try:
        call(**{**valid, param: value})
    except (pp.ConfigError, pp.NoSignalError, ValueError):
        pass


# Each refused argument: (SIGNATURES name, the arguments it changes, the exact class raised,
# how its message begins).  A rule gets a row just past each of its bounds; ``_rows`` gives
# one row to each of several values that break one rule, and puts each in its prefix's {!r}.
NAN, INF, SEEDS = math.nan, math.inf, ("x", -1, 2.5, None, True)
above, below = (lambda x: math.nextafter(x, INF)), (lambda x: math.nextafter(x, -INF))


def _rows(name, param, values, prefix, cls=ConfigError):
    return [(name, {param: value}, cls, prefix.format(value)) for value in values]


# Finite arguments can overflow together: at the frequency grid's edges (a NaN response and
# a RuntimeWarning before they were checked) and at an IA window's (an OverflowError).
_EDGES = "2 pi (f_c + f) at the grid's edges must be finite"
_WINDOW = "center_m +- half_width_m in wavelengths must be finite"
_EMPTY = "must be a non-empty array of dtype kind in 'iufc', got 0 complex128 values"
_BEATLESS = "equal wavelengths have no beat (virtual wavelength diverges)"
_NO_BIN = "swept window saw an empty subcarrier bin"
# ccp_measure's rounding floor on its 72-sample span is eps 72 sqrt(64) |ref| a.  This stream's
# largest |rx| is a = 1, and both windows' DC bins are bin_sum / 8 |ref|, each summed exactly
# as 1 - 1 + bin_sum, so a bin_sum of FLOOR_SUM puts them on the floor.
FLOOR_SUM = np.finfo(np.float64).eps * 72 * 64


def dc_stream(bin_sum: float) -> np.ndarray:
    rx = np.zeros(288)
    rx[[0, 1, 10]] = 1.0, -1.0, bin_sum
    return rx


def spoiled(value: float) -> np.ndarray:
    """STREAM with its sample 3, which every window of the sweep reads, set to ``value``."""
    rx = STREAM.copy()
    rx[0, 3] = value
    return rx


REJECTED = [
    *_rows("CarrierRange", "wavelength_m", (0.0, -1.0, INF),
           "wavelength_m must be finite and positive, got {!r}"),
    ("CarrierRange", {"wavelength_m": "a"}, ConfigError, "wavelength_m must be a number, got 'a'"),
    *_rows("CarrierRange", "fractional_cycles", (below(0), above(1), 7.3, NAN),
           "fractional_cycles must be finite and in [0, 1], got {!r}"),
    *_rows("CarrierRange", "integer_cycles", (-1, 3.0),
           "integer_cycles must be an integer in [0, inf], got {!r}"),
    ("CdfResult", {"method": "xx"}, ConfigError,
     "method must be one of ('toa', 'cp', 'ccp'), got 'xx'"),
    *_rows("CdfResult", "outcomes", ([KEPT], None, 0), "outcomes must be a tuple, got {!r}"),
    *(("CdfResult", {"outcomes": outcomes}, ConfigError,   # each one, not only the first
       f"each outcome must be a MethodOutcome, got {outcomes[-1]!r}")
      for outcomes in ((0.1,), (KEPT, None), ((0.1, None),))),
    ("ChannelRealization", {"delays_s": np.array([1e-7, 2e-7])}, ConfigError,
     "delays_s and gains must have one entry per tap, got 2 delays and 1 gains"),
    ("ChannelRealization", {"delays_s": ("a", "b"), "gains": np.ones(2, complex)}, ConfigError,
     "delays_s must be a non-empty array of dtype kind in 'iuf', got 2 <U1 values"),
    ("ChannelRealization", {"delays_s": np.full((2, 2), 1e-7), "gains": np.ones((2, 2), complex)},
     ConfigError, "delays_s must be 1-D with at most 501 entries, got shape (2, 2)"),
    ("ChannelRealization", {"delays_s": np.zeros(502), "gains": np.ones(502, complex)},
     ConfigError, "delays_s must be 1-D with at most 501 entries, got shape (502,)"),
    ("ChannelRealization", {"delays_s": np.array([NAN])}, ConfigError,
     "delays_s must be finite, got nan"),
    ("ChannelRealization", {"gains": np.array([INF + 0j])}, ConfigError,
     "gains must be finite, got (inf+0j)"),
    ("ChannelRealization", {"gains": np.ones(502, complex)}, ConfigError,
     "gains must be 1-D with at most 501 entries, got shape (502,)"),
    *_rows("ChannelRealization.response", "first_bin", (NAN, INF),
           "first_bin must be finite and in [-inf, inf], got {!r}"),
    *_rows("ChannelRealization.response", "n_bins", (0, 2 ** 63),
           "n_bins must be an integer in [1, 9223372036854775807], got {!r}"),
    *_rows("ChannelRealization.response", "spacing_hz", (0.0, -1.0, NAN, INF),
           "spacing_hz must be finite and positive, got {!r}"),
    *_rows("ChannelRealization.response", "spacing_hz", ("1", None, True),
           "spacing_hz must be a number, got {!r}"),
    ("ChannelRealization.response", {"spacing_hz": 10 ** 400}, ConfigError,
     "spacing_hz must fit in a float, got "),
    *((("ChannelRealization.response", values, ConfigError, _EDGES) for values in (
        {"first_bin": 1e308}, {"first_bin": -1e308}, {"spacing_hz": 1e308},
        {"first_bin": -1, "n_bins": 2, "spacing_hz": 1e308},
        {"first_bin": 1e303, "spacing_hz": 1e5}))),
    ("Geometry", {"gnb_position_m": (0, 0, 0), "ue_position_m": (0, 0, 0)}, ConfigError,
     "positions must be finite and distinct, got (0.0, 0.0, 0.0) and (0.0, 0.0, 0.0)"),
    ("Geometry", {"gnb_position_m": (0, 0, -1.7e308), "ue_position_m": (0, 0, 1.7e308)},
     ConfigError, "positions must be finite and distinct, got "),   # the distance overflows
    ("Geometry", {"gnb_position_m": (INF, 0, 0), "ue_position_m": (INF, 0, 0)}, ConfigError,
     "positions must be finite and distinct, got "),
    *_rows("Geometry", "ue_position_m", ((NAN, 0, 0), (INF, 0, 0)),
           "positions must be finite and distinct, got "),
    ("Geometry", {"gnb_position_m": (0, 0), "ue_position_m": (3, 4)}, ConfigError,
     "gnb_position_m must be three coordinates, got (0, 0)"),
    *_rows("Geometry", "ue_position_m", ((3, 4, 0, 1), np.array(5.0), "abc", None),
           "ue_position_m must be three coordinates, got "),
    ("Geometry", {"gnb_position_m": ("a", 0, 0)}, ConfigError,
     "gnb_position_m must be a number, got 'a'"),
    *_rows("Geometry", "ue_position_m", ((True, 0, 0), np.ones((3, 1))),
           "ue_position_m must be a number, got "),
    ("Geometry", {"ue_position_m": (10 ** 400, 0, 0)}, ConfigError,
     "ue_position_m must fit in a float, got "),
    *_rows("InterferometerConfig", "antenna_spacing_m", (0.0, NAN, INF),
           "antenna_spacing_m must be finite and positive, got {!r}"),
    *_rows("InterferometerConfig", "wavelength_m", (-1.0, NAN, INF),
           "wavelength_m must be finite and positive, got {!r}"),
    *_rows("MethodOutcome", "error_m", ("0.1", True, None), "error_m must be a number, got {!r}"),
    ("MethodOutcome", {"error_m": 10 ** 400}, ConfigError, "error_m must fit in a float, got 1000"),
    *_rows("MethodOutcome", "integer", ("3", -1, True, 3.0),
           "integer must be an integer in [0, inf], got {!r}"),
    # A failure has a reason; a kept outcome's error is finite, a failed one's finite or NaN.
    *(("MethodOutcome", {"failure": reason}, ConfigError,
       f"a failure must be one of {pp.harness.FAILURE_REASONS} with a finite or NaN error_m, "
       f"got {reason!r} with 0.1") for reason in ("bogus", "", 3)),
    *_rows("MethodOutcome", "error_m", (NAN, INF, -INF),
           "error_m must be finite and in [-inf, inf], got {!r}"),
    *(("MethodOutcome", {"error_m": error, "failure": "wrong_integer"}, ConfigError,
       f"a failure must be one of {pp.harness.FAILURE_REASONS} with a finite or NaN error_m, "
       f"got 'wrong_integer' with {error!r}") for error in (INF, -INF)),
    *_rows("NumerologyConfig", "carrier_frequency_hz", ("3.8e9", True),
           "carrier_frequency_hz must be a number, got {!r}"),
    *_rows("NumerologyConfig", "carrier_frequency_hz", (NAN, INF),
           "carrier_frequency_hz must be finite and positive, got {!r}"),
    ("NumerologyConfig", {"carrier_frequency_hz": 960e3}, ConfigError,   # half the sample rate
     "carrier 960000 Hz must exceed half the sample rate, 960000 Hz"),
    ("NumerologyConfig", {"carrier_frequency_hz": 1e3}, ConfigError,
     "carrier 1000 Hz must exceed half the sample rate, 960000 Hz"),
    *_rows("NumerologyConfig", "scs_hz", (0.0, NAN, INF),
           "scs_hz must be finite and positive, got {!r}"),
    *_rows("NumerologyConfig", "n_fft", (0, 8.0, 2 ** 1024, 2 ** 1100),   # past float range
           "n_fft must be an integer in [1, 1.7976931348623157e+308], got {!r}"),
    ("NumerologyConfig", {"n_fft": 100}, ConfigError, "n_fft must be a power of two, got 100"),
    *_rows("NumerologyConfig", "n_cp", (-1, 64, 9.0),
           "n_cp must be an integer in [0, 63], got {!r}"),
    *_rows("NumerologyConfig", "n_active_subcarriers", (0, 64, 48.0),
           "n_active_subcarriers must be an integer in [1, 63], got {!r}"),
    ("PrsConfig", {"comb_size": 5}, ConfigError, "comb_size must be one of (2, 4, 6, 12), got 5"),
    ("PrsConfig", {"comb_size": 6.0}, ConfigError,
     "comb_size must be an integer in [-inf, inf], got 6.0"),
    *_rows("PrsConfig", "comb_offset", (-1, 6, 0.0),
           "comb_offset must be an integer in [0, 5], got {!r}"),
    *_rows("PrsConfig", "n_symbols", (0, 1.5),
           "n_symbols must be an integer in [1, inf], got {!r}"),
    *_rows("PrsConfig", "sequence_seed", (-1, "x"),
           "sequence_seed must be an integer in [0, inf], got {!r}"),
    # A row a field, a numpy scalar (which JSON cannot hold) past a bound; the config rules in
    # full are tests/test_harness.py's BAD_CONFIGS.
    *(("ScenarioConfig", {field: value}, ConfigError, prefix) for field, value, prefix in (
        ("snr_db", np.float64(above(300)), "snr_db must lie within +-300 dB or be +inf, got "),
        ("n_trials", np.int64(1_000_001), "n_trials must be an integer in [1, 1000000], got "),
        ("ccp_sweeps", np.int64(0), "ccp_sweeps must be an integer in [1, inf], got "),
        ("n_symbols", np.int64(1), "n_symbols must be an integer in [2, 1024], got "),
        ("master_seed", np.int64(-1), "master_seed must be an integer in [0, inf], got "),
        ("comb_size", np.int64(5), "comb_size must be one of (2, 4, 6, 12), got 5"),
        ("comb_offset", np.int64(6), "comb_offset must be an integer in [0, 5], got 6"),
        ("prs_seed", np.int64(-1), "prs_seed must be an integer in [0, inf], got "),
        ("widelane_second_fc_hz", np.float64(3.8e9),
         "widelane_second_fc_hz must differ from the band carrier"))),
    *_rows("ScenarioProfile", "rms_delay_spread_s", (0.0, INF),
           "rms_delay_spread_s must be finite and positive, got {!r}"),
    *_rows("ScenarioProfile", "n_clutter_taps", (0, 501),
           "n_clutter_taps must be an integer in [1, 500], got {!r}"),
    ("ScenarioProfile", {"nlos_excess_delay_mean_s": None}, ConfigError,
     "nlos_excess_delay_mean_s is required for NLOS kinds and does not apply to InF-LOS"),
    ("ScenarioProfile", {"rician_k_db": 10.0}, ConfigError,
     "rician_k_db is required for InF-LOS and applies to no NLOS kind"),
    *_rows("ScenarioProfile", "nlos_excess_delay_mean_s", ("x", False),
           "nlos_excess_delay_mean_s must be a number, got {!r}"),
    ("ScenarioProfile", {"nlos_excess_delay_mean_s": 0.0}, ConfigError,
     "nlos_excess_delay_mean_s must be finite and positive, got 0.0"),
    ("ScenarioProfile", {"nlos_excess_delay_mean_s": 10 ** 400}, ConfigError,
     "nlos_excess_delay_mean_s must fit in a float, got "),
    ("add_awgn", {"x": np.zeros(64, complex)}, NoSignalError,
     "cannot scale noise against a zero-power signal"),
    *(("add_awgn", {"x": x, "snr_db": snr_db}, ConfigError, "x " + _EMPTY)
      for x in (np.zeros(0, complex), np.zeros((3, 0), complex)) for snr_db in (10.0, INF)),
    *_rows("add_awgn", "x", (None, "abc", [None, 1.0], [True, False], np.array([1, 2], object)),
           "x must be a non-empty array of dtype kind in 'iufc', got "),
    ("add_awgn", {"x": np.array([1, NAN], complex)}, ValueError,
     "signal power is nan, not finite"),
    *_rows("add_awgn", "x", (np.array([1, INF], complex), np.full(2, 1e200, complex)),
           "signal power is inf, not finite", ValueError),   # the second overflows
    *_rows("add_awgn", "snr_db", (above(300), below(-300), 4000.0, -4000.0, NAN, -INF),
           "snr_db must lie within +-300 dB or be +inf, got {!r}"),
    ("add_awgn", {"snr_db": "10"}, ConfigError, "snr_db must be a number, got '10'"),
    *(("add_awgn", {"seed": seed, "snr_db": snr_db}, ConfigError,
       f"seed must be an integer in [0, inf], got {seed!r}") for seed in SEEDS
      for snr_db in (10.0, INF)),
    *_rows("aoa_from_phase_diff", "phase_diff_rad", (NAN, INF, -INF),
           "phase_diff_rad must be finite and in [-inf, inf], got {!r}"),
    *_rows("apply_channel", "rows", (0, -1, 2.5, True, None, "2"),
           "rows must be an integer in [1, inf], got {!r}"),
    ("apply_channel", {"spectrum": np.zeros(0, complex)}, ConfigError, "spectrum " + _EMPTY),
    ("ccp_measure", {"rx": np.zeros(288, complex)}, NoSignalError, _NO_BIN),
    ("ccp_measure", {"subcarrier": K + 1}, NoSignalError, _NO_BIN),   # noiseless, off the comb
    ("ccp_measure", {"rx": dc_stream(FLOOR_SUM * (1 - 1e-9)), "subcarrier": 0}, NoSignalError,
     _NO_BIN),   # test_a_bin_just_above_the_rounding_floor_is_measured is the other side
    *_rows("ccp_measure", "rx", (np.zeros(0, complex), np.zeros((3, 0), complex)), "rx " + _EMPTY),
    *_rows("ccp_measure", "rx", (spoiled(NAN), spoiled(INF)),
           "rx must be finite and sum to finite window bins"),
    *_rows("ccp_measure", "subcarrier", (25, -25, 1639, -1639, 3000, 10 ** 30, -10 ** 30, 2.9,
                                         True, "3"),   # 3000 would alias, 10 ** 30 overflow
           "subcarrier must be an integer in [-24, 24], got {!r}"),
    *_rows("ccp_measure", "n_sweeps", (0, 5.0),
           "n_sweeps must be an integer in [1, inf], got {!r}"),
    ("ccp_measure", {"n_sweeps": 30}, ValueError,   # one past the stream's end
     "sweep [0, 296) out of range for stream of 288 samples"),
    ("ccp_measure", {"n_sweeps": 300}, ValueError,
     "sweep [0, 2456) out of range for stream of 288 samples"),
    *_rows("ccp_measure", "shift_samples", (0, 10.0),
           "shift_samples must be an integer in [1, inf], got {!r}"),
    *(("ccp_measure", {"ref_symbol": value}, ConfigError,
       f"ref_symbol must be a non-empty array of dtype kind in 'iufc', got 1 {kind} values")
      for value, kind in ((None, "object"), ("1", "<U1"), (True, "bool"))),
    *(("ccp_measure", {"ref_symbol": value}, ConfigError,
       f"ref_symbol must be one finite non-zero number, got shape {shape}")
      for value, shape in (([1.0], (1,)), ((1 + 1j,), (1,)), ([[2.0]], (1, 1)), ([], (0,)))),
    *(("ccp_measure", {"ref_symbol": value}, ConfigError,   # not a NoSignalError
       f"|ref_symbol| must be finite and positive, got {shown}")
      for value, shown in ((0, "0"), (0j, "0.0"), (np.complex128(0), "0.0"), (NAN, "nan"))),
    *_rows("ccp_measure", "window_start", (-1, 72.0),
           "window_start must be an integer in [0, inf], got {!r}"),
    ("ccp_measure", {"window_start": 217}, ValueError,
     "sweep [217, 289) out of range for stream of 288 samples"),
    *_rows("doppler_ppm", "speed_m_s", (below(0), -1.0, NAN, INF),
           "speed_m_s must be finite and in [0, inf], got {!r}"),
    *_rows("doppler_ppm", "speed_m_s", (None, "1", True), "speed_m_s must be a number, got {!r}"),
    ("doppler_ppm", {"speed_m_s": 10 ** 400}, ConfigError, "speed_m_s must fit in a float, got "),
    ("double_difference", {"phases_rad": np.zeros((2, 3))}, ValueError,
     "phase matrix must be 2x2 [receivers x anchors], got (2, 3)"),
    ("double_difference", {"phases_rad": np.array([[0.0, NAN], [0.0, 0.0]])}, ValueError,
     "phase matrix contains a missing or non-finite entry"),
    ("double_difference", {"phases_rad": np.zeros((2, 2), complex)}, ConfigError,
     "phases_rad must be a non-empty array of dtype kind in 'iuf', got 4 complex128 values"),
    *_rows("draw_channel", "seed", SEEDS, "seed must be an integer in [0, inf], got {!r}"),
    ("estimate_toa", {"rx": np.zeros(288, complex)}, NoSignalError,   # no peak: all are equal
     "no correlation peak above the early-arrival threshold"),
    *_rows("estimate_toa", "rx", (spoiled(NAN), spoiled(INF)),
           "rx and reference_spectrum must give a finite cross spectrum"),
    ("estimate_toa", {"rx": None}, ConfigError,
     "rx must be a non-empty array of dtype kind in 'iufc', got 1 object values"),
    ("estimate_toa", {"rx": STREAM.reshape(-1)[:-1]}, ValueError,
     "287 received samples are no whole number of 288-sample periods"),
    ("estimate_toa", {"reference_spectrum": np.zeros(0, complex)}, ConfigError,
     "reference_spectrum " + _EMPTY),
    *_rows("ia_search", "half_width_m", (0.0, -1.0, NAN, INF),
           "half_width_m must be finite and positive, got {!r}"),
    *_rows("ia_search", "center_m", (NAN, INF, -INF),
           "center_m must be finite and in [-inf, inf], got {!r}"),
    ("ia_search", {"center_m": 1e308, "half_width_m": 1e308}, ConfigError, _WINDOW),
    ("ia_search", {"center_m": -1e308, "half_width_m": 1e308}, ConfigError, _WINDOW),
    ("ia_search", {"fraction": pp.CarrierRange(1e-300, 0.5), "center_m": 1e10}, ConfigError,
     _WINDOW),   # finite in metres, not in wavelengths
    *_rows("ofdm_modulate", "n_symbols", (0, 2.0),
           "n_symbols must be an integer in [1, inf], got {!r}"),
    ("ofdm_modulate", {"column": np.zeros(0, complex)}, ConfigError, "column " + _EMPTY),
    *_rows("ofdm_modulate", "column", (np.ones(63), np.ones(65)),
           "column must hold n_fft = 64 bins, got ", ValueError),
    *_rows("phase_diff_for_angle", "angle_rad", (NAN, INF),
           "angle_rad must be finite and in [-inf, inf], got {!r}"),
    *_rows("phase_to_fraction", "frequency_hz", (0.0, -1e9, NAN, INF),
           "frequency_hz must be finite and positive, got {!r}"),
    *_rows("phase_to_fraction", "phase_rad", (NAN, INF, -INF),
           "phase_rad must be finite and in [-inf, inf], got {!r}"),
    ("profile_preset", {"rician_k_db": None}, ConfigError,
     "rician_k_db is required for InF-LOS and applies to no NLOS kind"),
    *_rows("profile_preset", "rician_k_db", ("x", True), "rician_k_db must be a number, got {!r}"),
    ("profile_preset", {"rician_k_db": 10 ** 400}, ConfigError,
     "rician_k_db must fit in a float, got "),
    *_rows("profile_preset", "rician_k_db", (above(300), below(-300), 4000.0, -INF),
           "rician_k_db must lie within +-300 dB or be +inf, got {!r}"),
    *_rows("profile_preset", "rms_delay_spread_s", ("x", None),
           "rms_delay_spread_s must be a number, got {!r}"),
    ("profile_preset", {"rms_delay_spread_s": 10 ** 400}, ConfigError,
     "rms_delay_spread_s must fit in a float, got "),
    ("profile_preset", {"rms_delay_spread_s": 0.0}, ConfigError,
     "rms_delay_spread_s must be finite and positive, got 0.0"),
    *_rows("profile_preset", "n_clutter_taps", (0, 501, True),
           "n_clutter_taps must be an integer in [1, 500], got {!r}"),
    ("profile_preset", {"nlos_excess_delay_mean_s": 5e-8}, ConfigError,
     "nlos_excess_delay_mean_s is required for NLOS kinds and does not apply to InF-LOS"),
    *_rows("run_scenario", "workers", (0, 2.0),
           "workers must be an integer in [1, inf], got {!r}"),
    *_rows("run_trial", "trial", (-1, 0.5), "trial must be an integer in [0, inf], got {!r}"),
    *_rows("virtual_wavelength", "lambda1_m", (0.0, NAN),
           "lambda1_m must be finite and positive, got {!r}"),
    ("virtual_wavelength", {"lambda2_m": INF}, ConfigError,
     "lambda2_m must be finite and positive, got inf"),
    ("virtual_wavelength", {"lambda1_m": 0.1, "lambda2_m": 0.1}, ValueError, _BEATLESS),
    ("widelane_resolve", {"range2": FINE}, ValueError, _BEATLESS),
    ("widelane_resolve", {"center_m": NAN}, ConfigError,
     "center_m must be finite and in [-inf, inf], got nan"),
    ("widelane_resolve", {"center_m": 1e308}, ConfigError, _WINDOW),   # the fine search's window
    *_rows("wrap_phase", "phase", (None, "1", 1j, [True]),
           "phase must be a non-empty array of dtype kind in 'iuf', got "),
    # Arguments of the wrong kind, which raised AttributeError or TypeError before they were
    # checked: every config-object parameter fed None, an int, a mapping and a record no
    # callable takes, and the harness's result lists.
    *((name, {param: value}, ConfigError,
       f"{param} must be a {type(SIGNATURES[name][1][param]).__name__}, got {value!r}")
      for name, param in CASES if dataclasses.is_dataclass(SIGNATURES[name][1][param])
      for value in (None, 0, {"n_trials": 2}, pp.ToaMeasurement(1e-7, 1.0))),
    ("compute_cdf", {"results": None}, ConfigError, "results must be a list or tuple, got None"),
    ("compute_cdf", {"results": [1, 2]}, ConfigError, "each result must be a TrialResult, got 1"),
    ("emit_results", {"cdfs": [None]}, ConfigError, "each cdf must be a CdfResult, got None"),
    ("emit_results", {"fmt": "yaml"}, ConfigError, "unknown output format 'yaml'"),
]


def label(value) -> str:
    """``value`` as a short test id: an int past 20 digits by its leading digits, an array
    by its dtype and its values or, past four of them, its shape and its first non-finite
    value at its flat index, a record by its class (a ``MethodOutcome`` by its error and
    reason)."""
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) >= 10 ** 20:
        return format(decimal.Decimal(value), ".3g")    # repr refuses 4,300 digits and more
    if isinstance(value, np.ndarray):
        if value.size <= 4:
            return f"{value.dtype}:{label(value.tolist())}"
        bad = np.flatnonzero(~np.isfinite(value))[:1] if value.dtype.kind in "fc" else ()
        return f"{value.dtype}:{'x'.join(map(str, value.shape))}" + "".join(
            f":{value.flat[i].item()!r}@{i}" for i in bad)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k}:{label(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        inner = ",".join(map(label, value))
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    if isinstance(value, pp.harness.MethodOutcome):     # by the two fields its rules join
        return f"MethodOutcome({label(value.error_m)},{label(value.failure)})"
    return type(value).__name__ if dataclasses.is_dataclass(value) else repr(value)


def row_id(door: str, values: dict) -> str:
    """``<door>-<param>-<value>``, a part for each changed argument: ``-k window_start``
    selects every row of one parameter."""
    return "-".join([door, *(f"{param}-{label(value)}" for param, value in values.items())])


@pytest.mark.parametrize("name,values,cls,prefix", REJECTED,
                         ids=[row_id(name, values) for name, values, _, _ in REJECTED])
def test_a_rejected_argument_raises_its_exact_error(name, values, cls, prefix):
    call, valid = SIGNATURES[name]
    with pytest.raises(cls, match="^" + re.escape(prefix)) as raised:
        call(**{**valid, **values})
    assert type(raised.value) is cls     # a ValueError row fails on a ConfigError


def test_a_bin_just_above_the_rounding_floor_is_measured():
    call, valid = SIGNATURES["ccp_measure"]
    measured = call(**{**valid, "rx": dc_stream(FLOOR_SUM * (1 + 1e-9)), "subcarrier": 0})
    assert measured.phase_rad == pytest.approx(-np.angle(valid["ref_symbol"]), abs=1e-12)
    assert measured.circular_variance == 0.0


# The result records' fields that check nothing, and so store what they are given.
UNCHECKED = {("PhaseMeasurement", "phase_rad"), ("PhaseMeasurement", "circular_variance"),
             ("ToaMeasurement", "toa_s"), ("ToaMeasurement", "peak_metric"),
             ("TrialResult", "trial_index")}


def test_every_checked_parameter_has_a_row():
    pinned = {(name, param) for name, values, _, _ in REJECTED for param in values}
    assert set(CASES) - pinned == UNCHECKED


# The records' classes, by name; each is built from its valid arguments.
_CALLED = {name: getattr(sig[0], "func", sig[0]) for name, sig in SIGNATURES.items() if sig}
RECORDS = {name: cls for name, cls in _CALLED.items() if dataclasses.is_dataclass(cls)}


def test_every_record_is_listed():
    modules = [importlib.import_module(f"phasepos.{m.name}")
               for m in pkgutil.iter_modules(pp.__path__)]
    assert set(RECORDS) == {obj.__name__ for module in modules for obj in vars(module).values()
                            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                            and obj.__module__ == module.__name__}


def _built(name):
    """Record ``name`` built from its valid arguments, and its init fields by name in order."""
    call, valid = SIGNATURES[name]
    record = call(**valid)
    return record, {f.name: getattr(record, f.name) for f in dataclasses.fields(record) if f.init}


# Each misuse of a record's constructor, given a built record and its fields.
MISUSES = {
    "unknown": lambda record, kw: type(record)(**kw, bogus_key=1),
    "unknown-replace": lambda record, kw: dataclasses.replace(record, bogus_key=1),
    "surplus": lambda record, kw: type(record)(*kw.values(), None),
    "repeated": lambda record, kw: type(record)(next(iter(kw.values())), **kw),
    "missing": lambda record, kw: type(record)(**dict(list(kw.items())[1:])),   # the first
}
# A record that defaults every field (ScenarioConfig, PrsConfig) has none to miss.
MISUSE_CASES = [(name, form) for name, cls in RECORDS.items() for form in MISUSES
                if form != "missing" or any(f.default is f.default_factory is dataclasses.MISSING
                                            for f in dataclasses.fields(cls))]


@pytest.mark.parametrize("name,form", MISUSE_CASES, ids=[f"{n}-{f}" for n, f in MISUSE_CASES])
def test_a_misused_record_constructor_is_a_config_error(name, form):
    record, kw = _built(name)
    with pytest.raises(pp.ConfigError):
        MISUSES[form](record, kw)


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_pickle_copy_replace_and_positional_fields(name):
    record, kw = _built(name)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record),
                  dataclasses.replace(record), type(record)(*kw.values())):
        assert type(clone) is type(record) and repr(clone) == repr(record)


# Each form a number is given in but a Python int or float, at any depth of tuples.
FORMS = {"numpy": {int: np.int64, float: np.float64}, "fraction": {float: Fraction}}


def _given_as(value, form):
    if isinstance(value, tuple):
        return tuple(_given_as(v, form) for v in value)
    return FORMS[form].get(type(value), lambda v: v)(value)


def _stored(value):
    """``value``'s numbers with their exact types, at any depth of tuples."""
    if isinstance(value, tuple):
        return tuple(map(_stored, value))
    return (type(value), value) if isinstance(value, numbers.Number) else type(value)


@pytest.mark.parametrize("name,form", [(n, f) for n in RECORDS for f in FORMS],
                         ids=[f"{n}-{f}" for n in RECORDS for f in FORMS])
def test_a_record_stores_python_numbers(name, form):
    # A numpy scalar or a Fraction stored as given breaks float arithmetic and JSON.
    call, valid = SIGNATURES[name]
    plain = call(**valid)
    record = call(**{param: _given_as(value, form) for param, value in valid.items()})
    for param in valid.keys() - {p for n, p in UNCHECKED if n == name}:
        assert _stored(getattr(record, param)) == _stored(getattr(plain, param)), param


def test_the_binding_rule_names_the_fields():
    with pytest.raises(pp.ConfigError, match=re.escape(
            "config keys given by position and by keyword: ['wavelength_m']")):
        pp.CarrierRange(0.08, 0.25, wavelength_m=1.0)
    with pytest.raises(pp.ConfigError, match=re.escape(
            "missing config keys: ['fractional_cycles', 'wavelength_m']")):
        pp.CarrierRange()
    with pytest.raises(pp.ConfigError, match=re.escape("unknown config keys: ['fc']")):
        dataclasses.replace(pp.make_numerology("FR1"), fc=1)
    with pytest.raises(pp.ConfigError, match="^4 positional values for 3 fields$"):
        pp.CarrierRange(0.08, 0.25, 3, 4)
