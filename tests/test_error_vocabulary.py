"""Every exported callable lets only the package's three errors escape.

Each number and sample-array parameter of each callable in ``__all__``, and
of ``ChannelRealization.response``, is fed None, text, bools, NaN, the
infinities, ints past float range, a subnormal, and empty, 0-d, object and wrongly shaped
arrays, while its other arguments stay valid.  Whatever the callable makes of
the value, only ``ConfigError``, ``NoSignalError`` or ``ValueError`` may
escape; the tests turn a warning into an error too (pyproject's
``filterwarnings``).  Config objects (a numerology, a channel, a scenario)
are held valid: their own fields are parameters of their own constructors.
The harness's scenario, trial-result and CDF parameters are fed the same
values, and a value of the wrong kind there is a ``ConfigError``.

Every record (dataclass) of the package binds its constructor's arguments by one
rule: an unknown keyword, a surplus positional value, a field given both ways
and a missing field are each a ``ConfigError``, while pickle, copy and
``dataclasses.replace`` rebuild the record as it was.
"""

import copy
import dataclasses
import importlib
import math
import os
import pickle
import pkgutil
import re
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import phasepos as pp

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
RESULTS = [pp.TrialResult(0, {"cp": pp.harness.MethodOutcome(0.1, 3)})]
CDFS = [pp.CdfResult("cp", np.array([0.1]), ())]

# Each callable, with its config objects bound, and a valid value of each of
# its number and sample-array parameters; None marks one that has none.
SIGNATURES = {
    "CarrierRange": (pp.CarrierRange, dict(wavelength_m=0.08, fractional_cycles=0.25,
                                           integer_cycles=3)),
    "CdfResult": (partial(pp.CdfResult, method="cp"),
                  dict(abs_errors_m=np.array([0.1]), failures=())),
    "ChannelRealization": (pp.ChannelRealization,
                           dict(delays_s=np.array([1e-7]), gains=np.array([1.0 + 0.0j]))),
    "ChannelRealization.response": (partial(CHANNEL.response, NUM),
                                    dict(first_bin=-32, n_bins=64, spacing_hz=30e3)),
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
    "aoa_from_phase_diff": (partial(pp.aoa_from_phase_diff, config=IFC),
                            dict(phase_diff_rad=0.5)),
    "apply_channel": (partial(pp.apply_channel, num=NUM, channel=CHANNEL),
                      dict(spectrum=SPECTRUM, rows=1)),
    "ccp_measure": (partial(pp.ccp_measure, num=NUM),
                    dict(rx=STREAM, subcarrier=K, n_sweeps=2, shift_samples=8,
                         ref_symbol=COLUMN[K % NUM.n_fft], window_start=0)),
    "compute_cdf": (partial(pp.compute_cdf, method="cp"), dict(results=RESULTS)),
    "doppler_ppm": (pp.doppler_ppm, dict(speed_m_s=1.0)),
    "double_difference": (pp.double_difference, dict(phases_rad=np.zeros((2, 2)))),
    "draw_channel": (partial(pp.draw_channel, pp.profile_preset("InF-LOS"), CFG.geometry),
                     dict(seed=0)),
    "emit_results": (partial(pp.emit_results, path=os.devnull, fmt="json"),
                     dict(cdfs=CDFS, cfg=CFG)),    # its path: tests/test_harness.py
    "estimate_toa": (partial(pp.estimate_toa, num=NUM),
                     dict(rx=STREAM, reference_spectrum=SPECTRUM)),
    "generate_prs_column": None,
    "ia_search": (partial(pp.ia_search, FINE), dict(center_m=10.0, half_width_m=1.0)),
    "load_config": None,          # its path: tests/test_harness.py
    "make_numerology": None,
    "middle_subcarrier": None,
    "ofdm_modulate": (partial(pp.ofdm_modulate, num=NUM), dict(column=COLUMN, n_symbols=4)),
    "phase_diff_for_angle": (partial(pp.phase_diff_for_angle, config=IFC),
                             dict(angle_rad=0.5)),
    "phase_to_fraction": (pp.phase_to_fraction, dict(phase_rad=0.5, frequency_hz=3.8e9)),
    "profile_preset": (partial(pp.profile_preset, "InF-LOS"),
                       dict(rician_k_db=16.0, rms_delay_spread_s=30e-9, n_clutter_taps=12)),
    "run_scenario": (pp.run_scenario, dict(cfg=CFG, workers=1)),
    "run_trial": (pp.run_trial, dict(cfg=CFG, trial=0)),
    "virtual_wavelength": (pp.virtual_wavelength, dict(lambda1_m=0.079, lambda2_m=0.077)),
    "widelane_resolve": (partial(pp.widelane_resolve, FINE, COARSE), dict(center_m=10.0)),
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


# Harness arguments of the wrong kind that raised TypeError or AttributeError before
# they were checked, and the argument each message names.
WRONG_KINDS = [
    (lambda: pp.compute_cdf(None, "cp"), "results"),
    (lambda: pp.compute_cdf([1, 2], "cp"), "each result"),
    (lambda: pp.emit_results([None], CFG, os.devnull), "each cdf"),
    (lambda: pp.emit_results([], None, os.devnull, "json"), "cfg"),
    (lambda: pp.run_trial(None, 0), "cfg"),
    (lambda: pp.run_scenario({"n_trials": 2}, 1), "cfg"),
]


@pytest.mark.parametrize("call,name", WRONG_KINDS,
                         ids=["compute_cdf-None", "compute_cdf-ints", "emit_results-cdfs",
                              "emit_results-cfg", "run_trial", "run_scenario"])
def test_a_harness_argument_of_the_wrong_kind_is_a_config_error(call, name):
    with pytest.raises(pp.ConfigError, match=f"^{name} must be a "):
        call()


# Finite arguments whose combination overflows: the grid's carrier-plus-bin
# frequency (a NaN response and a RuntimeWarning before it was checked) and
# an IA window's edge (an OverflowError before).
FINITE_EXTREMES = [
    ("ChannelRealization.response", dict(first_bin=1e308)),
    ("ChannelRealization.response", dict(first_bin=-1e308)),
    ("ChannelRealization.response", dict(spacing_hz=1e308)),
    ("ChannelRealization.response", dict(first_bin=-1, n_bins=2, spacing_hz=1e308)),
    ("ChannelRealization.response", dict(first_bin=1e303, spacing_hz=1e5)),
    ("ia_search", dict(center_m=1e308, half_width_m=1e308)),
    ("ia_search", dict(center_m=-1e308, half_width_m=1e308)),
    ("widelane_resolve", dict(center_m=1e308)),
]


@pytest.mark.parametrize("name,values", FINITE_EXTREMES,
                         ids=[f"{n}-{v}" for n, v in FINITE_EXTREMES])
def test_finite_arguments_that_overflow_together_are_a_config_error(name, values):
    call, valid = SIGNATURES[name]
    with pytest.raises(pp.ConfigError):
        call(**{**valid, **values})


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
