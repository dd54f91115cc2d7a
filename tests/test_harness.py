import concurrent.futures
import copy
import dataclasses
import functools
import json
import math
import multiprocessing
import os
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepos import cli, harness
from phasepos.ambiguity import IA_MODES
from phasepos.channel import Geometry, profile_preset
from phasepos.errors import MAX_ABS_DB, ConfigError, NoSignalError
from phasepos.harness import (METHODS, CdfResult, MethodOutcome, ScenarioConfig, TrialResult,
                              compute_cdf, config_to_dict, emit_results, load_config,
                              run_scenario, run_trial)

# Small, fast scenario used by the mechanics tests: accuracy is irrelevant
# here, only plumbing and determinism.
FAST = ScenarioConfig(n_trials=3, methods=("toa", "cp", "ccp"), n_symbols=8,
                      ccp_sweeps=50, master_seed=123)


def make_results(errors, failures=None):
    failures = failures or [None] * len(errors)
    return [TrialResult(i, {"cp": MethodOutcome(e, None, f)})
            for i, (e, f) in enumerate(zip(errors, failures))]


# ------------------------------------------------------------------ validation

def test_default_config_validates():
    ScenarioConfig()


# Each bad change to the default config, and how the message it raises begins.
BAD_CHANGES = [
    ({"band": "FR9"}, "unknown band 'FR9'"),
    ({"profile": "InH-Office"}, "unknown profile kind 'InH-Office'"),
    ({"n_trials": 0}, "n_trials must be an integer in [1, 1000000]"),
    ({"methods": ()}, "methods must be a nonempty list"),
    ({"methods": ("toa", "doppler")}, "methods must be a nonempty list"),
    ({"methods": ("toa", "toa")}, "methods must be a nonempty list"),
    ({"ambiguity": "fuzzy"}, "ambiguity mode must be one of"),
    ({"ambiguity": "widelane"}, "widelane_second_fc_hz must be set if and only if"),   # no carrier
    ({"ccp_sweeps": 0}, "ccp_sweeps must be an integer in [1, inf]"),
    ({"n_symbols": 1}, "n_symbols must be an integer in [2, 1024]"),
    ({"widelane_second_fc_hz": 0.0}, "widelane_second_fc_hz must be finite and positive"),
    ({"profile_overrides": (("k_factor", 3.0),)}, "unknown profile overrides: ['k_factor']"),
    ({"n_symbols": 2, "ccp_sweeps": 290}, "290 sweeps do not fit"),   # one past the stream end
    ({"n_symbols": 8, "ccp_sweeps": 100000}, "100000 sweeps do not fit"),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 3.8e9},   # the FR1 carrier: no beat
     "widelane_second_fc_hz must differ from the band carrier"),
    ({"profile_overrides": (("rms_delay_spread_s", -1.0),)}, "rms_delay_spread_s must be finite"),
    ({"n_trials": "5"}, "n_trials must be an integer"),
    ({"n_trials": 2.5}, "n_trials must be an integer"),
    ({"n_trials": True}, "n_trials must be an integer"),
    ({"master_seed": -1}, "master_seed must be an integer in [0, inf]"),
    ({"snr_db": float("nan")}, "snr_db must lie within +-300 dB"),
    ({"snr_db": float("-inf")}, "snr_db must lie within +-300 dB"),
    ({"snr_db": "10"}, "snr_db must be a number"),
    ({"widelane_second_fc_hz": float("inf")}, "widelane_second_fc_hz must be finite"),
    ({"geometry": Geometry((0, 0, 0), (1700, 0, 0))},   # past FR1 comb-6 TOA range
     "UE at 1700 m plus the channel's delay"),
    ({"band": "FR2", "geometry": Geometry((0, 0, 0), (430, 0, 0))},
     "UE at 430 m plus the channel's delay"),
    ({"profile_overrides": (("kind", "InF-NLOS-S"),)}, "unknown profile overrides: ['kind']"),
    ({"profile_overrides": (("nlos_excess_delay_mean_s", 50e-9),)},   # LOS reads no excess
     "nlos_excess_delay_mean_s is required for NLOS kinds"),
    ({"profile": "InF-NLOS-S", "profile_overrides": (("rician_k_db", 10.0),)},
     "rician_k_db is required for InF-LOS"),
    ({"profile_overrides": (("rms_delay_spread_s", 1e300),)},   # spread past the comb range
     "UE at 24.1299 m plus the channel's delay"),
    ({"profile": "InF-NLOS-D", "profile_overrides": (("nlos_excess_delay_mean_s", 1e-5),)},
     "UE at 24.1299 m plus the channel's delay"),
    ({"profile_overrides": (("n_clutter_taps", 10_000_000),)},   # past TR 38.901's 500 rays
     "n_clutter_taps must be an integer in [1, 500]"),
    ({"snr_db": 5000.0}, "snr_db must lie within +-300 dB"),
    ({"snr_db": -5000.0}, "snr_db must lie within +-300 dB"),
    ({"n_symbols": 1025}, "n_symbols must be an integer in [2, 1024]"),   # past MAX_SYMBOLS
    ({"profile": ["InF-LOS"]}, "unknown profile kind ['InF-LOS']"),
    ({"methods": ["toa", "toa"]}, "methods must be a nonempty list"),
    ({"methods": "toa"}, "methods must be a nonempty list"),
    ({"methods": {"toa": 1}}, "methods must be a nonempty list"),
    ({"profile_overrides": {"rms_delay_spread_s": -1.0}}, "rms_delay_spread_s must be finite"),
    ({"profile_overrides": {1: 4e-8}}, "profile_overrides must map each"),
    ({"profile_overrides": (1, 2)}, "profile_overrides must map each"),
    ({"profile_overrides": [("rms_delay_spread_s", 4e-8)]}, "profile_overrides must map each"),
    ({"geometry": {"gnb_position_m": (0, 0), "ue_position_m": (3, 4)}},   # 2-D
     "gnb_position_m must be three coordinates"),
    ({"geometry": {"gnb_position_m": (0, 0, 0)}}, "geometry must be a Geometry or a mapping"),
    ({"geometry": {"gnb_position_m": (0, 0, 0), "ue_position_m": (20, 0, 0), "x": 1}},
     "geometry must be a Geometry or a mapping"),
    ({"geometry": ((0, 0, 0), (20, 0, 0))}, "geometry must be a Geometry or a mapping"),
    ({"snr_db": 10 ** 400}, "snr_db must fit in a float"),
    ({"widelane_second_fc_hz": 10 ** 400}, "widelane_second_fc_hz must fit in a float"),
    ({"profile_overrides": {"rms_delay_spread_s": 10 ** 400}},
     "rms_delay_spread_s must fit in a float"),
    ({"profile_overrides": {"rician_k_db": 10 ** 400}}, "rician_k_db must fit in a float"),
    ({"profile": "InF-NLOS-S", "profile_overrides": {"nlos_excess_delay_mean_s": 10 ** 400}},
     "nlos_excess_delay_mean_s must fit in a float"),
    ({"band": " FR1"}, "unknown band ' FR1'"),
    ({"band": 3}, "unknown band 3"),
    ({"profile_overrides": (("rms_delay_spread_s", 1e-8), ("rms_delay_spread_s", 2e-8))},
     "profile_overrides must map each"),
    ({"profile_overrides": {"rician_k_db": float("-inf")}},   # no direct path is not pure LOS
     "rician_k_db must lie within +-300 dB"),
    ({"profile_overrides": {"rician_k_db": 4000.0}},          # 10 ** (K / 10) overflows
     "rician_k_db must lie within +-300 dB"),
    ({"profile_overrides": {"rician_k_db": -300.5}}, "rician_k_db must lie within +-300 dB"),
    ({"ambiguity": "widelane", "comb_offset": 5, "widelane_second_fc_hz": 1000.0},
     "widelane_second_fc_hz: carrier 1000 Hz must exceed half the sample rate"),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 61.44e6},   # exactly half of FR1's
     "widelane_second_fc_hz: carrier 6.144e+07 Hz must exceed half the sample rate"),
    ({"n_trials": 1_000_001}, "n_trials must be an integer in [1, 1000000]"),   # past MAX_TRIALS
]


@pytest.mark.parametrize("changes,message", BAD_CHANGES,
                         ids=[f"changes{i}" for i in range(len(BAD_CHANGES))])
def test_bad_config_rejected(changes, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        dataclasses.replace(ScenarioConfig(), **changes)


@pytest.mark.parametrize("kind,overrides", [
    ("InF-LOS", {"rician_k_db": "x"}),
    ("InF-LOS", {"rician_k_db": True}),
    ("InF-LOS", {"rms_delay_spread_s": "x"}),
    ("InF-LOS", {"rms_delay_spread_s": None}),
    ("InF-LOS", {"n_clutter_taps": True}),
    ("InF-LOS", {"n_clutter_taps": 501}),
    ("InF-NLOS-S", {"nlos_excess_delay_mean_s": "x"}),
    ("InF-NLOS-D", {"nlos_excess_delay_mean_s": False}),
    ("InF-LOS", {"rms_delay_spread_s": 10 ** 400}),
    ("InF-LOS", {"rician_k_db": 10 ** 400}),
    ("InF-NLOS-S", {"nlos_excess_delay_mean_s": 10 ** 400}),
])
def test_profile_override_of_wrong_type_rejected(kind, overrides):
    # Library callers get ConfigError too, not only load_config.
    with pytest.raises(ConfigError):
        profile_preset(kind, **overrides)
    with pytest.raises(ConfigError):
        ScenarioConfig(profile=kind, profile_overrides=tuple(overrides.items()))


@pytest.mark.parametrize("band,distance_m", [("FR1", 1600.0), ("FR2", 400.0)])
def test_ue_inside_comb_range_accepted(band, distance_m):
    cfg = ScenarioConfig(band=band, methods=("toa",), n_symbols=8, snr_db=float("inf"),
                         geometry=Geometry((0, 0, 0), (distance_m, 0, 0)))
    assert abs(run_trial(cfg, 0).outcomes["toa"].error_m) < 1.0


def test_sweep_filling_the_stream_runs():
    # 288 one-sample shifts end the last window exactly on the stream end.
    cfg = ScenarioConfig(n_trials=1, methods=("cp", "ccp"), n_symbols=2, ccp_sweeps=289)
    r = run_trial(cfg, 0)
    assert all(np.isfinite(o.error_m) for o in r.outcomes.values())


def test_config_dict_round_trip():
    cfg = dataclasses.replace(ScenarioConfig(), n_trials=7, snr_db=3.0,
                              profile_overrides=(("rician_k_db", 20.0),))
    assert ScenarioConfig(**config_to_dict(cfg)) == cfg


def test_numbers_of_other_types_are_stored_as_python_numbers(tmp_path):
    # numpy and Fraction values pass the number checks; the config keeps what
    # the checks return, so it writes the JSON of the plain int/float config.
    plain = ScenarioConfig(n_trials=2, n_symbols=8, ccp_sweeps=50, methods=("cp",),
                           ambiguity="widelane", widelane_second_fc_hz=3.9e9,
                           comb_offset=1, profile_overrides={
                               "rician_k_db": 20.0, "n_clutter_taps": 9,
                               "rms_delay_spread_s": 2.0 ** -25})
    other = ScenarioConfig(n_trials=np.int64(2), n_symbols=np.int32(8), ccp_sweeps=np.uint16(50),
                           methods=("cp",), ambiguity="widelane",
                           widelane_second_fc_hz=np.float32(3.9e9),
                           snr_db=np.float32(10.0), master_seed=np.int64(20260815),
                           comb_size=np.int64(6), comb_offset=np.int8(1), prs_seed=np.uint8(7),
                           profile_overrides={"rician_k_db": np.float32(20.0),
                                              "n_clutter_taps": np.int64(9),
                                              "rms_delay_spread_s": Fraction(1, 2 ** 25)})
    texts = []
    for name, cfg in (("plain", plain), ("other", other)):
        emit_results([], cfg, str(tmp_path / f"{name}.json"), "json")
        texts.append((tmp_path / f"{name}.json").read_text())
    assert texts[0] == texts[1]
    (tmp_path / "config.json").write_text(json.dumps(json.loads(texts[1])["config"]))
    assert load_config(str(tmp_path / "config.json")) == plain


def test_library_constructor_takes_the_json_shapes():
    raw = {"methods": ["toa", "cp"], "n_symbols": 8, "ccp_sweeps": 50,
           "geometry": {"gnb_position_m": [0, 0, 0], "ue_position_m": [3, 4, 0]},
           "profile_overrides": {"rms_delay_spread_s": 4e-8, "n_clutter_taps": 9}}
    cfg = ScenarioConfig(**raw)
    assert cfg == dataclasses.replace(ScenarioConfig(), **raw)
    assert cfg.methods == ("toa", "cp")
    assert cfg.geometry == Geometry((0.0, 0.0, 0.0), (3.0, 4.0, 0.0))
    assert cfg.profile_overrides == (("n_clutter_taps", 9), ("rms_delay_spread_s", 4e-8))
    assert set(run_trial(cfg, 0).outcomes) == {"toa", "cp"}


def test_config_from_dict_rejects_unknown_keys():
    # A mapping with an unknown key is a ConfigError from the constructor itself.
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"n_trials": 5, "bogus": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"ccp_shift": 1})    # the sweep spacing follows from the stream
    with pytest.raises(ConfigError, match="unknown config keys"):
        ScenarioConfig(**{"toa_sigma_s": 1e-9})   # the IA windows follow from the wavelengths
    with pytest.raises(ConfigError, match="unknown config keys"):
        ScenarioConfig(**{"k_sigma": 3.0})        # an old config fails loudly, not silently
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"geometry": {"gnb_position_m": [0, 0, 1],
                                        "ue_position_m": [1, 0, 1],
                                        "extra": 2}})


def test_scenario_config_has_no_k_sigma():
    # The IA windows follow from the wavelengths alone; no field is left to tune them.
    assert "k_sigma" not in {f.name for f in dataclasses.fields(ScenarioConfig)}
    message = re.escape("unknown config keys: ['k_sigma']")
    with pytest.raises(ConfigError, match=message):
        ScenarioConfig(k_sigma=3.0)
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ScenarioConfig(), k_sigma=3.0)


def test_positional_misuse_is_a_config_error():
    # The fields in order take positional values; a repeat or a surplus is named, not a
    # TypeError.  Pickle and copy build a config with no arguments.
    assert ScenarioConfig("fr2", "InF-NLOS-S", 5.0) == ScenarioConfig(
        band="FR2", profile="InF-NLOS-S", snr_db=5.0)
    with pytest.raises(ConfigError, match=re.escape("by position and by keyword: ['band']")):
        ScenarioConfig("FR1", band="FR2")
    with pytest.raises(ConfigError, match="^16 positional values for 15 fields$"):
        ScenarioConfig(*(getattr(FAST, f.name) for f in dataclasses.fields(FAST)), None)
    assert pickle.loads(pickle.dumps(FAST)) == copy.copy(FAST) == copy.deepcopy(FAST) == FAST


def test_config_from_dict_rejects_malformed_values():
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"methods": 5})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"profile_overrides": [["rician_k_db", 3.0]]})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"geometry": {"gnb_position_m": [0, 0, 1],
                                        "ue_position_m": [0, 0, 1]}})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"geometry": {"gnb_position_m": [0, 0, 1],
                                        "ue_position_m": [float("nan"), 0, 1]}})
    with pytest.raises(ConfigError):
        ScenarioConfig(**{"snr_db": 10 ** 400})
    with pytest.raises(ConfigError,
                       match=r"^n_trials must be an integer in \[1, 1000000\], got 0$"):
        ScenarioConfig(**{"n_trials": 0})   # raised by the config itself, not re-wrapped


def test_a_negative_prs_seed_is_named_as_the_config_field():
    # PrsConfig, which the harness builds from it, calls the seed sequence_seed.
    with pytest.raises(ConfigError, match=r"^prs_seed must be an integer in \[0, inf\], got -1$"):
        ScenarioConfig(prs_seed=-1)


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
                  st.lists(st.integers(), max_size=3))
_COORDS = st.lists(st.one_of(st.integers(), st.floats()), max_size=4)
_PLAUSIBLE = {
    "band": st.sampled_from(["FR1", "fr2", "FR9"]),
    "profile": st.sampled_from(["InF-LOS", "InF-NLOS-S", "InF-NLOS-D", "InH"]),
    "methods": st.lists(st.sampled_from(["toa", "cp", "ccp", "sonar"]), max_size=4),
    "ambiguity": st.sampled_from(["oracle", "toa", "widelane", "fuzzy"]),
    "geometry": st.fixed_dictionaries({"gnb_position_m": _COORDS, "ue_position_m": _COORDS}),
    "profile_overrides": st.dictionaries(
        st.sampled_from(["rician_k_db", "rms_delay_spread_s", "n_clutter_taps",
                         "nlos_excess_delay_mean_s", "kind", "k_factor"]), _JUNK, max_size=3),
}


@pytest.mark.parametrize("build", [lambda raw: ScenarioConfig(**raw),
                                   lambda raw: dataclasses.replace(ScenarioConfig(), **raw)],
                         ids=["ScenarioConfig", "replace"])
@settings(max_examples=400, deadline=None)
@given(raw=st.fixed_dictionaries({}, optional={
    f.name: st.one_of(_JUNK, _PLAUSIBLE.get(f.name, _JUNK))
    for f in dataclasses.fields(ScenarioConfig)}))
@example(raw={"geometry": {"gnb_position_m": [0, 0, 0],        # squared length overflows
                           "ue_position_m": [0, 0, 1.3407807929942597e154]}})
def test_config_from_dict_raises_only_config_error(build, raw):
    try:
        cfg = build(raw)
    except ConfigError:
        return
    assert dataclasses.replace(cfg) == cfg
    hash(cfg)   # trials cache their assets by config


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_trials": 9, "band": "FR2", "methods": ["cp"]}))
    cfg = load_config(str(p))
    assert cfg.n_trials == 9 and cfg.band == "FR2" and cfg.methods == ("cp",)
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_bytes(b"\xff{}")                  # not UTF-8
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text('{"master_seed": ' + "1" * 5000 + "}")   # past Python's int digit limit
    with pytest.raises(ConfigError):
        load_config(str(bad))


# ------------------------------------------------------------------ statistics

def test_cdf_percentile_oracle():
    res = make_results([1.0, -2.0, 3.0, -4.0])
    c = compute_cdf(res, "cp")
    assert list(c.abs_errors_m) == [1.0, 2.0, 3.0, 4.0]
    assert list(c.cdf) == [0.25, 0.5, 0.75, 1.0]
    assert c.percentiles[50] == pytest.approx(2.5)
    assert c.n_failures == 0 and c.n_trials == 4


def test_cdf_half_normal_p90():
    rng = np.random.default_rng(8)
    res = make_results(rng.normal(0.0, 1.0, size=10_000).tolist())
    c = compute_cdf(res, "cp")
    assert c.percentiles[90] == pytest.approx(1.6449, rel=0.03)


def test_cdf_excludes_failures():
    res = make_results([1.0, 2.0, np.nan, 4.0], [None, "wrong_integer", "no_signal", None])
    c = compute_cdf(res, "cp")
    assert list(c.abs_errors_m) == [1.0, 4.0]
    assert c.n_failures == 2
    assert c.n_trials == 4


def test_cdf_all_failed_is_empty():
    res = make_results([1.0, np.nan], ["wrong_integer", "no_candidate"])
    c = compute_cdf(res, "cp")
    assert c.abs_errors_m.size == 0 and c.cdf.size == 0
    assert c.percentiles == {}
    assert c.n_failures == 2 and c.n_trials == 2
    with pytest.raises(ConfigError):
        compute_cdf(res, "sonar")
    with pytest.raises(ConfigError, match="measured in every trial"):
        compute_cdf(res, "toa")     # a method these trials did not measure


# --------------------------------------------------------------------- trials

def test_trial_reproducible_and_structured():
    a = run_trial(FAST, 0)
    b = run_trial(FAST, 0)
    assert a == b
    assert list(a.outcomes) == ["toa", "cp", "ccp"]
    assert a.outcomes["toa"].integer is None
    assert a.outcomes["cp"].integer is not None     # oracle mode always resolves
    assert all(o.failure is None and np.isfinite(o.error_m) for o in a.outcomes.values())
    assert [f.name for f in dataclasses.fields(TrialResult)] == ["trial_index", "outcomes"]


def test_trials_differ_across_indices():
    a = run_trial(FAST, 0)
    b = run_trial(FAST, 1)
    assert a.outcomes["cp"].error_m != b.outcomes["cp"].error_m


def test_scenario_matches_individual_trials():
    results = run_scenario(FAST)
    assert [r.trial_index for r in results] == [0, 1, 2]
    assert results[2] == run_trial(FAST, 2)


def _run_outcome(cfg, workers):
    """Per-trial (index, each method's failure, integer and error repr), or the type raised."""
    try:
        results = run_scenario(cfg, workers=workers)
    except Exception as exc:   # the other worker count must raise the same type
        return type(exc)
    return [(r.trial_index, {m: (o.failure, o.integer, repr(o.error_m))
                             for m, o in r.outcomes.items()}) for r in results]


# Any config gives the same trials in this process as split between two workers.
@settings(max_examples=5, deadline=None)
@given(n_symbols=st.integers(2, 4), ccp_sweeps=st.integers(1, 50),
       methods=st.lists(st.sampled_from(METHODS), min_size=1, unique=True),
       ambiguity=st.sampled_from(("oracle", "toa")),
       profile=st.sampled_from(("InF-LOS", "InF-NLOS-S", "InF-NLOS-D")),
       snr_db=st.floats(-10.0, 40.0) | st.just(float("inf")),
       n_trials=st.integers(2, 12), master_seed=st.integers(0, 2**32 - 1))
def test_any_config_same_trials_for_one_and_two_workers(n_symbols, ccp_sweeps, methods,
                                                       ambiguity, profile, snr_db, n_trials,
                                                       master_seed):
    cfg = ScenarioConfig(n_symbols=n_symbols, ccp_sweeps=ccp_sweeps, methods=tuple(methods),
                         ambiguity=ambiguity, profile=profile, snr_db=snr_db,
                         n_trials=n_trials, master_seed=master_seed)
    assert _run_outcome(cfg, 1) == _run_outcome(cfg, 2)


def test_workers_validated():
    with pytest.raises(ConfigError):
        run_scenario(FAST, workers=0)


def test_sweep_fit_checked_only_when_ccp_is_measured():
    # Two symbols hold cp's window [4672, 8768) exactly but not 1000 ccp sweeps.
    for methods in (("toa",), ("toa", "cp")):
        cfg = dataclasses.replace(FAST, methods=methods, n_symbols=2, ccp_sweeps=1000)
        assert set(run_trial(cfg, 0).outcomes) == set(methods)
    with pytest.raises(ConfigError, match="sweeps do not fit"):
        dataclasses.replace(FAST, methods=("ccp",), n_symbols=2, ccp_sweeps=1000)


def test_snr_bound_is_inclusive():
    for snr_db in (-MAX_ABS_DB, MAX_ABS_DB, float("inf")):
        assert dataclasses.replace(FAST, snr_db=snr_db).snr_db == snr_db


def test_pool_capped_at_trials_and_cpus(monkeypatch):
    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for n_trials, workers in ((FAST.n_trials, 10**6), (1, 2)):
        cfg = dataclasses.replace(FAST, n_trials=n_trials)
        sizes.clear()
        results = run_scenario(cfg, workers=workers)
        capped = min(workers, n_trials, os.cpu_count() or 1)
        assert sizes == ([capped] if capped > 1 else [])   # one worker runs in this process
        assert results == run_scenario(cfg)


def test_pool_chunks_give_every_worker_trials(monkeypatch):
    chunks = []     # (pool size, chunk count) of each run

    class RecordingPool:
        """Records its size and the chunk count of its one map, and runs nothing."""

        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            chunks.append((self.workers, -(-len(iterables[0]) // chunksize)))
            return []

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)     # no cap to one in-process worker
    for workers in (2, 3, 7, 64):
        for n_trials in sorted({2, workers, 4 * workers - 1, 4 * workers, 8 * workers - 1,
                                8 * workers, 8 * workers + 1, 12_345, harness.MAX_TRIALS}):
            chunks.clear()
            assert run_scenario(dataclasses.replace(FAST, n_trials=n_trials), workers) == []
            [(size, n_chunks)] = chunks
            assert size == min(workers, n_trials)
            assert size <= n_chunks < 8 * size, (workers, n_trials)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
                    reason="needs two CPUs and pool children forked with the patched run_trial")
def test_two_workers_use_two_processes(monkeypatch):
    @functools.wraps(run_trial)     # keeps the name pickle resolves in a forked worker
    def tagged(cfg, trial):
        result = run_trial(cfg, trial)
        result.pid = os.getpid()
        return result

    monkeypatch.setattr(harness, "run_trial", tagged)
    for n_trials in (2, 8, 9):
        harness._build_assets.cache_clear()
        results = run_scenario(dataclasses.replace(FAST, n_trials=n_trials), workers=2)
        assert len({r.pid for r in results}) == 2, n_trials


# Per-trial (distance error repr, integer, IA failure) of FAST under each
# ambiguity mode, recorded before cp and ccp shared one phase primitive.
GOLDEN = {
    "oracle": [
        {"toa": ("0.02205540409442719", None, False),
         "cp": ("-0.00011083643250131558", 305, False),
         "ccp": ("-0.0016151734021008224", 305, False)},
        {"toa": ("-0.012577912033645333", None, False),
         "cp": ("0.0023551771365042384", 305, False),
         "ccp": ("0.0010945361396927922", 305, False)},
        {"toa": ("-0.08250211717226463", None, False),
         "cp": ("-0.00018814136261013914", 305, False),
         "ccp": ("-0.0005083524577358389", 305, False)},
    ],
    "toa": [
        {"toa": ("0.02205540409442719", None, False),
         "cp": ("-0.00011083643250131558", 305, False),
         "ccp": ("-0.0016151734021008224", 305, False)},
        {"toa": ("-0.012577912033645333", None, False),
         "cp": ("0.0023551771365042384", 305, False),
         "ccp": ("0.0010945361396927922", 305, False)},
        {"toa": ("-0.08250211717226463", None, False),
         "cp": ("-0.07908027063527712", 304, True),
         "ccp": ("-0.07940048173039926", 304, True)},
    ],
    "widelane": [
        {"toa": ("0.02205540409442719", None, False),
         "cp": ("-0.15689677183173956", 311, True),
         "ccp": ("-0.0010809060360159606", 313, False)},
        {"toa": ("-0.012577912033645333", None, False),
         "cp": ("-0.07624566933030508", 312, True),
         "ccp": ("0.0006324174407232874", 313, False)},
        {"toa": ("-0.08250211717226463", None, False),
         "cp": ("0.07937398450163613", 314, True),
         "ccp": ("0.15652041029494157", 315, True)},
    ],
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_trials_match_golden(mode):
    extra = {"widelane_second_fc_hz": 3.9e9} if mode == "widelane" else {}
    cfg = dataclasses.replace(FAST, ambiguity=mode, **extra)
    for trial, expected in enumerate(GOLDEN[mode]):
        r = run_trial(cfg, trial)
        for method, (error, integer, failed) in expected.items():
            got = r.outcomes[method]
            assert got.error_m == pytest.approx(float(error), abs=1e-9)
            assert got.integer == integer
            assert (got.failure is not None) is failed


# Per-trial (distance error repr, integer, IA failure) of FAST at 128
# symbols under TOA-bounded resolution: the default stream length, which
# GOLDEN's 8-symbol streams do not reach.  Trial 2 pins cp and ccp IA failures.
GOLDEN_128_SYMBOLS = [
    {"toa": ("0.02116457952612194", None, False),
     "cp": ("-0.0003784030565334717", 305, False),
     "ccp": ("-0.0015934136520918685", 305, False)},
    {"toa": ("-0.012025917580178458", None, False),
     "cp": ("0.001926188455801281", 305, False),
     "ccp": ("0.0014976243765829622", 305, False)},
    {"toa": ("-0.08531756667933621", None, False),
     "cp": ("-0.08034414777056753", 304, True),
     "ccp": ("-0.07919230506272612", 304, True)},
]


def test_128_symbol_trials_match_golden():
    cfg = dataclasses.replace(FAST, ambiguity="toa", n_symbols=128)
    for trial, expected in enumerate(GOLDEN_128_SYMBOLS):
        r = run_trial(cfg, trial)
        for method, (error, integer, failed) in expected.items():
            got = r.outcomes[method]
            assert got.error_m == pytest.approx(float(error), abs=1e-9)
            assert got.integer == integer
            assert (got.failure is not None) is failed


def test_one_pinned_trial_per_ia_failure_reason():
    # lambda_v / 2 under the finer wavelength (1.5 and 3.8 GHz) leaves widelane's fine
    # window empty on cp's trial 19, while ccp finds an integer one off the truth's.
    cfg = ScenarioConfig(n_symbols=16, ccp_sweeps=200, methods=("cp", "ccp"),
                         ambiguity="widelane", widelane_second_fc_hz=1.5e9, n_trials=20)
    r = run_trial(cfg, 19)
    cp, ccp = r.outcomes["cp"], r.outcomes["ccp"]
    assert (cp.failure, cp.integer) == ("no_candidate", None) and math.isnan(cp.error_m)
    assert (ccp.failure, ccp.integer) == ("wrong_integer", 303)
    assert ccp.error_m == pytest.approx(-0.15715063530346995, abs=1e-9)
    # The three read-only views give the dicts a TrialResult held before it had outcomes;
    # the benchmark's run.py and make_reference.py still read them.
    assert r.resolved_integer == {"cp": None, "ccp": 303}
    assert r.ia_failure == {"cp": True, "ccp": True}
    assert list(r.distance_error_m) == ["cp", "ccp"]
    assert math.isnan(r.distance_error_m["cp"]) and r.distance_error_m["ccp"] == ccp.error_m


def test_a_trial_with_no_signal_is_a_failure_and_the_run_goes_on(tmp_path, monkeypatch, capsys):
    # No accepted config is known to starve a receiver, so the second TOA estimate of a
    # run raises as a receiver does: trial 1 fails on every method, the others run on.
    calls, estimate_toa = [], harness.estimate_toa

    def second_call_finds_no_peak(*args):
        calls.append(None)
        if len(calls) == 2:
            raise NoSignalError("no correlation peak above the early-arrival threshold")
        return estimate_toa(*args)

    monkeypatch.setattr(harness, "estimate_toa", second_call_finds_no_peak)
    results = run_scenario(dataclasses.replace(FAST, ambiguity="toa"))
    assert [o.failure for o in results[1].outcomes.values()] == ["no_signal"] * 3
    assert all(math.isnan(o.error_m) and o.integer is None for o in results[1].outcomes.values())
    assert [o.failure for o in results[0].outcomes.values()] == [None] * 3
    assert results[2].outcomes["cp"].failure == "wrong_integer"    # GOLDEN["toa"][2]
    calls.clear()
    cfg = write_cfg(tmp_path, methods=list(METHODS), ambiguity="toa", n_trials=3,
                    master_seed=FAST.master_seed)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "res.csv")]) == 0
    assert "toa: trials=3 ia_failures=1" in capsys.readouterr().out


@pytest.mark.parametrize("methods", [("toa", "cp", "ccp"), ("toa", "ccp", "cp")])
def test_a_phase_stream_with_no_signal_fails_every_phase_method(monkeypatch, methods):
    # Every phase method reads every phase stream, so a stream that starves one window
    # fails them all, whatever their order; the TOA stream's outcome stands.
    cfg = ScenarioConfig(n_symbols=16, ccp_sweeps=200, methods=methods, ambiguity="widelane",
                         widelane_second_fc_hz=3.9e9, master_seed=123)
    toa = run_trial(cfg, 0).outcomes["toa"]
    sweeps, ccp_measure = [], harness.ccp_measure

    def second_carrier_ccp_finds_no_signal(rx, num, subcarrier, n_sweeps, *args):
        sweeps.append(n_sweeps)
        if sweeps.count(cfg.ccp_sweeps) == 2:    # the ccp window on the widelane carrier
            raise NoSignalError("no signal in the ccp windows")
        return ccp_measure(rx, num, subcarrier, n_sweeps, *args)

    monkeypatch.setattr(harness, "ccp_measure", second_carrier_ccp_finds_no_signal)
    outcomes = run_trial(cfg, 0).outcomes
    assert sweeps.count(cfg.ccp_sweeps) == 2
    assert list(outcomes) == list(methods) and outcomes["toa"] == toa
    for method in ("cp", "ccp"):
        got = outcomes[method]
        assert (got.failure, got.integer) == ("no_signal", None) and math.isnan(got.error_m)


def test_asset_cache_holds_one_scenario():
    # Each entry holds two period spectra; callers run one scenario at a time.
    harness._build_assets.cache_clear()
    harness._build_assets(FAST)
    harness._build_assets(dataclasses.replace(FAST, snr_db=0.0))
    assert harness._build_assets.cache_info().currsize == 1


def test_cached_streams_are_read_only():
    # Every trial of a scenario reads the same cached period spectra.
    assets = harness._build_assets(FAST)
    for spectrum, _ in (assets.conv_period, assets.cont_period):
        with pytest.raises(ValueError):
            spectrum[0] = spectrum[0]


def test_scenario_builds_only_the_streams_its_methods_read():
    ccp = ScenarioConfig(band="FR2", methods=("ccp",), n_symbols=8, ccp_sweeps=50, n_trials=1)
    run_trial(ccp, 0)
    assert "cont_period" in vars(harness._build_assets(ccp))
    assert "conv_period" not in vars(harness._build_assets(ccp))
    toa = dataclasses.replace(FAST, methods=("toa",))
    run_trial(toa, 0)
    assert "conv_period" in vars(harness._build_assets(toa))
    assert "cont_period" not in vars(harness._build_assets(toa))


def test_widelane_trial_full_waveform():
    # Noiseless two-carrier trial through the whole signal chain: the beat
    # integer plus the fine search land on the exact geometric distance.
    cfg = ScenarioConfig(methods=("cp",), ambiguity="widelane",
                         widelane_second_fc_hz=3.9e9, n_trials=1,
                         snr_db=float("inf"), n_symbols=128,
                         profile_overrides=(("rician_k_db", float("inf")),))
    r = run_trial(cfg, 0)
    assert r.outcomes["cp"].failure is None
    assert abs(r.outcomes["cp"].error_m) < 1e-6


# ------------------------------------------------------------------- emitters

def test_csv_shape_and_round_trip(tmp_path):
    res = run_scenario(dataclasses.replace(FAST, methods=("cp", "toa")))
    cdfs = [compute_cdf(res, m) for m in ("cp", "toa")]
    out = tmp_path / "out.csv"
    emit_results(cdfs, FAST, str(out), "csv")
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "method,abs_error_m,cdf"
    assert len(lines) == 1 + sum(c.abs_errors_m.size for c in cdfs)
    method, err, cdf = lines[1].split(",")
    assert method == "cp"
    assert float(err) == cdfs[0].abs_errors_m[0]    # repr round-trips exactly
    assert float(cdf) == cdfs[0].cdf[0]


def test_json_payload(tmp_path):
    res = run_scenario(FAST)
    cdfs = [compute_cdf(res, m) for m in FAST.methods]
    out = tmp_path / "out.json"
    emit_results(cdfs, FAST, str(out), "json")
    payload = json.loads(out.read_text())
    assert payload["master_seed"] == FAST.master_seed
    assert payload["config"] == json.loads(json.dumps(config_to_dict(FAST)))
    assert set(payload["methods"]) == {"toa", "cp", "ccp"}
    cp = payload["methods"]["cp"]
    assert cp["n_trials"] == FAST.n_trials
    assert len(cp["abs_errors_m"]) == len(cp["cdf"])
    assert set(cp["percentiles"]) == {"p50", "p67", "p90", "p95"}


def test_unknown_format_rejected(tmp_path):
    c = CdfResult("cp", np.array([1.0]), 0)
    with pytest.raises(ConfigError):
        emit_results([c], FAST, str(tmp_path / "x.yaml"), "yaml")


def test_a_path_that_is_no_str_or_path_like_is_a_config_error(tmp_path):
    # open() takes an int, a bool included, as a file descriptor, writes to it
    # and closes it; the path rule refuses it before anything is opened.
    c = CdfResult("cp", np.array([1.0]), 0)
    fd = os.open(tmp_path / "descriptor.csv", os.O_RDWR | os.O_CREAT)
    try:
        for call, path in [(lambda p: emit_results([c], FAST, p), fd),
                           (lambda p: emit_results([c], FAST, p), True),
                           (load_config, fd), (load_config, None)]:
            with pytest.raises(ConfigError, match=r"^path must be a str or os\.PathLike, got "):
                call(path)
        os.fstat(fd)                        # still open
        assert os.path.getsize(tmp_path / "descriptor.csv") == 0
    finally:
        os.close(fd)
    emit_results([c], FAST, tmp_path / "results.csv")   # a pathlib.Path is a path
    assert (tmp_path / "results.csv").read_text().startswith("method,abs_error_m,cdf\n")


def test_a_hand_built_cdf_result_writes_what_compute_cdf_writes(tmp_path):
    # A CdfResult stores the sorted |errors| and failure count and derives the rest, so
    # one built by hand cannot contradict itself; every ccp trial here fails.
    results = [TrialResult(i, {"cp": MethodOutcome(e, None, f),
                               "ccp": MethodOutcome(np.nan, None, "no_candidate")})
               for i, (e, f) in enumerate([(0.3, None), (-0.1, None), (9.0, "wrong_integer"),
                                           (-0.2, None)])]
    computed = [compute_cdf(results, m) for m in ("cp", "ccp")]
    built = [CdfResult("cp", np.array([0.1, 0.2, 0.3]), 1), CdfResult("ccp", np.array([]), 4)]
    for fmt in ("csv", "json"):
        emit_results(computed, FAST, tmp_path / f"computed.{fmt}", fmt)
        emit_results(built, FAST, tmp_path / f"built.{fmt}", fmt)
        assert (tmp_path / f"built.{fmt}").read_bytes() == (
            tmp_path / f"computed.{fmt}").read_bytes()
    for name in ("cdf", "n_trials", "percentiles"):
        with pytest.raises(AttributeError):
            setattr(built[0], name, getattr(built[0], name))


# ------------------------------------------------------------------------ cli

def write_cfg(tmp_path, **extra):
    raw = {"n_trials": 2, "methods": ["cp"], "n_symbols": 8, "ccp_sweeps": 50,
           "master_seed": 5}
    raw.update(extra)
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(raw))
    return str(p)


def test_cli_run_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "res.csv"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    assert "cp: trials=2 ia_failures=0" in captured
    assert f"wrote {out}" in captured
    assert out.read_text().startswith("method,abs_error_m,cdf\n")


# Whole runs through the CLI, by name; Python's json writes and reads Infinity.
CLI_CONFIGS = {
    "exact": {"n_trials": 3, "n_symbols": 16, "ccp_sweeps": 200, "snr_db": math.inf,
              "profile_overrides": {"rician_k_db": math.inf}},
    "flags": {"n_trials": 4, "n_symbols": 8, "ccp_sweeps": 20},
    "nlos": {"n_trials": 2, "n_symbols": 8, "ccp_sweeps": 20, "band": "FR2",
             "profile": "InF-NLOS-D", "methods": ["toa"]},
    "ia": {"n_trials": 20, "n_symbols": 16, "ccp_sweeps": 200, "methods": ["cp", "ccp"],
           "ambiguity": "widelane", "widelane_second_fc_hz": 1.5e9},
    # 16 symbols: the continuous streams have no n_fft period and are filtered whole.
    "dense": {"n_trials": 2, "n_symbols": 16, "ambiguity": "widelane",
              "widelane_second_fc_hz": 3.9e9, "ccp_sweeps": 1000},
    # 128 symbols: the continuous stream is a 137-row view of one n_fft period, which
    # add_awgn turns into the flat stream ccp_measure sweeps.
    "periodic": {"n_trials": 2, "n_symbols": 128},
    # Each carrier's continuous stream is such a view, and a trial holds one of the two
    # received streams at a time.
    "periodic-widelane": {"n_trials": 2, "n_symbols": 128, "ambiguity": "widelane",
                          "widelane_second_fc_hz": 3.9e9,
                          "profile_overrides": {"rician_k_db": 30}},
}


def cli_run(tmp_path, name, out, *flags):
    """Runs CLI_CONFIGS[name] with ``flags`` into tmp_path / out and returns the written bytes."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(CLI_CONFIGS[name]))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / out), *flags]) == 0
    return (tmp_path / out).read_bytes()


# Each run's flags and, per method, its (trials, IA failures, kept errors, bound on every
# kept |error| in metres).
CLI_RUNS = [
    # One direct path and no noise: cp and ccp keep only rounding (2.7e-10 m at most),
    # toa only its fine-search bias (3.5e-5 m).
    ("exact", (), {"toa": (3, 0, 3, 1e-4), "cp": (3, 0, 3, 1e-9), "ccp": (3, 0, 3, 1e-9)}),
    # --trials and --method replace the file's 4 trials and 3 methods, and --ia toa
    # searches around the TOA range on the FR2 NLOS channel.
    ("flags", ("--trials", "2", "--seed", "9", "--band", "fr2", "--profile", "nlos-s",
               "--method", "toa", "--ia", "toa"), {"toa": (2, 0, 2, math.inf)}),
    # The densest NLOS profile on the FR2 numerology.
    ("nlos", (), {"toa": (2, 0, 2, math.inf)}),
    # 1.5 and 3.8 GHz put lambda_v / 2 under the finer wavelength: each of cp and ccp fails
    # 11 of 20 trials (wrong integers; one cp trial has no widelane candidate).
    ("ia", (), {"cp": (20, 11, 9, math.inf), "ccp": (20, 11, 9, math.inf)}),
    ("periodic", (), dict.fromkeys(METHODS, (2, 0, 2, math.inf))),
    # A strong direct path (K = 30 dB) resolves cp once and ccp twice.
    ("periodic-widelane", (), {"toa": (2, 0, 2, math.inf), "cp": (2, 1, 1, math.inf),
                               "ccp": (2, 0, 2, math.inf)}),
]


@pytest.mark.parametrize("name,flags,expected", CLI_RUNS, ids=[run[0] for run in CLI_RUNS])
def test_cli_run_counts_every_trial(tmp_path, name, flags, expected):
    methods = json.loads(cli_run(tmp_path, name, "res.json", "--format", "json", *flags))["methods"]
    assert set(methods) == set(expected)
    for m, (n_trials, failures, kept, bound) in expected.items():
        errors = methods[m]["abs_errors_m"]
        assert (methods[m]["n_trials"], methods[m]["ia_failures"], len(errors)) == (
            n_trials, failures, kept), m
        assert max(errors, default=0.0) <= bound, m


# One and two workers write the same CSV on the dense, periodic and two-carrier paths;
# the CSV lines at 9 trials.
@pytest.mark.parametrize("name,lines", [("dense", 16), ("periodic", 28),
                                        ("periodic-widelane", 24)])
def test_worker_count_does_not_change_output(tmp_path, name, lines):
    outs = []
    for workers in ("1", "2"):
        harness._build_assets.cache_clear()     # no pool child inherits this process's assets
        outs.append(cli_run(tmp_path, name, f"w{workers}.csv", "--trials", "9",
                            "--workers", workers))
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == lines


def test_cli_method_with_every_trial_failed_keeps_the_others(tmp_path, capsys):
    # Under NLOS bias every cp trial takes a wrong integer; the toa results remain.
    cfg = write_cfg(tmp_path, band="FR1", profile="InF-NLOS-S", methods=["toa", "cp"],
                    ambiguity="toa", n_trials=8, n_symbols=16)
    csv_out, json_out = tmp_path / "res.csv", tmp_path / "res.json"
    assert cli.main(["run", "--config", cfg, "--out", str(csv_out)]) == 0
    assert "\ncp: trials=8 ia_failures=8\n" in capsys.readouterr().out
    rows = csv_out.read_text().splitlines()[1:]
    assert len(rows) == 8 and all(r.startswith("toa,") for r in rows)
    assert cli.main(["run", "--config", cfg, "--out", str(json_out), "--format", "json"]) == 0
    methods = json.loads(json_out.read_text())["methods"]
    assert methods["cp"]["percentiles"] == {} and methods["cp"]["ia_failures"] == 8
    assert methods["cp"]["abs_errors_m"] == []
    assert set(methods["toa"]["percentiles"]) == {"p50", "p67", "p90", "p95"}


def test_cli_overrides_and_json(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "res.json"
    rc = cli.main(["run", "--config", cfg, "--out", str(out), "--format", "json",
                   "--trials", "3", "--seed", "99", "--band", "fr2",
                   "--profile", "nlos-s", "--method", "cp,toa", "--ia", "toa"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["n_trials"] == 3
    assert payload["config"]["master_seed"] == 99
    assert payload["config"]["band"] == "FR2"
    assert payload["config"]["profile"] == "InF-NLOS-S"
    assert payload["config"]["ambiguity"] == "toa"
    assert set(payload["methods"]) == {"cp", "toa"}


def test_band_is_stored_upper_cased(tmp_path):
    # "fr2" runs the trials "FR2" does, so the two are one config and echo as one.
    assert ScenarioConfig(band="fr2") == ScenarioConfig(band="FR2")
    assert hash(ScenarioConfig(band="fr2")) == hash(ScenarioConfig(band="FR2"))
    out = tmp_path / "res.json"
    cfg = write_cfg(tmp_path, band="fr2")
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())["config"]["band"] == "FR2"


@pytest.mark.parametrize("band,status", [("FR2", 0), ("Fr1", 0), ("fr9", 2)])
def test_cli_band_flag_is_passed_to_the_config(tmp_path, capsys, band, status):
    out = tmp_path / "res.json"
    rc = cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(out), "--format", "json",
                   "--band", band])
    assert rc == status
    if status:
        assert capsys.readouterr().err.startswith("config error: unknown band 'FR9'")
    else:
        assert json.loads(out.read_text())["config"]["band"] == band.upper()


def test_cli_bad_override_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                   "--method", "sonar"])
    assert rc == 2


# Each bad value a config file may hold, and how the message the CLI prints begins.
BAD_FILE_VALUES = [
    ({"n_trials": "5"}, "n_trials must be an integer"),
    ({"n_trials": 2.5}, "n_trials must be an integer"),
    ({"snr_db": float("nan")}, "snr_db must lie within +-300 dB"),
    ({"snr_db": float("-inf")}, "snr_db must lie within +-300 dB"),
    ({"geometry": {"gnb_position_m": [0, 0, 1], "ue_position_m": [float("nan"), 0, 1]}},
     "positions must be finite and distinct"),
    ({"geometry": {"gnb_position_m": [0, 0, 0], "ue_position_m": [2000, 0, 0]}},
     "UE at 2000 m plus the channel's delay"),
    ({"profile_overrides": {"rms_delay_spread_s": -1}}, "rms_delay_spread_s must be finite"),
    ({"methods": ["toa", "toa"]}, "methods must be a nonempty list"),
    ({"profile_overrides": {"kind": "InF-NLOS-S"}}, "unknown profile overrides: ['kind']"),
    ({"profile_overrides": {"nlos_excess_delay_mean_s": 5e-8}},
     "nlos_excess_delay_mean_s is required for NLOS kinds"),
    ({"profile": "InF-NLOS-S", "profile_overrides": {"rician_k_db": 10.0}},
     "rician_k_db is required for InF-LOS"),
    ({"profile_overrides": {"rms_delay_spread_s": 1e300}},
     "UE at 24.1299 m plus the channel's delay"),
    ({"profile": "InF-NLOS-D", "profile_overrides": {"nlos_excess_delay_mean_s": 1e-5}},
     "UE at 24.1299 m plus the channel's delay"),
    ({"profile_overrides": {"n_clutter_taps": 10000000}}, "n_clutter_taps must be an integer"),
    ({"snr_db": 5000}, "snr_db must lie within +-300 dB"),
    ({"snr_db": -5000}, "snr_db must lie within +-300 dB"),
    ({"n_symbols": 1025}, "n_symbols must be an integer in [2, 1024]"),
    ({"snr_db": 10 ** 400}, "snr_db must fit in a float"),
    ({"profile_overrides": {"rms_delay_spread_s": 10 ** 400}},
     "rms_delay_spread_s must fit in a float"),
    ({"geometry": {"gnb_position_m": [0, 0], "ue_position_m": [3, 4]}},
     "gnb_position_m must be three coordinates"),
    ({"geometry": [[0, 0, 0], [20, 0, 0]]}, "geometry must be a Geometry or a mapping"),
    ({"profile_overrides": [1, 2]}, "profile_overrides must map each"),
    ({"profile_overrides": {"rician_k_db": float("-inf")}}, "rician_k_db must lie within"),
    ({"profile_overrides": {"rician_k_db": 4000}}, "rician_k_db must lie within"),
    ({"ambiguity": "widelane", "comb_offset": 5, "widelane_second_fc_hz": 1000.0},
     "widelane_second_fc_hz: carrier 1000 Hz must exceed half the sample rate"),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 1000.0},
     "widelane_second_fc_hz: carrier 1000 Hz must exceed half the sample rate"),
    ({"n_trials": 100000000000000000000}, "n_trials must be an integer in [1, 1000000]"),
    # The widelane carrier's numerology rejects it; the message still names the field.
    ({"band": "FR2", "ambiguity": "widelane", "widelane_second_fc_hz": 245.76e6},
     "widelane_second_fc_hz: carrier 2.4576e+08 Hz must exceed half the sample rate"),
    ({"bogus_key": 1}, "unknown config keys: ['bogus_key']"),
    ({"ccp_sweeps": 100000, "methods": ["ccp"]}, "100000 sweeps do not fit in 8 symbols"),
    ({"n_trials": 0}, "n_trials must be an integer in [1, 1000000]"),
]


@pytest.mark.parametrize("extra,message", BAD_FILE_VALUES,
                         ids=[f"extra{i}" for i in range(len(BAD_FILE_VALUES))])
def test_cli_bad_value_exits_2(tmp_path, capsys, extra, message):
    cfg = write_cfg(tmp_path, **extra)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and "Traceback" not in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("carrier", [None, 3.9e9], ids=["no-carrier", "carrier"])
@pytest.mark.parametrize("mode", IA_MODES)
def test_a_widelane_carrier_is_set_exactly_when_widelane_reads_it(tmp_path, capsys, mode,
                                                                  carrier):
    # Any mode but widelane would run without the carrier it was given.
    pair = dict(ambiguity=mode, widelane_second_fc_hz=carrier)
    out = tmp_path / "o.csv"
    rc = cli.main(["run", "--config", write_cfg(tmp_path, **pair), "--out", str(out)])
    builds = (lambda: ScenarioConfig(**pair), lambda: dataclasses.replace(FAST, **pair))
    if (mode == "widelane") == (carrier is not None):
        assert all(build().widelane_second_fc_hz == carrier for build in builds)
        assert rc == 0 and out.exists()
        return
    message = (f"widelane_second_fc_hz must be set if and only if ambiguity is widelane, "
               f"got {carrier} for {mode}")
    for build in builds:
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build()
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("k_sigma", [3.0, 40.0, 0, "x"])
def test_cli_old_k_sigma_config_exits_2_as_an_unknown_key(tmp_path, capsys, k_sigma):
    # Whatever value an old config gave the deleted key, the key itself is the error.
    cfg = write_cfg(tmp_path, k_sigma=k_sigma)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown config keys") and "k_sigma" in err
    assert not (tmp_path / "o.csv").exists()


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["run", "--config", cfg,
                   "--out", str(tmp_path / "no_such_dir" / "o.csv")])
    assert rc == 3
    assert "run failed" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
