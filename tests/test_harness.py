import dataclasses
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasepos import cli, harness
from phasepos.channel import Geometry, profile_preset
from phasepos.errors import MAX_ABS_DB, ConfigError
from phasepos.harness import (METHODS, CdfResult, ScenarioConfig, TrialResult, compute_cdf,
                              config_from_dict, config_to_dict, emit_results, load_config,
                              run_scenario, run_trial)

# Small, fast scenario used by the mechanics tests: accuracy is irrelevant
# here, only plumbing and determinism.
FAST = ScenarioConfig(n_trials=3, methods=("toa", "cp", "ccp"), n_symbols=8,
                      ccp_sweeps=50, master_seed=123)


def make_results(errors, failures=None):
    failures = failures or [False] * len(errors)
    return [TrialResult(i, {"cp": e}, {"cp": None}, {"cp": f})
            for i, (e, f) in enumerate(zip(errors, failures))]


# ------------------------------------------------------------------ validation

def test_default_config_validates():
    ScenarioConfig()


@pytest.mark.parametrize("changes", [
    {"band": "FR9"},
    {"profile": "InH-Office"},
    {"n_trials": 0},
    {"methods": ()},
    {"methods": ("toa", "doppler")},
    {"methods": ("toa", "toa")},
    {"ambiguity": "fuzzy"},
    {"ambiguity": "widelane"},             # missing second carrier
    {"ccp_sweeps": 0},
    {"n_symbols": 1},
    {"widelane_second_fc_hz": 0.0},
    {"profile_overrides": (("k_factor", 3.0),)},
    {"n_symbols": 2, "ccp_sweeps": 290},   # one sweep past the stream end
    {"n_symbols": 8, "ccp_sweeps": 100000},
    {"widelane_second_fc_hz": 3.8e9},       # equals the FR1 carrier: no beat
    {"profile_overrides": (("rms_delay_spread_s", -1.0),)},
    {"n_trials": "5"},
    {"n_trials": 2.5},
    {"n_trials": True},
    {"master_seed": -1},
    {"snr_db": float("nan")},
    {"snr_db": float("-inf")},
    {"snr_db": "10"},
    {"k_sigma": 0},
    {"k_sigma": float("nan")},
    {"k_sigma": float("inf")},
    {"widelane_second_fc_hz": float("inf")},
    {"geometry": Geometry((0, 0, 0), (1700, 0, 0))},   # past FR1 comb-6 TOA range
    {"band": "FR2", "geometry": Geometry((0, 0, 0), (430, 0, 0))},
    {"profile_overrides": (("kind", "InF-NLOS-S"),)},
    {"profile_overrides": (("nlos_excess_delay_mean_s", 50e-9),)},    # LOS reads no excess
    {"profile": "InF-NLOS-S", "profile_overrides": (("rician_k_db", 10.0),)},
    {"profile_overrides": (("rms_delay_spread_s", 1e300),)},          # spread past the comb range
    {"profile": "InF-NLOS-D", "profile_overrides": (("nlos_excess_delay_mean_s", 1e-5),)},
    {"profile_overrides": (("n_clutter_taps", 10_000_000),)},          # past TR 38.901's 500 rays
    {"snr_db": 5000.0},
    {"snr_db": -5000.0},
    {"n_symbols": 1025},                   # past MAX_SYMBOLS
    {"k_sigma": None},
    {"profile": ["InF-LOS"]},
    {"methods": ["toa", "toa"]},
    {"methods": "toa"},
    {"methods": {"toa": 1}},
    {"profile_overrides": {"rms_delay_spread_s": -1.0}},
    {"profile_overrides": {1: 4e-8}},
    {"profile_overrides": (1, 2)},
    {"profile_overrides": [("rms_delay_spread_s", 4e-8)]},
    {"geometry": {"gnb_position_m": (0, 0), "ue_position_m": (3, 4)}},        # 2-D
    {"geometry": {"gnb_position_m": (0, 0, 0)}},
    {"geometry": {"gnb_position_m": (0, 0, 0), "ue_position_m": (20, 0, 0), "x": 1}},
    {"geometry": ((0, 0, 0), (20, 0, 0))},
    {"snr_db": 10 ** 400},
    {"k_sigma": 10 ** 400},
    {"widelane_second_fc_hz": 10 ** 400},
    {"profile_overrides": {"rms_delay_spread_s": 10 ** 400}},
    {"profile_overrides": {"rician_k_db": 10 ** 400}},
    {"profile": "InF-NLOS-S", "profile_overrides": {"nlos_excess_delay_mean_s": 10 ** 400}},
    {"band": " FR1"},
    {"band": 3},
    {"profile_overrides": (("rms_delay_spread_s", 1e-8), ("rms_delay_spread_s", 2e-8))},
    {"profile_overrides": {"rician_k_db": float("-inf")}},   # no direct path is not pure LOS
    {"profile_overrides": {"rician_k_db": 4000.0}},          # 10 ** (K / 10) overflows
    {"profile_overrides": {"rician_k_db": -300.5}},
    {"ambiguity": "widelane", "comb_offset": 5, "widelane_second_fc_hz": 1000.0},
    {"widelane_second_fc_hz": 61.44e6},    # exactly half the FR1 sample rate
    {"n_trials": 1_000_001},               # past MAX_TRIALS
])
def test_bad_config_rejected(changes):
    with pytest.raises(ConfigError):
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
    # Library callers get ConfigError too, not only config_from_dict.
    with pytest.raises(ConfigError):
        profile_preset(kind, **overrides)
    with pytest.raises(ConfigError):
        ScenarioConfig(profile=kind, profile_overrides=tuple(overrides.items()))


@pytest.mark.parametrize("band,distance_m", [("FR1", 1600.0), ("FR2", 400.0)])
def test_ue_inside_comb_range_accepted(band, distance_m):
    cfg = ScenarioConfig(band=band, methods=("toa",), n_symbols=8, snr_db=float("inf"),
                         geometry=Geometry((0, 0, 0), (distance_m, 0, 0)))
    assert abs(run_trial(cfg, 0).distance_error_m["toa"]) < 1.0


def test_sweep_filling_the_stream_runs():
    # 288 one-sample shifts end the last window exactly on the stream end.
    cfg = ScenarioConfig(n_trials=1, methods=("cp", "ccp"), n_symbols=2, ccp_sweeps=289)
    r = run_trial(cfg, 0)
    assert all(np.isfinite(v) for v in r.distance_error_m.values())


def test_config_dict_round_trip():
    cfg = dataclasses.replace(ScenarioConfig(), n_trials=7, snr_db=3.0,
                              profile_overrides=(("rician_k_db", 20.0),))
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_numbers_of_other_types_are_stored_as_python_numbers(tmp_path):
    # numpy and Fraction values pass the number checks; the config keeps what
    # the checks return, so it writes the JSON of the plain int/float config.
    plain = ScenarioConfig(n_trials=2, n_symbols=8, ccp_sweeps=50, methods=("cp",),
                           ambiguity="widelane", widelane_second_fc_hz=3.9e9, k_sigma=3.5,
                           comb_offset=1, profile_overrides={
                               "rician_k_db": 20.0, "n_clutter_taps": 9,
                               "rms_delay_spread_s": 2.0 ** -25})
    other = ScenarioConfig(n_trials=np.int64(2), n_symbols=np.int32(8), ccp_sweeps=np.uint16(50),
                           methods=("cp",), ambiguity="widelane",
                           widelane_second_fc_hz=np.float32(3.9e9), k_sigma=Fraction(7, 2),
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
    assert cfg == config_from_dict(raw)
    assert cfg.methods == ("toa", "cp")
    assert cfg.geometry == Geometry((0.0, 0.0, 0.0), (3.0, 4.0, 0.0))
    assert cfg.profile_overrides == (("n_clutter_taps", 9), ("rms_delay_spread_s", 4e-8))
    assert set(run_trial(cfg, 0).distance_error_m) == {"toa", "cp"}


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"n_trials": 5, "bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"ccp_shift": 1})    # the sweep spacing follows from the stream
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict({"toa_sigma_s": 1e-9})   # k_sigma alone sets the IA windows
    with pytest.raises(ConfigError):
        config_from_dict({"geometry": {"gnb_position_m": [0, 0, 1],
                                       "ue_position_m": [1, 0, 1],
                                       "extra": 2}})


def test_config_from_dict_rejects_malformed_values():
    with pytest.raises(ConfigError):
        config_from_dict({"methods": 5})
    with pytest.raises(ConfigError):
        config_from_dict({"profile_overrides": [["rician_k_db", 3.0]]})
    with pytest.raises(ConfigError):
        config_from_dict({"geometry": {"gnb_position_m": [0, 0, 1],
                                       "ue_position_m": [0, 0, 1]}})
    with pytest.raises(ConfigError):
        config_from_dict({"geometry": {"gnb_position_m": [0, 0, 1],
                                       "ue_position_m": [float("nan"), 0, 1]}})
    with pytest.raises(ConfigError):
        config_from_dict({"k_sigma": 10 ** 400})
    with pytest.raises(ConfigError,
                       match=r"^n_trials must be an integer in \[1, 1000000\], got 0$"):
        config_from_dict({"n_trials": 0})   # raised by the config itself, not re-wrapped


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


@pytest.mark.parametrize("build", [config_from_dict, lambda raw: ScenarioConfig(**raw)],
                         ids=["config_from_dict", "ScenarioConfig"])
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
    res = make_results([1.0, 2.0, np.nan, 4.0], [False, True, True, False])
    c = compute_cdf(res, "cp")
    assert list(c.abs_errors_m) == [1.0, 4.0]
    assert c.n_failures == 2
    assert c.n_trials == 4


def test_cdf_all_failed_is_empty():
    res = make_results([1.0, np.nan], [True, True])
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
    assert set(a.distance_error_m) == {"toa", "cp", "ccp"}
    assert a.resolved_integer["toa"] is None
    assert a.resolved_integer["cp"] is not None     # oracle mode always resolves
    assert not any(a.ia_failure.values())
    assert all(np.isfinite(v) for v in a.distance_error_m.values())


def test_trials_differ_across_indices():
    a = run_trial(FAST, 0)
    b = run_trial(FAST, 1)
    assert a.distance_error_m["cp"] != b.distance_error_m["cp"]


def test_scenario_matches_individual_trials():
    results = run_scenario(FAST)
    assert [r.trial_index for r in results] == [0, 1, 2]
    assert results[2] == run_trial(FAST, 2)


def test_worker_count_does_not_change_output(tmp_path):
    cfg = dataclasses.replace(FAST, methods=("cp",), n_trials=4)
    paths = []
    for workers in (1, 2):
        res = run_scenario(cfg, workers=workers)
        out = tmp_path / f"w{workers}.csv"
        emit_results([compute_cdf(res, "cp")], cfg, str(out))
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def _run_outcome(cfg, workers):
    """Per-trial (index, IA flags, integers, error reprs), or the type raised."""
    try:
        results = run_scenario(cfg, workers=workers)
    except Exception as exc:   # the other worker count must raise the same type
        return type(exc)
    return [(r.trial_index, r.ia_failure, r.resolved_integer,
             {m: repr(e) for m, e in r.distance_error_m.items()}) for r in results]


# 9-12 trials with chunksize 8 give both workers of a pool a chunk.
@settings(max_examples=5, deadline=None)
@given(n_symbols=st.integers(2, 4), ccp_sweeps=st.integers(1, 50),
       methods=st.lists(st.sampled_from(METHODS), min_size=1, unique=True),
       ambiguity=st.sampled_from(("oracle", "toa")),
       profile=st.sampled_from(("InF-LOS", "InF-NLOS-S", "InF-NLOS-D")),
       snr_db=st.floats(-10.0, 40.0) | st.just(float("inf")),
       n_trials=st.integers(9, 12), master_seed=st.integers(0, 2**32 - 1))
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
        assert set(run_trial(cfg, 0).distance_error_m) == set(methods)
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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    for n_trials, workers in ((FAST.n_trials, 10**6), (1, 2)):
        cfg = dataclasses.replace(FAST, n_trials=n_trials)
        sizes.clear()
        results = run_scenario(cfg, workers=workers)
        capped = min(workers, n_trials, os.cpu_count() or 1)
        assert sizes == ([capped] if capped > 1 else [])   # one worker runs in this process
        assert results == run_scenario(cfg)


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
            assert r.distance_error_m[method] == pytest.approx(float(error), abs=1e-9)
            assert r.resolved_integer[method] == integer
            assert r.ia_failure[method] is failed


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
            assert r.distance_error_m[method] == pytest.approx(float(error), abs=1e-9)
            assert r.resolved_integer[method] == integer
            assert r.ia_failure[method] is failed


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
    assert not r.ia_failure["cp"]
    assert abs(r.distance_error_m["cp"]) < 1e-6


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
    c = CdfResult("cp", np.array([1.0]), np.array([1.0]), {50: 1.0}, 0, 1)
    with pytest.raises(ConfigError):
        emit_results([c], FAST, str(tmp_path / "x.yaml"), "yaml")


def test_a_path_that_is_no_str_or_path_like_is_a_config_error(tmp_path):
    # open() takes an int, a bool included, as a file descriptor, writes to it
    # and closes it; the path rule refuses it before anything is opened.
    c = CdfResult("cp", np.array([1.0]), np.array([1.0]), {50: 1.0}, 0, 1)
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


def test_cli_method_with_every_trial_failed_keeps_the_others(tmp_path, capsys):
    # Under NLOS bias every cp trial misses its TOA window; the toa results remain.
    cfg = write_cfg(tmp_path, band="FR1", profile="InF-NLOS-S", methods=["toa", "cp"],
                    ambiguity="toa", k_sigma=40.0, n_trials=8, n_symbols=16)
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
                   "--profile", "nlos-s", "--method", "cp,toa"])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["n_trials"] == 3
    assert payload["config"]["master_seed"] == 99
    assert payload["config"]["band"] == "FR2"
    assert payload["config"]["profile"] == "InF-NLOS-S"
    assert set(payload["methods"]) == {"cp", "toa"}


def test_cli_bad_config_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"bogus_key": 1}))
    rc = cli.main(["run", "--config", str(p), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_override_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv"),
                   "--method", "sonar"])
    assert rc == 2


def test_cli_sweep_past_stream_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, ccp_sweeps=100000, methods=["ccp"])
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"n_trials": "5"},
    {"n_trials": 2.5},
    {"snr_db": float("nan")},
    {"snr_db": float("-inf")},
    {"k_sigma": 0},
    {"k_sigma": float("nan")},
    {"k_sigma": float("inf")},
    {"geometry": {"gnb_position_m": [0, 0, 1], "ue_position_m": [float("nan"), 0, 1]}},
    {"geometry": {"gnb_position_m": [0, 0, 0], "ue_position_m": [2000, 0, 0]}},
    {"profile_overrides": {"rms_delay_spread_s": -1}},
    {"methods": ["toa", "toa"]},
    {"profile_overrides": {"kind": "InF-NLOS-S"}},
    {"profile_overrides": {"nlos_excess_delay_mean_s": 5e-8}},
    {"profile": "InF-NLOS-S", "profile_overrides": {"rician_k_db": 10.0}},
    {"profile_overrides": {"rms_delay_spread_s": 1e300}},
    {"profile": "InF-NLOS-D", "profile_overrides": {"nlos_excess_delay_mean_s": 1e-5}},
    {"profile_overrides": {"n_clutter_taps": 10000000}},
    {"snr_db": 5000},
    {"snr_db": -5000},
    {"n_symbols": 1025},
    {"snr_db": 10 ** 400},
    {"profile_overrides": {"rms_delay_spread_s": 10 ** 400}},
    {"geometry": {"gnb_position_m": [0, 0], "ue_position_m": [3, 4]}},
    {"geometry": [[0, 0, 0], [20, 0, 0]]},
    {"profile_overrides": [1, 2]},
    {"profile_overrides": {"rician_k_db": float("-inf")}},
    {"profile_overrides": {"rician_k_db": 4000}},
    {"ambiguity": "widelane", "comb_offset": 5, "widelane_second_fc_hz": 1000.0},
    {"widelane_second_fc_hz": 1000.0},
    {"n_trials": 100000000000000000000},
])
def test_cli_bad_value_exits_2(tmp_path, capsys, extra):
    cfg = write_cfg(tmp_path, **extra)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err


def test_cli_unwritable_output_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["run", "--config", cfg,
                   "--out", str(tmp_path / "no_such_dir" / "o.csv")])
    assert rc == 3
    assert "run failed" in capsys.readouterr().err


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])
