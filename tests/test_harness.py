"""Scenario configs, trials, CDFs, the emitters and the ``phasepos run`` CLI.

Refused configs: each row of ``BAD_CONFIGS`` is a change to one valid base, ``BASE``, in the
JSON a config file holds, with the start of its message.  It passes three doors:
``ScenarioConfig(**raw)``, ``dataclasses.replace`` and ``cli.main`` on the written file, which
must exit 2 with a stderr that starts ``config error: <message>``, print no traceback, write no
output file and never reach ``run_scenario``.  ``LIBRARY_ONLY`` holds the shapes JSON cannot
carry (profile overrides as pairs, an int key, ints past the int-to-str digit limit), for
the two library doors, each of which pins the exact class, ``ConfigError``.

The golden store, ``golden_trials.jsonl``: one JSON line per pinned trial and method of each
``GOLDEN_CONFIGS`` scenario, the record ``harness.outcome_to_dict`` writes for a JSON run
(``error_m`` in metres, null when a failed trial has no range; ``integer``, null for toa and
for no candidate; ``failure``) after the ``config``, ``trial`` and ``method`` that place it.
``test_trial_matches_golden_record`` reruns each trial and compares its error to 1e-9 m and
its integer and reason exactly; ``test_golden_store_is_in_canonical_form`` holds the file to
what its writer writes.  ``PYTHONPATH=src python tests/test_harness.py`` is that writer: it
rewrites the store from today's outcomes through ``trial_records``, the function the check
reads with, and gives a config added to ``GOLDEN_CONFIGS`` all its trials.  The ``fast-*``
errors were written before cp and ccp shared one phase primitive and differ from a fresh run
by up to 2.5e-14 m, so a rewrite moves their last digits.

End to end, ``cli.main`` runs in-process on the ``CLI_CONFIGS`` scenarios:
``test_cli_run_counts_every_trial`` pins each method's trials, failures by reason, kept
errors and their bound; ``test_worker_count_does_not_change_output`` holds the CSV and the
JSON byte-identical at 1 and 2 workers on the dense, periodic and two-carrier paths; and
``test_json_outcomes_rebuild_the_csv`` rebuilds the CSV's rows from the JSON's records.
CI runs the installed console script on its own, before the suite.
"""

import concurrent.futures
import dataclasses
import errno
import functools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_error_vocabulary import above, below, row_id

from phasepos import cli, harness
from phasepos.ambiguity import IA_MODES
from phasepos.channel import Geometry
from phasepos.errors import MAX_ABS_DB, ConfigError, NoSignalError
from phasepos.harness import (METHODS, CdfResult, MethodOutcome, ScenarioConfig, TrialResult,
                              compute_cdf, config_to_dict, emit_results, load_config,
                              outcome_to_dict, run_scenario, run_trial)

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


# A valid config file: write_cfg's fields, and BASE, the same with every method measured so
# that the sweep rules apply.
CFG_FILE = {"n_trials": 2, "methods": ["cp"], "n_symbols": 8, "ccp_sweeps": 50, "master_seed": 5}
BASE = {**CFG_FILE, "methods": list(METHODS)}


def _rows(field, values, prefix):
    return [({field: value}, prefix.format(value)) for value in values]


def _ue_at(x_m):
    return {"gnb_position_m": [0, 0, 0], "ue_position_m": [x_m, 0, 0]}


# Each bad change to BASE, in the JSON shapes a config file holds, and how the message it
# raises begins (``_rows`` puts each value in its prefix's {!r}).  A rule gets a row just
# past each of its bounds.
_MAP_EACH = "profile_overrides must map each profile field name to one value"
_METHODS = "methods must be a nonempty list of ('toa', 'cp', 'ccp') without repeats"
_SNR = "snr_db must lie within +-300 dB or be +inf, got {!r}"
_K = "rician_k_db must lie within +-300 dB or be +inf, got "
_GEOMETRY = "geometry must be a Geometry or a mapping of its two positions, got "
_PAIRED = "widelane_second_fc_hz must be set if and only if ambiguity is widelane"
_HALF_RATE = "widelane_second_fc_hz: carrier {} Hz must exceed half the sample rate"
BAD_CONFIGS = [
    ({"band": "FR9"}, "unknown band 'FR9'"),
    ({"band": "fr9"}, "unknown band 'FR9'"),      # upper-cased first
    ({"band": " FR1"}, "unknown band ' FR1'"),
    ({"band": 3}, "unknown band 3"),
    ({"profile": "InH-Office"}, "unknown profile kind 'InH-Office'"),
    ({"profile": ["InF-LOS"]}, "unknown profile kind ['InF-LOS']"),
    ({"n_trials": 0}, "n_trials must be an integer in [1, 1000000], got 0"),
    *_rows("n_trials", (1_000_001, 10 ** 20, "5", 2.5, True),   # past MAX_TRIALS
           "n_trials must be an integer in [1, 1000000], got {!r}"),
    *_rows("methods", ([], ["toa", "doppler"], ["toa", "toa"], ["sonar"], "toa", {"toa": 1}, 5),
           _METHODS),
    ({"ambiguity": "fuzzy"}, "ambiguity mode must be one of ('oracle', 'toa', 'widelane')"),
    ({"ambiguity": "widelane"}, f"{_PAIRED}, got None for widelane"),     # no carrier
    *(({"ambiguity": mode, "widelane_second_fc_hz": 3.9e9},   # a carrier only widelane reads
       f"{_PAIRED}, got 3900000000.0 for {mode}") for mode in ("oracle", "toa")),
    ({"ccp_sweeps": 0}, "ccp_sweeps must be an integer in [1, inf], got 0"),
    ({"ccp_sweeps": 26594}, "26594 sweeps do not fit in 8 symbols"),   # one past the stream end
    ({"ccp_sweeps": 100000}, "100000 sweeps do not fit in 8 symbols"),
    ({"n_symbols": 2, "ccp_sweeps": 290}, "290 sweeps do not fit in 2 symbols"),
    *_rows("n_symbols", (1, 1025), "n_symbols must be an integer in [2, 1024], got {!r}"),
    ({"master_seed": -1}, "master_seed must be an integer in [0, inf], got -1"),
    ({"prs_seed": -1}, "prs_seed must be an integer in [0, inf], got -1"),   # not sequence_seed
    ({"comb_size": 5}, "comb_size must be one of (2, 4, 6, 12), got 5"),
    ({"comb_offset": 6}, "comb_offset must be an integer in [0, 5], got 6"),
    *_rows("snr_db", (5000, -5000, 5000.0, -5000.0, above(300), below(-300), math.nan, -math.inf),
           _SNR),
    ({"snr_db": "10"}, "snr_db must be a number, got '10'"),
    ({"snr_db": 10 ** 400}, "snr_db must fit in a float, got "),
    *_rows("widelane_second_fc_hz", (0.0, math.inf),
           "widelane_second_fc_hz must be finite and positive, got {!r}"),
    ({"widelane_second_fc_hz": 10 ** 400}, "widelane_second_fc_hz must fit in a float, got "),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 3.8e9},   # the FR1 carrier: no beat
     "widelane_second_fc_hz must differ from the band carrier"),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 1000.0}, _HALF_RATE.format(1000)),
    ({"ambiguity": "widelane", "comb_offset": 5, "widelane_second_fc_hz": 1000.0},
     _HALF_RATE.format(1000)),
    ({"ambiguity": "widelane", "widelane_second_fc_hz": 61.44e6},   # exactly half of FR1's
     _HALF_RATE.format("6.144e+07")),
    ({"band": "FR2", "ambiguity": "widelane", "widelane_second_fc_hz": 245.76e6},
     _HALF_RATE.format("2.4576e+08")),     # the carrier's numerology names the field
    ({"geometry": _ue_at(1657)}, "UE at 1657 m plus the channel's delay"),   # FR1 comb-6 range
    ({"geometry": _ue_at(1700)}, "UE at 1700 m plus the channel's delay"),
    ({"geometry": _ue_at(2000)}, "UE at 2000 m plus the channel's delay"),
    ({"band": "FR2", "geometry": _ue_at(408)}, "UE at 408 m plus the channel's delay"),
    ({"band": "FR2", "geometry": _ue_at(430)}, "UE at 430 m plus the channel's delay"),
    *_rows("geometry", ({"gnb_position_m": [0, 0, 1], "ue_position_m": [math.nan, 0, 1]},
                        {"gnb_position_m": [0, 0, 1], "ue_position_m": [0, 0, 1]}),
           "positions must be finite and distinct, got "),
    ({"geometry": {"gnb_position_m": [0, 0], "ue_position_m": [3, 4]}},   # 2-D
     "gnb_position_m must be three coordinates, got [0, 0]"),
    *_rows("geometry", ({"gnb_position_m": [0, 0, 0]},
                        {"gnb_position_m": [0, 0, 0], "ue_position_m": [20, 0, 0], "x": 1},
                        [[0, 0, 0], [20, 0, 0]]), _GEOMETRY),
    ({"profile_overrides": {"k_factor": 3.0}}, "unknown profile overrides: ['k_factor']"),
    ({"profile_overrides": {"kind": "InF-NLOS-S"}}, "unknown profile overrides: ['kind']"),
    *_rows("profile_overrides", ({"rms_delay_spread_s": -1.0}, {"rms_delay_spread_s": -1}),
           "rms_delay_spread_s must be finite and positive, got "),
    *_rows("profile_overrides", ({"rms_delay_spread_s": "x"}, {"rms_delay_spread_s": None}),
           "rms_delay_spread_s must be a number, got "),
    ({"profile_overrides": {"rms_delay_spread_s": 10 ** 400}},
     "rms_delay_spread_s must fit in a float, got "),
    ({"profile_overrides": {"rms_delay_spread_s": 1e300}},   # spread past the comb range
     "UE at 24.1299 m plus the channel's delay"),
    ({"profile": "InF-NLOS-D", "profile_overrides": {"nlos_excess_delay_mean_s": 1e-5}},
     "UE at 24.1299 m plus the channel's delay"),
    *_rows("profile_overrides", ({"n_clutter_taps": n} for n in (0, 501, 10_000_000, True)),
           "n_clutter_taps must be an integer in [1, 500], got "),   # TR 38.901: 500 rays
    ({"profile_overrides": {"nlos_excess_delay_mean_s": 5e-8}},   # LOS reads no excess
     "nlos_excess_delay_mean_s is required for NLOS kinds and does not apply to InF-LOS"),
    ({"profile": "InF-NLOS-S", "profile_overrides": {"rician_k_db": 10.0}},
     "rician_k_db is required for InF-LOS and applies to no NLOS kind"),
    ({"profile": "InF-NLOS-S", "profile_overrides": {"nlos_excess_delay_mean_s": "x"}},
     "nlos_excess_delay_mean_s must be a number, got 'x'"),
    ({"profile": "InF-NLOS-D", "profile_overrides": {"nlos_excess_delay_mean_s": False}},
     "nlos_excess_delay_mean_s must be a number, got False"),
    ({"profile": "InF-NLOS-S", "profile_overrides": {"nlos_excess_delay_mean_s": 10 ** 400}},
     "nlos_excess_delay_mean_s must fit in a float, got "),
    *_rows("profile_overrides", ({"rician_k_db": k} for k in (
        above(300), below(-300), -300.5, 4000.0, 4000, -math.inf)), _K),
    *_rows("profile_overrides", ({"rician_k_db": "x"}, {"rician_k_db": True}),
           "rician_k_db must be a number, got "),
    ({"profile_overrides": {"rician_k_db": 10 ** 400}}, "rician_k_db must fit in a float, got "),
    *_rows("profile_overrides", ([1, 2], [["rms_delay_spread_s", 4e-8]],
                                 [["rician_k_db", 3.0]]), _MAP_EACH),   # JSON holds no pair
    ({"bogus_key": 1}, "unknown config keys: ['bogus_key']"),
    *_rows("k_sigma", (3.0, 40.0, 0, "x"), "unknown config keys: ['k_sigma']"),   # deleted key
]
# The shapes JSON cannot carry, refused by the two library doors alone: profile overrides
# as (name, value) pairs, which JSON makes lists, an int key, and ints past Python's
# 4,300-digit int-to-str limit.
LIBRARY_ONLY = [
    *(({**raw, "profile_overrides": tuple(raw["profile_overrides"].items())}, prefix)
      for raw, prefix in BAD_CONFIGS if isinstance(raw.get("profile_overrides"), dict)),
    ({"profile_overrides": (("rms_delay_spread_s", 1e-8), ("rms_delay_spread_s", 2e-8))},
     _MAP_EACH),
    ({"profile_overrides": {1: 4e-8}}, _MAP_EACH),
    ({"n_trials": 10 ** 5000}, "n_trials must be an integer in [1, 1000000], got an int of "),
    ({"snr_db": 10 ** 5000}, "snr_db must fit in a float, got an int of "),
]
LIBRARY_DOORS = {"ScenarioConfig": lambda raw: ScenarioConfig(**{**BASE, **raw}),
                 "replace": lambda raw: dataclasses.replace(ScenarioConfig(**BASE), **raw)}
CONFIG_ROWS = [*((door, raw, prefix) for raw, prefix in BAD_CONFIGS
                 for door in (*LIBRARY_DOORS, "cli")),
               *((door, raw, prefix) for raw, prefix in LIBRARY_ONLY for door in LIBRARY_DOORS)]


@pytest.mark.parametrize("door,raw,prefix", CONFIG_ROWS,
                         ids=[row_id(door, raw) for door, raw, _ in CONFIG_ROWS])
def test_a_bad_config_is_refused_at_every_door(tmp_path, capsys, monkeypatch, door, raw, prefix):
    if door in LIBRARY_DOORS:
        with pytest.raises(ConfigError, match="^" + re.escape(prefix)) as raised:
            LIBRARY_DOORS[door](raw)
        assert type(raised.value) is ConfigError
        return
    # The CLI: exit 2 and a one-line message before any trial, and no output file.
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kwargs: pytest.fail("a trial ran"))
    config, out = tmp_path / "scenario.json", tmp_path / "o.csv"
    config.write_text(json.dumps({**BASE, **raw}))
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {prefix}") and "Traceback" not in err
    assert not out.exists()


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


def test_scenario_config_has_no_k_sigma():
    # The IA windows follow from the wavelengths alone, and the sweep spacing from the
    # stream; no field is left to tune them.  An old config's k_sigma: the BAD_CONFIGS rows.
    assert not {"k_sigma", "toa_sigma_s", "ccp_shift"} & {
        f.name for f in dataclasses.fields(ScenarioConfig)}


def test_positional_misuse_is_a_config_error():
    # The fields in order take positional values; a repeat or a surplus is named, not a
    # TypeError.  tests/test_error_vocabulary.py holds every record to the same rule.
    assert ScenarioConfig("fr2", "InF-NLOS-S", 5.0) == ScenarioConfig(
        band="FR2", profile="InF-NLOS-S", snr_db=5.0)
    with pytest.raises(ConfigError, match=re.escape("by position and by keyword: ['band']")):
        ScenarioConfig("FR1", band="FR2")
    with pytest.raises(ConfigError, match="^16 positional values for 15 fields$"):
        ScenarioConfig(*(getattr(FAST, f.name) for f in dataclasses.fields(FAST)), None)


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
def test_scenario_config_raises_only_config_error(build, raw):
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
    res = make_results([1.0, 2.0, None, 4.0], [None, "wrong_integer", "no_signal", None])
    c = compute_cdf(res, "cp")
    assert list(c.abs_errors_m) == [1.0, 4.0]
    assert c.n_failures == 2
    assert c.n_trials == 4


def test_cdf_counts_failures_by_reason(tmp_path, monkeypatch, capsys):
    # One kept trial and four failed ones, three reasons; the JSON block and the CLI
    # line carry the same counts.
    res = make_results([-0.5, None, None, 9.0, -9.0],
                       [None, "no_candidate", "no_signal", "wrong_integer", "wrong_integer"])
    c = compute_cdf(res, "cp")
    assert c.failures == (("no_candidate", 1), ("no_signal", 1), ("wrong_integer", 2))
    assert c.n_failures == 4 and c.n_trials == 5
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, workers: res)
    out = tmp_path / "res.json"
    assert cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(out),
                     "--format", "json"]) == 0
    block = json.loads(out.read_text())["methods"]["cp"]
    assert block["n_trials"] == 5
    assert block["failures"] == {"no_candidate": 1, "no_signal": 1, "wrong_integer": 2}
    assert [o["error_m"] for o in block["outcomes"]] == [-0.5, None, None, 9.0, -9.0]
    assert capsys.readouterr().err.splitlines() == [
        "cp: trials=5 failures=4 (no_candidate 1, no_signal 1, wrong_integer 2)"
        " p50=0.5m p67=0.5m p90=0.5m p95=0.5m", f"wrote {out}"]


def test_cdf_results_compare_by_their_outcomes_and_derive_the_rest_read_only():
    a, b = (compute_cdf(make_results([0.3, 9.0], [None, "wrong_integer"]), "cp") for _ in range(2))
    assert a == b and hash(a) == hash(b) and a != compute_cdf(make_results([0.3, 9.0]), "cp")
    for name in ("method", "outcomes", *(n for n in vars(CdfResult) if not n.startswith("_"))):
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))


def test_cdf_all_failed_is_empty():
    res = make_results([1.0, None], ["wrong_integer", "no_candidate"])
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
    """The trials run on ``workers`` workers, or the type raised."""
    try:
        return run_scenario(cfg, workers=workers)
    except Exception as exc:   # the other worker count must raise the same type
        return type(exc)


# Any config gives the same trials in this process as split between two workers, under
# ``==``: the example's 1 GHz widelane run has seven outcomes with no range (no_candidate).
@settings(max_examples=5, deadline=None)
@given(n_symbols=st.integers(2, 4), ccp_sweeps=st.integers(1, 50),
       methods=st.lists(st.sampled_from(METHODS), min_size=1, unique=True),
       ambiguity=st.sampled_from(("oracle", "toa", "widelane")),
       second_fc_hz=st.floats(1.0e9, 3.0e9),     # read under widelane only
       profile=st.sampled_from(("InF-LOS", "InF-NLOS-S", "InF-NLOS-D")),
       snr_db=st.floats(-10.0, 40.0) | st.just(float("inf")),
       n_trials=st.integers(2, 12), master_seed=st.integers(0, 2**32 - 1))
@example(n_symbols=8, ccp_sweeps=50, methods=list(METHODS), ambiguity="widelane",
         second_fc_hz=1.0e9, profile="InF-LOS", snr_db=10.0, n_trials=8, master_seed=20260815)
def test_any_config_same_trials_for_one_and_two_workers(n_symbols, ccp_sweeps, methods,
                                                       ambiguity, second_fc_hz, profile, snr_db,
                                                       n_trials, master_seed):
    cfg = ScenarioConfig(n_symbols=n_symbols, ccp_sweeps=ccp_sweeps, methods=tuple(methods),
                         ambiguity=ambiguity, profile=profile, snr_db=snr_db,
                         n_trials=n_trials, master_seed=master_seed,
                         widelane_second_fc_hz=second_fc_hz if ambiguity == "widelane" else None)
    assert _run_outcome(cfg, 1) == _run_outcome(cfg, 2)


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

        def __init__(self, max_workers, **options):
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

        def __init__(self, max_workers, **options):
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


FORKED_PAIR = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork" or (os.cpu_count() or 1) < 2,
    reason="needs two CPUs and pool children forked with the patched run_trial")


@FORKED_PAIR
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


# The pinned scenarios by name.  tests/golden_trials.jsonl holds one record per pinned
# trial and method of each; the FAST records' errors were written before cp and ccp
# shared one phase primitive, so some differ from today's in the last digits.
GOLDEN_CONFIGS = {
    "fast-oracle": FAST,
    "fast-toa": dataclasses.replace(FAST, ambiguity="toa"),
    "fast-widelane": dataclasses.replace(FAST, ambiguity="widelane", widelane_second_fc_hz=3.9e9),
    # The default stream length, which the 8-symbol streams do not reach.
    "fast-toa-128-symbols": dataclasses.replace(FAST, ambiguity="toa", n_symbols=128),
    # lambda_v / 2 under the finer wavelength (1.5 and 3.8 GHz) leaves widelane's fine window
    # empty on cp's trial 19, while ccp finds an integer one off the truth's.
    "widelane-1.5ghz": ScenarioConfig(n_symbols=16, ccp_sweeps=200, methods=("cp", "ccp"),
                                      ambiguity="widelane", widelane_second_fc_hz=1.5e9,
                                      n_trials=20),
}
GOLDEN_PATH = Path(__file__).with_name("golden_trials.jsonl")
GOLDEN_LINES = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
GOLDEN_RECORDS = [json.loads(line) for line in GOLDEN_LINES]
# Each config's pinned trials: those the store holds, or every trial of a config it lacks.
PINNED = {name: sorted({r["trial"] for r in GOLDEN_RECORDS if r["config"] == name})
          or list(range(cfg.n_trials)) for name, cfg in GOLDEN_CONFIGS.items()}


def trial_records(name, cfg, trials):
    """The golden record of each of ``trials`` and each method of ``cfg``: the run's record
    of the outcome, after the keys that place it."""
    return [{"config": name, "trial": t, "method": m, **outcome_to_dict(o)}
            for t in trials for m, o in run_trial(cfg, t).outcomes.items()]


@functools.lru_cache(maxsize=None)     # one run of a trial serves each of its methods
def _recomputed(name, trial):
    return {r["method"]: r for r in trial_records(name, GOLDEN_CONFIGS[name], [trial])}


@pytest.mark.parametrize("want", GOLDEN_RECORDS,
                         ids=[f"{r['config']}-{r['trial']}-{r['method']}" for r in GOLDEN_RECORDS])
def test_trial_matches_golden_record(want):
    # approx takes the error to 1e-9 m and every other field, None included, exactly.
    got = _recomputed(want["config"], want["trial"])[want["method"]]
    assert got == pytest.approx(want, abs=1e-9)


def test_golden_store_is_in_canonical_form():
    # What this module's main writes: one line of the keys per pinned (config, trial, method),
    # configs in GOLDEN_CONFIGS order, trials ascending, methods in config order.
    assert GOLDEN_LINES == [json.dumps(r) for r in GOLDEN_RECORDS]
    keys = ["config", "trial", "method", *(f.name for f in dataclasses.fields(MethodOutcome))]
    assert all(list(r) == keys for r in GOLDEN_RECORDS)
    assert [(r["config"], r["trial"], r["method"]) for r in GOLDEN_RECORDS] == [
        (name, t, m) for name, cfg in GOLDEN_CONFIGS.items() for t in PINNED[name]
        for m in cfg.methods]
    for r in GOLDEN_RECORDS:
        assert r["failure"] in (None, *harness.FAILURE_REASONS)
        # A phase method has an error exactly when it has an integer; TOA has no integer.
        assert r["integer"] is None if r["method"] == "toa" else (
            (r["error_m"] is None) is (r["integer"] is None))


def test_trial_result_views_are_the_three_dicts_perfbench_reads():
    # The dicts a TrialResult held before it had outcomes; perfbench still reads them.
    no_candidate = MethodOutcome(None, None, "no_candidate")
    r = TrialResult(0, {"toa": MethodOutcome(0.02), "cp": no_candidate,
                        "ccp": MethodOutcome(-0.16, 303, "wrong_integer")})
    assert r.resolved_integer == {"toa": None, "cp": None, "ccp": 303}
    assert r.ia_failure == {"toa": False, "cp": True, "ccp": True}
    assert list(r.distance_error_m.items()) == [("toa", 0.02), ("cp", None), ("ccp", -0.16)]


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
    assert list(results[1].outcomes.values()) == [MethodOutcome(None, None, "no_signal")] * 3
    assert [o.failure for o in results[0].outcomes.values()] == [None] * 3
    assert results[2].outcomes["cp"].failure == "wrong_integer"    # golden record fast-toa-2-cp
    calls.clear()
    cfg = write_cfg(tmp_path, methods=list(METHODS), ambiguity="toa", n_trials=3,
                    master_seed=FAST.master_seed)
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "res.csv")]) == 0
    assert "toa: trials=3 failures=1 (no_signal 1)" in capsys.readouterr().err


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
        assert outcomes[method] == MethodOutcome(None, None, "no_signal")


def test_asset_cache_holds_one_scenario():
    # Each entry holds two period spectra; callers run one scenario at a time.  The config
    # check and the per-scenario cache both build _Assets.
    assert harness._build_assets.__wrapped__ is harness._Assets
    assert harness._build_assets.cache_parameters() == {"maxsize": 1, "typed": False}
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
    assert set(payload) == {"schema", "config", "methods"} and payload["schema"] == 2
    assert payload["config"]["master_seed"] == FAST.master_seed
    assert payload["config"] == json.loads(json.dumps(config_to_dict(FAST)))
    assert set(payload["methods"]) == {"toa", "cp", "ccp"}
    for c in cdfs:    # each block holds each trial's record, in run order
        block = payload["methods"][c.method]
        assert set(block) == {"n_trials", "failures", "percentiles", "outcomes"}
        assert block["n_trials"] == len(block["outcomes"]) == FAST.n_trials
        assert block["outcomes"] == [json.loads(json.dumps(outcome_to_dict(o))) for o in c.outcomes]
    fields = [f.name for f in dataclasses.fields(MethodOutcome)]
    assert all(list(o) == sorted(fields) for o in payload["methods"]["cp"]["outcomes"])
    assert set(payload["methods"]["cp"]["percentiles"]) == {"p50", "p67", "p90", "p95"}


def test_a_path_that_is_no_str_or_path_like_is_a_config_error(tmp_path):
    # open() takes an int, a bool included, as a file descriptor, writes to it
    # and closes it; the path rule refuses it before anything is opened.
    c = CdfResult("cp", (MethodOutcome(1.0),))
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
    out, link = tmp_path / "results.csv", tmp_path / "link.csv"    # a pathlib.Path is a path
    out.touch(0o640)
    link.symlink_to(out)
    mode = out.stat().st_mode
    emit_results([c], FAST, link)    # replaces the link's file whole, in the mode it had
    assert link.is_symlink() and out.stat().st_mode == mode
    assert out.read_text().startswith("method,abs_error_m,cdf\n")
    emit_results([c], FAST, os.devnull)    # written in place, never replaced
    assert not os.path.isfile(os.devnull)


# ------------------------------------------------------------------------ cli

def write_cfg(tmp_path, **extra):
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps({**CFG_FILE, **extra}))
    return str(p)


def test_cli_run_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "res.csv"
    rc = cli.main(["run", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr().err
    assert rc == 0
    assert out.exists()
    assert "cp: trials=2 failures=0 p50=" in captured
    assert f"wrote {out}" in captured
    assert out.read_text().startswith("method,abs_error_m,cdf\n")


# Whole runs through the CLI, by name.  A config's +inf is written as Python's json writes it,
# Infinity, which load_config reads; a run echoes it as standard JSON (see strict_json).
CLI_CONFIGS = {
    "exact": {"n_trials": 3, "n_symbols": 16, "ccp_sweeps": 200, "snr_db": math.inf,
              "profile_overrides": {"rician_k_db": math.inf}},
    # Sets trials, seed, band, profile, methods and IA mode: toa searches around the TOA
    # range on the FR2 NLOS-S channel.
    "flags": {"n_trials": 2, "master_seed": 9, "band": "fr2", "profile": "InF-NLOS-S",
              "methods": ["toa"], "ambiguity": "toa", "n_symbols": 8, "ccp_sweeps": 20},
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


def cli_run(tmp_path, name, out, *options, **fields):
    """Runs CLI_CONFIGS[name], with ``fields`` over its own, into tmp_path / out with
    ``options`` and returns the written bytes."""
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps({**CLI_CONFIGS[name], **fields}))
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / out), *options]) == 0
    return (tmp_path / out).read_bytes()


def strict_json(data: bytes):
    """``data`` read as standard JSON: an Infinity, -Infinity or NaN token fails the test."""
    return json.loads(data, parse_constant=lambda token: pytest.fail(f"not standard JSON: {token}"))


# Each run's (trials, failures by reason, kept errors, bound on every kept |error| in
# metres) per method.
CLI_RUNS = [
    # One direct path and no noise: cp and ccp keep only rounding (2.7e-10 m at most),
    # toa only its fine-search bias (3.5e-5 m).
    ("exact", {"toa": (3, {}, 3, 1e-4), "cp": (3, {}, 3, 1e-9), "ccp": (3, {}, 3, 1e-9)}),
    ("flags", {"toa": (2, {}, 2, math.inf)}),
    # The densest NLOS profile on the FR2 numerology.
    ("nlos", {"toa": (2, {}, 2, math.inf)}),
    # 1.5 and 3.8 GHz put lambda_v / 2 under the finer wavelength: each of cp and ccp fails
    # 11 of 20 trials (wrong integers; one cp trial has no widelane candidate).
    ("ia", {"cp": (20, {"no_candidate": 1, "wrong_integer": 10}, 9, math.inf),
            "ccp": (20, {"wrong_integer": 11}, 9, math.inf)}),
    ("periodic", dict.fromkeys(METHODS, (2, {}, 2, math.inf))),
    # A strong direct path (K = 30 dB) resolves cp once and ccp twice.
    ("periodic-widelane", {"toa": (2, {}, 2, math.inf),
                           "cp": (2, {"wrong_integer": 1}, 1, math.inf),
                           "ccp": (2, {}, 2, math.inf)}),
]


@pytest.mark.parametrize("name,expected", CLI_RUNS, ids=[run[0] for run in CLI_RUNS])
def test_cli_run_counts_every_trial(tmp_path, name, expected):
    run = strict_json(cli_run(tmp_path, name, "res.json", "--format", "json"))
    # The config echo, read as standard JSON, is the config the run read: exact's +inf SNR
    # and K come back as +inf.
    (tmp_path / "echo.json").write_text(json.dumps(run["config"]))
    assert load_config(tmp_path / "echo.json") == load_config(tmp_path / f"{name}.json")
    methods = run["methods"]
    assert set(methods) == set(expected)
    for m, (n_trials, failures, kept, bound) in expected.items():
        outcomes = methods[m]["outcomes"]
        errors = [abs(o["error_m"]) for o in outcomes if o["failure"] is None]
        assert (methods[m]["n_trials"], len(outcomes), methods[m]["failures"], len(errors)) == (
            n_trials, n_trials, failures, kept), m
        assert max(errors, default=0.0) <= bound, m


# One and two workers write the same CSV and JSON on the dense, periodic and two-carrier
# paths; at 9 trials, the CSV lines and the JSON's records, one per trial and method.
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name,lines", [("dense", 16), ("periodic", 28),
                                        ("periodic-widelane", 24)])
def test_worker_count_does_not_change_output(tmp_path, name, lines, fmt):
    outs = []
    for workers in ("1", "2"):
        harness._build_assets.cache_clear()     # no pool child inherits this process's assets
        outs.append(cli_run(tmp_path, name, f"w{workers}.{fmt}", "--workers", workers,
                            "--format", fmt, n_trials=9))
    assert outs[0] == outs[1]
    mark, count = {"csv": (b"\n", lines), "json": (b'"error_m"', 9 * len(METHODS))}[fmt]
    assert outs[0].count(mark) == count
    if fmt == "json":
        strict_json(outs[0])


def test_json_outcomes_rebuild_the_csv(tmp_path):
    # Each method's kept records, their |error| sorted, with i/n beside the i-th, are the
    # CSV's rows bit for bit (repr round-trips), and its failures count its records by reason.
    rows = cli_run(tmp_path, "ia", "res.csv").decode().splitlines()[1:]
    methods = json.loads(cli_run(tmp_path, "ia", "res.json", "--format", "json"))["methods"]
    rebuilt = []
    for m in CLI_CONFIGS["ia"]["methods"]:    # the CSV's order
        block = methods[m]
        kept = sorted(abs(o["error_m"]) for o in block["outcomes"] if o["failure"] is None)
        rebuilt += [f"{m},{e!r},{(i + 1) / len(kept)!r}" for i, e in enumerate(kept)]
        assert block["failures"] == Counter(o["failure"] for o in block["outcomes"]
                                            if o["failure"] is not None), m
    assert rebuilt == rows


def test_cli_method_with_every_trial_failed_keeps_the_others(tmp_path, capsys):
    # Under NLOS bias every cp trial takes a wrong integer; the toa results remain.
    cfg = write_cfg(tmp_path, band="FR1", profile="InF-NLOS-S", methods=["toa", "cp"],
                    ambiguity="toa", n_trials=8, n_symbols=16)
    csv_out, json_out = tmp_path / "res.csv", tmp_path / "res.json"
    assert cli.main(["run", "--config", cfg, "--out", str(csv_out)]) == 0
    assert "\ncp: trials=8 failures=8 (wrong_integer 8)\n" in capsys.readouterr().err
    rows = csv_out.read_text().splitlines()[1:]
    assert len(rows) == 8 and all(r.startswith("toa,") for r in rows)
    assert cli.main(["run", "--config", cfg, "--out", str(json_out), "--format", "json"]) == 0
    methods = json.loads(json_out.read_text())["methods"]
    assert methods["cp"]["percentiles"] == {} and methods["cp"]["failures"] == {"wrong_integer": 8}
    assert [o["failure"] for o in methods["cp"]["outcomes"]] == ["wrong_integer"] * 8
    assert set(methods["toa"]["percentiles"]) == {"p50", "p67", "p90", "p95"}


def test_band_is_stored_upper_cased(tmp_path):
    # "fr2" runs the trials "FR2" does, so the two are one config and echo as one.
    assert ScenarioConfig(band="fr2") == ScenarioConfig(band="FR2")
    assert hash(ScenarioConfig(band="fr2")) == hash(ScenarioConfig(band="FR2"))
    out = tmp_path / "res.json"
    for band in ("fr2", "Fr1"):
        cfg = write_cfg(tmp_path, band=band)
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == 0
        assert json.loads(out.read_text())["config"]["band"] == band.upper()


@pytest.mark.parametrize("mode", IA_MODES)
def test_a_widelane_carrier_is_set_exactly_when_widelane_reads_it(tmp_path, mode):
    # Any mode but widelane would run without the carrier it was given: BAD_CONFIGS refuses it.
    pair = dict(ambiguity=mode, widelane_second_fc_hz=3.9e9 if mode == "widelane" else None)
    out = tmp_path / "o.csv"
    assert cli.main(["run", "--config", write_cfg(tmp_path, **pair), "--out", str(out)]) == 0
    assert out.exists()
    for cfg in (ScenarioConfig(**pair), dataclasses.replace(FAST, **pair)):
        assert cfg.widelane_second_fc_hz == pair["widelane_second_fc_hz"]


# Only the config file sets scenario fields, so each of these is argparse's usage error.
REMOVED_OPTIONS = [("--trials", "2"), ("--seed", "9"), ("--band", "fr2"),
                   ("--profile", "nlos-s"), ("--method", "toa"), ("--ia", "toa")]


@pytest.mark.parametrize("option", REMOVED_OPTIONS, ids=[o[0] for o in REMOVED_OPTIONS])
def test_cli_scenario_option_is_a_usage_error(tmp_path, capsys, option):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--config", write_cfg(tmp_path), "--out", str(out), *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not out.exists()


# A key given twice in a config file, at the top level and inside a nested object.
REPEATED_KEYS = [
    ('{"n_trials": 2, "n_trials": 3, "methods": ["cp"], "n_symbols": 8}', "n_trials"),
    ('{"n_trials": 2, "methods": ["cp"], "n_symbols": 8, "geometry": {'
     '"gnb_position_m": [0, 0, 10], "ue_position_m": [20, 0, 1.5], "ue_position_m": [9, 0, 1]}}',
     "ue_position_m"),
    ('{"n_trials": 2, "methods": ["cp"], "n_symbols": 8,'
     ' "profile_overrides": {"rician_k_db": 10, "rician_k_db": 20}}', "rician_k_db"),
]


@pytest.mark.parametrize("text,key", REPEATED_KEYS, ids=[k for _, k in REPEATED_KEYS])
def test_cli_repeated_config_key_exits_2(tmp_path, capsys, text, key):
    cfg, out = tmp_path / "scenario.json", tmp_path / "o.csv"
    cfg.write_text(text)
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot read config {cfg}: key {key!r} is given twice\n"
    assert not out.exists()


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_cli_out_that_is_the_config_exits_2(tmp_path, capsys, link):
    cfg = write_cfg(tmp_path)
    before = Path(cfg).read_bytes()
    out = tmp_path / "link.json" if link else Path(cfg)
    if link:
        out.symlink_to(cfg)
    for fmt in ("csv", "json"):
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--format", fmt]) == 2
        assert capsys.readouterr().err == f"config error: --out {out} is the config file\n"
    assert Path(cfg).read_bytes() == before


# Outputs refused the same way through the CLI's --out and emit_results' path.
UNWRITABLE_OUTS = {"missing-dir": ("no_such_dir/o.csv", "is not in an existing directory"),
                   "file-as-dir": ("scenario.json/o.csv", "is not in an existing directory"),
                   "directory": (".", "names no file"),
                   "trailing-separator": ("no_such_dir/", "names no file")}


@pytest.mark.parametrize("out, problem", UNWRITABLE_OUTS.values(), ids=UNWRITABLE_OUTS)
def test_cli_out_that_cannot_be_written_exits_2(tmp_path, capsys, monkeypatch, out, problem):
    # Found before the first trial, not after the last one.
    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario ran")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    cfg = write_cfg(tmp_path)
    out = os.path.join(tmp_path, out)
    assert cli.main(["run", "--config", cfg, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: --out {out} {problem}\n"


@pytest.mark.parametrize("out, problem", UNWRITABLE_OUTS.values(), ids=UNWRITABLE_OUTS)
def test_emit_results_refuses_the_outs_the_cli_refuses(tmp_path, out, problem):
    write_cfg(tmp_path)
    out = os.path.join(tmp_path, out)
    with pytest.raises(ConfigError, match=f"^path {re.escape(out)} {problem}$"):
        emit_results([CdfResult("cp", (MethodOutcome(1.0),))], FAST, out)
    assert os.listdir(tmp_path) == ["scenario.json"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
def test_cli_out_to_dev_stdout_writes_into_a_pipe(tmp_path, capsys):
    # /dev/stdout resolves to a pipe, which is written in place like /dev/null.
    cfg, out = write_cfg(tmp_path), tmp_path / "res.csv"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    piped = subprocess.run([sys.executable, "-m", "phasepos.cli", "run", "--config", cfg,
                            "--out", "/dev/stdout"], capture_output=True, env=env)
    assert piped.returncode == 0
    assert piped.stdout == out.read_bytes()     # the summary lines go to stderr
    assert piped.stderr.endswith(b"\nwrote /dev/stdout\n")


def test_cli_unwritable_output_exits_3(tmp_path, capsys, monkeypatch):
    # A write that fails only when the results are written, after every trial ran.
    def unwritable(path, mode="r", **kwargs):
        if "w" in mode:
            raise PermissionError(13, "Permission denied", str(path))
        return open(path, mode, **kwargs)

    monkeypatch.setattr(harness, "open", unwritable, raising=False)
    cfg = write_cfg(tmp_path)
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert capsys.readouterr().err.startswith("run failed: [Errno 13] Permission denied")
    assert os.listdir(tmp_path) == ["scenario.json"]    # no temp file left


@functools.wraps(run_trial)     # the name pickle resolves in a forked worker
def _dies_on_trial_3(cfg, trial):
    return os._exit(1) if trial == 3 else run_trial(cfg, trial)


def _raises(exc):
    def call(*args, **kwargs):
        raise exc
    return call


def _full_after_one_byte(path, mode="r", **kwargs):
    fh = open(path, mode, **kwargs)
    def write(text):
        type(fh).write(fh, text[:1])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    fh.write = write
    return fh


# Runs that fail once the config passed: what each patches, exit code, stderr line, workers
# and what --out held before the run (None: no file, and none may be left).
DISK_FULL = ("phasepos.harness.open", _full_after_one_byte, 3,
             f"run failed: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}", "1")
FAILED_RUNS = {
    "worker-dies": pytest.param("phasepos.harness.run_trial", _dies_on_trial_3, 3,
                                "run failed: a worker process died", "2", "previous results\n",
                                marks=FORKED_PAIR),
    "ctrl-c": ("phasepos.cli.run_scenario", _raises(KeyboardInterrupt), 130, "interrupted", "1",
               "previous results\n"),
    "rename-denied": ("os.replace", _raises(PermissionError(errno.EACCES, "Permission denied")), 3,
                      f"run failed: [Errno {errno.EACCES}] Permission denied", "1",
                      "previous results\n"),
    "disk-full": (*DISK_FULL, "previous results\n"),
    "disk-full-new-out": (*DISK_FULL, None),
}


@pytest.mark.parametrize("target,patch,code,err,workers,before", FAILED_RUNS.values(),
                         ids=FAILED_RUNS)
def test_a_failed_run_is_one_line(tmp_path, capsys, monkeypatch, target, patch, code, err, workers,
                                  before):
    cfg, out = write_cfg(tmp_path, n_trials=8), tmp_path / "res.csv"
    if before is not None:
        out.write_text(before)
    monkeypatch.setattr(target, patch, raising=False)
    harness._build_assets.cache_clear()     # no pool child inherits this process's assets
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--workers", workers]) == code
    assert capsys.readouterr().err == err + "\n"
    left = {p.name: p.read_text() for p in tmp_path.iterdir() if p.name != "scenario.json"}
    assert left == ({} if before is None else {"res.csv": before})    # no temp file left


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        cli.main([])


if __name__ == "__main__":     # PYTHONPATH=src python tests/test_harness.py rewrites the store
    GOLDEN_PATH.write_text("".join(json.dumps(r) + "\n" for name, cfg in GOLDEN_CONFIGS.items()
                                   for r in trial_records(name, cfg, PINNED[name])),
                           encoding="utf-8")
