"""Monte-Carlo scenario runner, CDF statistics, and result emitters.

Per trial the harness draws one channel realization and measures every
requested method against it: TOA on the conventional waveform, and carrier
phase on the continuous waveform through ``ccp_measure``, whose window plan
is one window for cp and a stream-spanning sweep for ccp.  Each phase is
resolved to a range, and judged for IA failure, by ``ambiguity.resolve``.
Per-trial seeds are split deterministically from the master seed, so results
are independent of worker count and execution order.

A ``ScenarioConfig`` validates itself when built, so a bad value raises
``ConfigError`` before any trial.  One derivation of a scenario, ``_Assets``,
serves both that check and every trial; it keeps one period's spectrum of each
transmit stream, built when first read, so a scenario transforms only the
streams its methods use, and each once.  A method whose every trial fails IA
resolution gets an empty CDF that still reports its failure count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .ambiguity import IA_MODES, phase_to_fraction, resolve
from .channel import Geometry, add_awgn, apply_channel, draw_channel, profile_preset
from .constants import SPEED_OF_LIGHT
from .errors import ConfigError, as_db, as_int, as_positive
from .receiver import ccp_measure, estimate_toa
from .waveform import (CONTINUOUS, CONVENTIONAL, PrsConfig, generate_prs_column, make_numerology,
                       middle_subcarrier, ofdm_modulate)

METHODS = ("toa", "cp", "ccp")
MAX_SYMBOLS = 1024       # 8x the default; an FR1 received stream and its noise draw are 72 MB each
MAX_TRIALS = 1_000_000   # each kept TrialResult is about 0.8 KB
_NUMBER_RULES = (("n_trials", as_int, 1, MAX_TRIALS), ("ccp_sweeps", as_int, 1, math.inf),
                 ("n_symbols", as_int, 2, MAX_SYMBOLS), ("master_seed", as_int, 0, math.inf),
                 ("snr_db", as_db), ("k_sigma", as_positive))


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproducible scenario run depends on.

    It takes the JSON shapes as well as its own: a list of methods becomes a
    tuple, a mapping of exactly ``gnb_position_m`` and ``ue_position_m``
    becomes a ``Geometry``, and a mapping of profile overrides becomes a
    tuple of (name, value) pairs sorted by name.  Construction (including
    ``dataclasses.replace``) validates every field and raises
    ``ConfigError`` on any other shape, a wrongly typed, non-finite or
    too large value, a finite SNR beyond ``MAX_ABS_DB``, more than
    ``MAX_SYMBOLS`` symbols or ``MAX_TRIALS`` trials, an unknown name, a
    repeated method, a profile override named twice or not read by the
    profile kind, or parts that do not fit together (``_Assets`` checks
    those).  A rejected number's message names the field, its allowed range
    and the value; an accepted one is stored as the Python int or float its
    check returns.
    """

    band: str = "FR1"
    profile: str = "InF-LOS"
    snr_db: float = 10.0
    n_trials: int = 200
    methods: tuple[str, ...] = ("toa", "cp", "ccp")
    ambiguity: str = "oracle"
    ccp_sweeps: int = 1000
    n_symbols: int = 128                  # 128 symbols span exactly 137 FFT lengths
    master_seed: int = 20260815
    geometry: Geometry = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))
    comb_size: int = 6
    comb_offset: int = 0
    prs_seed: int = 7
    k_sigma: float = 3.0                  # IA window half-width in one-sample TOA stds
    widelane_second_fc_hz: float | None = None
    profile_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # The JSON shapes become the hashable ones trials cache their assets by.
        if isinstance(self.methods, list):
            object.__setattr__(self, "methods", tuple(self.methods))
        if (isinstance(self.geometry, Mapping)
                and set(self.geometry) == {"gnb_position_m", "ue_position_m"}):
            object.__setattr__(self, "geometry", Geometry(**self.geometry))
        if (isinstance(self.profile_overrides, Mapping)
                and all(isinstance(k, str) for k in self.profile_overrides)):
            object.__setattr__(self, "profile_overrides",
                               tuple(sorted(self.profile_overrides.items())))
        if not isinstance(self.geometry, Geometry):
            raise ConfigError(f"geometry must be a Geometry or a mapping of its two positions, "
                              f"got {self.geometry!r}")
        if not (isinstance(self.profile_overrides, tuple)
                and all(isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)
                        for p in self.profile_overrides)
                and len(dict(self.profile_overrides)) == len(self.profile_overrides)):
            raise ConfigError("profile_overrides must map each profile field name to one value")
        rules = _NUMBER_RULES
        if self.widelane_second_fc_hz is not None:
            rules += (("widelane_second_fc_hz", as_positive),)
        for name, check, *bounds in rules:
            object.__setattr__(self, name, check(name, getattr(self, name), *bounds))
        if (not isinstance(self.methods, tuple) or not self.methods
                or any(m not in METHODS for m in self.methods)
                or len(set(self.methods)) != len(self.methods)):
            raise ConfigError(f"methods must be a nonempty list of {METHODS} without repeats")
        if self.ambiguity not in IA_MODES:
            raise ConfigError(f"ambiguity mode must be one of {IA_MODES}")
        if self.ambiguity == "widelane" and self.widelane_second_fc_hz is None:
            raise ConfigError("widelane ambiguity mode needs widelane_second_fc_hz")
        profile = _Assets(self).profile   # the rules that join the parts
        object.__setattr__(self, "profile_overrides", tuple(
            (name, getattr(profile, name)) for name, _ in self.profile_overrides))
        for name in ("comb_size", "comb_offset", "prs_seed"):
            object.__setattr__(self, name, int(getattr(self, name)))


@dataclass
class TrialResult:
    trial_index: int
    distance_error_m: dict[str, float]
    resolved_integer: dict[str, int | None]
    ia_failure: dict[str, bool]


@dataclass
class CdfResult:
    method: str
    abs_errors_m: np.ndarray      # sorted ascending
    cdf: np.ndarray               # i/n for the i-th sorted error
    percentiles: dict[int, float]
    n_failures: int
    n_trials: int


class _Assets:
    """What every trial of one scenario reads, derived once from its config.

    Building it raises ``ConfigError`` when the config's parts do not fit
    together: a widelane carrier equal to the band's or at or below half the
    sample rate, more sweeps than the stream has window positions when ccp is
    measured (no other method reads ``ccp_sweeps``), or a UE whose geometric
    delay plus the profile's mean NLOS excess and delay spread reaches the
    comb's TOA range 1 / (comb_size * scs).  Each transmit stream is
    modulated when first read into the pair every trial reads, the read-only
    spectrum of one period and the period count n / p; no samples are kept.
    """

    def __init__(self, cfg: ScenarioConfig) -> None:
        self.num = num = make_numerology(cfg.band)
        self.profile = profile = profile_preset(cfg.profile, **dict(cfg.profile_overrides))
        fc2 = cfg.widelane_second_fc_hz
        if fc2 == num.carrier_frequency_hz:
            raise ConfigError("widelane_second_fc_hz must differ from the band carrier")
        # The modulated samples do not depend on the carrier, so the widelane
        # carrier sends the same stream (one spectrum) on a numerology with another carrier.
        widelane = () if fc2 is None else (dataclasses.replace(num, carrier_frequency_hz=fc2),)
        self.carriers = (num, *widelane)[:2 if cfg.ambiguity == "widelane" else 1]
        # cp: one window on symbol 1's useful part, clear of the stream head
        # where the circular channel wraps.  ccp: a sweep from one symbol in
        # whose last window ends inside the stream; overlapping windows share
        # almost all their noise, so they are spaced as widely as it allows.
        span = (cfg.n_symbols - 1) * num.symbol_samples - num.n_fft
        stride = span // max(cfg.ccp_sweeps - 1, 1)
        if "ccp" in cfg.methods and stride < 1:
            raise ConfigError(f"{cfg.ccp_sweeps} sweeps do not fit in {cfg.n_symbols} symbols")
        self.windows = {"cp": (num.symbol_samples + num.n_cp, 1, 1),   # (start, n_sweeps, shift)
                        "ccp": (num.symbol_samples, cfg.ccp_sweeps, stride)}
        self.prs = PrsConfig(cfg.comb_size, cfg.comb_offset, cfg.n_symbols, cfg.prs_seed)
        # Block-type reference: one seeded column on every symbol, so the
        # continuous waveform is a genuine tone set over the whole stream.
        self.column = generate_prs_column(self.prs, num)
        self.subcarrier = middle_subcarrier(self.prs, num)
        self.ref_symbol = complex(self.column[self.subcarrier % num.n_fft])
        # A comb-N pilot's correlation repeats every 1/(N scs) seconds, so a
        # path arriving later aliases onto a short TOA.
        reach = (cfg.geometry.true_delay_s + (profile.nlos_excess_delay_mean_s or 0.0)
                 + profile.rms_delay_spread_s)
        limit = 1.0 / (cfg.comb_size * num.scs_hz)
        if reach >= limit:
            raise ConfigError(f"UE at {cfg.geometry.true_distance_m:.6g} m plus the channel's "
                              f"delay reaches {reach * 1e6:.3g} us, at or past the "
                              f"comb-{cfg.comb_size} TOA range of {limit * 1e6:.3g} us")

    def _period(self, mode: str) -> tuple[np.ndarray, int]:
        stream = ofdm_modulate(self.column, self.num, self.prs.n_symbols, mode)
        spectrum = np.fft.fft(stream[0])
        spectrum.flags.writeable = False
        return spectrum, stream.shape[0]

    conv_period = cached_property(lambda self: self._period(CONVENTIONAL))
    cont_period = cached_property(lambda self: self._period(CONTINUOUS))


_build_assets = lru_cache(maxsize=1)(_Assets)   # callers run one scenario at a time


def _trial_seeds(master_seed: int, trial: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(as_int("trial", trial, 0),))
    return ss.generate_state(4, dtype=np.uint64)


def run_trial(cfg: ScenarioConfig, trial: int) -> TrialResult:
    """One full measurement round on one channel; ConfigError unless ``trial`` is an int >= 0."""
    assets = _build_assets(cfg)
    ch_seed, toa_seed, cp_seed, wl_seed = (int(s) for s in _trial_seeds(cfg.master_seed, trial))
    channel = draw_channel(assets.profile, cfg.geometry, ch_seed)
    d_true = cfg.geometry.true_distance_m

    errors: dict[str, float] = {}
    integers: dict[str, int | None] = {}
    failures: dict[str, bool] = {}

    toa_s = None
    if "toa" in cfg.methods or cfg.ambiguity in ("toa", "widelane"):
        spectrum, rows = assets.conv_period
        rx = add_awgn(apply_channel(spectrum, rows, assets.num, channel), cfg.snr_db, toa_seed)
        toa_s = estimate_toa(rx, assets.num, spectrum).toa_s
        if "toa" in cfg.methods:
            errors["toa"] = toa_s * SPEED_OF_LIGHT - d_true
            integers["toa"] = None
            failures["toa"] = False

    phase_methods = [m for m in cfg.methods if m in ("cp", "ccp")]
    if phase_methods:
        received = [(add_awgn(apply_channel(*assets.cont_period, c, channel), cfg.snr_db, seed),
                     c.carrier_frequency_hz + assets.subcarrier * c.scs_hz)
                    for c, seed in zip(assets.carriers, (cp_seed, wl_seed))]
        for method in phase_methods:
            start, sweeps, shift = assets.windows[method]
            fracs = [phase_to_fraction(ccp_measure(rx, assets.num, assets.subcarrier, sweeps,
                                                   shift, assets.ref_symbol, start).phase_rad,
                                       f_eff)
                     for rx, f_eff in received]
            resolved, failures[method] = resolve(cfg.ambiguity, fracs, d_true, toa_s,
                                                 assets.num.sample_rate_hz, cfg.k_sigma)
            errors[method] = np.nan if resolved is None else resolved.distance_m - d_true
            integers[method] = None if resolved is None else resolved.integer_cycles

    return TrialResult(trial, errors, integers, failures)


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list[TrialResult]:
    """Run all trials; identical results for any worker count, capped at trials and CPUs."""
    as_int("workers", workers, 1)
    trials = range(cfg.n_trials)
    workers = min(workers, cfg.n_trials, os.cpu_count() or 1)
    if workers == 1:
        return [run_trial(cfg, t) for t in trials]
    with ProcessPoolExecutor(workers) as pool:
        return list(pool.map(run_trial, [cfg] * cfg.n_trials, trials, chunksize=8))


def compute_cdf(results: list[TrialResult], method: str) -> CdfResult:
    """Empirical CDF of |distance error| for one method.

    A trial is kept unless ``resolve`` flagged an IA failure, and the rest
    are reported in ``n_failures``; percentiles use the linear interpolation
    convention.  A method none of whose trials survive gets empty arrays and
    no percentiles, so the other methods' results are still written.
    ConfigError unless every trial measured ``method``.
    """
    if method not in METHODS or any(method not in r.ia_failure for r in results):
        raise ConfigError(f"method {method!r} is not one of {METHODS} measured in every trial")
    kept = [r.distance_error_m[method] for r in results if not r.ia_failure[method]]
    n_failures = len(results) - len(kept)
    abs_err = np.sort(np.abs(np.asarray(kept, dtype=np.float64)))
    cdf = np.arange(1, abs_err.size + 1) / max(abs_err.size, 1)
    pct = {p: float(np.percentile(abs_err, p)) for p in (50, 67, 90, 95)} if kept else {}
    return CdfResult(method, abs_err, cdf, pct, n_failures, len(results))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """``cfg`` in the JSON shapes ``ScenarioConfig`` takes; tuples are written as lists."""
    return dict(dataclasses.asdict(cfg), profile_overrides=dict(cfg.profile_overrides))


def emit_results(cdfs: list[CdfResult], cfg: ScenarioConfig, path: str,
                 fmt: str = "csv") -> str:
    """Write CDFs to ``path``, a str or os.PathLike, as csv or json; byte-deterministic."""
    if not isinstance(path, (str, os.PathLike)):   # open() takes an int as a file descriptor
        raise ConfigError(f"path must be a str or os.PathLike, got {path!r}")
    if fmt == "csv":
        lines = ["method,abs_error_m,cdf"]
        for c in cdfs:
            lines.extend(f"{c.method},{float(e)!r},{float(p)!r}"
                         for e, p in zip(c.abs_errors_m, c.cdf))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {
            "config": config_to_dict(cfg),
            "master_seed": cfg.master_seed,
            "methods": {
                c.method: {
                    "n_trials": c.n_trials,
                    "ia_failures": c.n_failures,
                    "percentiles": {f"p{p}": v for p, v in c.percentiles.items()},
                    "abs_errors_m": [float(e) for e in c.abs_errors_m],
                    "cdf": [float(v) for v in c.cdf],
                } for c in cdfs
            },
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


_CONFIG_KEYS = {f.name for f in dataclasses.fields(ScenarioConfig)}


def config_from_dict(raw: dict) -> ScenarioConfig:
    """Build a validated ScenarioConfig from parsed key/value text."""
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ScenarioConfig(**raw)


def load_config(path: str) -> ScenarioConfig:
    """Parse a JSON config file, a str or os.PathLike, whose keys mirror ScenarioConfig fields."""
    if not isinstance(path, (str, os.PathLike)):   # open() takes an int as a file descriptor
        raise ConfigError(f"path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:   # bad JSON, bad UTF-8, an int past 4300 digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(raw)
