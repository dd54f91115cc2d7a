"""Monte-Carlo scenario runner, CDF statistics, and result emitters.

Per trial the harness draws one channel realization and measures every
requested method against it: TOA on the conventional waveform, and carrier
phase on the continuous waveform through ``ccp_measure``, whose window plan
is one window for cp and a stream-spanning sweep for ccp.  Each phase is
resolved to a range by the configured ambiguity mode (oracle, TOA-bounded
search or two-carrier widelane), each of them a call to ``ia_search``; the
oracle's search, centred on the true distance, also decides whether a
resolved integer is an IA failure.
Per-trial seeds are split deterministically from the master seed, so results
are independent of worker count and execution order.

A ``ScenarioConfig`` validates itself when built, so a bad value raises
``ConfigError`` before any trial; what every trial reads (streams, profile,
window plans) is built once per scenario by ``_build_assets``.  A method
whose every trial fails IA resolution gets an empty CDF that still reports
its failure count.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections.abc import Mapping
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ambiguity import CarrierRange, ia_search, phase_to_fraction, widelane_resolve
from .channel import (Geometry, ScenarioProfile, add_awgn, apply_channel, draw_channel,
                      profile_preset)
from .constants import SPEED_OF_LIGHT
from .errors import AmbiguityError, ConfigError, as_int, as_real
from .receiver import ccp_measure, estimate_toa
from .waveform import (CONTINUOUS, CONVENTIONAL, NumerologyConfig, PrsConfig, generate_prs_column,
                       make_numerology, middle_subcarrier, ofdm_modulate, signed_to_row)

METHODS = ("toa", "cp", "ccp")
IA_MODES = ("oracle", "toa", "widelane")
MAX_ABS_SNR_DB = 300.0   # far past any link; 10 ** (snr_db / 10) overflows near 3083 dB
MAX_SYMBOLS = 1024       # 8x the default; one FR1 stream of this length is 72 MB
_INT_FIELDS = ("n_trials", "ccp_sweeps", "n_symbols", "master_seed", "comb_size", "comb_offset",
               "prs_seed")


def _ccp_windows(num: NumerologyConfig, n_symbols: int, n_sweeps: int) -> tuple[int, int, int]:
    """(start, n_sweeps, stride) of a ccp sweep spread over the whole stream.

    The sweep starts one symbol in, clear of the stream head where the
    circular channel wraps, and its last window ends inside the stream.
    Overlapping windows share almost all their noise, so they are spaced as
    widely as the stream allows; a stride of 0 means the sweeps do not fit.
    """
    stride = ((n_symbols - 1) * num.symbol_samples - num.n_fft) // max(n_sweeps - 1, 1)
    return num.symbol_samples, n_sweeps, stride


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one reproducible scenario run depends on.

    It takes the JSON shapes as well as its own: a list of methods becomes a
    tuple, a mapping of exactly ``gnb_position_m`` and ``ue_position_m``
    becomes a ``Geometry``, and a mapping of profile overrides becomes a
    tuple of (name, value) pairs sorted by name.  Construction (including
    ``dataclasses.replace``) validates every field and raises
    ``ConfigError`` on any other shape, a wrongly typed, non-finite or
    too large value, a finite SNR beyond ``MAX_ABS_SNR_DB``, more than
    ``MAX_SYMBOLS`` symbols, an unknown name, a repeated method, a profile
    override the profile kind does not read, more sweeps than the stream
    has window positions, or a UE whose geometric delay plus the profile's
    mean NLOS excess and delay spread reaches the comb's TOA range
    1 / (comb_size * scs).  The ccp windows are spread over the whole
    stream, so their spacing follows from ``n_symbols`` and
    ``ccp_sweeps``.  The TOA-bounded and widelane integer windows are
    ``k_sigma`` times the std of a uniform error over one sample,
    1 / (sample_rate * sqrt(12)), on either side of the TOA.
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
                        for p in self.profile_overrides)):
            raise ConfigError("profile_overrides must map profile field names to values")
        for name in _INT_FIELDS:
            as_int(name, getattr(self, name))
        if self.master_seed < 0 or self.prs_seed < 0:
            raise ConfigError("master_seed and prs_seed must be nonnegative")
        snr = as_real("snr_db", self.snr_db)
        if not (snr == math.inf or abs(snr) <= MAX_ABS_SNR_DB):
            raise ConfigError(f"snr_db must lie within +-{MAX_ABS_SNR_DB:g} dB or be +inf "
                              f"(noiseless), got {snr!r}")
        for name in ("k_sigma", "widelane_second_fc_hz"):
            value = getattr(self, name)
            if ((value is not None or name == "k_sigma")
                    and not 0.0 < as_real(name, value) < math.inf):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        if not isinstance(self.band, str) or self.band.upper() not in ("FR1", "FR2"):
            raise ConfigError(f"band must be FR1 or FR2, got {self.band!r}")
        profile = profile_preset(self.profile, **dict(self.profile_overrides))
        if self.n_trials < 1:
            raise ConfigError("n_trials must be positive")
        if (not isinstance(self.methods, tuple) or not self.methods
                or any(m not in METHODS for m in self.methods)
                or len(set(self.methods)) != len(self.methods)):
            raise ConfigError(f"methods must be a nonempty list of {METHODS} without repeats")
        if self.ambiguity not in IA_MODES:
            raise ConfigError(f"ambiguity mode must be one of {IA_MODES}")
        if self.ambiguity == "widelane" and self.widelane_second_fc_hz is None:
            raise ConfigError("widelane ambiguity mode needs widelane_second_fc_hz")
        num = make_numerology(self.band)
        if self.widelane_second_fc_hz == num.carrier_frequency_hz:
            raise ConfigError("widelane_second_fc_hz must differ from the band carrier")
        if self.ccp_sweeps < 1:
            raise ConfigError("ccp_sweeps must be positive")
        if not 2 <= self.n_symbols <= MAX_SYMBOLS:
            raise ConfigError(f"n_symbols must lie in [2, {MAX_SYMBOLS}]")
        if _ccp_windows(num, self.n_symbols, self.ccp_sweeps)[2] < 1:
            raise ConfigError(f"{self.ccp_sweeps} sweeps do not fit in {self.n_symbols} symbols")
        PrsConfig(self.comb_size, self.comb_offset, self.n_symbols, self.prs_seed)  # comb checks
        # A comb-N pilot's correlation repeats every 1/(N scs) seconds, so a
        # path arriving later aliases onto a short TOA.  The geometric delay
        # plus the mean NLOS excess and one delay spread must stay inside.
        reach = (self.geometry.true_delay_s + (profile.nlos_excess_delay_mean_s or 0.0)
                 + profile.rms_delay_spread_s)
        limit = 1.0 / (self.comb_size * num.scs_hz)
        if reach >= limit:
            raise ConfigError(f"UE at {self.geometry.true_distance_m:.6g} m plus the channel's "
                              f"delay reaches {reach * 1e6:.3g} us, at or past the "
                              f"comb-{self.comb_size} TOA range of {limit * 1e6:.3g} us")


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


@dataclass(frozen=True)
class _Assets:
    """Per-scenario immutables shared by every trial."""

    num: NumerologyConfig
    profile: ScenarioProfile
    tx_conv: np.ndarray
    tx_cont: np.ndarray
    carriers: tuple[NumerologyConfig, ...]   # the band's numerology, then the widelane one
    subcarrier: int
    ref_symbol: complex
    windows: dict[str, tuple[int, int, int]]   # method -> (start, n_sweeps, shift)
    toa_std_s: float


@lru_cache(maxsize=8)
def _build_assets(cfg: ScenarioConfig) -> _Assets:
    num = make_numerology(cfg.band)
    prs = PrsConfig(cfg.comb_size, cfg.comb_offset, cfg.n_symbols, cfg.prs_seed)
    # Block-type reference: one seeded column on every symbol, so the
    # continuous waveform is a genuine tone set over the whole stream.
    column = generate_prs_column(prs, num)
    tx_conv = ofdm_modulate(column, num, prs.n_symbols, CONVENTIONAL)
    tx_cont = ofdm_modulate(column, num, prs.n_symbols, CONTINUOUS)
    k = middle_subcarrier(prs, num)
    ref = complex(column[signed_to_row(num, k)])

    # The modulated samples do not depend on the carrier, so the widelane
    # carrier sends the same stream on a numerology with another carrier.
    carriers = (num,)
    if cfg.ambiguity == "widelane":
        fc2 = float(cfg.widelane_second_fc_hz)
        carriers += (dataclasses.replace(num, carrier_frequency_hz=fc2),)

    # The std of a uniform error over one sample; k_sigma scales it.
    toa_std = 1.0 / (num.sample_rate_hz * np.sqrt(12.0))

    # cp: one window on symbol 1's useful part, clear of the stream head
    # where the circular channel wraps.
    windows = {"cp": (num.symbol_samples + num.n_cp, 1, 1),
               "ccp": _ccp_windows(num, cfg.n_symbols, cfg.ccp_sweeps)}
    profile = profile_preset(cfg.profile, **dict(cfg.profile_overrides))
    return _Assets(num, profile, tx_conv, tx_cont, carriers, k, ref, windows, toa_std)


def _trial_seeds(master_seed: int, trial: int) -> np.ndarray:
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return ss.generate_state(4, dtype=np.uint64)


def run_trial(cfg: ScenarioConfig, trial: int) -> TrialResult:
    """One full measurement round against one channel realization."""
    assets = _build_assets(cfg)
    ch_seed, toa_seed, cp_seed, wl_seed = (int(s) for s in _trial_seeds(cfg.master_seed, trial))
    channel = draw_channel(assets.profile, cfg.geometry, ch_seed)
    d_true = cfg.geometry.true_distance_m

    errors: dict[str, float] = {}
    integers: dict[str, int | None] = {}
    failures: dict[str, bool] = {}

    need_toa = "toa" in cfg.methods or cfg.ambiguity in ("toa", "widelane")
    toa = None
    if need_toa:
        rx = add_awgn(apply_channel(assets.tx_conv, assets.num, channel), cfg.snr_db, toa_seed)
        toa = estimate_toa(rx, assets.num, assets.tx_conv)
        if "toa" in cfg.methods:
            errors["toa"] = toa.toa_s * SPEED_OF_LIGHT - d_true
            integers["toa"] = None
            failures["toa"] = False

    phase_methods = [m for m in cfg.methods if m in ("cp", "ccp")]
    if phase_methods:
        received = [(add_awgn(apply_channel(assets.tx_cont, c, channel), cfg.snr_db, seed),
                     c.carrier_frequency_hz + assets.subcarrier * c.scs_hz)
                    for c, seed in zip(assets.carriers, (cp_seed, wl_seed))]

        def nearest_truth(fraction: CarrierRange) -> CarrierRange:
            # Wrap-aware: a fraction that noise pushed past an integer boundary
            # gets the neighbouring integer, so oracle errors are phase noise only.
            return ia_search(fraction, d_true, fraction.wavelength_m)

        resolvers = {
            "oracle": lambda fracs: nearest_truth(fracs[0]),
            "toa": lambda fracs: ia_search(fracs[0], toa.toa_s * SPEED_OF_LIGHT,
                                           cfg.k_sigma * assets.toa_std_s * SPEED_OF_LIGHT),
            "widelane": lambda fracs: widelane_resolve(
                fracs[0], fracs[1], toa.toa_s * SPEED_OF_LIGHT,
                assets.toa_std_s * SPEED_OF_LIGHT, cfg.k_sigma),
        }

        for method in phase_methods:
            start, sweeps, shift = assets.windows[method]
            fracs = [phase_to_fraction(ccp_measure(rx, assets.num, assets.subcarrier, sweeps,
                                                   shift, assets.ref_symbol, start).phase_rad,
                                       f_eff)
                     for rx, f_eff in received]
            try:
                resolved = resolvers[cfg.ambiguity](fracs)
            except AmbiguityError:
                errors[method], integers[method], failures[method] = np.nan, None, True
                continue
            errors[method] = resolved.distance_m - d_true
            integers[method] = resolved.integer_cycles
            # The resolved range may sit on the second carrier's wavelength.
            failures[method] = resolved.integer_cycles != nearest_truth(resolved).integer_cycles

    return TrialResult(trial, errors, integers, failures)


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list[TrialResult]:
    """Run all trials; identical results for any worker count, capped at trials and CPUs."""
    if workers < 1:
        raise ConfigError("workers must be positive")
    trials = range(cfg.n_trials)
    if workers == 1:
        return [run_trial(cfg, t) for t in trials]
    with ProcessPoolExecutor(min(workers, cfg.n_trials, os.cpu_count() or 1)) as pool:
        return list(pool.map(run_trial, [cfg] * cfg.n_trials, trials, chunksize=8))


def compute_cdf(results: list[TrialResult], method: str) -> CdfResult:
    """Empirical CDF of |distance error| for one method.

    Trials flagged as IA failures are excluded from the curve and reported
    in ``n_failures``; percentiles use the linear interpolation convention.
    A method none of whose trials survive gets empty arrays and no
    percentiles, so the other methods' results are still written.
    """
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}")
    kept = [r.distance_error_m[method] for r in results
            if method in r.distance_error_m and not r.ia_failure.get(method, False)
            and np.isfinite(r.distance_error_m[method])]
    n_failures = sum(1 for r in results
                     if method in r.distance_error_m and r.ia_failure.get(method, False))
    abs_err = np.sort(np.abs(np.asarray(kept, dtype=np.float64)))
    cdf = np.arange(1, abs_err.size + 1) / max(abs_err.size, 1)
    pct = {p: float(np.percentile(abs_err, p)) for p in (50, 67, 90, 95)} if kept else {}
    return CdfResult(method, abs_err, cdf, pct, n_failures, len(results))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """``cfg`` in the JSON shapes ``ScenarioConfig`` takes; tuples are written as lists."""
    return dict(dataclasses.asdict(cfg), profile_overrides=dict(cfg.profile_overrides))


def emit_results(cdfs: list[CdfResult], cfg: ScenarioConfig, path: str,
                 fmt: str = "csv") -> str:
    """Write CDFs to ``path`` as csv or json.  Output is byte-deterministic."""
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
    try:
        return ScenarioConfig(**raw)
    except ConfigError:
        raise
    except (TypeError, ValueError, AttributeError, KeyError, OverflowError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str) -> ScenarioConfig:
    """Parse a JSON config file whose keys mirror ScenarioConfig fields."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:   # bad JSON, bad UTF-8, an int past 4300 digits
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return config_from_dict(raw)
