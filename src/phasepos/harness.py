"""Monte-Carlo scenario runner, CDF statistics, and result emitters.

Per trial the harness draws one channel realization and measures every
requested method against it: TOA on the conventional waveform, then cp (one
window) and ccp (a stream-spanning sweep) through ``ccp_measure`` on each
carrier's continuous waveform.  One received stream is alive at a time, in
every IA mode; after the last, ``ambiguity.resolve`` gives each phase method a
range and a failure reason or None.  A method the trial cannot measure for
want of signal (every phase method, if a phase stream has none) fails as
``no_signal``, and the run goes on.  Seeds split per trial from the master
seed make results independent of worker count and order.

A ``ScenarioConfig`` validates itself when built, so a bad value raises
``ConfigError`` before any trial.  One derivation of a scenario, ``_Assets``,
serves both that check and every trial; it keeps one period's spectrum of each
transmit stream, built when first read, so a scenario transforms only the
streams its methods use, and each once.  A method's ``CdfResult`` counts failed
trials by reason, for the JSON and the CLI line alike, even when all fail.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import Counter
from collections.abc import Mapping
from functools import cached_property, lru_cache

import numpy as np

from .ambiguity import IA_MODES, phase_to_fraction, resolve
from .channel import Geometry, add_awgn, apply_channel, draw_channel, profile_preset
from .constants import SPEED_OF_LIGHT
from .errors import (ConfigError, NoSignalError, as_db, as_finite, as_instance, as_int, as_path,
                     as_positive, as_real, record, set_checked)
from .receiver import ccp_measure, estimate_toa
from .waveform import (CONTINUOUS, CONVENTIONAL, PrsConfig, generate_prs_column, make_numerology,
                       middle_subcarrier, ofdm_modulate)

METHODS = ("toa", "cp", "ccp")
MAX_SYMBOLS = 1024       # 8x the default; a trial then holds one 72 MB FR1 received stream
MAX_TRIALS = 1_000_000   # each kept TrialResult is about 0.7 KB (three outcomes)
_NUMBER_RULES = (("n_trials", as_int, 1, MAX_TRIALS), ("ccp_sweeps", as_int, 1, math.inf),
                 ("n_symbols", as_int, 2, MAX_SYMBOLS), ("master_seed", as_int, 0, math.inf),
                 ("snr_db", as_db), ("comb_size", as_int), ("comb_offset", as_int),
                 ("prs_seed", as_int, 0, math.inf))    # PrsConfig holds the comb's ranges


@record(frozen=True)
class ScenarioConfig:
    """Everything one reproducible scenario run depends on.

    It takes the JSON shapes as well as its own: a band string is upper-cased,
    a list of methods becomes a tuple, a mapping of exactly ``gnb_position_m``
    and ``ue_position_m`` becomes a ``Geometry``, and a mapping of profile
    overrides becomes a tuple of (name, value) pairs sorted by name.
    Construction (``ScenarioConfig(**raw)`` and ``dataclasses.replace`` too) binds its
    arguments by ``record``'s rule, validates every field and raises ``ConfigError`` on
    any other shape, a wrongly typed, non-finite or too large value, a finite SNR beyond
    ``MAX_ABS_DB``, more than ``MAX_SYMBOLS`` symbols or ``MAX_TRIALS`` trials, an unknown
    name, a repeated method, a profile override named twice or not read by the profile
    kind, a ``widelane_second_fc_hz`` set under any mode but widelane or missing under it,
    or parts that do not fit together (``_Assets`` checks those).
    A rejected number's message names the field, its allowed range and the
    value; an accepted one is stored as the Python int or float its check returns.
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
    widelane_second_fc_hz: float | None = None
    profile_overrides: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        # The JSON shapes become the hashable ones trials cache their assets by.
        if isinstance(self.band, str):      # "fr2" runs the trials "FR2" does
            object.__setattr__(self, "band", self.band.upper())
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
        set_checked(self, _NUMBER_RULES if self.widelane_second_fc_hz is None
                    else (*_NUMBER_RULES, ("widelane_second_fc_hz", as_positive)))
        if (not isinstance(self.methods, tuple) or not self.methods
                or any(m not in METHODS for m in self.methods)
                or len(set(self.methods)) != len(self.methods)):
            raise ConfigError(f"methods must be a nonempty list of {METHODS} without repeats")
        if self.ambiguity not in IA_MODES:
            raise ConfigError(f"ambiguity mode must be one of {IA_MODES}")
        if (self.ambiguity == "widelane") != (self.widelane_second_fc_hz is not None):
            raise ConfigError(f"widelane_second_fc_hz must be set if and only if ambiguity is "
                              f"widelane, got {self.widelane_second_fc_hz} for {self.ambiguity}")
        profile = _Assets(self).profile   # the rules that join the parts
        object.__setattr__(self, "profile_overrides", tuple(
            (name, getattr(profile, name)) for name, _ in self.profile_overrides))


FAILURE_REASONS = ("no_candidate", "no_signal", "wrong_integer")   # resolve's two and _NO_SIGNAL's


@record(frozen=True)
class MethodOutcome:
    """One method's verdict in one trial; a failed trial's error is NaN or off by a cycle.

    ConfigError unless ``integer`` is None or an int >= 0, ``failure`` None (kept) or one of
    ``FAILURE_REASONS``, and ``error_m`` a number: finite when kept, finite or NaN when failed,
    so no outcome writes an infinity into a JSON run."""

    error_m: float
    integer: int | None = None    # the resolved integer cycles; None for toa
    failure: str | None = None    # None or one of FAILURE_REASONS

    def __post_init__(self) -> None:
        error = ("error_m", as_real if self.failure else as_finite)    # a failed one may be NaN
        set_checked(self, (error,) if self.integer is None else (error, ("integer", as_int, 0)))
        if self.failure not in (None, *FAILURE_REASONS) or math.isinf(self.error_m):
            raise ConfigError(f"a failure must be one of {FAILURE_REASONS} with a finite or NaN "
                              f"error_m, got {self.failure!r} with {self.error_m!r}")


@record()
class TrialResult:
    trial_index: int
    outcomes: dict[str, MethodOutcome]    # in cfg.methods order

    # Read-only views, one dict per field, for readers of the older three-dict shape.
    distance_error_m = property(lambda self: {m: o.error_m for m, o in self.outcomes.items()})
    resolved_integer = property(lambda self: {m: o.integer for m, o in self.outcomes.items()})
    ia_failure = property(lambda self: {m: o.failure is not None
                                        for m, o in self.outcomes.items()})


@record(frozen=True)
class CdfResult:
    """One method's run summary: its outcome in each trial, in run order; the rest derives.

    ConfigError unless ``method`` is in ``METHODS`` and ``outcomes`` a tuple of ``MethodOutcome``,
    each of which holds its own rules."""

    method: str
    outcomes: tuple[MethodOutcome, ...]

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        for o in as_instance("outcomes", self.outcomes, tuple):
            as_instance("each outcome", o, MethodOutcome)

    # The kept |errors| sorted, cached for the four readers; failed trials by reason.
    abs_errors_m = cached_property(lambda self: np.sort(np.abs(np.array(
        [o.error_m for o in self.outcomes if o.failure is None], float))))
    failures = property(lambda self: tuple(sorted(Counter(
        o.failure for o in self.outcomes if o.failure is not None).items())))
    # i/n for the i-th error; failed and all trials; linear p50-p95.
    cdf = property(lambda self: np.arange(1, len(self.abs_errors_m) + 1)
                   / max(len(self.abs_errors_m), 1))
    n_failures = property(lambda self: sum(n for _, n in self.failures))
    n_trials = property(lambda self: len(self.outcomes))
    percentiles = property(lambda self: {p: float(np.percentile(self.abs_errors_m, p))
                                         for p in (50, 67, 90, 95) if len(self.abs_errors_m)})
    summary = property(lambda self: {   # the JSON block bar its outcomes
        "n_trials": self.n_trials, "failures": dict(self.failures),
        "percentiles": {f"p{p}": v for p, v in self.percentiles.items()}})

    @property
    def line(self) -> str:
        """The summary as one line: ``cp: trials=20 failures=11 (wrong_integer 11) p50=..m``."""
        s = self.summary
        reasons = ", ".join(f"{r} {n}" for r, n in s["failures"].items())
        return (f"{self.method}: trials={s['n_trials']} failures={self.n_failures}"
                + f" ({reasons})" * bool(reasons)
                + "".join(f" {p}={v:.6g}m" for p, v in s["percentiles"].items()))


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
        self.n_symbols = cfg.n_symbols
        self.profile = profile = profile_preset(cfg.profile, **dict(cfg.profile_overrides))
        fc2 = cfg.widelane_second_fc_hz
        if fc2 == num.carrier_frequency_hz:
            raise ConfigError("widelane_second_fc_hz must differ from the band carrier")
        try:    # the samples do not depend on the carrier, so the widelane one sends them too
            widelane = () if fc2 is None else (dataclasses.replace(num, carrier_frequency_hz=fc2),)
        except ConfigError as exc:      # NumerologyConfig's half-sample-rate rule
            raise ConfigError(f"widelane_second_fc_hz: {exc}") from exc
        self.carriers = (num, *widelane)
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
        # Block-type reference: one seeded column on every symbol, so the
        # continuous waveform is a genuine tone set over the whole stream.
        prs = PrsConfig(cfg.comb_size, cfg.comb_offset, sequence_seed=cfg.prs_seed)
        self.column, self.subcarrier = generate_prs_column(prs, num), middle_subcarrier(prs, num)
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
        stream = ofdm_modulate(self.column, self.num, self.n_symbols, mode)
        spectrum = np.fft.fft(stream[0])
        spectrum.flags.writeable = False
        return spectrum, stream.shape[0]

    conv_period = cached_property(lambda self: self._period(CONVENTIONAL))
    cont_period = cached_property(lambda self: self._period(CONTINUOUS))


_build_assets = lru_cache(maxsize=1)(_Assets)   # callers run one scenario at a time
_NO_SIGNAL = MethodOutcome(np.nan, None, "no_signal")


def run_trial(cfg: ScenarioConfig, trial: int) -> TrialResult:
    """One full measurement round on one channel; ConfigError unless ``trial`` is an int >= 0."""
    assets = _build_assets(as_instance("cfg", cfg, ScenarioConfig))
    seq = np.random.SeedSequence(cfg.master_seed, spawn_key=(as_int("trial", trial, 0),))
    ch_seed, toa_seed, cp_seed, wl_seed = (int(s) for s in seq.generate_state(4, dtype=np.uint64))
    channel = draw_channel(assets.profile, cfg.geometry, ch_seed)
    d_true = cfg.geometry.true_distance_m

    outcomes: dict[str, MethodOutcome] = {}
    toa_s = None
    try:
        if "toa" in cfg.methods or cfg.ambiguity in ("toa", "widelane"):
            spectrum, rows = assets.conv_period
            # One received stream at a time: this one is freed with the call, each phase
            # stream below once every phase method has measured it.
            toa_s = estimate_toa(add_awgn(apply_channel(spectrum, rows, assets.num, channel),
                                          cfg.snr_db, toa_seed), assets.num, spectrum).toa_s
            if "toa" in cfg.methods:
                outcomes["toa"] = MethodOutcome(toa_s * SPEED_OF_LIGHT - d_true)
        fracs = {m: [] for m in cfg.methods if m in assets.windows}   # one per carrier
        for c, seed in zip(assets.carriers, (cp_seed, wl_seed)) if fracs else ():
            rx = add_awgn(apply_channel(*assets.cont_period, c, channel), cfg.snr_db, seed)
            for method in fracs:
                start, sweeps, shift = assets.windows[method]
                phase = ccp_measure(rx, assets.num, assets.subcarrier, sweeps, shift,
                                    assets.ref_symbol, start).phase_rad
                fracs[method].append(phase_to_fraction(
                    phase, c.carrier_frequency_hz + assets.subcarrier * c.scs_hz))
            del rx
        for method, method_fracs in fracs.items():
            resolved, failure = resolve(cfg.ambiguity, method_fracs, d_true, toa_s)
            outcomes[method] = (MethodOutcome(np.nan, None, failure) if resolved is None else
                                MethodOutcome(resolved.distance_m - d_true,
                                              resolved.integer_cycles, failure))
    except NoSignalError:
        pass    # every method not recorded yet fails below, and the run goes on
    return TrialResult(trial, {m: outcomes.get(m, _NO_SIGNAL) for m in cfg.methods})


def run_scenario(cfg: ScenarioConfig, workers: int = 1) -> list[TrialResult]:
    """Run all trials; identical results for any worker count, capped at trials and CPUs."""
    as_instance("cfg", cfg, ScenarioConfig)
    as_int("workers", workers, 1)
    trials = range(cfg.n_trials)
    workers = min(workers, cfg.n_trials, os.cpu_count() or 1)
    if workers == 1:
        return [run_trial(cfg, t) for t in trials]
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor   # 13-15 ms, pools only
    from signal import SIG_DFL, SIGINT, signal
    chunk = max(1, cfg.n_trials // (4 * workers))    # about four chunks a worker
    try:    # Ctrl-C ends each worker at once (its default action), with no traceback
        with ProcessPoolExecutor(workers, initializer=signal, initargs=(SIGINT, SIG_DFL)) as pool:
            return list(pool.map(run_trial, [cfg] * cfg.n_trials, trials, chunksize=chunk))
    except BrokenExecutor as exc:   # an OSError, as a failed write is: the CLI's exit 3
        raise ChildProcessError("a worker process died") from exc


def compute_cdf(results: list[TrialResult], method: str) -> CdfResult:
    """Empirical CDF of |distance error| for one method: the ``CdfResult`` of its outcome in
    each of ``results``, in their order.

    A trial is kept when its outcome has no failure reason, and the rest are counted in
    ``failures`` by reason.  A method none of whose trials survive gets empty arrays and
    no percentiles, so the other methods' results are still written.  ConfigError unless
    ``results`` is a list or tuple of ``TrialResult`` and every trial measured ``method``.
    """
    for r in as_instance("results", results, (list, tuple)):
        as_instance("each result", r, TrialResult)
    if method not in METHODS or any(method not in r.outcomes for r in results):
        raise ConfigError(f"method {method!r} is not one of {METHODS} measured in every trial")
    return CdfResult(method, tuple(r.outcomes[method] for r in results))


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """``cfg`` in the JSON shapes ``ScenarioConfig`` takes; tuples are written as lists."""
    return dict(dataclasses.asdict(cfg), profile_overrides=dict(cfg.profile_overrides))


def outcome_to_dict(o: MethodOutcome) -> dict:
    """``o``'s fields in field order, a NaN error as None: one record of a JSON run's outcomes."""
    return {**dataclasses.asdict(o), "error_m": None if math.isnan(o.error_m) else o.error_m}


def _output_file(option: str, path, **avoid) -> tuple[str, str | None]:
    """The file to open for an output ``path`` and the real file it then replaces, None for a
    device or a pipe (as ``path`` stats), written in place.  ConfigError naming ``option``
    unless ``path`` names a file in an existing directory and is none of ``avoid``'s files."""
    parent, base = os.path.split(as_path(option, path))
    if not base or os.path.isdir(path):
        raise ConfigError(f"{option} {path} names no file")
    if not os.path.isdir(parent or os.curdir):
        raise ConfigError(f"{option} {path} is not in an existing directory")
    for what, other in avoid.items():
        if os.path.exists(path) and os.path.samefile(path, other):
            raise ConfigError(f"{option} {path} is the {what} file")
    if os.path.exists(path) and not os.path.isfile(path):     # /dev/null, a pipe
        return path, None
    target = os.path.realpath(path)     # a symlink's file, which open(path) wrote
    return f"{target}.{os.getpid()}.tmp", target     # a sibling: an atomic rename


def emit_results(cdfs: list[CdfResult], cfg: ScenarioConfig, path: str,
                 fmt: str = "csv") -> str:
    """Write CDFs to ``path``, a str or os.PathLike, byte-deterministic: as csv, each kept |error|
    and its CDF; as json, each method's summary and its outcomes as ``outcome_to_dict`` records.
    Whole or not at all: a file is written beside ``path`` (beside a symlink's target, so the
    link stays one) with the mode an existing file has, then renamed over it, so the directory
    must be writable; a device or a pipe is written in place.  ConfigError unless ``cdfs`` is a
    list or tuple of ``CdfResult``, ``cfg`` a ``ScenarioConfig`` and ``path`` a file as ``--out``
    is.  A JSON run holds standard JSON but for an infinite config value (``snr_db``, say),
    which Python's json writes as the token ``Infinity``."""
    for c in as_instance("cdfs", cdfs, (list, tuple)):
        as_instance("each cdf", c, CdfResult)
    as_instance("cfg", cfg, ScenarioConfig)
    tmp, target = _output_file("path", path)
    if fmt == "csv":
        lines = ["method,abs_error_m,cdf"]
        for c in cdfs:
            lines.extend(f"{c.method},{float(e)!r},{float(p)!r}"
                         for e, p in zip(c.abs_errors_m, c.cdf))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = {"schema": 2, "config": config_to_dict(cfg), "methods": {c.method: {
            **c.summary, "outcomes": list(map(outcome_to_dict, c.outcomes))} for c in cdfs}}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            if target and os.path.isfile(target):    # the mode open(path, "w") keeps
                os.chmod(tmp, os.stat(target).st_mode)
            fh.write(text)
        if target:
            os.replace(tmp, target)
    except BaseException:
        if target and os.path.lexists(tmp):
            os.remove(tmp)
        raise
    return path


def _unique_keys(pairs: list) -> dict:
    """One JSON object as a dict; a key it holds twice is a ConfigError, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


def load_config(path: str) -> ScenarioConfig:
    """Parse a JSON config file, a str or os.PathLike, whose keys mirror ScenarioConfig fields."""
    as_path("path", path)
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:   # bad JSON or UTF-8, a repeated key, a huge int
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    return ScenarioConfig(**raw)
