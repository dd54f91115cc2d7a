"""Workloads of the phasepos benchmark and the layer-to-metric map.

Plain data and arithmetic only: the set-up probe imports this module before
it starts its clock, so nothing here may import numpy or phasepos.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose per-trial outputs are stored in reference.json.
DEFAULT_SEED = 1
# Workload seed s runs the scenario with master seed BASE_MASTER_SEED + s.
BASE_MASTER_SEED = 20260815


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: dict              # ScenarioConfig fields other than master_seed and n_trials
    # Trials per second of run_scenario on a 2-core x86 VM (numpy 2.4, OpenBLAS 0.3.31).
    # A run does round(seconds * rate) trials, so the parent and a change always
    # do the same work for the same --seconds.
    nominal_rate: float
    # Median speed.kernel pass for this workload's stream on that VM: times are
    # reported at the machine speed this figure was taken at.
    kernel_ms: float
    # Workers of the extra process-pool run the traced mode makes, or 0.
    pool_workers: int = 0


WORKLOADS = {w.name: w for w in (
    Workload("fr1-los-toa",
             "FR1 128-symbol toa+cp+ccp with TOA-bounded integers: apply_channel and "
             "estimate_toa on bin-sparse 561k-sample streams dominate",
             dict(band="FR1", profile="InF-LOS", methods=("toa", "cp", "ccp"),
                  ambiguity="toa", n_symbols=128, ccp_sweeps=1000),
             nominal_rate=0.65, kernel_ms=165.0),
    Workload("fr2-ccp-dense",
             "FR2 ccp-only oracle with 8192 sweeps: a 537 MB window matrix, no TOA stage "
             "and no conventional stream",
             dict(band="FR2", profile="InF-LOS", methods=("ccp",), ambiguity="oracle",
                  n_symbols=128, ccp_sweeps=8192),
             nominal_rate=1.0, kernel_ms=170.0),
    # 16 * 4384 samples is not a multiple of 4096, so the continuous stream is
    # not bin-sparse.  The traced mode also runs it on a two-worker pool.
    Workload("fr1-short-widelane",
             "FR1 16-symbol widelane run: cache-resident dense streams, three apply_channel "
             "and two ccp_measure calls per trial, visible per-trial harness cost",
             dict(band="FR1", profile="InF-LOS", methods=("toa", "cp", "ccp"),
                  ambiguity="widelane", widelane_second_fc_hz=3.9e9, n_symbols=16,
                  ccp_sweeps=1000),
             nominal_rate=3.4, kernel_ms=23.0, pool_workers=2),
)}


def n_trials(workload: Workload, seconds: float) -> int:
    """Trials of an untraced run sized to about ``seconds`` at workers=1."""
    return max(2, round(seconds * workload.nominal_rate))


def scenario_fields(workload: Workload, seed: int, trials: int) -> dict:
    """ScenarioConfig keyword arguments for one run of ``workload``."""
    return dict(workload.scenario, master_seed=BASE_MASTER_SEED + seed, n_trials=trials)


# Which end-to-end metric, on which workload, each per-layer metric should move.
LAYER_TARGETS = {
    "channel.apply_channel.*": "trials_per_s on fr1-los-toa and fr2-ccp-dense; "
                               "fr1-short-widelane is the dense-path control",
    "channel.add_awgn.ms_p50": "trials_per_s on every workload",
    "channel.draw_channel.ms_p50": "trials_per_s on every workload",
    "channel.ms_per_trial": "trials_per_s on every workload",
    "receiver.estimate_toa.*": "trials_per_s on fr1-los-toa; absent on fr2-ccp-dense",
    "receiver.ccp_measure.*": "trials_per_s and peak_rss_mb on fr2-ccp-dense, "
                              "trials_per_s on fr1-short-widelane",
    "receiver.extract_phase.*": "trials_per_s on fr1-short-widelane",
    "receiver.ms_per_trial": "trials_per_s on every workload",
    "ambiguity.*": "no end-to-end metric; the resolved counts must repeat exactly per seed",
    "waveform.ofdm_modulate.ms": "setup_s on every workload",
    "harness.run_trial.self_ms_p50": "trials_per_s on fr1-short-widelane",
    "harness.cpu_per_wall": "cpu_ms_per_trial on every workload",
    "harness.compute_cdf.ms": "trials_per_s on fr1-short-widelane",
    "harness.emit_results.ms": "trials_per_s on fr1-short-widelane",
    "harness.pool.utilization": "trials_per_s of a two-worker run of fr1-short-widelane, "
                                "which has no end-to-end workload (see README)",
    "trace.coverage": "none; the share of trial time the spans explain",
    "trace.overhead": "none; the slowdown the spans cause",
}
