"""End-to-end acceptance checks for the ranging simulator.

Eleven checks, one test each, ordered to match the numbered claims the
package is built around.  Every test prints a single PASS/FAIL line with the
measured figure of merit (visible under ``pytest -s``) and enforces a wall
clock budget, so the suite doubles as a checklist and a performance canary.
"""

import dataclasses
import time

import numpy as np
import pytest

from phasepos.ambiguity import (InterferometerConfig, aoa_from_phase_diff, double_difference,
                                phase_diff_for_angle, phase_to_fraction, virtual_wavelength,
                                widelane_resolve)
from phasepos.channel import Geometry, add_awgn, apply_channel, doppler_ppm, draw_channel
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.harness import (ScenarioConfig, _build_assets, compute_cdf, emit_results,
                              run_scenario)
from phasepos.receiver import ccp_measure, wrap_phase
from phasepos.waveform import (CONTINUOUS, CONVENTIONAL, PrsConfig, generate_prs_column,
                               make_numerology, middle_subcarrier, ofdm_modulate)

GEO = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))

MC_CFG = ScenarioConfig(band="FR1", profile="InF-LOS", snr_db=10.0, n_trials=200,
                        methods=("cp", "ccp"), ambiguity="oracle", ccp_sweeps=1000,
                        n_symbols=128, master_seed=20260815)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{tag}: {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


@pytest.fixture(scope="module")
def window_sweep():
    """Noiseless FR1 streams and their middle-subcarrier phase vs window offset."""
    num = make_numerology("FR1")
    prs = PrsConfig(6, 0, 16, 7)
    column = generate_prs_column(prs, num)
    cont = ofdm_modulate(column, num, prs.n_symbols, CONTINUOUS)
    conv = ofdm_modulate(column, num, prs.n_symbols, CONVENTIONAL)
    k = middle_subcarrier(prs, num)
    ref = complex(column[k % num.n_fft])
    with Timer() as t:
        cont_phases = np.array([ccp_measure(cont, num, k, 1, 1, ref, off).phase_rad
                                for off in range(1000)])
        conv_phases = np.array([ccp_measure(conv, num, k, 1, 1, ref, off).phase_rad
                                for off in range(1000)])
    return dict(num=num, cont=cont_phases, conv=conv_phases, elapsed=t.elapsed)


def oracle_distance_error(phase_rad, f_eff_hz, d_true):
    """Distance error after injecting the integer nearest the truth."""
    frac = phase_to_fraction(phase_rad, f_eff_hz)
    base = int(np.floor(d_true / frac.wavelength_m))
    best = min((n for n in (base - 1, base, base + 1) if n >= 0),
               key=lambda n: abs((n + frac.fractional_cycles) * frac.wavelength_m - d_true))
    return frac.resolved(best).distance_m - d_true


@pytest.fixture(scope="module")
def fr1_paired():
    """200 paired trials: same noisy FR1 stream measured one-shot and swept.

    The noiseless per-channel tone phase serves as truth for the phase-error
    comparison; oracle-resolved distances feed the error CDFs.
    """
    assets = _build_assets(MC_CFG)
    (spectrum, rows), num = assets.cont_period, assets.num
    f_eff = num.carrier_frequency_hz + assets.subcarrier * num.scs_hz
    d_true = GEO.true_distance_m

    def phase(rx, method):
        start, sweeps, stride = assets.windows[method]
        return ccp_measure(rx, assets.num, assets.subcarrier, sweeps, stride,
                           assets.ref_symbol, start).phase_rad

    phase_err = {"cp": [], "ccp": []}
    dist_err = {"cp": [], "ccp": []}
    with Timer() as t:
        for trial in range(MC_CFG.n_trials):
            ch = draw_channel(assets.profile, GEO, trial)
            rx0 = apply_channel(spectrum, rows, num, ch)
            truth = phase(rx0, "cp")
            rx = add_awgn(rx0, MC_CFG.snr_db, 100_000 + trial)
            for name in ("cp", "ccp"):
                ph = phase(rx, name)
                phase_err[name].append(float(wrap_phase(ph - truth)))
                dist_err[name].append(abs(oracle_distance_error(ph, f_eff, d_true)))
    return dict(phase_err=phase_err, dist_err=dist_err, elapsed=t.elapsed)


@pytest.fixture(scope="module")
def fr2_mc():
    cfg = dataclasses.replace(MC_CFG, band="FR2", methods=("ccp",))
    with Timer() as t:
        results = run_scenario(cfg)
    return dict(results=results, cfg=cfg, elapsed=t.elapsed)


def test_01_swept_window_phase_invariance(window_sweep):
    with Timer() as t:
        dev = wrap_phase(window_sweep["cont"] - window_sweep["cont"][0])
        spread = float(dev.max() - dev.min())
    elapsed = window_sweep["elapsed"] + t.elapsed
    report("accept-01 phase-continuous window invariance",
           spread < 1e-9 and elapsed < 10.0,
           f"max spread over 1000 offsets = {spread:.3e} rad (< 1e-9), {elapsed:.1f}s")


def test_02_conventional_windows_straddle(window_sweep):
    num = window_sweep["num"]
    with Timer() as t:
        aligned = window_sweep["conv"][num.n_cp]
        straddling = window_sweep["conv"][num.n_cp + 1:]
        conv_dev = float(np.max(np.abs(wrap_phase(straddling - aligned))))
        cont_dev = float(np.max(np.abs(wrap_phase(
            window_sweep["cont"] - window_sweep["cont"][0]))))
    elapsed = window_sweep["elapsed"] + t.elapsed
    report("accept-02 conventional stream breaks across symbols",
           conv_dev > 1e-3 and cont_dev < 1e-9 and elapsed < 10.0,
           f"conventional max deviation = {conv_dev:.3e} rad (> 1e-3), "
           f"continuous = {cont_dev:.3e} rad (< 1e-9), {elapsed:.1f}s")


def test_03_swept_phase_variance_reduction(fr1_paired):
    with Timer() as t:
        ratio = float(np.var(fr1_paired["phase_err"]["ccp"], ddof=1)
                      / np.var(fr1_paired["phase_err"]["cp"], ddof=1))
        p = {m: {q: float(np.percentile(fr1_paired["dist_err"][m], q)) for q in (50, 90)}
             for m in ("cp", "ccp")}
    elapsed = fr1_paired["elapsed"] + t.elapsed
    report("accept-03 swept-window averaging beats single shot",
           ratio < 0.5 and p["ccp"][50] < p["cp"][50] and p["ccp"][90] < p["cp"][90]
           and elapsed < 300.0,
           f"phase-error variance ratio = {ratio:.4f} (< 0.5), "
           f"p50 {p['ccp'][50]*1e3:.3f} < {p['cp'][50]*1e3:.3f} mm, "
           f"p90 {p['ccp'][90]*1e3:.3f} < {p['cp'][90]*1e3:.3f} mm over "
           f"{len(fr1_paired['phase_err']['cp'])} paired trials, {elapsed:.0f}s")


def test_04_subwavelength_p90(fr1_paired, fr2_mc):
    with Timer() as t:
        p90_fr1 = float(np.percentile(fr1_paired["dist_err"]["ccp"], 90))
        p90_fr2 = compute_cdf(fr2_mc["results"], "ccp").percentiles[90]
        lim_fr1 = (SPEED_OF_LIGHT / 3.8e9) / 10.0
        lim_fr2 = (SPEED_OF_LIGHT / 28e9) / 10.0
    elapsed = fr1_paired["elapsed"] + fr2_mc["elapsed"] + t.elapsed
    report("accept-04 p90 within a tenth of a wavelength",
           p90_fr1 <= lim_fr1 and p90_fr2 <= lim_fr2 and elapsed < 300.0,
           f"FR1 p90 = {p90_fr1*1e3:.3f} mm (limit {lim_fr1*1e3:.3f}), "
           f"FR2 p90 = {p90_fr2*1e3:.4f} mm (limit {lim_fr2*1e3:.4f}), {elapsed:.0f}s")


def test_05_bandwidth_scaling():
    # Clutter-free direct path: timing noise is thermal, so quadrupling the
    # occupied bandwidth should cut the TOA spread by roughly four.
    base = ScenarioConfig(profile="InF-LOS", snr_db=10.0, n_trials=200,
                          methods=("toa",), n_symbols=16, master_seed=20260815,
                          profile_overrides=(("rician_k_db", float("inf")),))
    with Timer() as t:
        stds = {}
        for band in ("FR1", "FR2"):
            res = run_scenario(dataclasses.replace(base, band=band))
            stds[band] = float(np.std([r.outcomes["toa"].error_m for r in res], ddof=1))
        ratio = stds["FR2"] / stds["FR1"]
    report("accept-05 TOA spread scales with bandwidth",
           0.125 <= ratio <= 0.5 and t.elapsed < 300.0,
           f"std(FR2)/std(FR1) = {ratio:.4f} in [0.125, 0.5] over 200 paired-seed "
           f"trials per band, {t.elapsed:.0f}s")


def test_06_nlos_degradation_ordering():
    base = ScenarioConfig(band="FR1", snr_db=10.0, n_trials=150,
                          methods=("toa", "cp"), ambiguity="toa", n_symbols=16,
                          master_seed=20260815)
    with Timer() as t:
        med, fail = {}, {}
        for prof in ("InF-LOS", "InF-NLOS-S", "InF-NLOS-D"):
            res = run_scenario(dataclasses.replace(base, profile=prof))
            med[prof] = float(np.median([abs(r.outcomes["toa"].error_m) for r in res]))
            fail[prof] = float(np.mean([r.outcomes["cp"].failure is not None for r in res]))
    ordered = med["InF-NLOS-D"] > med["InF-NLOS-S"] > med["InF-LOS"]
    harder = (fail["InF-NLOS-S"] > fail["InF-LOS"]
              and fail["InF-NLOS-D"] > fail["InF-LOS"])
    report("accept-06 NLOS degrades ranging and integer resolution",
           ordered and harder and t.elapsed < 600.0,
           f"TOA medians {med['InF-LOS']:.3f} < {med['InF-NLOS-S']:.2f} < "
           f"{med['InF-NLOS-D']:.2f} m; TOA-bounded integer failure rates "
           f"{fail['InF-LOS']:.2f} (LOS) vs {fail['InF-NLOS-S']:.2f}/"
           f"{fail['InF-NLOS-D']:.2f} (NLOS), {t.elapsed:.0f}s")


def test_07_widelane_exactness():
    with Timer() as t:
        lam1 = SPEED_OF_LIGHT / 3.8e9
        lam2 = SPEED_OF_LIGHT / 3.9e9
        lam_v = virtual_wavelength(lam1, lam2)
        beat_exact = abs(lam_v - SPEED_OF_LIGHT / 1e8) / (SPEED_OF_LIGHT / 1e8)
        d = GEO.true_distance_m
        r1 = phase_to_fraction(wrap_phase(-2 * np.pi * 3.8e9 * d / SPEED_OF_LIGHT), 3.8e9)
        r2 = phase_to_fraction(wrap_phase(-2 * np.pi * 3.9e9 * d / SPEED_OF_LIGHT), 3.9e9)
        err = abs(widelane_resolve(r1, r2, center_m=d).distance_m - d)
    report("accept-07 widelane beat and end-to-end resolution",
           beat_exact < 1e-9 and abs(lam_v - 2.99792) < 1e-5
           and abs(d - 24.1299) < 1e-4 and err < 1e-6 and t.elapsed < 1.0,
           f"beat wavelength {lam_v:.8f} m (rel err {beat_exact:.1e}), "
           f"recovered {d:.4f} m to {err:.2e} m, {t.elapsed:.2f}s")


def test_08_double_difference_cancellation():
    rng = np.random.default_rng(18)
    with Timer() as t:
        worst = 0.0
        for _ in range(10_000):
            base = rng.uniform(-np.pi, np.pi, size=(2, 2))
            rx_off = rng.uniform(-np.pi, np.pi, size=(2, 1))
            anchor_off = rng.uniform(-np.pi, np.pi, size=(1, 2))
            clean = double_difference(base)
            dirty = double_difference(base + rx_off + anchor_off)
            worst = max(worst, abs(float(wrap_phase(dirty - clean))))
    report("accept-08 double difference cancels common offsets",
           worst < 1e-12 and t.elapsed < 5.0,
           f"worst residual over 10000 cases = {worst:.2e} rad (< 1e-12), "
           f"{t.elapsed:.1f}s")


def test_09_doppler_negligible():
    with Timer() as t:
        low = doppler_ppm(0.83)
        high = doppler_ppm(2.5)
    two_sf = f"{low:.2g}" == "0.0028" and f"{high:.2g}" == "0.0083"
    anchored = f"{low:.1g}" == "0.003" and f"{high:.1g}" == "0.008"
    report("accept-09 pedestrian doppler is sub-0.01 ppm",
           two_sf and anchored and t.elapsed < 1.0,
           f"0.83 m/s -> {low:.4f} ppm, 2.5 m/s -> {high:.4f} ppm "
           f"(round to 0.003-0.008 ppm), {t.elapsed:.2f}s")


def test_10_deterministic_output(tmp_path):
    cfg = dataclasses.replace(MC_CFG, n_trials=8)
    with Timer() as t:
        blobs = []
        for tag, workers in (("a", 1), ("b", 1), ("c", 2)):
            res = run_scenario(cfg, workers=workers)
            out = tmp_path / f"{tag}.csv"
            emit_results([compute_cdf(res, m) for m in cfg.methods], cfg, str(out))
            blobs.append(out.read_bytes())
    report("accept-10 byte-identical reruns across worker counts",
           blobs[0] == blobs[1] == blobs[2] and t.elapsed < 300.0,
           f"3 runs (workers 1/1/2), {len(blobs[0])} bytes each, identical, "
           f"{t.elapsed:.0f}s")


def test_11_aoa_round_trip():
    cfg = InterferometerConfig(antenna_spacing_m=0.5, wavelength_m=1.0)
    rng = np.random.default_rng(31)
    with Timer() as t:
        worst = 0.0
        for _ in range(1000):
            theta = rng.uniform(1e-6, np.pi - 1e-6)
            cands = aoa_from_phase_diff(phase_diff_for_angle(theta, cfg), cfg)
            worst = max(worst, min(abs(c - theta) for c in cands))
        endfire = aoa_from_phase_diff(np.pi, cfg)[0]
    report("accept-11 interferometer round trip at half-wave spacing",
           worst < 1e-9 and endfire == 0.0 and t.elapsed < 5.0,
           f"worst recovery error = {worst:.2e} rad (< 1e-9), "
           f"half-turn phase maps to 0.0 rad exactly, {t.elapsed:.1f}s")
