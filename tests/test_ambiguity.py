import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepos import harness
from phasepos.ambiguity import (IA_MODES, CarrierRange, double_difference, ia_search,
                                phase_to_fraction, resolve, virtual_wavelength, widelane_resolve)
from phasepos.channel import Geometry
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.errors import ConfigError
from phasepos.receiver import wrap_phase

F1 = 3.8e9
F2 = 3.9e9
GEO = Geometry((100.0, 100.0, 15.0), (120.0, 100.0, 1.5))


def exact_phase(distance_m, frequency_hz):
    return wrap_phase(-2.0 * np.pi * frequency_hz * distance_m / SPEED_OF_LIGHT)


# ----------------------------------------------------------- phase -> fraction

def test_fraction_quarter_cycle():
    r = phase_to_fraction(-np.pi / 2, 1e9)
    assert r.fractional_cycles == pytest.approx(0.25, abs=1e-12)
    assert r.wavelength_m == pytest.approx(SPEED_OF_LIGHT / 1e9, rel=1e-12)
    r = phase_to_fraction(np.pi / 2, 1e9)
    assert r.fractional_cycles == pytest.approx(0.75, abs=1e-12)


def test_fraction_zero_phase():
    r = phase_to_fraction(0.0, F1)
    assert r.fractional_cycles == 0.0
    assert r.integer_cycles is None and r.distance_m is None
    # -1e-16 mod 2 pi rounds to 2 pi, a whole cycle, which is the zero fraction.
    assert phase_to_fraction(1e-16, 3.8e9).fractional_cycles == 0.0


def test_fraction_matches_geometry():
    lam = SPEED_OF_LIGHT / F1
    q = GEO.true_distance_m / lam
    r = phase_to_fraction(exact_phase(GEO.true_distance_m, F1), F1)
    assert r.fractional_cycles == pytest.approx(q - np.floor(q), abs=1e-8)


def test_fraction_rejects_bad_frequency():
    for frequency_hz in (0.0, -1e9, math.nan, math.inf):
        with pytest.raises(ValueError):
            phase_to_fraction(0.1, frequency_hz)
    for phase_rad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            phase_to_fraction(phase_rad, F1)


def test_resolved_distance_formula():
    r = CarrierRange(0.08, 0.25).resolved(300)
    assert r.integer_cycles == 300
    assert r.distance_m == pytest.approx(300.25 * 0.08, rel=1e-15)


@pytest.mark.parametrize("args, message", [
    ((-1.0, 0.5), "^wavelength_m must be finite and positive"),   # no N would be found
    ((0.08, 7.3), r"^fractional_cycles must be finite and in \[0, 1\]"),   # N would be off by 7
    (("a", 0.1), "^wavelength_m must be a number"),
    ((0.08, math.nan), "^fractional_cycles must be finite"),
    ((0.08, 0.25, -1), r"^integer_cycles must be an integer in \[0, inf\]"),
    ((0.08, 0.25, 3.0), "^integer_cycles must be an integer"),
], ids=["negative-wavelength", "fraction-past-1", "text", "nan-fraction", "negative-N",
        "float-N"])
def test_carrier_range_checks_its_fields(args, message):
    with pytest.raises(ConfigError, match=message):
        CarrierRange(*args)


def test_a_beat_fraction_that_rounds_to_one_is_a_carrier_range():
    # -1e-17 % 1.0 is 1.0, so widelane's beat fraction can be 1.0: the bound is closed.
    assert (0.0 - 1e-17) % 1.0 == 1.0
    assert CarrierRange(0.08, 1.0).resolved(3).distance_m == pytest.approx(4 * 0.08)
    fine, coarse = CarrierRange(SPEED_OF_LIGHT / F2, 0.0), CarrierRange(SPEED_OF_LIGHT / F1, 1e-17)
    assert widelane_resolve(fine, coarse, center_m=24.0) is not None


# ------------------------------------------------------------- integer search

def test_ia_search_recovers_geometry_integer():
    lam = SPEED_OF_LIGHT / F1
    frac = phase_to_fraction(exact_phase(GEO.true_distance_m, F1), F1)
    # window narrower than half a wavelength => unique candidate
    sigma = lam / (8.0 * SPEED_OF_LIGHT)
    r = ia_search(frac, GEO.true_delay_s * SPEED_OF_LIGHT, 3.0 * sigma * SPEED_OF_LIGHT)
    assert r.integer_cycles == int(np.floor(GEO.true_distance_m / lam))
    assert r.integer_cycles == 305
    assert r.distance_m == pytest.approx(GEO.true_distance_m, abs=1e-6)


def test_ia_search_unique_candidate_in_tight_window():
    lam = 1.0
    frac = CarrierRange(lam, 0.5)
    r = ia_search(frac, 10.5, 1.0 * 0.2)
    assert r.integer_cycles == 10


def test_ia_search_empty_window_is_none():
    # candidates at 0.5, 1.5, ... but the window is [0.1, 0.3]
    frac = CarrierRange(1.0, 0.5)
    assert ia_search(frac, 0.2, 1.0 * 0.1) is None


def test_ia_search_nlos_bias_breaks_resolution():
    # 50 ns of excess delay shifts the window ~15 m: either no candidate
    # fits or the resolved integer is wrong.
    lam = SPEED_OF_LIGHT / F1
    frac = phase_to_fraction(exact_phase(GEO.true_distance_m, F1), F1)
    sigma = lam / (8.0 * SPEED_OF_LIGHT)
    biased = GEO.true_delay_s + 50e-9
    r = ia_search(frac, biased * SPEED_OF_LIGHT, 3.0 * sigma * SPEED_OF_LIGHT)
    if r is None:
        return
    assert r.integer_cycles != 305
    assert abs(r.distance_m - GEO.true_distance_m) > lam / 2


def test_ia_search_validates_sigma():
    frac = CarrierRange(1.0, 0.5)
    for half_width_m in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            ia_search(frac, 3.0, half_width_m)
    for center_m in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            ia_search(frac, center_m, 1.0)


def test_ia_search_random_property():
    # floor(d / lambda) recovered across 10k random geometries when the
    # window is tighter than half a wavelength.
    rng = np.random.default_rng(2026)
    for _ in range(10_000):
        lam = rng.uniform(0.01, 1.0)
        d = rng.uniform(0.0, 100.0)
        q = d / lam
        frac = CarrierRange(lam, q - np.floor(q))
        sigma = lam / (4.0 * 3.0 * SPEED_OF_LIGHT)
        r = ia_search(frac, d, 3.0 * sigma * SPEED_OF_LIGHT)
        assert r.integer_cycles == int(np.floor(q))
        assert r.distance_m == pytest.approx(d, rel=1e-9, abs=1e-12)


def brute_force_search(fraction, center_m, half_width_m):
    """Integer nearest the center among every candidate in the window, or None."""
    lam, frac = fraction.wavelength_m, fraction.fractional_cycles
    lo, hi = max(0.0, center_m - half_width_m), center_m + half_width_m
    n = np.arange(max(0, int(np.ceil(lo / lam - frac - 1e-12))),
                  int(np.floor(hi / lam - frac + 1e-12)) + 1)
    if n.size == 0:
        return None
    return int(n[np.argmin(np.abs((n + frac) * lam - center_m))])   # first on ties


@st.composite
def search_windows(draw):
    lam = draw(st.floats(1e-3, 10.0))
    frac = draw(st.floats(0.0, 1.0, exclude_max=True))
    # Centers anywhere, on a candidate, or midway between two (a tie).
    center_m = draw(st.one_of(
        st.floats(-20.0, 2e3),
        st.builds(lambda n, half: (n + frac + half) * lam,
                  st.integers(0, 2000), st.sampled_from([0.0, 0.5]))))
    half_width_m = lam * draw(st.floats(1e-9, 5e4))   # at most 1e5 candidates
    return CarrierRange(lam, frac), center_m, half_width_m


@settings(max_examples=2000, deadline=None)
@given(search_windows())
def test_ia_search_matches_brute_force(window):
    fraction, center_m, half_width_m = window
    got = ia_search(fraction, center_m, half_width_m)
    want = brute_force_search(fraction, center_m, half_width_m)
    assert (None if got is None else got.integer_cycles) == want


@settings(max_examples=500, deadline=None)
@given(st.floats(0.0, 2e3), st.floats(1e8, 1e11))
def test_exact_phase_round_trips_through_search(distance_m, frequency_hz):
    frac = phase_to_fraction(exact_phase(distance_m, frequency_hz), frequency_hz)
    r = ia_search(frac, distance_m, frac.wavelength_m / 4.0)
    assert abs(r.distance_m - distance_m) <= 1e-9


# ------------------------------------------------------------------- widelane

def test_virtual_wavelength_adjacent_carriers():
    lam1 = SPEED_OF_LIGHT / F1
    lam2 = SPEED_OF_LIGHT / F2
    assert virtual_wavelength(lam1, lam2) == pytest.approx(SPEED_OF_LIGHT / 1e8,
                                                           rel=1e-9)
    assert virtual_wavelength(lam1, lam2) == pytest.approx(2.99792458, rel=1e-9)


def test_virtual_wavelength_identity():
    lam = 0.125
    assert virtual_wavelength(lam, 2 * lam) == pytest.approx(2 * lam, rel=1e-12)
    assert virtual_wavelength(2 * lam, lam) == virtual_wavelength(lam, 2 * lam)


def test_virtual_wavelength_rejects_degenerate():
    for lambda1_m, lambda2_m in ((0.1, 0.1), (0.0, 0.1), (math.nan, 0.1), (0.1, math.inf)):
        with pytest.raises(ValueError):
            virtual_wavelength(lambda1_m, lambda2_m)


def test_widelane_integer_on_beat():
    # At ~24.13 m the beat wavelength (~3 m) has gone around 8 whole times.
    lam_v = virtual_wavelength(SPEED_OF_LIGHT / F1, SPEED_OF_LIGHT / F2)
    q = GEO.true_distance_m / lam_v
    assert int(np.floor(q)) == 8
    frac_v = CarrierRange(lam_v, q - np.floor(q))
    wide = ia_search(frac_v, GEO.true_delay_s * SPEED_OF_LIGHT, 3.0 * 0.3)
    assert wide.integer_cycles == 8


def test_widelane_noiseless_chain():
    d = GEO.true_distance_m
    r1 = phase_to_fraction(exact_phase(d, F1), F1)
    r2 = phase_to_fraction(exact_phase(d, F2), F2)
    refined = widelane_resolve(r1, r2, center_m=d)
    with pytest.raises(TypeError):      # the centre is keyword-only
        widelane_resolve(r1, r2, d)
    lam_fine = SPEED_OF_LIGHT / F2
    assert refined.wavelength_m == pytest.approx(lam_fine, rel=1e-12)
    assert refined.integer_cycles == int(np.floor(d / lam_fine))
    assert abs(refined.distance_m - d) < 1e-6


def test_widelane_short_range_integer_zero():
    d = 1.0   # below one beat wavelength
    r1 = phase_to_fraction(exact_phase(d, F1), F1)
    r2 = phase_to_fraction(exact_phase(d, F2), F2)
    lam_v = virtual_wavelength(r1.wavelength_m, r2.wavelength_m)
    frac_v = CarrierRange(lam_v, (r2.fractional_cycles - r1.fractional_cycles) % 1.0)
    wide = ia_search(frac_v, d, 3.0 * 0.3)
    assert wide.integer_cycles == 0
    refined = widelane_resolve(r1, r2, center_m=d)
    assert abs(refined.distance_m - d) < 1e-6


def test_widelane_noisy_conditional_p90():
    # With 0.05-cycle phase noise per carrier the beat fraction is noisy
    # enough that the fine integer frequently lands wrong; on the trials
    # where it lands right the residual is pure fine-carrier phase noise,
    # whose 90th percentile stays below a tenth of the fine wavelength.
    rng = np.random.default_rng(99)
    d = GEO.true_distance_m
    lam_fine = SPEED_OF_LIGHT / F2
    n_true = int(np.floor(d / lam_fine))
    kept = []
    n_trials = 500
    for _ in range(n_trials):
        p1 = wrap_phase(exact_phase(d, F1) + 2 * np.pi * rng.normal(0.0, 0.05))
        p2 = wrap_phase(exact_phase(d, F2) + 2 * np.pi * rng.normal(0.0, 0.05))
        coarse = d + rng.normal(0.0, 0.3)
        refined = widelane_resolve(phase_to_fraction(p1, F1), phase_to_fraction(p2, F2),
                                   center_m=coarse)
        if refined is not None and refined.integer_cycles == n_true:
            kept.append(abs(refined.distance_m - d))
    assert len(kept) > 0.05 * n_trials
    assert np.percentile(kept, 90) <= lam_fine / 10.0


def test_widelane_memory_does_not_grow_with_beat_wavelength():
    # The refining search spans +- lambda_v / 4: 7.5e4 m (~1e6 fine
    # integers) at 1 kHz separation, 7.5e7 m at 1 Hz.
    d = GEO.true_distance_m
    r1 = phase_to_fraction(exact_phase(d, F1), F1)
    r2 = phase_to_fraction(exact_phase(d, 3.800001e9), 3.800001e9)
    tracemalloc.start()
    try:
        refined = widelane_resolve(r1, r2, center_m=d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert abs(refined.distance_m - d) < 1e-6
    f2 = 3.800000001e9
    refined = widelane_resolve(r1, phase_to_fraction(exact_phase(d, f2), f2), center_m=d)
    assert abs(refined.distance_m - d) < 1e-6


@pytest.mark.parametrize("center_m, half_width_m", [(1e308, 1e308), (-1e308, 1e308)])
def test_a_window_whose_edge_overflows_is_a_config_error(center_m, half_width_m):
    # Each argument is finite, but center +- half_width is not: the integer
    # bounds floor(edge / lambda) would be an infinity.
    r1 = CarrierRange(SPEED_OF_LIGHT / F1, 0.1)
    r2 = CarrierRange(SPEED_OF_LIGHT / F2, 0.2)
    with pytest.raises(ConfigError, match="^center_m [+]- half_width_m in wavelengths must be "):
        ia_search(r1, center_m, half_width_m)
    # Widelane's +- 3 m beat window stays finite; from 1e308 m the fine search's does not,
    # and below -1e308 m the beat window holds no N >= 0.
    if center_m > 0:
        with pytest.raises(ConfigError,
                           match="^center_m [+]- half_width_m in wavelengths must be "):
            widelane_resolve(r1, r2, center_m=center_m)
    else:
        assert widelane_resolve(r1, r2, center_m=center_m) is None


def test_a_window_finite_in_metres_but_not_in_wavelengths_is_a_config_error():
    tiny = CarrierRange(1e-300, 0.5)
    with pytest.raises(ConfigError, match="^center_m [+]- half_width_m in wavelengths must be "):
        ia_search(tiny, 1e10, 1.0)


# ---------------------------------------------------------------- resolve

LAM_V = virtual_wavelength(SPEED_OF_LIGHT / F1, SPEED_OF_LIGHT / F2)
# TOA ranges near the truth, and ones far enough below it to put the centre under zero.
TOA_OFFSETS_M = st.one_of(st.floats(-2.0, 2.0), st.floats(-300.0, -2.0))


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from(IA_MODES), st.floats(0.5, 200.0), st.sampled_from([(F1, F2), (F2, F1)]),
       TOA_OFFSETS_M, st.floats(-0.2, 0.2), st.floats(-0.2, 0.2))
def test_resolve_is_the_mode_search(mode, distance_m, carriers, toa_offset_m, noise1, noise2):
    fracs = [phase_to_fraction(exact_phase(distance_m, fc) + 2 * np.pi * noise, fc)
             for fc, noise in zip(carriers, (noise1, noise2))]
    toa_s = (distance_m + toa_offset_m) / SPEED_OF_LIGHT
    # +- the searched wavelength around the truth, or around the TOA range clamped at zero.
    center_m = distance_m if mode == "oracle" else max(toa_s * SPEED_OF_LIGHT, 0.0)
    expected = (widelane_resolve(*fracs, center_m=center_m)
                if mode == "widelane" else
                ia_search(fracs[0], center_m, fracs[0].wavelength_m))
    resolved, reason = resolve(mode, fracs, distance_m, toa_s)
    assert resolved == expected
    if expected is None:
        assert reason == "no_candidate"
        return
    # Phase noise stays under half a cycle, so rounding finds the truth's integer.
    nearest = round(distance_m / resolved.wavelength_m - resolved.fractional_cycles)
    assert reason == (None if resolved.integer_cycles == nearest else "wrong_integer")
    assert not (mode == "oracle" and reason)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(["oracle", "toa"]), st.floats(0.0, 200.0),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(-1e290, 1e290),
       st.sampled_from([F1, 28e9]))
def test_oracle_and_toa_always_find_a_candidate(mode, distance_m, fraction, toa_s, fc):
    # A window of +-lambda, clamped at zero, holds at least one whole wavelength.
    fracs = [CarrierRange(SPEED_OF_LIGHT / fc, fraction)]
    resolved, reason = resolve(mode, fracs, distance_m, toa_s)
    assert resolved is not None and resolved.integer_cycles >= 0
    assert not (mode == "oracle" and reason)


def test_resolve_clamps_a_toa_range_below_zero():
    # A UE 5 cm from the gNB: the TOA range can fall below zero, where N = 0 is nearest.
    lam = SPEED_OF_LIGHT / F1
    fracs = [CarrierRange(lam, 0.05 / lam)]
    for toa_m in (-0.3, -5.0, -1e6):
        resolved, reason = resolve("toa", fracs, 0.05, toa_m / SPEED_OF_LIGHT)
        assert (resolved.integer_cycles, reason) == (0, None)


def test_resolve_widelane_without_a_fine_candidate_is_a_failure():
    # lambda_v / 4 = 3.75 cm is under half the fine 10 cm wavelength, so the fine window can
    # be empty: the beat integer nearest 0.5 m puts the range at 0.45 m, and 0.45 +- 0.0375 m
    # holds neither 0.4 m nor 0.5 m.
    fine, coarse = CarrierRange(0.1, 0.0), CarrierRange(0.3, 0.0)
    assert virtual_wavelength(0.1, 0.3) == pytest.approx(0.15)
    assert widelane_resolve(fine, coarse, center_m=0.5) is None
    assert resolve("widelane", [fine, coarse], 0.5, 0.5 / SPEED_OF_LIGHT) == (None, "no_candidate")


@pytest.mark.parametrize("mode, fc", [("toa", F1), ("toa", 28e9), ("widelane", F1)])
def test_resolve_keeps_the_integer_within_half_the_searched_wavelength(mode, fc):
    # With exact phases, a TOA range off by under half the searched wavelength (the beat
    # one for widelane) keeps the true integer; past half of it the neighbour wins.
    carriers = (fc, F2)
    lam = SPEED_OF_LIGHT / fc
    lam_searched = virtual_wavelength(lam, SPEED_OF_LIGHT / F2) if mode == "widelane" else lam
    d = 40.0 + 0.3 * lam     # far from zero, so the clamp plays no part
    fracs = [phase_to_fraction(exact_phase(d, f), f) for f in carriers]
    for sign in (-1.0, 1.0):
        toa_s = (d + sign * 0.45 * lam_searched) / SPEED_OF_LIGHT
        resolved, reason = resolve(mode, fracs, d, toa_s)
        assert resolved.distance_m == pytest.approx(d, abs=1e-9) and reason is None
        toa_s = (d + sign * 0.55 * lam_searched) / SPEED_OF_LIGHT
        resolved, reason = resolve(mode, fracs, d, toa_s)
        assert reason == "wrong_integer"
        if mode == "toa":
            assert resolved.distance_m == pytest.approx(d + sign * lam, abs=1e-9)


@pytest.mark.parametrize("mode, searches", [("oracle", 2), ("toa", 2), ("widelane", 3)])
def test_resolve_searches_one_window_per_mode(monkeypatch, mode, searches):
    windows = []

    def recording(fraction, center_m, half_width_m):
        windows.append((center_m, half_width_m))
        return ia_search(fraction, center_m, half_width_m)

    monkeypatch.setattr("phasepos.ambiguity.ia_search", recording)
    d, toa_s = GEO.true_distance_m, GEO.true_delay_s + 1e-10
    fracs = [phase_to_fraction(exact_phase(d, fc), fc) for fc in (F1, F2)]
    resolve(mode, fracs, d, toa_s)
    # One search in the mode's window, then the judge's, +-lambda around the truth.
    assert len(windows) == searches
    assert windows[0] == {"oracle": (d, SPEED_OF_LIGHT / F1),
                          "toa": (toa_s * SPEED_OF_LIGHT, SPEED_OF_LIGHT / F1),
                          "widelane": (toa_s * SPEED_OF_LIGHT, LAM_V)}[mode]
    assert windows[-1] == (d, SPEED_OF_LIGHT / (F2 if mode == "widelane" else F1))


def test_resolve_rejects_unknown_mode():
    assert harness.IA_MODES is IA_MODES
    with pytest.raises(ValueError):
        resolve("nearest", [CarrierRange(0.08, 0.25)], 24.0, None)


# ---------------------------------------------------------------- differencing

def test_double_difference_cancels_common_offsets():
    rng = np.random.default_rng(4)
    base = rng.uniform(-0.5, 0.5, size=(2, 2))
    rx_offset = rng.uniform(-np.pi, np.pi, size=(2, 1))   # per-receiver clock
    anchor_offset = rng.uniform(-np.pi, np.pi, size=(1, 2))  # per-anchor clock
    clean = double_difference(base)
    dirty = double_difference(base + rx_offset + anchor_offset)
    assert dirty == pytest.approx(clean, abs=1e-12)
    expected = (base[0, 0] - base[0, 1]) - (base[1, 0] - base[1, 1])
    assert clean == pytest.approx(expected, abs=1e-12)


def test_double_difference_wraps_to_principal_interval():
    mat = np.array([[3.0, -3.0], [-3.0, 3.0]])   # raw value 12.0
    m = double_difference(mat)
    assert -np.pi <= m < np.pi
    assert m == pytest.approx(float(wrap_phase(12.0)), abs=1e-12)


def test_double_difference_rejects_bad_input():
    with pytest.raises(ValueError):
        double_difference(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        double_difference(np.array([[0.0, np.nan], [0.0, 0.0]]))
