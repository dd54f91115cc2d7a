import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasepos.ambiguity import (CarrierRange, DiffMeasurement, double_difference, ia_search,
                                phase_to_fraction, virtual_wavelength, widelane_resolve)
from phasepos.channel import Geometry
from phasepos.constants import SPEED_OF_LIGHT
from phasepos.errors import AmbiguityError
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


def test_fraction_matches_geometry():
    lam = SPEED_OF_LIGHT / F1
    q = GEO.true_distance_m / lam
    r = phase_to_fraction(exact_phase(GEO.true_distance_m, F1), F1)
    assert r.fractional_cycles == pytest.approx(q - np.floor(q), abs=1e-8)


def test_fraction_rejects_bad_frequency():
    with pytest.raises(ValueError):
        phase_to_fraction(0.1, 0.0)
    with pytest.raises(ValueError):
        phase_to_fraction(0.1, -1e9)


def test_resolved_distance_formula():
    r = CarrierRange(0.08, 0.25).resolved(300)
    assert r.integer_cycles == 300
    assert r.distance_m == pytest.approx(300.25 * 0.08, rel=1e-15)


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


def test_ia_search_empty_window_raises():
    # candidates at 0.5, 1.5, ... but the window is [0.1, 0.3]
    frac = CarrierRange(1.0, 0.5)
    with pytest.raises(AmbiguityError):
        ia_search(frac, 0.2, 1.0 * 0.1)


def test_ia_search_nlos_bias_breaks_resolution():
    # 50 ns of excess delay shifts the window ~15 m: either no candidate
    # fits or the resolved integer is wrong.
    lam = SPEED_OF_LIGHT / F1
    frac = phase_to_fraction(exact_phase(GEO.true_distance_m, F1), F1)
    sigma = lam / (8.0 * SPEED_OF_LIGHT)
    biased = GEO.true_delay_s + 50e-9
    try:
        r = ia_search(frac, biased * SPEED_OF_LIGHT, 3.0 * sigma * SPEED_OF_LIGHT)
    except AmbiguityError:
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
    want = brute_force_search(fraction, center_m, half_width_m)
    if want is None:
        with pytest.raises(AmbiguityError):
            ia_search(fraction, center_m, half_width_m)
    else:
        assert ia_search(fraction, center_m, half_width_m).integer_cycles == want


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
    with pytest.raises(ValueError):
        virtual_wavelength(0.1, 0.1)
    with pytest.raises(ValueError):
        virtual_wavelength(0.0, 0.1)


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
    refined = widelane_resolve(r1, r2, d, 0.3)
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
    refined = widelane_resolve(r1, r2, d, 0.3)
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
        try:
            refined = widelane_resolve(phase_to_fraction(p1, F1),
                                       phase_to_fraction(p2, F2), coarse, 0.3)
        except AmbiguityError:
            continue
        if refined.integer_cycles == n_true:
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
        refined = widelane_resolve(r1, r2, d, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert abs(refined.distance_m - d) < 1e-6
    f2 = 3.800000001e9
    refined = widelane_resolve(r1, phase_to_fraction(exact_phase(d, f2), f2), d, 0.3)
    assert abs(refined.distance_m - d) < 1e-6


def test_widelane_validates_sigma():
    r1 = CarrierRange(SPEED_OF_LIGHT / F1, 0.1)
    r2 = CarrierRange(SPEED_OF_LIGHT / F2, 0.2)
    for sigma, k in ((0.0, 3.0), (0.3, 0.0), (-0.3, -3.0)):
        with pytest.raises(ValueError):
            widelane_resolve(r1, r2, 24.0, sigma, k)


# ---------------------------------------------------------------- differencing

def test_double_difference_cancels_common_offsets():
    rng = np.random.default_rng(4)
    base = rng.uniform(-0.5, 0.5, size=(2, 2))
    rx_offset = rng.uniform(-np.pi, np.pi, size=(2, 1))   # per-receiver clock
    anchor_offset = rng.uniform(-np.pi, np.pi, size=(1, 2))  # per-anchor clock
    clean = double_difference(base)
    dirty = double_difference(base + rx_offset + anchor_offset)
    assert dirty.value_rad == pytest.approx(clean.value_rad, abs=1e-12)
    expected = (base[0, 0] - base[0, 1]) - (base[1, 0] - base[1, 1])
    assert clean.value_rad == pytest.approx(expected, abs=1e-12)


def test_double_difference_wraps_to_principal_interval():
    mat = np.array([[3.0, -3.0], [-3.0, 3.0]])   # raw value 12.0
    m = double_difference(mat)
    assert -np.pi <= m.value_rad < np.pi
    assert m.value_rad == pytest.approx(float(wrap_phase(12.0)), abs=1e-12)


def test_double_difference_rejects_bad_input():
    with pytest.raises(ValueError):
        double_difference(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        double_difference(np.array([[0.0, np.nan], [0.0, 0.0]]))


def test_diff_measurement_is_plain_record():
    m = DiffMeasurement(0.1)
    assert m.value_rad == 0.1
