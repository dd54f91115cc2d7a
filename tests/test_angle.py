import numpy as np
import pytest

from phasepos.angle import InterferometerConfig, aoa_from_phase_diff, phase_diff_for_angle

HALF_WAVE = InterferometerConfig(antenna_spacing_m=0.5, wavelength_m=1.0)


def test_broadside_is_unique_at_half_wavelength():
    cands = aoa_from_phase_diff(0.0, HALF_WAVE)
    assert cands == [pytest.approx(np.pi / 2, abs=1e-12)]


def test_endfire_phase_has_two_boundary_candidates():
    # Delta = pi sits exactly on the aliasing boundary: both endfire
    # directions satisfy it, so uniqueness holds only for |Delta| < pi.
    cands = aoa_from_phase_diff(np.pi, HALF_WAVE)
    assert len(cands) == 2
    assert cands[0] == 0.0
    assert cands[1] == pytest.approx(np.pi, abs=1e-12)


def test_wide_spacing_aliases():
    cfg = InterferometerConfig(2.0, 1.0)
    cands = aoa_from_phase_diff(0.0, cfg)
    cosines = sorted(np.cos(cands))
    assert len(cands) == 5
    assert cosines == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0], abs=1e-12)


def test_impossible_phase_has_no_angle():
    # Quarter-wave spacing can only produce |Delta| <= pi/2.
    cfg = InterferometerConfig(0.25, 1.0)
    assert aoa_from_phase_diff(np.pi, cfg) == []


def test_sixty_degree_oracle():
    delta = phase_diff_for_angle(np.pi / 3, HALF_WAVE)
    assert delta == pytest.approx(np.pi / 2, abs=1e-12)
    assert aoa_from_phase_diff(delta, HALF_WAVE) == [pytest.approx(np.pi / 3, abs=1e-12)]


def test_forward_model_wraps():
    cfg = InterferometerConfig(2.0, 1.0)
    assert abs(phase_diff_for_angle(0.0, cfg)) < 1e-9   # raw 4 pi wraps to 0
    assert -np.pi <= phase_diff_for_angle(0.2, cfg) < np.pi


def test_round_trip_property():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        theta = rng.uniform(1e-3, np.pi - 1e-3)
        delta = phase_diff_for_angle(theta, HALF_WAVE)
        cands = aoa_from_phase_diff(delta, HALF_WAVE)
        assert len(cands) == 1
        assert abs(cands[0] - theta) < 1e-9


def test_negated_phase_mirrors_candidates():
    rng = np.random.default_rng(5)
    cfg = InterferometerConfig(0.7, 1.0)
    for _ in range(200):
        delta = rng.uniform(-np.pi, np.pi)
        fwd = aoa_from_phase_diff(delta, cfg)
        rev = aoa_from_phase_diff(-delta, cfg)
        assert sorted(np.pi - np.asarray(fwd)) == pytest.approx(sorted(rev), abs=1e-9)
