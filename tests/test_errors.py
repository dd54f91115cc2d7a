"""The number rules of ``errors.py``: which values pass, and what a rejection says."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phasepos.channel import ChannelRealization
from phasepos.errors import ConfigError, as_finite, as_int, as_positive, as_samples
from phasepos.receiver import ccp_measure
from phasepos.waveform import NumerologyConfig, make_numerology, ofdm_modulate

# (value, is it an integer?) for values of every kind a config can hold.
_TAGGED = st.one_of(
    st.tuples(st.integers(), st.just(True)),
    st.tuples(st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64), st.just(True)),
    st.tuples(st.booleans(), st.just(False)),
    st.tuples(st.floats(allow_nan=True), st.just(False)),
    st.tuples(st.integers(-10, 10).map(float), st.just(False)),   # integral floats too
    st.tuples(st.text(max_size=4), st.just(False)),
    st.tuples(st.none(), st.just(False)),
)
_LOWER = st.one_of(st.just(-math.inf), st.integers(-2 ** 80, 2 ** 80))
_UPPER = st.one_of(st.just(math.inf), st.integers(-2 ** 80, 2 ** 80))


def _rejected(rule, name, value) -> str:
    with pytest.raises(ConfigError) as info:
        rule(name, value)
    return str(info.value)


@given(_TAGGED, _LOWER, _UPPER)
@example((10 ** 400, True), 1, math.inf)
@example((10 ** 400, True), 1, 1_000_000)
@example((-(10 ** 400), True), -math.inf, 0)
@example((True, False), 0, 1)
def test_as_int_takes_exactly_the_integers_in_range(tagged, lo, hi):
    value, is_integer = tagged
    if is_integer and lo <= value <= hi:
        result = as_int("n_trials", value, lo, hi)
        assert type(result) is int and result == value
    else:
        message = _rejected(lambda n, v: as_int(n, v, lo, hi), "n_trials", value)
        assert message.startswith("n_trials must be an integer in [") and repr(value) in message


@given(st.one_of(st.floats(allow_nan=True), st.integers(-10 ** 300, 10 ** 300)))
@example(0.0)
@example(-0.0)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@example(5e-324)
def test_as_positive_takes_exactly_the_finite_positive_reals(value):
    if value > 0 and value != math.inf:
        assert as_positive("half_width_m", value) == float(value)
    else:
        message = _rejected(as_positive, "half_width_m", value)
        assert message.startswith("half_width_m must be finite and positive") and repr(value) in message


@pytest.mark.parametrize("value", [True, False, 10 ** 400, -(10 ** 400), "1.0", None, 1j, [1.0]])
def test_as_positive_rejects_what_is_no_float(value):
    message = _rejected(as_positive, "wavelength_m", value)
    assert message.startswith("wavelength_m must ") and repr(value) in message


@given(st.one_of(st.floats(allow_nan=True), st.integers(-10 ** 310, 10 ** 310)),
       st.one_of(st.just(-math.inf), st.floats(-1e3, 1e3)),
       st.one_of(st.just(math.inf), st.floats(-1e3, 1e3)))
@example(10 ** 400, -math.inf, math.inf)
@example(math.nan, -math.inf, math.inf)
@example(-0.0, 0, math.inf)
@example(True, 0, 1)
def test_as_finite_takes_exactly_the_finite_reals_in_range(value, lo, hi):
    try:
        real = float(value)
    except OverflowError:
        real = math.nan
    if not isinstance(value, bool) and math.isfinite(real) and lo <= real <= hi:
        assert as_finite("speed_m_s", value, lo, hi) == real
    else:
        message = _rejected(lambda n, v: as_finite(n, v, lo, hi), "speed_m_s", value)
        assert message.startswith("speed_m_s must ") and repr(value) in message


def test_as_samples_returns_its_array_neither_copied_nor_cast():
    view = ofdm_modulate(np.ones(_FR1.n_fft), _FR1, 4)    # read-only, rows of stride 0
    for array in (view, np.arange(10.0)[::3], np.ones(3, dtype=np.complex64), np.ones(1, np.int8),
                  np.full(2, np.nan)):                    # no pass over the values
        assert as_samples("x", array) is array
    assert as_samples("x", [1, 2]).dtype == np.int_


@pytest.mark.parametrize("value,kinds", [
    (np.zeros(0), "iufc"), (np.zeros((3, 0), complex), "iufc"), (None, "iufc"), ("ab", "iufc"),
    ([True], "iufc"), (np.array([1.0, None]), "iufc"), ([10 ** 400], "iufc"), (1j, "iuf")])
def test_as_samples_rejects_an_empty_or_foreign_array(value, kinds):
    with pytest.raises(ConfigError, match=rf"^rx must be a non-empty array of dtype kind in "
                                          rf"'{kinds}', got "):
        as_samples("rx", value, kinds)


def test_positive_fraction_and_numpy_values_pass():
    assert as_positive("scs_hz", Fraction(1, 4)) == 0.25
    assert as_positive("scs_hz", np.float32(2.5)) == 2.5
    assert as_int("n_fft", np.uint16(4096), 1) == 4096


_FR1 = make_numerology("FR1")
# A real tone on the allocation's two edge subcarriers, +-1638: it carries both.
_EDGE_STREAM = np.cos(2 * np.pi * 1638 * np.arange(_FR1.n_fft) / _FR1.n_fft)


def test_float32_numerology_gives_the_python_float_response():
    # float32 would carry the carrier phase 2 pi (f_c + f) tau into the
    # response: about 1e-4 rad off for a 66.7 ns tap.
    channel = ChannelRealization(np.array([66.7e-9]), np.array([1.0 + 0.0j]))
    built = NumerologyConfig(np.float32(3.8e9), np.float32(30e3), np.int64(4096), np.int64(288),
                             np.int64(3276))
    assert built == _FR1
    assert np.array_equal(channel.response(built, -1638, 3277, 30e3),
                          channel.response(_FR1, -1638, 3277, 30e3))


@pytest.mark.parametrize("subcarrier", [-1638, 1638])
def test_subcarrier_at_the_allocation_edge_is_accepted(subcarrier):
    assert abs(ccp_measure(_EDGE_STREAM, _FR1, subcarrier, 1, 1).phase_rad) < 1e-12
