"""Unit and property tests for the Q-format fixed-point representation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fixedpoint import Overflow, Q4_11, Q7_8, Q15_16, QFormat, Rounding


class TestFormatProperties:
    def test_q7_8_geometry(self):
        assert Q7_8.total_bits == 16
        assert Q7_8.scale == 256
        assert Q7_8.raw_min == -32768
        assert Q7_8.raw_max == 32767

    def test_q4_11_geometry(self):
        assert Q4_11.total_bits == 16
        assert Q4_11.scale == 2048

    def test_q15_16_geometry(self):
        assert Q15_16.total_bits == 32
        assert Q15_16.scale == 65536

    def test_value_range(self):
        assert Q7_8.max_value == pytest.approx(127.99609375)
        assert Q7_8.min_value == pytest.approx(-128.0)
        assert Q7_8.resolution == pytest.approx(1 / 256)

    def test_name(self):
        assert Q7_8.name == "Q7.8"
        assert Q15_16.name == "Q15.16"

    def test_invalid_formats_rejected(self):
        with pytest.raises(ValueError):
            QFormat(-1, 8)
        with pytest.raises(ValueError):
            QFormat(40, 40)


class TestConversion:
    def test_from_float_exact_values(self):
        assert Q7_8.from_float(1.0) == 256
        assert Q7_8.from_float(-65.0) == -65 * 256
        assert Q4_11.from_float(0.5) == 1024

    def test_from_float_rounding_nearest(self):
        assert Q7_8.from_float(0.001953125) == 1  # rounds 0.5 LSB away from zero
        assert Q7_8.from_float(-0.001953125) == -1

    def test_from_float_floor(self):
        assert Q7_8.from_float(0.0039, rounding=Rounding.FLOOR) == 0
        assert Q7_8.from_float(-0.0001, rounding=Rounding.FLOOR) == -1

    def test_from_float_truncate(self):
        assert Q7_8.from_float(-0.0039, rounding=Rounding.TRUNCATE) == 0

    def test_saturation(self):
        assert Q7_8.from_float(500.0) == Q7_8.raw_max
        assert Q7_8.from_float(-500.0) == Q7_8.raw_min

    def test_saturation_beyond_int64_picks_the_right_bound(self):
        values = np.array([1e15, -1e15, 1e300, -1e300, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw = Q15_16.from_float(values)
        bounds = [Q15_16.raw_max, Q15_16.raw_min] * 3
        np.testing.assert_array_equal(raw, bounds)
        assert Q15_16.from_float(1e300) == Q15_16.raw_max

    def test_wrap_overflow(self):
        wrapped = Q7_8.from_float(128.0, overflow=Overflow.WRAP)
        assert wrapped == Q7_8.wrap(128 * 256)
        assert wrapped < 0

    def test_to_float_roundtrip(self):
        for value in (-65.0, 0.25, 30.0, -13.0, 127.5):
            raw = Q7_8.from_float(value)
            assert Q7_8.to_float(raw) == pytest.approx(value, abs=Q7_8.resolution)

    def test_array_conversion(self):
        values = np.array([-65.0, 0.0, 30.0])
        raw = Q7_8.from_float(values)
        assert isinstance(raw, np.ndarray)
        np.testing.assert_allclose(Q7_8.to_float(raw), values, atol=Q7_8.resolution)

    def test_unsigned_roundtrip(self):
        raw = Q7_8.from_float(-1.0)
        bits = Q7_8.to_unsigned(raw)
        assert bits == 0x10000 + raw
        assert Q7_8.from_unsigned(bits) == raw

    def test_is_representable(self):
        assert Q7_8.is_representable(100.0)
        assert not Q7_8.is_representable(200.0)


class TestFormatConversion:
    def test_upconvert_exact(self):
        raw = Q7_8.from_float(1.5)
        assert Q7_8.convert_raw(raw, Q15_16) == Q15_16.from_float(1.5)

    def test_downconvert_floor(self):
        raw = Q15_16.from_float(1.00390625)  # 1 + 1/256 + extra fractional bits
        down = Q15_16.convert_raw(raw, Q7_8)
        assert Q7_8.to_float(down) == pytest.approx(1.00390625, abs=Q7_8.resolution)

    def test_downconvert_saturates(self):
        raw = Q15_16.from_float(5000.0)
        assert Q15_16.convert_raw(raw, Q7_8) == Q7_8.raw_max


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-127.9, max_value=127.9, allow_nan=False))
def test_roundtrip_error_bounded(value):
    """Quantisation error never exceeds half an LSB with nearest rounding."""
    raw = Q7_8.from_float(value)
    assert abs(Q7_8.to_float(raw) - value) <= Q7_8.resolution / 2 + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(1 << 20), max_value=(1 << 20)))
def test_wrap_is_idempotent(raw):
    once = Q7_8.wrap(raw)
    assert Q7_8.wrap(once) == once
    assert Q7_8.raw_min <= once <= Q7_8.raw_max


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-(1 << 40), max_value=(1 << 40)))
def test_saturate_within_range(raw):
    sat = Q15_16.saturate(raw)
    assert Q15_16.raw_min <= sat <= Q15_16.raw_max
    if Q15_16.raw_min <= raw <= Q15_16.raw_max:
        assert sat == raw
