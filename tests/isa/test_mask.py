"""Tests for the 128-bit vector mask register."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtypes import FLOAT16, FLOAT32
from repro.errors import MaskError
from repro.isa import Mask


class TestConstruction:
    def test_full_mask(self):
        m = Mask.full()
        assert m.popcount == 128
        assert m.bits == (1 << 128) - 1

    def test_first_n(self):
        m = Mask.first(16)
        assert m.popcount == 16
        assert m.bits == 0xFFFF

    def test_first_bounds(self):
        with pytest.raises(MaskError):
            Mask.first(0)
        with pytest.raises(MaskError):
            Mask.first(129)

    def test_zero_mask_rejected(self):
        with pytest.raises(MaskError):
            Mask(0)

    def test_too_wide_rejected(self):
        with pytest.raises(MaskError):
            Mask(1 << 128)

    def test_non_int_rejected(self):
        with pytest.raises(MaskError):
            Mask("ff")  # type: ignore[arg-type]


class TestForElements:
    def test_fp16_lanes(self):
        m = Mask.for_elements(16, FLOAT16)
        assert np.array_equal(m.lanes(FLOAT16), np.arange(16))

    def test_fp16_full(self):
        m = Mask.for_elements(128, FLOAT16)
        assert m.popcount == 128

    def test_fp32_scaled_bits(self):
        # fp32: 64 lanes per repeat; lane i occupies bit 2*i.
        m = Mask.for_elements(3, FLOAT32)
        assert np.array_equal(m.lanes(FLOAT32), np.arange(3))

    def test_one_shared_instance_per_pattern(self):
        m = Mask.for_elements(16, FLOAT16)
        assert m is Mask.for_elements(16, FLOAT16)
        assert m == Mask.first(16)
        assert Mask.for_elements(16, FLOAT32) != m

    def test_count_bounds(self):
        with pytest.raises(MaskError):
            Mask.for_elements(0, FLOAT16)
        with pytest.raises(MaskError):
            Mask.for_elements(129, FLOAT16)

    @given(n=st.integers(1, 128))
    @settings(max_examples=50, deadline=None)
    def test_lane_count_matches(self, n):
        m = Mask.for_elements(n, FLOAT16)
        lanes = m.lanes(FLOAT16)
        assert len(lanes) == n
        assert np.array_equal(lanes, np.arange(n))


class TestUtilization:
    def test_c0_only_is_one_eighth(self):
        # The paper's standard pooling: "only 16 of 128 elements of the
        # vector mask are set".
        assert Mask.first(16).utilization(FLOAT16) == pytest.approx(0.125)

    def test_full_is_one(self):
        assert Mask.full().utilization(FLOAT16) == 1.0

    def test_sparse_pattern(self):
        m = Mask(0b1010101)  # 4 lanes
        assert m.popcount == 4
        assert m.utilization(FLOAT16) == pytest.approx(4 / 128)

    def test_lanes_of_sparse_pattern(self):
        m = Mask(0b1001)
        assert m.lanes(FLOAT16).tolist() == [0, 3]
