"""Tests for scratch-pad buffers and the allocator."""

import numpy as np
import pytest

from repro.config import ASCEND910, BufferSpec
from repro.dtypes import FLOAT16
from repro.errors import CapacityError, IsaError
from repro.sim import Allocator, ScratchBuffer


def make_alloc(capacity=1024, alignment=32):
    return Allocator(BufferSpec("UB", capacity, alignment), FLOAT16)


class TestScratchBuffer:
    def test_backing_store_sized_to_capacity(self):
        buf = ScratchBuffer(BufferSpec("UB", 2048), FLOAT16)
        assert buf.data.size == 1024  # fp16: 2 bytes/elem
        assert buf.capacity_elems == 1024

    def test_zero_initialised(self):
        buf = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        assert not buf.data.any()

    def test_clear(self):
        buf = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        buf.data[:] = 5
        buf.clear()
        assert not buf.data.any()


class TestLazyStorage:
    """Storage is allocated on the first ``data`` read; until then the
    buffer behaves exactly like a zero-filled one."""

    def test_construction_does_not_allocate(self):
        buf = ScratchBuffer(BufferSpec("L1", 1 << 20), FLOAT16)
        assert not buf.allocated
        assert buf.capacity_elems == 1 << 19
        buf.clear()
        assert not buf.allocated

    def test_first_read_is_zeroed_and_kept(self):
        buf = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        buf.clear()
        data = buf.data
        assert buf.allocated
        assert data.size == buf.capacity_elems == 32
        assert data.dtype == np.float16
        assert not data.any()
        data[3] = 7
        assert buf.data is data and buf.data[3] == 7

    def test_poison_matches_a_zero_filled_buffer(self):
        lazy = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        eager = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        eager.data  # materialize the zero fill first
        lazy.poison(-20000.0)
        eager.poison(-20000.0)
        assert lazy.data.tobytes() == eager.data.tobytes()


class TestExtents:
    """``reserve`` grows a zero-filled store only as far as asked; a
    grown store keeps its prefix, and the full-capacity accessors still
    cover the whole capacity."""

    def test_reserve_grows_only_to_the_extent(self):
        buf = ScratchBuffer(BufferSpec("UB", 1 << 18), FLOAT16)
        store = buf.reserve(100)
        assert buf.allocated and buf.extent == store.size == 100
        assert not store.any() and store.dtype == np.float16
        assert buf.reserve(40) is store  # no shrink, no copy

    def test_growth_keeps_prefix_and_zeros_the_rest(self):
        buf = ScratchBuffer(BufferSpec("UB", 2048), FLOAT16)
        buf.reserve(16)[:] = 3
        grown = buf.reserve(64)
        assert buf.extent == 64
        assert (grown[:16] == 3).all() and not grown[16:].any()

    def test_extent_past_capacity_raises(self):
        buf = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)  # 32 elements
        buf.reserve(32)
        with pytest.raises(IsaError, match="capacity 32"):
            buf.reserve(33)
        assert buf.extent == 32

    def test_data_poison_and_clear_cover_full_capacity(self):
        buf = ScratchBuffer(BufferSpec("UB", 256), FLOAT16)
        buf.reserve(8)[:] = 1
        assert buf.data.size == buf.capacity_elems == 128
        assert (buf.data[:8] == 1).all() and not buf.data[8:].any()
        partial = ScratchBuffer(BufferSpec("UB", 256), FLOAT16)
        partial.reserve(8)
        partial.poison(-20000.0)
        assert partial.extent == 128 and (partial.data == -20000.0).all()
        partial.clear()
        assert partial.extent == 128 and not partial.data.any()
        cleared = ScratchBuffer(BufferSpec("UB", 256), FLOAT16)
        cleared.reserve(8)[:] = 5
        cleared.clear()
        assert cleared.data.size == 128 and not cleared.data.any()


class TestAllocator:
    def test_sequential_allocations_disjoint(self):
        a = make_alloc()
        r1 = a.alloc(100)
        r2 = a.alloc(100)
        assert r1.end <= r2.offset

    def test_alignment(self):
        a = make_alloc(alignment=32)  # 16 fp16 elements
        a.alloc(5)
        r2 = a.alloc(10)
        assert r2.offset % 16 == 0

    def test_capacity_enforced(self):
        a = make_alloc(capacity=64)  # 32 elements
        a.alloc(32)
        with pytest.raises(CapacityError):
            a.alloc(1)

    def test_capacity_error_names_allocation(self):
        a = make_alloc(capacity=64)
        with pytest.raises(CapacityError, match="mybuf"):
            a.alloc(1000, name="mybuf")

    def test_nonpositive_size(self):
        with pytest.raises(CapacityError):
            make_alloc().alloc(0)

    def test_reset_reclaims(self):
        a = make_alloc(capacity=64)
        a.alloc(32)
        a.reset()
        r = a.alloc(32)
        assert r.offset == 0

    def test_high_water_survives_reset(self):
        a = make_alloc()
        a.alloc(100)
        a.reset()
        a.alloc(10)
        assert a.high_water_bytes == 200

    def test_used_and_free(self):
        a = make_alloc(capacity=1024)
        a.alloc(100)
        assert a.used_bytes == 200
        assert a.free_bytes == 824

    def test_refs_name_the_buffer(self):
        r = make_alloc().alloc(4)
        assert r.buffer == "UB"

    def test_all_chip_buffers_allocatable(self):
        for name, spec in ASCEND910.buffer_specs().items():
            a = Allocator(spec, FLOAT16)
            r = a.alloc(16)
            assert r.buffer == name


class TestAllocatorMessages:
    """The error messages name the buffer, the allocation and the
    actual problem (a zero-size request used to be reported as an
    overflow of "0 elements")."""

    def test_nonpositive_size_message_is_precise(self):
        with pytest.raises(
            CapacityError, match="non-positive allocation size 0"
        ):
            make_alloc().alloc(0)

    def test_nonpositive_size_names_allocation(self):
        with pytest.raises(CapacityError, match="'rows'"):
            make_alloc().alloc(-3, name="rows")

    def test_negative_size_message(self):
        with pytest.raises(
            CapacityError, match="non-positive allocation size -5"
        ):
            make_alloc().alloc(-5)

    def test_alignment_error_names_allocation(self):
        from repro.errors import AlignmentError

        a = Allocator(BufferSpec("UB", 1024, alignment=1), FLOAT16)
        with pytest.raises(AlignmentError, match="'patch'"):
            a.alloc(4, name="patch")

    def test_overflow_names_allocation(self):
        a = make_alloc(capacity=64)
        with pytest.raises(CapacityError, match="overflow.*bigbuf"):
            a.alloc(1000, name="bigbuf")


class TestLiveRegions:
    def test_live_regions_track_allocations(self):
        a = make_alloc()
        r1 = a.alloc(100, name="x")
        r2 = a.alloc(50, name="y")
        live = a.live_regions()
        assert live == {"x": r1, "y": r2}

    def test_unnamed_allocations_get_keys(self):
        a = make_alloc()
        r = a.alloc(10)
        assert list(a.live_regions()) == ["alloc0"]
        assert a.live_regions()["alloc0"] is r

    def test_duplicate_names_deduplicated(self):
        a = make_alloc()
        r1 = a.alloc(10, name="t")
        r2 = a.alloc(10, name="t")
        live = a.live_regions()
        assert live["t"] is r1
        assert live["t#1"] is r2

    def test_reset_clears_live_regions(self):
        a = make_alloc()
        a.alloc(10, name="t")
        a.reset()
        assert a.live_regions() == {}

    def test_live_regions_returns_copy(self):
        a = make_alloc()
        a.alloc(10, name="t")
        a.live_regions().clear()
        assert "t" in a.live_regions()

    def test_regions_disjoint_and_within_capacity(self):
        a = make_alloc(capacity=1024)
        for i in range(5):
            a.alloc(20 + i, name=f"r{i}")
        regions = sorted(a.live_regions().values(), key=lambda r: r.offset)
        for prev, nxt in zip(regions, regions[1:]):
            assert prev.end <= nxt.offset
        assert regions[-1].end <= a.capacity_elems


class TestPoison:
    def test_poison_fills_backing_store(self):
        buf = ScratchBuffer(BufferSpec("UB", 64), FLOAT16)
        buf.poison(-20000.0)
        assert np.all(buf.data == np.float16(-20000.0))

    def test_poison_value_is_fp16_exact(self):
        from repro.sim import POISON_VALUE

        assert float(np.float16(POISON_VALUE)) == POISON_VALUE
        assert np.isfinite(POISON_VALUE)
