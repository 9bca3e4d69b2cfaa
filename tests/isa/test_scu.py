"""Tests for the SCU instructions: Im2Col, Col2Im and DMA moves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND910
from repro.dtypes import FLOAT16, FRACTAL_ROWS
from repro.errors import IsaError, LayoutError
from repro.fractal import col2im_nc1hwc0, im2col_nc1hwc0
from repro.isa import (
    Col2ImStore,
    DataMove,
    Im2ColLoad,
    Im2ColParams,
    MemRef,
    Program,
)
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

COST = ASCEND910.cost
C0 = FLOAT16.c0


class TestIm2ColParams:
    def test_output_grid(self):
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        assert p.out_hw() == (4, 4)
        assert p.num_patches == 16
        assert p.fractals_per_plane == 1
        assert p.plane_rows() == 16

    def test_partial_fractal_rounds_up(self):
        p = Im2ColParams(ih=9, iw=9, kh=3, kw=3, sh=2, sw=2)
        assert p.num_patches == 16  # 4x4 exactly
        p = Im2ColParams(ih=11, iw=11, kh=3, kw=3, sh=2, sw=2)
        assert p.num_patches == 25
        assert p.fractals_per_plane == 2
        assert p.plane_rows() == 32

    def test_patch_origin(self):
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2, pt=1, pl=1)
        # patch 0 starts in the padding halo
        assert p.patch_origin(0) == (-1, -1)
        assert p.patch_origin(5) == (1, 1)

    def test_patch_origin_bounds(self):
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        with pytest.raises(IsaError):
            p.patch_origin(16)

    def test_invalid_geometry(self):
        with pytest.raises(LayoutError):
            Im2ColParams(ih=0, iw=8, kh=2, kw=2, sh=1, sw=1)
        with pytest.raises(LayoutError):
            Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=1, sw=1, pt=-1)
        with pytest.raises(LayoutError):
            Im2ColParams(ih=2, iw=2, kh=5, kw=5, sh=1, sw=1)


def load_image(core, kb, shape, rng, buffer="L1"):
    """Place a random (C1?, Ih, Iw, C0) image into a buffer region."""
    ref = kb.alloc(buffer, int(np.prod(shape)))
    data = rng.standard_normal(shape).astype(np.float16)
    core.view(buffer)[ref.offset:ref.end] = data.reshape(-1)
    return ref, data


class TestIm2ColLoad:
    def run_planes(self, core, kb, gm, src, params, pad_value=0.0, c1=0):
        """Issue one repeat-mode-1 Im2Col per (xk, yk), as the pooling
        kernels do, and return the planes as an array."""
        plane = params.plane_rows() * C0
        dst = kb.alloc("UB", params.kh * params.kw * plane)
        prog = Program("im2col")
        for xk in range(params.kh):
            for yk in range(params.kw):
                idx = xk * params.kw + yk
                prog.emit(Im2ColLoad(
                    src=src, dst=dst.slice(idx * plane, plane),
                    params=params, c1=c1, xk=xk, yk=yk,
                    repeat=params.fractals_per_plane, pad_value=pad_value,
                ))
        core.run(prog, gm)
        out = core.view("UB")[dst.offset:dst.end]
        return out.reshape(params.kh, params.kw, params.plane_rows(), C0)

    def test_matches_golden_exact_fractals(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src, img = load_image(core, kb, (8, 8, C0), rng)
        got = self.run_planes(core, kb, gm, src, p)
        ref = im2col_nc1hwc0(img[None, None], 2, 2, 2, 2)[0, 0]
        assert np.array_equal(got.reshape(2, 2, 16, C0),
                              ref.reshape(2, 2, 16, C0))

    def test_matches_golden_partial_final_fractal(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=11, iw=11, kh=3, kw=3, sh=2, sw=2)
        src, img = load_image(core, kb, (11, 11, C0), rng)
        got = self.run_planes(core, kb, gm, src, p, pad_value=-9.0)
        ref = im2col_nc1hwc0(img[None, None], 3, 3, 2, 2)[0, 0]
        oh, ow = p.out_hw()
        valid = got[:, :, : oh * ow].reshape(3, 3, oh, ow, C0)
        assert np.array_equal(valid, ref)
        # rows beyond the patch grid are filled with the pad value
        assert np.all(got[:, :, oh * ow:] == np.float16(-9.0))

    def test_padding_on_the_fly(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=6, iw=6, kh=3, kw=3, sh=2, sw=2,
                         pt=1, pb=1, pl=1, pr=1)
        src, img = load_image(core, kb, (6, 6, C0), rng)
        got = self.run_planes(core, kb, gm, src, p, pad_value=-4.0)
        ref = im2col_nc1hwc0(
            img[None, None], 3, 3, 2, 2, 1, 1, 1, 1, pad_value=-4.0
        )[0, 0]
        oh, ow = p.out_hw()
        valid = got[:, :, : oh * ow].reshape(3, 3, oh, ow, C0)
        assert np.array_equal(valid, ref)

    def test_c1_selection(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src, img = load_image(core, kb, (3, 8, 8, C0), rng)  # C1=3
        got = self.run_planes(core, kb, gm, src, p, c1=2)
        ref = im2col_nc1hwc0(img[None], 2, 2, 2, 2)[0, 2]
        assert np.array_equal(got.reshape(2, 2, 16, C0),
                              ref.reshape(2, 2, 16, C0))

    def test_first_patch_offset(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=16, iw=16, kh=2, kw=2, sh=2, sw=2)  # 64 patches
        src, img = load_image(core, kb, (16, 16, C0), rng)
        dst = kb.alloc("UB", FRACTAL_ROWS * C0)
        prog = Program("t")
        prog.emit(Im2ColLoad(src=src, dst=dst, params=p, c1=0, xk=1, yk=0,
                             first_patch=32, repeat=1))
        core.run(prog, gm)
        got = core.view("UB")[dst.offset:dst.end].reshape(16, C0)
        ref = im2col_nc1hwc0(img[None, None], 2, 2, 2, 2)[0, 0, 1, 0]
        assert np.array_equal(got, ref.reshape(64, C0)[32:48])

    def test_repeat_mode0_iterates_kernel_then_c1(self, rng, gm):
        # Section III-C: "the input in Figure 5 can be fully loaded by
        # issuing a single Im2Col ... with repeat mode 0".
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src, img = load_image(core, kb, (2, 8, 8, C0), rng)  # C1=2
        dst = kb.alloc("UB", 8 * FRACTAL_ROWS * C0)
        prog = Program("t")
        prog.emit(Im2ColLoad(src=src, dst=dst, params=p, c1=0, xk=0, yk=0,
                             repeat=8, repeat_mode=0))
        core.run(prog, gm)
        got = core.view("UB")[dst.offset:dst.end].reshape(2, 2, 2, 16, C0)
        ref = im2col_nc1hwc0(img[None], 2, 2, 2, 2)[0]  # (2,2,2,4,4,16)
        want = ref.reshape(2, 2, 2, 16, C0)
        assert np.array_equal(got, want)

    def test_figure5_example(self, gm):
        # The paper's Figure 5: 8x8 input, k=(2,2), s=(2,2); the first
        # (blue) fractal holds the top-left element of all 16 patches.
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        img = np.arange(8 * 8 * C0, dtype=np.float16).reshape(8, 8, C0)
        src = kb.alloc("L1", img.size)
        core.view("L1")[src.offset:src.end] = img.reshape(-1)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        dst = kb.alloc("UB", FRACTAL_ROWS * C0)
        prog = Program("t")
        prog.emit(Im2ColLoad(src=src, dst=dst, params=p, c1=0, xk=0, yk=0))
        core.run(prog, gm)
        got = core.view("UB")[dst.offset:dst.end].reshape(16, C0)
        for patch in range(16):
            h, w = (patch // 4) * 2, (patch % 4) * 2
            assert np.array_equal(got[patch], img[h, w])

    def test_validation(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src, _ = load_image(core, kb, (8, 8, C0), rng)
        small = kb.alloc("UB", 8)
        with pytest.raises(IsaError):
            Im2ColLoad(src=src, dst=small, params=p, c1=0, xk=0, yk=0)
        big = kb.alloc("UB", FRACTAL_ROWS * C0)
        with pytest.raises(IsaError):
            Im2ColLoad(src=src, dst=big, params=p, c1=0, xk=0, yk=0,
                       repeat_mode=2)
        with pytest.raises(IsaError):
            Im2ColLoad(src=src, dst=big, params=p, c1=0, xk=0, yk=0,
                       first_patch=7)

    def test_cycle_cost(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src, _ = load_image(core, kb, (8, 8, C0), rng)
        dst = kb.alloc("UB", 4 * FRACTAL_ROWS * C0)
        i = Im2ColLoad(src=src, dst=dst, params=p, c1=0, xk=0, yk=0,
                       repeat=4, repeat_mode=0)
        assert i.cycles(COST) == (
            COST.issue_cycles + 4 * COST.im2col_fractal_cycles
        )


class TestCol2ImStore:
    def run_merge(self, core, kb, gm, planes, params):
        plane = params.plane_rows() * C0
        src = kb.alloc("UB", params.kh * params.kw * plane)
        core.view("UB")[src.offset:src.end] = planes.reshape(-1)
        dst = kb.alloc("UB", params.ih * params.iw * C0)
        core.view("UB")[dst.offset:dst.end] = 0
        prog = Program("col2im")
        for xk in range(params.kh):
            for yk in range(params.kw):
                idx = xk * params.kw + yk
                prog.emit(Col2ImStore(
                    src=src.slice(idx * plane, plane), dst=dst,
                    params=params, c1=0, xk=xk, yk=yk,
                    repeat=params.fractals_per_plane,
                ))
        core.run(prog, gm)
        return core.view("UB")[dst.offset:dst.end].reshape(
            params.ih, params.iw, C0
        )

    def _planes_from_golden(self, rng, params):
        oh, ow = params.out_hw()
        cols = rng.standard_normal(
            (params.kh, params.kw, oh * ow, C0)
        ).astype(np.float16)
        padded = np.zeros(
            (params.kh, params.kw, params.plane_rows(), C0), np.float16
        )
        padded[:, :, : oh * ow] = cols
        return cols, padded

    def test_matches_golden(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=9, iw=9, kh=3, kw=3, sh=2, sw=2)
        oh, ow = p.out_hw()
        cols, padded = self._planes_from_golden(rng, p)
        got = self.run_merge(core, kb, gm, padded, p)
        ref = col2im_nc1hwc0(
            cols.reshape(1, 1, 3, 3, oh, ow, C0), 9, 9, 2, 2
        )[0, 0]
        assert np.array_equal(got, ref)

    def test_partial_fractal_patches_skipped(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=11, iw=11, kh=3, kw=3, sh=2, sw=2)  # 25 patches
        oh, ow = p.out_hw()
        cols, padded = self._planes_from_golden(rng, p)
        # poison the pad rows: they must never be accumulated
        padded[:, :, oh * ow:] = np.float16(1000.0)
        got = self.run_merge(core, kb, gm, padded, p)
        ref = col2im_nc1hwc0(
            cols.reshape(1, 1, 3, 3, oh, ow, C0), 11, 11, 2, 2
        )[0, 0]
        assert np.array_equal(got, ref)

    def test_padding_halo_dropped(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=6, iw=6, kh=3, kw=3, sh=2, sw=2,
                         pt=1, pb=1, pl=1, pr=1)
        oh, ow = p.out_hw()
        cols, padded = self._planes_from_golden(rng, p)
        got = self.run_merge(core, kb, gm, padded, p)
        ref = col2im_nc1hwc0(
            cols.reshape(1, 1, 3, 3, oh, ow, C0), 6, 6, 2, 2, 1, 1, 1, 1
        )[0, 0]
        assert np.array_equal(got, ref)

    def test_requires_zero_initialised_output(self, rng, gm):
        # Section III-D: "Col2Im requires its output to be initialized
        # with zeros" -- the instruction accumulates onto what's there.
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src = kb.alloc("UB", p.plane_rows() * C0)
        core.view("UB")[src.offset:src.end] = 1
        dst = kb.alloc("UB", 8 * 8 * C0)
        core.view("UB")[dst.offset:dst.end] = 5
        prog = Program("t")
        prog.emit(Col2ImStore(src=src, dst=dst, params=p, c1=0, xk=0, yk=0))
        core.run(prog, gm)
        got = core.view("UB")[dst.offset:dst.end].reshape(8, 8, C0)
        assert got[0, 0, 0] == 6  # 5 + 1, not overwritten

    def test_cycle_cost(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src = kb.alloc("UB", p.plane_rows() * C0)
        dst = kb.alloc("UB", 8 * 8 * C0)
        i = Col2ImStore(src=src, dst=dst, params=p, c1=0, xk=0, yk=0)
        assert i.cycles(COST) == (
            COST.issue_cycles + COST.col2im_fractal_cycles
        )

    def test_validation(self, rng, gm):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        p = Im2ColParams(ih=8, iw=8, kh=2, kw=2, sh=2, sw=2)
        src = kb.alloc("UB", p.plane_rows() * C0)
        dst = kb.alloc("UB", 8 * 8 * C0)
        with pytest.raises(IsaError):
            Col2ImStore(src=src, dst=dst.slice(0, 100), params=p,
                        c1=0, xk=0, yk=0)
        with pytest.raises(IsaError):
            Col2ImStore(src=src.slice(0, 8), dst=dst, params=p,
                        c1=0, xk=0, yk=0)


class TestIm2colCol2imDualityOnCore:
    @given(
        ih=st.integers(5, 12),
        k=st.integers(2, 3),
        s=st.integers(1, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_instruction_level_duality(self, ih, k, s):
        """Loading with Im2Col then merging with Col2Im multiplies each
        position by its overlap multiplicity (integer data: exact)."""
        from repro.fractal import overlap_multiplicity

        rng = np.random.default_rng(ih * 31 + k * 7 + s)
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        gm = GlobalMemory()
        p = Im2ColParams(ih=ih, iw=ih, kh=k, kw=k, sh=s, sw=s)
        img = rng.integers(-3, 4, (ih, ih, C0)).astype(np.float16)
        src = kb.alloc("L1", img.size)
        core.view("L1")[src.offset:src.end] = img.reshape(-1)
        plane = p.plane_rows() * C0
        planes = kb.alloc("UB", p.kh * p.kw * plane)
        out = kb.alloc("UB", ih * ih * C0)
        prog = Program("dual")
        for xk in range(k):
            for yk in range(k):
                idx = xk * k + yk
                prog.emit(Im2ColLoad(
                    src=src, dst=planes.slice(idx * plane, plane),
                    params=p, c1=0, xk=xk, yk=yk,
                    repeat=p.fractals_per_plane,
                ))
        for xk in range(k):
            for yk in range(k):
                idx = xk * k + yk
                prog.emit(Col2ImStore(
                    src=planes.slice(idx * plane, plane), dst=out,
                    params=p, c1=0, xk=xk, yk=yk,
                    repeat=p.fractals_per_plane,
                ))
        core.run(prog, gm)
        got = core.view("UB")[out.offset:out.end].reshape(ih, ih, C0)
        mult = overlap_multiplicity(ih, ih, k, k, s, s)
        want = img * mult[:, :, None].astype(np.float16)
        assert np.array_equal(got, want)


class TestDataMove:
    def test_gm_to_scratch(self, rng):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        gm = GlobalMemory()
        data = rng.standard_normal(256).astype(np.float16)
        src = gm.add("x", data)
        dst = kb.alloc("UB", 256)
        prog = Program("t")
        prog.emit(DataMove(src, dst))
        core.run(prog, gm)
        assert np.array_equal(core.view("UB")[dst.offset:dst.end], data)

    def test_accumulate_mode(self, rng):
        core = AICore(ASCEND910)
        kb = KernelBuilder(ASCEND910)
        gm = GlobalMemory()
        out = gm.add("y", np.ones(64, np.float16))
        src = kb.alloc("UB", 64)
        core.view("UB")[src.offset:src.end] = 2
        prog = Program("t")
        prog.emit(DataMove(src, out, accumulate=True))
        core.run(prog, gm)
        assert np.all(gm.view("y") == 3)

    def test_size_mismatch(self):
        a = MemRef("UB", 0, 64, FLOAT16)
        b = MemRef("UB", 64, 32, FLOAT16)
        with pytest.raises(IsaError):
            DataMove(a, b)

    def test_unknown_channel(self):
        a = MemRef("UB", 0, 64, FLOAT16)
        with pytest.raises(IsaError):
            DataMove(a, a, channel="pcie")

    def test_gm_cost_uses_dma_bandwidth(self):
        a = MemRef("x", 0, 1024, FLOAT16)
        b = MemRef("UB", 0, 1024, FLOAT16)
        i = DataMove(a, b, channel="gm")
        expect = COST.dma_latency_cycles + -(
            -2048 // COST.dma_bytes_per_cycle
        )
        assert i.cycles(COST) == expect

    def test_local_channel_faster(self):
        a = MemRef("L0C", 0, 4096, FLOAT16)
        b = MemRef("UB", 0, 4096, FLOAT16)
        assert DataMove(a, b, "local").cycles(COST) < \
            DataMove(a, b, "gm").cycles(COST)
