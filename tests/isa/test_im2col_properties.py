"""Property-based fuzzing of the Im2Col instruction against the golden
model, across geometry, repeat modes, padding and channel groups."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND910
from repro.dtypes import FLOAT16, FRACTAL_ROWS
from repro.fractal import im2col_nc1hwc0
from repro.isa import Im2ColLoad, Im2ColParams, Program
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

C0 = FLOAT16.c0


GEOMETRY = st.tuples(
    st.integers(4, 14),   # ih
    st.integers(4, 14),   # iw
    st.integers(1, 3),    # kh
    st.integers(1, 3),    # kw
    st.integers(1, 3),    # sh
    st.integers(1, 3),    # sw
    st.integers(0, 1),    # pad
    st.integers(1, 3),    # c1 extent
)


def _legal(ih, iw, kh, kw, sh, sw, pad):
    if pad >= kh or pad >= kw:
        return False
    return ih + 2 * pad >= kh and iw + 2 * pad >= kw


@given(geom=GEOMETRY, seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_mode1_planes_match_golden(geom, seed):
    """Repeat-mode-1 plane loads equal the golden im2col for any legal
    geometry, including padding halos and partial final fractals."""
    ih, iw, kh, kw, sh, sw, pad, c1e = geom
    if not _legal(ih, iw, kh, kw, sh, sw, pad):
        return
    rng = np.random.default_rng(seed)
    params = Im2ColParams(ih=ih, iw=iw, kh=kh, kw=kw, sh=sh, sw=sw,
                          pt=pad, pb=pad, pl=pad, pr=pad)
    img = rng.integers(-8, 9, (c1e, ih, iw, C0)).astype(np.float16)
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    src = kb.alloc("L1", img.size)
    core.view("L1")[src.offset:src.end] = img.reshape(-1)
    c1 = seed % c1e
    plane = params.plane_rows() * C0
    dst = kb.alloc("UB", kh * kw * plane)
    prog = Program("fuzz")
    for xk in range(kh):
        for yk in range(kw):
            prog.emit(Im2ColLoad(
                src=src, dst=dst.slice((xk * kw + yk) * plane, plane),
                params=params, c1=c1, xk=xk, yk=yk,
                repeat=params.fractals_per_plane, pad_value=-6.0,
            ))
    core.run(prog, gm)
    oh, ow = params.out_hw()
    got = core.view("UB")[dst.offset:dst.end].reshape(
        kh, kw, params.plane_rows(), C0
    )
    ref = im2col_nc1hwc0(
        img[None], kh, kw, sh, sw, pad, pad, pad, pad, pad_value=-6.0
    )[0, c1]
    assert np.array_equal(
        got[:, :, : oh * ow].reshape(kh, kw, oh, ow, C0), ref
    )
    # pad rows of a partial final fractal carry the pad value
    assert np.all(got[:, :, oh * ow:] == np.float16(-6.0))


@given(geom=GEOMETRY, seed=st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_mode0_stream_matches_golden(geom, seed):
    """A single mode-0 instruction streams the [c1, (xk, yk)] fractal
    chain of one patch window, in exactly that order."""
    ih, iw, kh, kw, sh, sw, pad, c1e = geom
    if not _legal(ih, iw, kh, kw, sh, sw, pad):
        return
    params = Im2ColParams(ih=ih, iw=iw, kh=kh, kw=kw, sh=sh, sw=sw,
                          pt=pad, pb=pad, pl=pad, pr=pad)
    k_depth = c1e * kh * kw
    if k_depth > 255:
        return
    rng = np.random.default_rng(seed)
    img = rng.integers(-8, 9, (c1e, ih, iw, C0)).astype(np.float16)
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    src = kb.alloc("L1", img.size)
    core.view("L1")[src.offset:src.end] = img.reshape(-1)
    dst = kb.alloc("UB", k_depth * FRACTAL_ROWS * C0)
    prog = Program("mode0")
    prog.emit(Im2ColLoad(
        src=src, dst=dst, params=params, c1=0, xk=0, yk=0,
        first_patch=0, repeat=k_depth, repeat_mode=0, pad_value=0.0,
    ))
    core.run(prog, gm)
    got = core.view("UB")[dst.offset:dst.end].reshape(
        c1e, kh, kw, FRACTAL_ROWS, C0
    )
    ref = im2col_nc1hwc0(
        img[None], kh, kw, sh, sw, pad, pad, pad, pad, pad_value=0.0
    )[0]  # (c1, kh, kw, oh, ow, C0)
    oh, ow = params.out_hw()
    rows = min(FRACTAL_ROWS, oh * ow)
    flat_ref = ref.reshape(c1e, kh, kw, oh * ow, C0)[:, :, :, :rows]
    assert np.array_equal(got[:, :, :, :rows], flat_ref)
