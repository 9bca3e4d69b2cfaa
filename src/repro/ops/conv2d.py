"""Convolution on the Cube Unit via Im2Col -- the instructions' primary
purpose (Sections II-A and III).

Pooling is the paper's contribution; convolution is what ``Im2Col`` and
``Col2Im`` were built for, and implementing it validates the substrate:

* forward: ``Im2Col`` in repeat mode 0 streams the ``OutIn`` row-block
  fractals straight into L0A (iterating ``[c1, (xk, yk)]`` exactly as
  Section III-C describes), the pre-fractalised kernel matrix sits in
  L0B, and one ``mmad`` per (patch-block, output-channel-block)
  accumulates the product in L0C;
* input gradient: the Cube computes ``dOutIn = dY @ W^T`` plane by
  plane and ``Col2Im`` merges the overlapping patches back into the
  input layout -- the original convolution-backward use of Col2Im
  (Section II-B).

Weights are rearranged into the fractal stream on the host, as the real
software stack does at graph-compile time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ASCEND910, ChipConfig
from ..dtypes import FLOAT16, FRACTAL_ROWS, dtype_of
from ..errors import LayoutError
from ..fractal.im2col import col2im_nc1hwc0, im2col_nc1hwc0
from ..isa.cube import Mmad
from ..isa.operand import MemRef
from ..isa.scu import Col2ImStore, Im2ColLoad
from ..sim import (
    Chip,
    ChipRunResult,
    ExecutionModel,
    GlobalMemory,
    resolve_model,
)
from ..tik import KernelBuilder
from .spec import PoolSpec


@dataclass
class ConvRunResult:
    output: np.ndarray
    chip: ChipRunResult
    #: Name of the timing model the cycle counts were produced under.
    timing_model: str = "serial"

    @property
    def cycles(self) -> int:
        return self.chip.cycles


def _check_conv_args(x: np.ndarray, weights: np.ndarray) -> None:
    if x.ndim != 5:
        raise LayoutError(f"expected NC1HWC0 input, got {x.shape}")
    if weights.ndim != 4:
        raise LayoutError(
            f"expected (Cout, C, Kh, Kw) weights, got {weights.shape}"
        )
    c0 = FLOAT16.c0
    if x.shape[-1] != c0:
        raise LayoutError(f"C0 must be {c0}")
    if weights.shape[0] % FRACTAL_ROWS != 0:
        raise LayoutError(
            f"Cout must be a multiple of {FRACTAL_ROWS} (got "
            f"{weights.shape[0]}); pad the kernel bank"
        )
    if weights.shape[1] != x.shape[1] * c0:
        raise LayoutError(
            f"weights expect {weights.shape[1]} input channels but the "
            f"input carries {x.shape[1] * c0}"
        )


def conv2d_ref(
    x: np.ndarray, weights: np.ndarray, spec: PoolSpec
) -> np.ndarray:
    """Golden conv: float32 accumulation, one rounding to fp16.

    ``x``: (N, C1, Ih, Iw, C0); ``weights``: (Cout, C1*C0, Kh, Kw).
    Returns (N, Cout/16, Oh, Ow, 16).
    """
    _check_conv_args(x, weights)
    n, c1, ih, iw, c0 = x.shape
    cout = weights.shape[0]
    cols = im2col_nc1hwc0(
        x, spec.kh, spec.kw, spec.sh, spec.sw,
        spec.pt, spec.pb, spec.pl, spec.pr,
    )
    _, _, kh, kw, oh, ow, _ = cols.shape
    # (N, Oh*Ow, C1*Kh*Kw*C0) rows of the OutIn matrix, ordered
    # [c1, kh, kw, c0] to match the Im2Col mode-0 fractal stream.
    rows = cols.transpose(0, 4, 5, 1, 2, 3, 6).reshape(
        n, oh * ow, c1 * kh * kw * c0
    )
    # (C1*Kh*Kw*C0, Cout) columns of OutKer in the same reduction order.
    wmat = (
        weights.reshape(cout, c1, c0, kh, kw)
        .transpose(1, 3, 4, 2, 0)
        .reshape(c1 * kh * kw * c0, cout)
    )
    out = rows.astype(np.float32) @ wmat.astype(np.float32)
    out = out.astype(np.float16)
    # (N, Oh*Ow, Cout) -> (N, Cout1, Oh, Ow, 16)
    return np.ascontiguousarray(
        out.reshape(n, oh, ow, cout // FRACTAL_ROWS, FRACTAL_ROWS)
        .transpose(0, 3, 1, 2, 4)
    )


def weight_fractals(weights: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """Host-side weight rearrangement: ``(Cout, C, Kh, Kw)`` into the
    L0B fractal stream ``(Cout1, K, 16, 16)`` where ``K = C1*Kh*Kw`` and
    fractal ``k`` holds ``(c0_in, cout)``."""
    cout, c, gkh, gkw = weights.shape
    if (gkh, gkw) != (kh, kw):
        raise LayoutError("weight kernel extents disagree with the spec")
    c0 = FLOAT16.c0
    if c % c0 != 0:
        pad = np.zeros((cout, -c % c0, kh, kw), dtype=weights.dtype)
        weights = np.concatenate([weights, pad], axis=1)
        c = weights.shape[1]
    c1 = c // c0
    cout1 = cout // FRACTAL_ROWS
    # (cout1, 16, c1, c0, kh, kw) -> (cout1, c1, kh, kw, c0, 16)
    arr = weights.reshape(cout1, FRACTAL_ROWS, c1, c0, kh, kw)
    arr = arr.transpose(0, 2, 4, 5, 3, 1)
    return np.ascontiguousarray(
        arr.reshape(cout1, c1 * kh * kw, c0, FRACTAL_ROWS)
    )


def conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    spec: PoolSpec,
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    model: "str | ExecutionModel | None" = None,
) -> ConvRunResult:
    """Convolution on the simulated Cube Unit.

    Single-tile implementation: the input slice must fit L1 and the
    reduction depth ``K = C1*Kh*Kw`` must fit one mmad repeat chain
    (255) so the float32 accumulation never round-trips through fp16.
    The (N, Cout1) tiles parallelise across AI Cores.
    """
    _check_conv_args(x, weights)
    dtype = dtype_of(x)
    n, c1, ih, iw, c0 = x.shape
    cout = weights.shape[0]
    cout1 = cout // FRACTAL_ROWS
    params = spec.with_image(ih, iw)
    oh, ow = params.out_hw()
    k_depth = c1 * spec.kh * spec.kw
    if k_depth > 255:
        raise LayoutError(
            f"reduction depth {k_depth} exceeds one mmad repeat chain"
        )
    fr = FRACTAL_ROWS * FRACTAL_ROWS
    wfrac = weight_fractals(weights, spec.kh, spec.kw)

    gm = GlobalMemory()
    gm.add("x", x)
    gm.add("w", wfrac)
    gm.zeros("y", n * cout1 * oh * ow * FRACTAL_ROWS, dtype)

    n_pblocks = params.fractals_per_plane
    programs = []
    for ni in range(n):
        for co in range(cout1):
            b = KernelBuilder(config, dtype, name=f"conv-n{ni}-co{co}")
            in_l1 = b.alloc("L1", c1 * ih * iw * c0, "in")
            b.dma(
                MemRef("x", ni * c1 * ih * iw * c0, c1 * ih * iw * c0, dtype),
                in_l1,
            )
            w_l0b = b.alloc("L0B", k_depth * fr, "w")
            b.dma(MemRef("w", co * k_depth * fr, k_depth * fr, dtype), w_l0b)
            a_l0a = b.alloc("L0A", k_depth * fr, "a")
            c_l0c = b.alloc("L0C", fr, "acc")
            out_ub = b.alloc("UB", n_pblocks * fr, "out")
            for pblk in range(n_pblocks):
                # Mode-0 Im2Col: one instruction streams the whole
                # [c1, (xk, yk)] fractal chain for these 16 patches.
                b.program.emit(
                    Im2ColLoad(
                        src=in_l1,
                        dst=a_l0a,
                        params=params,
                        c1=0,
                        xk=0,
                        yk=0,
                        first_patch=pblk * FRACTAL_ROWS,
                        repeat=k_depth,
                        repeat_mode=0,
                    )
                )
                b.program.emit(
                    Mmad(a=a_l0a, b=w_l0b, c=c_l0c, repeat=k_depth, init=True)
                )
                b.dma(c_l0c, out_ub.slice(pblk * fr, fr), channel="local")
            b.program.scalar_loop_trips += n_pblocks * 3
            valid = oh * ow * FRACTAL_ROWS
            b.dma(
                out_ub.slice(0, valid),
                MemRef("y", (ni * cout1 + co) * valid, valid, dtype),
            )
            programs.append(b.program)

    result = Chip(config, dtype).run_tiles(
        programs, gm, collect_trace=collect_trace, model=model
    )
    y = gm.read("y", (n, cout1, oh, ow, FRACTAL_ROWS))
    return ConvRunResult(
        output=y, chip=result, timing_model=resolve_model(model).name
    )


def conv2d_input_grad_ref(
    dy: np.ndarray, weights: np.ndarray, spec: PoolSpec, ih: int, iw: int
) -> np.ndarray:
    """Golden input gradient: ``col2im(dY @ W^T)``."""
    n, cout1, oh, ow, _ = dy.shape
    cout = cout1 * FRACTAL_ROWS
    c = weights.shape[1]
    c0 = FLOAT16.c0
    c1 = -(-c // c0)
    dmat = dy.transpose(0, 2, 3, 1, 4).reshape(n, oh * ow, cout)
    wmat = (
        np.concatenate(
            [weights, np.zeros((cout, c1 * c0 - c, spec.kh, spec.kw),
                               dtype=weights.dtype)], axis=1
        )
        .reshape(cout, c1, c0, spec.kh, spec.kw)
        .transpose(1, 3, 4, 2, 0)
        .reshape(c1 * spec.kh * spec.kw * c0, cout)
    )
    dcols = (
        dmat.astype(np.float32) @ wmat.astype(np.float32).T
    ).astype(np.float16)
    cols = (
        dcols.reshape(n, oh, ow, c1, spec.kh, spec.kw, c0)
        .transpose(0, 3, 4, 5, 1, 2, 6)
    )
    return col2im_nc1hwc0(
        np.ascontiguousarray(cols), ih, iw, spec.sh, spec.sw,
        spec.pt, spec.pb, spec.pl, spec.pr,
    )


def conv2d_input_grad(
    dy: np.ndarray,
    weights: np.ndarray,
    spec: PoolSpec,
    ih: int,
    iw: int,
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    model: "str | ExecutionModel | None" = None,
) -> ConvRunResult:
    """Input gradient of convolution on the simulated chip.

    Per (N, C1) tile: the Cube computes each ``(kh, kw)`` gradient plane
    as ``dY @ W^T`` fractal products, then ``Col2Im`` merges the planes
    into the input layout -- Col2Im's original role (Section II-B).
    """
    n, cout1, oh, ow, _ = dy.shape
    dtype = dtype_of(dy)
    c0 = FLOAT16.c0
    c = weights.shape[1]
    c1_total = -(-c // c0)
    params = spec.with_image(ih, iw)
    if params.out_hw() != (oh, ow):
        raise LayoutError("gradient grid does not match the geometry")
    fr = FRACTAL_ROWS * FRACTAL_ROWS
    # W^T fractal stream: (c1, kh, kw, cout1) fractals of (cout, c0_in).
    wfrac = weight_fractals(weights, spec.kh, spec.kw)  # (cout1, K, c0, 16)
    k_depth = c1_total * spec.kh * spec.kw
    wt = wfrac.transpose(1, 0, 3, 2)  # (K, cout1, 16cout, c0in)
    gm = GlobalMemory()
    gm.add("dy", dy)
    gm.add("wt", np.ascontiguousarray(wt))
    gm.zeros("dx", n * c1_total * ih * iw * c0, dtype)

    n_pblocks = params.fractals_per_plane
    plane_elems = params.plane_rows() * c0
    max_rep = config.max_repeat
    programs = []
    for ni in range(n):
        for ci in range(c1_total):
            b = KernelBuilder(config, dtype, name=f"dconv-n{ni}-c{ci}")
            dy_l0a = b.alloc("L0A", n_pblocks * fr * cout1, "dy")
            # dY row blocks: (pblk, cout1) fractals of (patch, cout).
            for pblk in range(n_pblocks):
                for co in range(cout1):
                    rows = min(FRACTAL_ROWS, oh * ow - pblk * FRACTAL_ROWS)
                    src = MemRef(
                        "dy",
                        ((ni * cout1 + co) * oh * ow + pblk * FRACTAL_ROWS)
                        * FRACTAL_ROWS,
                        rows * FRACTAL_ROWS,
                        dtype,
                    )
                    b.dma(
                        src,
                        dy_l0a.slice(
                            (pblk * cout1 + co) * fr, rows * FRACTAL_ROWS
                        ),
                    )
            b.program.scalar_loop_trips += n_pblocks * cout1
            # One plane buffer, streamed through Col2Im per (kh, kw):
            # the UB never holds more than a single gradient plane.
            plane_ub = b.alloc("UB", plane_elems, "plane")
            wt_l0b = b.alloc("L0B", spec.kh * spec.kw * cout1 * fr, "wt")
            for kk in range(spec.kh * spec.kw):
                kidx = ci * spec.kh * spec.kw + kk
                b.dma(
                    MemRef("wt", kidx * cout1 * fr, cout1 * fr, dtype),
                    wt_l0b.slice(kk * cout1 * fr, cout1 * fr),
                )
            c_l0c = b.alloc("L0C", fr, "acc")
            img_ub = b.alloc("UB", ih * iw * c0, "dx")
            b.dup(img_ub, 0.0)
            for kk in range(spec.kh * spec.kw):
                xk, yk = divmod(kk, spec.kw)
                for pblk in range(n_pblocks):
                    b.program.emit(
                        Mmad(
                            a=dy_l0a.slice(pblk * cout1 * fr, cout1 * fr),
                            b=wt_l0b.slice(kk * cout1 * fr, cout1 * fr),
                            c=c_l0c,
                            repeat=cout1,
                            init=True,
                        )
                    )
                    b.dma(
                        c_l0c,
                        plane_ub.slice(pblk * fr, fr),
                        channel="local",
                    )
                done = 0
                while done < n_pblocks:
                    rep = min(max_rep, n_pblocks - done)
                    b.program.emit(Col2ImStore(
                        src=plane_ub.slice(done * fr, rep * fr),
                        dst=img_ub,
                        params=params,
                        c1=0,
                        xk=xk,
                        yk=yk,
                        first_patch=done * FRACTAL_ROWS,
                        repeat=rep,
                    ))
                    done += rep
            b.program.scalar_loop_trips += spec.kh * spec.kw * (
                n_pblocks * 2 + 1
            )
            b.dma(
                img_ub,
                MemRef(
                    "dx", (ni * c1_total + ci) * ih * iw * c0,
                    ih * iw * c0, dtype,
                ),
                accumulate=True,
            )
            programs.append(b.program)

    result = Chip(config, dtype).run_tiles(
        programs, gm, collect_trace=collect_trace, model=model
    )
    dx = gm.read("dx", (n, c1_total, ih, iw, c0))
    return ConvRunResult(
        output=dx, chip=result, timing_model=resolve_model(model).name
    )
