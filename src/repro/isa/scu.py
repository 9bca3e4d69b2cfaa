"""Storage Conversion Unit instructions: DMA moves, Im2Col and Col2Im.

Section III-C/III-D of the paper.  ``Im2ColLoad`` is a *load* that
rearranges data while it travels between buffers (L1 -> L0A/L0B/UB), so
the im2col memory blow-up only ever exists in the target buffer.
``Col2ImStore`` is its backward dual: it reads fractals, adds them onto
the (zero-initialised) ``HWC0`` image in the Unified Buffer, summing the
overlapped positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..config import CostModel
from ..dtypes import FRACTAL_ROWS, DType
from ..errors import IsaError, LayoutError
from ..fractal.im2col import output_hw
from .instruction import Instruction, check_repeat
from .operand import MemRef


@dataclass(frozen=True)
class Im2ColParams:
    """The per-image constant parameters of Im2Col/Col2Im (Section III-C).

    These are shared by every instruction loading the same input: image
    extents, zero padding, strides and kernel extents.
    """

    ih: int
    iw: int
    kh: int
    kw: int
    sh: int
    sw: int
    pt: int = 0
    pb: int = 0
    pl: int = 0
    pr: int = 0

    def __post_init__(self) -> None:
        if min(self.ih, self.iw, self.kh, self.kw, self.sh, self.sw) <= 0:
            raise LayoutError("image/kernel/stride extents must be positive")
        if min(self.pt, self.pb, self.pl, self.pr) < 0:
            raise LayoutError("padding must be non-negative")
        # Trigger Equation-1 validation early.
        self.out_hw()

    def out_hw(self) -> tuple[int, int]:
        """Patch-grid extents (Equation 1)."""
        return output_hw(
            self.ih, self.iw, self.kh, self.kw, self.sh, self.sw,
            self.pt, self.pb, self.pl, self.pr,
        )

    @property
    def num_patches(self) -> int:
        oh, ow = self.out_hw()
        return oh * ow

    @property
    def fractals_per_plane(self) -> int:
        """Fractals needed to hold one (xk, yk) plane of all patches."""
        return -(-self.num_patches // FRACTAL_ROWS)

    def plane_rows(self) -> int:
        """Patch rows per plane padded up to whole fractals."""
        return self.fractals_per_plane * FRACTAL_ROWS

    def patch_origin(self, patch: int) -> tuple[int, int]:
        """Top-left image coordinate (may be negative into the padding)
        of row-major patch number ``patch``."""
        oh, ow = self.out_hw()
        if not 0 <= patch < oh * ow:
            raise IsaError(f"patch index {patch} outside grid {oh}x{ow}")
        return (patch // ow) * self.sh - self.pt, (patch % ow) * self.sw - self.pl


def _plane_indices(
    params: Im2ColParams,
    dtype: DType,
    c1: int,
    c1_extent: int,
    xk: int,
    yk: int,
    patch_start: int,
    rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat source indices plus validity mask for ``rows`` patch rows.

    Returns ``(indices, valid)`` where ``indices`` has shape
    ``(rows, C0)`` into an ``(c1_extent, Ih, Iw, C0)`` region and
    ``valid`` has shape ``(rows,)``.  Invalid rows are padding (either a
    patch beyond the grid in the final fractal, or an element whose
    (h, w) falls in the zero-padding halo); their indices are clamped
    to 0 and must be overwritten with the pad value by the caller.
    """
    if not 0 <= c1 < c1_extent:
        raise IsaError(f"c1={c1} outside region extent {c1_extent}")
    if not (0 <= xk < params.kh and 0 <= yk < params.kw):
        raise IsaError(f"kernel offset ({xk}, {yk}) outside kernel")
    oh, ow = params.out_hw()
    p = patch_start + np.arange(rows, dtype=np.int64)
    in_grid = p < oh * ow
    pc = np.minimum(p, oh * ow - 1)
    h = (pc // ow) * params.sh - params.pt + xk
    w = (pc % ow) * params.sw - params.pl + yk
    in_image = (h >= 0) & (h < params.ih) & (w >= 0) & (w < params.iw)
    valid = in_grid & in_image
    h = np.where(valid, h, 0)
    w = np.where(valid, w, 0)
    c0 = dtype.c0
    base = ((c1 * params.ih + h) * params.iw + w) * c0
    idx = base[:, None] + np.arange(c0, dtype=np.int64)[None, :]
    return idx, valid


@dataclass(frozen=True, slots=True)
class Im2ColLoad(Instruction):
    """The Im2Col load instruction (Section III-C).

    One repeat iteration gathers 16 consecutive patches -- the elements
    at kernel-relative position ``(xk, yk)`` of each, in channel group
    ``c1`` -- and deposits them as one 16 x C0 fractal at the
    destination.  Padding positions yield ``pad_value`` (zero for
    convolution; the dtype minimum for MaxPool).

    ``repeat_mode`` selects which positional parameter the hardware
    advances between repeats (Section III-C):

    * mode 0 -- iterate ``[c1, (xk, yk)]``, patches fixed;
    * mode 1 -- iterate the patch window ``(x, y)`` by 16 patches,
      ``(c1, xk, yk)`` fixed.  With the loop order ``[c1, (xk, yk),
      (x, y)]`` this stores planes of shape ``(Oh*Ow padded, C0)`` one
      after another -- the ``(C1, Kh, Kw, Oh, Ow, C0)`` tensor used by
      the accelerated pooling.
    """

    src: MemRef
    dst: MemRef
    params: Im2ColParams
    c1: int
    xk: int
    yk: int
    first_patch: int = 0
    repeat: int = 1
    repeat_mode: int = 1
    pad_value: float = 0.0

    unit: ClassVar[str] = "scu"

    def __post_init__(self) -> None:
        check_repeat(self.repeat)
        if self.repeat_mode not in (0, 1):
            raise IsaError(f"repeat mode must be 0 or 1, got {self.repeat_mode}")
        if self.src.dtype.name != self.dst.dtype.name:
            raise IsaError("Im2Col src/dst dtypes differ")
        plane = self.params.ih * self.params.iw * self.src.dtype.c0
        if self.src.size % plane != 0:
            raise IsaError(
                f"Im2Col source region ({self.src.size} elems) is not a "
                f"multiple of the (Ih, Iw, C0) plane ({plane} elems)"
            )
        if self.first_patch % FRACTAL_ROWS != 0:
            raise IsaError("first_patch must be fractal-aligned (multiple of 16)")
        fractal = FRACTAL_ROWS * self.src.dtype.c0
        if self.dst.size < self.repeat * fractal:
            raise IsaError(
                f"Im2Col destination region too small: {self.dst.size} < "
                f"{self.repeat * fractal} elements"
            )

    @property
    def opcode(self) -> str:
        return "im2col"

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.im2col_fractal_cycles

    def _positions(self) -> list[tuple[int, int, int, int]]:
        """(c1, xk, yk, patch_start) per repeat iteration."""
        dt = self.src.dtype
        c1_extent = self.src.size // (self.params.ih * self.params.iw * dt.c0)
        out = []
        c1, xk, yk, patch = self.c1, self.xk, self.yk, self.first_patch
        for _ in range(self.repeat):
            out.append((c1, xk, yk, patch))
            if self.repeat_mode == 0:
                yk += 1
                if yk == self.params.kw:
                    yk = 0
                    xk += 1
                    if xk == self.params.kh:
                        xk = 0
                        c1 += 1
                        if c1 == c1_extent:
                            c1 = 0  # wraps; real HW would fault
            else:
                patch += FRACTAL_ROWS
        return out

    def execute(self, ctx) -> None:
        dt = self.src.dtype
        src_buf = ctx.view(self.src.buffer)
        dst_buf = ctx.view(self.dst.buffer)
        src_region = src_buf[self.src.offset : self.src.end]
        c1_extent = self.src.size // (self.params.ih * self.params.iw * dt.c0)
        fractal = FRACTAL_ROWS * dt.c0
        for r, (c1, xk, yk, patch) in enumerate(self._positions()):
            idx, valid = _plane_indices(
                self.params, dt, c1, c1_extent, xk, yk, patch, FRACTAL_ROWS
            )
            rows = src_region[idx]
            rows[~valid] = dt.np_dtype.type(self.pad_value)
            start = self.dst.offset + r * fractal
            dst_buf[start : start + fractal] = rows.reshape(-1)

    def compile(self, ctx) -> None:
        dt = self.src.dtype
        c1_extent = self.src.size // (self.params.ih * self.params.iw * dt.c0)
        fractal = FRACTAL_ROWS * dt.c0
        if self.repeat_mode == 1:
            # Repeat r of mode 1 gathers patches ``first + 16r ..``; one
            # call over ``repeat * 16`` rows computes the exact same
            # index/valid sequence as the per-repeat interpreter loop.
            idx, valid = _plane_indices(
                self.params, dt, self.c1, c1_extent, self.xk, self.yk,
                self.first_patch, self.repeat * FRACTAL_ROWS,
            )
        else:
            parts = [
                _plane_indices(
                    self.params, dt, c1, c1_extent, xk, yk, patch,
                    FRACTAL_ROWS,
                )
                for (c1, xk, yk, patch) in self._positions()
            ]
            idx = np.concatenate([p[0] for p in parts], axis=0)
            valid = np.concatenate([p[1] for p in parts], axis=0)
        ctx.emit_im2col(
            self.src,
            self.dst,
            idx + self.src.offset,
            valid,
            dt.np_dtype.type(self.pad_value),
            self.dst.offset,
            self.dst.offset + self.repeat * fractal,
        )


@dataclass(frozen=True, slots=True)
class Col2ImStore(Instruction):
    """The Col2Im vector instruction (Section III-D).

    Reads ``repeat`` input fractals, loads the matching positions of the
    (already initialised) output image "in an Im2Col manner", adds, and
    scatters the sums back (Figure 6).  Only repeat mode 1 exists: each
    repeat advances the patch window by 16 patches.  Contributions from
    patches beyond the grid or positions inside the padding halo are
    dropped, matching the hardware which never writes the halo.
    """

    src: MemRef
    dst: MemRef
    params: Im2ColParams
    c1: int
    xk: int
    yk: int
    first_patch: int = 0
    repeat: int = 1

    unit: ClassVar[str] = "scu"

    def __post_init__(self) -> None:
        check_repeat(self.repeat)
        if self.src.dtype.name != self.dst.dtype.name:
            raise IsaError("Col2Im src/dst dtypes differ")
        plane = self.params.ih * self.params.iw * self.src.dtype.c0
        if self.dst.size % plane != 0:
            raise IsaError(
                f"Col2Im destination region ({self.dst.size} elems) is not "
                f"a multiple of the (Ih, Iw, C0) plane ({plane} elems)"
            )
        if self.first_patch % FRACTAL_ROWS != 0:
            raise IsaError("first_patch must be fractal-aligned (multiple of 16)")
        fractal = FRACTAL_ROWS * self.src.dtype.c0
        if self.src.size < self.repeat * fractal:
            raise IsaError(
                f"Col2Im source region too small: {self.src.size} < "
                f"{self.repeat * fractal} elements"
            )

    @property
    def opcode(self) -> str:
        return "col2im"

    def rmw_fields(self) -> frozenset[str]:
        # Col2Im *accumulates* onto the destination image, so the
        # destination is read as well as written.
        return frozenset({"dst"})

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.col2im_fractal_cycles

    def execute(self, ctx) -> None:
        dt = self.src.dtype
        src_buf = ctx.view(self.src.buffer)
        dst_buf = ctx.view(self.dst.buffer)
        dst_region = dst_buf[self.dst.offset : self.dst.end]
        c1_extent = self.dst.size // (self.params.ih * self.params.iw * dt.c0)
        rows_total = self.repeat * FRACTAL_ROWS
        idx, valid = _plane_indices(
            self.params, dt, self.c1, c1_extent, self.xk, self.yk,
            self.first_patch, rows_total,
        )
        fractal_elems = rows_total * dt.c0
        src_rows = src_buf[
            self.src.offset : self.src.offset + fractal_elems
        ].reshape(rows_total, dt.c0)
        idx_v = idx[valid]
        rows_v = src_rows[valid]
        # Distinct patches at a fixed kernel offset can never collide on
        # an input position, so a gather-add-scatter is exact; np.add.at
        # keeps it exact even if a malformed program violates that.
        np.add.at(dst_region, idx_v.reshape(-1), rows_v.reshape(-1))

    def compile(self, ctx) -> None:
        dt = self.src.dtype
        c1_extent = self.dst.size // (self.params.ih * self.params.iw * dt.c0)
        rows_total = self.repeat * FRACTAL_ROWS
        idx, valid = _plane_indices(
            self.params, dt, self.c1, c1_extent, self.xk, self.yk,
            self.first_patch, rows_total,
        )
        src_idx = (
            self.src.offset + np.arange(rows_total * dt.c0, dtype=np.int64)
        ).reshape(rows_total, dt.c0)
        ctx.emit_col2im(
            self.src,
            self.dst,
            src_idx[valid].reshape(-1),
            (idx[valid] + self.dst.offset).reshape(-1),
        )


@dataclass(frozen=True, slots=True)
class DataMove(Instruction):
    """Plain (layout-preserving) data movement between memories.

    ``channel`` selects the cost path: ``"gm"`` for global-memory <->
    scratch-pad DMA, ``"local"`` for on-chip buffer-to-buffer copies.

    ``accumulate`` makes the transfer add into the destination instead
    of overwriting it -- the atomic-add DMA mode the runtime uses when
    row-chunked backward tiles write overlapping input-gradient rows.
    Tiles of one (N, C1) group are serialised on one core, so the adds
    are race-free.
    """

    src: MemRef
    dst: MemRef
    channel: str = "gm"
    accumulate: bool = False

    unit: ClassVar[str] = "mte"

    def __post_init__(self) -> None:
        if self.channel not in ("gm", "local"):
            raise IsaError(f"unknown DMA channel {self.channel!r}")
        if self.src.size != self.dst.size:
            raise IsaError(
                f"DataMove size mismatch: {self.src.size} != {self.dst.size}"
            )
        if self.src.dtype.name != self.dst.dtype.name:
            raise IsaError("DataMove src/dst dtypes differ")

    @property
    def opcode(self) -> str:
        return "data_move"

    def rmw_fields(self) -> frozenset[str]:
        # Accumulate-mode DMA adds into the destination, reading it.
        return frozenset({"dst"}) if self.accumulate else frozenset()

    def cycles(self, cost: CostModel) -> int:
        bw = (
            cost.dma_bytes_per_cycle
            if self.channel == "gm"
            else cost.local_bytes_per_cycle
        )
        return cost.dma_latency_cycles + -(-self.src.nbytes // bw)

    def execute(self, ctx) -> None:
        src_buf = ctx.view(self.src.buffer)
        dst_buf = ctx.view(self.dst.buffer)
        if self.src.end > src_buf.size or self.dst.end > dst_buf.size:
            raise IsaError("DataMove region escapes buffer")
        if self.accumulate:
            dst_buf[self.dst.offset : self.dst.end] += src_buf[
                self.src.offset : self.src.end
            ]
        else:
            dst_buf[self.dst.offset : self.dst.end] = src_buf[
                self.src.offset : self.src.end
            ]

    def compile(self, ctx) -> None:
        ctx.emit_copy(self.src, self.dst, self.accumulate)
