"""Memory operands for simulated instructions.

A :class:`MemRef` names a region of one buffer (scratch-pad or global
memory).  A :class:`VectorOperand` adds the per-instruction addressing
fields the real vector ISA has: *block stride* (distance between the 8
blocks of a repeat body) and *repeat stride* (distance between repeat
iterations), both expressed in 32-byte blocks exactly like the hardware
encodes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import numpy as np

from ..dtypes import BLOCK_BYTES, VECTOR_BYTES_PER_REPEAT, DType
from ..errors import IsaError


@dataclass(frozen=True, slots=True)
class MemRef:
    """A typed region of a named buffer.

    ``offset`` and ``size`` are in *elements* of ``dtype``.  ``buffer``
    is a symbolic name ("UB", "L1", ... or a global-memory tensor name)
    resolved by the simulator at execution time.

    Slotted and immutable, so one region may be shared by any number of
    operands and instructions; nothing depends on its identity.
    """

    buffer: str
    offset: int
    size: int
    dtype: DType

    def __post_init__(self) -> None:
        if self.offset < 0:
            raise IsaError(f"negative offset {self.offset} in MemRef")
        if self.size <= 0:
            raise IsaError(f"non-positive size {self.size} in MemRef")

    @property
    def nbytes(self) -> int:
        return self.size * self.dtype.itemsize

    @property
    def end(self) -> int:
        """One past the last element index."""
        return self.offset + self.size

    def extent(self, repeat: int = 1) -> tuple[int, int]:
        """``(start, stop)`` element span; a plain region's span does not
        depend on ``repeat`` (cf. :meth:`VectorOperand.extent`)."""
        return self.offset, self.offset + self.size

    def slice(self, start: int, size: int) -> "MemRef":
        """Sub-region, with bounds checking against this region."""
        if start < 0 or start + size > self.size:
            raise IsaError(
                f"slice [{start}, {start + size}) outside region of "
                f"size {self.size}"
            )
        return replace(self, offset=self.offset + start, size=size)


@dataclass(frozen=True, slots=True)
class VectorOperand:
    """A vector-instruction operand: base region plus addressing strides.

    ``blk_stride`` -- 32-byte blocks between consecutive blocks of one
    repeat body (1 = contiguous; ``Sw`` implements the strided patch
    access of pooling).  ``rep_stride`` -- 32-byte blocks between repeat
    iterations (0 makes every repeat re-address the same data, which is
    how a reduction accumulates into a fixed destination).

    Slotted and immutable, so sharing one operand between instructions
    is safe: the lowering reuses equal operands within a stage and
    across the programs it builds.
    """

    ref: MemRef
    blk_stride: int = 1
    rep_stride: int = 8

    def __post_init__(self) -> None:
        if self.blk_stride < 0 or self.rep_stride < 0:
            raise IsaError("vector operand strides must be non-negative")

    @property
    def buffer(self) -> str:
        return self.ref.buffer

    @property
    def offset(self) -> int:
        return self.ref.offset

    def extent(self, repeat: int) -> tuple[int, int]:
        """Conservative ``(start, stop)`` element span for ``repeat``
        iterations, relative to the operand's buffer.

        Used by the pipelined scheduler's hazard tracking: the span
        covers every element :meth:`element_indices` can produce for any
        mask, so two operands whose extents are disjoint provably do not
        conflict.  Over-approximation is safe (it only serialises), so
        strides are walked without mask knowledge.
        """
        dt = self.ref.dtype
        lpb = dt.lanes_per_block
        blocks = VECTOR_BYTES_PER_REPEAT // BLOCK_BYTES
        reach = (
            (repeat - 1) * self.rep_stride * lpb
            + (blocks - 1) * self.blk_stride * lpb
            + lpb
        )
        return self.ref.offset, max(self.ref.end, self.ref.offset + reach)

    def element_indices(
        self, repeat: int, lane_idx: np.ndarray
    ) -> np.ndarray:
        """Flat element indices (relative to the buffer) touched by the
        instruction, shaped ``(repeat, len(lane_idx))``.

        ``lane_idx`` are enabled lane positions within a repeat body as
        produced by :meth:`repro.isa.mask.Mask.lanes`.
        """
        dt = self.ref.dtype
        lpb = dt.lanes_per_block
        blocks = lane_idx // lpb
        within = lane_idx % lpb
        lane_off = blocks * self.blk_stride * lpb + within
        rep_off = (
            np.arange(repeat, dtype=np.int64) * self.rep_stride * lpb
        )
        return self.ref.offset + rep_off[:, None] + lane_off[None, :]
