"""Cube Unit instruction: fractal matrix multiply-accumulate.

"The Cube Unit ... implements matrix multiplication using an array of
processing elements ... can multiply two data-fractals per clock cycle"
(Section III-A).  Pooling cannot use it (no weights), but convolution --
the instructions' primary client -- can, and :mod:`repro.ops.conv2d`
demonstrates the full Im2Col -> Cube pipeline on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..config import CostModel
from ..dtypes import FRACTAL_ROWS
from ..errors import IsaError
from .instruction import Instruction, check_repeat
from .operand import MemRef


@dataclass(frozen=True, slots=True)
class Mmad(Instruction):
    """``repeat`` fractal-pair multiply-accumulates.

    Reads 16x16 fp16 fractals from L0A (``a``) and L0B (``b``) and
    accumulates ``a @ b`` into a float32 16x16 tile in L0C (``c``).
    ``init`` clears the accumulator first.  Repeats advance ``a`` and
    ``b`` by one fractal each (a dot product along the reduction axis).
    """

    a: MemRef
    b: MemRef
    c: MemRef
    repeat: int = 1
    init: bool = False

    unit: ClassVar[str] = "cube"
    write_fields: ClassVar[frozenset[str]] = frozenset({"c"})

    def rmw_fields(self) -> frozenset[str]:
        # Without ``init`` the accumulator's prior contents are read.
        return frozenset() if self.init else frozenset({"c"})

    def __post_init__(self) -> None:
        check_repeat(self.repeat)
        fr = FRACTAL_ROWS * FRACTAL_ROWS
        if self.a.size < self.repeat * fr or self.b.size < self.repeat * fr:
            raise IsaError("mmad input regions smaller than repeat fractals")
        if self.c.size < fr:
            raise IsaError("mmad accumulator region smaller than one fractal")

    @property
    def opcode(self) -> str:
        return "mmad"

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.cube_mmad_cycles

    def execute(self, ctx) -> None:
        fr = FRACTAL_ROWS * FRACTAL_ROWS
        a_buf = ctx.view(self.a.buffer)
        b_buf = ctx.view(self.b.buffer)
        c_buf = ctx.view(self.c.buffer)
        out = c_buf[self.c.offset : self.c.offset + fr].reshape(
            FRACTAL_ROWS, FRACTAL_ROWS
        )
        # The L0C accumulator is float32 in hardware; one instruction's
        # whole repeat chain accumulates at full precision and rounds to
        # the storage dtype only when written back.
        acc = (
            np.zeros((FRACTAL_ROWS, FRACTAL_ROWS), dtype=np.float32)
            if self.init
            else out.astype(np.float32)
        )
        for r in range(self.repeat):
            a = a_buf[
                self.a.offset + r * fr : self.a.offset + (r + 1) * fr
            ].reshape(FRACTAL_ROWS, FRACTAL_ROWS)
            b = b_buf[
                self.b.offset + r * fr : self.b.offset + (r + 1) * fr
            ].reshape(FRACTAL_ROWS, FRACTAL_ROWS)
            acc += a.astype(np.float32) @ b.astype(np.float32)
        out[:] = acc.astype(out.dtype)

    def compile(self, ctx) -> None:
        ctx.emit_mmad(self)
