"""Vector Unit instructions.

"The Vector Unit performs basic arithmetic and logic vector operations
(e.g., subtracting two vectors). It uses a 128-bit mask register ..."
(Section III-A).  One repeat iteration processes up to 256 bytes (128
fp16 lanes in 8 blocks of 16); the repeat parameter re-issues the body
with the operands advanced by their repeat strides, removing loop and
barrier overhead (Section V).

Cost model: ``issue_cycles + repeat * vector_repeat_cycles`` -- crucially
*independent of the mask*: disabled lanes are wasted datapath, which is
exactly why the 16-of-128-lane standard pooling loses to the saturated
Im2col layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from ..config import CostModel
from ..dtypes import DType, half_op
from ..errors import IsaError
from .instruction import Instruction, check_bounds, check_repeat
from .mask import Mask
from .operand import VectorOperand


def _np_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return a / b


_BINARY_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "vmax": np.maximum,
    "vmin": np.minimum,
    "vadd": np.add,
    "vsub": np.subtract,
    "vmul": np.multiply,
    "vdiv": _np_divide,
}


def _cmp_eq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """vcmp + vsel fused: 1.0 where equal, else 0.0 (storage dtype)."""
    return (a == b).astype(a.dtype)


_BINARY_OPS["vcmp_eq"] = _cmp_eq

_SCALAR_OPS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "vadds": lambda a, s: a + a.dtype.type(s),
    "vmuls": lambda a, s: a * a.dtype.type(s),
}

#: The ops as JIT kernels compute them on fp16 data held in float32
#: (:func:`~repro.dtypes.jit_dtype`): max, min and compare are exact,
#: and the arithmetic rounds once per step.  fp16 ``add`` and
#: ``multiply`` return the second operand's NaN where both are NaN.
_HALF_OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    **_BINARY_OPS,
    "vadd": half_op(np.add, nan_from=1),
    "vsub": half_op(np.subtract),
    "vmul": half_op(np.multiply, nan_from=1),
    "vdiv": half_op(_np_divide),
}
_HALF_OPS["vadds"] = _HALF_OPS["vadd"]
_HALF_OPS["vmuls"] = _HALF_OPS["vmul"]


def _jit_binary(op: str, dt: DType) -> Callable:
    """What a JIT kernel computes binary ``op`` on ``dt`` data as."""
    return _HALF_OPS[op] if dt.np_dtype == np.float16 else _BINARY_OPS[op]


def _jit_scalar(op: str, dt: DType, imm: float) -> Callable:
    """``op`` with immediate ``imm`` as a JIT kernel computes it: the
    immediate is first rounded to ``dt``, as the interpreter rounds it.
    Adding zero is a copy, exact without rounding."""
    value = dt.np_dtype.type(imm)
    if dt.np_dtype != np.float16:
        base = _SCALAR_OPS[op]
        return lambda a: base(a, value)
    wide = np.float32(value)
    if op == "vadds" and wide == 0:
        return lambda a: a + wide
    base = _HALF_OPS[op]
    return lambda a: base(a, wide)


@dataclass(frozen=True, slots=True)
class VectorBinary(Instruction):
    """A two-source vector instruction (vmax, vadd, vmul, ...).

    Executes ``dst[i] = op(src0[i], src1[i])`` over the enabled mask
    lanes, ``repeat`` times, advancing each operand by its repeat stride.
    Repeats are sequential: with ``dst.rep_stride == 0`` and
    ``src0 is dst`` the instruction accumulates, which is how a single
    ``vmax`` reduces across a patch row (Section V-A).
    """

    op: str
    dst: VectorOperand
    src0: VectorOperand
    src1: VectorOperand
    mask: Mask
    repeat: int = 1

    unit: ClassVar[str] = "vector"

    def __post_init__(self) -> None:
        if self.op not in _BINARY_OPS:
            raise IsaError(f"unknown vector binary op {self.op!r}")
        check_repeat(self.repeat)
        if self.op == "vcmp_eq" and self.repeat != 1:
            # vcmp writes the single 128-bit CMPMASK register that the
            # fused select consumes; a repeat would overwrite it before
            # the select reads it, so compare instructions cannot repeat.
            raise IsaError("vcmp_eq cannot use the repeat parameter")
        dts = {o.ref.dtype.name for o in (self.dst, self.src0, self.src1)}
        if len(dts) != 1:
            raise IsaError(f"operand dtypes differ: {sorted(dts)}")

    @property
    def opcode(self) -> str:
        return self.op

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.vector_repeat_cycles

    def lane_utilization(self) -> float:
        return self.mask.utilization(self.dst.ref.dtype)

    def execute(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        func = _BINARY_OPS[self.op]
        d_idx = self.dst.element_indices(self.repeat, lanes)
        s0_idx = self.src0.element_indices(self.repeat, lanes)
        s1_idx = self.src1.element_indices(self.repeat, lanes)

        d_buf = ctx.view(self.dst.ref.buffer)
        s0_buf = ctx.view(self.src0.ref.buffer)
        s1_buf = ctx.view(self.src1.ref.buffer)
        check_bounds(d_idx, d_buf.size, f"{self.op} dst")
        check_bounds(s0_idx, s0_buf.size, f"{self.op} src0")
        check_bounds(s1_idx, s1_buf.size, f"{self.op} src1")

        # Fast path: destinations of different repeats never alias, so
        # the whole instruction is one gather/compute/scatter.
        if self.repeat == 1 or (
            self.dst.rep_stride > 0
            and len(np.unique(d_idx)) == d_idx.size
        ):
            d_buf[d_idx] = func(s0_buf[s0_idx], s1_buf[s1_idx])
            return
        # Sequential-repeat path (e.g. accumulating reductions with
        # dst.rep_stride == 0): later repeats observe earlier writes.
        for r in range(self.repeat):
            d_buf[d_idx[r]] = func(s0_buf[s0_idx[r]], s1_buf[s1_idx[r]])

    def compile(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        func = _jit_binary(self.op, dt)
        d_idx = self.dst.element_indices(self.repeat, lanes)
        s0_idx = self.src0.element_indices(self.repeat, lanes)
        s1_idx = self.src1.element_indices(self.repeat, lanes)
        # Accumulating reduction (``dst is src0`` re-addressed every
        # repeat): max/min are order-independent and rounding-free, so
        # the whole chain collapses to one ``ufunc.reduce`` over the
        # gathered source rows -- bit-identical to the sequential loop.
        if (
            self.repeat > 1
            and self.op in ("vmax", "vmin")
            and self.dst.rep_stride == 0
            and self.src0 == self.dst
            and len(np.unique(d_idx[0])) == d_idx[0].size
            and not (
                self.src1.ref.buffer == self.dst.ref.buffer
                and np.intersect1d(d_idx[0], s1_idx).size
            )
        ):
            ctx.emit_reduction(
                self.op, func, self.dst.ref, d_idx[0], self.src1.ref, s1_idx
            )
            return
        if self.repeat == 1 or (
            self.dst.rep_stride > 0
            and len(np.unique(d_idx)) == d_idx.size
        ):
            ctx.emit_elementwise(
                ("vbin", self.op),
                func,
                self.dst.ref,
                d_idx.reshape(-1),
                [
                    (self.src0.ref, s0_idx.reshape(-1)),
                    (self.src1.ref, s1_idx.reshape(-1)),
                ],
            )
            return
        ctx.emit_sequential(
            func,
            self.dst.ref,
            d_idx,
            [(self.src0.ref, s0_idx), (self.src1.ref, s1_idx)],
        )


def VMAX(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise maximum -- the MaxPool reduction instruction."""
    return VectorBinary("vmax", dst, src0, src1, mask, repeat)


def VMIN(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise minimum."""
    return VectorBinary("vmin", dst, src0, src1, mask, repeat)


def VADD(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise addition -- AvgPool reduction / backward merge step."""
    return VectorBinary("vadd", dst, src0, src1, mask, repeat)


def VSUB(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise subtraction -- the argmax found-chain's diff step."""
    return VectorBinary("vsub", dst, src0, src1, mask, repeat)


def VMUL(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise multiply -- the argmax-mask x gradient step."""
    return VectorBinary("vmul", dst, src0, src1, mask, repeat)


def VDIV(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Element-wise division."""
    return VectorBinary("vdiv", dst, src0, src1, mask, repeat)


def VCMP_EQ(dst, src0, src1, mask, repeat=1) -> VectorBinary:
    """Fused compare-equal + select(1, 0): builds the argmax mask."""
    return VectorBinary("vcmp_eq", dst, src0, src1, mask, repeat)


@dataclass(frozen=True, slots=True)
class VectorScalar(Instruction):
    """Vector-with-immediate instruction (vadds, vmuls)."""

    op: str
    dst: VectorOperand
    src: VectorOperand
    imm: float
    mask: Mask
    repeat: int = 1

    unit: ClassVar[str] = "vector"

    def __post_init__(self) -> None:
        if self.op not in _SCALAR_OPS:
            raise IsaError(f"unknown vector scalar op {self.op!r}")
        check_repeat(self.repeat)
        if self.dst.ref.dtype.name != self.src.ref.dtype.name:
            raise IsaError("vector scalar operand dtypes differ")

    @property
    def opcode(self) -> str:
        return self.op

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.vector_repeat_cycles

    def lane_utilization(self) -> float:
        return self.mask.utilization(self.dst.ref.dtype)

    def execute(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        func = _SCALAR_OPS[self.op]
        d_idx = self.dst.element_indices(self.repeat, lanes)
        s_idx = self.src.element_indices(self.repeat, lanes)
        d_buf = ctx.view(self.dst.ref.buffer)
        s_buf = ctx.view(self.src.ref.buffer)
        check_bounds(d_idx, d_buf.size, f"{self.op} dst")
        check_bounds(s_idx, s_buf.size, f"{self.op} src")
        if self.repeat == 1 or (
            self.dst.rep_stride > 0
            and len(np.unique(d_idx)) == d_idx.size
        ):
            d_buf[d_idx] = func(s_buf[s_idx], self.imm)
            return
        for r in range(self.repeat):
            d_buf[d_idx[r]] = func(s_buf[s_idx[r]], self.imm)

    def compile(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        imm = self.imm
        func = _jit_scalar(self.op, dt, imm)
        d_idx = self.dst.element_indices(self.repeat, lanes)
        s_idx = self.src.element_indices(self.repeat, lanes)
        if self.repeat == 1 or (
            self.dst.rep_stride > 0
            and len(np.unique(d_idx)) == d_idx.size
        ):
            ctx.emit_elementwise(
                ("vs", self.op, float(imm)),
                func,
                self.dst.ref,
                d_idx.reshape(-1),
                [(self.src.ref, s_idx.reshape(-1))],
            )
            return
        ctx.emit_sequential(
            func, self.dst.ref, d_idx, [(self.src.ref, s_idx)]
        )


def VADDS(dst, src, imm, mask, repeat=1) -> VectorScalar:
    """Vector plus immediate (also AKG's canonical move when imm=0)."""
    return VectorScalar("vadds", dst, src, imm, mask, repeat)


def VMULS(dst, src, imm, mask, repeat=1) -> VectorScalar:
    """Vector times immediate -- AvgPool's 1/(Kh*Kw) division step."""
    return VectorScalar("vmuls", dst, src, imm, mask, repeat)


def VectorCopy(dst, src, mask, repeat=1) -> VectorScalar:
    """Strided copy, modelled as ``vadds 0`` exactly as AKG lowers moves.

    The expansion-based pooling variant (Section VI-B) uses these to
    build the Im2col layout with regular vector instructions.
    """
    return VectorScalar("vadds", dst, src, 0.0, mask, repeat)


@dataclass(frozen=True, slots=True)
class VectorDup(Instruction):
    """Broadcast an immediate into a vector region (``vector_dup``).

    Used to seed MaxPool outputs with the dtype minimum and Col2Im
    outputs with zero (Sections V-A, III-D).
    """

    dst: VectorOperand
    imm: float
    mask: Mask
    repeat: int = 1

    unit: ClassVar[str] = "vector"

    def __post_init__(self) -> None:
        check_repeat(self.repeat)

    @property
    def opcode(self) -> str:
        return "vector_dup"

    def cycles(self, cost: CostModel) -> int:
        return cost.issue_cycles + self.repeat * cost.vector_repeat_cycles

    def lane_utilization(self) -> float:
        return self.mask.utilization(self.dst.ref.dtype)

    def execute(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        d_idx = self.dst.element_indices(self.repeat, lanes)
        d_buf = ctx.view(self.dst.ref.buffer)
        check_bounds(d_idx, d_buf.size, "vector_dup dst")
        d_buf[d_idx] = dt.np_dtype.type(self.imm)

    def compile(self, ctx) -> None:
        dt = self.dst.ref.dtype
        lanes = self.mask.lanes(dt)
        d_idx = self.dst.element_indices(self.repeat, lanes)
        # Scatter order inside one fill is irrelevant (every lane gets
        # the same immediate), so duplicate destination indices are fine
        # and adjacent dups with the same value fuse unconditionally.
        ctx.emit_fill(
            self.dst.ref,
            d_idx.reshape(-1),
            dt.np_dtype.type(self.imm),
        )
