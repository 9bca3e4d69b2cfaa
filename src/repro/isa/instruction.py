"""Base machinery shared by all simulated instructions."""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import ClassVar, Protocol

import numpy as np

from ..config import CostModel
from ..errors import CompileError, IsaError, RepeatError
from .operand import MemRef, VectorOperand

#: Hardware limit of the repeat field; builders split longer loops into
#: multiple instructions (Sections III-C/III-D mention the repetition
#: parameter; the 8-bit encoding caps it at 255).
HW_MAX_REPEAT = 255


class ExecutionContext(Protocol):
    """What an instruction needs from the simulator to execute.

    Implemented by :class:`repro.sim.aicore.AICore`.
    """

    def view(self, buffer: str) -> np.ndarray:
        """Flat, writable NumPy view of a buffer's contents."""
        ...


@dataclasses.dataclass(frozen=True, slots=True)
class Region:
    """A half-open element span ``[start, stop)`` of one named buffer.

    The unit of hazard tracking in the pipelined scheduler: two
    instructions conflict exactly when one writes a region overlapping
    a region the other reads or writes.  Spans are conservative
    (strided operands report their full reach), which can only
    serialise, never reorder incorrectly.
    """

    buffer: str
    start: int
    stop: int

    def overlaps(self, other: "Region") -> bool:
        return (
            self.buffer == other.buffer
            and self.start < other.stop
            and other.start < self.stop
        )


class Instruction:
    """Base class: every instruction executes data and reports cycles."""

    # Concrete instructions are slotted frozen dataclasses; an empty
    # ``__slots__`` here keeps their instances free of a ``__dict__``.
    # Cached programs hold hundreds of thousands of instructions, so no
    # per-instance cache (of ``accesses()``, say) is kept on them.
    __slots__ = ()

    #: Which functional unit issues this instruction ("vector", "scu",
    #: "mte", "cube", "scalar").
    unit: str = "none"

    #: Operand field names written by this instruction.  The default
    #: covers the common ``dst`` convention; instructions with different
    #: field names (e.g. ``Mmad``'s accumulator ``c``) override it.
    write_fields: ClassVar[frozenset[str]] = frozenset({"dst"})

    @property
    def opcode(self) -> str:
        return type(self).__name__.lower()

    def cycles(self, cost: CostModel) -> int:
        """Cycle cost under ``cost``; pure, does not need buffer data."""
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext) -> None:
        """Apply the instruction's effect to the simulated buffers."""
        raise NotImplementedError

    def lane_utilization(self) -> float | None:
        """Datapath-fraction kept busy, or ``None`` for non-vector units."""
        return None

    # -- JIT compilation -------------------------------------------------
    #
    # The NumPy JIT (:mod:`repro.sim.compile`) translates a lowered
    # program into a handful of batched array operations.  Every shipped
    # instruction class implements ``compile(ctx)``; the JIT has no
    # interpreter fallback, so a class without it cannot run under
    # ``execute="jit"``.

    def compile(self, ctx) -> None:
        """Emit this instruction's data effect into a compile context
        (:class:`repro.sim.compile.CompileContext`) by calling exactly
        one of its ``emit_*`` helpers with precomputed index arrays.

        The emitted step must be **bit-identical** to ``execute()`` for
        every input: the JIT is validated differentially against the
        interpreter (``python -m repro.validate --jit``).  The base
        method raises :class:`~repro.errors.CompileError` naming the
        opcode.
        """
        raise CompileError(
            f"{self.opcode} does not implement compile(); the NumPy JIT "
            "cannot run it"
        )

    # -- operands -------------------------------------------------------
    #
    # Concrete instructions are frozen dataclasses whose memory operands
    # are their ``MemRef`` / ``VectorOperand`` fields.  Which fields those
    # are, and which of them are written, is a property of the class:
    # :func:`operand_table` computes it once per class, and every
    # operand consumer -- ``buffers``, ``reads``/``writes`` and the
    # sanitizer's generic accesses -- reads that table instead of
    # walking fields.
    # Whether a written operand is also *read* stays per instance
    # (``rmw_fields``): ``Mmad.init`` and ``DataMove.accumulate`` decide
    # it.

    def operands(self) -> list[tuple[str, MemRef | VectorOperand, bool]]:
        """``(field name, operand, written)`` per memory operand, in
        field declaration order."""
        return [
            (name, getattr(self, name), written)
            for name, written in operand_table(type(self))
        ]

    def buffers(self) -> frozenset[str]:
        """Names of every buffer this instruction's operands touch."""
        return frozenset(v.buffer for _, v, _ in self.operands())

    # -- region introspection -------------------------------------------
    #
    # The pipelined scheduler consumes these to gate cross-unit overlap
    # on read-after-write / write-after-read hazards.

    def rmw_fields(self) -> frozenset[str]:
        """Write fields that also *read* their destination.

        Accumulating instructions (``Col2ImStore``, ``DataMove`` with
        ``accumulate=True``, non-``init`` ``Mmad``) override this so the
        destination counts as a read too, creating the RAW edge that
        orders successive accumulations.
        """
        return frozenset()

    def accesses(self) -> tuple[tuple[Region, ...], tuple[Region, ...]]:
        """``(reads, writes)``: the buffer regions this instruction reads
        (incl. read-modify-write destinations) and writes, in one pass
        over the operand table."""
        repeat = int(getattr(self, "repeat", 1))
        rmw = self.rmw_fields()
        reads: list[Region] = []
        writes: list[Region] = []
        for name, written in operand_table(type(self)):
            v = getattr(self, name)
            region = Region(v.buffer, *v.extent(repeat))
            if written:
                writes.append(region)
            if not written or name in rmw:
                reads.append(region)
        return tuple(reads), tuple(writes)

    def reads(self) -> tuple[Region, ...]:
        """Buffer regions this instruction reads (incl. read-modify-write
        destinations)."""
        return self.accesses()[0]

    def writes(self) -> tuple[Region, ...]:
        """Buffer regions this instruction writes."""
        return self.accesses()[1]


@functools.cache
def operand_table(cls: type[Instruction]) -> tuple[tuple[str, bool], ...]:
    """``(field name, written)`` for every ``MemRef`` / ``VectorOperand``
    field of the instruction dataclass ``cls``, in declaration order.

    Read off the field annotations, so it is computed once per class
    and never looks at an instance; ``written`` is membership in the
    class's ``write_fields``.
    """
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, f.name in cls.write_fields)
        for f in dataclasses.fields(cls)
        if hints[f.name] in (MemRef, VectorOperand)
    )


def check_repeat(repeat: int) -> None:
    """Validate a repeat field against the hardware encoding."""
    if not isinstance(repeat, (int, np.integer)):
        raise RepeatError(f"repeat must be an int, got {type(repeat)}")
    if not 1 <= repeat <= HW_MAX_REPEAT:
        raise RepeatError(
            f"repeat {repeat} outside hardware range 1..{HW_MAX_REPEAT}"
        )


def check_bounds(indices: np.ndarray, limit: int, what: str) -> None:
    """Verify gathered/scattered element indices stay inside a region."""
    if indices.size == 0:
        raise IsaError(f"{what}: empty index set")
    lo = int(indices.min())
    hi = int(indices.max())
    if lo < 0 or hi >= limit:
        raise IsaError(
            f"{what}: element indices [{lo}, {hi}] escape region of "
            f"size {limit}"
        )
