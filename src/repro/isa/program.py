"""Instruction streams.

A :class:`Program` is what a kernel builder or the DSL lowering emits and
what an :class:`repro.sim.aicore.AICore` executes.  It is a plain ordered
list plus cheap static analysis (cycle estimate, issue counts, lane
utilization) used by the bench harness to report the quantities the
paper reasons about.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from ..config import CostModel
from .instruction import Instruction
from .operand import MemRef


@dataclass
class Program:
    """An ordered instruction stream for one AI Core tile."""

    name: str = "kernel"
    instructions: list[Instruction] = field(default_factory=list)
    #: Extra scalar-loop iterations the lowering could not remove; each
    #: costs ``CostModel.loop_cycles`` (branch + counter on the Scalar
    #: Unit).  The standard TVM pooling pays one per vmax issue.
    scalar_loop_trips: int = 0
    #: Scratch-pad allocation manifest: ``buffer name -> {allocation
    #: name -> MemRef}`` recorded by the kernel builder (see
    #: :meth:`repro.tik.builder.KernelBuilder.alloc`).  The memory
    #: sanitizer uses it to know which bytes of each scratch-pad are
    #: live while this program runs; programs built by hand (without a
    #: builder) may leave it empty, in which case the sanitizer falls
    #: back to whole-buffer bounds.
    allocations: dict[str, dict[str, "MemRef"]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def emit(self, instr: Instruction) -> Instruction:
        self.instructions.append(instr)
        return instr

    def extend(self, instrs: list[Instruction]) -> None:
        self.instructions.extend(instrs)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def static_cycles(self, cost: CostModel, model=None) -> int:
        """Cycle estimate without executing (identical to execution cost;
        the cost model is data-independent).

        ``model`` selects the timing model (name, instance or ``None``
        for the default serial model -- see
        :mod:`repro.sim.scheduler`).  The serial model reproduces the
        historical issue-serial sum bit-identically; the pipelined model
        returns the scoreboard makespan.
        """
        from ..sim.scheduler import resolve_model

        return resolve_model(model).program_cycles(self, cost)

    def issue_counts(self) -> Counter:
        """Instruction issues by opcode -- e.g. the paper's
        ``Oh*Ow*Kh`` vmax issues for the standard MaxPool."""
        return Counter(i.opcode for i in self.instructions)

    def unit_cycles(self, cost: CostModel, model=None) -> dict[str, int]:
        """Busy cycles by functional unit (delegated to the timing
        model; identical across models -- overlap moves work in time,
        it does not change how long each unit is occupied)."""
        from ..sim.scheduler import resolve_model

        return resolve_model(model).unit_cycles(self, cost)

    def mean_lane_utilization(self) -> float | None:
        """Average vector-lane utilization across vector issues, weighted
        by repeats; ``None`` if the program has no vector instructions."""
        num = 0.0
        den = 0
        for i in self.instructions:
            u = i.lane_utilization()
            if u is None:
                continue
            repeat = getattr(i, "repeat", 1)
            num += u * repeat
            den += repeat
        return num / den if den else None
