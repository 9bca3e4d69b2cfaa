"""Pluggable timing models: serial and pipelined cycle accounting.

The simulator's original accounting was *issue-serial*: one instruction
at a time, chip cycles = the sum of instruction costs.  The real
DaVinci kernels instead overlap MTE loads with Vector/SCU compute via
double-buffered (ping-pong) UB tiles -- EXPERIMENTS.md records the
resulting gap as residual calibration error.  This module makes the
timing model a first-class, *pluggable* subsystem:

* :class:`ExecutionModel` -- the interface every layer (``Program``,
  ``AICore``, ``Chip``, ``ProgramCache``, ``repro.ops``, ``repro.bench``,
  ``repro.validate``) consumes.
* :class:`SerialModel` -- reproduces the historical counts
  **bit-identically** and remains the default, so every snapshot,
  figure export and cached summary is unchanged.
* :class:`PipelinedModel` -- a scoreboard scheduler: per-unit in-order
  issue timelines (MTE / Vector / SCU / Cube / scalar) with cross-unit
  overlap gated by read-after-write, write-after-read and
  write-after-write hazards on the operand regions that
  :meth:`repro.isa.instruction.Instruction.reads` /
  :meth:`~repro.isa.instruction.Instruction.writes` report.

Both models are *data-independent* (like the cost model itself), so a
schedule is a pure function of the instruction stream and can be
memoized by the program cache and shared by every tile it runs.

Invariant (held by construction, checked by the fuzz harness): the
pipelined makespan never exceeds the serial one.  Every issue-time
constraint -- the unit's previous retire, or a hazard partner's
retire -- is the retire time of an *earlier* instruction, which by
induction is at most that instruction's serial prefix sum; hence
``retire[i] <= sum(cycles[0..i])`` for every ``i``.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar

from ..config import CostModel
from ..errors import SimulationError
from .trace import Trace, TraceRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isa.program import Program

#: Functional units with their own in-order issue timeline.
UNITS = ("mte", "vector", "scu", "cube", "scalar")


@dataclass(frozen=True)
class InstructionTiming:
    """When one instruction occupies its unit: ``[issue, retire)``."""

    index: int
    unit: str
    issue: int
    retire: int

    @property
    def cycles(self) -> int:
        return self.retire - self.issue


@dataclass(frozen=True)
class Schedule:
    """A complete timing assignment for one program.

    ``makespan`` is the program's wall-clock cycle count under the
    model; ``unit_busy`` maps each unit to its total busy cycles
    (model-independent -- overlap moves work in time, it does not change
    how long each unit is occupied).
    """

    makespan: int
    timings: tuple[InstructionTiming, ...]
    unit_busy: dict[str, int]

    def occupancy(self) -> dict[str, float]:
        """Fraction of the makespan each unit spends busy."""
        if self.makespan <= 0:
            return {u: 0.0 for u in self.unit_busy}
        return {
            u: busy / self.makespan for u, busy in self.unit_busy.items()
        }

    def trace(self, program: "Program") -> Trace:
        """The timed trace of ``program`` under this schedule.

        Record order is program order; ``issue_at``/``retire_at`` carry
        the schedule.  Data-independent, so one trace stands in for
        every tile a cached tile program runs.
        """
        return Trace(
            [
                TraceRecord(
                    opcode=i.opcode,
                    unit=i.unit,
                    cycles=t.cycles,
                    repeat=int(getattr(i, "repeat", 1)),
                    lane_utilization=i.lane_utilization(),
                    issue_at=t.issue,
                    retire_at=t.retire,
                )
                for i, t in zip(program.instructions, self.timings)
            ]
        )


class ExecutionModel(ABC):
    """How a program's instruction stream maps to time.

    Implementations must be stateless (safe to share and to embed in
    cache keys by :attr:`name`).  ``program_cycles`` defaults to the
    schedule's makespan; both shipped models override it so the hot
    cycles-only path never materialises timings (:class:`SerialModel`
    with the closed-form sum, :class:`PipelinedModel` with a
    makespan-only issue loop).
    """

    #: Stable identifier -- CLI value, summary-memo key, export field.
    name: ClassVar[str]

    @abstractmethod
    def schedule(self, program: "Program", cost: CostModel) -> Schedule:
        """Assign issue/retire times to every instruction."""

    def program_cycles(self, program: "Program", cost: CostModel) -> int:
        """The program's makespan in cycles under this model."""
        return self.schedule(program, cost).makespan

    def unit_cycles(
        self, program: "Program", cost: CostModel
    ) -> dict[str, int]:
        """Busy cycles per functional unit (model-independent)."""
        out: dict[str, int] = {}
        for i in program.instructions:
            out[i.unit] = out.get(i.unit, 0) + i.cycles(cost)
        if program.scalar_loop_trips:
            out["scalar"] = (
                out.get("scalar", 0)
                + program.scalar_loop_trips * cost.loop_cycles
            )
        return out

    def trace(self, program: "Program", cost: CostModel) -> Trace:
        """The timed trace the program would record under this model
        (see :meth:`Schedule.trace`)."""
        return self.schedule(program, cost).trace(program)


class SerialModel(ExecutionModel):
    """Issue-serial accounting: the historical (and default) model.

    One instruction at a time, no overlap; program cycles are the plain
    sum of instruction costs plus the scalar-loop tax.  Reproduces the
    seed simulator's counts bit-identically.
    """

    name: ClassVar[str] = "serial"

    def program_cycles(self, program: "Program", cost: CostModel) -> int:
        total = sum(i.cycles(cost) for i in program.instructions)
        return total + program.scalar_loop_trips * cost.loop_cycles

    def schedule(self, program: "Program", cost: CostModel) -> Schedule:
        timings: list[InstructionTiming] = []
        t = 0
        for idx, instr in enumerate(program.instructions):
            c = instr.cycles(cost)
            timings.append(InstructionTiming(idx, instr.unit, t, t + c))
            t += c
        makespan = t + program.scalar_loop_trips * cost.loop_cycles
        return Schedule(
            makespan=makespan,
            timings=tuple(timings),
            unit_busy=self.unit_cycles(program, cost),
        )


class _HazardLog:
    """Per-buffer interval log: ``(retire, start, stop)`` ascending by
    retire, queried for the latest retire among overlapping entries."""

    __slots__ = ("entries", "max_retire")

    def __init__(self) -> None:
        self.entries: list[tuple[int, int, int]] = []
        self.max_retire = 0

    def latest_conflict(self, start: int, stop: int, floor: int) -> int:
        """Max retire over entries overlapping ``[start, stop)``, or
        ``floor`` if none exceeds it."""
        if self.max_retire <= floor:
            return floor
        es = self.entries
        for i in range(len(es) - 1, -1, -1):
            r, s, e = es[i]
            if r <= floor:
                break  # sorted ascending: nothing earlier can beat floor
            if s < stop and start < e:
                return r  # first overlap from the top is the max
        return floor

    def record(self, start: int, stop: int, retire: int) -> None:
        ent = (retire, start, stop)
        es = self.entries
        if not es or es[-1][0] <= retire:
            es.append(ent)
        else:  # rare: cross-unit retires are not monotone in issue order
            bisect.insort(es, ent)
        if retire > self.max_retire:
            self.max_retire = retire


class PipelinedModel(ExecutionModel):
    """Scoreboard scheduler with per-unit in-order issue.

    Each functional unit is a serial timeline (instructions of one unit
    issue in program order, one at a time -- the hardware queues are
    in-order).  Instructions on *different* units overlap freely unless
    a data hazard orders them:

    * **RAW** -- a read must wait for every earlier write overlapping
      its region to retire (the consumer of a ping-pong tile waits for
      the MTE load filling it);
    * **WAW** -- a write waits for earlier overlapping writes;
    * **WAR** -- a write waits for earlier overlapping *reads* (the MTE
      may not refill a tile the Vector unit is still reading -- exactly
      the constraint double-buffering exists to relax).

    Regions come from :meth:`Instruction.reads` / ``writes`` and are
    conservative (strided operands report their full reach), which can
    only serialise, never reorder incorrectly.  ``scalar_loop_trips``
    occupy the scalar timeline after its last instruction.

    By construction the makespan never exceeds :class:`SerialModel`'s:
    every constraint is an earlier instruction's retire time, which is
    bounded by its serial prefix sum.

    :meth:`program_cycles` runs the same issue loop as :meth:`schedule`
    but keeps only the makespan: it builds no
    :class:`InstructionTiming` tuple and makes no ``unit_busy`` pass.
    """

    name: ClassVar[str] = "pipelined"

    def schedule(self, program: "Program", cost: CostModel) -> Schedule:
        timings: list[InstructionTiming] = []
        return Schedule(
            makespan=self._issue(program, cost, timings),
            timings=tuple(timings),
            unit_busy=self.unit_cycles(program, cost),
        )

    def program_cycles(self, program: "Program", cost: CostModel) -> int:
        return self._issue(program, cost, None)

    @staticmethod
    def _issue(
        program: "Program",
        cost: CostModel,
        timings: "list[InstructionTiming] | None",
    ) -> int:
        """Issue every instruction and return the makespan, appending
        each instruction's timing to ``timings`` unless it is ``None``."""
        unit_free: dict[str, int] = {}
        write_logs: defaultdict[str, _HazardLog] = defaultdict(_HazardLog)
        read_logs: defaultdict[str, _HazardLog] = defaultdict(_HazardLog)
        makespan = 0
        for idx, instr in enumerate(program.instructions):
            unit = instr.unit
            ready = unit_free.get(unit, 0)
            reads, writes = instr.accesses()
            for r in reads:  # RAW
                log = write_logs.get(r.buffer)
                if log is not None:
                    ready = log.latest_conflict(r.start, r.stop, ready)
            for w in writes:  # WAW, then WAR
                log = write_logs.get(w.buffer)
                if log is not None:
                    ready = log.latest_conflict(w.start, w.stop, ready)
                log = read_logs.get(w.buffer)
                if log is not None:
                    ready = log.latest_conflict(w.start, w.stop, ready)
            retire = ready + instr.cycles(cost)
            unit_free[unit] = retire
            for w in writes:
                write_logs[w.buffer].record(w.start, w.stop, retire)
            for r in reads:
                read_logs[r.buffer].record(r.start, r.stop, retire)
            if timings is not None:
                timings.append(InstructionTiming(idx, unit, ready, retire))
            if retire > makespan:
                makespan = retire
        if program.scalar_loop_trips:
            scalar_end = (
                unit_free.get("scalar", 0)
                + program.scalar_loop_trips * cost.loop_cycles
            )
            makespan = max(makespan, scalar_end)
        return makespan


#: Shared stateless instances.
SERIAL = SerialModel()
PIPELINED = PipelinedModel()

MODELS: dict[str, ExecutionModel] = {
    SERIAL.name: SERIAL,
    PIPELINED.name: PIPELINED,
}


def resolve_model(
    model: "str | ExecutionModel | None",
) -> ExecutionModel:
    """Normalise a model spec: ``None`` -> the default :data:`SERIAL`,
    a name -> the registry entry, an instance -> itself."""
    if model is None:
        return SERIAL
    if isinstance(model, ExecutionModel):
        return model
    resolved = MODELS.get(model)
    if resolved is None:
        raise SimulationError(
            f"unknown timing model {model!r}; expected one of "
            f"{sorted(MODELS)}"
        )
    return resolved
