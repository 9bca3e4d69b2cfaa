"""Execution traces.

The paper's analysis hinges on *instruction issue counts* and *vector
mask utilization* (Section V).  A :class:`Trace` records both per
instruction so tests and benchmarks can assert e.g. "the standard
MaxPool issued ``Oh*Ow*Kh`` vmax instructions at 12.5% utilization while
the Im2col version issued ``Kh*Kw`` at 100%".
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import SimulationError


@dataclass(frozen=True)
class TraceRecord:
    """One executed instruction.

    ``issue_at``/``retire_at`` carry the timing model's schedule (see
    :mod:`repro.sim.scheduler`): the half-open interval during which the
    instruction occupied its unit.  ``None`` marks a record built
    without a schedule (legacy :meth:`Trace.from_instructions`).
    """

    opcode: str
    unit: str
    cycles: int
    repeat: int
    lane_utilization: float | None
    issue_at: int | None = None
    retire_at: int | None = None


def pooled_lane_utilization(
    records: Iterable[TraceRecord],
) -> float | None:
    """Repeat-weighted mean lane utilization over vector issues.

    The single implementation behind both
    :meth:`Trace.vector_lane_utilization` (one program) and
    :attr:`repro.sim.chip.ChipRunResult.vector_lane_utilization` (pooled
    over every tile).  Records without a lane utilization (DMA, SCU,
    scalar) do not participate; ``None`` means *no vector issues at
    all*, never "unknown".
    """
    num = 0.0
    den = 0
    for r in records:
        if r.lane_utilization is None:
            continue
        num += r.lane_utilization * r.repeat
        den += r.repeat
    return num / den if den else None


@dataclass
class Trace:
    """Accumulated records for one program execution.

    ``collected=False`` marks a trace that was deliberately *not*
    recorded (``collect_trace=False``): an empty record list then means
    "nobody looked", not "the program issued nothing".  Derived
    statistics raise :class:`~repro.errors.SimulationError` on an
    uncollected trace instead of silently reporting an empty program.
    """

    records: list[TraceRecord] = field(default_factory=list)
    #: Whether records were recorded at all.  ``Trace(collected=False)``
    #: is what runs with ``collect_trace=False`` carry.
    collected: bool = True

    @classmethod
    def from_instructions(cls, instructions, cost) -> "Trace":
        """Build the trace a program *would* produce, without executing.

        Every :class:`TraceRecord` field (opcode, unit, cycles, repeat,
        lane utilization) is a static property of the instruction -- the
        simulator's costs are data-independent -- so the trace of a
        program is a pure function of the instruction stream.  The
        cycles-only execution mode and the program cache exploit this:
        one statically-derived trace stands in for every tile a cached
        program runs, skipping per-instruction record allocation.
        """
        return cls(
            [
                TraceRecord(
                    opcode=i.opcode,
                    unit=i.unit,
                    cycles=i.cycles(cost),
                    repeat=getattr(i, "repeat", 1),
                    lane_utilization=i.lane_utilization(),
                )
                for i in instructions
            ]
        )

    def add(self, record: TraceRecord) -> None:
        self.records.append(record)

    def issues(self, opcode: str | None = None) -> int:
        """Number of instruction issues, optionally for one opcode."""
        if opcode is None:
            return len(self.records)
        return sum(1 for r in self.records if r.opcode == opcode)

    def issue_counts(self) -> Counter:
        return Counter(r.opcode for r in self.records)

    def cycles_by_unit(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.unit] = out.get(r.unit, 0) + r.cycles
        return out

    def cycles_by_opcode(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.opcode] = out.get(r.opcode, 0) + r.cycles
        return out

    def makespan(self) -> int:
        """Wall-clock cycles spanned by the recorded schedule.

        Requires timed records (built through an
        :class:`repro.sim.scheduler.ExecutionModel`); untimed traces
        raise, as the statistic is not derivable from costs alone.
        """
        self._require_collected()
        self._require_timed()
        return max((r.retire_at for r in self.records), default=0)

    def _require_timed(self) -> None:
        if any(
            r.issue_at is None or r.retire_at is None for r in self.records
        ):
            raise SimulationError(
                "trace records carry no schedule times; build the trace "
                "through an ExecutionModel to derive timing statistics"
            )

    def vector_lane_utilization(self) -> float | None:
        """Repeat-weighted mean utilization over vector issues.

        ``None`` means the program issued no vector instructions.  A
        trace that was never collected raises instead -- asking for
        utilization of records that do not exist is a caller bug
        (re-run with ``collect_trace=True``).
        """
        self._require_collected()
        return pooled_lane_utilization(self.records)

    def _require_collected(self) -> None:
        if not self.collected:
            raise SimulationError(
                "trace was not collected (collect_trace=False); re-run "
                "with collect_trace=True to derive trace statistics"
            )
