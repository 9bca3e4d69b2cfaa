"""One simulated AI Core.

Executes a :class:`repro.isa.program.Program` instruction by instruction
against its private scratch-pad buffers and the shared global memory,
accumulating the cycle count the paper's hardware counters would report.

*When* those cycles elapse is the business of the pluggable timing
model (:mod:`repro.sim.scheduler`): the default :class:`SerialModel`
reproduces the historical issue-serial accounting bit-identically,
while :class:`PipelinedModel` overlaps units under data hazards.  Data
execution is identical under every model -- instructions run in program
order, so numeric results cannot depend on the timing model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from ..config import ChipConfig
from ..dtypes import FLOAT16, DType
from ..errors import SimulationError
from ..isa.program import Program
from .buffers import Allocator, ScratchBuffer
from .memory import GlobalMemory
from .modes import check_modes
from .scheduler import ExecutionModel, resolve_model
from .trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .compile import CompiledKernel
    from .faults import Injection
    from .sanitizer import Sanitizer, SanitizerReport


@dataclass(frozen=True)
class RunResult:
    """Outcome of executing one program on one core."""

    cycles: int
    instructions: int
    trace: Trace
    #: Name of the program this result summarizes (slice token
    #: canonicalised -- relocated clones of one tile program share a
    #: summary).  Empty for results built without a program at hand.
    program_name: str = ""
    #: What the memory sanitizer observed, when the run was sanitized
    #: (``sanitize=`` truthy); ``None`` on the zero-cost default path.
    sanitizer: "SanitizerReport | None" = None

    @property
    def vector_lane_utilization(self) -> float | None:
        """Repeat-weighted vector utilization of this run's trace.

        ``None`` = the program issued no vector instructions; raises
        :class:`~repro.errors.SimulationError` when the trace was not
        collected (see :meth:`repro.sim.trace.Trace.vector_lane_utilization`).
        """
        return self.trace.vector_lane_utilization()

    def detach(self) -> "RunResult":
        """A slim copy safe to ship across a process boundary.

        Drops the per-instruction trace payload -- by far the largest
        part of a result -- replacing it with an *uncollected*
        :class:`~repro.sim.trace.Trace`, so trace-derived statistics
        raise loudly instead of reporting an empty program.  Scalars
        (cycles, instruction count, program name) and the sanitizer
        report survive.  Already-slim results return themselves.
        """
        if not self.trace.collected and not self.trace.records:
            return self
        return replace(self, trace=Trace(collected=False))


#: Relocated per-slice clones are named ``...-s<slice>-t<tile>``; their
#: summaries are shared, so the slice token is canonicalised before
#: comparing a summary's provenance against a program.
_SLICE_TOKEN = re.compile(r"-s\d+(?=-t\d+)")


def _canonical_name(name: str) -> str:
    return _SLICE_TOKEN.sub("-s*", name)


def summarize(
    program: Program,
    config: ChipConfig,
    model: "str | ExecutionModel | None" = None,
    collect_trace: bool = True,
) -> RunResult:
    """The :class:`RunResult` executing ``program`` would produce,
    computed statically under ``model`` (default serial).

    Exact, not an estimate: the cost model is data-independent, so the
    cycle count and the timed trace equal what execution records.
    """
    m = resolve_model(model)
    cost = config.cost
    trace = (
        m.trace(program, cost) if collect_trace else Trace(collected=False)
    )
    return RunResult(
        cycles=m.program_cycles(program, cost),
        instructions=len(program),
        trace=trace,
        program_name=_canonical_name(program.name),
    )


@dataclass
class AICore:
    """Scalar + Vector + Cube units, private buffers, and the SCU."""

    config: ChipConfig
    dtype: DType = FLOAT16
    core_id: int = 0
    buffers: dict[str, ScratchBuffer] = field(init=False)
    allocators: dict[str, Allocator] = field(init=False)
    _gm: GlobalMemory | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        self.buffers = {
            name: ScratchBuffer(spec, self.dtype)
            for name, spec in self.config.buffer_specs().items()
        }
        self.allocators = {
            name: Allocator.for_buffer(buf) for name, buf in self.buffers.items()
        }

    # -- ExecutionContext protocol -------------------------------------
    def view(self, buffer: str) -> np.ndarray:
        buf = self.buffers.get(buffer)
        if buf is not None:
            return buf.data
        if self._gm is None:
            raise SimulationError(
                f"instruction referenced {buffer!r} but no global memory "
                "is attached"
            )
        return self._gm.view(buffer)

    # -- allocation helpers used by kernel builders --------------------
    def alloc(self, buffer: str, size_elems: int, name: str = ""):
        return self.allocators[buffer].alloc(size_elems, name)

    def reset_allocations(self) -> None:
        for alloc in self.allocators.values():
            alloc.reset()

    # -- execution ------------------------------------------------------
    def run(
        self,
        program: Program,
        gm: GlobalMemory | None,
        collect_trace: bool = True,
        execute: str = "numeric",
        summary: RunResult | None = None,
        model: "str | ExecutionModel | None" = None,
        injection: "Injection | None" = None,
        sanitize: "bool | Sanitizer | None" = None,
        compiled: "CompiledKernel | None" = None,
    ) -> RunResult:
        """Execute ``program``; returns cycles and the trace.

        ``execute`` selects the execution mode:

        * ``"numeric"`` (default) -- run every instruction's data effect
          against the buffers; results land in ``gm``.
        * ``"cycles"`` -- skip data execution entirely and account cycles
          analytically.  The cost model is data-independent, so the
          returned cycle count is identical to the numeric mode's; only
          the buffer contents are left untouched.  ``gm`` may be ``None``.
        * ``"jit"`` -- apply the program's data effect through a
          compiled batch kernel (:mod:`repro.sim.compile`):
          bit-identical buffer contents and the exact same cycle
          accounting as ``"numeric"``, at a fraction of the dispatch
          cost.  ``compiled`` optionally supplies the kernel (typically
          from :meth:`repro.sim.progcache.ProgramCache.compiled`);
          without it the program is compiled on the spot.  Incompatible
          with ``sanitize=`` and ``injection=``, which instrument the
          per-instruction interpreter loop the JIT exists to skip.

        ``model`` picks the timing model (name, instance or ``None``
        for the default serial model); it shapes *when* cycles elapse,
        never the numeric results.

        ``summary`` optionally supplies a precomputed :class:`RunResult`
        for this exact program (typically from
        :mod:`repro.sim.progcache`): cycle accounting and trace
        construction are skipped and the summary is returned as-is --
        in numeric mode after the data pass, in cycles mode
        immediately.  A summary that visibly belongs to a *different*
        program (instruction count or canonicalised program name
        mismatch) raises :class:`~repro.errors.SimulationError` instead
        of silently mis-accounting.

        ``injection`` optionally attaches a deterministic fault
        injection (:class:`repro.sim.faults.Injection`) to this numeric
        run: bit-flips corrupt scratch-pad contents at their chosen
        instruction index and injected crashes raise
        :class:`~repro.errors.CoreFailure` mid-program.  ``None`` (the
        default) executes the historical loop unchanged -- the fault
        machinery is zero-cost when idle.

        ``sanitize`` switches on the strict memory-checking mode
        (:mod:`repro.sim.sanitizer`): ``True`` builds a fresh halting
        :class:`~repro.sim.sanitizer.Sanitizer`, an instance is reused
        (keep one per core across tiles so stale reads of a previous
        tile's data are diagnosed precisely), and ``None``/``False``
        (the default) runs the historical loop unchanged -- the
        sanitizer is zero-cost when disabled.  Sanitized runs must be
        numeric and fault-free; violations raise
        :class:`~repro.errors.SanitizerError` and the resulting
        :class:`RunResult` carries the sanitizer's report.
        """
        check_modes(
            execute, sanitize=sanitize, injection=injection,
            compiled=compiled,
        )
        if sanitize:
            from .sanitizer import resolve_sanitizer

            san = resolve_sanitizer(sanitize, self.config)
        else:
            san = None
        if summary is not None:
            self._check_summary(program, summary)
        if execute == "cycles":
            if summary is not None:
                return summary
            return summarize(
                program, self.config, model=model, collect_trace=collect_trace
            )
        if gm is None:
            raise SimulationError("numeric execution requires global memory")
        if execute == "jit":
            kernel = compiled
            if kernel is None:
                from .compile import compile_program

                kernel = compile_program(program, self.config)
            self._gm = gm
            try:
                kernel(self, program)
            finally:
                self._gm = None
            if summary is not None:
                return summary
            return summarize(
                program, self.config, model=model,
                collect_trace=collect_trace,
            )
        self._gm = gm
        try:
            if san is not None:
                san.begin_program(self, program)
                for idx, instr in enumerate(program):
                    san.run_instruction(self, program, idx, instr)
                san.end_program(self, program)
                san.audit(
                    program,
                    resolve_model(model).trace(program, self.config.cost),
                )
            elif injection is None:
                for instr in program:
                    instr.execute(self)
            else:
                injection.run(self, program)
        finally:
            self._gm = None
        if summary is not None:
            # Data pass done; cycles/trace come precomputed.
            result = summary
        else:
            result = summarize(
                program, self.config, model=model,
                collect_trace=collect_trace,
            )
        if san is not None:
            result = replace(result, sanitizer=san.report)
        return result

    @staticmethod
    def _check_summary(program: Program, summary: RunResult) -> None:
        """Cheap guard against a summary built for a different program.

        A wrong summary used to be accepted silently -- cycle totals
        then quietly described some *other* program.  Instruction count
        always discriminates; the program name check is skipped for
        summaries that carry no provenance (``program_name == ""``).
        """
        canonical = _canonical_name(program.name)
        if summary.instructions != len(program):
            raise SimulationError(
                f"summary mismatch for program {program.name!r} "
                f"(canonical {canonical!r}): summary covers "
                f"{summary.instructions} instructions, program has "
                f"{len(program)}"
            )
        if summary.program_name and summary.program_name != canonical:
            raise SimulationError(
                f"summary mismatch: summary was built for "
                f"{summary.program_name!r} ({summary.instructions} "
                f"instructions), not {canonical!r} "
                f"({len(program)} instructions)"
            )
