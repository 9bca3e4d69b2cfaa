"""The multi-core chip model.

"the outer loops are parallelized between the AI Cores available on the
target device" (Section IV-A): a tiled kernel produces one program per
(N, C1[, row-chunk]) tile, tiles are dealt round-robin to the chip's
cores, and the chip-level cycle count is the maximum per-core total --
cores run independently with no shared-resource contention modelled.

Fault tolerance: :meth:`Chip.run_tiles` / :meth:`Chip.run_tile_groups`
optionally take a :class:`~repro.sim.faults.FaultPlan` and a
:class:`~repro.sim.faults.RetryPolicy`.  With either supplied, the
dispatcher becomes resilient -- bounded retry with exponential cycle
backoff, reassignment of failed tiles to healthy cores, quarantine of
repeatedly-failing cores, rollback of a failed attempt's partial
global-memory writes, graceful degradation (cached summary -> fresh
accounting, pipelined -> serial timing) and a tile-coverage ledger
auditing that every output tile completes exactly once.  Everything
the layer did is recorded in the attached
:class:`~repro.sim.faults.ResilienceReport`.  Both share one dispatch
loop (:meth:`Chip.run_tile_groups`; ``run_tiles`` deals one-tile
groups), which picks per work item between the plain run and the
resilient one.  With neither supplied (the default), every item takes
the plain run: the resilience machinery is zero-cost when idle.

Scratch-pad reuse between tiles is **intentional**: the chip
deliberately never calls :meth:`~repro.sim.buffers.ScratchBuffer.clear`
between tiles -- real hardware does not zero a scratch-pad between
kernels, and a correct kernel initializes everything it reads, so
clearing would only add cost and hide bugs.  The consequence is that
a *buggy* kernel can silently read the previous tile's data (and,
because :class:`ScratchBuffer` storage grows zero-filled, a freshly
built chip can mask even that).  Storage grows only as far as it is
used: cycles mode allocates none, a JIT kernel reserves just the
extent its steps address, and a grown store keeps what earlier tiles
wrote.  Under the JIT, the chip keeps each scratch-pad as one float32
:class:`~repro.sim.buffers.ScratchStack` whose row ``i`` is core ``i``'s
store, and one kernel call runs a batch of tiles on consecutive cores
over a slice of those rows, one tile per core, so each core's store
still passes from one of its tiles to the next exactly as per-tile
runs pass it (see :class:`_Batch`).
Strict mode (``sanitize=True``) closes the hole: buffers are
poison-filled at each tile start and the shadow state flags any read of
freed or never-written elements (see :mod:`repro.sim.sanitizer`).

A tile travels as one :class:`WorkItem`: its program, plus the cached
summary, the compiled kernel and the global-memory ``deltas`` (tensor
name -> element offset) it runs with.  The cached lowering runs one
base program per tile-local geometry at every ``(N, C1)`` slice and row
window, and the core serves each tensor as a view from the delta on
(:meth:`~repro.sim.aicore.AICore.view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import numpy as np

from ..config import ChipConfig
from ..dtypes import FLOAT16, DType
from ..errors import CoreFailure, DeadlineExceeded, SimulationError
from ..isa.program import Program
from .aicore import AICore, RunResult, check_deltas, summarize
from .buffers import ScratchStack
from .compile import CompiledKernel, compile_program
from .faults import (
    CoverageLedger,
    DegradationEvent,
    FailureRecord,
    FaultInjector,
    FaultPlan,
    Injection,
    ResilienceReport,
    RetryPolicy,
    apply_silent_flips_to_gm,
    resolve_injector,
    written_gm_tensors,
)
from .memory import GlobalMemory
from .modes import check_modes
from .sanitizer import Sanitizer, SanitizerReport
from .scheduler import SERIAL, ExecutionModel, resolve_model
from .trace import pooled_lane_utilization


class WorkItem(NamedTuple):
    """One tile as the chip runs it: a program and what it runs with.

    The paper deals each ``(N, C1[, row-chunk])`` tile to an AI Core;
    this is that tile.  Like the indirection buffer of the Indirect
    Convolution Algorithm (arXiv 1907.02129), one shared program serves
    many tiles, each reaching its own data by base-pointer ``deltas``.
    """

    #: The tile program; a cached lowering shares one per tile-local
    #: geometry.
    program: Program
    #: Precomputed :class:`RunResult` of ``program`` (typically from
    #: the program cache); ``None`` accounts the tile afresh.
    summary: RunResult | None = None
    #: ``program``'s compiled kernel, only under ``execute="jit"``;
    #: ``None`` compiles each distinct program once per chip run.
    kernel: CompiledKernel | None = None
    #: Global-memory deltas (tensor name -> element offset) the tile
    #: runs at; ``None`` runs it where its operands point.
    deltas: Mapping[str, int] | None = None


@dataclass(frozen=True)
class ChipRunResult:
    """Outcome of running a tiled kernel on the whole chip."""

    #: Chip makespan: max over cores of that core's serial tile cycles.
    cycles: int
    #: Sum of cycles over all tiles (single-core-equivalent work).
    total_work_cycles: int
    #: Number of tiles executed.
    tiles: int
    #: Number of cores that received at least one tile.
    cores_used: int
    per_tile: tuple[RunResult, ...]
    #: Cycles (incl. launch overhead) accumulated on each core, indexed
    #: by core id -- the load-imbalance breakdown: ``cycles`` is its max,
    #: ``total_work_cycles`` its sum.  Idle cores report 0.
    per_core_cycles: tuple[int, ...] = ()
    #: What the resilience layer did (retries, reassignments,
    #: quarantines, degradations, extra cycles); ``None`` on the
    #: historical fast path (no fault plan / retry policy supplied).
    resilience: ResilienceReport | None = None
    #: Merged per-core memory-sanitizer report (``sanitize=True``);
    #: ``None`` on the zero-cost default path.
    sanitizer: SanitizerReport | None = None

    @property
    def load_imbalance(self) -> float:
        """Makespan over mean busy-core cycles (1.0 = perfectly balanced).

        The quantity bench output reports so a skewed tile deal is
        visible without digging through per-tile results.
        """
        busy = [c for c in self.per_core_cycles if c > 0]
        if not busy:
            return 1.0
        return self.cycles / (sum(busy) / len(busy))

    def detach(self) -> "ChipRunResult":
        """A slim copy safe to ship across a process boundary.

        Per-tile results are detached (their per-instruction trace
        payloads dropped -- see :meth:`repro.sim.aicore.RunResult.detach`);
        the chip-level aggregates, the per-core cycle breakdown and the
        resilience/sanitizer reports all survive, so latency/SLO
        accounting on the far side loses nothing it needs.  Returns
        ``self`` when every tile is already slim.
        """
        detached = tuple(r.detach() for r in self.per_tile)
        if all(d is r for d, r in zip(detached, self.per_tile)):
            return self
        return replace(self, per_tile=detached)

    @property
    def vector_lane_utilization(self) -> float | None:
        """Repeat-weighted utilization pooled over every tile.

        Shares :func:`repro.sim.trace.pooled_lane_utilization` with the
        per-program :meth:`repro.sim.trace.Trace.vector_lane_utilization`.
        ``None`` means the run issued no vector instructions; if *no*
        tile collected a trace (``collect_trace=False``), asking for
        utilization raises -- the statistic is not derivable, which is
        different from "there were no vector issues".
        """
        collected = [r.trace for r in self.per_tile if r.trace.collected]
        if self.per_tile and not collected:
            raise SimulationError(
                "no tile collected a trace (collect_trace=False); "
                "re-run with collect_trace=True to derive lane "
                "utilization"
            )
        return pooled_lane_utilization(
            rec for trace in collected for rec in trace.records
        )


class _ResilientDispatch:
    """One resilient chip run: the retry/reassign/quarantine machinery.

    Owns the mutable recovery state (per-core failure counts, the
    quarantine set, the coverage ledger and every report counter) for
    the duration of a single :meth:`Chip.run_tile_groups` call.
    """

    def __init__(
        self,
        chip: "Chip",
        injector: FaultInjector | None,
        policy: RetryPolicy,
        gm: GlobalMemory | None,
        collect_trace: bool,
        execute: str,
        model: "str | ExecutionModel | None",
    ) -> None:
        self.chip = chip
        self.injector = injector
        self.policy = policy
        self.gm = gm
        self.collect_trace = collect_trace
        self.execute = execute
        self.model = resolve_model(model)
        n = len(chip.cores)
        self.per_core_cycles = [0] * n
        self.launch = chip.config.cost.tile_launch_cycles
        self.failures_per_core = [0] * n
        self.quarantined: list[int] = []
        self.ledger = CoverageLedger()
        self.attempts = 0
        self.retries = 0
        self.reassignments = 0
        self.stall_cycles = 0
        self.backoff_cycles = 0
        self.failures: list[FailureRecord] = []
        self.degradations: list[DegradationEvent] = []

    # -- core selection -------------------------------------------------
    def place(self, core_id: int) -> int:
        """Honour quarantine at initial placement time."""
        if core_id in self.quarantined:
            new = self._next_core(core_id)
            if new != core_id:
                self.reassignments += 1
                return new
        return core_id

    def _next_core(self, avoid: int) -> int:
        """The next healthy core after ``avoid`` (cyclic); ``avoid``
        itself when it is the only healthy core; the least-failed core
        when everything is quarantined (degraded, but still making
        progress -- unrecoverability is reserved for retry exhaustion).
        """
        n = len(self.chip.cores)
        for d in range(1, n + 1):
            cand = (avoid + d) % n
            if cand not in self.quarantined:
                return cand
        return min(range(n), key=lambda c: (self.failures_per_core[c], c))

    # -- degradation ----------------------------------------------------
    def _preflight_summary(
        self, tile: int, prog: Program, summary: RunResult | None
    ) -> RunResult | None:
        """Cached->fresh degradation: a summary that visibly belongs to
        a different program is dropped (and recorded) instead of
        aborting the run; the tile pays fresh per-instruction
        accounting."""
        if summary is None:
            return None
        try:
            AICore._check_summary(prog, summary)
        except SimulationError as exc:
            self.degradations.append(
                DegradationEvent("cached-to-fresh", tile, str(exc))
            )
            return None
        return summary

    # -- one work item --------------------------------------------------
    def run_item(
        self, tile: int, core_id: int, item: WorkItem
    ) -> tuple[int, RunResult]:
        """Execute one work item to completion (or exhaust retries).

        Returns ``(core_id, result)`` -- the core that finally ran the
        tile, so grouped dispatch can keep the rest of a group on the
        reassigned core.
        """
        prog = item.program
        core_id = self.place(core_id)
        cur_summary = self._preflight_summary(tile, prog, item.summary)
        cur_model = self.model
        attempt = 0
        while True:
            self.attempts += 1
            inj = (
                self.injector.injection(tile, core_id, attempt)
                if self.injector is not None
                else None
            )
            snapshot = None
            try:
                if (
                    inj is not None
                    and inj.can_fail
                    and self.execute == "numeric"
                    and self.gm is not None
                ):
                    snapshot = self._snapshot(prog)
                res = self._attempt(
                    core_id, prog, cur_summary, cur_model, inj, item.deltas
                )
                cycles = res.cycles + (inj.stall if inj is not None else 0)
                if (
                    inj is not None
                    and inj.deadline is not None
                    and cycles > inj.deadline
                ):
                    raise DeadlineExceeded(
                        f"tile {tile} ({prog.name!r}) makespan {cycles} "
                        f"exceeds budget {inj.deadline} under model "
                        f"{cur_model.name!r} on core {core_id} "
                        f"(attempt {attempt})"
                    )
            except (CoreFailure, DeadlineExceeded) as exc:
                if snapshot is not None:
                    self._restore(snapshot)
                self._record_failure(tile, core_id, attempt, exc)
                attempt += 1
                if attempt >= self.policy.max_attempts:
                    raise SimulationError(
                        f"tile {tile} ({prog.name!r}) failed {attempt} "
                        f"attempts (last on core {core_id}); retry budget "
                        f"of {self.policy.max_attempts} exhausted: {exc}"
                    ) from exc
                self.retries += 1
                backoff = self.policy.backoff(attempt)
                new_core = self._next_core(core_id)
                if new_core != core_id:
                    self.reassignments += 1
                core_id = new_core
                self.per_core_cycles[core_id] += backoff
                self.backoff_cycles += backoff
                if (
                    cur_model.name != SERIAL.name
                    and attempt >= self.policy.degrade_model_after
                ):
                    self.degradations.append(
                        DegradationEvent(
                            "pipelined-to-serial",
                            tile,
                            f"fell back to serial timing after {attempt} "
                            f"failed attempts under {cur_model.name!r}; "
                            "cached summary dropped",
                        )
                    )
                    cur_model = SERIAL
                    cur_summary = None
                continue
            # Success: account stall + launch, close the ledger entry.
            if inj is not None and inj.stall:
                self.stall_cycles += inj.stall
            self.ledger.record(tile, attempt)
            self.per_core_cycles[core_id] += cycles + self.launch
            return core_id, res

    def _attempt(
        self,
        core_id: int,
        prog: Program,
        summary: RunResult | None,
        model: ExecutionModel,
        inj: Injection | None,
        deltas,
    ) -> RunResult:
        # Cycles mode has no data pass: crash/detected-corruption faults
        # fail the attempt up front (the tile never completes).
        if inj is not None and self.execute == "cycles":
            n = len(prog)
            if inj.crash_at is not None:
                raise CoreFailure(
                    f"core {core_id} crashed at instruction "
                    f"{min(inj.crash_at, n)}/{n} of {prog.name!r} "
                    f"(attempt {inj.attempt})"
                )
            for b in inj.bitflips:
                if b.detected:
                    raise CoreFailure(
                        f"core {core_id}: detected bit flip in "
                        f"{b.buffer!r} at instruction "
                        f"{min(b.at_instruction, n)}/{n} of {prog.name!r} "
                        f"(attempt {inj.attempt})"
                    )
        return self.chip.cores[core_id].run(
            prog, self.gm, collect_trace=self.collect_trace,
            execute=self.execute, summary=summary, model=model,
            injection=inj, deltas=deltas,
        )

    # -- rollback -------------------------------------------------------
    def _snapshot(self, prog: Program) -> dict[str, np.ndarray]:
        """Copies of every global-memory tensor ``prog`` writes.

        Taken only for attempts a fault can fail, so a failed attempt's
        partial stores (including accumulate-DMA partial sums, which a
        blind re-run would double-count) can be rolled back and the
        retry starts from clean state.
        """
        assert self.gm is not None
        return {
            nm: self.gm.tensors[nm].copy()
            for nm in written_gm_tensors(prog, self.gm)
        }

    def _restore(self, snapshot: dict[str, np.ndarray]) -> None:
        assert self.gm is not None
        for nm, arr in snapshot.items():
            np.copyto(self.gm.tensors[nm], arr)

    # -- bookkeeping ----------------------------------------------------
    def _record_failure(
        self, tile: int, core_id: int, attempt: int, exc: Exception
    ) -> None:
        self.failures.append(
            FailureRecord(
                tile=tile,
                core=core_id,
                attempt=attempt,
                error=type(exc).__name__,
                message=str(exc),
            )
        )
        self.failures_per_core[core_id] += 1
        if (
            self.failures_per_core[core_id] >= self.policy.quarantine_after
            and core_id not in self.quarantined
        ):
            self.quarantined.append(core_id)

    def report(self) -> ResilienceReport:
        return ResilienceReport(
            plan_faults=(
                len(self.injector.plan.faults)
                if self.injector is not None
                else 0
            ),
            attempts=self.attempts,
            retries=self.retries,
            reassignments=self.reassignments,
            stall_cycles=self.stall_cycles,
            backoff_cycles=self.backoff_cycles,
            quarantined_cores=tuple(self.quarantined),
            failures=tuple(self.failures),
            degradations=tuple(self.degradations),
        )


class _Batch:
    """Consecutive JIT work items that one kernel call runs together.

    A batch shares one program and its kernel and runs on consecutive
    cores, one tile each: the kernel computes on rows ``lo:hi`` of the
    chip's scratch-pad stacks (:meth:`Chip._stores`), and a core's next
    tile must see what its previous one left there.  A tile joins only
    where the kernel's global-memory hazards allow it
    (:meth:`~repro.sim.compile.CompiledKernel.admits`); any other tile
    first runs the pending batch, and a tile carrying silent bit flips
    ends its batch, so the flips land right after it.  So after every
    batch each core's store and global memory hold what per-tile runs
    in dispatch order would have left.
    """

    def __init__(self, chip: "Chip", gm: GlobalMemory | None, model,
                 collect_trace, rows: int):
        self.chip = chip
        self.gm = gm
        self.model = model
        self.collect_trace = collect_trace
        #: Cores the chip run deals tiles to: the stacks' row count.
        self.rows = rows
        #: Kernels compiled here for programs given none, by ``id``.
        self.own: dict[int, object] = {}
        self.kernel = self.program = None
        self.lo = self.hi = 0
        self.deltas: list = []

    def add(
        self, core_id: int, item: WorkItem, injection: Injection | None,
    ) -> RunResult:
        """Queue one tile and return its result (cycles and trace
        never depend on the data pass)."""
        program, summary, kernel, deltas = item
        if summary is not None:
            AICore._check_summary(program, summary)
        check_deltas(deltas)
        if kernel is None:
            kernel = self.own.get(id(program))
            if kernel is None:
                kernel = self.own[id(program)] = compile_program(program)
        if self.deltas and not (
            kernel is self.kernel
            and program is self.program
            and core_id == self.hi
            and kernel.admits(self.deltas, deltas)
        ):
            self.flush()
        if not self.deltas:
            self.kernel, self.program, self.lo = kernel, program, core_id
        self.hi = core_id + 1
        self.deltas.append(deltas)
        if injection is not None:
            self.flush()
            apply_silent_flips_to_gm(self.gm, program, injection, deltas)
        return summary or summarize(
            program, self.chip.config, model=self.model,
            collect_trace=self.collect_trace,
        )

    def flush(self) -> None:
        """Run the pending tiles, if any."""
        if self.deltas:
            stores = self.chip._stores(
                self.kernel.extents, self.rows, self.lo, self.hi
            )
            self.kernel(stores, self.program, self.gm, self.deltas)
            self.deltas = []


@dataclass
class Chip:
    """``config.num_cores`` AI Cores sharing one global memory."""

    config: ChipConfig
    dtype: DType = FLOAT16
    cores: list[AICore] = field(init=False)
    #: Scratch-pad name -> the :class:`~repro.sim.buffers.ScratchStack`
    #: JIT kernels compute on, built at the first batch addressing it;
    #: cycles and interpreted runs build none.
    stacks: dict[str, ScratchStack] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.config.num_cores <= 0:
            raise SimulationError("chip needs at least one core")
        self.cores = [
            AICore(self.config, self.dtype, core_id=i)
            for i in range(self.config.num_cores)
        ]
        self.stacks = {}

    def _stores(
        self, extents: Mapping[str, int | None], rows: int, lo: int, hi: int
    ) -> dict[str, np.ndarray]:
        """Rows ``lo:hi`` of the stack of each scratch-pad in
        ``extents`` (name -> elements; ``None`` for global memory), each
        stack grown to ``rows`` cores and the extent."""
        out = {}
        for name, n in extents.items():
            if n is None:
                continue
            stack = self.stacks.get(name)
            if stack is None:
                stack = self.stacks[name] = ScratchStack(
                    [core.buffers[name] for core in self.cores]
                )
            out[name] = stack.reserve(rows, n)[lo:hi]
        return out

    def _dispatch(self, index: int) -> tuple[int, AICore]:
        """Round-robin deal: ``(core_id, core)`` for group ``index``.

        The single place mapping work items to cores: the one dispatch
        loop in :meth:`run_tile_groups` deals every group through it
        (:meth:`run_tiles`' one-tile groups included), so the dealing
        policy and the ``per_core_cycles`` accounting can never drift
        apart.  Bounds are validated here so a bad index surfaces as a
        clear :class:`~repro.errors.SimulationError` instead of a raw
        ``IndexError`` deep in the accounting.
        """
        if index < 0:
            raise SimulationError(
                f"work item index {index} is negative; tiles are dealt "
                "by non-negative flat index"
            )
        if not self.cores:
            raise SimulationError("chip has no cores to dispatch onto")
        core_id = index % len(self.cores)
        return core_id, self.cores[core_id]

    def run_tiles(
        self,
        programs: list[Program],
        gm: GlobalMemory | None,
        collect_trace: bool = True,
        execute: str = "numeric",
        model: "str | ExecutionModel | None" = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        sanitize: bool = False,
    ) -> ChipRunResult:
        """Execute tile programs round-robin over the cores.

        Tiles assigned to one core run serially on it; distinct cores
        run (logically) in parallel, so the chip's cycle count is the
        slowest core's total.  Each tile pays the block-dispatch
        overhead ``tile_launch_cycles``.  This is
        :meth:`run_tile_groups` with every program a one-tile group of
        a bare :class:`WorkItem`: no summary, kernel or deltas.

        ``execute="numeric"`` (the default) interprets each program
        (:meth:`AICore.run`), ``execute="cycles"`` skips data execution
        (``gm`` may be ``None``), and ``model`` selects the timing
        model.

        ``faults`` / ``retry`` switch on the resilient dispatcher (see
        the module docstring); both ``None`` (the default) runs every
        tile plainly and leaves :attr:`ChipRunResult.resilience` as
        ``None``.

        ``sanitize=True`` runs every tile in strict memory-checking
        mode (:mod:`repro.sim.sanitizer`) with one persistent
        :class:`~repro.sim.sanitizer.Sanitizer` per core, so stale
        reads of a previous tile's scratch data are caught; the merged
        report lands in :attr:`ChipRunResult.sanitizer`.  Incompatible
        with ``faults``/``retry`` and ``execute="cycles"``/``"jit"``.

        ``execute="jit"`` runs the tiles through compiled kernels
        (:mod:`repro.sim.compile`), one call per batch of consecutive
        tiles sharing a program and kernel (at most one tile per core;
        see :class:`_Batch`): the chip is the only way into the JIT.
        Incompatible with ``faults``/``retry`` (silent-only plans
        excepted) and ``sanitize``.
        """
        if not programs:
            raise SimulationError("run_tiles called with no tile programs")
        return self.run_tile_groups(
            [[WorkItem(prog)] for prog in programs],
            gm,
            collect_trace=collect_trace,
            execute=execute,
            model=model,
            faults=faults,
            retry=retry,
            sanitize=sanitize,
        )

    def run_tile_groups(
        self,
        groups: list[list[WorkItem]],
        gm: GlobalMemory | None,
        collect_trace: bool = True,
        execute: str = "numeric",
        model: "str | ExecutionModel | None" = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        sanitize: bool = False,
    ) -> ChipRunResult:
        """Execute groups of work items; each group stays on one core.

        The one dispatch loop: groups are dealt round-robin to cores
        (:meth:`_dispatch`) and a group's tiles run serially on its
        core.  Multi-tile groups serve tiles that must be serialised --
        e.g. the row-chunked backward tiles of one (N, C1) slice, whose
        accumulate-DMA stores overlap and may not race across cores;
        :meth:`run_tiles` passes one-tile groups.  Each
        :class:`WorkItem` brings its own summary (cycle accounting and
        trace are skipped; a summary of another program raises), kernel
        and deltas; an item carrying a kernel outside ``execute="jit"``
        is refused.  Every other argument behaves as in
        :meth:`run_tiles`.  Under the resilient dispatcher (``faults`` /
        ``retry``), a reassigned tile drags the rest of its group to the
        new core, preserving the group's one-core serialisation
        invariant.
        """
        if not groups or not all(groups):
            raise SimulationError("run_tile_groups needs non-empty groups")
        check_modes(execute, sanitize=sanitize, faults=faults, retry=retry)
        if execute != "jit" and any(
            item.kernel is not None for group in groups for item in group
        ):
            raise SimulationError(
                "a work item carries a compiled kernel, which only "
                "execute='jit' runs"
            )
        sanitizers = (
            [Sanitizer(self.config) for _ in self.cores] if sanitize else None
        )
        injector = resolve_injector(faults)
        silent_jit = injector is not None and execute == "jit"
        resilient = None
        if retry is not None or (injector is not None and not silent_jit):
            resilient = _ResilientDispatch(
                self, injector, retry or RetryPolicy(), gm, collect_trace,
                execute, model,
            )
        per_core_cycles = (
            resilient.per_core_cycles if resilient is not None
            else [0] * len(self.cores)
        )
        launch = self.config.cost.tile_launch_cycles
        batch = (
            _Batch(self, gm, model, collect_trace,
                   min(len(groups), len(self.cores)))
            if execute == "jit" else None
        )
        results: list[RunResult] = []
        for gidx, group in enumerate(groups):
            core_id, core = self._dispatch(gidx)
            for item in group:
                tile = len(results)
                if resilient is not None:
                    core_id, res = resilient.run_item(tile, core_id, item)
                else:
                    if batch is not None:
                        res = batch.add(
                            core_id, item,
                            injector.injection(tile, core_id, 0)
                            if silent_jit else None,
                        )
                    else:
                        res = core.run(
                            item.program, gm, collect_trace=collect_trace,
                            execute=execute, summary=item.summary,
                            model=model,
                            sanitize=(
                                sanitizers[core_id] if sanitizers else None
                            ),
                            deltas=item.deltas,
                        )
                    per_core_cycles[core_id] += res.cycles + launch
                results.append(res)
        if batch is not None:
            batch.flush()

        if resilient is not None:
            resilient.ledger.audit(len(results))
            resilience = resilient.report()
        elif silent_jit:
            resilience = ResilienceReport(
                plan_faults=len(injector.plan), attempts=len(results)
            )
        else:
            resilience = None
        sanitizer = None
        if sanitizers is not None:
            sanitizer = SanitizerReport()
            for s in sanitizers:
                sanitizer.merge(s.report)
        return ChipRunResult(
            cycles=max(per_core_cycles),
            total_work_cycles=sum(per_core_cycles),
            tiles=len(results),
            cores_used=sum(1 for c in per_core_cycles if c > 0),
            per_tile=tuple(results),
            per_core_cycles=tuple(per_core_cycles),
            resilience=resilience,
            sanitizer=sanitizer,
        )
