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
:class:`~repro.sim.faults.ResilienceReport`.  With neither supplied
(the default), the historical dispatch loop runs unchanged: the
resilience machinery is zero-cost when idle.

Scratch-pad reuse between tiles is **intentional**: ``_run_one`` resets
each core's allocators before a tile but deliberately never calls
:meth:`~repro.sim.buffers.ScratchBuffer.clear` -- real hardware does
not zero a scratch-pad between kernels, and a correct kernel
initializes everything it reads, so clearing would only add cost and
hide bugs.  The consequence is that a *buggy* kernel can silently read
the previous tile's data (and, because :class:`ScratchBuffer` happens
to zero-init at construction, a freshly built chip can mask even that).
Strict mode (``sanitize=True``) closes the hole: buffers are
poison-filled at each tile start and the shadow state flags any read of
freed or never-written elements (see :mod:`repro.sim.sanitizer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..config import ChipConfig
from ..dtypes import FLOAT16, DType
from ..errors import CoreFailure, DeadlineExceeded, SimulationError
from ..isa.program import Program
from .aicore import AICore, RunResult
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
)
from .memory import GlobalMemory
from .modes import check_modes
from .sanitizer import Sanitizer, SanitizerReport
from .scheduler import SERIAL, ExecutionModel, resolve_model
from .trace import pooled_lane_utilization


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
    the duration of a single :meth:`Chip.run_tiles` /
    :meth:`Chip.run_tile_groups` call.
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
        self._scratch_names = frozenset(chip.config.buffer_specs())

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
        self,
        tile: int,
        core_id: int,
        prog: Program,
        summary: RunResult | None,
    ) -> tuple[int, RunResult]:
        """Execute one work item to completion (or exhaust retries).

        Returns ``(core_id, result)`` -- the core that finally ran the
        tile, so grouped dispatch can keep the rest of a group on the
        reassigned core.
        """
        core_id = self.place(core_id)
        cur_summary = self._preflight_summary(tile, prog, summary)
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
                res = self._attempt(core_id, prog, cur_summary, cur_model, inj)
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
    ) -> RunResult:
        core = self.chip.cores[core_id]
        if self.execute == "numeric":
            core.reset_allocations()
            return core.run(
                prog,
                self.gm,
                collect_trace=self.collect_trace,
                execute="numeric",
                summary=summary,
                model=model,
                injection=inj,
            )
        # Cycles mode has no data pass: crash/detected-corruption faults
        # fail the attempt up front (the tile never completes).
        if inj is not None:
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
        return core.run(
            prog,
            None,
            collect_trace=self.collect_trace,
            execute="cycles",
            summary=summary,
            model=model,
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
        names: set[str] = set()
        for instr in prog.instructions:
            for r in instr.writes():
                if r.buffer not in self._scratch_names:
                    names.add(r.buffer)
        return {
            nm: self.gm.tensors[nm].copy()
            for nm in sorted(names)
            if nm in self.gm.tensors
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


@dataclass
class Chip:
    """``config.num_cores`` AI Cores sharing one global memory."""

    config: ChipConfig
    dtype: DType = FLOAT16
    cores: list[AICore] = field(init=False)

    def __post_init__(self) -> None:
        if self.config.num_cores <= 0:
            raise SimulationError("chip needs at least one core")
        self.cores = [
            AICore(self.config, self.dtype, core_id=i)
            for i in range(self.config.num_cores)
        ]

    def _dispatch(self, index: int) -> tuple[int, AICore]:
        """Round-robin deal: ``(core_id, core)`` for work item ``index``.

        The single place mapping work items to cores -- both
        :meth:`run_tiles` (per tile) and :meth:`run_tile_groups` (per
        group) route through it, so the dealing policy and the
        ``per_core_cycles`` accounting can never drift apart.  Bounds
        are validated here so a bad index surfaces as a clear
        :class:`~repro.errors.SimulationError` instead of a raw
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

    def _run_one(
        self,
        core: AICore,
        prog: Program,
        gm: GlobalMemory | None,
        collect_trace: bool,
        execute: str,
        summary: RunResult | None,
        model,
        sanitizer: "Sanitizer | None" = None,
        kernel=None,
    ) -> RunResult:
        # Note: allocators are reset per tile but the scratch-pad
        # *contents* are deliberately not cleared -- see the module
        # docstring.  Strict mode poisons them instead.
        if execute in ("numeric", "jit"):
            core.reset_allocations()
        return core.run(
            prog,
            gm,
            collect_trace=collect_trace,
            execute=execute,
            summary=summary,
            model=model,
            sanitize=sanitizer,
            compiled=kernel,
        )

    def _result(
        self,
        per_core_cycles: list[int],
        tiles: int,
        results: list[RunResult],
        resilience: ResilienceReport | None = None,
        sanitizers: "list[Sanitizer] | None" = None,
    ) -> ChipRunResult:
        busy = [c for c in per_core_cycles if c > 0]
        report = None
        if sanitizers is not None:
            report = SanitizerReport()
            for s in sanitizers:
                report.merge(s.report)
        return ChipRunResult(
            cycles=max(per_core_cycles),
            total_work_cycles=sum(per_core_cycles),
            tiles=tiles,
            cores_used=len(busy),
            per_tile=tuple(results),
            per_core_cycles=tuple(per_core_cycles),
            resilience=resilience,
            sanitizer=report,
        )

    def run_tiles(
        self,
        programs: list[Program],
        gm: GlobalMemory | None,
        collect_trace: bool = True,
        execute: str = "numeric",
        summaries: list[RunResult | None] | None = None,
        model: "str | ExecutionModel | None" = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        sanitize: bool = False,
        compiled: list | None = None,
    ) -> ChipRunResult:
        """Execute tile programs round-robin over the cores.

        Tiles assigned to one core run serially on it; distinct cores
        run (logically) in parallel, so the chip's cycle count is the
        slowest core's total.  Each tile pays the block-dispatch
        overhead ``tile_launch_cycles``.

        ``execute``, ``summaries`` and ``model`` forward to
        :meth:`AICore.run`: ``execute="cycles"`` skips data execution
        (``gm`` may be ``None``), ``summaries`` -- one optional
        precomputed :class:`RunResult` per program, typically from the
        program cache -- lets repeated tiles skip per-instruction
        accounting, and ``model`` selects the timing model.

        ``faults`` / ``retry`` switch on the resilient dispatcher (see
        the module docstring); both ``None`` (the default) runs the
        historical loop unchanged and leaves
        :attr:`ChipRunResult.resilience` as ``None``.

        ``sanitize=True`` runs every tile in strict memory-checking
        mode (:mod:`repro.sim.sanitizer`) with one persistent
        :class:`~repro.sim.sanitizer.Sanitizer` per core, so stale
        reads of a previous tile's scratch data are caught; the merged
        report lands in :attr:`ChipRunResult.sanitizer`.  Incompatible
        with ``faults``/``retry`` and ``execute="cycles"``/``"jit"``.

        ``execute="jit"`` runs each tile through its compiled batch
        kernel (:mod:`repro.sim.compile`); ``compiled`` optionally
        supplies one kernel per program (typically shared across
        relocated clones via the program cache), mirroring
        ``summaries``.  Incompatible with ``faults``/``retry`` and
        ``sanitize``.
        """
        if not programs:
            raise SimulationError("run_tiles called with no tile programs")
        if summaries is not None and len(summaries) != len(programs):
            raise SimulationError(
                f"run_tiles got {len(summaries)} summaries for "
                f"{len(programs)} tile programs; summaries must "
                "correspond 1:1 with tiles"
            )
        if compiled is not None and len(compiled) != len(programs):
            raise SimulationError(
                f"run_tiles got {len(compiled)} compiled kernels for "
                f"{len(programs)} tile programs; kernels must "
                "correspond 1:1 with tiles"
            )
        check_modes(
            execute, sanitize=sanitize, faults=faults, retry=retry,
            compiled=compiled,
        )
        sanitizers = (
            [Sanitizer(self.config) for _ in self.cores] if sanitize else None
        )
        injector = resolve_injector(faults)
        launch = self.config.cost.tile_launch_cycles
        silent_jit = injector is not None and execute == "jit"
        scratch = (
            frozenset(self.config.buffer_specs()) if silent_jit else None
        )
        if retry is None and (injector is None or silent_jit):
            per_core_cycles = [0] * len(self.cores)
            results: list[RunResult] = []
            for t, prog in enumerate(programs):
                core_id, core = self._dispatch(t)
                res = self._run_one(
                    core, prog, gm, collect_trace, execute,
                    summaries[t] if summaries is not None else None, model,
                    sanitizers[core_id] if sanitizers is not None else None,
                    compiled[t] if compiled is not None else None,
                )
                results.append(res)
                per_core_cycles[core_id] += res.cycles + launch
                if silent_jit:
                    inj = injector.injection(t, core_id, 0)
                    if inj is not None:
                        apply_silent_flips_to_gm(gm, prog, inj, scratch)
            return self._result(
                per_core_cycles, len(programs), results,
                resilience=ResilienceReport(
                    plan_faults=len(injector.plan),
                    attempts=len(programs),
                ) if silent_jit else None,
                sanitizers=sanitizers,
            )

        dispatch = _ResilientDispatch(
            self, injector, retry or RetryPolicy(), gm, collect_trace,
            execute, model,
        )
        results = []
        for t, prog in enumerate(programs):
            core_id, _ = self._dispatch(t)
            _, res = dispatch.run_item(
                t, core_id, prog,
                summaries[t] if summaries is not None else None,
            )
            results.append(res)
        dispatch.ledger.audit(len(programs))
        return self._result(
            dispatch.per_core_cycles, len(programs), results,
            dispatch.report(),
        )

    def run_tile_groups(
        self,
        groups: list[list[Program]],
        gm: GlobalMemory | None,
        collect_trace: bool = True,
        execute: str = "numeric",
        summaries: list[list[RunResult | None]] | None = None,
        model: "str | ExecutionModel | None" = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        sanitize: bool = False,
        compiled: list | None = None,
    ) -> ChipRunResult:
        """Execute groups of tiles; each group stays on one core.

        Used when tiles within a group must be serialised -- e.g. the
        row-chunked backward tiles of one (N, C1) slice, whose
        accumulate-DMA stores overlap and may not race across cores.
        Groups are dealt round-robin to cores.  ``execute``,
        ``summaries`` (nested to mirror ``groups``) and ``model`` behave
        as in :meth:`run_tiles`.  Under the resilient dispatcher
        (``faults`` / ``retry``), a reassigned tile drags the rest of
        its group to the new core, preserving the group's one-core
        serialisation invariant.  ``sanitize`` and ``compiled`` (nested
        to mirror ``groups``) behave as in :meth:`run_tiles`.
        """
        if not groups or any(not g for g in groups):
            raise SimulationError("run_tile_groups needs non-empty groups")
        if summaries is not None and (
            len(summaries) != len(groups)
            or any(len(s) != len(g) for s, g in zip(summaries, groups))
        ):
            raise SimulationError(
                "summaries do not mirror groups: need one (possibly None) "
                "summary per tile program, nested exactly like the groups"
            )
        if compiled is not None and (
            len(compiled) != len(groups)
            or any(len(c) != len(g) for c, g in zip(compiled, groups))
        ):
            raise SimulationError(
                "compiled kernels do not mirror groups: need one "
                "(possibly None) kernel per tile program, nested exactly "
                "like the groups"
            )
        check_modes(
            execute, sanitize=sanitize, faults=faults, retry=retry,
            compiled=compiled,
        )
        sanitizers = (
            [Sanitizer(self.config) for _ in self.cores] if sanitize else None
        )
        injector = resolve_injector(faults)
        launch = self.config.cost.tile_launch_cycles
        silent_jit = injector is not None and execute == "jit"
        scratch = (
            frozenset(self.config.buffer_specs()) if silent_jit else None
        )
        if retry is None and (injector is None or silent_jit):
            per_core_cycles = [0] * len(self.cores)
            results: list[RunResult] = []
            tiles = 0
            for gidx, group in enumerate(groups):
                core_id, core = self._dispatch(gidx)
                for pidx, prog in enumerate(group):
                    res = self._run_one(
                        core, prog, gm, collect_trace, execute,
                        summaries[gidx][pidx] if summaries is not None
                        else None,
                        model,
                        sanitizers[core_id] if sanitizers is not None
                        else None,
                        compiled[gidx][pidx] if compiled is not None
                        else None,
                    )
                    results.append(res)
                    per_core_cycles[core_id] += res.cycles + launch
                    if silent_jit:
                        inj = injector.injection(tiles, core_id, 0)
                        if inj is not None:
                            apply_silent_flips_to_gm(gm, prog, inj, scratch)
                    tiles += 1
            return self._result(
                per_core_cycles, tiles, results,
                resilience=ResilienceReport(
                    plan_faults=len(injector.plan), attempts=tiles
                ) if silent_jit else None,
                sanitizers=sanitizers,
            )

        dispatch = _ResilientDispatch(
            self, injector, retry or RetryPolicy(), gm, collect_trace,
            execute, model,
        )
        results = []
        tiles = 0
        for gidx, group in enumerate(groups):
            core_id, _ = self._dispatch(gidx)
            for pidx, prog in enumerate(group):
                core_id, res = dispatch.run_item(
                    tiles, core_id, prog,
                    summaries[gidx][pidx] if summaries is not None else None,
                )
                results.append(res)
                tiles += 1
        dispatch.ledger.audit(tiles)
        return self._result(
            dispatch.per_core_cycles, tiles, results, dispatch.report()
        )
