"""Compiled-program cache.

Every ``(N, C1)`` slice of a pooling workload lowers to the *same* tile
program, and so does every output-row window with the same tile-local
geometry -- only the global-memory base offsets differ -- yet the seed
driver re-ran the Python-side lowering once per tile.  For a Table-1 /
InceptionV3-scale sweep that is thousands of redundant lowering passes.

This module memoizes lowered tile programs keyed by everything the
lowering depends on (implementation ``describe()``, tile-local
geometry, dtype, chip-config fingerprint, full-image extents), and
memoizes the per-program execution *summary* (cycle total plus the
statically-derived trace).  Because the simulator's cost model is
data-independent, one summary stands in for every slice and row window.
The lowering stage (:func:`repro.plan.planner.lower`) builds one
program per tile-local geometry at row 0 of slice 0 and hands the chip
that one program per ``(slice, tile)`` together with the tile's
global-memory deltas, which the core applies as views at run time
(:meth:`repro.sim.aicore.AICore.view`); the shared summaries let
repeated tiles skip per-instruction accounting -- the enabling layer
for the cycles-only analytic mode (``execute="cycles"``) that the
benchmark figures run on.

This mirrors how implicit-GEMM stacks amortize im2col setup across
invocations (the indirection buffer of the Indirect Convolution
Algorithm is built once and reused; only a base pointer moves per
call).  The same rule applies to the addressing state the programs
hold: the cache owns one table of the vector operands its programs
use, lent to the lowering on every miss
(:func:`repro.expr.lower.shared_operands`), so an operand equal in
value across programs is one object, and the table is dropped with
the programs whenever an entry leaves the cache.

Thread safety
-------------

:class:`ProgramCache` is safe to share between threads: every public
operation (``get_or_build``, ``summary``, ``compiled``, ``invalidate``,
``clear``, length/containment) takes one internal re-entrant lock, so
lookups, LRU reordering, eviction, stat counting and the
summary/kernel memo writes are each atomic.  In particular the
evicted-entry window is closed: ``compiled``/``summary`` re-adopt the
caller's program and install the memo under the same lock, so a
concurrent eviction can never drop a :class:`CompiledKernel` another
caller just adopted.  Build callbacks (lowering, summarization, JIT
compilation) run *inside* the lock -- concurrent callers of the same
key wait rather than duplicating work, and a kernel observed once is
never rebuilt.  Processes never share a cache; the serving layer
(:mod:`repro.serve`) gives each worker process its own instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

from ..config import ChipConfig
from ..expr.lower import shared_operands
from ..isa.operand import VectorOperand
from ..isa.program import Program
from .aicore import RunResult, summarize
from .scheduler import ExecutionModel, resolve_model

#: A fully-discriminating, hashable description of one tile lowering.
ProgramKey = Hashable


def plan_key(plan, geom: Hashable, config: ChipConfig) -> ProgramKey:
    """Cache key of one tile program of an
    :class:`~repro.plan.planner.ExecutionPlan`.

    The key is ``(kind, describe, spec, geom, dtype, image, config)``:
    the driver direction ("fwd"/"bwd"), the implementation's
    ``describe()`` string (op, variant, mask), the frozen pooling spec,
    the *tile-local* geometry ``geom`` (``TileGeom.params``: loaded
    rows and local padding), the dtype name, the full-tensor extents
    (``ih, iw, oh, ow``) and the chip config -- a frozen dataclass
    fingerprinting both the program shape (buffer capacities,
    ``max_repeat``) and the cost model the summary depends on.  Where
    the tile sits is deliberately *absent*: neither the slice index nor
    the global row window is in the key, since the program is built at
    row 0 of slice 0 and run at every ``(slice, tile)`` by deltas.  So is
    the timing model: a tile program is a function of geometry alone,
    so one entry holds one program (and one compiled kernel) for every
    model, and :class:`_Entry` memoizes summaries per model.
    Duck-typed (reads ``kind``/``describe``/``spec``/``dtype``/``image``
    attributes) so this module never imports :mod:`repro.plan`.
    """
    return (
        plan.kind, plan.describe, plan.spec, geom, plan.dtype,
        plan.image, config,
    )


@dataclass
class CacheStats:
    """Hit/miss counters, exposed for tests and benchmarks.

    ``summary_fallbacks`` counts :meth:`ProgramCache.summary` calls that
    found no live entry for their ``(key, program)`` pair -- the entry
    was evicted (or the key re-built to a different program) between
    ``get_or_build`` and ``summary``.  Each fallback re-inserts the
    caller's program so subsequent summaries memoize; a growing counter
    under a steady workload is the signature of a too-small ``maxsize``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    summary_fallbacks: int = 0
    #: :meth:`ProgramCache.compiled` calls served from a live entry's
    #: memoized :class:`~repro.sim.compile.CompiledKernel`.  Distinct
    #: from ``hits`` (program lookups) and from summary memoization:
    #: a JIT run that re-lowers nothing can still be a ``jit_miss`` the
    #: first time each program is compiled.
    jit_hits: int = 0
    #: :meth:`ProgramCache.compiled` calls that had to build the kernel.
    jit_misses: int = 0
    #: Entries dropped via :meth:`ProgramCache.invalidate` -- the
    #: recovery hook for ``cached-to-fresh`` degradation events (see
    #: :class:`repro.sim.faults.ResilienceReport`): after a resilient
    #: run reports a summary mismatch, invalidating the key forces the
    #: next driver pass to re-lower instead of re-serving the suspect
    #: entry.
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    __slots__ = ("program", "summaries", "kernel")

    def __init__(self, program: Program) -> None:
        self.program = program
        #: Memoized run summaries keyed by ``(model_name, collect_trace)``
        #: -- the program is shared by every timing model, but schedules
        #: differ across models, so summaries are memoized per model and
        #: never cross-contaminate.
        self.summaries: dict[tuple[str, bool], RunResult] = {}
        #: Memoized :class:`~repro.sim.compile.CompiledKernel` for this
        #: program (``None`` until the first ``execute="jit"`` run).
        #: One kernel serves every tile of the program -- the core
        #: applies each tile's deltas as views -- and every timing
        #: model, so unlike summaries the kernel is keyed only by the
        #: position- and model-independent :func:`plan_key`.
        self.kernel = None


class ProgramCache:
    """LRU cache of lowered tile programs and their run summaries.

    One module-level instance (:data:`PROGRAM_CACHE`) is shared by the
    operator drivers; tests can construct private instances or
    :meth:`clear` the shared one.  The cache is keyed by
    :func:`plan_key`, so distinct chip configurations (including cost
    models) never alias, while timing models share one program and one
    kernel per key and differ only in their memoized summaries.

    All public methods are atomic under one internal
    :class:`threading.RLock` (see the module docstring): the cache may
    be hammered from many threads without losing entries, kernels or
    stat counts.  Build callbacks execute while the lock is held, so a
    key is lowered/compiled at most once no matter how many threads
    race on it.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: OrderedDict[ProgramKey, _Entry] = OrderedDict()
        #: Every vector operand of the cached programs, keyed by value
        #: (see :func:`~repro.expr.lower.shared_operands`).  Replaced
        #: whenever an entry leaves, so it never keeps a dropped
        #: program's operands alive.
        self._operands: dict[VectorOperand, VectorOperand] = {}
        self._lock = threading.RLock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: ProgramKey) -> bool:
        with self._lock:
            return key in self._entries

    def programs(self) -> list[Program]:
        """The cached programs, least recently used first."""
        with self._lock:
            return [entry.program for entry in self._entries.values()]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._operands = {}
            self.stats = CacheStats()

    def invalidate(self, key: ProgramKey) -> bool:
        """Drop ``key``'s entry (program, memoized summaries **and**
        the memoized compiled kernel), and the operand table.

        Returns whether an entry was actually removed.  This is the
        recovery hook paired with the resilient dispatcher's
        ``cached-to-fresh`` degradation: the degraded run already
        recovered by re-accounting freshly, and invalidating the key
        ensures subsequent runs rebuild rather than re-serve the entry
        that mismatched.  Counted in :attr:`CacheStats.invalidations`.
        """
        with self._lock:
            if self._entries.pop(key, None) is None:
                return False
            self._operands = {}
            self.stats.invalidations += 1
            return True

    def get_or_build(
        self, key: ProgramKey, build: Callable[[], Program]
    ) -> Program:
        """The cached program for ``key``, lowering it on first miss.

        Atomic: two threads racing on a cold key serialize on the
        cache lock, the loser observing the winner's entry as a hit.
        ``build`` runs with the cache's operand table lent to the
        lowering, so its operands are shared with every cached program.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry.program
            self.stats.misses += 1
            try:
                with shared_operands(self._operands):
                    program = build()
            except BaseException:
                # The failed build's operands belong to no program.
                self._operands = {}
                raise
            self._insert(key, _Entry(program))
            return program

    def _insert(self, key: ProgramKey, entry: _Entry) -> None:
        """Install ``entry`` as most-recently-used, evicting LRU overflow.

        Callers hold the cache lock; taking it again is free (RLock).
        """
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._operands = {}
                self.stats.evictions += 1

    def summary(
        self,
        key: ProgramKey,
        program: Program,
        config: ChipConfig,
        collect_trace: bool = True,
        model: "str | ExecutionModel | None" = None,
    ) -> RunResult:
        """The memoized execution summary of ``program`` under ``model``.

        Computed statically (the cost model is data-independent) and
        shared by every tile of the program: ``cycles`` equals what numeric
        execution would report, and ``trace`` is the full
        per-instruction timed trace.  With ``collect_trace=False`` an
        empty-trace variant is returned (and separately memoized) so
        callers that asked for no trace do not receive one.  Summaries
        are memoized per ``(model, collect_trace)`` on the key's one
        entry, so every model shares the program (:func:`plan_key`
        carries no model) yet no two models share a summary.

        If the entry was evicted -- or the key now maps to a *different*
        build of the program -- between :meth:`get_or_build` and this
        call, the caller's program is re-inserted (counted in
        :attr:`CacheStats.summary_fallbacks`) so the summary still
        memoizes instead of silently recomputing once per slice.
        """
        m = resolve_model(model)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.program is not program:
                # Evicted or aliased under this key since get_or_build.
                # Re-adopt the caller's program: without this, a small
                # cache degraded into one fresh _summarize per summary()
                # call -- a silent per-slice recompute storm.
                self.stats.summary_fallbacks += 1
                entry = _Entry(program)
                self._insert(key, entry)
            memo = (m.name, collect_trace)
            cached = entry.summaries.get(memo)
            if cached is None:
                if m.name == "serial":
                    cached = _summarize(program, config, collect_trace)
                else:
                    cached = summarize(
                        program, config, model=m, collect_trace=collect_trace
                    )
                entry.summaries[memo] = cached
            return cached

    def compiled(self, key: ProgramKey, program: Program):
        """The memoized :class:`~repro.sim.compile.CompiledKernel` of
        ``program``, compiling on first use.

        Shared by every tile of the program, exactly like :meth:`summary`
        (and with the same eviction/alias re-adoption fallback).  Hits
        and misses are counted separately from summary traffic in
        :attr:`CacheStats.jit_hits` / :attr:`CacheStats.jit_misses`.
        A program the JIT cannot translate raises
        :class:`~repro.errors.CompileError` and caches no kernel.

        Atomic: the re-adoption, the compile and the memo write happen
        under the cache lock, so a concurrent eviction can never drop a
        kernel between this method handing it out and the caller using
        it, and a kernel is compiled at most once per live entry.
        """
        from .compile import compile_program

        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.program is not program:
                self.stats.summary_fallbacks += 1
                entry = _Entry(program)
                self._insert(key, entry)
            if entry.kernel is None:
                self.stats.jit_misses += 1
                entry.kernel = compile_program(program)
            else:
                self.stats.jit_hits += 1
            return entry.kernel


def _summarize(
    program: Program, config: ChipConfig, collect_trace: bool
) -> RunResult:
    """Serial-model summary (module-level so tests can intercept it)."""
    return summarize(
        program, config, model="serial", collect_trace=collect_trace
    )


#: The process-wide cache the operator drivers use by default.
PROGRAM_CACHE = ProgramCache()
