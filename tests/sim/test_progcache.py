"""Program cache, delta dispatch, and cycles-only execution mode.

Covers the layers of the compiled-program cache:

* the :class:`repro.sim.progcache.ProgramCache` itself,
* running one cached base program at any ``(slice, tile)`` through
  its global-memory deltas, in the interpreter and the JIT,
* the operator drivers' cached fast path, which must be
  **bit-identical** to the uncached per-tile lowering -- outputs, masks,
  gradients *and* cycle counts -- for every implementation, including
  padded and row-chunked geometries.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE, ChipConfig
from repro.dtypes import FLOAT16
from repro.errors import CompileError, IsaError
from repro.isa.mask import Mask
from repro.isa.operand import MemRef, VectorOperand
from repro.isa.program import Program
from repro.isa.scu import DataMove
from repro.isa.vector import VMAX, VectorBinary
from repro.ops import PoolSpec
from repro.ops.base import run_backward, run_forward
from repro.ops.reference import maxpool_argmax_ref
from repro.ops.registry import backward_impl, forward_impl
from repro.expr.lower import _OPERANDS
from repro.plan import ExecutionPlan, lower, plan_cycles, plan_default
from repro.sim import (
    PROGRAM_CACHE,
    AICore,
    Chip,
    GlobalMemory,
    ProgramCache,
    WorkItem,
    compile_program,
    plan_key,
)
from repro.workloads import make_gradient, make_input

DT = FLOAT16
SMALL = ChipConfig(num_cores=4)

_SPEC = importlib.util.spec_from_file_location(
    "program_memory",
    Path(__file__).resolve().parents[2] / "benchmarks" / "program_memory.py",
)
program_memory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(program_memory)


# ---------------------------------------------------------------------------
# Delta dispatch: one base program run at a tile's global-memory deltas.
# ---------------------------------------------------------------------------

def test_instruction_buffers():
    mv = DataMove(MemRef("x", 0, 32, DT), MemRef("UB", 16, 32, DT))
    assert mv.buffers() == frozenset({"x", "UB"})


def _tile(x_off: int = 0, out_off: int = 0, accumulate=False) -> Program:
    """DMA a 64-element window of ``x`` in, max it pairwise, DMA (or
    accumulate) 32 elements out; the offsets place the window."""
    p = Program("pool-t0")
    p.emit(DataMove(MemRef("x", x_off, 64, DT), MemRef("UB", 0, 64, DT)))
    p.emit(
        VMAX(
            VectorOperand(MemRef("UB", 64, 32, DT), rep_stride=0),
            VectorOperand(MemRef("UB", 0, 32, DT), rep_stride=0),
            VectorOperand(MemRef("UB", 32, 32, DT), rep_stride=0),
            Mask.first(32),
        )
    )
    p.emit(
        DataMove(
            MemRef("UB", 64, 32, DT), MemRef("out", out_off, 32, DT),
            accumulate=accumulate,
        )
    )
    return p


def _gm(seed: int = 0) -> GlobalMemory:
    gm = GlobalMemory()
    gm.add(
        "x",
        np.random.default_rng(seed).standard_normal(256).astype(np.float16),
    )
    gm.zeros("out", 128, DT)
    return gm


def _run(items, gm, execute="numeric", **kwargs):
    """Run work items as one-tile groups on a one-core chip."""
    return Chip(ASCEND910_SINGLE_CORE).run_tile_groups(
        [[item] for item in items], gm, execute=execute, **kwargs
    )


class TestDeltaDispatch:
    """The interpreter and the JIT run one base program at a delta
    bit-identically to a fresh build at the true position, and a delta
    that pushes an access past a tensor's end raises
    :class:`~repro.errors.IsaError` in both."""

    @pytest.mark.parametrize("execute", ["numeric", "jit"])
    @pytest.mark.parametrize("x_off, out_off", [(0, 0), (64, 32), (192, 96)])
    def test_base_at_delta_equals_fresh_build(self, execute, x_off, out_off):
        base, fresh = _tile(), _tile(x_off, out_off)
        at_delta, built = _gm(), _gm()
        kernel = compile_program(base) if execute == "jit" else None
        _run(
            [WorkItem(base, kernel=kernel,
                      deltas={"x": x_off, "out": out_off})],
            at_delta, execute,
        )
        _run([WorkItem(fresh)], built, execute)
        for name in ("x", "out"):
            assert (
                at_delta.view(name).tobytes() == built.view(name).tobytes()
            )
        assert built.view("out")[out_off:out_off + 32].any()

    def test_interpreter_and_jit_agree_at_every_delta(self):
        base = _tile()
        kernel = compile_program(base)
        outs = []
        for execute, compiled in (("numeric", None), ("jit", kernel)):
            gm = _gm(seed=3)
            _run(
                [
                    WorkItem(base, kernel=compiled,
                             deltas={"x": 64 * s, "out": 32 * s})
                    for s in range(4)
                ],
                gm, execute,
            )
            outs.append(gm.view("out").tobytes())
        assert outs[0] == outs[1]

    def test_resilient_retry_rolls_back_at_deltas(self):
        """A tile that crashes after accumulating at its delta is rolled
        back and retried: the result equals a fault-free run."""
        from repro.sim import Crash, FaultPlan, RetryPolicy

        prog = _tile(accumulate=True)
        groups = [
            [WorkItem(prog, deltas={"x": 64 * s, "out": 32 * s})]
            for s in range(4)
        ]
        clean, faulty = _gm(seed=4), _gm(seed=4)
        Chip(SMALL).run_tile_groups(groups, clean)
        res = Chip(SMALL).run_tile_groups(
            groups, faulty, retry=RetryPolicy(),
            faults=FaultPlan((Crash(tile=2, at_instruction=3),)),
        )
        assert res.resilience.retries == 1
        assert faulty.view("out").tobytes() == clean.view("out").tobytes()

    @pytest.mark.parametrize("execute", ["numeric", "jit"])
    def test_delta_past_tensor_end_raises(self, execute):
        gm = _gm()
        with pytest.raises(IsaError, match="escape"):
            _run([WorkItem(_tile(), deltas={"out": 112})], gm, execute)
        assert not gm.view("out").any()  # the store never ran

    def test_jit_escape_names_absolute_indices(self):
        """A fused two-row DMA checks one span against the view from
        the delta on; the error names the tensor's own indices."""
        rows = Program("rows-t0")
        for r in range(2):
            rows.emit(DataMove(
                MemRef("x", 32 * r, 32, DT), MemRef("UB", 32 * r, 32, DT),
            ))
        kernel = compile_program(rows)
        assert kernel.stats.steps == 1
        with pytest.raises(
            IsaError, match=r"\[224, 287\] escape buffer 'x' of size 256"
        ):
            Chip(ASCEND910_SINGLE_CORE).run_tile_groups(
                [[WorkItem(rows, kernel=kernel, deltas={"x": 224})]],
                _gm(), execute="jit",
            )

    def test_negative_delta_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="negative"):
            AICore(ASCEND910).run(_tile(), _gm(), deltas={"x": -64})


# ---------------------------------------------------------------------------
# The cache proper.
# ---------------------------------------------------------------------------

_KEY_PLAN = ExecutionPlan(
    kind="fwd", impl="im2col", op="max", with_mask=False, dtype=DT.name,
    spec=PoolSpec.square(3, 2), n=1, c1=1, ih=20, iw=20, chunk=9,
)


def _key(i: int = 0):
    return plan_key(_KEY_PLAN, ("geom", i), ASCEND910)


class TestProgramCache:
    def test_miss_then_hit(self):
        cache = ProgramCache()
        builds = []

        def build():
            builds.append(1)
            return Program("p")

        p1 = cache.get_or_build(_key(), build)
        p2 = cache.get_or_build(_key(), build)
        assert p1 is p2
        assert len(builds) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_distinct_keys_do_not_alias(self):
        cache = ProgramCache()
        p1 = cache.get_or_build(_key(0), lambda: Program("a"))
        p2 = cache.get_or_build(_key(1), lambda: Program("b"))
        assert p1 is not p2
        assert len(cache) == 2

    def test_lru_eviction(self):
        cache = ProgramCache(maxsize=2)
        cache.get_or_build(_key(0), lambda: Program("a"))
        cache.get_or_build(_key(1), lambda: Program("b"))
        cache.get_or_build(_key(0), lambda: Program("a2"))  # refresh 0
        cache.get_or_build(_key(2), lambda: Program("c"))  # evicts 1
        assert _key(0) in cache and _key(2) in cache
        assert _key(1) not in cache
        assert cache.stats.evictions == 1

    def test_clear(self):
        cache = ProgramCache()
        cache.get_or_build(_key(), lambda: Program("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_summary_matches_execution(self):
        """The memoized static summary equals a real numeric run."""
        cache = ProgramCache()
        prog = Program("p")
        prog.emit(DataMove(MemRef("x", 0, 32, DT), MemRef("UB", 0, 32, DT)))
        prog.emit(
            VMAX(
                VectorOperand(MemRef("UB", 0, 16, DT)),
                VectorOperand(MemRef("UB", 0, 16, DT)),
                VectorOperand(MemRef("UB", 16, 16, DT)),
                Mask.full(),
            )
        )
        prog.scalar_loop_trips = 2
        key = _key()
        assert cache.get_or_build(key, lambda: prog) is prog

        gm = GlobalMemory()
        gm.add("x", np.ones(32, dtype=DT.np_dtype))
        executed = AICore(ASCEND910, DT).run(prog, gm)

        summary = cache.summary(key, prog, ASCEND910)
        assert summary.cycles == executed.cycles
        assert summary.instructions == executed.instructions
        assert summary.trace.records == executed.trace.records
        # memoized: same object on the second ask
        assert cache.summary(key, prog, ASCEND910) is summary
        # no-trace variant is empty but cycle-identical
        bare = cache.summary(key, prog, ASCEND910, collect_trace=False)
        assert bare.cycles == summary.cycles
        assert not bare.trace.records


class TestInvalidate:
    def test_invalidate_drops_entry_and_counts(self):
        cache = ProgramCache()
        key = _key()
        cache.get_or_build(key, lambda: Program("p"))
        assert key in cache
        assert cache.invalidate(key) is True
        assert key not in cache
        assert cache.stats.invalidations == 1
        # idempotent: a second invalidation is a no-op
        assert cache.invalidate(key) is False
        assert cache.stats.invalidations == 1

    def test_invalidate_forces_rebuild(self):
        cache = ProgramCache()
        key = _key()
        builds = []

        def build():
            builds.append(1)
            return Program("p")

        cache.get_or_build(key, build)
        cache.get_or_build(key, build)
        assert len(builds) == 1
        cache.invalidate(key)
        cache.get_or_build(key, build)
        assert len(builds) == 2

    def test_invalidate_drops_compiled_kernel(self):
        """Invalidation must drop the memoized JIT kernel too: the next
        ``compiled()`` rebuilds (a ``jit_miss``) instead of re-serving
        the suspect kernel."""
        cache = ProgramCache()
        key = _key()
        prog = Program("p")
        prog.emit(DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT)))
        cache.get_or_build(key, lambda: prog)
        first = cache.compiled(key, prog)
        assert cache.compiled(key, prog) is first
        assert cache.stats.jit_hits == 1 and cache.stats.jit_misses == 1
        cache.invalidate(key)
        rebuilt = cache.compiled(key, prog)
        assert rebuilt is not first
        assert cache.stats.jit_misses == 2
        # re-adopted under the key: a further ask is a hit again
        assert cache.compiled(key, prog) is rebuilt
        assert cache.stats.jit_hits == 2

    def test_invalidate_drops_memoized_summaries(self):
        cache = ProgramCache()
        key = _key()
        prog = Program("p")
        d = MemRef("UB", 0, 128, DT)
        prog.emit(DataMove(MemRef("x", 0, 128, DT), d))
        cache.get_or_build(key, lambda: prog)
        first = cache.summary(key, prog, ASCEND910)
        cache.invalidate(key)
        # served again only via the fallback re-adoption path
        second = cache.summary(key, prog, ASCEND910)
        assert second.cycles == first.cycles
        assert cache.stats.summary_fallbacks == 1


class TestSharedOperands:
    """The cache owns one table of vector operands, lent to every
    lowering it runs: equal operands of different cached programs are
    one object, the programs themselves are unchanged, and the table
    never outlives the programs it serves."""

    #: :func:`program_memory.digest` of the programs the figure call set
    #: caches, as built before operands were shared across programs.
    FIGURE_PROGRAMS_DIGEST = (
        "16660ea2eb362639b8aca93c5dc1bd8d7199896ed8ea314a2cb75dce54f6ddeb"
    )

    @staticmethod
    def _plan(with_mask=False):
        return plan_default(
            "fwd", forward_impl("im2col", "max", with_mask),
            PoolSpec.square(3, 1), DT, 1, 1, 9, 9, ASCEND910_SINGLE_CORE,
        )

    def test_figure_programs_equal_the_unshared_builds(self):
        cache = ProgramCache()
        program_memory.fill(cache, models=("serial",))
        programs = cache.programs()
        assert program_memory.digest(programs) == self.FIGURE_PROGRAMS_DIGEST
        counts = program_memory.census(programs)
        assert counts["instructions"] == 86_007
        assert counts["VectorOperand values"] == 30_549

    def test_equal_operand_in_two_programs_is_one_object(self):
        cache = ProgramCache()
        for with_mask in (False, True):
            plan_cycles(
                self._plan(with_mask), ASCEND910_SINGLE_CORE, cache=cache
            )
        a, b = (
            [
                op for ins in p if isinstance(ins, VectorBinary)
                for op in (ins.dst, ins.src0, ins.src1)
            ]
            for p in cache.programs()
        )
        first = {op: op for op in a}
        common = [op for op in b if op in first]
        assert common
        assert all(first[op] is op for op in common)

    def test_table_is_lent_only_during_a_build(self):
        cache = ProgramCache()
        lent = []

        def build():
            lent.append(_OPERANDS.get())
            return Program("p")

        cache.get_or_build(_key(), build)
        assert len(lent) == 1 and lent[0] is cache._operands
        assert _OPERANDS.get() is None

    @pytest.mark.parametrize(
        "drop", ["clear", "evict", "invalidate", "failed-build"]
    )
    def test_table_dropped_with_its_programs(self, drop):
        cache = ProgramCache(maxsize=1)
        plan = self._plan()
        lower(plan, ASCEND910_SINGLE_CORE, cache=cache)
        assert cache._operands
        if drop == "clear":
            cache.clear()
        elif drop == "failed-build":
            def build():
                lower(self._plan(with_mask=True), ASCEND910_SINGLE_CORE)
                raise CompileError("build failed after lowering")

            with pytest.raises(CompileError):
                cache.get_or_build(_key(), build)
            assert len(cache) == 1
        elif drop == "evict":
            cache.get_or_build(_key(), lambda: Program("other"))
            assert cache.stats.evictions == 1
        else:
            (geom,) = plan.tiles
            key = plan_key(plan, geom.params, ASCEND910_SINGLE_CORE)
            assert cache.invalidate(key)
        assert cache._operands == {}


class TestCompiledMemo:
    """:meth:`ProgramCache.compiled` -- the JIT kernel cache."""

    def _prog(self) -> Program:
        prog = Program("p")
        prog.emit(DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT)))
        return prog

    def test_miss_then_hit_counters(self):
        cache = ProgramCache()
        key = _key()
        prog = cache.get_or_build(key, self._prog)
        k1 = cache.compiled(key, prog)
        k2 = cache.compiled(key, prog)
        assert k1 is k2
        assert cache.stats.jit_misses == 1
        assert cache.stats.jit_hits == 1

    def test_uncompilable_program_caches_no_kernel(self):
        import dataclasses

        from repro.isa.instruction import Instruction

        @dataclasses.dataclass(frozen=True)
        class Opaque(Instruction):
            dst: MemRef
            unit = "scalar"

            def cycles(self, cost):
                return 1

            def execute(self, ctx):
                pass

        cache = ProgramCache()
        key = _key()
        prog = Program("p")
        prog.emit(Opaque(MemRef("UB", 0, 16, DT)))
        cache.get_or_build(key, lambda: prog)
        for _ in range(2):
            with pytest.raises(CompileError, match="opaque"):
                cache.compiled(key, prog)
        assert cache.stats.jit_misses == 2
        assert cache.stats.jit_hits == 0

    def test_evicted_entry_readopts_and_memoizes(self):
        cache = ProgramCache(maxsize=1)
        prog = cache.get_or_build(_key(0), self._prog)
        cache.get_or_build(_key(1), self._prog)  # evicts _key(0)
        k1 = cache.compiled(_key(0), prog)
        assert cache.stats.summary_fallbacks == 1
        assert cache.compiled(_key(0), prog) is k1
        assert cache.stats.jit_hits == 1


class TestSummaryFallback:
    """Regression: ``summary`` after eviction/aliasing must re-insert
    and memoize instead of silently recomputing once per slice."""

    def _count_summarize(self, monkeypatch):
        import repro.sim.progcache as pc

        calls = []
        real = pc._summarize

        def spy(program, config, collect_trace):
            calls.append(program)
            return real(program, config, collect_trace)

        monkeypatch.setattr(pc, "_summarize", spy)
        return calls

    def test_evicted_entry_no_recompute_storm(self, monkeypatch):
        calls = self._count_summarize(monkeypatch)
        cache = ProgramCache(maxsize=1)
        prog_a = cache.get_or_build(_key(0), lambda: Program("a"))
        # A second geometry evicts the first in a maxsize=1 cache...
        cache.get_or_build(_key(1), lambda: Program("b"))
        assert _key(0) not in cache
        # ...yet per-slice summary asks for prog_a must compute ONCE,
        # not once per slice (the seed behaviour).
        first = cache.summary(_key(0), prog_a, ASCEND910)
        for _ in range(5):
            assert cache.summary(_key(0), prog_a, ASCEND910) is first
        assert len(calls) == 1
        assert cache.stats.summary_fallbacks == 1
        # the fallback re-inserted the program under its key
        assert _key(0) in cache
        assert cache.get_or_build(_key(0), lambda: Program("fresh")) is prog_a

    def test_aliased_entry_adopts_callers_program(self, monkeypatch):
        calls = self._count_summarize(monkeypatch)
        cache = ProgramCache(maxsize=1)
        prog_a = cache.get_or_build(_key(0), lambda: Program("a"))
        # evict, then rebuild the same key to a *different* program
        cache.get_or_build(_key(1), lambda: Program("b"))
        prog_a2 = cache.get_or_build(_key(0), lambda: Program("a2"))
        assert prog_a2 is not prog_a
        # summaries for the caller's (stale) program memoize too
        first = cache.summary(_key(0), prog_a, ASCEND910)
        assert cache.summary(_key(0), prog_a, ASCEND910) is first
        assert cache.stats.summary_fallbacks == 1
        assert len(calls) == 1

    def test_fallback_respects_maxsize(self):
        cache = ProgramCache(maxsize=1)
        prog_a = cache.get_or_build(_key(0), lambda: Program("a"))
        cache.get_or_build(_key(1), lambda: Program("b"))
        cache.summary(_key(0), prog_a, ASCEND910)
        assert len(cache) == 1  # re-insert evicted the other entry

    def test_live_entry_counts_no_fallback(self):
        cache = ProgramCache()
        prog = cache.get_or_build(_key(0), lambda: Program("a"))
        cache.summary(_key(0), prog, ASCEND910)
        cache.summary(_key(0), prog, ASCEND910)
        assert cache.stats.summary_fallbacks == 0


# ---------------------------------------------------------------------------
# Driver-level caching behaviour.
# ---------------------------------------------------------------------------

class TestDriverCaching:
    def test_one_lowering_per_geometry(self):
        cache = ProgramCache()
        x = make_input(20, 20, 32, seed=0)  # (1, 2, 20, 20, 16)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl("im2col", "max")
        res = run_forward(x, spec, impl, ASCEND910, cache=cache)
        tiles = len(res.tiles)
        slices = x.shape[0] * x.shape[1]
        assert res.chip.tiles == tiles * slices
        # one miss per tile-local geometry; every other slice and row
        # window runs that program at its deltas
        geometries = len({g.params for g in res.tiles})
        assert geometries < tiles  # the workload's rows share programs
        assert cache.stats.misses == geometries
        assert cache.stats.hits == 0  # first call: all geometries new
        run_forward(x, spec, impl, ASCEND910, cache=cache)
        assert cache.stats.misses == geometries
        assert cache.stats.hits == geometries

    def test_global_cache_is_default(self):
        PROGRAM_CACHE.clear()
        x = make_input(12, 12, 16, seed=0)
        spec = PoolSpec.square(2, 2)
        run_forward(x, spec, forward_impl("im2col", "max"), SMALL)
        assert PROGRAM_CACHE.stats.misses > 0

    def test_programs_named_by_slice_and_tile(self):
        x = make_input(20, 20, 32, seed=0)
        spec = PoolSpec.square(3, 2)
        for cache in (None, ProgramCache()):
            res = run_forward(
                x, spec, forward_impl("im2col", "max"), ASCEND910,
                cache=cache,
            )
            tiles = len(res.tiles)
            # names are attributable: {impl}-t{rows}p{pt}x{pb}
            # (reconstruct via the chip result's tile count)
            slices = res.chip.tiles // tiles
            assert slices == x.shape[0] * x.shape[1]

    def test_cycles_mode_returns_no_data(self):
        x = make_input(12, 12, 16, seed=0)
        spec = PoolSpec.square(2, 2)
        res = run_forward(
            x, spec, forward_impl("im2col", "max"), SMALL,
            execute="cycles", cache=ProgramCache(),
        )
        assert res.output is None and res.mask is None
        assert res.cycles > 0

    def test_one_build_and_kernel_per_geometry_across_models(
        self, monkeypatch
    ):
        """A tile program depends on geometry alone: a fixed call set of
        one maxpool+mask (Im2col) and one maxpool-backward (Col2im)
        geometry, under both timing models, in cycles and jit mode,
        lowers and compiles each geometry once and summarizes it once
        per model."""
        import repro.plan.planner as planner
        import repro.sim.compile as compile_mod
        import repro.sim.progcache as progcache
        from repro.ops.api import maxpool, maxpool_backward

        counts = {"build": 0, "summary": 0, "compile": 0}

        def counting(name, target, attr):
            real = getattr(target, attr)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(target, attr, wrapper)

        spec = PoolSpec.square(2, 2)
        x = make_input(8, 8, 16, seed=0)
        mask = maxpool(x, spec, with_mask=True, cache=None).mask
        grad = make_gradient(1, 4, 4, seed=1)
        counting("build", planner, "_build_tile_program")
        counting("summary", progcache, "summarize")
        counting("compile", compile_mod, "compile_program")
        cache = ProgramCache()
        for execute in ("cycles", "jit"):
            for model in ("serial", "pipelined"):
                kw = dict(
                    execute=execute, model=model, cache=cache,
                    collect_trace=False, config=ASCEND910_SINGLE_CORE,
                )
                maxpool(x, spec, with_mask=True, **kw)
                maxpool_backward(mask, grad, spec, 8, 8, **kw)
        assert len(cache) == 2  # one tile geometry per operator
        assert counts == {"build": 2, "summary": 4, "compile": 2}

    def test_bad_execute_mode_rejected(self):
        from repro.errors import LayoutError

        x = make_input(12, 12, 16, seed=0)
        with pytest.raises(LayoutError):
            run_forward(
                x, PoolSpec.square(2, 2), forward_impl("im2col", "max"),
                SMALL, execute="fused",
            )


# ---------------------------------------------------------------------------
# Bit-identical equivalence: cached+relocated vs uncached, and
# cycles-only vs numeric.
# ---------------------------------------------------------------------------

#: (spec, ih, iw, config) covering unpadded, padded, and row-chunked
#: geometries.  ASCEND910's 32 cores force min_tiles > 1 on the small
#: N*C1, so every case exercises row chunking *and* relocation.
GEOMETRIES = [
    pytest.param(PoolSpec.square(3, 2), 20, 20, ASCEND910, id="rowchunk"),
    pytest.param(PoolSpec.square(3, 2, pad=1), 21, 21, ASCEND910, id="padded"),
    pytest.param(PoolSpec(kh=2, kw=3, sh=2, sw=1), 14, 17, SMALL, id="rect"),
]

FORWARD = ["standard", "im2col", "expansion", "xysplit"]
BACKWARD = ["standard", "col2im"]


def _fwd_input(ih, iw):
    return make_input(ih, iw, 32, seed=3)  # N=1, C1=2 slices


class TestForwardEquivalence:
    @pytest.mark.parametrize("spec,ih,iw,config", GEOMETRIES)
    @pytest.mark.parametrize("name", FORWARD)
    def test_cached_equals_uncached(self, name, spec, ih, iw, config):
        x = _fwd_input(ih, iw)
        impl = forward_impl(name, "max")
        ref = run_forward(x, spec, impl, config, cache=None)
        cached = run_forward(x, spec, impl, config, cache=ProgramCache())
        assert np.array_equal(ref.output, cached.output)
        assert ref.cycles == cached.cycles
        assert (
            ref.chip.total_work_cycles == cached.chip.total_work_cycles
        )
        analytic = run_forward(
            x, spec, impl, config, execute="cycles", cache=ProgramCache()
        )
        assert analytic.cycles == ref.cycles

    @pytest.mark.parametrize("spec,ih,iw,config", GEOMETRIES)
    @pytest.mark.parametrize("name", ["standard", "im2col", "expansion"])
    def test_mask_bit_identical(self, name, spec, ih, iw, config):
        x = _fwd_input(ih, iw)
        impl = forward_impl(name, "max", with_mask=True)
        ref = run_forward(x, spec, impl, config, cache=None)
        cached = run_forward(x, spec, impl, config, cache=ProgramCache())
        assert np.array_equal(ref.output, cached.output)
        assert np.array_equal(ref.mask, cached.mask)
        assert ref.cycles == cached.cycles

    def test_avgpool_equivalence(self):
        x = _fwd_input(20, 20)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl("im2col", "avg")
        ref = run_forward(x, spec, impl, ASCEND910, cache=None)
        cached = run_forward(x, spec, impl, ASCEND910, cache=ProgramCache())
        assert np.array_equal(ref.output, cached.output)
        assert ref.cycles == cached.cycles


class TestBackwardEquivalence:
    @pytest.mark.parametrize("spec,ih,iw,config", GEOMETRIES)
    @pytest.mark.parametrize("name", BACKWARD)
    @pytest.mark.parametrize("serialize", [False, True])
    def test_gradients_bit_identical(
        self, name, spec, ih, iw, config, serialize
    ):
        x = _fwd_input(ih, iw)
        mask = maxpool_argmax_ref(x, spec)
        oh, ow = spec.with_image(ih, iw).out_hw()
        grad = make_gradient(x.shape[1], oh, ow, seed=4)
        impl = backward_impl(name, "max")
        kwargs = dict(
            mask=mask, config=config, serialize_slices=serialize
        )
        ref = run_backward(grad, spec, impl, ih, iw, cache=None, **kwargs)
        cached = run_backward(
            grad, spec, impl, ih, iw, cache=ProgramCache(), **kwargs
        )
        assert np.array_equal(ref.output, cached.output)
        assert ref.cycles == cached.cycles
        analytic = run_backward(
            grad, spec, impl, ih, iw, cache=ProgramCache(),
            execute="cycles", **kwargs,
        )
        assert analytic.cycles == ref.cycles
        assert analytic.output is None

    def test_avgpool_backward_equivalence(self):
        spec = PoolSpec.square(3, 2)
        ih = iw = 20
        oh, ow = spec.with_image(ih, iw).out_hw()
        grad = make_gradient(2, oh, ow, seed=5)
        for name in BACKWARD:
            impl = backward_impl(name, "avg")
            ref = run_backward(
                grad, spec, impl, ih, iw, config=ASCEND910, cache=None
            )
            cached = run_backward(
                grad, spec, impl, ih, iw, config=ASCEND910,
                cache=ProgramCache(),
            )
            assert np.array_equal(ref.output, cached.output)
            assert ref.cycles == cached.cycles


class TestTraceEquivalence:
    def test_cached_traces_match_uncached(self):
        """Per-tile traces from memoized summaries equal executed ones."""
        x = _fwd_input(20, 20)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl("im2col", "max")
        ref = run_forward(x, spec, impl, ASCEND910, cache=None)
        cached = run_forward(
            x, spec, impl, ASCEND910, cache=ProgramCache()
        )
        assert len(ref.chip.per_tile) == len(cached.chip.per_tile)
        for a, b in zip(ref.chip.per_tile, cached.chip.per_tile):
            assert a.trace.records == b.trace.records
            assert a.cycles == b.cycles
        assert (
            ref.chip.vector_lane_utilization
            == cached.chip.vector_lane_utilization
        )

    def test_collect_trace_false_yields_no_records(self):
        x = _fwd_input(20, 20)
        res = run_forward(
            x, PoolSpec.square(3, 2), forward_impl("im2col", "max"),
            ASCEND910, collect_trace=False, cache=ProgramCache(),
        )
        assert all(not t.trace.records for t in res.chip.per_tile)


# ---------------------------------------------------------------------------
# Thread safety (the serving layer's contract).
# ---------------------------------------------------------------------------

class TestThreadSafety:
    """A shared :class:`ProgramCache` hammered from many threads must
    build each key at most once, never lose a compiled kernel, and keep
    its counters consistent -- the contract the cache docstring promises
    the serving layer."""

    def test_single_build_per_key_under_contention(self):
        import threading

        cache = ProgramCache()
        builds = {i: 0 for i in range(8)}
        build_lock = threading.Lock()
        barrier = threading.Barrier(8)
        results: list[dict] = [dict() for _ in range(8)]

        def worker(tid: int):
            barrier.wait()
            for rep in range(50):
                i = (tid + rep) % 8

                def build(i=i):
                    with build_lock:
                        builds[i] += 1
                    return Program(f"p{i}")

                results[tid][i] = cache.get_or_build(_key(i), build)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # every key lowered exactly once, all threads saw the same object
        assert all(n == 1 for n in builds.values()), builds
        for i in range(8):
            objs = {id(r[i]) for r in results}
            assert len(objs) == 1
        s = cache.stats
        assert s.misses == 8
        assert s.hits == 8 * 50 - 8
        assert s.lookups == s.hits + s.misses

    def test_no_lost_compiled_kernels_under_churn(self):
        """Threads interleaving get_or_build/compiled/invalidate on a
        tiny cache (constant eviction pressure) must always get back a
        working kernel -- the evicted-entry window in the seed could
        drop a freshly built CompiledKernel on the floor."""
        import threading

        cache = ProgramCache(maxsize=2)
        errors: list[BaseException] = []
        barrier = threading.Barrier(6)

        def prog(i: int) -> Program:
            p = Program(f"p{i}")
            p.emit(
                DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT))
            )
            return p

        def worker(tid: int):
            try:
                barrier.wait()
                for rep in range(40):
                    i = (tid + rep) % 5
                    p = cache.get_or_build(_key(i), lambda i=i: prog(i))
                    kernel = cache.compiled(_key(i), p)
                    assert kernel is not None
                    summary = cache.summary(_key(i), p, ASCEND910)
                    assert summary.cycles > 0
                    if rep % 7 == tid % 7:
                        cache.invalidate(_key(i))
            except BaseException as exc:  # noqa: BLE001 - collect all
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(cache) <= 2
        s = cache.stats
        # counters stayed coherent under churn
        assert s.lookups == s.hits + s.misses
        assert s.jit_hits + s.jit_misses > 0

    def test_driver_runs_share_a_cache_across_threads(self):
        """Two driver threads sharing one cache produce bit-identical
        results to a single-threaded uncached run."""
        import threading

        cache = ProgramCache()
        x = make_input(20, 20, 32, seed=7)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl("im2col", "max")
        ref = run_forward(x, spec, impl, ASCEND910, cache=None)
        outs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def worker(tid: int):
            try:
                for _ in range(3):
                    res = run_forward(x, spec, impl, ASCEND910, cache=cache)
                    outs[tid] = res.output
                    assert res.cycles == ref.cycles
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        for out in outs.values():
            assert np.array_equal(out, ref.output)
