"""Tests for the ISA-level memory sanitizer.

Three layers:

* clean kernels stay clean (and the sanitizer never perturbs numerics
  or cycles);
* *mutation* tests -- deliberately corrupted kernels (shrunk
  allocation, skipped input DMA, widened repeat stride, swapped
  dependent instructions, lying ``writes()`` declaration) must each
  trip their violation class with a diagnostic naming the program,
  instruction index and byte range;
* the race auditor and the strict-mode stale-read regression
  (scratch-pads are intentionally never cleared between tiles -- strict
  mode is what catches kernels that rely on it).
"""

import dataclasses

import numpy as np
import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
from repro.dtypes import FLOAT16
from repro.errors import IsaError, SanitizerError, SimulationError
from repro.isa import (
    DataMove,
    Mask,
    MemRef,
    Program,
    VADD,
    VectorDup,
    VectorOperand,
)
from repro.ops import PoolSpec, forward_impl, run_forward
from repro.ops.base import TileContext
from repro.plan import TileGeom
from repro.sim import (
    AICore,
    Chip,
    GlobalMemory,
    POISON_VALUE,
    Sanitizer,
    SanitizerReport,
    audit_races,
    resolve_sanitizer,
)
from repro.sim.sanitizer import BufferCoverage
from repro.sim.trace import Trace, TraceRecord
from repro.tik import KernelBuilder
from repro.workloads import make_input

C0 = FLOAT16.c0


def build_pool_kernel(ih=9, iw=9, spec=None, name="im2col-max"):
    """One real forward tile program (im2col MaxPool) plus its GM."""
    spec = spec or PoolSpec.square(3, 2)
    params = spec.with_image(ih, iw)
    oh, ow = params.out_hw()
    b = KernelBuilder(ASCEND910, FLOAT16, name=name)
    ctx = TileContext(
        builder=b,
        geom=TileGeom(oh0=0, oh1=oh, ih0=0, ih1=ih, params=params),
        spec=spec,
        dtype=FLOAT16,
        gm_in=MemRef("x", 0, ih * iw * C0, FLOAT16),
        gm_out=MemRef("out", 0, oh * ow * C0, FLOAT16),
    )
    forward_impl("im2col", "max").build_tile(ctx)
    gm = GlobalMemory()
    rng = np.random.default_rng(7)
    gm.add("x", rng.standard_normal(ih * iw * C0).astype(np.float16))
    gm.add("out", np.zeros(oh * ow * C0, np.float16))
    return b.program, gm


def run_sanitized(program, gm, halt=True):
    core = AICore(ASCEND910)
    san = Sanitizer(ASCEND910, halt=halt)
    res = core.run(program, gm, sanitize=san)
    return res, san


class TestCleanKernel:
    def test_clean_run_attaches_report(self):
        prog, gm = build_pool_kernel()
        res, san = run_sanitized(prog, gm)
        assert res.sanitizer is san.report
        assert res.sanitizer.clean
        assert res.sanitizer.programs == 1
        assert res.sanitizer.checked_instructions == len(prog)

    def test_sanitizer_never_perturbs(self):
        prog, gm = build_pool_kernel()
        base = AICore(ASCEND910).run(prog, gm)
        out_base = gm.view("out").copy()

        prog2, gm2 = build_pool_kernel()
        res, _ = run_sanitized(prog2, gm2)
        assert np.array_equal(gm2.view("out"), out_base)
        assert res.cycles == base.cycles
        assert res.instructions == base.instructions

    def test_coverage_statistics(self):
        prog, gm = build_pool_kernel()
        res, _ = run_sanitized(prog, gm)
        cov = res.sanitizer.coverage["UB"]
        assert cov.declared_bytes > 0
        assert cov.declared_bytes <= cov.capacity_bytes
        assert cov.high_water_bytes >= cov.declared_bytes // 2
        assert 0 < cov.initialized_bytes <= cov.declared_bytes
        # The manifest footprint must agree with the builder.
        declared_ub = sum(
            r.size for r in prog.allocations["UB"].values()
        ) * FLOAT16.itemsize
        assert cov.declared_bytes == declared_ub

    def test_default_run_has_no_report(self):
        prog, gm = build_pool_kernel()
        res = AICore(ASCEND910).run(prog, gm)
        assert res.sanitizer is None

    def test_poison_fill_on_begin(self):
        core = AICore(ASCEND910)
        san = Sanitizer(ASCEND910)
        prog, _ = build_pool_kernel()
        san.begin_program(core, prog)
        assert np.all(core.buffers["UB"].data == np.float16(POISON_VALUE))


class TestModeGuards:
    def test_cycles_mode_rejected(self):
        prog, gm = build_pool_kernel()
        with pytest.raises(SimulationError, match="numeric"):
            AICore(ASCEND910).run(prog, gm, execute="cycles", sanitize=True)

    def test_chip_rejects_faults_with_sanitize(self):
        from repro.sim import FaultPlan

        prog, gm = build_pool_kernel()
        chip = Chip(ASCEND910_SINGLE_CORE)
        with pytest.raises(SimulationError, match="mutually exclusive"):
            chip.run_tiles(
                [prog], gm, sanitize=True, faults=FaultPlan(seed=0),
            )

    def test_chip_rejects_cycles_with_sanitize(self):
        prog, gm = build_pool_kernel()
        chip = Chip(ASCEND910_SINGLE_CORE)
        with pytest.raises(SimulationError, match="numeric"):
            chip.run_tiles([prog], gm, execute="cycles", sanitize=True)

    def test_resolve_sanitizer(self):
        assert resolve_sanitizer(None, ASCEND910) is None
        assert resolve_sanitizer(False, ASCEND910) is None
        fresh = resolve_sanitizer(True, ASCEND910)
        assert isinstance(fresh, Sanitizer) and fresh.halt
        inst = Sanitizer(ASCEND910, halt=False)
        assert resolve_sanitizer(inst, ASCEND910) is inst


class TestMutationsDetected:
    """Each corrupted-kernel class must be caught with a diagnostic
    naming the program, the instruction index and the byte range."""

    def _assert_diagnostic(self, msg, program_name):
        assert program_name in msg
        assert "instruction " in msg
        assert "bytes [" in msg

    def test_shrunk_allocation_is_bounds_violation(self):
        prog, gm = build_pool_kernel(name="shrunk")
        # Halve the largest UB allocation in the manifest: operands
        # built against the original size now run past the region.
        refs = prog.allocations["UB"]
        victim = max(refs, key=lambda k: refs[k].size)
        refs[victim] = dataclasses.replace(
            refs[victim], size=max(C0, refs[victim].size // 2)
        )
        with pytest.raises(SanitizerError, match="bounds") as exc:
            run_sanitized(prog, gm)
        self._assert_diagnostic(str(exc.value), "shrunk")

    def test_skipped_input_dma_is_uninit_read(self):
        prog, gm = build_pool_kernel(name="skipdma")
        idx = next(
            i for i, ins in enumerate(prog.instructions)
            if isinstance(ins, DataMove) and ins.src.buffer == "x"
        )
        del prog.instructions[idx]
        with pytest.raises(
            SanitizerError, match="uninit-read|poison-read"
        ) as exc:
            run_sanitized(prog, gm)
        self._assert_diagnostic(str(exc.value), "skipdma")

    def test_widened_repeat_stride_is_bounds_violation(self):
        prog, gm = build_pool_kernel(name="stride")
        # Widen the addressing stride of the first vector operand we
        # find: its element set now escapes the live allocation.
        for ins in prog.instructions:
            field = next(
                (
                    f.name
                    for f in dataclasses.fields(ins)
                    if isinstance(getattr(ins, f.name), VectorOperand)
                ),
                None,
            )
            if field is None:
                continue
            op = getattr(ins, field)
            attr = "rep_stride" if getattr(ins, "repeat", 1) > 1 else (
                "blk_stride"
            )
            object.__setattr__(op, attr, getattr(op, attr) + 512)
            break
        else:  # pragma: no cover - pooling kernels always vectorise
            pytest.fail("no vector operand found")
        with pytest.raises(SanitizerError, match="bounds") as exc:
            run_sanitized(prog, gm)
        self._assert_diagnostic(str(exc.value), "stride")

    def test_swapped_dependent_instructions_is_uninit_read(self):
        b = KernelBuilder(ASCEND910, FLOAT16, name="swapped")
        src = b.alloc("UB", 128, "in")
        dst = b.alloc("UB", 128, "result")
        b.dma(MemRef("x", 0, 128, FLOAT16), src)
        b.program.emit(
            VADD(
                VectorOperand(dst), VectorOperand(src),
                VectorOperand(src), Mask.full(), 1,
            )
        )
        ins = b.program.instructions
        ins[0], ins[1] = ins[1], ins[0]  # consumer before producer
        gm = GlobalMemory()
        gm.add("x", np.ones(128, np.float16))
        with pytest.raises(SanitizerError, match="uninit-read") as exc:
            run_sanitized(b.program, gm)
        msg = str(exc.value)
        self._assert_diagnostic(msg, "swapped")
        assert "instruction 0" in msg

    def test_undeclared_write_detected(self):
        class LyingDup(VectorDup):
            """A ``vector_dup`` whose ``writes()`` hides its store."""

            def writes(self):
                return []

        prog = Program("liar")
        ref = MemRef("UB", 0, 128, FLOAT16)
        prog.emit(LyingDup(VectorOperand(ref), 2.0, Mask.full(), 1))
        gm = GlobalMemory()
        with pytest.raises(SanitizerError, match="undeclared-write") as exc:
            run_sanitized(prog, gm)
        self._assert_diagnostic(str(exc.value), "liar")

    def test_nonhalting_mode_collects_violations(self):
        prog, gm = build_pool_kernel(name="collect")
        refs = prog.allocations["UB"]
        victim = max(refs, key=lambda k: refs[k].size)
        refs[victim] = dataclasses.replace(
            refs[victim], size=max(C0, refs[victim].size // 2)
        )
        res, san = run_sanitized(prog, gm, halt=False)
        assert not san.report.clean
        assert res.sanitizer is san.report
        v = san.report.violations[0]
        assert v.kind == "bounds"
        assert v.program == "collect"
        assert v.instruction >= 0
        assert v.stop_byte > v.start_byte


class TestOutOfManifestAccess:
    def test_unallocated_buffer_access_is_bounds(self):
        """With a non-empty manifest, a buffer the manifest does not
        mention has no live regions at all."""
        b = KernelBuilder(ASCEND910, FLOAT16, name="strayl1")
        b.alloc("UB", 128, "only-ub")
        b.program.emit(
            VectorDup(
                VectorOperand(MemRef("L0C", 0, 256, FLOAT16)),
                0.0, Mask.full(), 1,
            )
        )
        with pytest.raises(SanitizerError, match="none live"):
            run_sanitized(b.program, GlobalMemory())

    def test_handbuilt_program_falls_back_to_whole_buffer(self):
        prog = Program("handmade")
        ref = MemRef("UB", 0, 128, FLOAT16)
        prog.emit(VectorDup(VectorOperand(ref), 1.0, Mask.full(), 1))
        res, _ = run_sanitized(prog, GlobalMemory())
        assert res.sanitizer.clean

    def test_gm_escape_is_bounds(self):
        prog = Program("gmescape")
        ub = MemRef("UB", 0, 64, FLOAT16)
        prog.emit(DataMove(MemRef("x", 96, 64, FLOAT16), ub))
        gm = GlobalMemory()
        gm.add("x", np.zeros(128, np.float16))  # [96, 160) escapes
        with pytest.raises(SanitizerError, match="global tensor"):
            run_sanitized(prog, gm)

    def test_gm_escape_at_a_delta_names_tensor_positions(self):
        """Run at a delta, the escape is reported at the tensor's own
        element positions and size, not the view's."""
        prog = Program("gmescape")
        prog.emit(DataMove(
            MemRef("x", 32, 64, FLOAT16), MemRef("UB", 0, 64, FLOAT16),
        ))
        gm = GlobalMemory()
        gm.add("x", np.zeros(128, np.float16))  # [96, 160) at delta 64
        san = Sanitizer(ASCEND910, halt=False)
        with pytest.raises(IsaError):  # the data pass still escapes
            AICore(ASCEND910).run(
                prog, gm, sanitize=san, deltas={"x": 64},
            )
        (v,) = san.report.violations
        assert (v.kind, v.start_byte, v.stop_byte) == ("bounds", 192, 320)
        assert "global tensor of 256 bytes" in v.message


class TestStaleReadRegression:
    """Scratch-pads are deliberately never cleared between tiles (the
    hardware does not either, and clearing would dirty the cycle
    model); strict mode is the tool that catches kernels *relying* on
    leftover data."""

    def _writer(self):
        b = KernelBuilder(ASCEND910, FLOAT16, name="tileA")
        ref = b.alloc("UB", 128, "a")
        b.dup(ref, 2.0)
        return b.program

    def _stale_reader(self):
        b = KernelBuilder(ASCEND910, FLOAT16, name="tileB")
        src = b.alloc("UB", 128, "never-written")
        dst = b.alloc("UB", 128, "dst")
        b.program.emit(
            VADD(
                VectorOperand(dst), VectorOperand(src),
                VectorOperand(src), Mask.full(), 1,
            )
        )
        return b.program

    def test_scratch_survives_across_tiles_unsanitized(self):
        """The intentional behaviour strict mode guards: tile B can see
        tile A's leftover UB contents on the same core."""
        b = KernelBuilder(ASCEND910, FLOAT16, name="tileB-probe")
        src = b.alloc("UB", 128, "leftover")
        b.dma(src, MemRef("probe", 0, 128, FLOAT16))
        gm = GlobalMemory()
        gm.add("probe", np.zeros(128, np.float16))
        chip = Chip(ASCEND910_SINGLE_CORE)
        chip.run_tiles([self._writer(), b.program], gm)
        assert np.all(gm.view("probe") == np.float16(2.0))

    def test_scratch_survives_across_tiles_under_jit(self):
        """The same contract through compiled kernels: storage made on
        tile A's first touch is the storage tile B reads."""
        b = KernelBuilder(ASCEND910, FLOAT16, name="tileB-probe")
        src = b.alloc("UB", 128, "leftover")
        b.dma(src, MemRef("probe", 0, 128, FLOAT16))
        gm = GlobalMemory()
        gm.add("probe", np.zeros(128, np.float16))
        chip = Chip(ASCEND910_SINGLE_CORE)
        chip.run_tiles([self._writer(), b.program], gm, execute="jit")
        assert np.all(gm.view("probe") == np.float16(2.0))

    def test_strict_mode_diagnoses_stale_read(self):
        gm = GlobalMemory()
        chip = Chip(ASCEND910_SINGLE_CORE)
        with pytest.raises(SanitizerError, match="stale-read") as exc:
            chip.run_tiles(
                [self._writer(), self._stale_reader()], gm, sanitize=True
            )
        msg = str(exc.value)
        assert "tileB" in msg
        assert "previous tile" in msg

    def test_fresh_core_reports_uninit_not_stale(self):
        """Same buggy kernel on a fresh core: nothing was freed yet, so
        the diagnosis is uninit-read."""
        with pytest.raises(SanitizerError, match="uninit-read"):
            run_sanitized(self._stale_reader(), GlobalMemory())


class TestRaceAudit:
    def _timed(self, prog, cost=None):
        from repro.sim import SERIAL

        return SERIAL.trace(prog, cost or ASCEND910.cost)

    def test_serial_schedule_is_clean(self):
        prog, gm = build_pool_kernel()
        assert audit_races(prog, self._timed(prog)) == []

    def test_pipelined_kernel_schedules_are_clean(self):
        from repro.sim import PIPELINED

        prog, _ = build_pool_kernel()
        assert audit_races(prog, PIPELINED.trace(prog, ASCEND910.cost)) == []

    def _conflicting_program(self):
        prog = Program("racy")
        ub = MemRef("UB", 0, 128, FLOAT16)
        prog.emit(DataMove(MemRef("x", 0, 128, FLOAT16), ub))
        prog.emit(VectorDup(VectorOperand(ub), 0.0, Mask.full(), 1))
        return prog

    def test_cross_unit_race_detected(self):
        prog = self._conflicting_program()
        trace = Trace(
            [
                TraceRecord("data_move", "mte", 10, 1, None, 0, 10),
                TraceRecord("vector_dup", "vector", 8, 1, 0.0, 5, 13),
            ]
        )
        found = audit_races(prog, trace)
        assert [v.kind for v in found] == ["race"]
        assert "overlapping-in-time" in found[0].message

    def test_same_unit_overlap_detected(self):
        prog = Program("overlap")
        a = MemRef("UB", 0, 128, FLOAT16)
        b = MemRef("UB", 256, 128, FLOAT16)
        prog.emit(VectorDup(VectorOperand(a), 0.0, Mask.full(), 1))
        prog.emit(VectorDup(VectorOperand(b), 0.0, Mask.full(), 1))
        trace = Trace(
            [
                TraceRecord("vector_dup", "vector", 8, 1, 0.0, 0, 8),
                TraceRecord("vector_dup", "vector", 8, 1, 0.0, 4, 12),
            ]
        )
        found = audit_races(prog, trace)
        assert [v.kind for v in found] == ["unit-overlap"]

    def test_disjoint_cross_unit_overlap_is_fine(self):
        prog = Program("disjoint")
        ub = MemRef("UB", 0, 128, FLOAT16)
        far = MemRef("UB", 4096, 128, FLOAT16)
        prog.emit(DataMove(MemRef("x", 0, 128, FLOAT16), ub))
        prog.emit(VectorDup(VectorOperand(far), 0.0, Mask.full(), 1))
        trace = Trace(
            [
                TraceRecord("data_move", "mte", 10, 1, None, 0, 10),
                TraceRecord("vector_dup", "vector", 8, 1, 0.0, 5, 13),
            ]
        )
        assert audit_races(prog, trace) == []

    def test_untimed_trace_rejected(self):
        prog = self._conflicting_program()
        trace = Trace.from_instructions(prog.instructions, ASCEND910.cost)
        with pytest.raises(SanitizerError, match="timed"):
            audit_races(prog, trace)

    def test_length_mismatch_rejected(self):
        prog = self._conflicting_program()
        trace = Trace(
            [TraceRecord("data_move", "mte", 10, 1, None, 0, 10)]
        )
        with pytest.raises(SanitizerError, match="records"):
            audit_races(prog, trace)

    def test_sanitizer_audit_halts_on_race(self):
        prog = self._conflicting_program()
        san = Sanitizer(ASCEND910)
        san.begin_program(AICore(ASCEND910), prog)
        trace = Trace(
            [
                TraceRecord("data_move", "mte", 10, 1, None, 0, 10),
                TraceRecord("vector_dup", "vector", 8, 1, 0.0, 5, 13),
            ]
        )
        with pytest.raises(SanitizerError, match="race"):
            san.audit(prog, trace)
        assert not san.report.clean


class TestReportMerge:
    def test_merge_concatenates_and_maxes(self):
        a = SanitizerReport(
            programs=1,
            checked_instructions=10,
            coverage={
                "UB": BufferCoverage("UB", 1024, 100, 100, 80, 90),
            },
        )
        b = SanitizerReport(
            programs=2,
            checked_instructions=5,
            coverage={
                "UB": BufferCoverage("UB", 1024, 200, 220, 60, 10),
                "L1": BufferCoverage("L1", 4096, 50, 50, 50, 50),
            },
        )
        a.merge(b)
        assert a.programs == 3
        assert a.checked_instructions == 15
        assert a.coverage["UB"].declared_bytes == 200
        assert a.coverage["UB"].high_water_bytes == 220
        assert a.coverage["UB"].initialized_bytes == 80
        assert a.coverage["UB"].touched_bytes == 90
        assert "L1" in a.coverage


class TestOpsIntegration:
    def test_run_forward_sanitized_clean_and_identical(self):
        x = make_input(9, 9, 16, seed=3)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl("im2col", "max")
        base = run_forward(x, spec, impl, ASCEND910_SINGLE_CORE)
        res = run_forward(
            x, spec, impl, ASCEND910_SINGLE_CORE, sanitize=True
        )
        assert res.sanitizer is not None and res.sanitizer.clean
        assert res.sanitizer.programs >= 1
        assert np.array_equal(res.output, base.output)
        assert res.cycles == base.cycles
        assert base.sanitizer is None

    def test_api_threads_sanitize(self):
        from repro.ops.api import maxpool

        x = make_input(9, 9, 16, seed=3)
        res = maxpool(x, PoolSpec.square(3, 2), sanitize=True)
        assert res.sanitizer is not None and res.sanitizer.clean
