"""Tests for the AI Core executor."""

import numpy as np
import pytest

from repro.config import ASCEND910
from repro.errors import SimulationError
from repro.isa import (
    DataMove,
    Mask,
    MemRef,
    Program,
    VADD,
    VectorDup,
    VectorOperand,
)
from repro.dtypes import FLOAT16
from repro.sim import AICore, GlobalMemory


def simple_program(kb):
    d = kb.alloc("UB", 128)
    prog = Program("t")
    prog.emit(VectorDup(VectorOperand(d), 1.5, Mask.full(), 1))
    return prog, d


class TestAICore:
    def test_buffers_present(self, core):
        assert set(core.buffers) == {"L1", "L0A", "L0B", "L0C", "UB"}

    def test_run_returns_cycles_and_trace(self, core, gm, kb):
        prog, _ = simple_program(kb)
        res = core.run(prog, gm)
        assert res.cycles == prog.static_cycles(ASCEND910.cost)
        assert res.instructions == 1
        assert res.trace.issues("vector_dup") == 1

    def test_trace_disabled(self, core, gm, kb):
        prog, _ = simple_program(kb)
        res = core.run(prog, gm, collect_trace=False)
        assert res.trace.issues() == 0
        assert res.cycles > 0

    def test_jit_is_refused_naming_the_chip(self, core, gm, kb):
        """Compiled kernels run batches of tiles, so the chip is the
        only way into the JIT."""
        prog, _ = simple_program(kb)
        with pytest.raises(SimulationError, match=r"Chip\.run_tiles"):
            core.run(prog, gm, execute="jit")

    def test_gm_access_requires_attachment(self, core):
        # view() outside run() must not silently read stale memory
        with pytest.raises(SimulationError):
            core.view("some_gm_tensor")

    def test_gm_detached_after_run(self, core, gm, kb):
        gm.add("x", np.zeros(4, np.float16))
        prog, _ = simple_program(kb)
        core.run(prog, gm)
        with pytest.raises(SimulationError):
            core.view("x")

    def test_scalar_loop_trips_in_cycles(self, core, gm, kb):
        prog, _ = simple_program(kb)
        base = core.run(prog, gm).cycles
        prog.scalar_loop_trips = 100
        assert core.run(prog, gm).cycles == base + 100 * ASCEND910.cost.loop_cycles

    def test_vector_utilization_reported(self, core, gm, kb):
        d = kb.alloc("UB", 256)
        s = kb.alloc("UB", 256)
        prog = Program("t")
        prog.emit(VADD(VectorOperand(d), VectorOperand(d),
                       VectorOperand(s), Mask.first(16), 1))
        res = core.run(prog, gm)
        assert res.vector_lane_utilization == pytest.approx(0.125)

    def test_failed_instruction_detaches_gm(self, core, gm):
        bad = Program("bad")
        huge = MemRef("UB", ASCEND910.ub_bytes, 128, FLOAT16)
        bad.emit(VectorDup(VectorOperand(huge), 0.0, Mask.full(), 1))
        with pytest.raises(Exception):
            core.run(bad, gm)
        with pytest.raises(SimulationError):
            core.view("anything")


class TestSummaryGuard:
    """``AICore.run`` must reject a precomputed summary that belongs to
    a *different* program instead of silently reporting its cycles."""

    def _two_programs(self, kb):
        prog, _ = simple_program(kb)
        other = Program("other")
        d = kb.alloc("UB", 256)
        s = kb.alloc("UB", 256)
        other.emit(VADD(VectorOperand(d), VectorOperand(d),
                        VectorOperand(s), Mask.full(), 1))
        other.emit(VADD(VectorOperand(d), VectorOperand(d),
                        VectorOperand(s), Mask.full(), 1))
        return prog, other

    def test_matching_summary_accepted(self, core, gm, kb):
        from repro.sim import summarize

        prog, _ = simple_program(kb)
        summary = summarize(prog, ASCEND910)
        res = core.run(prog, gm, execute="cycles", summary=summary)
        assert res is summary

    def test_instruction_count_mismatch_raises(self, core, gm, kb):
        from repro.sim import summarize

        prog, other = self._two_programs(kb)
        summary = summarize(other, ASCEND910)
        with pytest.raises(SimulationError, match="summary"):
            core.run(prog, gm, execute="cycles", summary=summary)

    def test_name_mismatch_raises(self, core, gm, kb):
        from repro.sim import summarize

        prog, other = self._two_programs(kb)
        # Same instruction count, different program name.
        renamed = Program("imposter")
        renamed.instructions = list(prog.instructions)
        summary = summarize(renamed, ASCEND910)
        with pytest.raises(SimulationError, match="summary"):
            core.run(prog, gm, execute="cycles", summary=summary)


class TestLaneUtilizationGuard:
    """``RunResult.vector_lane_utilization`` must refuse to answer for
    a trace that was never collected -- an empty record list would
    silently read as "no vector instructions"."""

    def test_uncollected_trace_raises(self, core, gm, kb):
        d = kb.alloc("UB", 256)
        s = kb.alloc("UB", 256)
        prog = Program("t")
        prog.emit(VADD(VectorOperand(d), VectorOperand(d),
                       VectorOperand(s), Mask.first(16), 1))
        res = core.run(prog, gm, collect_trace=False)
        with pytest.raises(SimulationError, match="collect"):
            res.vector_lane_utilization

    def test_no_vector_instructions_is_none(self, core, gm, kb):
        d = kb.alloc("UB", 64)
        prog = Program("dma-only")
        prog.emit(DataMove(MemRef("x", 0, 64, FLOAT16), d))
        gm.add("x", np.zeros(64, np.float16))
        res = core.run(prog, gm)
        assert res.vector_lane_utilization is None


class TestSummaryGuardAcrossModels:
    """The summary-mismatch guard is model-independent: both timing
    models reject a summary built for a different program."""

    @pytest.mark.parametrize("model", ["serial", "pipelined"])
    def test_mismatch_rejected(self, core, gm, model, kb):
        from repro.sim import summarize

        prog = Program("a")
        d = kb.alloc("UB", 128)
        prog.emit(VectorDup(VectorOperand(d), 1.0, Mask.full(), 1))
        other = Program("b")
        other.emit(VectorDup(VectorOperand(d), 1.0, Mask.full(), 1))
        other.emit(VectorDup(VectorOperand(d), 2.0, Mask.full(), 1))
        summary = summarize(other, ASCEND910, model=model)
        with pytest.raises(SimulationError, match="summary"):
            core.run(prog, gm, execute="cycles", summary=summary,
                     model=model)

    @pytest.mark.parametrize("model", ["serial", "pipelined"])
    def test_different_tile_slot_rejected(self, core, gm, model, kb):
        """Names compare plainly: a different tile token is a different
        program."""
        from repro.sim import summarize

        d = kb.alloc("UB", 128)
        prog = Program("pool-t2")
        prog.emit(VectorDup(VectorOperand(d), 1.5, Mask.full(), 1))
        summary = summarize(prog, ASCEND910, model=model)
        other = Program("pool-t3")
        other.emit(VectorDup(VectorOperand(d), 1.5, Mask.full(), 1))
        with pytest.raises(SimulationError, match="summary"):
            core.run(other, gm, execute="cycles", summary=summary,
                     model=model)
