"""Tests for the pluggable timing models (``repro.sim.scheduler``)."""

import pytest

from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
from repro.dtypes import FLOAT16
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
from repro.ops import PoolSpec, forward_impl, forward_variants, run_forward
from repro.sim import (
    MODELS,
    PIPELINED,
    SERIAL,
    PipelinedModel,
    SerialModel,
    resolve_model,
    summarize,
)
from repro.workloads import make_input

COST = ASCEND910.cost


def vops(offset=0, n=128):
    d = MemRef("UB", offset, n, FLOAT16)
    s = MemRef("UB", offset + 4096, n, FLOAT16)
    return VectorOperand(d), VectorOperand(s)


def dma_in(ub_offset=0, n=128):
    """Global-memory load into UB[ub_offset : ub_offset+n]."""
    return DataMove(
        MemRef("x", 0, n, FLOAT16), MemRef("UB", ub_offset, n, FLOAT16)
    )


class TestResolveModel:
    def test_none_is_serial(self):
        assert resolve_model(None) is SERIAL

    def test_names(self):
        assert resolve_model("serial") is SERIAL
        assert resolve_model("pipelined") is PIPELINED

    def test_instance_passthrough(self):
        m = PipelinedModel()
        assert resolve_model(m) is m

    def test_unknown_raises(self):
        with pytest.raises(SimulationError, match="unknown timing model"):
            resolve_model("speculative")

    def test_registry_names(self):
        assert set(MODELS) == {"serial", "pipelined"}
        assert isinstance(MODELS["serial"], SerialModel)
        assert isinstance(MODELS["pipelined"], PipelinedModel)


class TestSerialModel:
    def test_program_cycles_is_plain_sum(self):
        p = Program("k")
        d, s = vops()
        i1 = p.emit(VectorDup(d, 0.0, Mask.full(), 3))
        i2 = p.emit(VADD(d, d, s, Mask.full(), 2))
        p.scalar_loop_trips = 7
        want = i1.cycles(COST) + i2.cycles(COST) + 7 * COST.loop_cycles
        assert SERIAL.program_cycles(p, COST) == want
        assert p.static_cycles(COST) == want  # default model is serial
        assert p.static_cycles(COST, model="serial") == want

    def test_schedule_is_prefix_sums(self):
        p = Program("k")
        d, s = vops()
        p.emit(VectorDup(d, 0.0, Mask.full(), 1))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        p.emit(dma_in())
        sched = SERIAL.schedule(p, COST)
        t = 0
        for instr, timing in zip(p.instructions, sched.timings):
            assert timing.issue == t
            t += instr.cycles(COST)
            assert timing.retire == t
        assert sched.makespan == t

    def test_unit_busy_matches_unit_cycles(self):
        p = Program("k")
        d, s = vops()
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.emit(dma_in())
        sched = SERIAL.schedule(p, COST)
        assert sched.unit_busy == p.unit_cycles(COST)

    def test_occupancy_sums_to_one_for_serial(self):
        p = Program("k")
        d, s = vops()
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.emit(dma_in())
        occ = SERIAL.schedule(p, COST).occupancy()
        assert sum(occ.values()) == pytest.approx(1.0)


class TestPipelinedModel:
    def test_independent_units_overlap(self):
        """An MTE load into one UB region and vector work on a disjoint
        region issue concurrently: makespan < serial sum."""
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 4))
        sched = PIPELINED.schedule(p, COST)
        assert sched.timings[0].issue == 0
        assert sched.timings[1].issue == 0  # no hazard, no wait
        assert sched.makespan < SERIAL.program_cycles(p, COST)
        assert sched.makespan == max(t.retire for t in sched.timings)

    def test_raw_hazard_serialises(self):
        """A vector read of the region an MTE load writes must wait for
        the load to retire."""
        p = Program("k")
        load = p.emit(dma_in(ub_offset=0, n=128))
        d = VectorOperand(MemRef("UB", 8192, 128, FLOAT16))
        s = VectorOperand(MemRef("UB", 0, 128, FLOAT16))
        p.emit(VADD(d, s, s, Mask.full(), 1))
        sched = PIPELINED.schedule(p, COST)
        assert sched.timings[1].issue == load.cycles(COST)
        assert sched.makespan == SERIAL.program_cycles(p, COST)

    def test_war_hazard_serialises(self):
        """An MTE store over a region the vector unit is still reading
        must wait for the read to retire."""
        p = Program("k")
        d, s = vops(offset=0)
        rd = p.emit(VADD(d, d, s, Mask.full(), 1))
        # Overwrite the *source* region the vadd reads.
        p.emit(
            DataMove(
                MemRef("x", 0, 128, FLOAT16),
                MemRef("UB", 4096, 128, FLOAT16),
            )
        )
        sched = PIPELINED.schedule(p, COST)
        assert sched.timings[1].issue == rd.cycles(COST)

    def test_same_unit_stays_in_order(self):
        p = Program("k")
        p.emit(dma_in(ub_offset=0))
        p.emit(dma_in(ub_offset=8192))  # disjoint, but same unit
        sched = PIPELINED.schedule(p, COST)
        assert sched.timings[1].issue == sched.timings[0].retire

    def test_scalar_loop_trips_extend_makespan(self):
        p = Program("k")
        d, s = vops()
        p.emit(VADD(d, d, s, Mask.full(), 1))
        p.scalar_loop_trips = 1000
        assert (
            PIPELINED.schedule(p, COST).makespan
            >= 1000 * COST.loop_cycles
        )

    def test_trace_carries_issue_and_retire(self):
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 1))
        trace = PIPELINED.trace(p, COST)
        sched = PIPELINED.schedule(p, COST)
        for rec, t in zip(trace.records, sched.timings):
            assert rec.issue_at == t.issue
            assert rec.retire_at == t.retire
            assert rec.cycles == t.cycles
        assert trace.makespan() == sched.makespan == p.static_cycles(
            COST, model="pipelined"
        )

    def test_unit_cycles_model_independent(self):
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        p.scalar_loop_trips = 3
        assert p.unit_cycles(COST) == p.unit_cycles(
            COST, model="pipelined"
        )


class TestMakespanInvariant:
    """pipelined <= serial on every real lowered kernel."""

    @pytest.mark.parametrize(
        "name,op,with_mask",
        [(n, o, m) for n, o, m in forward_variants()],
    )
    def test_forward_kernels(self, name, op, with_mask):
        x = make_input(13, 13, 16, seed=0)
        spec = PoolSpec.square(3, 2)
        impl = forward_impl(name, op, with_mask)
        serial = run_forward(
            x, spec, impl, ASCEND910_SINGLE_CORE,
            collect_trace=False, execute="cycles",
        )
        pipe = run_forward(
            x, spec, impl, ASCEND910_SINGLE_CORE,
            collect_trace=False, execute="cycles", model="pipelined",
        )
        assert pipe.cycles <= serial.cycles
        assert pipe.timing_model == "pipelined"
        assert serial.timing_model == "serial"

    def test_numeric_outputs_identical_across_models(self):
        import numpy as np

        x = make_input(12, 12, 16, seed=3)
        spec = PoolSpec.square(2, 2)
        impl = forward_impl("im2col", "max")
        serial = run_forward(x, spec, impl, ASCEND910_SINGLE_CORE)
        pipe = run_forward(
            x, spec, impl, ASCEND910_SINGLE_CORE, model="pipelined"
        )
        assert np.array_equal(serial.output, pipe.output)
        assert pipe.cycles <= serial.cycles


class TestCacheModelSeparation:
    """Timing models share a cached program but never a summary."""

    def _program(self):
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        return p

    def _plan(self):
        from repro.plan import plan_default

        return plan_default(
            "fwd", forward_impl("im2col", "max"), PoolSpec.square(2, 2),
            FLOAT16, 1, 1, 8, 8, ASCEND910,
        )

    def test_models_share_program_not_summary(self):
        from dataclasses import replace

        from repro.sim import ProgramCache, plan_key

        cache = ProgramCache()
        plan = self._plan()
        builds = []
        programs, summaries = {}, {}
        for model in ("serial", "pipelined"):
            key = plan_key(replace(plan, model=model), (2,), ASCEND910)
            programs[model] = cache.get_or_build(
                key, lambda: builds.append(model) or self._program()
            )
            summaries[model] = cache.summary(
                key, programs[model], ASCEND910, model=model
            )
        assert builds == ["serial"] and len(cache) == 1
        assert programs["serial"] is programs["pipelined"]
        assert summaries["serial"] is not summaries["pipelined"]
        assert summaries["serial"].cycles != summaries["pipelined"].cycles

    def test_summaries_memoized_per_model(self):
        from dataclasses import replace

        from repro.sim import ProgramCache, plan_key

        cache = ProgramCache()
        prog = self._program()
        plan = self._plan()
        results = {}
        for model in ("serial", "pipelined"):
            key = plan_key(replace(plan, model=model), (2,), ASCEND910)
            got = cache.get_or_build(key, lambda: prog)
            results[model] = cache.summary(
                key, got, ASCEND910, model=model
            )
        assert results["serial"].cycles == prog.static_cycles(COST)
        assert results["pipelined"].cycles == prog.static_cycles(
            COST, model="pipelined"
        )
        assert results["pipelined"].cycles < results["serial"].cycles


class TestSummarizeHelper:
    def test_traced_pipelined_summary_schedules_once(self, monkeypatch):
        calls = []
        real = PipelinedModel.schedule

        def counting(self, program, cost):
            calls.append(program)
            return real(self, program, cost)

        monkeypatch.setattr(PipelinedModel, "schedule", counting)
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        res = summarize(p, ASCEND910, model="pipelined", collect_trace=True)
        assert calls == [p]
        assert res.cycles == max(r.retire_at for r in res.trace.records)
        assert res.cycles == p.static_cycles(COST, model="pipelined")

    def test_summarize_matches_models(self):
        p = Program("k")
        d, s = vops(offset=16384)
        p.emit(dma_in(ub_offset=0))
        p.emit(VADD(d, d, s, Mask.full(), 2))
        for model in ("serial", "pipelined"):
            res = summarize(p, ASCEND910, model=model)
            assert res.cycles == p.static_cycles(
                ASCEND910.cost, model=model
            )
            assert res.instructions == len(p)
            assert res.trace.collected
