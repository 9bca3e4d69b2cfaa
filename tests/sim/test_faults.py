"""Tests for deterministic fault injection and resilient dispatch.

Covers the failure model (:mod:`repro.sim.faults`) and the recovery
machinery in :meth:`repro.sim.Chip.run_tiles` /
:meth:`run_tile_groups`: retry with backoff, reassignment, quarantine,
global-memory rollback, graceful degradation and the tile-coverage
ledger -- plus the zero-cost-when-idle contract.
"""

import numpy as np
import pytest

from repro.config import ASCEND910, ChipConfig
from repro.dtypes import FLOAT16
from repro.errors import (
    CoreFailure,
    DeadlineExceeded,
    FaultInjectionError,
    SimulationError,
)
from repro.isa import DataMove, Mask, MemRef, Program, VectorDup, VectorOperand
from repro.sim import (
    AICore,
    BitFlip,
    Chip,
    CoverageLedger,
    Crash,
    Deadline,
    FaultInjector,
    FaultPlan,
    GlobalMemory,
    ResilienceReport,
    RetryPolicy,
    Stall,
    WorkItem,
    resolve_injector,
)
from repro.sim.aicore import summarize

CFG2 = ChipConfig(num_cores=2)
CFG4 = ChipConfig(num_cores=4)
LAUNCH = CFG2.cost.tile_launch_cycles


def store_program(name="t", value=1.0, out="out", offset=0, accumulate=False):
    """dup ``value`` into UB then DMA it to global ``out``."""
    ub = MemRef("UB", 0, 128, FLOAT16)
    p = Program(name)
    p.emit(VectorDup(VectorOperand(ub), value, Mask.full(), 1))
    p.emit(DataMove(ub, MemRef(out, offset, 128, FLOAT16),
                    accumulate=accumulate))
    return p


def copy_program(name="c", src="x", dst="out"):
    """GM -> UB -> GM round trip (so a UB flip corrupts the output)."""
    ub = MemRef("UB", 0, 128, FLOAT16)
    p = Program(name)
    p.emit(DataMove(MemRef(src, 0, 128, FLOAT16), ub))
    p.emit(DataMove(ub, MemRef(dst, 0, 128, FLOAT16)))
    return p


def fresh_gm(*names):
    gm = GlobalMemory()
    for nm in names:
        gm.zeros(nm, 256, FLOAT16)
    return gm


class TestFaultValidation:
    def test_negative_tile_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((Stall(tile=-1, cycles=5),))

    def test_negative_core_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((Crash(tile=0, core=-2),))

    def test_empty_attempts_rejected(self):
        with pytest.raises(FaultInjectionError, match="attempts"):
            FaultPlan((Crash(tile=0, attempts=()),))

    def test_negative_attempt_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((Stall(tile=0, cycles=5, attempts=(-1,)),))

    def test_zero_stall_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((Stall(tile=0, cycles=0),))

    def test_bad_deadline_budget_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((Deadline(tile=0, budget=0),))

    def test_negative_bitflip_fields_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan((BitFlip(tile=0, offset=-1),))
        with pytest.raises(FaultInjectionError):
            FaultPlan((BitFlip(tile=0, bit=-1),))
        with pytest.raises(FaultInjectionError):
            FaultPlan((BitFlip(tile=0, buffer=""),))

    def test_retry_policy_validation(self):
        with pytest.raises(FaultInjectionError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(backoff_factor=0)
        with pytest.raises(FaultInjectionError):
            RetryPolicy(quarantine_after=0)

    def test_injector_requires_plan(self):
        with pytest.raises(FaultInjectionError):
            FaultInjector([Stall(0, 5)])  # list, not FaultPlan

    def test_resolve_injector_normalises(self):
        assert resolve_injector(None) is None
        plan = FaultPlan((Stall(0, 5),))
        inj = resolve_injector(plan)
        assert isinstance(inj, FaultInjector)
        assert resolve_injector(inj) is inj


class TestFaultPlanGenerate:
    def test_deterministic_per_seed(self):
        a = FaultPlan.generate(7, num_tiles=50, num_cores=4)
        b = FaultPlan.generate(7, num_tiles=50, num_cores=4)
        assert a == b
        assert a != FaultPlan.generate(8, num_tiles=50, num_cores=4)

    def test_faults_target_valid_tiles(self):
        plan = FaultPlan.generate(0, num_tiles=40, num_cores=4)
        assert plan.faults  # rate 0.35 over 40 tiles
        for f in plan.faults:
            assert 0 <= f.tile < 40
            assert f.core is None or 0 <= f.core < 4
            assert f.attempts in ((0,), (0, 1))

    def test_recoverable_by_construction(self):
        """Generated faults never fire on the default policy's last
        clean attempts (attempts 2 and 3)."""
        plan = FaultPlan.generate(3, num_tiles=80, num_cores=4)
        policy = RetryPolicy()
        for f in plan.faults:
            assert max(f.attempts) < policy.max_attempts - 1

    def test_rate_zero_empty(self):
        assert len(FaultPlan.generate(0, num_tiles=20, rate=0.0)) == 0

    def test_bad_args_rejected(self):
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(0, num_tiles=-1)
        with pytest.raises(FaultInjectionError):
            FaultPlan.generate(0, num_tiles=5, rate=1.5)


class TestInjectorMatching:
    def test_no_match_returns_none(self):
        inj = FaultInjector(FaultPlan((Stall(3, 10),)))
        assert inj.injection(0, 0, 0) is None
        assert inj.injection(3, 0, 1) is None  # attempts=(0,)

    def test_core_binding(self):
        inj = FaultInjector(FaultPlan((Crash(0, core=1),)))
        assert inj.injection(0, 0, 0) is None
        got = inj.injection(0, 1, 0)
        assert got is not None and got.crash_at == 0

    def test_attempts_none_fires_always(self):
        inj = FaultInjector(FaultPlan((Stall(0, 10, attempts=None),)))
        for attempt in range(5):
            assert inj.injection(0, 0, attempt).stall == 10

    def test_aggregation(self):
        plan = FaultPlan((
            Stall(0, 10), Stall(0, 5),
            Crash(0, at_instruction=9), Crash(0, at_instruction=4),
            Deadline(0, budget=100), Deadline(0, budget=50),
        ))
        got = FaultInjector(plan).injection(0, 0, 0)
        assert got.stall == 15
        assert got.crash_at == 4
        assert got.deadline == 50
        assert got.can_fail

    def test_stall_only_cannot_fail(self):
        got = FaultInjector(FaultPlan((Stall(0, 10),))).injection(0, 0, 0)
        assert not got.can_fail


class TestStall:
    def test_stall_slows_without_failing(self):
        progs = [store_program(f"t{i}", offset=128 * i) for i in range(2)]
        base = Chip(CFG2).run_tiles(progs, fresh_gm("out"))
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(
            progs, gm,
            faults=FaultPlan((Stall(0, cycles=77),)),
        )
        rep = res.resilience
        assert rep is not None
        assert rep.stall_cycles == 77 and rep.retries == 0
        assert not rep.failures
        assert res.total_work_cycles == base.total_work_cycles + 77
        assert np.all(gm.view("out")[:256] == 1.0)


class TestCrashRetry:
    def test_crash_retries_and_recovers(self):
        progs = [store_program(f"t{i}", offset=128 * i) for i in range(2)]
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(
            progs, gm, faults=FaultPlan((Crash(0, at_instruction=1),)),
        )
        rep = res.resilience
        assert rep.retries == 1
        assert rep.reassignments == 1  # moved to the other core
        assert rep.failures[0].error == "CoreFailure"
        assert rep.failures[0].tile == 0
        assert rep.backoff_cycles == RetryPolicy().backoff(1)
        assert np.all(gm.view("out")[:256] == 1.0)

    def test_crash_past_end_fires_after_last_instruction(self):
        gm = fresh_gm("out")
        core = AICore(CFG2)
        inj = FaultInjector(
            FaultPlan((Crash(0, at_instruction=99),))
        ).injection(0, 0, 0)
        with pytest.raises(CoreFailure, match="2/2"):
            core.run(store_program(), gm, injection=inj)
        # the whole program ran before the crash
        assert np.all(gm.view("out")[:128] == 1.0)

    def test_retry_exhaustion_raises(self):
        progs = [store_program()]
        with pytest.raises(SimulationError, match="retry budget"):
            Chip(CFG2).run_tiles(
                progs, fresh_gm("out"),
                faults=FaultPlan((Crash(0, attempts=None),)),
                retry=RetryPolicy(max_attempts=2),
            )

    def test_cycles_mode_crash_retries(self):
        progs = [store_program(f"t{i}") for i in range(2)]
        res = Chip(CFG2).run_tiles(
            progs, None, execute="cycles",
            faults=FaultPlan((Crash(1, at_instruction=0),)),
        )
        assert res.resilience.retries == 1
        base = Chip(CFG2).run_tiles(progs, None, execute="cycles")
        assert res.cycles >= base.cycles


class TestBitFlip:
    def test_detected_flip_recovers_bit_identical(self):
        gm = fresh_gm("x", "out")
        gm.view("x")[:128] = np.arange(128, dtype=np.float16)
        res = Chip(CFG2).run_tiles(
            [copy_program()], gm,
            faults=FaultPlan(
                (BitFlip(0, offset=3, bit=9, at_instruction=1),)
            ),
        )
        assert res.resilience.retries == 1
        assert res.resilience.failures[0].error == "CoreFailure"
        assert np.array_equal(
            gm.view("out")[:128], gm.view("x")[:128]
        )

    def test_undetected_flip_caught_by_oracle(self):
        """A silent flip propagates to the output -- which is exactly
        what the reference-oracle comparison exists to catch."""
        gm = fresh_gm("x", "out")
        gm.view("x")[:128] = np.arange(128, dtype=np.float16)
        res = Chip(CFG2).run_tiles(
            [copy_program()], gm,
            faults=FaultPlan(
                (BitFlip(0, offset=3, bit=9, at_instruction=1,
                         detected=False),)
            ),
        )
        assert res.resilience.retries == 0
        out = gm.view("out")[:128]
        assert not np.array_equal(out, gm.view("x")[:128])
        # exactly one element differs: the flipped one
        assert int(np.sum(out != gm.view("x")[:128])) == 1

    def test_unknown_buffer_rejected(self):
        gm = fresh_gm("out")
        with pytest.raises(FaultInjectionError, match="NOPE"):
            Chip(CFG2).run_tiles(
                [store_program()], gm,
                faults=FaultPlan((BitFlip(0, buffer="NOPE"),)),
            )


class TestDeadline:
    def test_tiny_budget_fails_then_recovers(self):
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(
            [store_program()], gm,
            faults=FaultPlan((Deadline(0, budget=1),)),
        )
        rep = res.resilience
        assert rep.retries == 1
        assert rep.failures[0].error == "DeadlineExceeded"
        assert np.all(gm.view("out")[:128] == 1.0)

    def test_generous_budget_never_fires(self):
        res = Chip(CFG2).run_tiles(
            [store_program()], fresh_gm("out"),
            faults=FaultPlan((Deadline(0, budget=10**9),)),
        )
        assert res.resilience.retries == 0
        assert not res.resilience.failures

    def test_stall_counts_against_budget(self):
        prog = store_program()
        cycles = summarize(prog, CFG2).cycles
        res = Chip(CFG2).run_tiles(
            [prog], fresh_gm("out"),
            faults=FaultPlan((
                Stall(0, cycles=cycles + 1, attempts=(0,)),
                Deadline(0, budget=2 * cycles, attempts=(0,)),
            )),
        )
        assert res.resilience.failures[0].error == "DeadlineExceeded"


class TestRollback:
    def test_accumulate_store_not_double_counted(self):
        """A crashed attempt's partial accumulate-DMA is rolled back, so
        the retry does not double-add."""
        gm = fresh_gm("out")
        prog = store_program(accumulate=True)
        res = Chip(CFG2).run_tiles(
            [prog], gm,
            # crash *after* the accumulate store retired
            faults=FaultPlan((Crash(0, at_instruction=2),)),
        )
        assert res.resilience.retries == 1
        assert np.all(gm.view("out")[:128] == 1.0)  # not 2.0


class TestQuarantineAndReassignment:
    def test_core_quarantined_after_k_failures(self):
        # tiles 0 and 2 land on core 0; make core 0 fail once per tile
        progs = [store_program(f"t{i}", offset=128 * i % 256)
                 for i in range(4)]
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(
            progs, gm,
            faults=FaultPlan((
                Crash(0, core=0), Crash(2, core=0),
            )),
            retry=RetryPolicy(quarantine_after=2),
        )
        rep = res.resilience
        assert rep.quarantined_cores == (0,)
        assert rep.retries == 2
        # after quarantine, later tiles placed on core 0 are reassigned
        assert rep.reassignments >= 2

    def test_single_core_chip_retries_in_place(self):
        cfg = ChipConfig(num_cores=1)
        gm = fresh_gm("out")
        res = Chip(cfg).run_tiles(
            [store_program()], gm,
            faults=FaultPlan((Crash(0, at_instruction=0),)),
        )
        rep = res.resilience
        assert rep.retries == 1 and rep.reassignments == 0
        assert np.all(gm.view("out")[:128] == 1.0)


class TestCoverageLedger:
    def test_double_completion_rejected(self):
        led = CoverageLedger()
        led.record(0)
        with pytest.raises(SimulationError, match="twice"):
            led.record(0, attempt=1)

    def test_audit_gap_rejected(self):
        led = CoverageLedger()
        led.record(0)
        led.record(2)
        with pytest.raises(SimulationError, match="missing \\[1\\]"):
            led.audit(3)

    def test_audit_unknown_rejected(self):
        led = CoverageLedger()
        led.record(5)
        with pytest.raises(SimulationError, match="unknown \\[5\\]"):
            led.audit(1)

    def test_audit_passes_exact_cover(self):
        led = CoverageLedger()
        for t in range(4):
            led.record(t, attempt=t % 2)
        led.audit(4)

    def test_corrupted_dispatch_caught_by_audit(self, monkeypatch):
        """A dispatcher bug that skips a tile's completion is caught by
        the audit, not silently returned."""
        from repro.sim import chip as chip_mod

        real = chip_mod._ResilientDispatch.run_item

        def skip_ledger(self, tile, core_id, item):
            if tile == 1:  # complete the tile but "forget" the record
                cid, res = real(self, tile, core_id, item)
                del self.ledger._completed[tile]
                return cid, res
            return real(self, tile, core_id, item)

        monkeypatch.setattr(
            chip_mod._ResilientDispatch, "run_item", skip_ledger
        )
        progs = [store_program(f"t{i}") for i in range(2)]
        with pytest.raises(SimulationError, match="audit"):
            Chip(CFG2).run_tiles(
                progs, fresh_gm("out"), retry=RetryPolicy(),
            )


class TestDegradation:
    def test_cached_to_fresh(self):
        """A summary built for a different program degrades to fresh
        accounting under the resilient dispatcher instead of aborting.
        """
        prog = store_program("real")
        wrong = summarize(Program("other"), CFG2)
        # historical path: hard error
        item = [[WorkItem(prog, wrong)]]
        with pytest.raises(SimulationError, match="summary mismatch"):
            Chip(CFG2).run_tile_groups(item, fresh_gm("out"))
        # resilient path: degradation event + correct accounting
        res = Chip(CFG2).run_tile_groups(
            item, fresh_gm("out"), retry=RetryPolicy(),
        )
        rep = res.resilience
        assert [d.kind for d in rep.degradations] == ["cached-to-fresh"]
        assert res.per_tile[0].cycles == summarize(prog, CFG2).cycles

    def test_pipelined_to_serial(self):
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(
            [store_program()], gm, model="pipelined",
            faults=FaultPlan((Crash(0, attempts=(0, 1)),)),
            retry=RetryPolicy(degrade_model_after=2),
        )
        rep = res.resilience
        kinds = [d.kind for d in rep.degradations]
        assert "pipelined-to-serial" in kinds
        assert rep.retries == 2
        # the final (serial) attempt still completed the tile
        assert np.all(gm.view("out")[:128] == 1.0)


class TestZeroCostWhenIdle:
    def test_no_faults_no_report(self):
        res = Chip(CFG2).run_tiles([store_program()], fresh_gm("out"))
        assert res.resilience is None

    def test_empty_plan_identical_cycles_clean_report(self):
        progs = [store_program(f"t{i}", offset=128 * i % 256)
                 for i in range(5)]
        base = Chip(CFG2).run_tiles(progs, fresh_gm("out"))
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tiles(progs, gm, faults=FaultPlan(()))
        assert res.resilience is not None and res.resilience.clean
        assert res.cycles == base.cycles
        assert res.total_work_cycles == base.total_work_cycles
        assert res.per_core_cycles == base.per_core_cycles

    def test_groups_empty_plan_identical(self):
        g = [WorkItem(store_program(f"g{i}")) for i in range(3)]
        base = Chip(CFG2).run_tile_groups([g, g], fresh_gm("out"))
        res = Chip(CFG2).run_tile_groups([g, g], fresh_gm("out"),
                                         retry=RetryPolicy())
        assert res.cycles == base.cycles
        assert res.per_core_cycles == base.per_core_cycles
        assert res.resilience.clean


class TestGroupedResilience:
    def test_reassigned_tile_drags_group(self):
        """After a mid-group failure moves the tile, the remainder of
        the group follows it (one-core serialisation preserved)."""
        g0 = [WorkItem(store_program(f"a{i}", offset=0)) for i in range(3)]
        g1 = [WorkItem(store_program(f"b{i}", offset=128)) for i in range(2)]
        gm = fresh_gm("out")
        res = Chip(CFG2).run_tile_groups(
            [g0, g1], gm,
            # tile index 1 = second program of group 0 (flat order)
            faults=FaultPlan((Crash(1, core=0),)),
        )
        rep = res.resilience
        assert rep.retries == 1 and rep.reassignments == 1
        assert np.all(gm.view("out")[:256] == 1.0)

    def test_determinism_same_plan_same_report(self):
        plan = FaultPlan.generate(11, num_tiles=6, num_cores=2)
        progs = [store_program(f"t{i}", offset=128 * (i % 2))
                 for i in range(6)]

        def once():
            gm = fresh_gm("out")
            res = Chip(CFG2).run_tiles(progs, gm, faults=plan)
            return res, gm.view("out").copy()

        (res_a, out_a), (res_b, out_b) = once(), once()
        assert res_a.resilience == res_b.resilience
        assert res_a.cycles == res_b.cycles
        assert res_a.per_core_cycles == res_b.per_core_cycles
        assert np.array_equal(out_a, out_b)


class TestResilienceReport:
    def test_extra_cycles_and_clean(self):
        rep = ResilienceReport(stall_cycles=5, backoff_cycles=7)
        assert rep.extra_cycles == 12 and not rep.clean
        assert ResilienceReport().clean

    def test_to_dict_round_trips_counters(self):
        import json

        res = Chip(CFG2).run_tiles(
            [store_program()], fresh_gm("out"),
            faults=FaultPlan((Crash(0, at_instruction=0),)),
        )
        payload = json.loads(json.dumps(res.resilience.to_dict()))
        assert payload["retries"] == 1
        assert payload["plan_faults"] == 1
        assert payload["failures"][0]["error"] == "CoreFailure"


class TestSilentOnlyPlans:
    """``FaultPlan.silent_only`` and the JIT-path flip applicator."""

    def test_silent_only_property(self):
        assert FaultPlan(faults=()).silent_only
        assert FaultPlan(
            (BitFlip(tile=0, detected=False),
             BitFlip(tile=1, detected=False)),
        ).silent_only
        # The BitFlip default models ECC memory (detected=True).
        assert not FaultPlan((BitFlip(tile=0),)).silent_only
        assert not FaultPlan((Crash(tile=0),)).silent_only
        assert not FaultPlan(
            (BitFlip(tile=0, detected=False), Stall(tile=0, cycles=4)),
        ).silent_only

    def test_apply_rejects_failing_injection(self):
        from repro.sim.faults import Injection, apply_silent_flips_to_gm

        inj = Injection(tile=0, core=0, attempt=0, crash_at=0)
        with pytest.raises(FaultInjectionError, match="undetected"):
            apply_silent_flips_to_gm(fresh_gm("out"), store_program(), inj)

    def test_apply_rejects_programs_without_gm_writes(self):
        from repro.sim.faults import Injection, apply_silent_flips_to_gm

        ub = MemRef("UB", 0, 128, FLOAT16)
        p = Program("scratch-only")
        p.emit(VectorDup(VectorOperand(ub), 1.0, Mask.full(), 1))
        inj = Injection(
            tile=0, core=0, attempt=0,
            bitflips=(BitFlip(tile=0, detected=False),),
        )
        with pytest.raises(FaultInjectionError, match="writes no"):
            apply_silent_flips_to_gm(fresh_gm("out"), p, inj)

    def test_apply_flips_exactly_one_bit(self):
        from repro.sim.faults import Injection, apply_silent_flips_to_gm

        gm = fresh_gm("out")
        before = gm.tensors["out"].view(np.uint16).copy()
        inj = Injection(
            tile=0, core=0, attempt=0,
            bitflips=(
                BitFlip(tile=0, offset=5, bit=3, detected=False),
            ),
        )
        apply_silent_flips_to_gm(gm, store_program(), inj)
        diff = gm.tensors["out"].view(np.uint16) ^ before
        assert np.count_nonzero(diff) == 1
        assert diff[5] == 1 << 3

    def test_apply_offset_wraps_modulo_written_elements(self):
        from repro.sim.faults import Injection, apply_silent_flips_to_gm

        gm = fresh_gm("out")
        total = gm.tensors["out"].size
        flip = BitFlip(tile=0, offset=total + 2, bit=1, detected=False)
        inj = Injection(tile=0, core=0, attempt=0, bitflips=(flip,))
        apply_silent_flips_to_gm(gm, store_program(), inj)
        diff = gm.tensors["out"].view(np.uint16)
        assert diff[2] == 1 << 1
        assert np.count_nonzero(diff) == 1

    def test_flip_lands_in_the_tile_window_at_its_delta(self):
        from repro.sim.faults import Injection, apply_silent_flips_to_gm

        gm = fresh_gm("out")
        inj = Injection(
            tile=0, core=0, attempt=0,
            bitflips=(BitFlip(tile=0, offset=128 + 5, bit=3,
                              detected=False),),
        )
        # store_program writes out[0:128]; at delta 128 that is
        # out[128:256], and the offset wraps modulo its 128 elements.
        apply_silent_flips_to_gm(gm, store_program(), inj, {"out": 128})
        diff = gm.tensors["out"].view(np.uint16)
        assert np.flatnonzero(diff).tolist() == [133]
        assert diff[133] == 1 << 3


class TestSilentFlipsUnderJit:
    def test_every_flip_changes_the_output(self):
        """One silent flip per run, on each of 6 tiles at 43 offsets
        spread over the output: each run's output differs from the
        fault-free one (a flip in another tile's window could be
        overwritten by that tile's store)."""
        from repro.ops import PoolSpec
        from repro.ops.registry import forward_impl
        from repro.plan import dispatch, lower, plan_default
        from repro.sim import ProgramCache
        from repro.workloads import make_input

        x = make_input(20, 20, 32, n=1, seed=0)
        assert x.shape == (1, 2, 20, 20, 16)
        plan = plan_default(
            "fwd", forward_impl("im2col", "max"), PoolSpec.square(3, 2),
            FLOAT16, *x.shape[:4], CFG4, execute="jit",
        )
        low = lower(plan, CFG4, cache=ProgramCache())
        assert sum(map(len, low.groups)) == 6
        clean = dispatch(plan, low, CFG4, x=x).output.tobytes()
        same = [
            (tile, offset)
            for tile in range(6)
            for offset in range(0, 43 * 61, 61)
            if dispatch(
                plan, low, CFG4, x=x,
                faults=FaultPlan((BitFlip(
                    tile=tile, offset=offset, detected=False,
                ),)),
            ).output.tobytes() == clean
        ]
        assert same == []
