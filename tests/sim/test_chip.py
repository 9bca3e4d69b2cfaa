"""Tests for the multi-core chip model."""

import numpy as np
import pytest

from repro.config import ASCEND910, ChipConfig
from repro.errors import SimulationError
from repro.isa import DataMove, Mask, MemRef, Program, VectorDup, VectorOperand
from repro.dtypes import FLOAT16
from repro.ops import PoolSpec
from repro.ops.registry import forward_impl
from repro.plan import lower, plan_default
from repro.sim import (
    BitFlip,
    Chip,
    Crash,
    FaultPlan,
    GlobalMemory,
    RetryPolicy,
    WorkItem,
)
from repro.sim.aicore import summarize
from repro.workloads import make_input


def tile_program(repeat=1, offset=0):
    """A tiny program writing `repeat` vector bodies."""
    d = MemRef("UB", offset, 128 * repeat, FLOAT16)
    p = Program(f"tile-{offset}")
    p.emit(VectorDup(VectorOperand(d), 1.0, Mask.full(), repeat))
    return p


def items(groups):
    """Groups of programs as groups of bare work items."""
    return [[WorkItem(p) for p in group] for group in groups]


LAUNCH = ASCEND910.cost.tile_launch_cycles


class TestChip:
    def test_core_count(self):
        assert len(Chip(ASCEND910).cores) == 32

    def test_zero_cores_rejected(self):
        with pytest.raises(SimulationError):
            Chip(ChipConfig(num_cores=0))

    def test_empty_tile_list_rejected(self, gm):
        with pytest.raises(SimulationError):
            Chip(ASCEND910).run_tiles([], gm)

    def test_single_tile_cycles(self, gm):
        chip = Chip(ASCEND910)
        prog = tile_program()
        res = chip.run_tiles([prog], gm)
        assert res.cycles == prog.static_cycles(ASCEND910.cost) + LAUNCH
        assert res.tiles == 1
        assert res.cores_used == 1

    def test_parallel_tiles_makespan_is_max(self, gm):
        # Two tiles on two cores: chip time = the slower one.
        chip = Chip(ASCEND910)
        short = tile_program(repeat=1)
        long = tile_program(repeat=100)
        res = chip.run_tiles([short, long], gm)
        assert res.cycles == long.static_cycles(ASCEND910.cost) + LAUNCH
        assert res.total_work_cycles == (
            short.static_cycles(ASCEND910.cost)
            + long.static_cycles(ASCEND910.cost)
            + 2 * LAUNCH
        )
        assert res.cores_used == 2

    def test_more_tiles_than_cores_round_robin(self, gm):
        cfg = ChipConfig(num_cores=2)
        chip = Chip(cfg)
        tiles = [tile_program(repeat=10) for _ in range(5)]
        res = chip.run_tiles(tiles, gm)
        per = tiles[0].static_cycles(cfg.cost) + LAUNCH
        # core 0 gets 3 tiles, core 1 gets 2
        assert res.cycles == 3 * per
        assert res.cores_used == 2
        assert res.tiles == 5

    def test_groups_serialise_on_one_core(self, gm):
        chip = Chip(ASCEND910)
        group = [tile_program(repeat=10) for _ in range(4)]
        res = chip.run_tile_groups(items([group]), gm)
        per = group[0].static_cycles(ASCEND910.cost) + LAUNCH
        assert res.cycles == 4 * per  # serial, despite 32 cores
        assert res.cores_used == 1

    def test_groups_parallel_across_groups(self, gm):
        chip = Chip(ASCEND910)
        g1 = [tile_program(repeat=10)] * 2
        g2 = [tile_program(repeat=10)] * 2
        res = chip.run_tile_groups(items([g1, g2]), gm)
        per = tile_program(repeat=10).static_cycles(ASCEND910.cost) + LAUNCH
        assert res.cycles == 2 * per
        assert res.cores_used == 2

    def test_empty_group_rejected(self, gm):
        with pytest.raises(SimulationError):
            Chip(ASCEND910).run_tile_groups([[]], gm)

    def test_tiles_share_global_memory(self, rng):
        gm = GlobalMemory()
        gm.zeros("out", 256, FLOAT16)
        chip = Chip(ChipConfig(num_cores=2))
        progs = []
        for t in range(2):
            d = MemRef("UB", 0, 128, FLOAT16)
            p = Program(f"t{t}")
            p.emit(VectorDup(VectorOperand(d), float(t + 1), Mask.full(), 1))
            from repro.isa import DataMove

            p.emit(DataMove(d, MemRef("out", t * 128, 128, FLOAT16)))
            progs.append(p)
        chip.run_tiles(progs, gm)
        out = gm.view("out")
        assert np.all(out[:128] == 1.0)
        assert np.all(out[128:] == 2.0)

    def test_chip_utilization_pooled(self, gm):
        chip = Chip(ASCEND910)
        res = chip.run_tiles([tile_program(), tile_program()], gm)
        assert res.vector_lane_utilization == pytest.approx(1.0)

    def test_chip_utilization_matches_trace_helper(self, gm):
        from repro.sim import pooled_lane_utilization

        chip = Chip(ASCEND910)
        res = chip.run_tiles([tile_program(2), tile_program()], gm)
        records = [
            rec for r in res.per_tile for rec in r.trace.records
        ]
        assert res.vector_lane_utilization == pytest.approx(
            pooled_lane_utilization(records)
        )

    def test_chip_utilization_uncollected_raises(self, gm):
        chip = Chip(ASCEND910)
        res = chip.run_tiles(
            [tile_program(), tile_program()], gm, collect_trace=False
        )
        with pytest.raises(SimulationError, match="collect_trace"):
            res.vector_lane_utilization

    def test_chip_utilization_uncollected_cycles_mode_raises(self):
        chip = Chip(ASCEND910)
        res = chip.run_tiles(
            [tile_program()], None, collect_trace=False, execute="cycles"
        )
        with pytest.raises(SimulationError, match="collect_trace"):
            res.vector_lane_utilization


class TestDispatchValidation:
    def test_negative_index_rejected(self):
        with pytest.raises(SimulationError, match="negative"):
            Chip(ASCEND910)._dispatch(-1)

    def test_matching_summaries_accepted(self, gm):
        cfg = ChipConfig(num_cores=2)
        progs = [tile_program(), tile_program(repeat=2)]
        res = Chip(cfg).run_tile_groups(
            [[WorkItem(p, summarize(p, cfg))] for p in progs], gm
        )
        assert res.tiles == 2
        assert res.per_tile == tuple(summarize(p, cfg) for p in progs)


class TestPerCoreBreakdown:
    def test_per_core_cycles_round_robin(self, gm):
        cfg = ChipConfig(num_cores=2)
        chip = Chip(cfg)
        tiles = [tile_program(repeat=10) for _ in range(5)]
        res = chip.run_tiles(tiles, gm)
        per = tiles[0].static_cycles(cfg.cost) + LAUNCH
        assert res.per_core_cycles == (3 * per, 2 * per)
        assert res.cycles == max(res.per_core_cycles)
        assert res.total_work_cycles == sum(res.per_core_cycles)

    def test_per_core_cycles_idle_cores_zero(self, gm):
        chip = Chip(ChipConfig(num_cores=4))
        res = chip.run_tiles([tile_program()], gm)
        assert len(res.per_core_cycles) == 4
        assert res.per_core_cycles[1:] == (0, 0, 0)
        assert res.cores_used == 1

    def test_load_imbalance_balanced(self, gm):
        chip = Chip(ChipConfig(num_cores=2))
        res = chip.run_tiles(
            [tile_program(repeat=10), tile_program(repeat=10)], gm
        )
        assert res.load_imbalance == pytest.approx(1.0)

    def test_load_imbalance_skewed(self, gm):
        cfg = ChipConfig(num_cores=2)
        chip = Chip(cfg)
        short = tile_program(repeat=1)
        long = tile_program(repeat=100)
        res = chip.run_tiles([long, short], gm)
        a = long.static_cycles(cfg.cost) + LAUNCH
        b = short.static_cycles(cfg.cost) + LAUNCH
        assert res.load_imbalance == pytest.approx(a / ((a + b) / 2))
        assert res.load_imbalance > 1.0

    def test_groups_accounting_matches_dispatch(self, gm):
        cfg = ChipConfig(num_cores=2)
        chip = Chip(cfg)
        g = [tile_program(repeat=5)] * 2
        res = chip.run_tile_groups(items([g, g, g]), gm)
        per = g[0].static_cycles(cfg.cost) + LAUNCH
        # groups 0 and 2 land on core 0, group 1 on core 1
        assert res.per_core_cycles == (4 * per, 2 * per)

    def test_pipelined_model_threads_through_chip(self, gm):
        chip = Chip(ChipConfig(num_cores=2))
        tiles = [tile_program(repeat=10) for _ in range(3)]
        serial = chip.run_tiles(tiles, gm)
        pipe = chip.run_tiles(tiles, gm, model="pipelined")
        assert pipe.cycles <= serial.cycles
        for pa, pb in zip(pipe.per_tile, serial.per_tile):
            assert pa.cycles <= pb.cycles


# ---------------------------------------------------------------------------
# Flat and grouped dispatch are one loop.
# ---------------------------------------------------------------------------

EQ_CFG = ChipConfig(num_cores=4)


def _pool_tiles(execute):
    """Real forward MaxPool tile programs (6 tiles over 4 cores) and a
    global memory to run them against (``None`` in cycles mode)."""
    x = make_input(17, 17, 48, n=1, seed=3)
    plan = plan_default(
        "fwd", forward_impl("im2col", "max"), PoolSpec.square(3, 2),
        FLOAT16, 1, 3, 17, 17, EQ_CFG, execute=execute,
    )
    lowering = lower(plan, EQ_CFG, cache=None)
    progs = [item.program for group in lowering.groups for item in group]

    def fresh_gm():
        if execute == "cycles":
            return None
        gm = GlobalMemory()
        gm.add("x", x)
        oh, ow = plan.out_hw
        gm.zeros("out", plan.num_slices * oh * ow * FLOAT16.c0, FLOAT16)
        return gm

    return progs, fresh_gm


def _eq_cases():
    silent = FaultPlan((BitFlip(tile=2, offset=7, bit=3, detected=False),))
    crash = FaultPlan((
        Crash(tile=1, core=1, at_instruction=2),
        Crash(tile=4, at_instruction=0, attempts=(0, 1)),
    ))
    cases = []
    for model in ("serial", "pipelined"):
        for execute in ("numeric", "cycles", "jit"):
            cases.append(pytest.param(
                execute, model, {}, id=f"{execute}-{model}"
            ))
        cases.append(pytest.param(
            "jit", model, {"faults": silent}, id=f"jit-silent-{model}"
        ))
        for execute in ("numeric", "cycles"):
            cases.append(pytest.param(
                execute, model, {"faults": crash, "retry": RetryPolicy()},
                id=f"{execute}-crash-retry-{model}",
            ))
    cases.append(pytest.param(
        "numeric", "serial", {"sanitize": True}, id="numeric-sanitize"
    ))
    return cases


class TestFlatGroupedEquivalence:
    @pytest.mark.parametrize("execute,model,extra", _eq_cases())
    def test_run_tiles_equals_single_tile_groups(self, execute, model, extra):
        progs, fresh_gm = _pool_tiles(execute)
        runs = []
        for grouped in (False, True):
            gm = fresh_gm()
            chip = Chip(EQ_CFG, FLOAT16)
            kwargs = dict(extra, execute=execute, model=model)
            if grouped:
                res = chip.run_tile_groups(
                    items([p] for p in progs), gm, **kwargs
                )
            else:
                res = chip.run_tiles(progs, gm, **kwargs)
            runs.append((res, gm))
        (flat, flat_gm), (grouped, grouped_gm) = runs
        assert flat.tiles == grouped.tiles == len(progs)
        assert flat.cycles == grouped.cycles
        assert flat.per_core_cycles == grouped.per_core_cycles
        assert flat.cores_used == grouped.cores_used
        assert (flat.resilience is None) == (grouped.resilience is None)
        if flat.resilience is not None:
            assert flat.resilience.to_dict() == grouped.resilience.to_dict()
        assert flat.sanitizer == grouped.sanitizer
        if "retry" in extra:
            assert flat.resilience.retries > 0
        if flat_gm is not None:
            assert flat_gm.tensors.keys() == grouped_gm.tensors.keys()
            for name, arr in flat_gm.tensors.items():
                assert arr.tobytes() == grouped_gm.tensors[name].tobytes()

    def test_reassigned_group_stays_on_one_core(self):
        progs, fresh_gm = _pool_tiles("numeric")
        # Group 0 (tiles 0-2) is dealt to core 0; tile 1 crashes there
        # and moves to core 1, dragging tile 2 with it.
        groups = items([progs[:3], progs[3:]])
        res = Chip(EQ_CFG, FLOAT16).run_tile_groups(
            groups, fresh_gm(),
            faults=FaultPlan((Crash(tile=1, core=0, at_instruction=1),)),
        )
        rep = res.resilience
        assert rep.retries == 1 and rep.reassignments == 1
        assert [f.core for f in rep.failures] == [0]
        cost = [r.cycles + EQ_CFG.cost.tile_launch_cycles
                for r in res.per_tile]
        assert res.per_core_cycles[0] == cost[0]
        assert res.per_core_cycles[1] == sum(cost[1:]) + rep.backoff_cycles
        assert res.per_core_cycles[2:] == (0, 0)


# ---------------------------------------------------------------------------
# Lazy scratch-pad storage: a call pays only for the buffers it touches.
# ---------------------------------------------------------------------------

def _allocated(core):
    return {name for name, buf in core.buffers.items() if buf.allocated}


@pytest.fixture
def built_chips(monkeypatch):
    """Every :class:`Chip` the operator drivers construct, in order."""
    import repro.plan.planner as planner

    chips = []

    class RecordingChip(Chip):
        def __post_init__(self):
            super().__post_init__()
            chips.append(self)

    monkeypatch.setattr(planner, "Chip", RecordingChip)
    return chips


class TestLazyScratchpads:
    def test_construction_allocates_nothing(self):
        chip = Chip(ASCEND910)
        assert all(not _allocated(core) for core in chip.cores)

    @pytest.mark.parametrize("impl", ["standard", "im2col"])
    def test_cycles_mode_allocates_nothing(self, built_chips, impl):
        from repro.ops import run_forward

        run_forward(
            make_input(35, 35, 288, n=1, seed=0), PoolSpec.square(3, 2),
            forward_impl(impl, "max"), ASCEND910, execute="cycles",
        )
        (chip,) = built_chips
        assert len(chip.cores) == 32
        assert all(not _allocated(core) for core in chip.cores)

    @pytest.mark.parametrize("execute", ["numeric", "jit"])
    @pytest.mark.parametrize("impl, mask", [
        ("standard", False), ("im2col", False), ("im2col", True),
    ])
    def test_data_modes_allocate_only_named_buffers(
        self, built_chips, execute, impl, mask,
    ):
        from repro.ops import run_forward

        spec = PoolSpec.square(3, 2)
        x = make_input(16, 16, 32, n=1, seed=0)
        res = run_forward(
            x, spec, forward_impl(impl, "max", mask), ASCEND910,
            execute=execute,
        )
        plan = plan_default(
            "fwd", forward_impl(impl, "max", mask), spec, FLOAT16,
            *x.shape[:4], ASCEND910,
        )
        scratch = set(ASCEND910.buffer_specs())
        named = {
            b
            for group in lower(plan, ASCEND910, cache=None).groups
            for item in group
            for ins in item.program.instructions
            for b in ins.buffers()
        } & scratch
        (chip,) = built_chips
        busy = [c > 0 for c in res.chip.per_core_cycles]
        assert 0 < sum(busy) < len(chip.cores)  # some cores stay idle
        for core, got_tiles in zip(chip.cores, busy):
            assert _allocated(core) == (named if got_tiles else set())

    def test_bit_flip_on_untouched_buffer_matches_zero_filled(self, gm):
        """A silent flip into a buffer no instruction names lands on
        the same bits whether or not its storage already existed."""
        flip = FaultPlan((BitFlip(
            tile=0, buffer="L1", offset=5, bit=9, detected=False,
        ),))
        stores = []
        for pre_touch in (False, True):
            chip = Chip(ChipConfig(num_cores=1))
            if pre_touch:
                chip.cores[0].buffers["L1"].data  # zero fill up front
            chip.run_tiles([tile_program()], GlobalMemory(), faults=flip)
            stores.append(chip.cores[0].buffers["L1"].data)
        lazy, eager = stores
        assert lazy.tobytes() == eager.tobytes()
        assert np.count_nonzero(lazy) == 1


# ---------------------------------------------------------------------------
# JIT tile batches: one kernel call per batch, bit-identical to per-tile
# runs whatever the core count.
# ---------------------------------------------------------------------------

BATCH_CONFIGS = (ChipConfig(num_cores=1), EQ_CFG, ASCEND910)


def _variant_runs(kind, impl, op, mask, serialize=False):
    """One plan (built for ASCEND910, 8 row tiles in each of 2 slices)
    dispatched numerically and by the JIT on each of
    :data:`BATCH_CONFIGS`: ``[(numeric, jit), ...]`` of output and mask
    bytes.  A JIT call runs at most 1, 4 or 32 tiles."""
    from dataclasses import replace

    from repro.ops.reference import maxpool_argmax_ref
    from repro.ops.registry import backward_impl
    from repro.plan import dispatch
    from repro.sim import ProgramCache
    from repro.workloads import make_gradient

    spec = PoolSpec.square(3, 2)
    x = make_input(17, 17, 32, n=1, seed=5)
    tensors = {"x": x}
    if kind == "bwd":
        oh, ow = spec.out_hw(17, 17)
        tensors = {"grad": make_gradient(x.shape[1], oh, ow, seed=6)}
        if op == "max":
            tensors["mask"] = maxpool_argmax_ref(x, spec)
        pool_impl = backward_impl(impl, op)
    else:
        pool_impl = forward_impl(impl, op, mask)
    plan = plan_default(
        kind, pool_impl, spec, FLOAT16, *x.shape[:4], ASCEND910,
        execute="jit",
    )
    if serialize:
        plan = replace(plan, serialize_slices=True)
    runs = []
    for cfg in BATCH_CONFIGS:
        pair = []
        for execute in ("numeric", "jit"):
            p = replace(plan, execute=execute)
            res = dispatch(p, lower(p, cfg, cache=ProgramCache()), cfg,
                           **tensors)
            pair.append((
                res.output.tobytes(),
                None if res.mask is None else res.mask.tobytes(),
            ))
        runs.append(tuple(pair))
    return runs


def _batch_variants():
    from repro.ops.registry import backward_variants, forward_variants

    cases = [
        pytest.param("fwd", name, op, mask, id=f"fwd-{name}-{op}"
                     + ("-mask" if mask else ""))
        for name, op, mask in forward_variants()
    ]
    cases += [
        pytest.param("bwd", name, op, False, id=f"bwd-{name}-{op}")
        for name, op in backward_variants()
    ]
    return cases


def _overlap_program():
    """Stores ``out`` in two steps whose windows overlap those of the
    neighbouring tiles: ``[0, 128)`` then ``[64, 192)``."""
    ub = MemRef("UB", 0, 256, FLOAT16)
    p = Program("two-stores")
    p.emit(DataMove(MemRef("x", 0, 256, FLOAT16), ub))
    p.emit(DataMove(MemRef("UB", 0, 128, FLOAT16),
                    MemRef("out", 0, 128, FLOAT16)))
    p.emit(DataMove(MemRef("UB", 128, 128, FLOAT16),
                    MemRef("out", 64, 128, FLOAT16)))
    return p


class TestJitBatches:
    @pytest.mark.parametrize("kind,impl,op,mask", _batch_variants())
    def test_outputs_do_not_depend_on_core_count(self, kind, impl, op,
                                                 mask):
        runs = _variant_runs(kind, impl, op, mask)
        for numeric, jit in runs:
            assert jit == numeric
        assert len({jit for _, jit in runs}) == 1

    def test_serialized_slices(self):
        runs = _variant_runs("bwd", "col2im", "avg", False, serialize=True)
        for numeric, jit in runs:
            assert jit == numeric
        assert len({jit for _, jit in runs}) == 1

    def test_overlapping_two_step_stores_split_the_batch(self):
        """A tensor stored in two steps needs disjoint tile windows; the
        overlapping tiles run one batch each, in per-tile order."""
        from repro.sim import compile_program

        prog = _overlap_program()
        kernel = compile_program(prog)
        assert kernel.guarded == ("out",)
        groups = [
            [WorkItem(prog, deltas={"x": 256 * t, "out": 96 * t})]
            for t in range(4)
        ]

        def run(execute, cfg):
            gm = GlobalMemory()
            gm.add("x", np.random.default_rng(1).standard_normal(1024)
                   .astype(np.float16))
            gm.zeros("out", 512, FLOAT16)
            Chip(cfg, FLOAT16).run_tile_groups(groups, gm, execute=execute)
            return gm.view("out").tobytes()

        want = run("numeric", ChipConfig(num_cores=1))
        assert run("jit", EQ_CFG) == want
        assert run("jit", ChipConfig(num_cores=1)) == want

    def test_a_core_sees_its_previous_tile(self):
        """Each tile stores what ``UB`` holds, then loads its own ``x``
        there: on 2 cores tile ``t`` stores tile ``t - 2``'s input, so
        a batch never holds two tiles of one core."""
        ub = MemRef("UB", 0, 128, FLOAT16)
        prog = Program("stale")
        prog.emit(DataMove(ub, MemRef("out", 0, 128, FLOAT16)))
        prog.emit(DataMove(MemRef("x", 0, 128, FLOAT16), ub))
        gm = GlobalMemory()
        x = np.arange(1, 769).astype(np.float16)
        gm.add("x", x)
        gm.zeros("out", 768, FLOAT16)
        Chip(ChipConfig(num_cores=2), FLOAT16).run_tile_groups(
            [
                [WorkItem(prog, deltas={"x": 128 * t, "out": 128 * t})]
                for t in range(6)
            ],
            gm, execute="jit",
        )
        out = gm.view("out")
        assert not out[:256].any()
        assert out[256:].tobytes() == x[:512].tobytes()

    @pytest.mark.parametrize("cfg,calls", [(ASCEND910, 1), (EQ_CFG, 7)])
    def test_one_kernel_call_per_batch(self, monkeypatch, cfg, calls):
        """A serve-open-shaped request (26 tiles of one kernel) is one
        kernel call on 32 cores and ceil(26 / 4) calls on 4."""
        from repro.plan import dispatch
        from repro.sim import CompiledKernel, ProgramCache

        sizes = []
        call = CompiledKernel.__call__

        def spy(self, stores, program, gm, deltas):
            sizes.append(len(deltas))
            return call(self, stores, program, gm, deltas)

        monkeypatch.setattr(CompiledKernel, "__call__", spy)
        x = make_input(28, 28, 32, n=1, seed=0)
        plan = plan_default(
            "fwd", forward_impl("im2col", "max", True),
            PoolSpec.square(3, 2), FLOAT16, *x.shape[:4], ASCEND910,
            execute="jit",
        )
        low = lower(plan, cfg, cache=ProgramCache())
        dispatch(plan, low, cfg, x=x)
        assert sum(sizes) == 26
        assert len(sizes) == calls
