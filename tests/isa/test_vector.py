"""Tests for Vector Unit instruction semantics."""

import numpy as np
import pytest

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.errors import IsaError, RepeatError
from repro.isa import (
    Mask,
    MemRef,
    Program,
    VADD,
    VADDS,
    VCMP_EQ,
    VDIV,
    VMAX,
    VMIN,
    VMUL,
    VMULS,
    VSUB,
    VectorBinary,
    VectorCopy,
    VectorDup,
    VectorOperand,
)
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

COST = ASCEND910.cost


def setup_core(rng, n=512):
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    src0 = kb.alloc("UB", n)
    src1 = kb.alloc("UB", n)
    dst = kb.alloc("UB", n)
    a = rng.standard_normal(n).astype(np.float16)
    b = rng.standard_normal(n).astype(np.float16)
    core.view("UB")[src0.offset:src0.end] = a
    core.view("UB")[src1.offset:src1.end] = b
    return core, gm, src0, src1, dst, a, b


def run_one(core, gm, instr):
    prog = Program("t")
    prog.emit(instr)
    return core.run(prog, gm)


OPS = [
    (VMAX, np.maximum),
    (VMIN, np.minimum),
    (VADD, np.add),
    (VSUB, np.subtract),
    (VMUL, np.multiply),
]


class TestBinaryOps:
    @pytest.mark.parametrize("ctor,npop", OPS)
    def test_full_mask_semantics(self, rng, ctor, npop):
        core, gm, s0, s1, d, a, b = setup_core(rng)
        instr = ctor(
            VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
            Mask.full(), repeat=4,
        )
        run_one(core, gm, instr)
        got = core.view("UB")[d.offset:d.end]
        assert np.array_equal(got, npop(a, b))

    def test_vdiv(self, rng):
        core, gm, s0, s1, d, a, b = setup_core(rng)
        run_one(core, gm, VDIV(
            VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
            Mask.full(), repeat=4,
        ))
        got = core.view("UB")[d.offset:d.end]
        with np.errstate(divide="ignore", invalid="ignore"):
            want = a / b
        assert np.array_equal(got, want)

    def test_partial_mask_leaves_lanes_untouched(self, rng):
        core, gm, s0, s1, d, a, b = setup_core(rng, n=128)
        run_one(core, gm, VADD(
            VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
            Mask.first(16), repeat=1,
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.array_equal(got[:16], (a + b)[:16])
        assert np.all(got[16:] == 0)  # untouched (buffer zero-init)

    def test_sparse_mask(self, rng):
        core, gm, s0, s1, d, a, b = setup_core(rng, n=128)
        run_one(core, gm, VMUL(
            VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
            Mask(0b101), repeat=1,
        ))
        got = core.view("UB")[d.offset:d.end]
        assert got[0] == a[0] * b[0]
        assert got[1] == 0
        assert got[2] == a[2] * b[2]

    def test_accumulating_reduction_with_zero_rep_stride(self, rng):
        # The Section V-A pattern: dst fixed, src advancing -> a single
        # vmax reduces across the repeats sequentially.
        core, gm, s0, s1, d, a, b = setup_core(rng, n=256)
        core.view("UB")[d.offset:d.offset + 16] = np.float16(
            FLOAT16.min_value
        )
        run_one(core, gm, VMAX(
            VectorOperand(d, rep_stride=0),
            VectorOperand(d, rep_stride=0),
            VectorOperand(s1, rep_stride=1),
            Mask.first(16), repeat=8,
        ))
        got = core.view("UB")[d.offset:d.offset + 16]
        want = b[: 8 * 16].reshape(8, 16).max(axis=0)
        assert np.array_equal(got, want)

    def test_strided_source_blocks(self, rng):
        # blk_stride=2 on the source gathers every other block.
        core, gm, s0, s1, d, a, b = setup_core(rng, n=512)
        run_one(core, gm, VADD(
            VectorOperand(d),
            VectorOperand(s0),
            VectorOperand(s1, blk_stride=2),
            Mask.first(32), repeat=1,
        ))
        got = core.view("UB")[d.offset:d.offset + 32]
        gathered = np.concatenate([b[0:16], b[32:48]])
        assert np.array_equal(got, a[:32] + gathered)

    def test_out_of_bounds_rejected(self, rng):
        core, gm, s0, s1, d, a, b = setup_core(rng)
        bad = MemRef("UB", ASCEND910.ub_bytes // 2 - 8, 128, FLOAT16)
        with pytest.raises(IsaError):
            run_one(core, gm, VADD(
                VectorOperand(bad), VectorOperand(s0), VectorOperand(s1),
                Mask.full(), repeat=1,
            ))

    def test_repeat_range_validation(self, rng):
        core, gm, s0, s1, d, _, _ = setup_core(rng)
        with pytest.raises(RepeatError):
            VADD(VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
                 Mask.full(), repeat=0)
        with pytest.raises(RepeatError):
            VADD(VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
                 Mask.full(), repeat=256)

    def test_unknown_op_rejected(self, rng):
        _, _, s0, s1, d, _, _ = setup_core(rng)
        with pytest.raises(IsaError):
            VectorBinary("vxor", VectorOperand(d), VectorOperand(s0),
                         VectorOperand(s1), Mask.full(), 1)

    def test_cycle_cost(self, rng):
        _, _, s0, s1, d, _, _ = setup_core(rng)
        i = VADD(VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
                 Mask.full(), repeat=7)
        assert i.cycles(COST) == COST.issue_cycles + 7 * COST.vector_repeat_cycles

    def test_cost_independent_of_mask(self, rng):
        # The central premise: disabled lanes are wasted, not saved.
        _, _, s0, s1, d, _, _ = setup_core(rng)
        full = VADD(VectorOperand(d), VectorOperand(s0),
                    VectorOperand(s1), Mask.full(), repeat=3)
        narrow = VADD(VectorOperand(d), VectorOperand(s0),
                      VectorOperand(s1), Mask.first(16), repeat=3)
        assert full.cycles(COST) == narrow.cycles(COST)

    def test_lane_utilization(self, rng):
        _, _, s0, s1, d, _, _ = setup_core(rng)
        i = VADD(VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
                 Mask.first(16), repeat=1)
        assert i.lane_utilization() == pytest.approx(0.125)


class TestCompare:
    def test_vcmp_eq_writes_ones_and_zeros(self, rng):
        core, gm, s0, s1, d, a, b = setup_core(rng, n=128)
        core.view("UB")[s1.offset:s1.offset + 64] = a[:64]  # force equality
        run_one(core, gm, VCMP_EQ(
            VectorOperand(d), VectorOperand(s0), VectorOperand(s1),
            Mask.full(), repeat=1,
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.all(got[:64] == 1.0)
        assert set(np.unique(got[64:])) <= {0.0, 1.0}

    def test_vcmp_cannot_repeat(self, rng):
        # CMPMASK is a single register: compare+select pairs cannot use
        # the repeat parameter.
        _, _, s0, s1, d, _, _ = setup_core(rng)
        with pytest.raises(IsaError):
            VCMP_EQ(VectorOperand(d), VectorOperand(s0),
                    VectorOperand(s1), Mask.full(), repeat=2)


class TestScalarOps:
    def test_vadds(self, rng):
        core, gm, s0, _, d, a, _ = setup_core(rng, n=128)
        run_one(core, gm, VADDS(
            VectorOperand(d), VectorOperand(s0), 2.5, Mask.full(), 1
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.array_equal(got, a + np.float16(2.5))

    def test_vmuls(self, rng):
        core, gm, s0, _, d, a, _ = setup_core(rng, n=128)
        run_one(core, gm, VMULS(
            VectorOperand(d), VectorOperand(s0), 1.0 / 9.0, Mask.full(), 1
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.array_equal(got, a * np.float16(1.0 / 9.0))

    def test_vector_copy_is_vadds_zero(self, rng):
        core, gm, s0, _, d, a, _ = setup_core(rng, n=256)
        instr = VectorCopy(VectorOperand(d), VectorOperand(s0),
                           Mask.full(), repeat=2)
        assert instr.opcode == "vadds"
        run_one(core, gm, instr)
        got = core.view("UB")[d.offset:d.end]
        assert np.array_equal(got, a)


class TestVectorDup:
    def test_fills_masked_lanes(self, rng):
        core, gm, _, _, d, _, _ = setup_core(rng, n=256)
        run_one(core, gm, VectorDup(
            VectorOperand(d), -3.0, Mask.full(), repeat=2
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.all(got[:256] == np.float16(-3.0))

    def test_min_value_seed(self, rng):
        core, gm, _, _, d, _, _ = setup_core(rng, n=128)
        run_one(core, gm, VectorDup(
            VectorOperand(d), FLOAT16.min_value, Mask.full(), 1
        ))
        got = core.view("UB")[d.offset:d.end]
        assert np.all(got == np.float16(FLOAT16.min_value))

    def test_cost(self):
        d = MemRef("UB", 0, 128, FLOAT16)
        i = VectorDup(VectorOperand(d), 0.0, Mask.full(), repeat=5)
        assert i.cycles(COST) == COST.issue_cycles + 5


class TestDtypeChecks:
    def test_mixed_dtypes_rejected(self):
        from repro.dtypes import FLOAT32

        d16 = MemRef("UB", 0, 128, FLOAT16)
        d32 = MemRef("UB", 0, 128, FLOAT32)
        with pytest.raises(IsaError):
            VADD(VectorOperand(d16), VectorOperand(d32),
                 VectorOperand(d16), Mask.full(), 1)
