"""JIT kernels on float32 scratch-pad stacks owned by the chip.

A JIT chip keeps each scratch-pad as one ``(cores, extent)`` float32
:class:`~repro.sim.buffers.ScratchStack`; global memory stays fp16.
These tests pin that the change of storage is invisible:

* every shipped forward and backward implementation gives the
  interpreter's output and mask bytes on inputs salted with signed
  zeros, subnormals, +-65504, infinities and NaN payloads;
* immediates fp16 cannot represent exactly are rounded to fp16 before
  they are widened (``vadds``/``vmuls``/``vector_dup``);
* a batch that would wrap round the cores is split, and equals the
  interpreter's one-tile-at-a-time runs;
* stacks are built lazily: cycles and interpreted runs build none.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import ASCEND910, ChipConfig
from repro.dtypes import FLOAT16
from repro.isa import DataMove, Mask, MemRef, Program, VectorDup, VectorOperand
from repro.isa.vector import _BINARY_OPS, VADD, VADDS, VMULS, VectorBinary
from repro.ops import PoolSpec
from repro.ops.base import run_backward, run_forward
from repro.ops.reference import maxpool_argmax_ref
from repro.ops.registry import (
    backward_impl,
    backward_variants,
    forward_impl,
    forward_variants,
)
from repro.sim import Chip, CompiledKernel, GlobalMemory, WorkItem
from repro.workloads import make_gradient, make_input

DT = FLOAT16
SPEC = PoolSpec.square(3, 2)

#: fp16 bit patterns every salted input carries: signed zeros, the
#: smallest and largest subnormals, +-65504, infinities, quiet and
#: signalling NaNs with assorted payloads and signs.
SALT = np.array(
    [
        0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x7BFF, 0xFBFF,
        0x7C00, 0xFC00, 0x7E00, 0x7E01, 0xFE33, 0x7C01, 0xFD55, 0x7FFF,
    ],
    dtype=np.uint16,
).view(np.float16)


def _salted(a: np.ndarray, seed: int) -> np.ndarray:
    """``a`` with about one element in eight replaced by :data:`SALT`."""
    rng = np.random.default_rng(seed)
    out = a.copy()
    flat = out.reshape(-1)
    at = rng.choice(flat.size, flat.size // 8, replace=False)
    flat[at] = SALT[rng.integers(0, SALT.size, at.size)]
    return out


def _bytes(res):
    return (
        res.output.tobytes(),
        None if res.mask is None else res.mask.tobytes(),
    )


def _forward_cases():
    return [
        pytest.param(name, op, mask, id=f"{name}-{op}" + ("-mask" * mask))
        for name, op, mask in forward_variants()
    ]


class TestSaltedInputs:
    @pytest.mark.parametrize("name, op, mask", _forward_cases())
    def test_forward_bytes_equal_the_interpreter(self, name, op, mask):
        x = _salted(make_input(17, 17, 32, n=1, seed=3), seed=4)
        impl = forward_impl(name, op, mask)
        want, got = (
            _bytes(run_forward(x, SPEC, impl, ASCEND910, execute=execute))
            for execute in ("numeric", "jit")
        )
        assert got == want

    @pytest.mark.parametrize("name, op", backward_variants())
    def test_backward_bytes_equal_the_interpreter(self, name, op):
        x = _salted(make_input(17, 17, 32, n=1, seed=5), seed=6)
        oh, ow = SPEC.out_hw(17, 17)
        grad = _salted(make_gradient(x.shape[1], oh, ow, seed=7), seed=8)
        mask = None
        if op == "max":
            mask = _salted(maxpool_argmax_ref(x, SPEC), seed=9)
        impl = backward_impl(name, op)
        want, got = (
            _bytes(run_backward(
                grad, SPEC, impl, 17, 17, mask=mask, config=ASCEND910,
                execute=execute,
            ))
            for execute in ("numeric", "jit")
        )
        assert got == want


def _vop(offset: int) -> VectorOperand:
    return VectorOperand(MemRef("UB", offset, 128, DT))


def _gm(x: np.ndarray, n_out: int) -> GlobalMemory:
    gm = GlobalMemory()
    gm.add("x", x)
    gm.zeros("out", n_out, DT)
    return gm


class TestVectorOps:
    @pytest.mark.parametrize("op", sorted(_BINARY_OPS))
    def test_binary_op_equals_the_interpreter(self, op):
        """Each binary op on salted random operands, NaN pairs and
        inexact results included, fused over 1,024 lanes and applied
        twice, so a step that skipped its rounding would show."""
        rng = np.random.default_rng(11)
        x = _salted(rng.standard_normal(2048).astype(np.float16), seed=12)
        p = Program(op)
        for base in (0, 1024):
            p.emit(DataMove(MemRef("x", base, 1024, DT),
                            MemRef("UB", base, 1024, DT)))
        for src, dst in ((0, 2048), (2048, 3072)):
            for r in range(8):
                p.emit(VectorBinary(
                    op, _vop(dst + 128 * r), _vop(src + 128 * r),
                    _vop(1024 + 128 * r), Mask.full(),
                ))
        p.emit(DataMove(MemRef("UB", 2048, 2048, DT),
                        MemRef("out", 0, 2048, DT)))
        outs = []
        for execute in ("numeric", "jit"):
            gm = _gm(x, 2048)
            with np.errstate(all="ignore"):
                Chip(ChipConfig(num_cores=1), DT).run_tiles(
                    [p], gm, execute=execute
                )
            outs.append(gm.view("out").tobytes())
        assert outs[1] == outs[0]


class TestImmediates:
    IMMEDIATES = (0.1, 1 / 3)

    def _program(self, imm: float) -> Program:
        p = Program("imm")
        p.emit(DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT)))
        p.emit(VADDS(_vop(128), _vop(0), imm, Mask.full()))
        p.emit(VMULS(_vop(256), _vop(0), imm, Mask.full()))
        p.emit(VectorDup(_vop(384), imm, Mask.full()))
        p.emit(DataMove(MemRef("UB", 128, 384, DT), MemRef("out", 0, 384, DT)))
        return p

    @pytest.mark.parametrize("imm", IMMEDIATES)
    def test_inexact_immediates_round_to_fp16_first(self, imm):
        x = _salted(
            np.random.default_rng(1).standard_normal(128).astype(np.float16), seed=2
        )
        outs = []
        for execute in ("numeric", "jit"):
            gm = _gm(x, 384)
            Chip(ChipConfig(num_cores=1), DT).run_tiles(
                [self._program(imm)], gm, execute=execute
            )
            outs.append(gm.view("out").copy())
        want, got = outs
        assert got.tobytes() == want.tobytes()
        assert np.all(got[256:] == np.float16(imm))
        # Widening the immediate unrounded would move some sums.
        with np.errstate(invalid="ignore"):
            unrounded = (x.astype(np.float32) + np.float32(imm)).astype(np.float16)
        assert unrounded.tobytes() != want[:128].tobytes()


class TestWrappedBatch:
    def test_wrapping_batch_equals_one_tile_runs(self, monkeypatch):
        """On 4 cores, two tiles of another program push 6 tiles of
        ``stale`` onto cores 2, 3, 0, 1, 2, 3: the batch splits where
        it would wrap, and every core's store and ``out`` equal the
        interpreter's tile-by-tile runs."""
        load = Program("load")
        load.emit(VectorDup(_vop(0), 7.0, Mask.full()))
        stale = Program("stale")
        stale.emit(VADD(_vop(128), _vop(0), _vop(0), Mask.full()))
        stale.emit(DataMove(MemRef("UB", 128, 128, DT),
                            MemRef("out", 0, 128, DT)))
        stale.emit(DataMove(MemRef("x", 0, 128, DT),
                            MemRef("UB", 0, 128, DT)))
        groups = [[WorkItem(load)], [WorkItem(load)]] + [
            [WorkItem(stale, deltas={"x": 128 * t, "out": 128 * t})]
            for t in range(6)
        ]
        x = _salted(
            np.random.default_rng(3).standard_normal(768).astype(np.float16), seed=4
        )
        sizes = []
        call = CompiledKernel.__call__

        def spy(self, stores, program, gm, deltas):
            sizes.append(len(deltas))
            return call(self, stores, program, gm, deltas)

        monkeypatch.setattr(CompiledKernel, "__call__", spy)
        runs = []
        for execute in ("numeric", "jit"):
            chip, gm = Chip(ChipConfig(num_cores=4), DT), _gm(x, 768)
            chip.run_tile_groups(groups, gm, execute=execute)
            runs.append((
                gm.view("out").tobytes(),
                [c.buffers["UB"].data[:256].tobytes() for c in chip.cores],
            ))
        assert sizes == [2, 2, 4]
        assert runs[1] == runs[0]


class TestStacks:
    @pytest.mark.parametrize("execute", ["cycles", "numeric"])
    def test_only_jit_builds_stacks(self, monkeypatch, execute):
        import repro.plan.planner as planner

        chips = []

        class Recording(Chip):
            def __post_init__(self):
                super().__post_init__()
                chips.append(self)

        monkeypatch.setattr(planner, "Chip", Recording)
        x = make_input(28, 28, 32, n=1, seed=0)
        for mode in (execute, "jit"):
            run_forward(x, SPEC, forward_impl("im2col", "max", True),
                        ASCEND910, execute=mode)
        plain, jit = chips
        assert plain.stacks == {}
        if execute == "cycles":
            assert not any(
                b.allocated for c in plain.cores for b in c.buffers.values()
            )
        stack = jit.stacks["UB"]
        assert stack.array.dtype == np.float32
        # 26 tiles on 32 cores: a row per core that got one.
        assert stack.array.shape[0] == 26
        assert set(jit.stacks) == {"L1", "UB"}

    def test_a_store_is_a_row_that_reads_back_as_fp16(self):
        chip = Chip(ChipConfig(num_cores=2), DT)
        core = chip.cores[1]
        core.buffers["UB"].data[:4] = [1.5, -0.0, 65504, np.nan]
        p = Program("dup")
        p.emit(VectorDup(_vop(128), 0.1, Mask.full()))
        chip.run_tiles([p, p], GlobalMemory(), execute="jit")
        buf = core.buffers["UB"]
        row = chip.stacks["UB"].array[1]
        # The store it had is carried over whole.
        assert buf.extent == row.size == buf.capacity_elems
        data = buf.data
        assert data.dtype == np.float16 and not data.flags.writeable
        assert data[:4].tobytes() == np.array(
            [1.5, -0.0, 65504, np.nan], np.float16
        ).tobytes()
        assert np.all(data[128:256] == np.float16(0.1))
        assert row[128] == np.float32(np.float16(0.1))
        assert not data[256:].any()
