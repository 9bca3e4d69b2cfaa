"""Tests for the Cube Unit mmad instruction."""

import numpy as np
import pytest

from repro.config import ASCEND910
from repro.dtypes import FRACTAL_ROWS
from repro.errors import IsaError, RepeatError
from repro.isa import Mmad, Program
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

FR = FRACTAL_ROWS * FRACTAL_ROWS


def setup(rng, k=3):
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    a_ref = kb.alloc("L0A", k * FR)
    b_ref = kb.alloc("L0B", k * FR)
    c_ref = kb.alloc("L0C", FR)
    a = rng.standard_normal((k, 16, 16)).astype(np.float16)
    b = rng.standard_normal((k, 16, 16)).astype(np.float16)
    core.view("L0A")[a_ref.offset:a_ref.end] = a.reshape(-1)
    core.view("L0B")[b_ref.offset:b_ref.end] = b.reshape(-1)
    return core, gm, a_ref, b_ref, c_ref, a, b


def expected(a, b):
    acc = np.zeros((16, 16), np.float32)
    for ak, bk in zip(a, b):
        acc += ak.astype(np.float32) @ bk.astype(np.float32)
    return acc.astype(np.float16)


class TestMmad:
    def test_single_fractal_product(self, rng):
        core, gm, ar, br, cr, a, b = setup(rng, k=1)
        prog = Program("t")
        prog.emit(Mmad(a=ar, b=br, c=cr, repeat=1, init=True))
        core.run(prog, gm)
        got = core.view("L0C")[cr.offset:cr.end].reshape(16, 16)
        assert np.array_equal(got, expected(a, b))

    def test_repeat_chain_accumulates_fp32(self, rng):
        core, gm, ar, br, cr, a, b = setup(rng, k=5)
        prog = Program("t")
        prog.emit(Mmad(a=ar, b=br, c=cr, repeat=5, init=True))
        core.run(prog, gm)
        got = core.view("L0C")[cr.offset:cr.end].reshape(16, 16)
        assert np.array_equal(got, expected(a, b))

    def test_init_false_accumulates_on_existing(self, rng):
        core, gm, ar, br, cr, a, b = setup(rng, k=1)
        core.view("L0C")[cr.offset:cr.end] = 1.0
        prog = Program("t")
        prog.emit(Mmad(a=ar, b=br, c=cr, repeat=1, init=False))
        core.run(prog, gm)
        got = core.view("L0C")[cr.offset:cr.end].reshape(16, 16)
        want = (
            np.ones((16, 16), np.float32)
            + a[0].astype(np.float32) @ b[0].astype(np.float32)
        ).astype(np.float16)
        assert np.array_equal(got, want)

    def test_cycle_cost_one_per_fractal_pair(self, rng):
        # "The Cube Unit can multiply two data-fractals per clock cycle"
        # -- our conservative model charges one pair per cycle.
        _, _, ar, br, cr, _, _ = setup(rng, k=7)
        i = Mmad(a=ar, b=br, c=cr, repeat=7)
        cost = ASCEND910.cost
        assert i.cycles(cost) == cost.issue_cycles + 7 * cost.cube_mmad_cycles

    def test_region_validation(self, rng):
        _, _, ar, br, cr, _, _ = setup(rng, k=2)
        with pytest.raises(IsaError):
            Mmad(a=ar.slice(0, 100), b=br, c=cr, repeat=2)
        with pytest.raises(IsaError):
            Mmad(a=ar, b=br, c=cr.slice(0, 100), repeat=1)
        with pytest.raises(RepeatError):
            Mmad(a=ar, b=br, c=cr, repeat=0)

    def test_unit_is_cube(self, rng):
        _, _, ar, br, cr, _, _ = setup(rng, k=1)
        assert Mmad(a=ar, b=br, c=cr).unit == "cube"
