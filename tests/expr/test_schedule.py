"""Tests for schedule knobs: the algorithm/schedule decoupling of
Section IV-A, and what each automatic optimisation buys."""

import numpy as np
import pytest

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.errors import ScheduleError
from repro.expr import (
    Axis,
    DEFAULT_SCHEDULE,
    NAIVE_SCHEDULE,
    Reduce,
    Schedule,
    TensorDecl,
    lower_stage,
    plan_stage,
    reduce_stage,
)
from repro.isa import Program
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

C0 = 16


def maxpool_stage(ih=9, sh=2):
    oh = (ih - 3) // sh + 1
    inp = TensorDecl("in", (ih, ih, C0))
    out = TensorDecl("out", (oh, oh, C0))
    aoh, aow, ac = Axis("oh", oh), Axis("ow", oh), Axis("c0", C0)
    rkh, rkw = Axis("kh", 3), Axis("kw", 3)
    body = Reduce("max", inp[aoh * sh + rkh, aow * sh + rkw, ac], (rkh, rkw))
    return reduce_stage(out, (aoh, aow, ac), body), inp, out, oh


def run_with(schedule, rng):
    stage, inp, out, oh = maxpool_stage()
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    in_ref = kb.alloc("UB", 9 * 9 * C0)
    out_ref = kb.alloc("UB", oh * oh * C0)
    x = rng.standard_normal((9, 9, C0)).astype(np.float16)
    core.view("UB")[in_ref.offset:in_ref.end] = x.reshape(-1)
    prog = Program("s")
    res = lower_stage(stage, {"in": in_ref, "out": out_ref}, prog,
                      FLOAT16, schedule=schedule)
    r = core.run(prog, gm)
    got = core.view("UB")[out_ref.offset:out_ref.end].reshape(oh, oh, C0)
    want = np.stack([
        [x[i * 2:i * 2 + 3, j * 2:j * 2 + 3].max(axis=(0, 1))
         for j in range(oh)] for i in range(oh)
    ])
    return res, r, got, want


class TestScheduleValidation:
    def test_max_repeat_bounds(self):
        with pytest.raises(ScheduleError):
            Schedule(max_repeat=0)
        with pytest.raises(ScheduleError):
            Schedule(max_repeat=256)

    def test_defaults(self):
        assert DEFAULT_SCHEDULE.allow_repeat_fold
        assert not DEFAULT_SCHEDULE.vectorize_c0_only
        assert not NAIVE_SCHEDULE.allow_repeat_fold
        assert NAIVE_SCHEDULE.vectorize_c0_only


class TestScheduleEffects:
    def test_all_schedules_compute_the_same_values(self, rng):
        for sched in (DEFAULT_SCHEDULE, NAIVE_SCHEDULE,
                      Schedule(allow_repeat_fold=False),
                      Schedule(max_repeat=2)):
            _, _, got, want = run_with(sched, np.random.default_rng(0))
            assert np.array_equal(got, want), sched

    def test_disabling_repeat_multiplies_issues_by_kw(self, rng):
        # "each vmax uses repetition to obtain the maximum value across
        # the width of a patch Kw" -- without it, one issue per element.
        res_auto, _, _, _ = run_with(DEFAULT_SCHEDULE, rng)
        res_nofold, _, _, _ = run_with(Schedule(allow_repeat_fold=False),
                                       np.random.default_rng(0))
        # reduction issues only (exclude the init fill): auto folds kw.
        assert res_nofold.plan.fold_axis is None
        assert res_auto.plan.fold_axis is not None
        assert res_nofold.instructions > 2.0 * res_auto.instructions

    def test_repeat_saves_cycles(self, rng):
        _, run_auto, _, _ = run_with(DEFAULT_SCHEDULE, rng)
        _, run_nofold, _, _ = run_with(Schedule(allow_repeat_fold=False),
                                       np.random.default_rng(0))
        assert run_nofold.cycles > 1.5 * run_auto.cycles

    def test_c0_only_limits_wide_groups(self):
        # On the Im2col layout the auto schedule fuses the whole plane;
        # the minimal schedule stops at C0.
        oh = ow = 4
        planes = TensorDecl("planes", (3, 3, oh, ow, C0))
        out = TensorDecl("out", (oh, ow, C0))
        aoh, aow, ac = Axis("oh", oh), Axis("ow", ow), Axis("c0", C0)
        rkh, rkw = Axis("kh", 3), Axis("kw", 3)
        st = reduce_stage(
            out, (aoh, aow, ac),
            Reduce("max", planes[rkh, rkw, aoh, aow, ac], (rkh, rkw)),
        )
        wide = plan_stage(st, FLOAT16)
        narrow = plan_stage(st, FLOAT16, c0_only=True)
        assert wide.lanes_total == oh * ow * C0
        assert narrow.lanes_total == C0

    def test_max_repeat_chunks(self, rng):
        res_full, _, _, _ = run_with(DEFAULT_SCHEDULE, rng)
        res_capped, _, _, _ = run_with(Schedule(max_repeat=1),
                                       np.random.default_rng(0))
        assert res_capped.instructions > res_full.instructions
