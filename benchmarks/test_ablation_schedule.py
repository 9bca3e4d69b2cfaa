"""Ablation: what each automatic schedule optimisation buys.

Lowers Listing 1 (standard MaxPool, 35x35 tile, stride 2) and Listing 2
(the Im2col layout) under four schedules and reports the simulated
cycles -- quantifying Section V's two factors separately: mask
saturation (wide vectorization) and the repeat parameter.
"""

import numpy as np
from conftest import record_cycles, run_once

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.expr import (
    Axis,
    DEFAULT_SCHEDULE,
    NAIVE_SCHEDULE,
    Reduce,
    Schedule,
    TensorDecl,
    lower_stage,
    reduce_stage,
)
from repro.isa import Program
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

C0 = 16
IH = 35
OH = (IH - 3) // 2 + 1

SCHEDULES = {
    "auto (AKG default)": DEFAULT_SCHEDULE,
    "no repeat fold": Schedule(allow_repeat_fold=False),
    "C0-only vectorize": Schedule(vectorize_c0_only=True),
    "naive": NAIVE_SCHEDULE,
}


def listing1_cycles(schedule):
    inp = TensorDecl("in", (IH, IH, C0))
    out = TensorDecl("out", (OH, OH, C0))
    aoh, aow, ac = Axis("oh", OH), Axis("ow", OH), Axis("c0", C0)
    rkh, rkw = Axis("kh", 3), Axis("kw", 3)
    stage = reduce_stage(
        out, (aoh, aow, ac),
        Reduce("max", inp[aoh * 2 + rkh, aow * 2 + rkw, ac], (rkh, rkw)),
    )
    return _run(stage, {"in": IH * IH * C0, "out": OH * OH * C0}, schedule)


def listing2_cycles(schedule):
    planes = TensorDecl("planes", (3, 3, OH, OH, C0))
    out = TensorDecl("out", (OH, OH, C0))
    aoh, aow, ac = Axis("oh", OH), Axis("ow", OH), Axis("c0", C0)
    rkh, rkw = Axis("kh", 3), Axis("kw", 3)
    stage = reduce_stage(
        out, (aoh, aow, ac),
        Reduce("max", planes[rkh, rkw, aoh, aow, ac], (rkh, rkw)),
    )
    return _run(
        stage, {"planes": 9 * OH * OH * C0, "out": OH * OH * C0}, schedule
    )


def _run(stage, sizes, schedule):
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    rng = np.random.default_rng(0)
    binding = {}
    for name, size in sizes.items():
        ref = kb.alloc("UB", size, name)
        core.view("UB")[ref.offset:ref.end] = rng.standard_normal(
            size
        ).astype(np.float16)
        binding[name] = ref
    prog = Program("ablation")
    lower_stage(stage, binding, prog, FLOAT16, schedule=schedule)
    return core.run(prog, gm, collect_trace=False).cycles


def test_schedule_ablation_listing1(benchmark, capsys):
    def run():
        return {name: listing1_cycles(s) for name, s in SCHEDULES.items()}

    cycles = run_once(benchmark, run)
    with capsys.disabled():
        print("\nListing 1 (standard layout) schedule ablation:")
        for name, c in cycles.items():
            print(f"  {name:<20s} {c:>8d} cy")
    # the repeat fold is the dominant optimisation here -- the strided
    # access already blocks wide vectorization for the reduction (the
    # C0-only schedule only loses the wide *init fill*, a small delta)
    assert cycles["auto (AKG default)"] < cycles["no repeat fold"]
    assert (cycles["auto (AKG default)"] <= cycles["C0-only vectorize"]
            < 1.1 * cycles["auto (AKG default)"])
    record_cycles(benchmark, auto=cycles["auto (AKG default)"],
                  naive=cycles["naive"])


def test_schedule_ablation_listing2(benchmark, capsys):
    def run():
        return {name: listing2_cycles(s) for name, s in SCHEDULES.items()}

    cycles = run_once(benchmark, run)
    with capsys.disabled():
        print("\nListing 2 (Im2col layout) schedule ablation:")
        for name, c in cycles.items():
            print(f"  {name:<20s} {c:>8d} cy")
    # wide vectorization is the dominant win on this layout
    assert cycles["auto (AKG default)"] < cycles["C0-only vectorize"]
    assert cycles["C0-only vectorize"] < cycles["naive"]
    record_cycles(benchmark, auto=cycles["auto (AKG default)"],
                  naive=cycles["naive"])


def test_layout_and_schedule_compose(benchmark, capsys):
    """The full picture: layout change x schedule change."""

    def run():
        return (
            listing1_cycles(DEFAULT_SCHEDULE),
            listing1_cycles(NAIVE_SCHEDULE),
            listing2_cycles(DEFAULT_SCHEDULE),
            listing2_cycles(NAIVE_SCHEDULE),
        )

    l1_auto, l1_naive, l2_auto, l2_naive = run_once(benchmark, run)
    with capsys.disabled():
        print(f"\nlayout x schedule: standard/naive {l1_naive}cy, "
              f"standard/auto {l1_auto}cy, im2col/naive {l2_naive}cy, "
              f"im2col/auto {l2_auto}cy")
    # the paper's point: the layout unlocks the schedule -- the naive
    # im2col is no better than the auto standard, the auto im2col
    # beats everything.
    assert l2_auto < l1_auto < l1_naive
    assert l2_auto < l2_naive
