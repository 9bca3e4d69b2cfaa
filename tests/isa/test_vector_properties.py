"""Property-based tests: vector instructions vs a NumPy oracle over
randomized masks, strides and repeats."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND910
from repro.isa import Mask, Program, VectorBinary, VectorOperand
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

OPS = {
    "vmax": np.maximum,
    "vmin": np.minimum,
    "vadd": np.add,
    "vsub": np.subtract,
    "vmul": np.multiply,
}


def oracle(op, a, b, d, d_op, a_op, b_op, mask_bits, repeat):
    """Reference semantics: sequential repeats, per-lane mask."""
    lanes = [i for i in range(128) if mask_bits >> i & 1]
    out = d.copy()
    for r in range(repeat):
        for lane in lanes:
            blk, off = lane // 16, lane % 16

            def idx(o):
                return (r * o.rep_stride + blk * o.blk_stride) * 16 + off

            out[idx(d_op)] = OPS[op](
                out[idx(a_op)] if a_op is d_op else a[idx(a_op)],
                b[idx(b_op)],
            )
    return out


@given(
    op=st.sampled_from(sorted(OPS)),
    mask_bits=st.integers(1, (1 << 128) - 1),
    repeat=st.integers(1, 6),
    d_rep=st.integers(0, 10),
    b_rep=st.integers(0, 10),
    b_blk=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_binary_matches_oracle(op, mask_bits, repeat, d_rep, b_rep, b_blk, seed):
    rng = np.random.default_rng(seed)
    n = 4096
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    d_ref = kb.alloc("UB", n)
    b_ref = kb.alloc("UB", n)
    d0 = rng.integers(-8, 9, n).astype(np.float16)
    b0 = rng.integers(-8, 9, n).astype(np.float16)
    core.view("UB")[d_ref.offset:d_ref.end] = d0
    core.view("UB")[b_ref.offset:b_ref.end] = b0

    d_op = VectorOperand(d_ref, blk_stride=1, rep_stride=d_rep)
    b_op = VectorOperand(b_ref, blk_stride=b_blk, rep_stride=b_rep)
    prog = Program("prop")
    prog.emit(VectorBinary(op, d_op, d_op, b_op, Mask(mask_bits), repeat))
    core.run(prog, gm)
    got = core.view("UB")[d_ref.offset:d_ref.end].copy()
    want = oracle(op, d0, b0, d0, d_op, d_op, b_op, mask_bits, repeat)
    assert np.array_equal(got, want)


@given(
    repeat=st.integers(1, 8),
    rep_stride=st.integers(0, 9),
    value=st.floats(-100, 100, width=16),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_dup_matches_oracle(repeat, rep_stride, value, seed):
    from repro.isa import VectorDup

    rng = np.random.default_rng(seed)
    n = 4096
    core = AICore(ASCEND910)
    kb = KernelBuilder(ASCEND910)
    gm = GlobalMemory()
    ref = kb.alloc("UB", n)
    before = rng.standard_normal(n).astype(np.float16)
    core.view("UB")[ref.offset:ref.end] = before
    op = VectorOperand(ref, rep_stride=rep_stride)
    prog = Program("dup")
    prog.emit(VectorDup(op, value, Mask.full(), repeat))
    core.run(prog, gm)
    got = core.view("UB")[ref.offset:ref.end]
    want = before.copy()
    for r in range(repeat):
        for lane in range(128):
            want[(r * rep_stride + lane // 16) * 16 + lane % 16] = np.float16(value)
    assert np.array_equal(got, want)
