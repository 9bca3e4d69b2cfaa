"""End-to-end tests for the lowering: lowered programs must compute the
same values NumPy does, for every access-pattern class the paper's
kernels exercise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ASCEND910
from repro.dtypes import FLOAT16
from repro.errors import LoweringError
from repro.expr import (
    Axis,
    BinOp,
    Reduce,
    ScalarOp,
    TensorDecl,
    elementwise_stage,
    fill_stage,
    lower_stage,
    plan_stage,
    reduce_stage,
    scatter_accumulate_stage,
)
from repro.expr.vectorize import stage_max_repeat
from repro.isa import Program
from repro.isa.instruction import operand_table
from repro.sim import AICore, GlobalMemory
from repro.tik import KernelBuilder

C0 = 16


class Runner:
    """Allocate tensors in the UB, lower stages, execute, read back."""

    def __init__(self):
        self.core = AICore(ASCEND910)
        self.kb = KernelBuilder(ASCEND910)
        self.gm = GlobalMemory()
        self.binding = {}
        self.decls = {}

    def tensor(self, name, shape, data=None, strides=None):
        decl = TensorDecl(name, shape, FLOAT16, strides)
        ref = self.kb.alloc("UB", decl.size_elems, name)
        if data is not None:
            flat = self.core.view("UB")[ref.offset:ref.end]
            if strides is None:
                flat[:] = data.reshape(-1)
            else:
                view = np.lib.stride_tricks.as_strided(
                    flat, shape, [s * 2 for s in strides], writeable=True
                )
                view[:] = data
        self.binding[name] = ref
        self.decls[name] = decl
        return decl

    def run(self, *stages, max_repeat=255):
        prog = Program("t")
        results = [
            lower_stage(s, self.binding, prog, FLOAT16, max_repeat=max_repeat)
            for s in stages
        ]
        self.core.run(prog, self.gm)
        self.prog = prog
        return results

    def read(self, name):
        ref = self.binding[name]
        decl = self.decls[name]
        flat = self.core.view("UB")[ref.offset:ref.end]
        if decl.strides is None:
            return flat.reshape(decl.shape).copy()
        return np.lib.stride_tricks.as_strided(
            flat, decl.shape, [s * 2 for s in decl.strides]
        ).copy()


class TestFill:
    def test_fill_exact_region(self, rng):
        r = Runner()
        o = r.tensor("o", (5, 7, C0))
        ax = (Axis("a", 5), Axis("b", 7), Axis("c", C0))
        r.run(fill_stage(o, ax, 3.5))
        assert np.all(r.read("o") == np.float16(3.5))

    def test_fill_non_multiple_of_128_has_tail(self, rng):
        r = Runner()
        o = r.tensor("o", (3, 3, C0))  # 144 = 128 + 16
        ax = (Axis("a", 3), Axis("b", 3), Axis("c", C0))
        r.run(fill_stage(o, ax, 1.0))
        assert np.all(r.read("o") == 1.0)


class TestElementwise:
    def test_binop_contiguous(self, rng):
        r = Runner()
        a = rng.standard_normal((4, 8, C0)).astype(np.float16)
        b = rng.standard_normal((4, 8, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        tb = r.tensor("b", b.shape, b)
        to = r.tensor("o", a.shape)
        ax = (Axis("i", 4), Axis("j", 8), Axis("c", C0))
        r.run(elementwise_stage(
            to, ax, BinOp("mul", ta[ax[0], ax[1], ax[2]],
                          tb[ax[0], ax[1], ax[2]])
        ))
        assert np.array_equal(r.read("o"), a * b)

    def test_scalarop(self, rng):
        r = Runner()
        a = rng.standard_normal((2, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", a.shape)
        ax = (Axis("i", 2), Axis("c", C0))
        r.run(elementwise_stage(
            to, ax, ScalarOp("muls", ta[ax[0], ax[1]], 0.25)
        ))
        assert np.array_equal(r.read("o"), a * np.float16(0.25))

    def test_copy(self, rng):
        r = Runner()
        a = rng.standard_normal((3, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", a.shape)
        ax = (Axis("i", 3), Axis("c", C0))
        r.run(elementwise_stage(to, ax, ta[ax[0], ax[1]]))
        assert np.array_equal(r.read("o"), a)

    def test_strided_gather(self, rng):
        # expansion pattern: o[k, i, c] = a[i*2 + k, c]
        r = Runner()
        a = rng.standard_normal((9, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (3, 4, C0))
        ak, ai, ac = Axis("k", 3), Axis("i", 4), Axis("c", C0)
        r.run(elementwise_stage(
            to, (ak, ai, ac), ta[ai * 2 + ak, ac]
        ))
        want = np.stack([a[k + 2 * np.arange(4)] for k in range(3)])
        assert np.array_equal(r.read("o"), want)

    def test_broadcast_load_over_outer_axis(self, rng):
        r = Runner()
        a = rng.standard_normal((4, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (3, 4, C0))
        ak, ai, ac = Axis("k", 3), Axis("i", 4), Axis("c", C0)
        r.run(elementwise_stage(to, (ak, ai, ac), ta[ai, ac]))
        want = np.broadcast_to(a, (3, 4, C0))
        assert np.array_equal(r.read("o"), want)

    def test_eq_compare(self, rng):
        r = Runner()
        a = rng.standard_normal((4, C0)).astype(np.float16)
        b = a.copy()
        b[1] += 1
        ta = r.tensor("a", a.shape, a)
        tb = r.tensor("b", b.shape, b)
        to = r.tensor("o", a.shape)
        ax = (Axis("i", 4), Axis("c", C0))
        r.run(elementwise_stage(
            to, ax, BinOp("eq", ta[ax[0], ax[1]], tb[ax[0], ax[1]])
        ))
        assert np.array_equal(r.read("o"), (a == b).astype(np.float16))


class TestReduce:
    def test_max_reduce_scattered(self, rng):
        # Listing 1 exactly, small case.
        r = Runner()
        a = rng.standard_normal((9, 9, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (4, 4, C0))
        aoh, aow, ac = Axis("oh", 4), Axis("ow", 4), Axis("c", C0)
        rkh, rkw = Axis("kh", 3), Axis("kw", 3)
        r.run(reduce_stage(
            to, (aoh, aow, ac),
            Reduce("max", ta[aoh * 2 + rkh, aow * 2 + rkw, ac], (rkh, rkw)),
        ))
        want = np.stack([
            [a[i * 2:i * 2 + 3, j * 2:j * 2 + 3].max(axis=(0, 1))
             for j in range(4)] for i in range(4)
        ])
        assert np.array_equal(r.read("o"), want)

    def test_sum_reduce(self, rng):
        r = Runner()
        a = rng.integers(-3, 4, (3, 4, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (4, C0))
        ai, ac = Axis("i", 4), Axis("c", C0)
        rk = Axis("k", 3)
        r.run(reduce_stage(
            to, (ai, ac), Reduce("sum", ta[rk, ai, ac], (rk,))
        ))
        assert np.array_equal(r.read("o"), a.sum(axis=0, dtype=np.float16))

    def test_wide_reduce_over_planes(self, rng):
        # Listing 2 exactly; 4*4*16 = 256 lanes = two whole repeats, so
        # one vmax per (kh, kw) plane.
        r = Runner()
        a = rng.standard_normal((2, 2, 4, 4, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (4, 4, C0))
        aoh, aow, ac = Axis("oh", 4), Axis("ow", 4), Axis("c", C0)
        rkh, rkw = Axis("kh", 2), Axis("kw", 2)
        res = r.run(reduce_stage(
            to, (aoh, aow, ac),
            Reduce("max", ta[rkh, rkw, aoh, aow, ac], (rkh, rkw)),
        ))
        assert np.array_equal(r.read("o"), a.max(axis=(0, 1)))
        # the whole plane per issue: kh*kw compute instructions
        assert r.prog.issue_counts()["vmax"] == 4

    def test_wide_reduce_with_tail(self, rng):
        # 5*5*16 = 400 lanes = 3 repeats + a 16-lane tail: two vmax
        # instructions per plane.
        r = Runner()
        a = rng.standard_normal((2, 2, 5, 5, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (5, 5, C0))
        aoh, aow, ac = Axis("oh", 5), Axis("ow", 5), Axis("c", C0)
        rkh, rkw = Axis("kh", 2), Axis("kw", 2)
        r.run(reduce_stage(
            to, (aoh, aow, ac),
            Reduce("max", ta[rkh, rkw, aoh, aow, ac], (rkh, rkw)),
        ))
        assert np.array_equal(r.read("o"), a.max(axis=(0, 1)))
        assert r.prog.issue_counts()["vmax"] == 8

    def test_reduce_initialises_with_identity(self, rng):
        # Output starts poisoned; the fill must overwrite it.
        r = Runner()
        a = (-np.abs(rng.standard_normal((2, C0)))).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (C0,), np.full(C0, 999, np.float16))
        ac = Axis("c", C0)
        rk = Axis("k", 2)
        r.run(reduce_stage(to, (ac,), Reduce("max", ta[rk, ac], (rk,))))
        assert np.array_equal(r.read("o"), a.max(axis=0))

    def test_padded_plane_strides(self, rng):
        # Planes padded to whole fractals: valid prefix reduced, pad
        # rows ignored.
        r = Runner()
        oh = ow = 3  # 9 patches -> plane padded to 16 rows
        plane = 16 * C0
        data = rng.standard_normal((2, plane)).astype(np.float16)
        ta = r.tensor(
            "a", (2, oh, ow, C0), data.reshape(2, -1)[:, : oh * ow * C0]
            .reshape(2, oh, ow, C0),
            strides=(plane, ow * C0, C0, 1),
        )
        to = r.tensor("o", (oh, ow, C0))
        aoh, aow, ac = Axis("oh", oh), Axis("ow", ow), Axis("c", C0)
        rk = Axis("k", 2)
        r.run(reduce_stage(
            to, (aoh, aow, ac), Reduce("max", ta[rk, aoh, aow, ac], (rk,))
        ))
        want = r.read("a").max(axis=0)
        assert np.array_equal(r.read("o"), want)


class TestScatterAccumulate:
    def test_merge_semantics(self, rng):
        # the backward merge: out[i*2+k, c] += m[k, i, c]
        r = Runner()
        m = rng.integers(-3, 4, (3, 4, C0)).astype(np.float16)
        tm = r.tensor("m", m.shape, m)
        to = r.tensor("o", (9, C0), np.zeros((9, C0), np.float16))
        ak, ai, ac = Axis("k", 3), Axis("i", 4), Axis("c", C0)
        r.run(scatter_accumulate_stage(
            to, (ai * 2 + ak, ac), (ak, ai, ac), tm[ak, ai, ac]
        ))
        want = np.zeros((9, C0), np.float16)
        for k in range(3):
            for i in range(4):
                want[i * 2 + k] += m[k, i]
        assert np.array_equal(r.read("o"), want)

    def test_merge_issue_count(self, rng):
        r = Runner()
        m = rng.standard_normal((3, 4, C0)).astype(np.float16)
        tm = r.tensor("m", m.shape, m)
        to = r.tensor("o", (9, C0), np.zeros((9, C0), np.float16))
        ak, ai, ac = Axis("k", 3), Axis("i", 4), Axis("c", C0)
        r.run(scatter_accumulate_stage(
            to, (ai * 2 + ak, ac), (ak, ai, ac), tm[ak, ai, ac]
        ))
        # one unrepeated 16-lane vadd per (k, i) -- the paper's bad case
        assert r.prog.issue_counts()["vadd"] == 12


class TestRepeatChunking:
    def test_wide_stage_chunks_at_max_repeat(self, rng):
        r = Runner()
        n = 20 * 128  # 20 full repeats
        a = rng.standard_normal((n,)).astype(np.float16)
        ta = r.tensor("a", (n,), a)
        to = r.tensor("o", (n,))
        ax = (Axis("i", n),)
        res = r.run(
            elementwise_stage(to, ax, ta[ax[0]]), max_repeat=8
        )
        assert np.array_equal(r.read("o"), a)
        # ceil(20/8) = 3 instructions
        assert res[0].instructions == 3

    def test_narrow_fold_chunks_at_max_repeat(self, rng):
        # A strided source keeps the group at C0; the contiguous output
        # lets i fold into the repeat, chunked at max_repeat.
        r = Runner()
        a = rng.standard_normal((20, C0)).astype(np.float16)
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (10, C0))
        ai, ac = Axis("i", 10), Axis("c", C0)
        res = r.run(
            elementwise_stage(to, (ai, ac), ta[ai * 2, ac]), max_repeat=4
        )
        assert np.array_equal(r.read("o"), a[::2])
        assert res[0].instructions == 3  # ceil(10/4)

    def test_invalid_max_repeat(self, rng):
        r = Runner()
        a = rng.standard_normal((C0,)).astype(np.float16)
        ta = r.tensor("a", (C0,), a)
        to = r.tensor("o", (C0,))
        ac = Axis("c", C0)
        with pytest.raises(LoweringError):
            r.run(elementwise_stage(to, (ac,), ta[ac]), max_repeat=0)

    def test_unbound_tensor_rejected(self, rng):
        r = Runner()
        a = rng.standard_normal((C0,)).astype(np.float16)
        ta = r.tensor("a", (C0,), a)
        loose = TensorDecl("loose", (C0,))
        ac = Axis("c", C0)
        with pytest.raises(LoweringError):
            r.run(elementwise_stage(loose, (ac,), ta[ac]))


def _wide_tail(r):
    # 5*5*16 = 400 lanes: 3 full repeats + a 16-lane tail per plane.
    a = r.tensor("a", (2, 2, 5, 5, C0))
    o = r.tensor("o", (5, 5, C0))
    aoh, aow, ac = Axis("oh", 5), Axis("ow", 5), Axis("c", C0)
    rkh, rkw = Axis("kh", 2), Axis("kw", 2)
    return reduce_stage(
        o, (aoh, aow, ac),
        Reduce("max", a[rkh, rkw, aoh, aow, ac], (rkh, rkw)),
    ), 255


def _wide_chunked(r):
    a = r.tensor("a", (3, 20 * 128))
    o = r.tensor("o", (3, 20 * 128))
    ak, ai = Axis("k", 3), Axis("i", 20 * 128)
    # The outer k axis repeats the chunk schedule at every point.
    return elementwise_stage(o, (ak, ai), a[ak, ai]), 8


def _narrow_fold_chunked(r):
    # Listing 1: the strided source keeps the group at C0 and Kw folds
    # into the repeat, chunked at max_repeat; dst repeats across Kh.
    a = r.tensor("a", (9, 9, C0))
    o = r.tensor("o", (4, 4, C0))
    aoh, aow, ac = Axis("oh", 4), Axis("ow", 4), Axis("c", C0)
    rkh, rkw = Axis("kh", 3), Axis("kw", 3)
    return reduce_stage(
        o, (aoh, aow, ac),
        Reduce("max", a[aoh * 2 + rkh, aow * 2 + rkw, ac], (rkh, rkw)),
    ), 2


def _no_fold_scatter(r):
    # The backward merge: overlapping windows hit one destination row
    # from two (k, i) points.
    m = r.tensor("m", (3, 4, C0))
    o = r.tensor("o", (9, C0))
    ak, ai, ac = Axis("k", 3), Axis("i", 4), Axis("c", C0)
    return scatter_accumulate_stage(
        o, (ai * 2 + ak, ac), (ak, ai, ac), m[ak, ai, ac]
    ), 255


def _fill(r):
    o = r.tensor("o", (5, 7, C0))
    ax = (Axis("a", 5), Axis("b", 7), Axis("c", C0))
    return fill_stage(o, ax, 1.0), 255


def _eq(r):
    # vcmp cannot repeat: every 128-lane chunk is its own instruction.
    a = r.tensor("a", (3, 9, C0))
    b = r.tensor("b", (3, 9, C0))
    o = r.tensor("o", (3, 9, C0))
    ax = (Axis("i", 3), Axis("j", 9), Axis("c", C0))
    return elementwise_stage(
        o, ax, BinOp("eq", a[ax[0], ax[1], ax[2]], b[ax[0], ax[1], ax[2]])
    ), 255


PLAN_SHAPES = {
    "wide-tail": (_wide_tail, True),
    "wide-chunked": (_wide_chunked, False),
    "narrow-fold-chunked": (_narrow_fold_chunked, True),
    "no-fold-scatter": (_no_fold_scatter, True),
    "fill": (_fill, False),
    "eq": (_eq, False),
}


@pytest.mark.parametrize("shape", PLAN_SHAPES)
def test_plan_shape_emission_and_operand_sharing(shape):
    build, dst_repeats = PLAN_SHAPES[shape]
    r = Runner()
    stage, max_repeat = build(r)
    lpr = FLOAT16.lanes_per_repeat

    def per_tile(st):
        cap = min(max_repeat, stage_max_repeat(st) or max_repeat)
        return plan_stage(st, FLOAT16).instructions_per_tile(cap, lpr)

    counts = [per_tile(stage)]
    if isinstance(stage.body, Reduce):
        counts.insert(0, per_tile(fill_stage(stage.out, stage.axes, 0.0)))
    prog = Program("t")
    res = lower_stage(stage, r.binding, prog, FLOAT16, max_repeat=max_repeat)
    assert res.plan == plan_stage(stage, FLOAT16)
    assert res.instructions == len(prog) == sum(counts)
    assert prog.scalar_loop_trips == sum(n for n in counts if n > 1)

    accumulates = isinstance(stage.body, Reduce) or stage.accumulate
    start = 0
    for idx, n in enumerate(counts):
        instrs = prog.instructions[start:start + n]
        start += n
        # Within a stage, equal operands of one slot are one object.
        for name, _ in operand_table(type(instrs[0])):
            seen = {}
            for ins in instrs:
                op = getattr(ins, name)
                assert seen.setdefault(op, op) is op
        # No object is shared across the slots of one instruction,
        # except an accumulating op's dst read back as src0.
        rmw = accumulates and idx == len(counts) - 1
        for ins in instrs:
            ops = [v for _, v, _ in ins.operands()]
            if rmw:
                assert ops[1] is ops[0]
                ops = ops[1:]
            assert len({id(v) for v in ops}) == len(ops)
    main = prog.instructions[-counts[-1]:]
    dsts = [ins.dst for ins in main]
    assert (len({id(d) for d in dsts}) < len(dsts)) == dst_repeats


class TestLoweringProperty:
    @given(
        oh=st.integers(2, 5),
        ow=st.integers(2, 5),
        kh=st.integers(1, 3),
        kw=st.integers(1, 3),
        sh=st.integers(1, 3),
        sw=st.integers(1, 3),
        op=st.sampled_from(["max", "sum"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_pooling_reduction_any_geometry(self, oh, ow, kh, kw, sh, sw, op):
        """Lowered scattered reductions match NumPy for arbitrary
        pooling geometry (integer data keeps sums exact)."""
        ih = (oh - 1) * sh + kh
        iw = (ow - 1) * sw + kw
        rng = np.random.default_rng(oh * 3 + ow * 5 + kh * 7 + kw * 11 + sh)
        a = rng.integers(-4, 5, (ih, iw, C0)).astype(np.float16)
        r = Runner()
        ta = r.tensor("a", a.shape, a)
        to = r.tensor("o", (oh, ow, C0))
        aoh, aow, ac = Axis("oh", oh), Axis("ow", ow), Axis("c", C0)
        rkh, rkw = Axis("kh", kh), Axis("kw", kw)
        r.run(reduce_stage(
            to, (aoh, aow, ac),
            Reduce(op, ta[aoh * sh + rkh, aow * sw + rkw, ac], (rkh, rkw)),
        ))
        npop = np.max if op == "max" else np.sum
        want = np.stack([
            [npop(a[i * sh:i * sh + kh, j * sw:j * sw + kw], axis=(0, 1))
             for j in range(ow)] for i in range(oh)
        ]).astype(np.float16)
        assert np.array_equal(r.read("o"), want)
