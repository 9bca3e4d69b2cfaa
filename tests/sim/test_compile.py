"""The Program-to-NumPy JIT (:mod:`repro.sim.compile`).

Covers the compilation contract at every layer:

* hand-built programs run through a :class:`CompiledKernel` must be
  **bit-identical** to the per-instruction interpreter;
* one kernel serves every tile of its program: the core serves each
  global-memory tensor as a view from the tile's delta on, and an
  escape names the tensor's absolute indices;
* a kernel reserves only the scratch-pad extent its steps address,
  and a core's store keeps what earlier tiles wrote;
* every shipped instruction class compiles bit-identically, and an
  instruction without ``compile()`` raises
  :class:`~repro.errors.CompileError` naming its opcode (there is no
  interpreter fallback);
* the chip is the only way into the JIT: the mode is mutually
  exclusive with ``sanitize=`` and raw ``injection=``, *silent-only*
  fault plans (undetected :class:`BitFlip`) compose with it (flips
  land on written global-memory tensors post-execute) while anything
  needing per-instruction boundaries raises a precise
  :class:`~repro.errors.PlanError`, and a work item's kernel runs only
  under ``execute="jit"``;
* kernel/program mismatches raise instead of silently mis-executing.

Whole-operator bit-identity is enforced end-to-end by
``python -m repro.validate --jit`` and the equivalence suites in
``tests/ops``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import (
    ASCEND910,
    ASCEND910_SINGLE_CORE,
    SCRATCH_PADS,
    ChipConfig,
)
from repro.dtypes import FLOAT16
from repro.errors import CompileError, IsaError, SimulationError
from repro.isa.instruction import Instruction
from repro.isa.mask import Mask
from repro.isa.operand import MemRef, VectorOperand
from repro.isa.program import Program
from repro.isa.scu import Col2ImStore, DataMove, Im2ColLoad, Im2ColParams
from repro.isa.vector import VADD, VADDS, VMAX, VectorDup
from repro.sim import (
    AICore,
    BitFlip,
    Chip,
    CompiledKernel,
    FaultPlan,
    GlobalMemory,
    RetryPolicy,
    WorkItem,
    compile_program,
)
from tests.isa.test_operands import _samples

DT = FLOAT16
CFG = ASCEND910
ONE = ASCEND910_SINGLE_CORE
SMALL = ChipConfig(num_cores=2)


def _vop(buffer: str, offset: int, size: int = 128) -> VectorOperand:
    return VectorOperand(MemRef(buffer, offset, size, DT))


def _gm(n_x: int = 4096, n_out: int = 4096, seed: int = 0) -> GlobalMemory:
    rng = np.random.default_rng(seed)
    gm = GlobalMemory()
    gm.add("x", rng.standard_normal(n_x).astype(DT.np_dtype))
    gm.zeros("out", n_out, DT)
    return gm


def _run_both(program: Program, seed: int = 0):
    """Interpreter and JIT results of ``program`` on identical memory,
    the JIT's through a one-core chip."""
    ref_gm = _gm(seed=seed)
    jit_gm = _gm(seed=seed)
    ref = AICore(CFG, DT).run(program, ref_gm)
    (jit,) = Chip(ONE, DT).run_tiles([program], jit_gm, execute="jit").per_tile
    return ref, jit, ref_gm, jit_gm


def _items(program: Program, deltas, kernel=None) -> list[list[WorkItem]]:
    """One-tile groups running ``program`` at each delta map."""
    return [[WorkItem(program, kernel=kernel, deltas=d)] for d in deltas]


def _sample_program() -> Program:
    """DMA in, dup, vector math, DMA out: every common record kind."""
    p = Program("sample-s0-t0")
    p.emit(DataMove(MemRef("x", 0, 512, DT), MemRef("UB", 0, 512, DT)))
    p.emit(VectorDup(_vop("UB", 512), 0.25, Mask.full(), repeat=2))
    p.emit(
        VMAX(
            _vop("UB", 1024), _vop("UB", 0), _vop("UB", 256),
            Mask.full(), repeat=2,
        )
    )
    p.emit(
        VADDS(
            _vop("UB", 1536), _vop("UB", 1024), 1.5, Mask.full(), repeat=2,
        )
    )
    p.emit(DataMove(MemRef("UB", 1536, 256, DT), MemRef("out", 64, 256, DT)))
    return p


# ---------------------------------------------------------------------------
# Bit identity on hand-built programs.
# ---------------------------------------------------------------------------

class TestBitIdentity:
    def test_mixed_program_matches_interpreter(self):
        p = _sample_program()
        ref, jit, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))
        assert ref.cycles == jit.cycles
        assert ref.instructions == jit.instructions

    def test_accumulate_dma(self):
        p = Program("acc-s0-t0")
        p.emit(DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT)))
        p.emit(
            DataMove(
                MemRef("UB", 0, 128, DT), MemRef("out", 0, 128, DT),
                accumulate=True,
            )
        )
        p.emit(
            DataMove(
                MemRef("UB", 0, 128, DT), MemRef("out", 0, 128, DT),
                accumulate=True,
            )
        )
        _, _, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))

    def test_im2col_col2im_round_trip(self):
        params = Im2ColParams(ih=6, iw=6, kh=2, kw=2, sh=2, sw=2, pr=1)
        rows = params.plane_rows()
        p = Program("scu-s0-t0")
        n_in = params.ih * params.iw * DT.c0
        p.emit(DataMove(MemRef("x", 0, n_in, DT), MemRef("UB", 0, n_in, DT)))
        src = MemRef("UB", 0, n_in, DT)
        for k, (xk, yk) in enumerate(
            (xk, yk) for yk in range(params.kh) for xk in range(params.kw)
        ):
            p.emit(
                Im2ColLoad(
                    src,
                    MemRef("UB", n_in + k * rows * DT.c0, rows * DT.c0, DT),
                    params, c1=0, xk=xk, yk=yk,
                    repeat=rows // 16, pad_value=-1.0,
                )
            )
        merge = MemRef("UB", n_in + 4 * rows * DT.c0, n_in, DT)
        p.emit(VectorDup(VectorOperand(merge), 0.0, Mask.full(),
                         repeat=n_in // 128))
        for k, (xk, yk) in enumerate(
            (xk, yk) for yk in range(params.kh) for xk in range(params.kw)
        ):
            p.emit(
                Col2ImStore(
                    MemRef("UB", n_in + k * rows * DT.c0, rows * DT.c0, DT),
                    merge, params, c1=0, xk=xk, yk=yk, repeat=rows // 16,
                )
            )
        p.emit(DataMove(merge, MemRef("out", 0, n_in, DT)))
        ref, jit, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))
        assert ref.cycles == jit.cycles

    def test_overlapping_vector_writes_stay_sequential(self):
        """Aliased dst/src repeats must replay the interpreter loop."""
        p = Program("alias-s0-t0")
        p.emit(DataMove(MemRef("x", 0, 256, DT), MemRef("UB", 0, 256, DT)))
        # rep_stride=0: every repeat writes the same 128 lanes, each
        # observing the previous repeat's result.
        p.emit(
            VADD(
                VectorOperand(MemRef("UB", 0, 128, DT), rep_stride=0),
                VectorOperand(MemRef("UB", 0, 128, DT), rep_stride=0),
                VectorOperand(MemRef("UB", 128, 128, DT), rep_stride=0),
                Mask.full(), repeat=3,
            )
        )
        p.emit(DataMove(MemRef("UB", 0, 128, DT), MemRef("out", 0, 128, DT)))
        _, _, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))

    def test_vmax_reduction_rewrite_is_exact(self):
        """The vmax repeat chain (dst rep_stride 0, src0 == dst) is the
        pooling reduction idiom; the ufunc.reduce rewrite must be
        bit-identical."""
        p = Program("reduce-s0-t0")
        p.emit(DataMove(MemRef("x", 0, 1024, DT), MemRef("UB", 128, 1024, DT)))
        p.emit(DataMove(MemRef("x", 1024, 128, DT), MemRef("UB", 0, 128, DT)))
        p.emit(
            VMAX(
                VectorOperand(MemRef("UB", 0, 128, DT), rep_stride=0),
                VectorOperand(MemRef("UB", 0, 128, DT), rep_stride=0),
                VectorOperand(MemRef("UB", 128, 1024, DT)),
                Mask.full(), repeat=8,
            )
        )
        p.emit(DataMove(MemRef("UB", 0, 128, DT), MemRef("out", 0, 128, DT)))
        _, _, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))


# ---------------------------------------------------------------------------
# Fusion shape.
# ---------------------------------------------------------------------------

class TestFusion:
    def test_stats_shape(self):
        p = _sample_program()
        s = compile_program(p).stats
        assert s.instructions == len(p)
        assert 1 <= s.steps <= len(p)

    def test_adjacent_dma_rows_fuse_into_one_step(self):
        p = Program("rows-s0-t0")
        for r in range(8):
            p.emit(
                DataMove(
                    MemRef("x", r * 96, 64, DT),
                    MemRef("UB", r * 64, 64, DT),
                )
            )
        kernel = compile_program(p)
        assert kernel.stats.steps == 1
        assert kernel.stats.instructions == 8

    def test_write_set_tracks_every_index_added(self):
        from repro.sim.compile import _WriteSet

        ws = _WriteSet()
        assert not ws.intersects("UB", np.arange(4))
        ws.add("UB", np.array([[3, 9], [9, 1]]))
        ws.add("UB", np.array([], dtype=np.int64))
        ws.add("UB", np.array([40]))  # grows past the first extent
        hits = [i for i in range(64) if ws.intersects("UB", np.array([i]))]
        assert hits == [1, 3, 9, 40]
        assert ws.intersects("UB", np.array([100, 7, 40]))
        assert not ws.intersects("UB", np.array([0, 2, 1000]))
        assert not ws.intersects("L1", np.array([3]))

    #: Fused steps of the kernels behind the serve-open benchmark's
    #: requests (3x3/s2 maxpool with the Argmax mask through Im2col and
    #: its Col2im backward, 1x2 slices of 16 channels): one program per
    #: plan, and these counts must not move with the fusion's
    #: bookkeeping.
    SERVE_OPEN_STEPS = {
        (28, 28): (51, 6), (24, 20): (51, 6), (20, 24): (51, 6),
        (16, 16): (45, 6),
    }

    @pytest.mark.parametrize("hw", sorted(SERVE_OPEN_STEPS))
    def test_serve_open_kernels_keep_their_step_counts(self, hw):
        from repro.ops import PoolSpec
        from repro.ops.registry import backward_impl, forward_impl
        from repro.plan import lower, plan_default
        from repro.sim import ProgramCache

        steps = []
        for kind, impl in (
            ("fwd", forward_impl("im2col", "max", True)),
            ("bwd", backward_impl("col2im", "max")),
        ):
            plan = plan_default(
                kind, impl, PoolSpec.square(3, 2), DT, 1, 2, *hw, CFG,
                execute="jit",
            )
            groups = lower(plan, CFG, cache=ProgramCache()).groups
            (kernel,) = {i.kernel for g in groups for i in g}
            steps.append(kernel.stats.steps)
        assert tuple(steps) == self.SERVE_OPEN_STEPS[hw]

    def test_same_value_dups_fuse(self):
        p = Program("dups-s0-t0")
        for r in range(4):
            p.emit(VectorDup(_vop("UB", r * 128), 0.5, Mask.full()))
        assert compile_program(p).stats.steps == 1

    def test_overlapping_copies_do_not_fuse(self):
        p = Program("overlap-s0-t0")
        # dst stride 32 < 64 elements: rows overlap, must stay separate
        # steps so later writes land after earlier ones.
        for r in range(4):
            p.emit(
                DataMove(
                    MemRef("x", r * 64, 64, DT),
                    MemRef("UB", r * 32, 64, DT),
                )
            )
        kernel = compile_program(p)
        assert kernel.stats.steps == 4
        p.emit(DataMove(MemRef("UB", 0, 160, DT), MemRef("out", 0, 160, DT)))
        _, _, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))

    def test_fused_kernel_is_bit_identical(self):
        p = Program("rows-s0-t0")
        for r in range(8):
            p.emit(
                DataMove(
                    MemRef("x", r * 96, 64, DT), MemRef("UB", r * 64, 64, DT)
                )
            )
        p.emit(DataMove(MemRef("UB", 0, 512, DT), MemRef("out", 0, 512, DT)))
        _, _, ref_gm, jit_gm = _run_both(p)
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))


# ---------------------------------------------------------------------------
# Relocation by deltas: one kernel runs its program at any tile.
# ---------------------------------------------------------------------------

class TestRelocation:
    def test_one_kernel_serves_relocated_clones(self):
        """One kernel runs its program at every delta bit-identically
        to the interpreter at the same delta."""
        template = _sample_program()
        kernel = compile_program(template)
        for delta in (0, 512, 1024):
            deltas = {"x": delta, "out": delta}
            ref_gm, jit_gm = _gm(seed=7), _gm(seed=7)
            AICore(CFG, DT).run(template, ref_gm, deltas=deltas)
            Chip(ONE, DT).run_tile_groups(
                _items(template, [deltas], kernel), jit_gm, execute="jit"
            )
            assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))
            assert ref_gm.view("out")[delta + 64 : delta + 320].any()

    def test_out_of_range_delta_raises(self):
        template = _sample_program()
        kernel = compile_program(template)
        gm = _gm()
        with pytest.raises(IsaError, match="escape"):
            # escapes out's 4096
            Chip(ONE, DT).run_tile_groups(
                _items(template, [{"out": 4096}], kernel), gm, execute="jit"
            )
        # In a batch only the last tile escapes: the error names its
        # absolute indices (its store is out[64:320] at delta 3840),
        # and no tile of the batch ran.
        deltas = [{"out": 0}, {"out": 512}, {"out": 3840}]
        with pytest.raises(
            IsaError, match=r"\[3904, 4159\] escape buffer 'out' of size 4096"
        ):
            Chip(ChipConfig(num_cores=4), DT).run_tile_groups(
                _items(template, deltas, kernel), gm, execute="jit",
            )
        assert not gm.view("out").any()


# ---------------------------------------------------------------------------
# Scratch-pad extents: a kernel reserves only what its steps address.
# ---------------------------------------------------------------------------

def _ub_program(name: str, n: int) -> Program:
    """Load ``n`` elements of ``x`` into ``UB`` and store them back to
    ``out``: a kernel whose ``UB`` extent is exactly ``n``."""
    p = Program(name)
    p.emit(DataMove(MemRef("x", 0, n, DT), MemRef("UB", 0, n, DT)))
    p.emit(DataMove(MemRef("UB", 0, n, DT), MemRef("out", 0, n, DT)))
    return p


class TestExtents:
    def test_kernel_extent_is_the_highest_addressed_element(self):
        kernel = compile_program(_sample_program())
        # UB is addressed up to VADDS's dst, [1536, 1792).
        assert kernel.extents == {"UB": 1792, "out": None, "x": None}

    def test_fresh_chip_stores_total_kernel_extents(self, monkeypatch):
        """A fresh JIT chip grows only the scratch-pads its kernels
        address, and only to their extents -- not to capacity."""
        import repro.plan.planner as planner
        from repro.ops import PoolSpec
        from repro.ops.registry import forward_impl
        from repro.plan import dispatch, lower, plan_default
        from repro.sim import ProgramCache
        from repro.workloads import make_input

        chips = []

        class Recording(Chip):
            def __post_init__(self):
                super().__post_init__()
                chips.append(self)

        monkeypatch.setattr(planner, "Chip", Recording)
        x = make_input(16, 16, 32, n=1, seed=0)
        plan = plan_default(
            "fwd", forward_impl("im2col", "max", True), PoolSpec.square(3, 2),
            DT, *x.shape[:4], SMALL, execute="jit",
        )
        low = lower(plan, SMALL, cache=ProgramCache())
        dispatch(plan, low, SMALL, x=x)
        (chip,) = chips
        kernels = [item.kernel for group in low.groups for item in group]
        reach = {
            name: max(k.extents.get(name) or 0 for k in kernels)
            for name in SCRATCH_PADS
        }
        assert reach["UB"] > 0
        for core in chip.cores:
            for name, buf in core.buffers.items():
                assert buf.extent <= reach[name]
                assert reach[name] < buf.capacity_elems
        stored = sum(
            b.extent for core in chip.cores for b in core.buffers.values()
        )
        assert stored <= len(chip.cores) * sum(reach.values())

    def test_larger_extent_keeps_earlier_writes(self):
        """On a 1-core chip a second tile with a larger extent reads
        the first tile's writes, and zeros past them."""
        small, large = _ub_program("small", 64), Program("large")
        # The second tile only stores UB out: it reads what is there.
        large.emit(
            DataMove(MemRef("UB", 0, 256, DT), MemRef("out", 0, 256, DT))
        )
        group = [
            WorkItem(p, kernel=compile_program(p)) for p in (small, large)
        ]
        gm = _gm(seed=2)
        chip = Chip(ChipConfig(num_cores=1), DT)
        chip.run_tile_groups([group], gm, execute="jit")
        out = gm.view("out")
        assert np.array_equal(out[:64], gm.view("x")[:64])
        assert not out[64:256].any()
        assert chip.cores[0].buffers["UB"].extent == 256

    def test_extent_past_capacity_raises(self):
        cap = CFG.buffer_specs()["UB"].capacity_bytes // DT.itemsize
        program = Program("huge")
        program.emit(VectorDup(_vop("UB", cap - 64), 1.0, Mask.full()))
        with pytest.raises(IsaError):
            Chip(ONE, DT).run_tiles([program], _gm(), execute="jit")
        with pytest.raises(IsaError):
            AICore(CFG, DT).run(program, _gm())


# ---------------------------------------------------------------------------
# One JIT path: every shipped class compiles, any other is refused.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("instr", _samples(), ids=lambda i: type(i).__name__)
def test_every_shipped_class_compiles_bit_identically(instr):
    """A one-instruction kernel of each shipped class (the samples cover
    every one) leaves scratch-pads and global memory bit-identical to
    the interpreter's, from identically filled random contents."""
    program = Program(f"{instr.opcode}-s0-t0", [instr])
    cores = []
    for execute in ("numeric", "jit"):
        rng = np.random.default_rng(5)
        chip = Chip(ONE, DT)
        (core,) = chip.cores
        for name in sorted(SCRATCH_PADS):
            core.view(name)[:4096] = rng.standard_normal(4096)
        gm = _gm(seed=5)
        chip.run_tiles([program], gm, execute=execute)
        cores.append((core, gm))
    (ref, ref_gm), (jit, jit_gm) = cores
    for name in sorted(SCRATCH_PADS):
        assert np.array_equal(
            ref.view(name).view(np.uint16), jit.view(name).view(np.uint16)
        ), name
    for name in ("x", "out"):
        assert np.array_equal(ref_gm.view(name), jit_gm.view(name)), name


@dataclasses.dataclass(frozen=True)
class _Opaque(Instruction):
    """A scalar instruction without a ``compile()`` hook."""

    dst: MemRef
    unit = "scalar"

    def cycles(self, cost) -> int:
        return 1

    def execute(self, ctx) -> None:
        view = ctx.view(self.dst.buffer)
        view[self.dst.offset : self.dst.end] += 1.0


def _opaque_program() -> Program:
    p = Program("opaque-s0-t0")
    p.emit(DataMove(MemRef("x", 0, 128, DT), MemRef("UB", 0, 128, DT)))
    p.emit(_Opaque(MemRef("UB", 0, 128, DT)))
    p.emit(DataMove(MemRef("UB", 0, 128, DT), MemRef("out", 0, 128, DT)))
    return p


class TestUncompilable:
    def test_base_compile_raises_compile_error(self):
        with pytest.raises(CompileError, match="_opaque does not implement"):
            _Opaque(MemRef("UB", 0, 128, DT)).compile(None)

    def test_compile_program_names_the_opcode(self):
        with pytest.raises(CompileError, match="_opaque"):
            compile_program(_opaque_program())

    def test_jit_run_names_the_opcode(self):
        chip, gm = Chip(ONE, DT), _gm()
        with pytest.raises(CompileError, match="_opaque"):
            chip.run_tiles([_opaque_program()], gm, execute="jit")
        assert not gm.view("out").any()  # nothing ran
        # The interpreter still runs the program.
        chip.run_tiles([_opaque_program()], gm)
        assert gm.view("out").any()


# ---------------------------------------------------------------------------
# Mode exclusivity and mismatch guards.
# ---------------------------------------------------------------------------

class TestGuards:
    def test_jit_rejects_sanitize(self):
        chip = Chip(ONE, DT)
        with pytest.raises(SimulationError, match="sanitized"):
            chip.run_tiles(
                [_sample_program()], _gm(), execute="jit", sanitize=True
            )

    def test_jit_rejects_injection(self):
        """``injection=`` reaches only ``AICore.run``, which refuses the
        JIT before any instruction runs."""
        from repro.sim.faults import Injection

        inj = Injection(
            tile=0, core=0, attempt=0, bitflips=(BitFlip(tile=0),)
        )
        gm = _gm()
        with pytest.raises(SimulationError, match="does not execute 'jit'"):
            AICore(CFG, DT).run(
                _sample_program(), gm, injection=inj, execute="jit"
            )
        assert not gm.view("out").any()

    def test_compiled_requires_jit_mode(self):
        """An item carrying a kernel is refused before any tile runs."""
        p = _sample_program()
        gm = _gm()
        with pytest.raises(SimulationError, match="execute='jit'"):
            Chip(ONE, DT).run_tile_groups(
                [[WorkItem(p)], [WorkItem(p, kernel=compile_program(p))]],
                gm,
            )
        assert not gm.view("out").any()

    def test_chip_rejects_jit_with_nonsilent_faults(self):
        from repro.errors import PlanError
        from repro.sim.faults import Crash

        chip = Chip(SMALL, DT)
        with pytest.raises(PlanError, match=r"fault kinds: Crash"):
            chip.run_tiles(
                [_sample_program()], _gm(), execute="jit",
                faults=FaultPlan(faults=(Crash(tile=0),)),
            )
        with pytest.raises(PlanError, match=r"BitFlip\(detected=True\)"):
            chip.run_tiles(
                [_sample_program()], _gm(), execute="jit",
                faults=FaultPlan(faults=(BitFlip(tile=0, detected=True),)),
            )
        with pytest.raises(PlanError, match="resilient retry"):
            chip.run_tiles(
                [_sample_program()], _gm(), execute="jit",
                retry=RetryPolicy(),
            )

    def test_chip_jit_allows_silent_fault_plans(self):
        chip = Chip(SMALL, DT)
        # Empty plans are trivially silent-only; no faults fire.
        res = chip.run_tiles(
            [_sample_program()], _gm(), execute="jit",
            faults=FaultPlan(faults=()),
        )
        assert res.resilience is not None
        assert res.resilience.plan_faults == 0
        # A silent BitFlip corrupts the JIT output deterministically:
        # same plan twice -> identical bytes, differing from fault-free.
        clean = chip.run_tiles([_sample_program()], _gm(), execute="jit")
        plan = FaultPlan(
            faults=(BitFlip(tile=0, offset=3, bit=2, detected=False),)
        )
        g1, g2 = _gm(), _gm()
        r1 = chip.run_tiles([_sample_program()], g1, execute="jit",
                            faults=plan)
        r2 = chip.run_tiles([_sample_program()], g2, execute="jit",
                            faults=plan)
        assert r1.resilience is not None
        assert r1.resilience.plan_faults == 1
        assert r1.cycles == clean.cycles  # silent: no retry, no stall
        np.testing.assert_array_equal(g1.tensors["out"], g2.tensors["out"])

    def test_chip_rejects_compiled_without_jit(self):
        p = _sample_program()
        item = WorkItem(p, kernel=compile_program(p))
        for execute, gm in (("numeric", _gm()), ("cycles", None)):
            with pytest.raises(SimulationError, match="execute='jit'"):
                Chip(SMALL, DT).run_tile_groups(
                    [[item]], gm, execute=execute
                )

    def test_kernel_rejects_wrong_program(self):
        kernel = compile_program(_sample_program())
        other = Program("other-s0-t0")
        other.emit(
            DataMove(MemRef("x", 0, 32, DT), MemRef("UB", 0, 32, DT))
        )
        with pytest.raises(SimulationError, match="mismatch"):
            Chip(ONE, DT).run_tile_groups(
                [[WorkItem(other, kernel=kernel)]], _gm(), execute="jit",
            )

    def test_kernel_rejects_same_length_different_name(self):
        p = _sample_program()
        kernel = compile_program(p)
        renamed = Program("imposter-s0-t0", list(p.instructions))
        with pytest.raises(SimulationError, match="mismatch"):
            Chip(ONE, DT).run_tile_groups(
                [[WorkItem(renamed, kernel=kernel)]], _gm(), execute="jit",
            )


# ---------------------------------------------------------------------------
# Chip-level dispatch.
# ---------------------------------------------------------------------------

class TestChipDispatch:
    def test_run_tiles_jit_matches_numeric(self):
        prog = _sample_program()
        deltas = [{"x": 512 * s, "out": 512 * s} for s in range(4)]
        ref_gm, jit_gm = _gm(seed=11), _gm(seed=11)
        ref = Chip(SMALL, DT).run_tile_groups(_items(prog, deltas), ref_gm)
        jit = Chip(SMALL, DT).run_tile_groups(
            _items(prog, deltas), jit_gm, execute="jit"
        )
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))
        assert ref.cycles == jit.cycles
        assert ref.total_work_cycles == jit.total_work_cycles

    def test_run_tile_groups_accepts_item_kernels(self):
        template = _sample_program()
        kernel = compile_program(template)
        deltas = [{"x": 512 * s, "out": 512 * s} for s in range(3)]
        ref_gm, jit_gm = _gm(seed=13), _gm(seed=13)
        Chip(SMALL, DT).run_tile_groups(_items(template, deltas), ref_gm)
        Chip(SMALL, DT).run_tile_groups(
            _items(template, deltas, kernel), jit_gm, execute="jit"
        )
        assert np.array_equal(ref_gm.view("out"), jit_gm.view("out"))
