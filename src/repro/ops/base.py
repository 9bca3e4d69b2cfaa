"""Shared orchestration for pooling implementations.

Every implementation follows the same envelope (Section V-A):

1. the workload is tiled on ``(N, C1)`` (and further row-chunked when a
   tile exceeds the Unified Buffer),
2. each tile's program loads its inputs from global memory, computes on
   one AI Core, and stores its outputs back,
3. tiles run in parallel across the chip's AI Cores.

Implementations only provide the *compute* part of a tile
(:meth:`PoolingImpl.build_tile`) and a footprint model used by the
tiling planner.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..config import ASCEND910, ChipConfig
from ..dtypes import DType, dtype_of
from ..errors import LayoutError
from ..expr import Axis, TensorDecl
from ..isa.operand import MemRef
from ..isa.scu import Im2ColParams
from ..plan import TileGeom
from ..plan.planner import (
    ExecutionPlan,
    check_tensors,
    dispatch,
    lower,
    resolve_plan,
)
from ..sim import (
    PROGRAM_CACHE,
    ChipRunResult,
    ExecutionModel,
    FaultInjector,
    FaultPlan,
    ProgramCache,
    ResilienceReport,
    RetryPolicy,
    SanitizerReport,
    check_execute,
)
from ..tik import KernelBuilder
from .spec import PoolSpec


@dataclass
class TileContext:
    """Everything a tile program needs to be built."""

    builder: KernelBuilder
    geom: TileGeom
    spec: PoolSpec
    dtype: DType
    #: Forward: the tile's input rows in global memory.
    gm_in: MemRef | None = None
    #: Forward: the tile's output rows in global memory.
    gm_out: MemRef | None = None
    #: (kh*kw) per-plane slices of the global mask tensor, row-major.
    gm_mask_planes: list[MemRef] | None = None
    #: Backward: the tile's incoming-gradient rows.
    gm_grad: MemRef | None = None
    #: Backward: the tile's input-gradient rows (accumulate target).
    gm_dx: MemRef | None = None

    @property
    def params(self) -> Im2ColParams:
        return self.geom.params

    @property
    def c0(self) -> int:
        return self.dtype.c0


class PoolingImpl(abc.ABC):
    """One pooling implementation (forward or backward)."""

    #: Short name used by the registry and the benches.
    name: str = "base"
    #: "max" or "avg".
    op: str = "max"
    #: Forward only: also produce the Argmax mask (Figure 7b).
    with_mask: bool = False
    #: Class-level capability flag: whether this implementation can save
    #: the Argmax mask at all.  The registry's introspection helpers
    #: (:func:`repro.ops.registry.forward_variants`) read it to
    #: enumerate every legal variant without try/except probing.
    supports_mask: bool = True

    def __init__(self, op: str = "max", with_mask: bool = False) -> None:
        if op not in ("max", "avg"):
            raise LayoutError(f"unknown pooling op {op!r}")
        if with_mask and not self.supports_mask:
            raise LayoutError(
                f"the {self.name} variant does not save a mask"
            )
        if with_mask and op != "max":
            raise LayoutError("the Argmax mask only exists for MaxPool")
        self.op = op
        self.with_mask = with_mask

    @property
    def reduce_op(self) -> str:
        return "max" if self.op == "max" else "sum"

    def pad_value(self, dtype: DType) -> float:
        """What padding positions contribute: the reduction identity."""
        return dtype.min_value if self.op == "max" else 0.0

    @abc.abstractmethod
    def footprint(self, params: Im2ColParams, dtype: DType) -> dict[str, int]:
        """Scratch-pad bytes a tile of this geometry requires.

        Must read nothing of the instance but ``op`` and ``with_mask``:
        the planner memoizes the chunk it picks per class on those.
        """

    @abc.abstractmethod
    def build_tile(self, ctx: TileContext) -> None:
        """Emit the tile's compute into ``ctx.builder``."""

    def describe(self) -> str:
        mask = "+mask" if self.with_mask else ""
        return f"{self.op}pool-{self.name}{mask}"


@dataclass
class PoolRunResult:
    """Simulated execution outcome of one operator invocation."""

    #: Forward: pooled output ``(N, C1, Oh, Ow, C0)``.
    #: Backward: input gradient ``(N, C1, Ih, Iw, C0)``.
    #: ``None`` under ``execute="cycles"`` (no data is computed).
    output: np.ndarray | None
    #: Forward with ``with_mask``: ``(N, C1, Kh, Kw, Oh, Ow, C0)``.
    mask: np.ndarray | None
    chip: ChipRunResult
    tiles: tuple[TileGeom, ...]
    #: Name of the timing model the cycle counts were produced under
    #: ("serial"/"pipelined"); numeric outputs are model-independent.
    timing_model: str = "serial"
    #: The :class:`~repro.plan.planner.ExecutionPlan` this result was
    #: dispatched from (``None`` for results constructed outside the
    #: plan pipeline).  Plans are plain frozen dataclasses, so they
    #: survive :meth:`detach` and pickling -- the serving layer ships
    #: them across the worker boundary with the result.
    plan: ExecutionPlan | None = None

    @property
    def cycles(self) -> int:
        """The chip-level cycle count (the paper's reported metric)."""
        return self.chip.cycles

    @property
    def resilience(self) -> "ResilienceReport | None":
        """What the resilience layer did, or ``None`` when the run used
        the historical fault-free dispatch path."""
        return self.chip.resilience

    @property
    def sanitizer(self) -> "SanitizerReport | None":
        """The memory sanitizer's merged report (``sanitize=True``), or
        ``None`` when the run used the zero-cost default path."""
        return self.chip.sanitizer

    def detach(self) -> "PoolRunResult":
        """A slim copy safe to ship across a process boundary.

        Every field of a :class:`PoolRunResult` pickles, but the
        per-instruction trace payloads inside ``chip.per_tile`` dwarf
        the actual answer -- for a serving system that is dead weight
        on every response.  ``detach()`` drops exactly that (see
        :meth:`repro.sim.chip.ChipRunResult.detach`): outputs, masks,
        cycle counts, per-core breakdowns, tile geometries and the
        resilience/sanitizer reports all survive.  The serving layer
        (:mod:`repro.serve`) detaches results before they cross the
        worker boundary unless the request asked for traces.
        """
        chip = self.chip.detach()
        if chip is self.chip:
            return self
        return PoolRunResult(
            output=self.output,
            mask=self.mask,
            chip=chip,
            tiles=self.tiles,
            timing_model=self.timing_model,
            plan=self.plan,
        )


# ---------------------------------------------------------------------------
# Shared building blocks used by the implementations.
# ---------------------------------------------------------------------------

def pool_axes(params: Im2ColParams, c0: int) -> dict[str, Axis]:
    """Fresh loop axes for one tile's geometry."""
    oh, ow = params.out_hw()
    return {
        "oh": Axis("oh", oh),
        "ow": Axis("ow", ow),
        "c0": Axis("c0", c0),
        "kh": Axis("kh", params.kh),
        "kw": Axis("kw", params.kw),
    }


def load_input_materialized(
    ctx: TileContext, pad_value: float
) -> tuple[TensorDecl, MemRef, Im2ColParams]:
    """Bring the tile input into the UB, materialising any padding.

    Implementations that compute directly on the image layout (standard,
    expansion, X-Y split) cannot pad on the fly the way the ``Im2Col``
    load can; they fill a padded region with the reduction identity and
    deposit the real rows inside it.  Returns the (possibly padded)
    tensor declaration, its UB region, and the *effective* geometry
    (padding folded into the image extents).
    """
    p = ctx.params
    b = ctx.builder
    c0 = ctx.c0
    if ctx.gm_in is None:
        raise LayoutError("tile context has no input tensor")
    if not (p.pt or p.pb or p.pl or p.pr):
        ref = b.alloc("UB", p.ih * p.iw * c0, "in")
        b.dma(ctx.gm_in, ref)
        decl = TensorDecl("in", (p.ih, p.iw, c0), ctx.dtype)
        return decl, ref, p
    ph = p.ih + p.pt + p.pb
    pw = p.iw + p.pl + p.pr
    ref = b.alloc("UB", ph * pw * c0, "in_padded")
    b.dup(ref, pad_value)
    interior = ref.slice((p.pt * pw + p.pl) * c0, (p.ih - 1) * pw * c0 + p.iw * c0)
    b.dma_rows(
        ctx.gm_in,
        interior,
        rows=p.ih,
        src_row_elems=p.iw * c0,
        dst_row_elems=pw * c0,
        copy_elems=p.iw * c0,
    )
    decl = TensorDecl("in", (ph, pw, c0), ctx.dtype)
    eff = Im2ColParams(
        ih=ph, iw=pw, kh=p.kh, kw=p.kw, sh=p.sh, sw=p.sw
    )
    return decl, ref, eff


def materialized_input_bytes(params: Im2ColParams, dtype: DType) -> int:
    """UB bytes of the (possibly padded) materialised input tile."""
    ph = params.ih + params.pt + params.pb
    pw = params.iw + params.pl + params.pr
    return ph * pw * dtype.c0 * dtype.itemsize


def out_tile_bytes(params: Im2ColParams, dtype: DType) -> int:
    """UB bytes of one (Oh, Ow, C0) output tile."""
    oh, ow = params.out_hw()
    return oh * ow * dtype.c0 * dtype.itemsize


def im2col_planes_bytes(params: Im2ColParams, dtype: DType) -> int:
    """UB bytes of the Kh*Kw fractal-padded Im2col planes."""
    return (
        params.kh * params.kw * params.plane_rows() * dtype.c0 * dtype.itemsize
    )


def mask_planes_bytes(params: Im2ColParams, dtype: DType) -> int:
    """UB bytes of the contiguous (unpadded) Argmax-mask planes."""
    oh, ow = params.out_hw()
    return params.kh * params.kw * oh * ow * dtype.c0 * dtype.itemsize


# ---------------------------------------------------------------------------
# Operator drivers.
# ---------------------------------------------------------------------------

def _validate_input(x: np.ndarray, dtype: DType) -> None:
    if x.ndim != 5:
        raise LayoutError(f"expected NC1HWC0 rank-5 input, got {x.shape}")
    if x.shape[-1] != dtype.c0:
        raise LayoutError(
            f"C0 dimension is {x.shape[-1]}, expected {dtype.c0} for "
            f"{dtype.name}"
        )


def run_forward(
    x: np.ndarray,
    spec: PoolSpec,
    impl: PoolingImpl,
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    execute: str = "numeric",
    cache: ProgramCache | None = PROGRAM_CACHE,
    model: "str | ExecutionModel | None" = None,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    sanitize: bool = False,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """Run a forward pooling implementation on the simulated chip.

    ``x`` is an ``(N, C1, Ih, Iw, C0)`` float16 tensor.  The result's
    output (and mask) are NumPy arrays read back from simulated global
    memory, directly comparable against :mod:`repro.ops.reference`.

    The driver is a thin composition of the plan -> lower -> dispatch
    pipeline (:mod:`repro.plan.planner`): the workload's choices are
    reified into an :class:`~repro.plan.planner.ExecutionPlan`, lowered
    to tile programs, and dispatched on a fresh chip.  ``plan``
    selects the planning policy: ``"default"`` (the default) is the
    historical heuristic and is byte-identical to the pre-pipeline
    driver; ``"autotuned"`` consults the persisted autotune table
    (:mod:`repro.plan.autotune`), falling back to the default plan for
    untuned workloads; an explicit :class:`ExecutionPlan` is validated
    against the workload and dispatched as-is (its implementation
    variant, row chunk and timing model win over the call's arguments).

    Every ``(N, C1)`` slice, and every row window of one tile-local
    geometry, lowers to the same tile program up to global-memory base
    offsets, so by default (``cache`` = the shared
    :data:`repro.sim.PROGRAM_CACHE`) the driver lowers one program per
    tile-local geometry and runs it at every slice and row window by
    that tile's global-memory deltas, with memoized cycle/trace
    summaries so repeated tiles skip per-instruction accounting.
    ``cache=None`` restores the uncached per-tile lowering (the
    reference path the equivalence tests compare against).

    ``execute="cycles"`` additionally skips the NumPy data pass: cycle
    counts are identical (the cost model is data-independent) but
    ``output``/``mask`` are ``None``.  The benchmark figures run in this
    mode.

    ``execute="jit"`` runs the data pass through compiled batch kernels
    (:mod:`repro.sim.compile`) instead of the per-instruction
    interpreter: outputs, masks and cycle counts are bit-identical to
    ``"numeric"`` at a fraction of the dispatch cost.  With a cache,
    one kernel is compiled per tile-local geometry and shared by every
    tile of it (memoized alongside the program, see
    :meth:`repro.sim.ProgramCache.compiled`), and one kernel call runs
    a batch of those tiles, at most one per core.  Incompatible with
    ``sanitize=`` and ``faults=``/``retry=``, which instrument the
    interpreter loop the JIT skips.

    ``model`` selects the timing model ("serial"/"pipelined", a
    registered :class:`~repro.sim.scheduler.ExecutionModel`, or ``None``
    for the default serial accounting); the plan records its name.  It
    only shapes cycle counts; numeric outputs are bit-identical across
    models.

    ``faults`` / ``retry`` switch on the chip's resilient dispatcher
    (deterministic fault injection, bounded retry with reassignment and
    quarantine -- see :mod:`repro.sim.faults`); the recovery account is
    available as ``result.resilience``.  Both default to ``None``:
    fault-free runs take the historical zero-overhead path.

    ``sanitize=True`` runs every tile in strict memory-checking mode
    (:mod:`repro.sim.sanitizer`): scratch-pads are poison-filled per
    tile, every operand is bounds- and init-checked against the
    kernel's allocation manifest, observed writes are verified against
    the declared hazard regions, and the pipelined schedule is audited
    for races.  Violations raise
    :class:`~repro.errors.SanitizerError`; a clean run's report is
    available as ``result.sanitizer``.  Requires ``execute="numeric"``
    and no ``faults``/``retry``; off by default and zero-cost when off.
    """
    check_execute(execute, LayoutError)
    dtype = dtype_of(x)
    _validate_input(x, dtype)
    n, c1_total, ih, iw, c0 = x.shape
    resolved = resolve_plan(
        plan, "fwd", impl, spec, dtype, n, c1_total, ih, iw, config,
        execute=execute, model=model,
    )
    lowering = lower(resolved, config, cache, collect_trace)
    return dispatch(
        resolved, lowering, config, x=x, collect_trace=collect_trace,
        faults=faults, retry=retry, sanitize=sanitize,
    )


def run_backward(
    grad: np.ndarray,
    spec: PoolSpec,
    impl: PoolingImpl,
    ih: int,
    iw: int,
    mask: np.ndarray | None = None,
    config: ChipConfig = ASCEND910,
    collect_trace: bool = True,
    serialize_slices: bool = False,
    execute: str = "numeric",
    cache: ProgramCache | None = PROGRAM_CACHE,
    model: "str | ExecutionModel | None" = None,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: RetryPolicy | None = None,
    sanitize: bool = False,
    plan: "str | ExecutionPlan" = "default",
) -> PoolRunResult:
    """Run a backward pooling implementation.

    ``grad`` is ``(N, C1, Oh, Ow, C0)``; for MaxPool, ``mask`` is the
    rank-7 ``(N, C1, Kh, Kw, Oh, Ow, C0)`` Argmax mask the forward pass
    saved (AvgPool takes none).  Returns the input gradient
    ``(N, C1, Ih, Iw, C0)``.

    Row-chunked tiles of one slice write overlapping input rows through
    accumulate-DMA stores, so by default they run on different cores
    like forward tiles; ``serialize_slices=True`` keeps each
    ``(N, C1)`` slice's chunks on one core for a bit-deterministic
    accumulation order.  Under ``faults``/``retry`` a failed attempt's
    partial accumulate stores are rolled back before the retry, so
    recovered gradients stay bit-identical.  Every other argument
    behaves as in :func:`run_forward`.
    """
    check_execute(execute, LayoutError)
    dtype = dtype_of(grad)
    _validate_input(grad, dtype)
    n, c1_total = grad.shape[:2]
    resolved = resolve_plan(
        plan, "bwd", impl, spec, dtype, n, c1_total, ih, iw, config,
        execute=execute, model=model, serialize_slices=serialize_slices,
    )
    check_tensors(resolved, grad=grad, mask=mask)
    lowering = lower(resolved, config, cache, collect_trace)
    return dispatch(
        resolved, lowering, config, grad=grad, mask=mask,
        collect_trace=collect_trace, faults=faults, retry=retry,
        sanitize=sanitize,
    )
