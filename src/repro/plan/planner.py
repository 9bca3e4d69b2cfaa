"""The plan -> lower -> dispatch pipeline behind the operator drivers.

Historically :func:`repro.ops.base.run_forward` and
:func:`~repro.ops.base.run_backward` were two ~200-line monoliths that
each re-implemented tiling, program building, cache lookup,
execute-mode selection and faults/sanitize/jit wiring -- there was no
reified "plan" a search loop could enumerate.  This module splits the
drivers into three explicit stages, mirroring the staged
tiling/transformation passes of compiler stacks for this accelerator
family (arXiv 2110.03901) and the cost-driven implementation selection
of the Indirect Convolution Algorithm (arXiv 1907.02129):

* **plan** -- :func:`plan_default` reifies every choice the old
  heuristic made (implementation variant, row-chunk size, execute mode,
  timing model, slice serialization) into a first-class, hashable,
  JSON-serializable :class:`ExecutionPlan`.  By construction its
  choices are byte-identical to the historical heuristic;
  :func:`resolve_plan` additionally accepts an explicit plan (the
  autotuner's output) or the opt-in ``"autotuned"`` table lookup.
* **lower** -- :func:`lower` turns a plan into work items
  (:class:`~repro.sim.WorkItem`): the *only* place
  :class:`~repro.tik.KernelBuilder` runs for pooling.  Programs,
  summaries and compiled JIT kernels are keyed into the
  :class:`~repro.sim.ProgramCache` by the plan
  (:func:`repro.sim.progcache.plan_key`), one entry per tile-local
  geometry, run at every ``(N, C1)`` slice and row window by its
  global-memory deltas.
* **dispatch** -- :func:`dispatch` is the one shared driver: the
  tensor-vs-plan check, global memory setup, one grouped chip run,
  faults/retry/sanitize threading and result read-back, written
  exactly once for forward and backward.

The autotuner (:mod:`repro.plan.autotune`) searches the plan space
with :func:`plan_cycles`, which costs a candidate through the
``execute="cycles"`` analytic fast path -- no tensor data is ever
touched during search.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..config import ChipConfig
from ..dtypes import DType, dtype_by_name
from ..errors import LayoutError, PlanError, ReproError
from ..isa.operand import MemRef
from ..isa.program import Program
from ..isa.scu import Im2ColParams
from ..sim import (
    Chip,
    GlobalMemory,
    ProgramCache,
    WorkItem,
    check_execute,
    plan_key,
    resolve_model,
)
from ..tik import KernelBuilder
from .tiling import TileGeom, plan_chunk, tiles_for_chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ops.base import PoolingImpl, PoolRunResult
    from ..ops.spec import PoolSpec
    from ..sim import ExecutionModel, FaultInjector, FaultPlan, RetryPolicy

#: Plan directions: forward pooling and backward (input-gradient).
PLAN_KINDS = ("fwd", "bwd")
#: Plan fields whose type :meth:`ExecutionPlan.validate` checks exactly
#: (so ``bool`` is not an ``int``); the other fields are checked by
#: membership, and the spec by comparison with the workload's.
FIELD_TYPES = {
    "impl": str, "n": int, "c1": int, "ih": int, "iw": int, "chunk": int,
    "with_mask": bool, "serialize_slices": bool,
}


class GMTensor(NamedTuple):
    """One global-memory tensor of a plan (:attr:`ExecutionPlan.tensors`)."""

    #: GM buffer name: ``x``/``out``/``mask``/``grad``/``dx``.
    name: str
    #: What error messages call it.
    label: str
    #: The :class:`~repro.ops.base.TileContext` field its tile window fills.
    field: str
    #: Written by the tile programs (else read from the caller's array).
    written: bool
    #: ``(n, c1, *planes, rows, cols, C0)``; only the mask has planes.
    shape: tuple[int, ...]
    #: Rows index the patch (output) grid rather than the image.
    grid_rows: bool

    @property
    def slice_elems(self) -> int:
        """Elements per ``(N, C1)`` slice: the delta between slices."""
        return math.prod(self.shape[2:])

    def offset(self, slice_idx: int, geom: TileGeom) -> int:
        """Where the tile's window starts in one slice (in every plane):
        also the delta at which a tile program built at row 0 of slice
        0 runs this slice and tile."""
        *_, cols, c0 = self.shape
        r0 = geom.oh0 if self.grid_rows else geom.ih0
        return slice_idx * self.slice_elems + r0 * cols * c0

    def window(self, slice_idx: int, geom: TileGeom, dtype: DType):
        """The tile's rows of this tensor in one slice: a
        :class:`MemRef`, or for the mask a list of them, one per
        ``(kh, kw)`` plane, row-major."""
        *_, rows, cols, c0 = self.shape
        nrows = geom.out_rows if self.grid_rows else geom.in_rows
        base = self.offset(slice_idx, geom)
        refs = [
            MemRef(
                self.name, base + p * rows * cols * c0, nrows * cols * c0,
                dtype,
            )
            for p in range(math.prod(self.shape[2:-3]))
        ]
        return refs if len(self.shape) > 5 else refs[0]


@dataclass(frozen=True)
class ExecutionPlan:
    """Every decision needed to lower and dispatch one operator call.

    A plan is *workload-complete*: it names the direction, operator,
    implementation variant, dtype, pooling spec and tensor extents, plus
    the tunable choices -- row-chunk size, execute mode, timing model,
    slice serialization.  It is hashable (frozen dataclass of frozen
    parts), equality-comparable, and round-trips through JSON
    (:meth:`to_json` / :meth:`from_json`), so plans can key caches,
    persist in the autotune table, and travel across process boundaries
    attached to results.
    """

    #: "fwd" or "bwd".
    kind: str
    #: Registry name of the implementation variant (e.g. ``"im2col"``).
    impl: str
    #: "max" or "avg".
    op: str
    #: Forward only: also produce the Argmax mask.
    with_mask: bool
    #: :class:`~repro.dtypes.DType` name (e.g. ``"float16"``).
    dtype: str
    spec: "PoolSpec"
    #: Tensor extents: batch, channel blocks, input image rows/cols.
    n: int
    c1: int
    ih: int
    iw: int
    #: Output rows per tile (the tiling decision).
    chunk: int
    execute: str = "numeric"
    #: Timing-model name ("serial"/"pipelined").
    model: str = "serial"
    #: Backward only: keep each slice's chunks on one core.
    serialize_slices: bool = False

    @property
    def describe(self) -> str:
        """The implementation ``describe()`` string this plan lowers."""
        mask = "+mask" if self.with_mask else ""
        return f"{self.op}pool-{self.impl}{mask}"

    @property
    def num_slices(self) -> int:
        return self.n * self.c1

    # The geometry below is memoized by module-level functions keyed by
    # the fields it reads, never on the instance: a plan travels (in
    # pickles, in JSON) as its fields alone.

    @property
    def out_hw(self) -> tuple[int, int]:
        return self.image[2:]

    @property
    def image(self) -> tuple[int, int, int, int]:
        """``(ih, iw, oh, ow)`` -- the extents baked into GM offsets."""
        return _image(self.spec, self.ih, self.iw)

    @property
    def full_params(self) -> Im2ColParams:
        return _full_params(self.spec, self.ih, self.iw)

    @property
    def tiles(self) -> tuple[TileGeom, ...]:
        """The tile geometries this plan's chunk produces."""
        return _tiles(self.spec, self.ih, self.iw, self.chunk)

    @property
    def tensors(self) -> tuple[GMTensor, ...]:
        """The global-memory tensors this plan reads and writes, in
        setup order -- the one description of its GM layout.  Each
        tile's operands, the per-tile deltas, the
        tensor-vs-plan check, GM setup and read-back all derive from it.
        """
        return _tensors(
            self.kind, self.op, self.with_mask, self.dtype, self.spec,
            self.n, self.c1, self.ih, self.iw,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (see :meth:`from_dict`)."""
        s = self.spec
        return {
            "kind": self.kind,
            "impl": self.impl,
            "op": self.op,
            "with_mask": self.with_mask,
            "dtype": self.dtype,
            "spec": {
                "kh": s.kh, "kw": s.kw, "sh": s.sh, "sw": s.sw,
                "pt": s.pt, "pb": s.pb, "pl": s.pl, "pr": s.pr,
            },
            "n": self.n, "c1": self.c1, "ih": self.ih, "iw": self.iw,
            "chunk": self.chunk,
            "execute": self.execute,
            "model": self.model,
            "serialize_slices": self.serialize_slices,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionPlan":
        from ..ops.spec import PoolSpec

        try:
            return cls(**{**data, "spec": PoolSpec(**data["spec"])})
        except (KeyError, TypeError, ReproError) as exc:
            raise PlanError(f"malformed plan payload: {exc!r}") from None

    def to_json(self) -> str:
        """Canonical JSON encoding (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExecutionPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"malformed plan JSON: {exc}") from None
        return cls.from_dict(data)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.PlanError` on malformed fields."""
        for name, expected in FIELD_TYPES.items():
            value = getattr(self, name)
            if type(value) is not expected:
                raise PlanError(
                    f"plan field {name} must be {expected.__name__}, "
                    f"got {value!r}"
                )
        if self.kind not in PLAN_KINDS:
            raise PlanError(
                f"unknown plan kind {self.kind!r}; expected one of "
                f"{PLAN_KINDS}"
            )
        if self.op not in ("max", "avg"):
            raise PlanError(f"unknown pooling op {self.op!r}")
        if self.with_mask and (self.kind != "fwd" or self.op != "max"):
            raise PlanError(
                "with_mask is a forward MaxPool-only plan flag"
            )
        check_execute(self.execute, PlanError)
        if self.chunk < 1:
            raise PlanError(f"row chunk must be >= 1, got {self.chunk}")
        if min(self.n, self.c1, self.ih, self.iw) < 1:
            raise PlanError(
                f"extents must be positive, got n={self.n} c1={self.c1} "
                f"ih={self.ih} iw={self.iw}"
            )
        try:
            dtype_by_name(self.dtype)
        except (ReproError, TypeError):
            raise PlanError(f"unknown dtype {self.dtype!r}") from None
        try:
            resolve_model(self.model)
        except (ReproError, TypeError):
            raise PlanError(
                f"unknown timing model {self.model!r}"
            ) from None


@lru_cache(maxsize=1024)
def _full_params(spec: "PoolSpec", ih: int, iw: int) -> Im2ColParams:
    return spec.with_image(ih, iw)


@lru_cache(maxsize=1024)
def _image(spec: "PoolSpec", ih: int, iw: int) -> tuple[int, int, int, int]:
    return (ih, iw) + _full_params(spec, ih, iw).out_hw()


@lru_cache(maxsize=1024)
def _tiles(
    spec: "PoolSpec", ih: int, iw: int, chunk: int
) -> tuple[TileGeom, ...]:
    return tuple(tiles_for_chunk(_full_params(spec, ih, iw), chunk))


@lru_cache(maxsize=1024)
def _tensors(
    kind: str, op: str, with_mask: bool, dtype: str, spec: "PoolSpec",
    n: int, c1: int, ih: int, iw: int,
) -> tuple[GMTensor, ...]:
    """:attr:`ExecutionPlan.tensors` of the plan with these fields."""
    ih, iw, oh, ow = _image(spec, ih, iw)
    c0 = dtype_by_name(dtype).c0
    lead = (n, c1)
    image, grid = lead + (ih, iw, c0), lead + (oh, ow, c0)
    fwd = kind == "fwd"
    mask = (
        (GMTensor(
            "mask", "Argmax mask", "gm_mask_planes", fwd,
            lead + (spec.kh, spec.kw, oh, ow, c0), True,
        ),)
        if with_mask or (not fwd and op == "max")
        else ()
    )
    if fwd:
        return (
            GMTensor("x", "input", "gm_in", False, image, False),
            GMTensor("out", "output", "gm_out", True, grid, True),
            *mask,
        )
    return (
        GMTensor("grad", "gradient", "gm_grad", False, grid, True),
        *mask,
        GMTensor("dx", "input gradient", "gm_dx", True, image, False),
    )


@lru_cache(maxsize=1024)
def _heuristic_chunk(
    impl_cls: "type[PoolingImpl]",
    op: str,
    with_mask: bool,
    spec: "PoolSpec",
    ih: int,
    iw: int,
    config: ChipConfig,
    dtype: DType,
    min_tiles: int,
) -> int:
    """:func:`~repro.plan.tiling.plan_chunk` for one variant, memoized.

    The key is everything a footprint reads, so two instances of one
    variant share an entry and repeated calls skip the binary search
    over tile footprints.
    """
    impl = impl_cls(op, with_mask)
    return plan_chunk(
        spec.with_image(ih, iw), impl.footprint, config, dtype,
        min_tiles=min_tiles,
    )


def plan_default(
    kind: str,
    impl: "PoolingImpl",
    spec: "PoolSpec",
    dtype: DType,
    n: int,
    c1: int,
    ih: int,
    iw: int,
    config: ChipConfig,
    execute: str = "numeric",
    model: "str | ExecutionModel | None" = None,
    serialize_slices: bool = False,
) -> ExecutionPlan:
    """The historical heuristic, reified.

    Chunk selection replicates the old drivers exactly: the largest
    row chunk that fits the scratch-pads (:func:`~repro.plan.tiling.
    plan_chunk`), shrunk so every core gets work -- forward always,
    backward unless ``serialize_slices`` pins each slice to one core.
    The chunk is a pure function of the variant, geometry, config and
    dtype, so it is memoized (:func:`_heuristic_chunk`).  A plan
    produced here lowers and dispatches byte-identically to the
    pre-refactor monolithic drivers.
    """
    timing = resolve_model(model)
    min_tiles = (
        1 if kind == "bwd" and serialize_slices
        else -(-config.num_cores // (n * c1))
    )
    chunk = _heuristic_chunk(
        type(impl), impl.op, impl.with_mask, spec, ih, iw, config, dtype,
        min_tiles,
    )
    return ExecutionPlan(
        kind=kind,
        impl=impl.name,
        op=impl.op,
        with_mask=impl.with_mask,
        dtype=dtype.name,
        spec=spec,
        n=n,
        c1=c1,
        ih=ih,
        iw=iw,
        chunk=chunk,
        execute=execute,
        model=timing.name,
        serialize_slices=serialize_slices,
    )


def _impl_for_plan(plan: ExecutionPlan) -> "PoolingImpl":
    """Instantiate the plan's implementation through the registry."""
    from ..ops.registry import backward_impl, forward_impl

    try:
        if plan.kind == "fwd":
            return forward_impl(plan.impl, plan.op, plan.with_mask)
        return backward_impl(plan.impl, plan.op)
    except ReproError as exc:
        raise PlanError(
            f"plan names an unusable implementation "
            f"{plan.impl!r}: {exc}"
        ) from None


def resolve_plan(
    plan: "str | ExecutionPlan",
    kind: str,
    impl: "PoolingImpl",
    spec: "PoolSpec",
    dtype: DType,
    n: int,
    c1: int,
    ih: int,
    iw: int,
    config: ChipConfig,
    execute: str = "numeric",
    model: "str | ExecutionModel | None" = None,
    serialize_slices: bool = False,
) -> ExecutionPlan:
    """Resolve a driver's ``plan=`` argument into a concrete plan.

    ``"default"`` (the default) reproduces the historical heuristic
    byte-identically.  ``"autotuned"`` consults the persisted best-config
    table (:mod:`repro.plan.autotune`); workloads with no tuned entry
    fall back to the default plan, so the flag is always safe to pass.
    An explicit :class:`ExecutionPlan` is validated against the workload
    (direction, spec, dtype, extents, op/mask must match -- the plan's
    implementation variant, chunk, execute mode and timing model win
    over the call's arguments; an unusable variant is a
    :class:`~repro.errors.PlanError`).
    """
    if isinstance(plan, str):
        if plan == "autotuned":
            from .autotune import tuned_plan

            # An untuned workload falls through to the default plan.
            plan = tuned_plan(
                kind=kind, impl=impl, spec=spec, dtype=dtype,
                n=n, c1=c1, ih=ih, iw=iw, config=config,
                execute=execute, serialize_slices=serialize_slices,
            ) or "default"
        elif plan != "default":
            raise PlanError(
                f"unknown plan {plan!r}; expected 'default', "
                "'autotuned' or an ExecutionPlan"
            )
    if isinstance(plan, str):  # "default", or an untuned "autotuned"
        return plan_default(
            kind, impl, spec, dtype, n, c1, ih, iw, config,
            execute=execute, model=model, serialize_slices=serialize_slices,
        )
    if not isinstance(plan, ExecutionPlan):
        raise PlanError(
            f"plan must be a string or ExecutionPlan, got "
            f"{type(plan).__name__}"
        )
    plan.validate()
    if plan.kind != kind:
        raise PlanError(
            f"plan direction {plan.kind!r} does not match the "
            f"{kind!r} driver"
        )
    if plan.spec != spec:
        raise PlanError(
            f"plan spec {plan.spec} does not match the workload "
            f"spec {spec}"
        )
    if plan.dtype != dtype.name:
        raise PlanError(
            f"plan dtype {plan.dtype!r} does not match the input "
            f"dtype {dtype.name!r}"
        )
    if (plan.n, plan.c1, plan.ih, plan.iw) != (n, c1, ih, iw):
        raise PlanError(
            f"plan extents (n={plan.n}, c1={plan.c1}, ih={plan.ih}, "
            f"iw={plan.iw}) do not match the workload "
            f"(n={n}, c1={c1}, ih={ih}, iw={iw})"
        )
    if plan.op != impl.op or plan.with_mask != impl.with_mask:
        raise PlanError(
            f"plan operator {plan.op!r} (mask={plan.with_mask}) does "
            f"not match the requested {impl.op!r} "
            f"(mask={impl.with_mask})"
        )
    if plan.impl != impl.name:
        _impl_for_plan(plan)  # a PlanError for an unusable variant
    return plan


# ---------------------------------------------------------------------------
# Lowering.
# ---------------------------------------------------------------------------

def _tile_name(plan: ExecutionPlan, geom: TileGeom) -> str:
    """A tile program's name: ``{describe}-t{rows}p{pt}x{pb}``.

    The ``-t`` token names the tile-local geometry (loaded rows, local
    top and bottom padding), not the tile's position, so every tile
    that shares one cached program shares its name, and summaries and
    kernels check provenance by plain name equality.
    """
    p = geom.params
    return f"{plan.describe}-t{p.ih}p{p.pt}x{p.pb}"


def _build_tile_program(
    plan: ExecutionPlan,
    impl: "PoolingImpl",
    slice_idx: int,
    geom: TileGeom,
    config: ChipConfig,
    dtype: DType,
) -> Program:
    """Build one tile's program -- the single shared ``build`` closure.

    This is the only place :class:`~repro.tik.KernelBuilder` runs for
    pooling; the forward/backward distinction collapses to which
    global-memory operands :attr:`ExecutionPlan.tensors` wires into the
    :class:`~repro.ops.base.TileContext`.
    """
    from ..ops.base import TileContext

    b = KernelBuilder(config, dtype, name=_tile_name(plan, geom))
    impl.build_tile(TileContext(
        builder=b, geom=geom, spec=plan.spec, dtype=dtype,
        **{t.field: t.window(slice_idx, geom, dtype) for t in plan.tensors},
    ))
    return b.program


@dataclass
class Lowering:
    """The lowered form of one plan: its work items in dispatch shape.

    ``groups`` is what :meth:`~repro.sim.Chip.run_tile_groups` takes:
    one group per ``(N, C1)`` slice when ``plan.serialize_slices`` pins
    each slice to one core, otherwise one single-tile group per tile;
    either way tiles appear slice-major.  With a cache every item holds
    the base program of its tile-local geometry with its cached summary
    and (under ``execute="jit"``) kernel, and outside cycles mode, which
    touches no data, its per-tensor :meth:`GMTensor.offset` deltas;
    cycles-mode items carry no deltas, so every tile of one geometry
    shares one item.  Uncached, each item is a bare fresh build at its
    true position.
    """

    plan: ExecutionPlan
    tiles: tuple[TileGeom, ...]
    groups: list[list[WorkItem]]


def _dispatch_shape(plan: ExecutionPlan, per_slice) -> list[list]:
    """Nest per-slice tile lists as dispatch groups (see
    :class:`Lowering`): one group per slice under
    ``serialize_slices``, else one group per tile, order unchanged."""
    if plan.serialize_slices:
        return [list(row) for row in per_slice]
    return [[item] for row in per_slice for item in row]


def lower(
    plan: ExecutionPlan,
    config: ChipConfig,
    cache: ProgramCache | None = None,
    collect_trace: bool = True,
) -> Lowering:
    """Lower a plan to work items (stage two of the pipeline).

    With a cache, one program is lowered per tile-local geometry
    (``TileGeom.params``: loaded rows and local padding), built at row
    0 of slice 0 and keyed by :func:`repro.sim.progcache.plan_key`, so
    the equal middle tiles of a call -- and two plans that differ at
    most in timing model or in a shared tile -- share one entry.  Its
    summary under the plan's timing model (and, under
    ``execute="jit"``, its compiled kernel, shared by every model) is
    memoized, and every ``(slice, tile)`` runs that program at its
    deltas, :meth:`GMTensor.offset`, the same way for rows as for
    slices; no per-tile program is built.  The
    implementation is instantiated from the registry only when a
    program is built (a cache miss).  ``cache=None`` builds each tile
    at its true position instead, with no summary or kernel (the chip
    compiles each under ``execute="jit"``): the independent reference
    the equivalence tests compare against.
    """
    dtype = dtype_by_name(plan.dtype)
    tiles = plan.tiles
    slices = range(plan.num_slices)

    if cache is None:
        impl = _impl_for_plan(plan)
        per_slice = (
            [
                WorkItem(_build_tile_program(
                    plan, impl, slice_idx, geom, config, dtype
                ))
                for geom in tiles
            ]
            for slice_idx in slices
        )
        return Lowering(plan, tiles, _dispatch_shape(plan, per_slice))

    m = resolve_model(plan.model)
    built: dict = {}  # tile-local geometry -> its shared work item
    for geom in tiles:
        if geom.params in built:
            continue
        key = plan_key(plan, geom.params, config)
        prog = cache.get_or_build(
            key,
            lambda g=geom: _build_tile_program(
                plan, _impl_for_plan(plan), 0,
                replace(g, oh0=0, oh1=g.out_rows, ih0=0, ih1=g.in_rows),
                config, dtype,
            ),
        )
        built[geom.params] = WorkItem(
            prog,
            cache.summary(key, prog, config, collect_trace, model=m),
            cache.compiled(key, prog) if plan.execute == "jit" else None,
        )
    row = [built[g.params] for g in tiles]
    if plan.execute == "cycles":
        per_slice = (row for _ in slices)
    else:
        tensors = plan.tensors
        per_slice = (
            [
                item._replace(deltas={
                    t.name: t.offset(slice_idx, geom) for t in tensors
                })
                for item, geom in zip(row, tiles)
            ]
            for slice_idx in slices
        )
    return Lowering(plan, tiles, _dispatch_shape(plan, per_slice))


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------

def check_tensors(
    plan: ExecutionPlan,
    x: np.ndarray | None = None,
    grad: np.ndarray | None = None,
    mask: np.ndarray | None = None,
) -> tuple[GMTensor, ...]:
    """Raise :class:`~repro.errors.LayoutError` unless the tensors fit
    the plan, and return its tensor table (:attr:`ExecutionPlan.tensors`).

    Every tensor the plan reads must be given with the table's shape
    and the plan's dtype: ``x`` for forward plans, ``grad`` and (MaxPool
    only) the Argmax ``mask`` for backward ones.  A tensor the plan
    does not read is rejected.  The check runs in every execute mode,
    with one exemption: a cycles-only plan dispatched with no tensors
    at all (the autotuner's costing call).
    """
    table = plan.tensors
    if plan.execute == "cycles" and all(
        t is None for t in (x, grad, mask)
    ):
        return table
    np_dtype = dtype_by_name(plan.dtype).np_dtype
    reads = {t.name: t for t in table if not t.written}
    for name, array in (("x", x), ("grad", grad), ("mask", mask)):
        t = reads.get(name)
        if t is None:
            if array is not None:
                raise LayoutError(
                    f"{plan.kind} plan {plan.describe!r} takes no {name}"
                )
        elif array is None:
            raise LayoutError(f"dispatch requires the {t.label} tensor")
        elif array.shape != t.shape:
            raise LayoutError(
                f"{t.label} shape {array.shape} does not match the "
                f"plan's {t.shape}"
            )
        elif array.dtype != np_dtype:
            raise LayoutError(
                f"{t.label} dtype {array.dtype} does not match the "
                f"plan's {plan.dtype}"
            )
    return table


def dispatch(
    plan: ExecutionPlan,
    lowering: Lowering,
    config: ChipConfig,
    x: np.ndarray | None = None,
    grad: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    collect_trace: bool = True,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: "RetryPolicy | None" = None,
    sanitize: bool = False,
) -> "PoolRunResult":
    """Execute a lowered plan (stage three): the one shared driver.

    The tensors are checked against the plan (:func:`check_tensors`),
    then global-memory setup from the plan's tensor table, one grouped
    chip run of the lowering's work items under the plan's timing
    model, resilience / sanitizer threading and result read-back happen
    here exactly once for both directions.
    Under ``execute="cycles"`` no global memory exists and the result
    carries ``output=None`` (and ``mask=None``); numeric and JIT runs
    read the written tensors back from simulated global memory.
    """
    from ..ops.base import PoolRunResult

    table = check_tensors(plan, x=x, grad=grad, mask=mask)
    dtype = dtype_by_name(plan.dtype)
    gm = None
    if plan.execute != "cycles":
        gm = GlobalMemory()
        given = {"x": x, "grad": grad, "mask": mask}
        for t in table:
            if t.written:
                gm.zeros(t.name, math.prod(t.shape), dtype)
            else:
                gm.add(t.name, given[t.name])

    result = Chip(config, dtype).run_tile_groups(
        lowering.groups,
        gm,
        collect_trace=collect_trace,
        execute=plan.execute,
        model=resolve_model(plan.model),
        faults=faults,
        retry=retry,
        sanitize=sanitize,
    )

    output = out_mask = None
    if gm is not None:
        written = {
            t.name: gm.read(t.name, t.shape) for t in table if t.written
        }
        out_mask = written.pop("mask", None)
        (output,) = written.values()
    return PoolRunResult(
        output=output, mask=out_mask, chip=result, tiles=lowering.tiles,
        timing_model=plan.model, plan=plan,
    )


def plan_cycles(
    plan: ExecutionPlan,
    config: ChipConfig,
    cache: ProgramCache | None = None,
) -> "PoolRunResult":
    """Cost a plan through the analytic cycles-only fast path.

    The autotuner's costing primitive: lowers and dispatches the plan
    with ``execute="cycles"`` -- no tensor data exists, no NumPy pass
    runs, and the returned result carries only cycle accounting.  The
    cost model is data-independent, so these cycles equal what numeric
    execution of the same plan would report.
    """
    costed = replace(plan, execute="cycles")
    lowering = lower(costed, config, cache=cache, collect_trace=False)
    return dispatch(costed, lowering, config, collect_trace=False)
