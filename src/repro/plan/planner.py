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
* **lower** -- :func:`lower` turns a plan into programs: the *only*
  place :class:`~repro.tik.KernelBuilder` runs for pooling.  Programs,
  summaries and compiled JIT kernels are keyed into the
  :class:`~repro.sim.ProgramCache` by the plan
  (:func:`repro.sim.progcache.plan_key`), one entry per unique tile
  geometry, relocated clones per ``(N, C1)`` slice.
* **dispatch** -- :func:`dispatch` is the one shared driver: global
  memory setup, flat/grouped chip execution, cache/faults/retry/
  sanitize/compiled threading and result read-back, written exactly
  once for forward and backward.

The autotuner (:mod:`repro.plan.autotune`) searches the plan space
with :func:`plan_cycles`, which costs a candidate through the
``execute="cycles"`` analytic fast path -- no tensor data is ever
touched during search.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..config import ChipConfig
from ..dtypes import DType, dtype_by_name
from ..errors import LayoutError, PlanError
from ..isa.operand import MemRef
from ..isa.program import Program
from ..isa.scu import Im2ColParams
from ..sim import (
    Chip,
    ChipRunResult,
    ExecutionModel,
    GlobalMemory,
    ProgramCache,
    RunResult,
    check_execute,
    compile_program,
    plan_key,
    resolve_model,
)
from ..tik import KernelBuilder
from .tiling import TileGeom, plan_chunk, tiles_for_chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ops.base import PoolingImpl, PoolRunResult
    from ..ops.spec import PoolSpec
    from ..sim import FaultInjector, FaultPlan, RetryPolicy

#: Plan directions: forward pooling and backward (input-gradient).
PLAN_KINDS = ("fwd", "bwd")


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

    @property
    def out_hw(self) -> tuple[int, int]:
        return self.spec.out_hw(self.ih, self.iw)

    @property
    def image(self) -> tuple[int, int, int, int]:
        """``(ih, iw, oh, ow)`` -- the extents baked into GM offsets."""
        return (self.ih, self.iw) + self.out_hw

    @property
    def full_params(self) -> Im2ColParams:
        return self.spec.with_image(self.ih, self.iw)

    @property
    def tiles(self) -> tuple[TileGeom, ...]:
        """The tile geometries this plan's chunk produces."""
        return tuple(tiles_for_chunk(self.full_params, self.chunk))

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

        fields = dict(data)
        fields["spec"] = PoolSpec(**fields["spec"])
        try:
            return cls(**fields)
        except TypeError as exc:
            raise PlanError(f"malformed plan payload: {exc}") from None

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
        except Exception:
            raise PlanError(f"unknown dtype {self.dtype!r}") from None
        try:
            resolve_model(self.model)
        except Exception:
            raise PlanError(
                f"unknown timing model {self.model!r}"
            ) from None


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
    A plan produced here lowers and dispatches byte-identically to the
    pre-refactor monolithic drivers.
    """
    timing = resolve_model(model)
    full = spec.with_image(ih, iw)
    num_slices = n * c1
    if kind == "fwd":
        min_tiles = -(-config.num_cores // num_slices)
    else:
        min_tiles = (
            1 if serialize_slices
            else -(-config.num_cores // num_slices)
        )
    chunk = plan_chunk(
        full, impl.footprint, config, dtype, min_tiles=min_tiles
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
    except Exception as exc:
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
) -> tuple[ExecutionPlan, ExecutionModel, "PoolingImpl"]:
    """Resolve a driver's ``plan=`` argument into a concrete plan.

    ``"default"`` (the default) reproduces the historical heuristic
    byte-identically.  ``"autotuned"`` consults the persisted best-config
    table (:mod:`repro.plan.autotune`); workloads with no tuned entry
    fall back to the default plan, so the flag is always safe to pass.
    An explicit :class:`ExecutionPlan` is validated against the workload
    (direction, spec, dtype, extents, op/mask must match -- the plan's
    implementation variant, chunk, execute mode and timing model win
    over the call's arguments).

    Returns ``(plan, timing, impl)`` where ``timing`` is the resolved
    :class:`~repro.sim.ExecutionModel` (the caller's possibly-custom
    model object for ``"default"`` plans, so instance-based models keep
    working) and ``impl`` is the implementation instance to lower.
    """
    if isinstance(plan, str):
        if plan == "default":
            timing = resolve_model(model)
            return (
                plan_default(
                    kind, impl, spec, dtype, n, c1, ih, iw, config,
                    execute=execute, model=timing,
                    serialize_slices=serialize_slices,
                ),
                timing,
                impl,
            )
        if plan == "autotuned":
            from .autotune import tuned_plan

            tuned = tuned_plan(
                kind=kind, impl=impl, spec=spec, dtype=dtype,
                n=n, c1=c1, ih=ih, iw=iw, config=config,
                execute=execute, serialize_slices=serialize_slices,
            )
            if tuned is None:
                timing = resolve_model(model)
                return (
                    plan_default(
                        kind, impl, spec, dtype, n, c1, ih, iw, config,
                        execute=execute, model=timing,
                        serialize_slices=serialize_slices,
                    ),
                    timing,
                    impl,
                )
            plan = tuned
        else:
            raise PlanError(
                f"unknown plan {plan!r}; expected 'default', "
                "'autotuned' or an ExecutionPlan"
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
    resolved = impl if plan.impl == impl.name else _impl_for_plan(plan)
    return plan, resolve_model(plan.model), resolved


# ---------------------------------------------------------------------------
# Lowering.
# ---------------------------------------------------------------------------

def _mask_plane_refs(
    geom: TileGeom,
    spec: "PoolSpec",
    slice_idx: int,
    oh_full: int,
    ow: int,
    c0: int,
    dtype: DType,
    name: str = "mask",
) -> list[MemRef]:
    """GM regions of each (kh, kw) plane's rows [oh0, oh1) for a tile."""
    refs = []
    rows = geom.out_rows * ow * c0
    for i in range(spec.kh):
        for j in range(spec.kw):
            base = (
                ((slice_idx * spec.kh + i) * spec.kw + j) * oh_full + geom.oh0
            ) * ow * c0
            refs.append(MemRef(name, base, rows, dtype))
    return refs


def _build_tile_program(
    plan: ExecutionPlan,
    impl: "PoolingImpl",
    slice_idx: int,
    tile_idx: int,
    geom: TileGeom,
    config: ChipConfig,
    dtype: DType,
) -> Program:
    """Build one tile's program -- the single shared ``build`` closure.

    This is the only place :class:`~repro.tik.KernelBuilder` runs for
    pooling; the forward/backward distinction collapses to which
    global-memory operands get wired into the
    :class:`~repro.ops.base.TileContext`.
    """
    from ..ops.base import TileContext

    ih, iw, oh, ow = plan.image
    c0 = dtype.c0
    spec = plan.spec
    b = KernelBuilder(
        config,
        dtype,
        name=f"{impl.describe()}-s{slice_idx}-t{tile_idx}",
    )
    needs_mask = plan.with_mask or (plan.kind == "bwd" and plan.op == "max")
    mask_planes = (
        _mask_plane_refs(geom, spec, slice_idx, oh, ow, c0, dtype)
        if needs_mask
        else None
    )
    if plan.kind == "fwd":
        ctx = TileContext(
            builder=b,
            geom=geom,
            spec=spec,
            dtype=dtype,
            gm_in=MemRef(
                "x",
                (slice_idx * ih + geom.ih0) * iw * c0,
                geom.in_rows * iw * c0,
                dtype,
            ),
            gm_out=MemRef(
                "out",
                (slice_idx * oh + geom.oh0) * ow * c0,
                geom.out_rows * ow * c0,
                dtype,
            ),
            gm_mask_planes=mask_planes,
        )
    else:
        ctx = TileContext(
            builder=b,
            geom=geom,
            spec=spec,
            dtype=dtype,
            gm_grad=MemRef(
                "grad",
                (slice_idx * oh + geom.oh0) * ow * c0,
                geom.out_rows * ow * c0,
                dtype,
            ),
            gm_dx=MemRef(
                "dx",
                (slice_idx * ih + geom.ih0) * iw * c0,
                geom.in_rows * iw * c0,
                dtype,
            ),
            gm_mask_planes=mask_planes,
        )
    impl.build_tile(ctx)
    return b.program


def _slice_deltas(plan: ExecutionPlan, slice_idx: int) -> dict[str, int]:
    """Relocation deltas of one ``(N, C1)`` slice's GM operands."""
    ih, iw, oh, ow = plan.image
    c0 = dtype_by_name(plan.dtype).c0
    spec = plan.spec
    if plan.kind == "fwd":
        deltas = {
            "x": slice_idx * ih * iw * c0,
            "out": slice_idx * oh * ow * c0,
        }
        if plan.with_mask:
            deltas["mask"] = slice_idx * spec.kh * spec.kw * oh * ow * c0
    else:
        deltas = {
            "grad": slice_idx * oh * ow * c0,
            "dx": slice_idx * ih * iw * c0,
        }
        if plan.op == "max":
            deltas["mask"] = slice_idx * spec.kh * spec.kw * oh * ow * c0
    return deltas


@dataclass
class Lowering:
    """The lowered form of one plan: programs per slice, plus the
    cache-shared summaries and compiled kernels when a cache is used.

    ``groups[s][t]`` is slice ``s``'s tile-``t`` program.  Under
    ``execute="cycles"`` with a cache the groups alias the base
    programs (cycle-identical clones need not be materialised);
    otherwise each slice holds relocated clones (or, uncached, fresh
    per-slice builds).
    """

    plan: ExecutionPlan
    tiles: tuple[TileGeom, ...]
    groups: list[list[Program]]
    summaries: list[list[RunResult]] | None = None
    kernels: list[list] | None = None

    def flat_programs(self) -> list[Program]:
        return [prog for group in self.groups for prog in group]

    def flat_summaries(self) -> list[RunResult] | None:
        if self.summaries is None:
            return None
        return [s for group in self.summaries for s in group]

    def flat_kernels(self) -> list | None:
        if self.kernels is None:
            return None
        return [k for group in self.kernels for k in group]


def lower(
    plan: ExecutionPlan,
    config: ChipConfig,
    cache: ProgramCache | None = None,
    collect_trace: bool = True,
    timing: "str | ExecutionModel | None" = None,
    impl: "PoolingImpl | None" = None,
) -> Lowering:
    """Lower a plan to tile programs (stage two of the pipeline).

    With a cache, one program is lowered per unique tile geometry --
    keyed by :func:`repro.sim.progcache.plan_key`, so two equal plans
    share entries -- with memoized summaries (and, under
    ``execute="jit"``, memoized compiled kernels) and relocated clones
    per ``(N, C1)`` slice.  ``cache=None`` restores the uncached
    per-tile lowering the equivalence tests compare against.

    ``timing`` defaults to the plan's model name; drivers pass their
    resolved (possibly instance-based) model through so summaries are
    produced under the exact object that will dispatch.  ``impl``
    likewise defaults to a registry instantiation of ``plan.impl``.
    """
    if impl is None:
        impl = _impl_for_plan(plan)
    m = resolve_model(plan.model if timing is None else timing)
    dtype = dtype_by_name(plan.dtype)
    execute = plan.execute
    tiles = plan.tiles
    num_slices = plan.num_slices

    if cache is None:
        groups = [
            [
                _build_tile_program(
                    plan, impl, slice_idx, tile_idx, geom, config, dtype
                )
                for tile_idx, geom in enumerate(tiles)
            ]
            for slice_idx in range(num_slices)
        ]
        kernels = (
            [[compile_program(p, config) for p in group] for group in groups]
            if execute == "jit"
            else None
        )
        return Lowering(plan=plan, tiles=tiles, groups=groups,
                        kernels=kernels)

    base: list[tuple[Program, RunResult]] = []
    base_kernels: list = []
    for tile_idx, geom in enumerate(tiles):
        key = plan_key(plan, geom, config)
        prog = cache.get_or_build(
            key,
            lambda t=tile_idx, g=geom: _build_tile_program(
                plan, impl, 0, t, g, config, dtype
            ),
        )
        base.append(
            (
                prog,
                cache.summary(key, prog, config, collect_trace, model=m),
            )
        )
        if execute == "jit":
            base_kernels.append(cache.compiled(key, prog, config))
    kernels = (
        [list(base_kernels) for _ in range(num_slices)]
        if execute == "jit"
        else None
    )
    if execute == "cycles":
        # Cycle-identical clones need not even be materialised.
        groups = [[prog for prog, _ in base] for _ in range(num_slices)]
    else:
        groups = []
        for slice_idx in range(num_slices):
            deltas = _slice_deltas(plan, slice_idx)
            groups.append(
                [
                    prog.relocate(
                        deltas,
                        name=(
                            f"{impl.describe()}"
                            f"-s{slice_idx}-t{tile_idx}"
                        ),
                    )
                    for tile_idx, (prog, _) in enumerate(base)
                ]
            )
    summaries = [[summ for _, summ in base] for _ in range(num_slices)]
    return Lowering(plan=plan, tiles=tiles, groups=groups,
                    summaries=summaries, kernels=kernels)


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------

def dispatch_programs(
    config: ChipConfig,
    dtype: DType,
    programs: list[Program],
    gm: GlobalMemory | None,
    collect_trace: bool = True,
    execute: str = "numeric",
    model: "str | ExecutionModel | None" = None,
) -> ChipRunResult:
    """Run a flat program list on a fresh chip -- the low-level shared
    dispatch used by the convolution drivers (:mod:`repro.ops.conv2d`),
    which build their programs directly rather than through plans."""
    chip = Chip(config, dtype)
    return chip.run_tiles(
        programs, gm, collect_trace=collect_trace, execute=execute,
        model=resolve_model(model),
    )


def dispatch(
    plan: ExecutionPlan,
    lowering: Lowering,
    config: ChipConfig,
    x: np.ndarray | None = None,
    grad: np.ndarray | None = None,
    mask: np.ndarray | None = None,
    collect_trace: bool = True,
    timing: "str | ExecutionModel | None" = None,
    faults: "FaultPlan | FaultInjector | None" = None,
    retry: "RetryPolicy | None" = None,
    sanitize: bool = False,
) -> "PoolRunResult":
    """Execute a lowered plan (stage three): the one shared driver.

    Global-memory setup, grouped-vs-flat chip execution, resilience /
    sanitizer / compiled-kernel threading and result read-back happen
    here exactly once for both directions.  Under
    ``execute="cycles"`` no global memory exists and the result carries
    ``output=None`` (and ``mask=None``); numeric and JIT runs read the
    outputs back from simulated global memory.
    """
    from ..ops.base import PoolRunResult

    m = resolve_model(plan.model if timing is None else timing)
    dtype = dtype_by_name(plan.dtype)
    execute = plan.execute
    ih, iw, oh, ow = plan.image
    c0 = dtype.c0
    num_slices = plan.num_slices
    spec = plan.spec

    if execute == "cycles":
        gm = None
    else:
        gm = GlobalMemory()
        if plan.kind == "fwd":
            if x is None:
                raise LayoutError(
                    "forward dispatch requires the input tensor"
                )
            gm.add("x", x)
            gm.zeros("out", num_slices * oh * ow * c0, dtype)
            if plan.with_mask:
                gm.zeros(
                    "mask",
                    num_slices * spec.kh * spec.kw * oh * ow * c0,
                    dtype,
                )
        else:
            if grad is None:
                raise LayoutError(
                    "backward dispatch requires the gradient tensor"
                )
            gm.add("grad", grad)
            if mask is not None:
                gm.add("mask", mask)
            gm.zeros("dx", num_slices * ih * iw * c0, dtype)

    chip = Chip(config, dtype)
    if plan.serialize_slices:
        result = chip.run_tile_groups(
            lowering.groups,
            gm,
            collect_trace=collect_trace,
            execute=execute,
            summaries=lowering.summaries,
            model=m,
            faults=faults,
            retry=retry,
            sanitize=sanitize,
            compiled=lowering.kernels,
        )
    else:
        result = chip.run_tiles(
            lowering.flat_programs(),
            gm,
            collect_trace=collect_trace,
            execute=execute,
            summaries=lowering.flat_summaries(),
            model=m,
            faults=faults,
            retry=retry,
            sanitize=sanitize,
            compiled=lowering.flat_kernels(),
        )

    if execute == "cycles":
        return PoolRunResult(
            output=None, mask=None, chip=result, tiles=lowering.tiles,
            timing_model=m.name, plan=plan,
        )
    if plan.kind == "fwd":
        out = gm.read("out", (plan.n, plan.c1, oh, ow, c0))
        out_mask = (
            gm.read(
                "mask", (plan.n, plan.c1, spec.kh, spec.kw, oh, ow, c0)
            )
            if plan.with_mask
            else None
        )
        return PoolRunResult(
            output=out, mask=out_mask, chip=result, tiles=lowering.tiles,
            timing_model=m.name, plan=plan,
        )
    dx = gm.read("dx", (plan.n, plan.c1, ih, iw, c0))
    return PoolRunResult(
        output=dx, mask=None, chip=result, tiles=lowering.tiles,
        timing_model=m.name, plan=plan,
    )


def plan_cycles(
    plan: ExecutionPlan,
    config: ChipConfig,
    cache: ProgramCache | None = None,
    impl: "PoolingImpl | None" = None,
) -> "PoolRunResult":
    """Cost a plan through the analytic cycles-only fast path.

    The autotuner's costing primitive: lowers and dispatches the plan
    with ``execute="cycles"`` -- no tensor data exists, no NumPy pass
    runs, and the returned result carries only cycle accounting.  The
    cost model is data-independent, so these cycles equal what numeric
    execution of the same plan would report.
    """
    costed = replace(plan, execute="cycles")
    lowering = lower(
        costed, config, cache=cache, collect_trace=False, impl=impl
    )
    return dispatch(costed, lowering, config, collect_trace=False)
