"""Cost-model-driven autotuning over the plan space.

The cycles-only fast path (``execute="cycles"``, ~60x the interpreter)
makes exhaustive plan search cheap: for one workload, every candidate
(row-chunk size, implementation variant, timing model) is costed
analytically through :func:`repro.plan.planner.plan_cycles` -- no
tensor data exists and no numeric pass ever runs during search, so
search cost is a few milliseconds per candidate.  This mirrors the
tiling/transformation search stages of compiler stacks for this
accelerator family (arXiv 2110.03901) and the cost-driven
implementation selection of the Indirect Convolution Algorithm
(arXiv 1907.02129).

Numerics-preserving search space
--------------------------------

The searcher only proposes plans whose *numeric outputs are
bit-identical* to the heuristic default plan:

* **Row chunk** (forward only): forward tiles partition the output
  grid, each output element is reduced from exactly one window in one
  tile, so the per-element reduction order is chunk-independent.
  Backward row chunks change how fp16 accumulate-DMA sums regroup, so
  backward keeps the default chunk.
* **Implementation variant**: forward MaxPool variants are asserted
  bit-exact against the golden model (outputs *and* masks) by every
  fuzz route, so max-pool search ranges over all registered variants
  (mask workloads over the mask-capable ones).  AvgPool variants are
  only tolerance-checked cross-impl (fp16 summation regrouping), so
  avg -- and all backward -- workloads keep the requested variant.
* **Timing model**: cost-only by construction; numeric outputs are
  model-independent, and the pipelined makespan never exceeds serial.

The best plan per workload is persisted in a byte-deterministic JSON
table (:data:`DEFAULT_TABLE_PATH`) that the ops layer consults behind
the opt-in ``plan="autotuned"`` driver argument; workloads without a
tuned entry silently fall back to the default plan.
"""

from __future__ import annotations

import json
import os
import statistics
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..config import ChipConfig
from ..dtypes import DType, dtype_by_name
from ..errors import PlanError
from ..isa.scu import Im2ColParams
from ..sim import ProgramCache
from .planner import ExecutionPlan, plan_cycles, plan_default
from .tiling import Footprint, chunk_fits, plan_chunk, tiles_for_chunk

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ops.base import PoolingImpl
    from ..ops.spec import PoolSpec

#: Where the ops layer looks for the persisted best-config table,
#: relative to the working directory (the repo root in CI and the
#: bench).  Override per-process with :func:`set_default_table` or the
#: ``REPRO_AUTOTUNE_TABLE`` environment variable.
DEFAULT_TABLE_PATH = Path("results") / "autotune_table.json"


def _config_fingerprint(config: ChipConfig) -> str:
    """Stable fingerprint of a chip config (PYTHONHASHSEED-safe)."""
    return f"{zlib.crc32(repr(config).encode()):08x}"


@dataclass(frozen=True)
class Workload:
    """One tunable operator workload: everything a plan depends on
    except the tunable choices themselves."""

    kind: str
    op: str
    #: The *requested* implementation variant -- the baseline the
    #: search must beat, and the fallback for op/direction combinations
    #: where cross-variant bit-identity is not guaranteed.
    impl: str
    with_mask: bool
    dtype: str
    spec: "PoolSpec"
    n: int
    c1: int
    ih: int
    iw: int
    serialize_slices: bool = False

    @property
    def full_params(self) -> Im2ColParams:
        return self.spec.with_image(self.ih, self.iw)

    def key(self, config: ChipConfig) -> str:
        """Canonical table key: workload identity + config fingerprint."""
        s = self.spec
        return (
            f"{self.kind}:{self.op}:{self.impl}:mask{int(self.with_mask)}"
            f":{self.dtype}:n{self.n}:c1{self.c1}:ih{self.ih}:iw{self.iw}"
            f":k{s.kh}x{s.kw}:s{s.sh}x{s.sw}:p{s.pt}.{s.pb}.{s.pl}.{s.pr}"
            f":ser{int(self.serialize_slices)}"
            f":cfg{_config_fingerprint(config)}"
        )

    @classmethod
    def of_impl(
        cls,
        kind: str,
        impl: "PoolingImpl",
        spec: "PoolSpec",
        dtype: DType,
        n: int,
        c1: int,
        ih: int,
        iw: int,
        serialize_slices: bool = False,
    ) -> "Workload":
        """The workload a driver call with this implementation names."""
        return cls(
            kind=kind, op=impl.op, impl=impl.name,
            with_mask=impl.with_mask, dtype=dtype.name, spec=spec,
            n=n, c1=c1, ih=ih, iw=iw,
            serialize_slices=serialize_slices,
        )


def _impl_instance(workload: Workload, name: str) -> "PoolingImpl":
    from ..ops.registry import backward_impl, forward_impl

    if workload.kind == "fwd":
        return forward_impl(name, workload.op, workload.with_mask)
    return backward_impl(name, workload.op)


def candidate_impls(workload: Workload) -> list[str]:
    """Implementation variants that preserve bit-identical numerics.

    Forward MaxPool ranges over every registered variant (every fuzz
    route asserts their outputs and masks bit-exact against the golden
    model); mask-saving workloads are restricted to the mask-capable
    ones.  AvgPool forward (tolerance-only cross-variant agreement) and
    all backward workloads (fp16 accumulation regrouping) keep the
    requested variant.  Delegates the equivalence classes to
    :func:`repro.ops.registry.bit_exact_variants`.
    """
    from ..ops.registry import bit_exact_variants

    return bit_exact_variants(
        workload.kind, workload.op, workload.with_mask,
        requested=workload.impl,
    )


def candidate_chunks(
    full: Im2ColParams,
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
    mode: str = "exhaustive",
    extra: Iterable[int] = (),
) -> list[int]:
    """Legal candidate row-chunk sizes, ascending and deduplicated.

    ``mode="exhaustive"`` enumerates every chunk in ``[1, oh]`` that
    fits the scratch-pads, keeping one representative per distinct
    tiling (two chunk values at or above ``oh`` produce the same single
    tile).  ``mode="coarse"`` keeps the search O(log oh): 1, the powers
    of two, and ``oh`` (whole grid) -- the shape the smoke jobs and the
    fuzz route use.  ``extra`` chunks (e.g. the heuristic default) are
    always considered.
    """
    if mode not in ("exhaustive", "coarse"):
        raise PlanError(f"unknown chunk search mode {mode!r}")
    oh, _ = full.out_hw()
    if mode == "exhaustive":
        raw: Iterable[int] = range(1, oh + 1)
    else:
        coarse = {1, oh}
        p = 2
        while p < oh:
            coarse.add(p)
            p *= 2
        raw = sorted(coarse)
    candidates = sorted(set(raw) | {c for c in extra if 1 <= c <= oh})
    out: list[int] = []
    seen_tilings: set[tuple[int, ...]] = set()
    for chunk in candidates:
        if not chunk_fits(full, chunk, footprint, config, dtype):
            continue
        signature = tuple(t.oh0 for t in tiles_for_chunk(full, chunk))
        if signature in seen_tilings:
            continue
        seen_tilings.add(signature)
        out.append(chunk)
    return out


@dataclass
class SearchResult:
    """Outcome of one workload's plan search."""

    workload: Workload
    #: The winning plan (``execute="numeric"``; the driver swaps the
    #: execute mode in at dispatch time).
    best: ExecutionPlan
    best_cycles: int
    #: The heuristic default plan and its cost -- the yardstick.
    baseline: ExecutionPlan
    baseline_cycles: int
    #: Number of candidate plans costed.
    evaluated: int

    @property
    def cycles_won(self) -> float:
        """Baseline-over-best cycle ratio (>= 1.0 by construction)."""
        return self.baseline_cycles / self.best_cycles

    def to_entry(self) -> dict:
        """The table record (integers only: byte-deterministic)."""
        return {
            "plan": self.best.to_dict(),
            "cycles": int(self.best_cycles),
            "baseline_plan": self.baseline.to_dict(),
            "baseline_cycles": int(self.baseline_cycles),
            "evaluated": int(self.evaluated),
        }


def search(
    workload: Workload,
    config: ChipConfig,
    models: Sequence[str] = ("serial", "pipelined"),
    chunks: str = "exhaustive",
    cache: ProgramCache | None = None,
) -> SearchResult:
    """Exhaustively cost the workload's plan space and pick the winner.

    The space is the cross product of :func:`candidate_impls`,
    :func:`candidate_chunks` (per implementation -- footprints differ,
    so legality does too; backward workloads keep the default chunk)
    and ``models``.  Costing runs through the analytic cycles-only
    path (:func:`~repro.plan.planner.plan_cycles`) against a private
    program cache, so candidates sharing tile geometries amortize
    lowering.  The heuristic default plan is always part of the space,
    so ``best_cycles <= baseline_cycles`` and the won ratio is >= 1.0.

    Iteration order is deterministic (registry order, ascending chunks,
    caller's model order) and the winner is taken by strict ``<``, so
    repeated searches of one workload always return the same plan --
    the property the persisted table's byte-identity rests on.
    """
    dtype = dtype_by_name(workload.dtype)
    full = workload.full_params
    requested = _impl_instance(workload, workload.impl)
    baseline = plan_default(
        workload.kind, requested, workload.spec, dtype,
        workload.n, workload.c1, workload.ih, workload.iw, config,
        execute="numeric", model="serial",
        serialize_slices=workload.serialize_slices,
    )
    if cache is None:
        cache = ProgramCache()

    def cost(plan: ExecutionPlan) -> int:
        return plan_cycles(plan, config, cache=cache).cycles

    baseline_cycles = cost(baseline)
    best, best_cycles = baseline, baseline_cycles
    evaluated = 1
    seen = {(baseline.impl, baseline.chunk, baseline.model)}
    for impl_name in candidate_impls(workload):
        impl = (
            requested if impl_name == workload.impl
            else _impl_instance(workload, impl_name)
        )
        if workload.kind == "fwd":
            impl_chunks = candidate_chunks(
                full, impl.footprint, config, dtype, mode=chunks,
                extra=(baseline.chunk,) if impl_name == workload.impl
                else (),
            )
        else:
            # Backward: chunking changes fp16 accumulation grouping.
            impl_chunks = [
                plan_chunk(
                    full, impl.footprint, config, dtype,
                    min_tiles=(
                        1 if workload.serialize_slices
                        else -(-config.num_cores
                               // (workload.n * workload.c1))
                    ),
                )
            ]
        for chunk in impl_chunks:
            for model in models:
                combo = (impl_name, chunk, model)
                if combo in seen:
                    continue
                seen.add(combo)
                plan = replace(
                    baseline, impl=impl_name, chunk=chunk, model=model,
                    with_mask=impl.with_mask,
                )
                cycles = cost(plan)
                evaluated += 1
                if cycles < best_cycles:
                    best, best_cycles = plan, cycles
    return SearchResult(
        workload=workload, best=best, best_cycles=best_cycles,
        baseline=baseline, baseline_cycles=baseline_cycles,
        evaluated=evaluated,
    )


class AutotuneTable:
    """The persisted workload -> best-plan table.

    Entries map :meth:`Workload.key` strings to the integer-only
    records of :meth:`SearchResult.to_entry`; serialization sorts keys
    and uses fixed formatting, so two runs of the same deterministic
    search produce byte-identical files (the CI smoke job asserts
    exactly this).
    """

    VERSION = 1

    def __init__(self, entries: dict[str, dict] | None = None) -> None:
        self.entries: dict[str, dict] = dict(entries or {})

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, key: str) -> bool:
        return key in self.entries

    def record(self, key: str, entry: dict) -> None:
        self.entries[key] = entry

    def lookup(self, key: str) -> dict | None:
        return self.entries.get(key)

    def to_json(self) -> str:
        payload = {"version": self.VERSION, "entries": self.entries}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def save(self, path: "str | Path") -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: "str | Path") -> "AutotuneTable":
        """Load a saved table; a missing file yields an empty table."""
        path = Path(path)
        if not path.exists():
            return cls()
        try:
            payload = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise PlanError(
                f"malformed autotune table {path}: {exc}"
            ) from None
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if not isinstance(entries, dict):
            raise PlanError(
                f"malformed autotune table {path}: no 'entries' mapping"
            )
        return cls(entries)


#: Process-wide default table consulted by ``plan="autotuned"``.
#: ``None`` means "not loaded yet"; loaded lazily from
#: :data:`DEFAULT_TABLE_PATH` (or ``$REPRO_AUTOTUNE_TABLE``) on first
#: use so importing the ops layer never touches the filesystem.
_DEFAULT_TABLE: AutotuneTable | None = None


def default_table() -> AutotuneTable:
    """The lazily-loaded process-wide table (empty when none exists)."""
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        path = os.environ.get("REPRO_AUTOTUNE_TABLE")
        _DEFAULT_TABLE = AutotuneTable.load(
            Path(path) if path else DEFAULT_TABLE_PATH
        )
    return _DEFAULT_TABLE


def set_default_table(
    table: "AutotuneTable | str | Path | None",
) -> None:
    """Install (or, with ``None``, reset for lazy re-load) the table
    ``plan="autotuned"`` consults.  Paths are loaded immediately."""
    global _DEFAULT_TABLE
    if table is None or isinstance(table, AutotuneTable):
        _DEFAULT_TABLE = table
    else:
        _DEFAULT_TABLE = AutotuneTable.load(table)


def tuned_plan(
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
    serialize_slices: bool = False,
    table: AutotuneTable | None = None,
) -> ExecutionPlan | None:
    """The table's best plan for this workload, or ``None`` on a miss.

    The returned plan carries the *caller's* execute mode (the table
    canonically stores ``execute="numeric"``).  Misses mean "fall back
    to the default plan" -- ``plan="autotuned"`` is always safe to
    pass, tuned or not.
    """
    if table is None:
        table = default_table()
    workload = Workload.of_impl(
        kind, impl, spec, dtype, n, c1, ih, iw,
        serialize_slices=serialize_slices,
    )
    key = workload.key(config)
    entry = table.lookup(key)
    if entry is None:
        return None
    if not isinstance(entry, dict) or "plan" not in entry:
        raise PlanError(f"malformed autotune entry {key}: no 'plan'")
    plan = ExecutionPlan.from_dict(entry["plan"])
    return replace(plan, execute=execute)


def grid_workloads(
    grid: Sequence[tuple[int, int, int, int, "PoolSpec"]],
    dtype: DType | None = None,
) -> list[Workload]:
    """The benchmark workload set of a validation-style geometry grid.

    Each ``(h, w, c, n, spec)`` entry (the shape of
    :data:`repro.validate.DEFAULT_GRID`) yields two workloads: forward
    MaxPool requested as ``standard`` (where the searcher's variant
    choice can win the paper's Im2col-sized margins) and MaxPool
    backward with ``col2im`` (where only the timing model may move).
    """
    from ..dtypes import FLOAT16

    dtype = dtype or FLOAT16
    out: list[Workload] = []
    for h, w, c, n, spec in grid:
        c1 = -(-c // dtype.c0)
        common = dict(
            dtype=dtype.name, spec=spec, n=n, c1=c1, ih=h, iw=w,
        )
        out.append(
            Workload(
                kind="fwd", op="max", impl="standard", with_mask=False,
                **common,
            )
        )
        out.append(
            Workload(
                kind="bwd", op="max", impl="col2im", with_mask=False,
                **common,
            )
        )
    return out


def autotune_grid(
    workloads: Sequence[Workload],
    config: ChipConfig,
    models: Sequence[str] = ("serial", "pipelined"),
    chunks: str = "exhaustive",
    table: AutotuneTable | None = None,
) -> tuple[AutotuneTable, list[dict]]:
    """Search every workload, record winners, and summarize the gains.

    Returns the (updated) table plus one benchmark row per workload --
    the payload ``repro.bench --autotune`` exports as
    ``BENCH_autotune.json``.
    """
    if table is None:
        table = AutotuneTable()
    rows: list[dict] = []
    cache = ProgramCache(maxsize=4096)
    for workload in workloads:
        result = search(
            workload, config, models=models, chunks=chunks, cache=cache
        )
        table.record(workload.key(config), result.to_entry())
        rows.append(
            {
                "workload": workload.key(config),
                "kind": workload.kind,
                "op": workload.op,
                "requested_impl": workload.impl,
                "best_impl": result.best.impl,
                "baseline_chunk": result.baseline.chunk,
                "best_chunk": result.best.chunk,
                "best_model": result.best.model,
                "baseline_cycles": int(result.baseline_cycles),
                "best_cycles": int(result.best_cycles),
                "cycles_won": result.cycles_won,
                "evaluated": result.evaluated,
            }
        )
    return table, rows


def summarize_rows(rows: Sequence[dict]) -> dict:
    """Aggregate bench rows into the headline cycles-won statistics."""
    ratios = [row["cycles_won"] for row in rows]
    return {
        "workloads": len(rows),
        "median_cycles_won": statistics.median(ratios) if ratios else 0.0,
        "best_cycles_won": max(ratios) if ratios else 0.0,
        "mean_cycles_won": (
            statistics.fmean(ratios) if ratios else 0.0
        ),
    }
