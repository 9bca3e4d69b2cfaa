"""Planning: tiling, execution plans, and the cost-model autotuner.

"this computation is divided in the C1 dimension so that a tile of size
(Ih, Iw, C0) is computed at a time ... unless further tiling is needed"
(Section V-A).  The planner row-chunks the output grid when a whole
``(Ih, Iw, C0)`` slice does not fit the Unified Buffer, and computes the
*tiling threshold* -- the largest untiled input -- that bounds the
x-axis of Figure 8.

* :mod:`repro.plan.tiling`  -- row-chunk tiling and footprint fitting.
* :mod:`repro.plan.planner` -- the plan -> lower -> dispatch pipeline
  behind the operator drivers (:class:`ExecutionPlan`,
  :func:`plan_default`, :func:`lower`, :func:`dispatch`).
* :mod:`repro.plan.autotune` -- exhaustive cost-model search over
  (row chunk, implementation variant, timing model) per workload, with
  a persisted best-config table the ops layer consults behind
  ``plan="autotuned"``.
"""

from ..sim import EXECUTE_MODES
from .autotune import (
    DEFAULT_TABLE_PATH,
    AutotuneTable,
    SearchResult,
    Workload,
    autotune_grid,
    candidate_chunks,
    candidate_impls,
    default_table,
    grid_workloads,
    search,
    set_default_table,
    summarize_rows,
    tuned_plan,
)
from .planner import (
    PLAN_KINDS,
    ExecutionPlan,
    Lowering,
    dispatch,
    lower,
    plan_cycles,
    plan_default,
    resolve_plan,
)
from .tiling import (
    Footprint,
    TileGeom,
    chunk_fits,
    plan_chunk,
    plan_row_chunks,
    tiles_for_chunk,
    tiling_threshold,
)

__all__ = [
    "TileGeom",
    "Footprint",
    "plan_row_chunks",
    "plan_chunk",
    "chunk_fits",
    "tiles_for_chunk",
    "tiling_threshold",
    "ExecutionPlan",
    "Lowering",
    "PLAN_KINDS",
    "EXECUTE_MODES",
    "plan_default",
    "resolve_plan",
    "lower",
    "dispatch",
    "plan_cycles",
    "Workload",
    "SearchResult",
    "AutotuneTable",
    "DEFAULT_TABLE_PATH",
    "candidate_impls",
    "candidate_chunks",
    "search",
    "autotune_grid",
    "grid_workloads",
    "summarize_rows",
    "tuned_plan",
    "default_table",
    "set_default_table",
]
