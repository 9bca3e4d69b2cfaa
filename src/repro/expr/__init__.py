"""A miniature TVM-style tensor-expression DSL.

The paper's "standard" pooling implementations are whatever TVM's
lowering makes of Listings 1-3: loop nests whose vectorization quality
is dictated by the access pattern.  This package reproduces that
pipeline:

* :mod:`repro.expr.axes`      -- loop axes and affine index arithmetic;
* :mod:`repro.expr.tensor`    -- tensor declarations with explicit
  layout strides (so the padded Im2col planes can be described);
* :mod:`repro.expr.nodes`     -- expression bodies (loads, binary ops,
  scalar ops, reductions);
* :mod:`repro.expr.stage`     -- one ``compute`` statement;
* :mod:`repro.expr.vectorize` -- the contiguity/fold analysis deciding
  the vector mask and the repeat parameter, following AKG's documented
  behaviour ("the inner loops of computations are vectorized, minimally
  on the C0 dimension ... when possible, the vector instructions are
  also issued with repeat factors", Section IV-A);
* :mod:`repro.expr.lower`     -- instruction emission into a Program.

The accelerated kernels use the same DSL for their arithmetic stages and
inject ``Im2Col``/``Col2Im`` as custom intrinsics through
:mod:`repro.tik`, mirroring the paper's ``decl_tensor_intrin`` usage.
"""

from .axes import Axis, AffineExpr
from .tensor import TensorDecl, Load
from .nodes import BinOp, ScalarOp, Reduce, Fill
from .stage import Stage, reduce_stage, elementwise_stage, scatter_accumulate_stage, fill_stage
from .vectorize import VectorPlan, plan_stage
from .schedule import DEFAULT_SCHEDULE, NAIVE_SCHEDULE, Schedule
from .lower import lower_stage, LoweringResult

__all__ = [
    "Axis",
    "AffineExpr",
    "TensorDecl",
    "Load",
    "BinOp",
    "ScalarOp",
    "Reduce",
    "Fill",
    "Stage",
    "reduce_stage",
    "elementwise_stage",
    "scatter_accumulate_stage",
    "fill_stage",
    "VectorPlan",
    "plan_stage",
    "Schedule",
    "DEFAULT_SCHEDULE",
    "NAIVE_SCHEDULE",
    "lower_stage",
    "LoweringResult",
]
