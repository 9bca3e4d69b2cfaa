"""Lowering: emit ISA instructions for a stage under its VectorPlan.

The emitted code is what AKG's CCE C would contain: scalar loops over
the outer axes, each iteration issuing one (or, after repeat chunking, a
few) vector instruction(s).  Scalar loop management is charged through
``Program.scalar_loop_trips``.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from ..dtypes import DType
from ..errors import LoweringError
from ..isa.instruction import HW_MAX_REPEAT
from ..isa.mask import Mask
from ..isa.operand import MemRef, VectorOperand
from ..isa.program import Program
from ..isa.vector import VectorBinary, VectorDup, VectorScalar
from .nodes import (
    BINOP_TO_ISA,
    REDUCE_TO_ISA,
    SCALAROP_TO_ISA,
    BinOp,
    Fill,
    Load,
    Reduce,
    ScalarOp,
)
from .schedule import DEFAULT_SCHEDULE, Schedule
from .stage import Stage, fill_stage
from .vectorize import VectorPlan, plan_stage, stage_max_repeat


#: The operand table lent to the lowering running in this context (see
#: :func:`shared_operands`); ``None`` outside a cache build.
_OPERANDS: ContextVar["dict[VectorOperand, VectorOperand] | None"] = (
    ContextVar("operands", default=None)
)


@contextmanager
def shared_operands(table: "dict[VectorOperand, VectorOperand]"):
    """Lend ``table`` to every stage lowered inside the block.

    Each operand a stage emits is looked up by value in the table, so
    equal operands in different programs are one object.  The lender
    (:class:`repro.sim.progcache.ProgramCache`) owns the table and
    drops it together with the programs it serves.
    """
    token = _OPERANDS.set(table)
    try:
        yield
    finally:
        _OPERANDS.reset(token)


@dataclass(frozen=True)
class LoweringResult:
    """What the lowering did -- inspected by tests and the benches."""

    plan: VectorPlan
    instructions: int


def lower_stage(
    stage: Stage,
    binding: dict[str, MemRef],
    program: Program,
    dtype: DType,
    max_repeat: int = HW_MAX_REPEAT,
    schedule: Schedule | None = None,
) -> LoweringResult:
    """Emit ``stage`` into ``program``.

    ``binding`` maps tensor names to buffer regions; every tensor the
    stage touches must be bound.  ``schedule`` selects the execution
    strategy (defaults to AKG's automatic one); ``max_repeat`` further
    caps the repeat field (the chip configuration's limit).  Returns
    the plan and the number of instructions emitted (the paper's
    "issue count").
    """
    if not 1 <= max_repeat <= HW_MAX_REPEAT:
        raise LoweringError(f"max_repeat {max_repeat} outside 1..{HW_MAX_REPEAT}")
    sched = schedule or DEFAULT_SCHEDULE
    max_repeat = min(max_repeat, sched.max_repeat)

    total = 0
    # A reduction first fills its output with the op's identity value.
    if isinstance(stage.body, Reduce):
        _, identity_kind = REDUCE_TO_ISA[stage.body.op]
        identity = 0.0 if identity_kind == "zero" else dtype.min_value
        init = fill_stage(
            stage.out, stage.axes, identity, name=f"{stage.name}.init"
        )
        total += _lower_one(
            init, binding, program, dtype, max_repeat, sched
        ).instructions

    main = _lower_one(stage, binding, program, dtype, max_repeat, sched)
    return LoweringResult(
        plan=main.plan, instructions=total + main.instructions
    )


def _bound_ref(binding: dict[str, MemRef], name: str) -> MemRef:
    try:
        return binding[name]
    except KeyError:
        raise LoweringError(f"tensor {name!r} is not bound to a buffer") from None


def _classify(stage: Stage):
    """(kind, isa_op, loads, imm) for the stage body."""
    body = stage.body
    if isinstance(body, Fill):
        return "fill", None, [], body.value
    if isinstance(body, Reduce):
        return "reduce", REDUCE_TO_ISA[body.op][0], [body.body], None
    if isinstance(body, BinOp):
        return "binop", BINOP_TO_ISA[body.op], [body.a, body.b], None
    if isinstance(body, ScalarOp):
        return "scalarop", SCALAROP_TO_ISA[body.op], [body.a], body.imm
    if isinstance(body, Load):
        if stage.accumulate:
            return "scatter", "vadd", [body], None
        return "copy", "vadds", [body], 0.0
    raise LoweringError(f"cannot lower body {type(body).__name__}")


def _lower_one(
    stage: Stage,
    binding: dict[str, MemRef],
    program: Program,
    dtype: DType,
    max_repeat: int,
    sched: Schedule = DEFAULT_SCHEDULE,
) -> LoweringResult:
    """Emit one stage; the result carries the plan it was emitted under.

    Everything that does not depend on the outer loop point is computed
    once per stage: the chunk schedule, each chunk's mask and operand
    spans, the repeat strides and the instruction constructor.  The
    per-point work is a base offset per operand, from per-axis
    coefficient rows, and operands repeating within the stage (the
    same base, span and slot) are one shared, immutable object.  Inside
    :func:`shared_operands` a new operand is also looked up in the lent
    table, so equal operands of every program built there are one
    object too.
    """
    plan = plan_stage(
        stage, dtype,
        allow_fold=sched.allow_repeat_fold,
        c0_only=sched.vectorize_c0_only,
    )
    kind, isa_op, loads, imm = _classify(stage)
    cap = stage_max_repeat(stage)
    if cap is not None:
        max_repeat = min(max_repeat, cap)

    # Operand slot 0 is the destination, slots 1.. the loads.
    refs = [_bound_ref(binding, stage.out.name)]
    refs += [_bound_ref(binding, ld.tensor.name) for ld in loads]
    affs = [stage.out_flat_affine()] + [ld.flat_affine() for ld in loads]

    lpb = dtype.lanes_per_block
    lpr = dtype.lanes_per_repeat
    lanes = plan.lanes_total
    f = plan.fold_axis

    # Per-operand repeat strides in 32-byte blocks.
    if not plan.wide and f is not None:
        rep_strides = [0 if f in stage.raxes else lanes // lpb]
        rep_strides += [aff.coeff(f) // lpb for aff in affs[1:]]
    else:
        rep_strides = [lpr // lpb] * len(affs)

    # The chunk schedule: per chunk, each operand's shift from the
    # point's base, the repeat and the lane count.
    if plan.wide:
        full, tail = divmod(lanes, lpr)
        schedule = [
            ([done * lpr] * len(affs), min(max_repeat, full - done), lpr)
            for done in range(0, full, max_repeat)
        ]
        if tail:
            schedule.append(([full * lpr] * len(affs), 1, tail))
    else:
        advance = [aff.coeff(f) if f is not None else 0 for aff in affs]
        repeats = plan.fold_extent
        schedule = [
            ([done * a for a in advance], min(max_repeat, repeats - done),
             lanes)
            for done in range(0, repeats, max_repeat)
        ]
    chunks = [
        (
            shifts,
            [max(1, (rep - 1) * rs * lpb + nlanes) for rs in rep_strides],
            Mask.for_elements(nlanes, dtype),
            rep,
        )
        for shifts, rep, nlanes in schedule
    ]

    if kind == "fill":
        def build(ops, mask, rep):
            return VectorDup(ops[0], imm, mask, rep)
    elif kind in ("copy", "scalarop"):
        def build(ops, mask, rep):
            return VectorScalar(isa_op, ops[0], ops[1], imm, mask, rep)
    elif kind in ("reduce", "scatter"):
        # Accumulating ops read the destination as src0.
        def build(ops, mask, rep):
            return VectorBinary(isa_op, ops[0], ops[0], ops[1], mask, rep)
    else:
        def build(ops, mask, rep):
            return VectorBinary(isa_op, ops[0], ops[1], ops[2], mask, rep)

    # Each operand's base at every outer point, in scalar loop order
    # (outermost axis first), grown one axis at a time.
    bases = [[r.offset + aff.const] for r, aff in zip(refs, affs)]
    for ax in plan.outer_axes:
        steps = range(ax.extent)
        for i, aff in enumerate(affs):
            c = aff.coeff(ax)
            bases[i] = [b + v * c for b in bases[i] for v in steps]

    shared: list[dict[tuple[int, int], VectorOperand]] = [{} for _ in refs]
    per_slot = list(zip(refs, rep_strides, shared))
    table = _OPERANDS.get()
    emit = program.emit
    for base in zip(*bases):
        for shifts, spans, mask, rep in chunks:
            ops = []
            for (ref, rs, seen), b, shift, span in zip(
                per_slot, base, shifts, spans
            ):
                key = (b + shift, span)
                op = seen.get(key)
                if op is None:
                    op = VectorOperand(
                        MemRef(ref.buffer, key[0], span, dtype), 1, rs
                    )
                    if table is not None:
                        op = table.setdefault(op, op)
                    seen[key] = op
                ops.append(op)
            emit(build(ops, mask, rep))

    emitted = len(bases[0]) * len(chunks)
    if emitted > 1:
        # The instructions sit inside scalar loops in the lowered CCE C;
        # charge loop management per trip.
        program.scalar_loop_trips += emitted
    return LoweringResult(plan=plan, instructions=emitted)
