"""What the program cache holds after the figure call set.

Runs the ``execute="cycles"`` calls behind Figures 7a-7c and 8a-8c
(default plans, both timing models, as ``python -m repro.bench`` makes
them) into ``repro.sim.PROGRAM_CACHE``, then prints what the cached
programs hold: instructions, ``VectorOperand`` and ``MemRef`` objects
against their distinct values, the memory the call set left allocated
(``tracemalloc``) and a digest of every cached program by value (name,
loop trips, allocations, instructions), which two checkouts that
should emit the same programs can compare.  Informational, not a gate.

    PYTHONPATH=src python benchmarks/program_memory.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import tracemalloc

import numpy as np

MODELS = ("serial", "pipelined")


def figure_plans():
    """``(plan, config)`` for every operator call of the figure set."""
    from repro.bench.figures import FIG8_IMPLS, fig8_sizes
    from repro.config import ASCEND910, ASCEND910_SINGLE_CORE
    from repro.dtypes import FLOAT16
    from repro.ops import PoolSpec
    from repro.ops.registry import backward_impl, forward_impl
    from repro.plan import plan_default
    from repro.workloads import INCEPTION_V3_EVAL

    c0 = FLOAT16.c0
    for layer in INCEPTION_V3_EVAL:
        extents = (1, -(-layer.c // c0), layer.h, layer.w)
        for with_mask in (False, True):
            for name in ("standard", "im2col"):
                impl = forward_impl(name, "max", with_mask)
                yield plan_default(
                    "fwd", impl, layer.spec, FLOAT16, *extents, ASCEND910,
                ), ASCEND910
        for name in ("standard", "col2im"):
            impl = backward_impl(name, "max")
            yield plan_default(
                "bwd", impl, layer.spec, FLOAT16, *extents, ASCEND910,
            ), ASCEND910
    for stride in (1, 2, 3):
        spec = PoolSpec.square(3, stride)
        for size in fig8_sizes(stride):
            for name in FIG8_IMPLS[stride]:
                impl = forward_impl(name, "max")
                yield plan_default(
                    "fwd", impl, spec, FLOAT16, 1, 1, size, size,
                    ASCEND910_SINGLE_CORE,
                ), ASCEND910_SINGLE_CORE


def fill(cache, models=MODELS) -> int:
    """Cost every figure plan under ``models`` through ``cache``;
    returns the number of calls made."""
    from dataclasses import replace

    from repro.plan import plan_cycles

    calls = 0
    for model in models:
        for plan, config in figure_plans():
            plan_cycles(replace(plan, model=model), config, cache=cache)
            calls += 1
    return calls


def census(programs) -> dict[str, int]:
    """Instruction and operand counts over ``programs``: objects are
    counted by identity, values by equality."""
    from repro.isa.operand import MemRef, VectorOperand

    operands: dict[int, VectorOperand] = {}
    refs: dict[int, MemRef] = {}
    instructions = 0
    for program in programs:
        instructions += len(program)
        for instr in program:
            for f in dataclasses.fields(instr):
                value = getattr(instr, f.name)
                if isinstance(value, VectorOperand):
                    operands[id(value)] = value
                    value = value.ref
                if isinstance(value, MemRef):
                    refs[id(value)] = value
    return {
        "programs": len(programs),
        "instructions": instructions,
        "VectorOperand objects": len(operands),
        "VectorOperand values": len(set(operands.values())),
        "MemRef objects": len(refs),
        "MemRef values": len(set(refs.values())),
    }


def _encode(value, memo: dict[int, str]) -> str:
    """A canonical text of ``value``, independent of object identity
    and of NumPy's scalar reprs; dataclass values are memoized by id
    (every one of them lives in the programs being encoded)."""
    if dataclasses.is_dataclass(value):
        text = memo.get(id(value))
        if text is None:
            text = memo[id(value)] = type(value).__name__ + "(" + ",".join(
                _encode(getattr(value, f.name), memo)
                for f in dataclasses.fields(value)
            ) + ")"
        return text
    if isinstance(value, dict):
        return "{" + ",".join(
            f"{_encode(k, memo)}:{_encode(v, memo)}"
            for k, v in sorted(value.items())
        ) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_encode(v, memo) for v in value) + "]"
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, (str, np.dtype)) or value is None:
        return str(value)
    raise TypeError(f"cannot encode {type(value).__name__}")


def digest(programs) -> str:
    """SHA-256 over every program's name, loop trips, allocation
    manifest and instructions, in order."""
    h = hashlib.sha256()
    memo: dict[int, str] = {}
    for p in programs:
        h.update(_encode(
            (p.name, p.scalar_loop_trips, p.allocations, p.instructions),
            memo,
        ).encode())
    return h.hexdigest()


def main() -> None:
    from repro.sim import PROGRAM_CACHE

    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    calls = fill(PROGRAM_CACHE)
    held = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    print(f"figure calls: {calls}")
    for name, count in census(PROGRAM_CACHE.programs()).items():
        print(f"{name}: {count:,}")
    print(f"traced MB held after the calls: {held / 2**20:.1f}")
    print(f"program digest: {digest(PROGRAM_CACHE.programs())}")


if __name__ == "__main__":
    main()
