"""The simulated DaVinci chip.

* :mod:`repro.sim.buffers` -- scratch-pad memories and a bump allocator.
* :mod:`repro.sim.memory`  -- simulated global memory (DDR/HBM/L2).
* :mod:`repro.sim.aicore`  -- one AI Core executing a Program.
* :mod:`repro.sim.chip`    -- the multi-core chip and tile scheduling.
* :mod:`repro.sim.modes`   -- the execute modes and the one check of
  how they compose with sanitize/faults/retry/compiled kernels.
* :mod:`repro.sim.trace`   -- per-instruction execution traces.
* :mod:`repro.sim.scheduler` -- pluggable timing models (serial/pipelined).
* :mod:`repro.sim.compile` -- the NumPy JIT: lowered programs fused
  into batched, relocatable kernels (``execute="jit"``).
* :mod:`repro.sim.progcache` -- compiled-program cache + relocation.
* :mod:`repro.sim.faults`   -- deterministic fault injection + recovery
  vocabulary (fault plans, retry policy, resilience reports).
* :mod:`repro.sim.sanitizer` -- ISA-level memory sanitizer (shadow
  state, poison-on-reset, bounds/init/region-soundness checks, race
  auditing).
* :mod:`repro.sim.fingerprint` -- deterministic CRC-32 result digests
  for cross-process silent-data-corruption detection.
"""

from .buffers import Allocator, ScratchBuffer
from .faults import (
    BitFlip,
    CoverageLedger,
    Crash,
    Deadline,
    DegradationEvent,
    FailureRecord,
    FaultInjector,
    FaultPlan,
    Injection,
    ResilienceReport,
    RetryPolicy,
    Stall,
    apply_silent_flips_to_gm,
    resolve_injector,
)
from .fingerprint import (
    FINGERPRINT_VERSION,
    fingerprint_arrays,
    fingerprint_result,
)
from .memory import GlobalMemory
from .modes import EXECUTE_MODES, check_execute
from .scheduler import (
    MODELS,
    PIPELINED,
    SERIAL,
    ExecutionModel,
    InstructionTiming,
    PipelinedModel,
    Schedule,
    SerialModel,
    resolve_model,
)
from .aicore import AICore, RunResult, summarize
from .chip import Chip, ChipRunResult
from .compile import (
    CompileContext,
    CompiledKernel,
    KernelStats,
    compile_program,
)
from .progcache import (
    PROGRAM_CACHE,
    CacheStats,
    ProgramCache,
    plan_key,
    program_key,
)
from .sanitizer import (
    POISON_VALUE,
    BufferCoverage,
    Sanitizer,
    SanitizerReport,
    SanitizerViolation,
    audit_races,
    resolve_sanitizer,
)
from .trace import Trace, TraceRecord, pooled_lane_utilization

__all__ = [
    "Allocator",
    "ScratchBuffer",
    "GlobalMemory",
    "AICore",
    "RunResult",
    "summarize",
    "Chip",
    "ChipRunResult",
    "EXECUTE_MODES",
    "check_execute",
    "ExecutionModel",
    "SerialModel",
    "PipelinedModel",
    "Schedule",
    "InstructionTiming",
    "SERIAL",
    "PIPELINED",
    "MODELS",
    "resolve_model",
    "Trace",
    "TraceRecord",
    "pooled_lane_utilization",
    "PROGRAM_CACHE",
    "CacheStats",
    "ProgramCache",
    "program_key",
    "plan_key",
    "CompileContext",
    "CompiledKernel",
    "KernelStats",
    "compile_program",
    "FaultPlan",
    "FaultInjector",
    "Injection",
    "Stall",
    "Crash",
    "BitFlip",
    "Deadline",
    "RetryPolicy",
    "ResilienceReport",
    "FailureRecord",
    "DegradationEvent",
    "CoverageLedger",
    "apply_silent_flips_to_gm",
    "resolve_injector",
    "FINGERPRINT_VERSION",
    "fingerprint_arrays",
    "fingerprint_result",
    "POISON_VALUE",
    "Sanitizer",
    "SanitizerReport",
    "SanitizerViolation",
    "BufferCoverage",
    "audit_races",
    "resolve_sanitizer",
]
