"""Exception hierarchy for the DaVinci pooling reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the broad failure classes below.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "LayoutError",
    "AlignmentError",
    "CapacityError",
    "IsaError",
    "CompileError",
    "MaskError",
    "RepeatError",
    "ScheduleError",
    "LoweringError",
    "TilingError",
    "PlanError",
    "SimulationError",
    "CoreFailure",
    "DeadlineExceeded",
    "FaultInjectionError",
    "SanitizerError",
    "ServeError",
    "AdmissionError",
    "QuotaExceededError",
    "WorkerFailure",
    "DeadlineError",
    "HedgeError",
    "CircuitOpenError",
    "IntegrityError",
]


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class LayoutError(ReproError):
    """A tensor does not have the shape/layout an operation requires."""


class AlignmentError(LayoutError):
    """An address or extent violates a hardware alignment constraint."""


class CapacityError(ReproError):
    """A scratch-pad buffer allocation exceeds the buffer's capacity."""


class IsaError(ReproError):
    """An instruction was constructed with invalid operands or parameters."""


class CompileError(IsaError):
    """An instruction cannot be translated by the NumPy JIT
    (:mod:`repro.sim.compile`): its class does not implement
    ``Instruction.compile()``.  Every shipped instruction class does, so
    this names an instruction defined outside the ISA; the JIT has no
    interpreter fallback."""


class MaskError(IsaError):
    """A vector mask is malformed (wrong width, no lanes set, ...)."""


class RepeatError(IsaError):
    """A repeat count violates the hardware repeat limits."""


class ScheduleError(ReproError):
    """A schedule directive cannot be applied to the given computation."""


class LoweringError(ReproError):
    """The DSL lowering pass cannot map an expression onto the ISA."""


class TilingError(ReproError):
    """No legal tiling exists for the requested workload."""


class PlanError(ReproError):
    """An :class:`~repro.plan.planner.ExecutionPlan` is malformed or
    inconsistent with the workload it is being dispatched against
    (wrong direction, mismatched spec/dtype/extents, an unknown
    implementation or timing model, an illegal row chunk)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state while executing."""


class CoreFailure(SimulationError):
    """An AI Core failed mid-program (injected crash or detected memory
    corruption); the tile's partial effects must be discarded."""


class DeadlineExceeded(SimulationError):
    """A tile's makespan under the active timing model exceeded its
    cycle budget."""


class FaultInjectionError(SimulationError):
    """A fault plan is malformed (bad tile/core index, bit position,
    budget, ...) and cannot be injected deterministically."""


class SanitizerError(SimulationError):
    """The memory sanitizer detected an illegal access (out-of-bounds
    operand, read of uninitialized or stale scratch-pad data, an
    ``execute()`` touching bytes outside its declared regions, or a
    timeline race).  The message names the program, instruction index,
    operand, and offending byte range."""


class ServeError(ReproError):
    """A failure in the serving layer (:mod:`repro.serve`)."""


class AdmissionError(ServeError):
    """The service's bounded request queue is full (or the request was
    shed for higher-priority work); the submission was rejected for
    backpressure.

    Carries structured context for the caller's backoff logic:
    ``queue_depth`` (pending requests at rejection time), ``limit``
    (the service's ``queue_limit``) and ``retry_after`` (a suggested
    wait in seconds, derived from observed service latency when the
    service has any)."""

    def __init__(
        self,
        message: str,
        *,
        queue_depth: int | None = None,
        limit: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.queue_depth = queue_depth
        self.limit = limit
        self.retry_after = retry_after


class QuotaExceededError(ServeError):
    """The submitting tenant is at its pending-request quota; the
    submission was rejected without consuming shared queue capacity.

    ``tenant``/``pending``/``limit`` name the offender and its usage;
    ``retry_after`` is a suggested wait in seconds."""

    def __init__(
        self,
        message: str,
        *,
        tenant: str | None = None,
        pending: int | None = None,
        limit: int | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.pending = pending
        self.limit = limit
        self.retry_after = retry_after


class WorkerFailure(ServeError):
    """A request exhausted its retry budget across worker-process
    crashes (the process-level analogue of
    :class:`~repro.errors.CoreFailure` + retry exhaustion)."""


class DeadlineError(ServeError):
    """A request missed its ``deadline_ms``.  Raised at admission (the
    deadline was already expired on arrival), at dequeue (it expired
    while queued) or by the stall watchdog (it expired in flight).
    ``stage`` names which; ``deadline_ms``/``elapsed_ms`` quantify the
    miss."""

    def __init__(
        self,
        message: str,
        *,
        deadline_ms: float | None = None,
        elapsed_ms: float | None = None,
        stage: str | None = None,
    ) -> None:
        super().__init__(message)
        self.deadline_ms = deadline_ms
        self.elapsed_ms = elapsed_ms
        self.stage = stage


class HedgeError(ServeError):
    """Every leg of a hedged request failed: the primary dispatch and
    its speculative re-dispatch both came back with worker errors."""


class IntegrityError(ServeError):
    """The integrity layer (:mod:`repro.serve.integrity`) caught a
    worker returning wrong bytes: a response whose service-side
    fingerprint does not match the worker-side one (payload corruption
    in transit), a dual-execution audit whose tie-break identified a
    corrupt slot, or a known-answer probe diverging from its golden
    fingerprint.

    ``slot`` names the worker believed corrupt (``None`` when a
    tie-break could not reach a majority), ``request`` is the
    :class:`~repro.serve.batching.PoolRequest` that exposed it, and
    ``divergence`` is a human-readable description of the mismatch
    (which fingerprints disagreed, and how)."""

    def __init__(
        self,
        message: str,
        *,
        slot: int | None = None,
        request: object | None = None,
        divergence: str | None = None,
    ) -> None:
        super().__init__(message)
        self.slot = slot
        self.request = request
        self.divergence = divergence


class CircuitOpenError(ServeError):
    """Every worker slot's circuit breaker is open (or exhausted its
    half-open probe budget); the submission was rejected fast instead
    of queueing behind a fleet that is known to be failing.
    ``retry_after`` is the soonest breaker-reopen horizon in seconds."""

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
