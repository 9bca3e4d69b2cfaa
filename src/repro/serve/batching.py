"""Request/response vocabulary and geometry-keyed coalescing.

A pooling fleet's traffic is heavily repetitive: the same layer
geometries arrive over and over from different tenants (every user of
an InceptionV3 deployment pools the same shapes).  The simulator's
whole perf substrate -- the program cache, ``Program.relocate`` clones
and memoized JIT kernels -- amortizes work *per unique geometry*, so
the serving layer's job is to make sure same-geometry requests land
where that amortization already happened.  That is what the
:class:`Coalescer` does: it maps each request's :func:`geometry_key`
to the worker that first served it, so every subsequent request with
the same key reuses that worker's cached program, summaries and
compiled kernel instead of warming a second cache from scratch.  This
is the service-level analogue of how indirect-convolution runtimes
reuse the indirection buffer across calls (Dukhan, arXiv 1907.02129)
and how implicit-im2col stacks batch same-shape work (arXiv
2110.03901).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable

import numpy as np

from ..errors import LayoutError, ServeError
from ..ops.spec import PoolSpec
from ..sim import check_execute
from ..sim.scheduler import resolve_model

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ops.base import PoolRunResult

#: The operator kinds a request may name, mirroring :mod:`repro.ops.api`.
KINDS = ("maxpool", "avgpool", "maxpool_backward", "avgpool_backward")
_FORWARD_KINDS = ("maxpool", "avgpool")
#: Plan policies a request may carry.  Explicit ExecutionPlan objects
#: stay a library-level feature: requests are a wire format, and the
#: named policies keep the geometry key hashable and small.
_PLAN_POLICIES = ("default", "autotuned")


@dataclass(frozen=True, eq=False)
class PoolRequest:
    """One operator invocation travelling through the service.

    ``x`` is the forward input or the backward incoming gradient, in
    the fractal ``(N, C1, H, W, C0)`` layout -- exactly what the
    matching :mod:`repro.ops.api` entry point takes.  Validation
    happens at construction, so a malformed request is rejected at
    submission time rather than inside a worker process.

    ``deadline_ms`` is the caller's end-to-end latency budget: the
    service enforces it at admission (an already-expired deadline is
    rejected immediately), at dequeue (it expired while queued) and --
    for in-flight requests -- from the stall watchdog, failing the
    request with a structured :class:`~repro.errors.DeadlineError`
    instead of letting it wait forever.  ``None`` (the default) means
    no budget.

    The ``chaos_*`` fields are the process-level analogues of the
    chip-level fault classes in :mod:`repro.sim.faults`, used by tests
    and chaos drills (all default to "never"; harmless in production):

    * ``chaos_crash_attempts`` -- :class:`~repro.sim.faults.Crash`: a
      worker executing one of the listed attempt numbers kills itself
      instead of replying.
    * ``chaos_stall_attempts`` -- :class:`~repro.sim.faults.Stall`: the
      worker *hangs forever* on the listed attempts, alive but silent
      -- the fault class only the stall watchdog can see.
    * ``chaos_slow_ms`` / ``chaos_slow_attempts`` -- tail latency: the
      worker sleeps ``chaos_slow_ms`` before executing, on the listed
      attempts (every attempt when the tuple is empty).
    * ``chaos_drop_reply`` -- the worker executes the request but never
      replies on the listed attempts, orphaning the dispatch (covered
      by hedging or the stall watchdog).
    * ``chaos_corrupt_output`` -- silent data corruption at the *core*:
      a worker whose slot is listed flips one deterministic bit of the
      result **before** fingerprinting it, so the reply is
      self-consistent and only dual-execution audits or known-answer
      probes (:mod:`repro.serve.integrity`) can catch it.
    * ``chaos_corrupt_payload`` -- corruption *in transit*: a listed
      worker flips one bit **after** fingerprinting, modelling a
      corrupted pickle payload; the service-side fingerprint
      re-verification catches it on arrival.

    Both corruption hooks are keyed by worker slot and salted by
    ``(worker, attempt)`` when choosing the bit, stay excluded from
    :func:`geometry_key` like every chaos field, and are no-ops for
    cycles-only results (no arrays to corrupt).

    ``fingerprint`` is service-managed: :class:`~repro.serve.service.
    PoolService` sets it on admission when an ``IntegrityConfig`` is
    active, and workers respond by attaching a CRC-32 digest
    (:func:`repro.sim.fingerprint.fingerprint_result`) to the reply.
    """

    kind: str
    x: np.ndarray
    spec: PoolSpec
    impl: str = "im2col"
    with_mask: bool = False
    mask: np.ndarray | None = None
    ih: int | None = None
    iw: int | None = None
    execute: str = "numeric"
    model: str | None = None
    #: Planning policy forwarded to the ops layer: ``"default"`` or
    #: ``"autotuned"`` (workers consult their own lazily-loaded copy of
    #: the persisted autotune table; untuned workloads fall back to the
    #: default plan, so the flag is always safe).
    plan: str = "default"
    collect_trace: bool = False
    tenant: str = "default"
    #: End-to-end latency budget in milliseconds (None = unbounded).
    deadline_ms: float | None = None
    chaos_crash_attempts: tuple[int, ...] = ()
    chaos_stall_attempts: tuple[int, ...] = ()
    chaos_slow_ms: float = 0.0
    chaos_slow_attempts: tuple[int, ...] = ()
    chaos_drop_reply: tuple[int, ...] = ()
    chaos_corrupt_output: tuple[int, ...] = ()
    chaos_corrupt_payload: tuple[int, ...] = ()
    #: Ask the worker for a result fingerprint (set by the service when
    #: integrity checking is on; excluded from the geometry key).
    fingerprint: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServeError(
                f"unknown request kind {self.kind!r}; expected one of "
                f"{KINDS}"
            )
        check_execute(self.execute, ServeError)
        if self.plan not in _PLAN_POLICIES:
            raise ServeError(
                f"unknown plan policy {self.plan!r}; expected one of "
                f"{_PLAN_POLICIES}"
            )
        if not isinstance(self.x, np.ndarray) or self.x.ndim != 5:
            raise LayoutError(
                "request payload must be a rank-5 NC1HWC0 tensor, got "
                f"{getattr(self.x, 'shape', type(self.x).__name__)}"
            )
        if self.kind in _FORWARD_KINDS:
            if self.ih is not None or self.iw is not None:
                raise ServeError(
                    f"{self.kind} takes no ih/iw (they are implied by "
                    "the input shape)"
                )
            if self.mask is not None:
                raise ServeError(f"{self.kind} takes no mask")
            if self.with_mask and self.kind != "maxpool":
                raise ServeError("the Argmax mask only exists for MaxPool")
        else:
            if self.ih is None or self.iw is None:
                raise ServeError(
                    f"{self.kind} requires the input-image extents ih/iw"
                )
            if self.with_mask:
                raise ServeError(
                    "with_mask is a forward-only flag; backward requests "
                    "supply the mask itself"
                )
            if self.kind == "maxpool_backward" and self.mask is None:
                raise ServeError(
                    "maxpool_backward requires the Argmax mask the "
                    "forward pass saved"
                )
            if self.kind == "avgpool_backward" and self.mask is not None:
                raise ServeError("avgpool_backward takes no mask")
        if self.deadline_ms is not None and not (
            isinstance(self.deadline_ms, (int, float))
            and self.deadline_ms == self.deadline_ms  # not NaN
        ):
            raise ServeError("deadline_ms must be a number (or None)")
        if self.chaos_slow_ms < 0:
            raise ServeError("chaos_slow_ms must be >= 0")
        for name in (
            "chaos_crash_attempts",
            "chaos_stall_attempts",
            "chaos_slow_attempts",
            "chaos_drop_reply",
            "chaos_corrupt_output",
            "chaos_corrupt_payload",
        ):
            if not all(a >= 0 for a in getattr(self, name)):
                raise ServeError(f"{name} must be non-negative")


def geometry_key(request: PoolRequest) -> Hashable:
    """The coalescing key: everything the lowering/JIT work depends on.

    Two requests with equal keys exercise the same cached programs,
    summaries and compiled kernels inside a worker -- only the tensor
    *values* differ -- so routing them to the same worker turns the
    second request into pure cache hits.  Mirrors
    :func:`repro.sim.progcache.program_key` minus the chip config
    (one service serves one config) plus the request kind/mask flags
    the api layer folds into the impl ``describe()`` string.
    """
    return (
        request.kind,
        request.impl,
        request.with_mask,
        request.spec,
        request.x.shape,
        str(request.x.dtype),
        (request.ih, request.iw),
        request.execute,
        resolve_model(request.model).name,
        request.plan,
    )


@dataclass
class PoolResponse:
    """What the service hands back for one request.

    ``result`` is the worker's :class:`~repro.ops.base.PoolRunResult`,
    detached (trace payloads dropped) unless the request asked for
    traces -- byte-identical outputs/masks/cycles to calling
    :mod:`repro.ops.api` directly.  The envelope records where and how
    the request ran: the worker slot, how many dispatches it took
    (>1 means crash recovery or a hedge kicked in), whether geometry
    coalescing routed it to an already-warm worker, whether a hedged
    (speculative duplicate) dispatch was in play, which degradations
    load shedding applied (empty = none), and the service-side
    latency.

    With an active :class:`~repro.serve.integrity.IntegrityConfig` the
    envelope also carries the integrity metadata: ``fingerprint`` is
    the worker-computed CRC-32 digest of the result
    (:func:`repro.sim.fingerprint.fingerprint_result`),
    ``fingerprint_ok`` records that the service re-verified it on
    arrival (a response never reaches the caller with a failed
    verification -- the dispatch is retried instead), and ``audited``
    marks responses the deterministic sampler selected for
    dual-execution audit on a different worker.  All three stay at
    their ``None``/``False`` defaults when integrity checking is off,
    keeping the envelope byte-identical to the pre-integrity format.
    """

    request_id: int
    tenant: str
    worker: int
    attempts: int
    coalesced: bool
    result: "PoolRunResult"
    submitted_at: float
    completed_at: float
    hedged: bool = False
    degraded: tuple[str, ...] = ()
    fingerprint: int | None = None
    fingerprint_ok: bool | None = None
    audited: bool = False

    @property
    def latency(self) -> float:
        """Seconds from admission to completion (queue + compute)."""
        return self.completed_at - self.submitted_at

    @property
    def output(self) -> np.ndarray | None:
        return self.result.output

    @property
    def mask(self) -> np.ndarray | None:
        return self.result.mask

    @property
    def cycles(self) -> int:
        return self.result.cycles


@dataclass
class Coalescer:
    """Geometry-key -> worker-slot affinity map with hit accounting.

    Purely service-side state (worker processes never see it).  A key
    observed for the first time is *bound* to whichever worker the
    scheduler picked; subsequent routes of the same key return that
    worker -- a *coalescing hit*, meaning the request will be served
    by a warm program cache and (under ``execute="jit"``) a memoized
    compiled kernel.  When a worker dies its bindings are forgotten,
    so a respawned or different worker re-warms on the next request.
    """

    _affinity: dict[Hashable, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def route(self, key: Hashable) -> int | None:
        """The worker this key is bound to, or ``None`` if unseen."""
        return self._affinity.get(key)

    def bind(self, key: Hashable, worker: int, *, hit: bool) -> None:
        """Record the routing decision for ``key`` and count it."""
        self._affinity[key] = worker
        if hit:
            self.hits += 1
        else:
            self.misses += 1

    def forget_worker(self, worker: int) -> int:
        """Drop every binding to ``worker`` (it died); returns count."""
        stale = [k for k, w in self._affinity.items() if w == worker]
        for k in stale:
            del self._affinity[k]
        return len(stale)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._affinity)
