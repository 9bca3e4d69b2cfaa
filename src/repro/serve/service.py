"""The asyncio multi-tenant front end over the worker-process fleet.

:class:`PoolService` is the "pooling-as-a-service" entry point: an
asyncio server multiplexing many concurrent pool/conv requests onto a
fleet of worker processes, each of which owns a private simulated chip
and program cache (:mod:`repro.serve.workers`).  The service layer
provides what the single-call API cannot:

* **Admission control** -- a bounded pending queue; submissions beyond
  it are rejected with :class:`~repro.errors.AdmissionError`
  (backpressure) instead of growing memory without bound.
* **Per-tenant quotas and fair scheduling** -- each tenant's pending
  share is capped (:class:`~repro.serve.tenancy.TenantQuota`), and
  queued work drains round-robin across tenants
  (:class:`~repro.serve.tenancy.FairQueue`).
* **Geometry-keyed coalescing** -- same-geometry requests are routed
  to the worker that already lowered/compiled that geometry
  (:class:`~repro.serve.batching.Coalescer`), so they are served by
  cached programs run at per-tile deltas and memoized JIT kernels
  instead of cold lowering.
* **Worker-failure recovery** -- a dead worker's in-flight requests
  are retried on healthy workers under the same
  :class:`~repro.sim.faults.RetryPolicy` vocabulary the chip-level
  resilient dispatcher uses (``max_attempts`` bounds attempts per
  request, ``quarantine_after`` failures quarantines the slot), and
  non-quarantined slots are respawned.
* **Service-level resilience** (:mod:`repro.serve.resilience`) --
  per-request **deadlines** enforced at admission, at dequeue and by a
  **stall watchdog** that also spots hung-but-alive workers
  (terminating them so the liveness machinery recovers their work),
  **hedged retries** for tail-latency outliers (first byte-identical
  reply wins, the loser is discarded, exactly-once by construction),
  per-slot **circuit breakers** feeding placement, and **load
  shedding** with graceful degradation under queue pressure.  All of
  it is opt-in: with no :class:`ResilienceConfig` and no per-request
  ``deadline_ms`` the service behaves exactly as before.
* **End-to-end integrity** (:mod:`repro.serve.integrity`) -- opt-in
  silent-data-corruption detection: worker-side result
  **fingerprints** re-verified on arrival (corrupt payloads are
  retried, never delivered), sampled **dual-execution audits** with
  tie-break conviction of corrupt slots, and periodic
  **known-answer probes** against golden fingerprints.  Convicted
  workers feed the same quarantine/respawn machinery crashes do, with
  incidents recorded as structured
  :class:`~repro.errors.IntegrityError` values.  Defaults off: with no
  :class:`IntegrityConfig`, requests, replies, responses and stats are
  byte-identical to the pre-integrity service.

Concurrency model: user coroutines ``await submit()``; a single
dispatcher task moves admitted requests to workers; one collector
*thread* selects over the per-worker reply queues and worker liveness,
handing completions back to the event loop via
``call_soon_threadsafe``; a watchdog task (started lazily, only when
resilience features or deadlines are in play) scans in-flight ages on
the event loop.  All service state is touched only on the event-loop
thread, on one injectable monotonic clock.

Every dispatch is one *attempt* with one lifecycle: queued ->
dispatched -> {ok, corrupt, err, died, expired, shed, closed} ->
resolved.  A dispatched attempt (a *leg*) lives in one ledger keyed by
``(request, attempt)`` until its reply or its worker's death pops it,
and each outcome goes through one settle step that decides, for user
requests and integrity probes alike, whether to wait for another leg,
requeue, or resolve.  Hedges, audits, tie-breaks and known-answer
probes are placement policies that emit attempts; they add no
outcome paths.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import threading
import time
from collections import defaultdict
from functools import partial
from multiprocessing import connection as mp_connection
from dataclasses import dataclass, field, fields, replace as _dc_replace
from typing import Any, Callable, Hashable

import numpy as np

from ..config import ASCEND910, ChipConfig
from ..errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineError,
    HedgeError,
    IntegrityError,
    QuotaExceededError,
    ServeError,
    WorkerFailure,
)
from ..ops.spec import PoolSpec
from ..sim.faults import RetryPolicy
from .batching import Coalescer, PoolRequest, PoolResponse, geometry_key
from .integrity import (
    INTERNAL_TENANT,
    AuditRecord,
    IntegrityConfig,
    IntegrityController,
    audit_twin,
)
from .resilience import (
    DEFAULT_RETRY_AFTER_MS,
    DEFAULT_WATCHDOG_INTERVAL_MS,
    CircuitBreaker,
    Clock,
    LatencyTracker,
    ResilienceConfig,
    degrade_request,
)
from .tenancy import FairQueue, TenantQuota
from .workers import (
    MSG_CRASH,
    MSG_RUN,
    MSG_STATS,
    WorkerHandle,
    spawn_worker,
)

#: The leg outcomes a request may survive, and whether a *user* request
#: retries each one (probes retry all three).  Every other outcome --
#: ``ok``, ``expired``, ``shed``, ``closed`` -- resolves its request.
_LEG_FAILURES = {"corrupt": True, "died": True, "err": False}


@dataclass
class ServeStats:
    """Service-lifetime counters (all touched on the event-loop thread)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected_queue_full: int = 0
    rejected_quota: int = 0
    rejected_circuit: int = 0
    retries: int = 0
    worker_failures: int = 0
    respawns: int = 0
    forced_respawns: int = 0
    quarantined: tuple[int, ...] = ()
    deadline_misses: int = 0
    stalls_detected: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    breaker_opens: int = 0
    shed: int = 0
    degraded: int = 0
    #: Integrity counters (populated only with an ``IntegrityConfig``;
    #: ``integrity_enabled`` gates their export so a service without
    #: one keeps its stats dict -- and every export built from it --
    #: byte-identical to the pre-integrity format).
    integrity_enabled: bool = False
    audits_run: int = 0
    audit_mismatches: int = 0
    kat_probes: int = 0
    corrupt_workers_quarantined: int = 0
    fingerprint_failures: int = 0

    def to_dict(self) -> dict:
        """The counters in field order (tuples as lists); the fields
        after ``integrity_enabled`` only when it is set."""
        d: dict = {}
        for f in fields(self):
            if f.name == "integrity_enabled":
                if not self.integrity_enabled:
                    break
                continue
            value = getattr(self, f.name)
            d[f.name] = list(value) if isinstance(value, tuple) else value
        return d


@dataclass
class _Pending:
    """One admitted request: a user request or an integrity probe.

    ``dispatches`` counts every attempt ever launched (attempt numbers
    run ``0..dispatches-1``; it is what :attr:`PoolResponse.attempts`
    reports) while ``failures`` counts the failed legs the retry budget
    bounds.  The legs still out live only in the service's attempt
    ledger.  ``hedge_attempt`` is the attempt number of the request's
    one hedge leg, if it was hedged.

    A probe (audit leg, tie-break, known-answer probe) carries a
    ``verdict(slot, fingerprint)`` callback, run on its verified reply,
    and the ``exclude`` slots it must not run on.  Probes take no
    coalescing affinity, are excluded from user-facing stats, and
    resolve their futures with ``None``, never an exception.
    """

    request: PoolRequest
    future: "asyncio.Future[PoolResponse]"
    key: Hashable
    submitted_at: float
    deadline: float | None = None  # absolute, on the service clock
    coalesced: bool = False
    degraded: tuple[str, ...] = ()
    dispatches: int = 0
    failures: int = 0
    hedge_attempt: int | None = None
    errors: list[str] = field(default_factory=list)
    verdict: Callable[[int, int], None] | None = None
    exclude: tuple[int, ...] = ()


@dataclass
class _Attempt:
    """One dispatched leg: where it went and when it left.

    Keyed by ``(req_id, attempt)`` in ``PoolService._ledger``, this is
    the exactly-once record: *any* reply (winner, hedge loser,
    post-deadline straggler) or its worker's death pops it and releases
    exactly one window slot on the generation it was charged to, and
    the stall watchdog reads ``at`` to age in-flight work.
    """

    slot: int
    generation: int
    at: float


class PoolService:
    """Async multi-tenant pooling service over a simulated chip fleet.

    Usage::

        async with PoolService(workers=4) as svc:
            res = await svc.maxpool(x, PoolSpec.square(3, 2), impl="im2col")
            print(res.cycles, res.latency)

    ``workers`` sizes the process fleet; ``queue_limit`` bounds total
    pending requests (admission control); ``max_inflight_per_worker``
    is the dispatch window per worker -- admitted requests beyond it
    wait in the fair queue, which is what makes tenant fairness and
    coalescing routing effective.  ``retry`` reuses the chip-level
    :class:`~repro.sim.faults.RetryPolicy` vocabulary at the process
    level: ``max_attempts`` bounds a request's failed dispatches
    across worker crashes and ``quarantine_after`` failures
    quarantines a worker slot (cycle-backoff fields are chip-only and
    ignored here).  ``quotas`` maps tenant name to
    :class:`TenantQuota`; unlisted tenants get ``default_quota``.

    ``resilience`` opts into the service-level resilience machinery
    (stall watchdog, hedged retries, circuit breakers, load shedding
    -- see :class:`~repro.serve.resilience.ResilienceConfig`); left
    ``None``, only per-request ``deadline_ms`` enforcement is active,
    and only for requests that carry one.  ``integrity`` opts into
    silent-data-corruption detection
    (:class:`~repro.serve.integrity.IntegrityConfig`: response
    fingerprinting, sampled dual-execution audits, known-answer
    probes); audits need at least 2 workers (3+ for tie-breaks to
    convict a slot).  ``poll_interval`` is the
    collector thread's outbox poll period in seconds and
    ``shutdown_timeout`` bounds :meth:`close`'s collector/worker joins;
    ``clock`` is the monotonic clock (seconds) used for every
    service-side timestamp -- latencies, deadlines, in-flight ages,
    breaker timers -- so deterministic tests can inject a fake.

    Results are byte-identical to direct :mod:`repro.ops.api` calls:
    workers execute requests *through* that API, and only the trace
    payload is dropped from what crosses the process boundary
    (:meth:`~repro.ops.base.PoolRunResult.detach`).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        config: ChipConfig = ASCEND910,
        queue_limit: int = 256,
        max_inflight_per_worker: int = 2,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota = TenantQuota(),
        retry: RetryPolicy | None = None,
        resilience: ResilienceConfig | None = None,
        integrity: IntegrityConfig | None = None,
        poll_interval: float = 0.02,
        shutdown_timeout: float = 5.0,
        clock: Clock = time.monotonic,
        mp_context: str | None = None,
    ) -> None:
        if workers < 1:
            raise ServeError("a service needs at least one worker")
        if queue_limit < 1:
            raise ServeError("queue_limit must be >= 1")
        if max_inflight_per_worker < 1:
            raise ServeError("max_inflight_per_worker must be >= 1")
        if poll_interval <= 0:
            raise ServeError("poll_interval must be positive")
        if shutdown_timeout <= 0:
            raise ServeError("shutdown_timeout must be positive")
        if (
            integrity is not None
            and integrity.audit_enabled
            and workers < 2
        ):
            raise ServeError(
                "dual-execution audits re-run requests on a *different* "
                f"worker; audit_rate={integrity.audit_rate} needs at "
                f"least 2 workers (got {workers}; 3+ lets tie-breaks "
                "convict a slot)"
            )
        self.num_workers = workers
        self.config = config
        self.queue_limit = queue_limit
        self.max_inflight_per_worker = max_inflight_per_worker
        self.quotas = dict(quotas or {})
        self.default_quota = default_quota
        self.retry = retry or RetryPolicy()
        self.resilience = resilience
        self.integrity = integrity
        self.poll_interval = poll_interval
        self.shutdown_timeout = shutdown_timeout
        self._clock: Clock = clock
        self._mp_method = mp_context
        self.stats = ServeStats(integrity_enabled=integrity is not None)
        self.coalescer = Coalescer()
        self.latency = LatencyTracker()
        self._integrity: IntegrityController | None = (
            IntegrityController(integrity, config)
            if integrity is not None else None
        )
        self._last_kat = 0.0
        self._kat_slot = 0

        self._breakers: dict[int, CircuitBreaker] | None = None
        if resilience is not None and resilience.breaker_enabled:
            self._breakers = {
                slot: CircuitBreaker(
                    resilience, clock=clock,
                    on_open=self._count_breaker_open,
                )
                for slot in range(workers)
            }

        self._handles: list[WorkerHandle] = []
        self._requests: dict[int, _Pending] = {}
        self._ledger: dict[tuple[int, int], _Attempt] = {}
        self._queue: FairQueue[int] = FairQueue()
        self._tenant_pending: dict[str, int] = {}
        self._ids = itertools.count()
        self._stats_waiters: dict[int, tuple[asyncio.Future, dict]] = {}
        self._stats_tokens = itertools.count()

        self._loop: asyncio.AbstractEventLoop | None = None
        self._ctx: Any = None
        self._dispatch_event: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None
        self._watchdog: asyncio.Task | None = None
        self._collector: threading.Thread | None = None
        self._collector_stop = threading.Event()
        self._started = False
        self._closed = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "PoolService":
        """Spawn the worker fleet and the dispatcher/collector."""
        if self._started:
            raise ServeError("service already started")
        self._loop = asyncio.get_running_loop()
        method = self._mp_method or (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._ctx = multiprocessing.get_context(method)
        self._handles = [
            spawn_worker(self._ctx, slot, self.config)
            for slot in range(self.num_workers)
        ]
        self._dispatch_event = asyncio.Event()
        self._dispatcher = self._loop.create_task(self._dispatch_loop())
        self._collector_stop.clear()
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-serve-collector",
            daemon=True,
        )
        self._collector.start()
        self._started = True
        self._last_kat = self._clock()
        if self.resilience is not None or self.integrity is not None:
            self._ensure_watchdog()
        return self

    async def __aenter__(self) -> "PoolService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self, drain: bool = True) -> None:
        """Shut the service down.

        ``drain=True`` (default) first waits for every admitted
        request to complete or fail; ``drain=False`` fails queued and
        in-flight requests with :class:`~repro.errors.ServeError`
        promptly instead of waiting for them.  Worker/collector joins
        are bounded by ``shutdown_timeout``.
        """
        if not self._started or self._closed:
            self._closed = True
            return
        if drain:
            while self._requests:
                futures = [
                    p.future for p in self._requests.values()
                    if not p.future.done()
                ]
                if not futures:
                    break
                await asyncio.gather(*futures, return_exceptions=True)
        else:
            for req_id in list(self._requests):
                self._settle(req_id, "closed", lambda rid, p: ServeError(
                    "service closed before completion"
                ))
            for key in list(self._ledger):
                self._land(key)
        self._closed = True
        for task in (self._dispatcher, self._watchdog):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._dispatcher = None
        self._watchdog = None
        self._collector_stop.set()
        if self._collector is not None:
            self._collector.join(timeout=self.shutdown_timeout)
        for h in self._handles:
            if h.alive and h.process.is_alive():
                try:
                    h.send(None)
                except (ServeError, OSError, ValueError):
                    pass  # raced its death, or its inbox is torn down
        deadline = self._clock() + self.shutdown_timeout
        for h in self._handles:
            h.process.join(timeout=max(0.0, deadline - self._clock()))
            if h.process.is_alive():
                h.terminate()
                h.process.join(timeout=1.0)
            h.alive = False
            h.retire_inbox()
            h.retire_outbox()

    # -- submission -----------------------------------------------------

    def _quota(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)

    def _retry_after_hint(self) -> float:
        """A suggested wait (seconds) before resubmitting shed work.

        The configured floor, raised to the observed median service
        latency once the service has seen any completions -- a caller
        retrying sooner than a typical request takes would just be
        rejected again.
        """
        cfg = self.resilience
        base_ms = (
            cfg.retry_after_ms if cfg is not None else DEFAULT_RETRY_AFTER_MS
        )
        p50 = self.latency.quantile(0.5)
        if p50 is not None:
            base_ms = max(base_ms, p50)
        return base_ms / 1e3

    def _count_breaker_open(self) -> None:
        self.stats.breaker_opens += 1

    def _check_circuit(self) -> None:
        """Fast-fail when every healthy slot's breaker is open.

        Queueing behind a fleet that is known to be failing only turns
        the caller's wait into a deadline miss; a structured
        :class:`~repro.errors.CircuitOpenError` with the soonest
        half-open horizon lets it back off precisely instead.  With no
        healthy slot at all this defers to the quarantine/forced
        respawn machinery, which the breakers do not replace.
        """
        assert self._breakers is not None
        healthy = [h for h in self._handles if h.healthy]
        if not healthy:
            return
        if any(self._breakers[h.slot].available() for h in healthy):
            return
        self.stats.rejected_circuit += 1
        retry_after = min(
            self._breakers[h.slot].retry_after for h in healthy
        )
        raise CircuitOpenError(
            "every healthy worker's circuit breaker is open; retry in "
            f"{retry_after * 1e3:.0f} ms",
            retry_after=retry_after,
        )

    def _shed_for(self, tenant: str) -> bool:
        """Evict one queued lower-priority user request to admit ``tenant``.

        Victims are drawn from the lowest-priority tenant *strictly
        below* the arriving tenant's priority (ties never shed each
        other, so the default flat priorities shed nothing), newest
        queued item first -- its caller has the least sunk latency.
        Integrity probes are never victims: they are not user work.
        The evicted request fails with a structured
        :class:`~repro.errors.AdmissionError` carrying a retry-after
        hint.  Returns whether a slot was freed.
        """
        arriving = self._quota(tenant).priority
        while True:
            victims = [
                t for t in self._queue.tenants()
                if t != INTERNAL_TENANT
                and self._quota(t).priority < arriving
            ]
            if not victims:
                return False
            victim = min(victims, key=lambda t: self._quota(t).priority)
            req_id = self._queue.pop_tail(victim)
            if req_id is None:
                continue  # raced empty; recomputed victims drop it
            p = self._requests.get(req_id)
            if p is None or p.future.done():
                continue  # stale queue entry; keep looking
            self._settle(req_id, "shed", lambda rid, p: AdmissionError(
                f"request shed under overload: tenant {victim!r} "
                f"(priority {self._quota(victim).priority}) yielded its "
                f"newest queued request to tenant {tenant!r} (priority "
                f"{arriving}); back off and resubmit",
                queue_depth=len(self._requests),
                limit=self.queue_limit,
                retry_after=self._retry_after_hint(),
            ))
            return True

    async def submit(self, request: PoolRequest) -> PoolResponse:
        """Admit ``request`` and await its response.

        Raises :class:`~repro.errors.AdmissionError` when the shared
        queue is full (or, with shedding enabled, fails a queued
        lower-priority request instead),
        :class:`~repro.errors.QuotaExceededError` when the tenant is
        over quota, :class:`~repro.errors.CircuitOpenError` when every
        healthy worker's breaker is open,
        :class:`~repro.errors.DeadlineError` when the request's
        ``deadline_ms`` is missed (including already-expired at
        admission), :class:`~repro.errors.HedgeError` when every leg
        of a hedged request errored, and
        :class:`~repro.errors.WorkerFailure` when the request's retry
        budget is exhausted by worker crashes.
        """
        if not self._started or self._closed:
            raise ServeError("service is not running (start() it first)")
        assert self._loop is not None
        cfg = self.resilience
        tenant = request.tenant
        if tenant == INTERNAL_TENANT:
            raise ServeError(
                f"tenant {INTERNAL_TENANT!r} is reserved for service-"
                "internal integrity probes"
            )
        now = self._clock()
        if request.deadline_ms is not None:
            if request.deadline_ms <= 0:
                self.stats.deadline_misses += 1
                raise DeadlineError(
                    f"deadline of {request.deadline_ms:g} ms was already "
                    "expired at admission",
                    deadline_ms=request.deadline_ms,
                    elapsed_ms=0.0,
                    stage="admission",
                )
            self._ensure_watchdog()
        degraded: tuple[str, ...] = ()
        if (
            cfg is not None
            and cfg.degrade_at is not None
            and len(self._requests) >= cfg.degrade_at * self.queue_limit
        ):
            request, degraded = degrade_request(request)
            if degraded:
                self.stats.degraded += 1
        if (
            self.integrity is not None
            and self.integrity.fingerprint
            and not request.fingerprint
        ):
            # Service-managed: ask the worker to digest its result so
            # the reply can be re-verified on arrival.  Excluded from
            # geometry_key, so coalescing/caching behavior is untouched.
            request = _dc_replace(request, fingerprint=True)
        if self._breakers is not None:
            self._check_circuit()
        if len(self._requests) >= self.queue_limit:
            shed = (
                cfg is not None
                and cfg.shed_low_priority
                and self._shed_for(tenant)
            )
            if not shed:
                self.stats.rejected_queue_full += 1
                raise AdmissionError(
                    f"service queue is full ({self.queue_limit} pending); "
                    "backpressure -- retry after in-flight work drains",
                    queue_depth=len(self._requests),
                    limit=self.queue_limit,
                    retry_after=self._retry_after_hint(),
                )
        pending = self._tenant_pending.get(tenant, 0)
        quota = self._quota(tenant)
        if pending >= quota.max_pending:
            self.stats.rejected_quota += 1
            raise QuotaExceededError(
                f"tenant {tenant!r} is at its quota "
                f"({quota.max_pending} pending requests)",
                tenant=tenant,
                pending=pending,
                limit=quota.max_pending,
                retry_after=self._retry_after_hint(),
            )
        item = _Pending(
            request=request,
            future=self._loop.create_future(),
            key=geometry_key(request),
            submitted_at=now,
            deadline=(
                now + request.deadline_ms / 1e3
                if request.deadline_ms is not None else None
            ),
            degraded=degraded,
        )
        self._admit(item)
        self.stats.submitted += 1
        return await item.future

    def _admit(self, p: _Pending) -> None:
        """Queue ``p`` at its tenant's tail and wake the dispatcher."""
        req_id = next(self._ids)
        tenant = p.request.tenant
        self._requests[req_id] = p
        self._tenant_pending[tenant] = self._tenant_pending.get(tenant, 0) + 1
        self._queue.push(tenant, req_id)
        self._wake()

    # Convenience wrappers mirroring repro.ops.api -----------------------

    async def maxpool(
        self, x: np.ndarray, spec: PoolSpec, *, impl: str = "im2col",
        with_mask: bool = False, tenant: str = "default", **kw,
    ) -> PoolResponse:
        return await self.submit(PoolRequest(
            kind="maxpool", x=x, spec=spec, impl=impl,
            with_mask=with_mask, tenant=tenant, **kw,
        ))

    async def avgpool(
        self, x: np.ndarray, spec: PoolSpec, *, impl: str = "im2col",
        tenant: str = "default", **kw,
    ) -> PoolResponse:
        return await self.submit(PoolRequest(
            kind="avgpool", x=x, spec=spec, impl=impl, tenant=tenant, **kw,
        ))

    async def maxpool_backward(
        self, mask: np.ndarray, grad: np.ndarray, spec: PoolSpec,
        ih: int, iw: int, *, impl: str = "col2im",
        tenant: str = "default", **kw,
    ) -> PoolResponse:
        return await self.submit(PoolRequest(
            kind="maxpool_backward", x=grad, spec=spec, impl=impl,
            mask=mask, ih=ih, iw=iw, tenant=tenant, **kw,
        ))

    async def avgpool_backward(
        self, grad: np.ndarray, spec: PoolSpec, ih: int, iw: int, *,
        impl: str = "col2im", tenant: str = "default", **kw,
    ) -> PoolResponse:
        return await self.submit(PoolRequest(
            kind="avgpool_backward", x=grad, spec=spec, impl=impl,
            ih=ih, iw=iw, tenant=tenant, **kw,
        ))

    # -- placement and dispatch (event-loop thread) ------------------------

    def _wake(self) -> None:
        """Schedule a dispatcher pass."""
        if self._dispatch_event is not None:
            self._dispatch_event.set()

    async def _dispatch_loop(self) -> None:
        assert self._dispatch_event is not None
        while True:
            await self._dispatch_event.wait()
            self._dispatch_event.clear()
            self._pump()

    def _available(self, h: WorkerHandle) -> bool:
        """Whether placement may use ``h`` (health + breaker state)."""
        if not h.healthy:
            return False
        if self._breakers is None:
            return True
        return self._breakers[h.slot].available()

    def _pick(
        self,
        exclude: tuple[int, ...] = (),
        *,
        limit: int | None = None,
        first: int = 0,
    ) -> WorkerHandle | None:
        """The one placement rule: the least-loaded available worker
        outside ``exclude`` with fewer than ``limit`` legs in flight
        (default: the dispatch window), ties broken by slot order
        starting at ``first``; ``None`` when there is none."""
        limit = self.max_inflight_per_worker if limit is None else limit
        n = len(self._handles)
        return min(
            (
                h for h in self._handles
                if h.slot not in exclude
                and h.inflight < limit
                and self._available(h)
            ),
            key=lambda h: (h.inflight, (h.slot - first) % n),
            default=None,
        )

    def _launch(self, req_id: int, p: _Pending, h: WorkerHandle) -> None:
        """Send attempt ``p.dispatches`` of ``req_id`` to ``h`` and
        ledger it."""
        attempt = p.dispatches
        p.dispatches += 1
        self._ledger[(req_id, attempt)] = _Attempt(
            slot=h.slot, generation=h.generation, at=self._clock(),
        )
        h.inflight += 1
        if self._breakers is not None:
            self._breakers[h.slot].record_dispatch()
        try:
            h.send((MSG_RUN, req_id, attempt, p.request))
        except ServeError:
            # Died between liveness check and send; its death settles
            # this leg with everything else on that worker.
            pass

    def _land(self, key: tuple[int, int]) -> _Attempt | None:
        """Pop one leg off the ledger and release its window slot.

        The ledger is the only place a leg is recorded and this is the
        only place one is removed, so a worker's ``inflight`` is always
        the number of its legs on the ledger: every leg is charged to
        the generation it was sent to, and a generation's legs all
        land (reply or death) before its slot is respawned.
        """
        leg = self._ledger.pop(key, None)
        if leg is not None:
            self._handles[leg.slot].inflight -= 1
        return leg

    def _pump(self) -> None:
        """Move queued requests onto workers until saturation.

        A user request goes to its geometry's warm worker when that
        worker is available -- coalescing affinity ignores the
        dispatch window, since the warm worker's inbox serialises
        same-geometry work anyway -- else to :meth:`_pick`; with no
        worker free it goes back to its tenant's head and the pass
        ends.  A probe takes no affinity and must avoid its
        ``exclude`` slots; one that cannot be placed is *deferred*
        (requeued after the pass) rather than blocking the head of the
        queue, so a tie-break that must avoid two busy slots never
        wedges user traffic.  The watchdog re-wakes the dispatcher
        every interval, and ``probe_timeout_ms`` abandons a probe that
        stays unplaceable.
        """
        deferred: list[tuple[str, int]] = []
        while (popped := self._queue.pop()) is not None:
            tenant, req_id = popped
            p = self._requests.get(req_id)
            if p is None or p.future.done():
                continue
            now = self._clock()
            if p.deadline is not None and now >= p.deadline:
                self._expire(req_id, p, "queued", now)
                continue
            if p.verdict is not None:
                h = self._pick(p.exclude)
                if h is None:
                    deferred.append((tenant, req_id))
                    continue
            else:
                slot = self.coalescer.route(p.key)
                hit = slot is not None and self._available(
                    self._handles[slot])
                h = self._handles[slot] if hit else self._pick()
                if h is None:
                    self._queue.push_front(tenant, req_id)
                    break
                self.coalescer.bind(
                    p.key, h.slot, hit=hit and not p.dispatches)
                if not p.dispatches:
                    p.coalesced = hit
            self._launch(req_id, p, h)
        for tenant, req_id in reversed(deferred):
            self._queue.push_front(tenant, req_id)

    # -- watchdog (event-loop thread) -------------------------------------

    def _ensure_watchdog(self) -> None:
        """Start the watchdog task if it is not already running.

        Called from :meth:`start` when a :class:`ResilienceConfig` is
        supplied, and lazily from :meth:`submit` the first time a
        request carries a ``deadline_ms`` -- so a service using
        neither never pays for a periodic wakeup.
        """
        if self._watchdog is not None or self._loop is None or self._closed:
            return
        interval_ms = (
            self.resilience.watchdog_interval_ms
            if self.resilience is not None
            else DEFAULT_WATCHDOG_INTERVAL_MS
        )
        self._watchdog = self._loop.create_task(
            self._watchdog_loop(interval_ms / 1e3)
        )

    async def _watchdog_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            self._watchdog_tick()

    def _hedge_threshold(self) -> float | None:
        """The in-flight age (ms) past which a request is hedged.

        The configured ``hedge_after_ms`` when set; otherwise the
        observed ``hedge_quantile`` latency once ``hedge_min_samples``
        completions have been seen (``None`` until then -- hedging off
        the first few samples would chase noise).
        """
        cfg = self.resilience
        if cfg is None or not cfg.hedge_enabled:
            return None
        if cfg.hedge_after_ms is not None:
            return cfg.hedge_after_ms
        if len(self.latency) < cfg.hedge_min_samples:
            return None
        return self.latency.quantile(cfg.hedge_quantile or 0.99)

    def _hedge(self, req_id: int, p: _Pending, slot: int) -> None:
        """Speculatively re-dispatch ``req_id`` off ``slot``, where its
        only leg is running.

        At most one hedge per request; no free worker simply means
        "try again next tick".  First reply wins; the loser lands on
        the ledger as a stale reply.
        """
        h = self._pick((slot,))
        if h is None:
            return
        p.hedge_attempt = p.dispatches
        self.stats.hedges += 1
        self._launch(req_id, p, h)

    def _declare_stalled(self, handle: WorkerHandle) -> None:
        """Terminate a live worker whose in-flight work aged out.

        The remedy is deliberately the *existing* death machinery:
        terminating the process makes the collector's liveness scan
        report it dead, which retries its in-flight requests,
        quarantines the slot if it keeps failing and respawns it --
        the stall just could not be *detected* by liveness alone.
        ``suspected_stalled`` keeps the slot out of placement (and out
        of repeat terminations) until the respawn replaces the handle.
        """
        self.stats.stalls_detected += 1
        handle.suspected_stalled = True
        handle.terminate()

    def _watchdog_tick(self) -> None:
        """One scan: deadlines, stalls, KAT cadence, hedges."""
        if self._closed:
            return
        now = self._clock()
        cfg = self.resilience
        legs: defaultdict[int, list[_Attempt]] = defaultdict(list)
        for (req_id, _), leg in self._ledger.items():
            legs[req_id].append(leg)

        for req_id, p in list(self._requests.items()):
            if p.deadline is not None and now >= p.deadline:
                stage = "in-flight" if legs[req_id] else "queued"
                self._expire(req_id, p, stage, now)

        if cfg is not None and cfg.stall_timeout_ms is not None:
            limit = cfg.stall_timeout_ms / 1e3
            for leg in list(self._ledger.values()):
                h = self._handles[leg.slot]
                if (
                    now - leg.at >= limit
                    and h.alive
                    and not h.suspected_stalled
                ):
                    self._declare_stalled(h)

        icfg = self.integrity
        if (
            icfg is not None
            and icfg.kat_enabled
            and now - self._last_kat >= icfg.kat_interval_ms / 1e3
        ):
            self._last_kat = now
            self._launch_kat()

        threshold = self._hedge_threshold()
        if threshold is not None:
            for req_id, p in list(self._requests.items()):
                out = legs[req_id]
                if (
                    p.verdict is None
                    and p.hedge_attempt is None
                    and len(out) == 1
                    and (now - out[0].at) * 1e3 >= threshold
                ):
                    self._hedge(req_id, p, out[0].slot)

        self._wake()

    # -- collector (background thread) -----------------------------------

    def _drain_ready(self, handles: list[WorkerHandle]) -> None:
        """Post every reply already sitting in the given reply queues."""
        readers = {h.outbox._reader: h for h in handles}
        try:
            ready = mp_connection.wait(
                list(readers), timeout=self.poll_interval
            )
        except OSError:  # a pipe torn down mid-wait (respawn race)
            return
        for r in ready:
            try:
                msg = readers[r].outbox.get()
            except (EOFError, OSError):
                continue
            self._post(self._on_message, msg)

    def _collect_loop(self) -> None:
        """Pull results off the reply queues and watch worker liveness.

        Reply queues are per worker; the collector re-snapshots the
        handle list every iteration so a respawn (which replaces the
        slot's handle, retiring inbox and reply queue with the dead
        body) is picked up on the next pass.  Replies are drained
        *before* the liveness scan so a result that reached the pipe
        just ahead of its worker's death still completes the request.
        """
        while not self._collector_stop.is_set():
            handles = list(self._handles)
            self._drain_ready(handles)
            for h in handles:
                if h.alive and not h.process.is_alive():
                    self._post(self._on_worker_death, h.slot, h.generation)
        # Final sweep so results racing shutdown still complete.
        for h in list(self._handles):
            try:
                while h.outbox._reader.poll():
                    self._post(self._on_message, h.outbox.get())
            except (EOFError, OSError, ValueError):
                continue

    def _post(self, fn, *args) -> None:
        assert self._loop is not None
        try:
            self._loop.call_soon_threadsafe(fn, *args)
        except RuntimeError:  # loop already closed during shutdown
            pass

    # -- attempt outcomes (event-loop thread) ------------------------------

    def _finish(self, req_id: int, p: _Pending) -> None:
        del self._requests[req_id]
        tenant = p.request.tenant
        left = self._tenant_pending.get(tenant, 1) - 1
        if left > 0:
            self._tenant_pending[tenant] = left
        else:
            self._tenant_pending.pop(tenant, None)

    def _settle(
        self,
        req_id: int,
        outcome: str,
        error: Callable[[int, _Pending], Exception] | None = None,
        *,
        note: str | None = None,
        reply: tuple = (),
    ) -> None:
        """Decide what ``outcome`` means for ``req_id``: the service's
        only wait / requeue / resolve decision.

        * A leg failure (see ``_LEG_FAILURES``) charges the retry
          budget when retried (``note`` joins the request's error
          list), then: another leg still out -> wait for it; retried
          and budget left -> requeue at the tenant's head; otherwise
          resolve.
        * Any other outcome resolves at once.  Legs still out stay on
          the ledger until their reply or death.

        Resolving completes ``ok`` (``reply`` is ``(slot, attempt,
        result, wire_fp, fp)``), fails a user request with
        ``error(req_id, p)``, and abandons a probe quietly (running its
        verdict if ``ok``).  An outcome for a request that is already
        resolved (a hedge loser, a post-deadline straggler) is a no-op.
        """
        p = self._requests.get(req_id)
        if p is None or p.future.done():
            return
        probe = p.verdict is not None
        if outcome in _LEG_FAILURES:
            retried = probe or _LEG_FAILURES[outcome]
            if retried:
                p.failures += 1
            if note is not None:
                p.errors.append(note)
            if any(rid == req_id for rid, _ in self._ledger):
                return
            if retried and p.failures < self.retry.max_attempts:
                if not probe:
                    self.stats.retries += 1
                self._queue.push_front(p.request.tenant, req_id)
                return
        self._finish(req_id, p)
        if probe:
            p.future.set_result(None)
            if outcome == "ok":
                p.verdict(reply[0], reply[-1])
        elif outcome == "ok":
            self._respond(req_id, p, *reply)
        else:
            assert error is not None
            self.stats.failed += 1
            if outcome == "expired":
                self.stats.deadline_misses += 1
            elif outcome == "shed":
                self.stats.shed += 1
            p.future.set_exception(error(req_id, p))

    def _respond(
        self,
        req_id: int,
        p: _Pending,
        slot: int,
        attempt: int,
        result: Any,
        wire_fp: int | None,
        fp: int | None,
    ) -> None:
        """Complete user request ``req_id`` and, if sampled, audit it."""
        now = self._clock()
        self.stats.completed += 1
        if attempt == p.hedge_attempt:
            self.stats.hedge_wins += 1
        self.latency.observe((now - p.submitted_at) * 1e3)
        audited = (
            self._integrity is not None
            and self._integrity.should_audit(req_id)
        )
        p.future.set_result(PoolResponse(
            request_id=req_id,
            tenant=p.request.tenant,
            worker=slot,
            attempts=p.dispatches,
            coalesced=p.coalesced,
            result=result,
            submitted_at=p.submitted_at,
            completed_at=now,
            hedged=p.hedge_attempt is not None,
            degraded=p.degraded,
            fingerprint=wire_fp,
            fingerprint_ok=True if fp is not None else None,
            audited=audited,
        ))
        if audited:
            rec = AuditRecord(
                origin_id=req_id,
                request=audit_twin(p.request),
                slots=(slot,),
                fingerprints=(
                    fp if fp is not None
                    else self._integrity.fingerprint(result),
                ),
            )
            self._spawn_probe(
                rec.request, partial(self._audit_verdict, rec),
                exclude=(slot,),
            )

    def _exhausted(self, req_id: int, p: _Pending) -> str:
        return (
            f"request {req_id} ({p.request.kind}/{p.request.impl}) "
            f"exhausted its retry budget of {self.retry.max_attempts} "
            "attempts; "
        )

    def _expire(
        self, req_id: int, p: _Pending, stage: str, now: float
    ) -> None:
        """Settle a missed deadline: a user request fails with a
        structured :class:`~repro.errors.DeadlineError`; a probe (whose
        deadline is ``probe_timeout_ms``) is abandoned, so a saturated
        fleet cannot hold drain hostage to an audit."""
        elapsed_ms = (now - p.submitted_at) * 1e3
        self._settle(req_id, "expired", lambda rid, p: DeadlineError(
            f"request {rid} missed its "
            f"{p.request.deadline_ms:g} ms deadline "
            f"({stage}; {elapsed_ms:.1f} ms elapsed)",
            deadline_ms=p.request.deadline_ms,
            elapsed_ms=elapsed_ms,
            stage=stage,
        ))

    def _on_message(self, msg: tuple) -> None:
        """One collector-posted message: a cache-stats snapshot or one
        leg's reply."""
        tag, key, worker_id, *payload = msg
        if tag == MSG_STATS:
            waiter = self._stats_waiters.get(key)
            if waiter is not None:
                fut, acc = waiter
                acc[worker_id] = payload[0]
                if len(acc) >= sum(1 for h in self._handles if h.alive):
                    if not fut.done():
                        fut.set_result(dict(acc))
                    del self._stats_waiters[key]
        else:
            self._on_reply(tag, key, worker_id, *payload)
        self._wake()

    def _on_reply(
        self, tag: str, req_id: int, worker_id: int, attempt: int, *payload
    ) -> None:
        """Land a leg's reply, verify it, and settle its request.

        Service-side fingerprint re-verification re-digests the
        unpickled payload and compares it with the digest the worker
        took before the payload crossed the process boundary.  It runs
        even for stale replies, and a corrupt reply feeds the breaker
        as a *failure*: the corruption indicts the worker whether or
        not its request still exists.
        """
        leg = self._land((req_id, attempt))
        fp: int | None = None
        if tag == "ok":
            result, wire_fp = payload
            if self._integrity is not None and wire_fp is not None:
                fp = self._integrity.fingerprint(result)
            outcome = "corrupt" if fp is not None and fp != wire_fp else "ok"
        else:
            outcome = "err"
        if leg is not None:
            self._handles[leg.slot].served += 1
            if self._breakers is not None:
                br = self._breakers[leg.slot]
                if outcome == "ok":
                    br.record_success()
                else:
                    br.record_failure()
        if outcome == "corrupt":
            self.stats.fingerprint_failures += 1
            self._quarantine(worker_id, corrupt=True)
        if leg is None:
            return  # superseded: its worker's death already settled it
        if outcome == "ok":
            self._settle(
                req_id, "ok", reply=(worker_id, attempt, result, wire_fp, fp))
        elif outcome == "corrupt":
            self._settle(
                req_id, "corrupt",
                lambda rid, p: IntegrityError(
                    self._exhausted(rid, p) + "every reply failed "
                    "fingerprint verification (payload corruption "
                    "between worker and service)",
                    slot=worker_id,
                    request=p.request,
                    divergence=(
                        f"worker fingerprint {wire_fp:#010x} != "
                        f"service-side {fp:#010x}"
                    ),
                ),
                note=(
                    f"worker {worker_id} reply failed fingerprint "
                    f"verification (worker {wire_fp:#010x} != service "
                    f"{fp:#010x})"
                ),
            )
        else:
            etype, message = payload
            self._settle(
                req_id, "err",
                lambda rid, p: HedgeError(
                    f"every leg of hedged request {rid} failed: "
                    + "; ".join(p.errors)
                ) if len(p.errors) > 1 else ServeError(p.errors[0]),
                note=(
                    f"worker {worker_id} rejected request: {etype}: "
                    f"{message}"
                ),
            )

    def _on_worker_death(self, slot: int, generation: int) -> None:
        handle = self._handles[slot]
        if not handle.alive or handle.generation != generation:
            return  # already handled (or a stale report for an old body)
        handle.alive = False
        self.stats.worker_failures += 1
        exitcode = handle.process.exitcode
        handle.retire_inbox()  # nobody will read it; see retire_inbox
        self.coalescer.forget_worker(slot)
        if self._breakers is not None:
            self._breakers[slot].record_failure()
        # Settle everything the dead body still owed a reply.
        for key in [
            k for k, leg in self._ledger.items()
            if leg.slot == slot and leg.generation == generation
        ]:
            self._land(key)
            self._settle(key[0], "died", lambda rid, p: WorkerFailure(
                self._exhausted(rid, p) + f"last worker slot {slot} died "
                f"(exit code {exitcode})"
            ))
        self._quarantine(slot)
        self._wake()

    def _respawn(self, slot: int) -> None:
        old = self._handles[slot]
        self._handles[slot] = spawn_worker(
            self._ctx, slot, self.config,
            generation=old.generation + 1,
        )
        self._handles[slot].failures = old.failures
        self._handles[slot].quarantined = old.quarantined
        self.stats.respawns += 1

    def _quarantine(
        self,
        slot: int,
        *,
        corrupt: bool = False,
        conviction: IntegrityError | None = None,
    ) -> None:
        """Charge one failure against ``slot``: the one quarantine rule
        for crashes, stalls, corrupt payloads and convictions.

        At ``retry.quarantine_after`` failures the slot is quarantined
        (out of placement and respawn, unbound from the coalescer); a
        dead slot that is not quarantined respawns.  A ``conviction``
        charges the whole threshold at once, is recorded, and
        terminates the body: its in-flight user work would otherwise
        complete with wrong bytes that *pass* fingerprint verification
        (a corrupt core faithfully digests its own wrong answer), so
        killing it routes that work through the death path -- requeued
        on healthy workers -- instead.  If no slot is left healthy, the
        least-failed one is released (and respawned if dead) anyway --
        degraded but still making progress, exactly like the chip
        dispatcher's all-quarantined placement rule.
        """
        h = self._handles[slot]
        threshold = self.retry.quarantine_after
        if conviction is None:
            h.failures += 1
        else:
            assert self._integrity is not None
            self._integrity.record(conviction)
            h.failures = max(h.failures, threshold)
        if h.failures >= threshold and not h.quarantined:
            h.quarantined = True
            if slot not in self.stats.quarantined:
                self.stats.quarantined = self.stats.quarantined + (slot,)
            if corrupt or conviction is not None:
                self.stats.corrupt_workers_quarantined += 1
            self.coalescer.forget_worker(slot)
        if conviction is not None and h.alive:
            h.terminate()
        if self._closed:
            return  # a reply racing shutdown respawns nothing
        if not h.alive and not h.quarantined:
            self._respawn(slot)
        if not any(h.healthy for h in self._handles):
            best = min(self._handles, key=lambda h: (h.failures, h.slot))
            best.quarantined = False
            self.stats.forced_respawns += 1
            if not best.alive:
                self._respawn(best.slot)

    # -- integrity probes (event-loop thread) ------------------------------

    @property
    def integrity_errors(self) -> list[IntegrityError]:
        """Recorded integrity incidents (bounded; empty when off)."""
        return self._integrity.errors if self._integrity is not None else []

    def _spawn_probe(
        self,
        request: PoolRequest,
        verdict: Callable[[int, int], None],
        exclude: tuple[int, ...] = (),
    ) -> None:
        """Admit a service-internal execution (audit leg, tie-break,
        KAT probe) under the reserved tenant, bounded by
        ``probe_timeout_ms`` instead of a user deadline."""
        if self._closed or self._loop is None or self.integrity is None:
            return
        now = self._clock()
        self._admit(_Pending(
            request=request,
            future=self._loop.create_future(),
            key=geometry_key(request),
            submitted_at=now,
            deadline=now + self.integrity.probe_timeout_ms / 1e3,
            verdict=verdict,
            exclude=tuple(exclude),
        ))

    def _launch_kat(self) -> None:
        """Queue the next known-answer probe for an idle worker.

        Probes rotate over the fleet (``_kat_slot``) and only target
        *idle* available workers -- a KAT must never add latency to a
        slot with user work in flight; a fully busy fleet simply skips
        this cadence tick (its work is being audited anyway).
        """
        assert self._integrity is not None
        h = self._pick(limit=1, first=self._kat_slot)
        if h is None:
            return
        n = len(self._handles)
        self._kat_slot = (h.slot + 1) % n
        idx, req = self._integrity.next_kat()
        self._spawn_probe(
            req, partial(self._kat_verdict, idx, req),
            exclude=tuple(s for s in range(n) if s != h.slot),
        )

    def _kat_verdict(
        self, idx: int, request: PoolRequest, slot: int, fp: int
    ) -> None:
        """A known-answer probe replied: the golden answer is the judge."""
        assert self._integrity is not None
        self.stats.kat_probes += 1
        golden = self._integrity.golden(idx)
        if fp != golden:
            self._quarantine(slot, conviction=IntegrityError(
                f"known-answer probe diverged on worker slot "
                f"{slot}: the slot is computing wrong bytes",
                slot=slot,
                request=request,
                divergence=(
                    f"probe fingerprint {fp:#010x} != golden "
                    f"{golden:#010x} (KAT geometry {idx})"
                ),
            ))

    def _audit_verdict(self, rec: AuditRecord, slot: int, fp: int) -> None:
        """An audit leg replied: a bit-exact match is clean; a mismatch
        queues a tie-break on a third worker."""
        self.stats.audits_run += 1
        if fp == rec.fingerprints[0]:
            return
        self.stats.audit_mismatches += 1
        tie = AuditRecord(
            origin_id=rec.origin_id,
            request=rec.request,
            slots=rec.slots + (slot,),
            fingerprints=rec.fingerprints + (fp,),
            stage="tiebreak",
        )
        self._spawn_probe(
            rec.request, partial(self._tiebreak_verdict, tie),
            exclude=tie.slots,
        )

    def _tiebreak_verdict(
        self, rec: AuditRecord, slot: int, fp: int
    ) -> None:
        """A tie-break replied: convict the slot two workers agree
        against, or record an incident with no majority."""
        assert self._integrity is not None
        (slot_a, slot_b), (fp_a, fp_b) = rec.slots, rec.fingerprints
        divergence = (
            f"fingerprints: slot {slot_a}={fp_a:#010x}, slot "
            f"{slot_b}={fp_b:#010x}, tie-break slot "
            f"{slot}={fp:#010x}"
        )
        if fp == fp_a and fp != fp_b:
            bad = slot_b
        elif fp == fp_b and fp != fp_a:
            bad = slot_a
        else:
            # Three distinct answers (or the tie-break agreed with
            # both, impossible for differing fps): no majority --
            # record the incident without convicting anyone.
            self._integrity.record(IntegrityError(
                f"audit tie-break of request {rec.origin_id} "
                "reached no majority; slots "
                f"{slot_a}/{slot_b}/{slot} all disagree",
                slot=None,
                request=rec.request,
                divergence=divergence,
            ))
            return
        self._quarantine(bad, conviction=IntegrityError(
            f"dual-execution audit of request {rec.origin_id} "
            f"convicted worker slot {bad} (two independent "
            "workers agree against it)",
            slot=bad,
            request=rec.request,
            divergence=divergence,
        ))

    # -- observability ---------------------------------------------------

    @property
    def workers(self) -> tuple[WorkerHandle, ...]:
        """Live view of the worker slots (read-only use)."""
        return tuple(self._handles)

    @property
    def breakers(self) -> dict[int, CircuitBreaker] | None:
        """Per-slot circuit breakers (``None`` unless enabled)."""
        return self._breakers

    def backlog(self) -> tuple[int, int]:
        """``(requests, legs)``: admitted requests not yet resolved
        (integrity probes included) and dispatched legs still awaiting
        a reply or their worker's death (hedge losers and the legs of
        deadline-failed requests included).  ``(0, 0)`` once idle."""
        return len(self._requests), len(self._ledger)

    def crash_worker(self, slot: int) -> None:
        """Chaos hook: order worker ``slot`` to die (``os._exit``).

        The process-level analogue of injecting a
        :class:`~repro.sim.faults.Crash`; recovery is observable in
        :attr:`stats` (worker_failures/retries/respawns/quarantined).
        """
        self._handles[slot].send((MSG_CRASH,))

    async def worker_cache_stats(
        self, timeout: float = 5.0
    ) -> dict[int, dict[str, int]]:
        """Each live worker's program-cache counters, keyed by slot.

        The worker-side evidence of coalescing: a worker repeatedly
        served the same geometry shows cache hits (and ``jit_hits``
        under ``execute="jit"``) instead of fresh lowering.
        """
        if not self._started or self._closed:
            raise ServeError("service is not running")
        assert self._loop is not None
        token = next(self._stats_tokens)
        fut: asyncio.Future = self._loop.create_future()
        self._stats_waiters[token] = (fut, {})
        for h in self._handles:
            if h.alive:
                h.send((MSG_STATS, token))
        try:
            return await asyncio.wait_for(fut, timeout)
        finally:
            self._stats_waiters.pop(token, None)


async def serve_burst(
    service: PoolService, requests: list[PoolRequest]
) -> list[PoolResponse]:
    """Submit ``requests`` concurrently and await all responses.

    Submissions that lose to admission control/quotas propagate their
    exceptions; this helper is the canonical way benches and tests
    drive a mixed-tenant burst through the service.
    """
    return list(await asyncio.gather(
        *(service.submit(r) for r in requests)
    ))
