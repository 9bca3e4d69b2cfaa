"""Seeded interleavings of the :class:`PoolService` attempt lifecycle.

No worker processes: ``spawn_worker`` is monkeypatched to hand the
service real :class:`WorkerHandle` objects whose *process* is a
liveness flag, whose *inbox* records what the service sent, and whose
*outbox* is a ``multiprocessing.SimpleQueue`` written from this
process -- so the collector thread, the dispatcher and the watchdog
all run unchanged, on an injected clock.  The test plays the workers:
it decides which dispatched leg replies next, and how.

Each seed scripts a random sequence of events -- submissions (some
with deadlines), replies (ok, corrupt payload, corrupt core, worker
error), worker deaths, clock jumps past the hedge / deadline / stall
thresholds, high-priority arrivals that may shed, and an optional
early ``close`` -- then drives the fleet idle and checks the
lifecycle invariants:

* every admitted future resolves exactly once: no
  ``InvalidStateError`` (or any other error) reaches the loop's
  exception handler, every submission finishes, and
  ``submitted == completed + failed``;
* a worker's window count is never negative and always equals the
  legs the service still awaits from exactly that worker generation,
  so no reply is ever charged to the wrong generation;
* a request runs two legs at once only for its one hedge: a failed
  leg waits for the other leg still out instead of requeueing;
* the attempt ledger is empty once the service is idle.

A failing seed prints its service configuration and the event script
it ran.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import random
from collections import Counter

import pytest

from repro.errors import AdmissionError
from repro.ops import PoolSpec
from repro.serve import (
    IntegrityConfig,
    PoolRequest,
    PoolService,
    ResilienceConfig,
    TenantQuota,
    WorkerHandle,
    execute_request,
)
from repro.serve import service as service_module
from repro.serve.workers import CRASH_EXIT_CODE, MSG_RUN
from repro.sim import RetryPolicy
from repro.sim.fingerprint import fingerprint_result
from repro.workloads import make_input

SEEDS = range(60)
#: Hang guard per test (seconds); a seed takes well under one.
TIMEOUT = 30.0
EVENTS_PER_SEED = 36
#: Real-time watchdog period; clock jumps wait a few of these.
WATCHDOG_MS = 1.0
#: Thresholds on the injected clock (milliseconds).
HEDGE_MS = 200.0
DEADLINE_MS = 300.0
STALL_MS = 500.0
QUOTAS = {
    "gold": TenantQuota(priority=10),
    "bronze": TenantQuota(priority=0),
}
SPEC = PoolSpec.square(2, 2)
#: Five geometries, so placement sees both affinity hits and fresh
#: keys that must queue for a free window slot.
SIDES = (8, 9, 10, 11, 12)

_results: dict = {}


def _request(side: int, **kw) -> PoolRequest:
    return PoolRequest(
        kind="maxpool", x=make_input(side, side, 16, seed=side), spec=SPEC,
        **kw,
    )


def _result(request: PoolRequest):
    """The true detached result of ``request``, memoized by payload."""
    key = (request.kind, request.spec, request.x.shape, request.x.tobytes())
    if key not in _results:
        _results[key] = execute_request(request).detach()
    return _results[key]


#: What a corrupt core answers: self-consistent, but the wrong bytes.
WRONG = _request(6)


class FakeProcess:
    """A worker body reduced to its liveness."""

    def __init__(self) -> None:
        self.exitcode: int | None = None

    def is_alive(self) -> bool:
        return self.exitcode is None

    def terminate(self) -> None:
        if self.exitcode is None:
            self.exitcode = -15

    def join(self, timeout: float | None = None) -> None:
        pass


class FakeInbox:
    """Records the service's messages; ``runs`` are legs not yet
    answered, ``replied`` counts the answers sent."""

    def __init__(self, fleet: "Fleet") -> None:
        self.fleet = fleet
        self.runs: list[tuple] = []
        self.replied = 0

    def put(self, msg) -> None:
        if msg is not None and msg[0] == MSG_RUN:
            self.fleet.note_dispatch(msg[1])
            self.runs.append(msg)

    def cancel_join_thread(self) -> None:
        pass

    def close(self) -> None:
        pass


class Fleet:
    """Every handle the service spawned, and the test's worker role."""

    def __init__(self) -> None:
        self.handles: list[WorkerHandle] = []
        #: Request id -> legs dispatched while another of its legs was
        #: still out.  Only a request's one hedge may do that.
        self.overlaps: Counter[int] = Counter()

    def note_dispatch(self, req_id: int) -> None:
        if any(
            run[1] == req_id
            for h in self.handles if h.alive
            for run in h.inbox.runs
        ):
            self.overlaps[req_id] += 1

    def spawn(self, ctx, slot, config, generation=0) -> WorkerHandle:
        h = WorkerHandle(
            slot=slot, process=FakeProcess(), inbox=FakeInbox(self),
            outbox=multiprocessing.SimpleQueue(), generation=generation,
        )
        self.handles.append(h)
        return h

    def repliers(self) -> list[WorkerHandle]:
        """Live bodies with at least one leg to answer."""
        return [
            h for h in self.handles
            if h.process.is_alive() and h.inbox.runs
        ]

    def reply(self, h: WorkerHandle, kind: str, index: int) -> str:
        """Answer ``h``'s ``index``-th open leg with ``kind``."""
        _, req_id, attempt, request = h.inbox.runs.pop(index)
        if kind == "err":
            msg = ("err", req_id, h.slot, attempt, "PlanError", "scripted")
        else:
            result = _result(WRONG if kind == "badcore" else request)
            fp = fingerprint_result(result) if request.fingerprint else None
            if kind == "corrupt" and fp is not None:
                fp ^= 1
            msg = ("ok", req_id, h.slot, attempt, result, fp)
        h.inbox.replied += 1
        h.outbox.put(msg)
        return f"{kind} slot{h.slot}/gen{h.generation} req{req_id}/a{attempt}"

    def quiet(self) -> bool:
        """The service has consumed every reply and every death.

        A live worker's replies all land on its ledger legs, so each
        one bumps ``served``; a dead worker's unread replies are stale
        and change nothing.
        """
        return all(
            h.served == h.inbox.replied and h.process.is_alive()
            for h in self.handles if h.alive
        )


@pytest.fixture
def fleet(monkeypatch) -> Fleet:
    f = Fleet()
    monkeypatch.setattr(service_module, "spawn_worker", f.spawn)
    return f


def _config(rng: random.Random) -> dict:
    """A random service configuration for one seed."""
    workers = rng.choice((1, 2, 2, 3))
    integrity = None
    if rng.random() < 0.6:
        integrity = IntegrityConfig(
            audit_rate=rng.choice((0.0, 0.5, 1.0)) if workers > 1 else 0.0,
            kat_interval_ms=rng.choice((None, 300.0)),
            probe_timeout_ms=2000.0,
        )
    return dict(
        workers=workers,
        queue_limit=rng.choice((3, 4, 6)),
        max_inflight_per_worker=rng.choice((1, 2)),
        quotas=QUOTAS,
        retry=RetryPolicy(
            max_attempts=rng.choice((1, 2, 3)),
            quarantine_after=rng.choice((2, 3, 100)),
        ),
        resilience=ResilienceConfig(
            stall_timeout_ms=rng.choice((None, STALL_MS)),
            hedge_after_ms=rng.choice((None, HEDGE_MS)),
            watchdog_interval_ms=WATCHDOG_MS,
            shed_low_priority=True,
            breaker_failure_threshold=rng.choice((None, 0.5)),
            breaker_min_volume=2,
            breaker_open_ms=400.0,
        ),
        integrity=integrity,
        poll_interval=0.001,
    )


EVENTS = (
    ["submit"] * 5 + ["gold"] * 4
    + ["ok"] * 5 + ["corrupt", "badcore", "err"]
    + ["death", "hedge", "deadline", "stall"]
)


class Harness:
    """One seed's service, clock, script log and invariant checks."""

    def __init__(
        self, seed: int, fleet: Fleet, config: dict | None = None
    ) -> None:
        self.rng = random.Random(seed)
        self.fleet = fleet
        self.now = 1000.0
        self.config = config or _config(self.rng)
        self.svc = PoolService(clock=lambda: self.now, **self.config)
        self.tasks: list[asyncio.Future] = []
        self.log: list[str] = []
        self.loop_errors: list[dict] = []
        self.closed = False

    def fail(self, why: str) -> None:
        script = "\n  ".join(self.log)
        pytest.fail(
            f"{why}\nconfig: {self.config}\nscript:\n  {script}",
            pytrace=False,
        )

    async def settle(self) -> None:
        """Wait until the service has consumed every reply and death
        and its dispatcher has caught up."""
        for _ in range(5000):
            await asyncio.sleep(0.0002)
            if self.fleet.quiet():
                for _ in range(4):
                    await asyncio.sleep(0)
                if self.fleet.quiet():
                    return
        self.fail("the service never consumed the fleet's replies")

    async def advance(self, ms: float) -> None:
        self.now += ms / 1e3
        await asyncio.sleep(4 * WATCHDOG_MS / 1e3)
        await self.settle()

    def check(self) -> None:
        if self.closed:
            return
        for h in self.fleet.handles:
            expected = len(h.inbox.runs) if h.alive else 0
            if h.inflight != expected:
                self.fail(
                    f"slot {h.slot} generation {h.generation}: window "
                    f"count {h.inflight}, but {expected} legs are out"
                )
            if h.served > h.inbox.replied:
                self.fail(f"slot {h.slot} generation {h.generation} "
                          "was charged a reply it never sent")
        for req_id, n in self.fleet.overlaps.items():
            if n > 1:
                self.fail(f"request {req_id} was dispatched {n} times "
                          "while another of its legs was still out")
        legs = sum(h.inflight for h in self.svc.workers)
        if legs != self.svc.backlog()[1]:
            self.fail(f"{self.svc.backlog()[1]} ledger legs but "
                      f"{legs} window slots in use")

    def submit(self, tenant: str, side: int | None = None,
               deadline: float | None = None) -> None:
        if side is None:
            side = self.rng.choice(SIDES)
            deadline = self.rng.choice((None, None, None, DEADLINE_MS))
        self.tasks.append(asyncio.ensure_future(self.svc.submit(
            _request(side, tenant=tenant, deadline_ms=deadline))))
        self.log.append(f"submit {tenant} side={side} deadline={deadline}")

    async def step(self, event: str) -> None:
        if event in ("submit", "gold"):
            self.submit("gold" if event == "gold" else self.rng.choice(
                ("bronze", "default")))
        elif event in ("ok", "corrupt", "badcore", "err"):
            repliers = self.fleet.repliers()
            if not repliers:
                return
            h = self.rng.choice(repliers)
            index = self.rng.randrange(len(h.inbox.runs))
            self.log.append(self.fleet.reply(h, event, index))
        elif event == "death":
            live = [h for h in self.fleet.handles if h.process.is_alive()]
            if not live:
                return
            h = self.rng.choice(live)
            h.process.exitcode = CRASH_EXIT_CODE
            self.log.append(f"death slot{h.slot}/gen{h.generation}")
        else:
            ms = {"hedge": HEDGE_MS, "deadline": DEADLINE_MS,
                  "stall": STALL_MS}[event] + 1.0
            self.log.append(f"{event}: clock +{ms:g} ms")
            await self.advance(ms)
            return
        await self.settle()

    async def drain(self) -> None:
        """Answer every leg correctly until the service is idle."""
        for _ in range(300):
            if self.svc.backlog() == (0, 0) and all(
                    t.done() for t in self.tasks):
                return
            repliers = self.fleet.repliers()
            for h in repliers:
                while h.inbox.runs:
                    self.fleet.reply(h, "ok", 0)
            if repliers:
                await self.settle()
            else:
                await self.advance(100.0)
        self.fail(f"never went idle: backlog {self.svc.backlog()}")

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _loop, ctx: self.loop_errors.append(ctx))
        # One seed in five closes without draining, mid-script.
        close_at = self.rng.choice(
            [None] * 4 + [self.rng.randrange(EVENTS_PER_SEED)])
        await self.svc.start()
        try:
            for i in range(EVENTS_PER_SEED):
                if i == close_at:
                    self.log.append("close (no drain)")
                    await self.svc.close(drain=False)
                    self.closed = True
                    break
                await self.step(self.rng.choice(EVENTS))
                self.check()
            if not self.closed:
                self.log.append("drain")
                await self.drain()
                self.check()
            outcomes = await asyncio.wait_for(asyncio.gather(
                *self.tasks, return_exceptions=True), 5.0)
            if self.svc.backlog() != (0, 0):
                self.fail(f"ledger not empty when idle: "
                          f"{self.svc.backlog()}")
            s = self.svc.stats
            if s.submitted != s.completed + s.failed:
                self.fail(f"submitted={s.submitted} != completed="
                          f"{s.completed} + failed={s.failed}")
            rejected = (s.rejected_queue_full + s.rejected_quota
                        + s.rejected_circuit)
            if len(outcomes) != s.submitted + rejected:
                self.fail(f"{len(outcomes)} submissions, but "
                          f"{s.submitted} admitted + {rejected} rejected")
            ok = sum(not isinstance(o, BaseException) for o in outcomes)
            if ok != s.completed:
                self.fail(f"{ok} responses for {s.completed} completions")
        finally:
            await self.svc.close(drain=False)
        if self.loop_errors:
            self.fail(f"errors reached the event loop: {self.loop_errors}")


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_interleaving(seed, fleet):
    asyncio.run(asyncio.wait_for(Harness(seed, fleet).run(), TIMEOUT))


def test_queued_probe_is_never_shed(fleet):
    """A full queue holding a deferred audit rejects a higher-priority
    arrival instead of shedding the audit as if it were user work."""
    async def body():
        h = Harness(0, fleet, dict(
            workers=2, max_inflight_per_worker=1, queue_limit=3,
            quotas=QUOTAS, poll_interval=0.001,
            resilience=ResilienceConfig(shed_low_priority=True),
            integrity=IntegrityConfig(audit_rate=1.0),
        ))
        svc = h.svc
        await svc.start()
        try:
            h.submit("bronze", side=8)    # slot 0
            h.submit("bronze", side=9)    # slot 1
            await h.settle()
            # Completing the first request queues its audit, which
            # must avoid slot 0 while slot 1 is busy: it is deferred.
            fleet.reply(fleet.handles[0], "ok", 0)
            await h.settle()
            h.submit("bronze", side=10)   # slot 0 again
            await h.settle()
            assert svc.backlog() == (3, 2)
            h.submit("gold", side=8)
            await h.settle()
            with pytest.raises(AdmissionError, match="queue is full"):
                h.tasks.pop().result()
            assert svc.stats.rejected_queue_full == 1
            assert svc.stats.shed == 0
            await h.drain()
            await asyncio.gather(*h.tasks)
            s = svc.stats
            assert s.submitted == s.completed + s.failed == 3
            assert s.audits_run == 3
        finally:
            await svc.close(drain=False)
    asyncio.run(asyncio.wait_for(body(), TIMEOUT))


def test_quarantining_the_last_live_slot_keeps_serving(fleet):
    """A corrupt reply that quarantines the only healthy slot releases
    it again -- degraded beats deadlocked -- instead of stranding the
    retried request in the queue."""
    async def body():
        h = Harness(0, fleet, dict(
            workers=1, poll_interval=0.001,
            retry=RetryPolicy(max_attempts=3, quarantine_after=1),
            integrity=IntegrityConfig(),
        ))
        svc = h.svc
        await svc.start()
        try:
            h.submit("bronze", side=8)
            await h.settle()
            fleet.reply(fleet.handles[0], "corrupt", 0)
            await h.settle()
            assert svc.stats.quarantined == (0,)
            await h.drain()
            res = await h.tasks[0]
            assert res.attempts == 2
            assert svc.stats.forced_respawns == 1
        finally:
            await svc.close(drain=False)
    asyncio.run(asyncio.wait_for(body(), TIMEOUT))


class _RaisingProcess(FakeProcess):
    def __init__(self, exc: BaseException) -> None:
        super().__init__()
        self.exc = exc

    def terminate(self) -> None:
        raise self.exc


@pytest.mark.parametrize("exc", [OSError("reaped"), ValueError("closed")])
def test_terminate_tolerates_a_body_already_gone(exc):
    handle = WorkerHandle(
        slot=0, process=_RaisingProcess(exc), inbox=None, outbox=None)
    handle.terminate()


def test_terminate_propagates_unexpected_errors():
    handle = WorkerHandle(
        slot=0, process=_RaisingProcess(RuntimeError("bug")), inbox=None,
        outbox=None)
    with pytest.raises(RuntimeError, match="bug"):
        handle.terminate()
