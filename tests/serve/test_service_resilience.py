"""PoolService resilience integration: deadlines, stalls, hedges,
breakers, shedding.

These drive real worker processes through the opt-in resilience
machinery.  Chaos knobs on :class:`PoolRequest` make each fault class
deterministic: ``chaos_stall_attempts`` hangs a worker alive (only the
watchdog can see it), ``chaos_drop_reply`` orphans a dispatch (only
hedging or the watchdog recovers it), ``chaos_slow_ms`` manufactures
tail latency.  Every ``await`` is wrapped in a generous timeout so a
service bug fails the test instead of hanging the suite.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    CircuitOpenError,
    DeadlineError,
    QuotaExceededError,
    ServeError,
)
from repro.ops import PoolSpec
from repro.serve import (
    PoolRequest,
    PoolService,
    ResilienceConfig,
    TenantQuota,
    execute_request,
)
from repro.sim import RetryPolicy
from repro.workloads import make_input

SPEC = PoolSpec.square(3, 2)
TIMEOUT = 60.0


def run(coro):
    """Drive one async test body with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def _x(seed=0, ih=16, iw=16, c=32):
    return make_input(ih, iw, c, seed=seed)


def _req(seed=0, **kw):
    return PoolRequest(kind="maxpool", x=_x(seed=seed), spec=SPEC, **kw)


# ---------------------------------------------------------------------------
# Deadlines: admission, queued, in-flight.
# ---------------------------------------------------------------------------

class TestDeadlines:
    def test_expired_at_admission(self):
        async def body():
            async with PoolService(workers=1) as svc:
                with pytest.raises(DeadlineError) as ei:
                    await svc.submit(_req(deadline_ms=0.0))
                assert ei.value.stage == "admission"
                assert svc.stats.deadline_misses == 1
                # Never admitted: no queue/ledger residue.
                assert svc.stats.submitted == 0
        run(body())

    def test_expired_while_queued(self):
        async def body():
            # One worker, window 1: a slow request holds the worker
            # while the deadlined request ages out in the queue.
            async with PoolService(
                workers=1, max_inflight_per_worker=1,
                resilience=ResilienceConfig(watchdog_interval_ms=20.0),
            ) as svc:
                slow = asyncio.ensure_future(
                    svc.submit(_req(seed=1, chaos_slow_ms=700.0)))
                await asyncio.sleep(0.05)  # let it dispatch
                with pytest.raises(DeadlineError) as ei:
                    # Different geometry (impl), so no coalescing
                    # affinity bypasses the saturated dispatch window.
                    await svc.submit(_req(
                        seed=2, impl="standard", deadline_ms=100.0))
                assert ei.value.stage == "queued"
                assert ei.value.elapsed_ms >= 100.0
                res = await slow
                assert res.output is not None
        run(body())

    def test_expired_in_flight(self):
        async def body():
            cfg = ResilienceConfig(
                stall_timeout_ms=30_000.0, watchdog_interval_ms=20.0)
            async with PoolService(workers=1, resilience=cfg) as svc:
                with pytest.raises(DeadlineError) as ei:
                    await svc.submit(_req(
                        deadline_ms=200.0,
                        chaos_stall_attempts=(0, 1, 2, 3)))
                assert ei.value.stage == "in-flight"
                await svc.close(drain=False)
        run(body())

    def test_deadline_met_is_invisible(self):
        async def body():
            async with PoolService(workers=1) as svc:
                res = await svc.submit(_req(deadline_ms=30_000.0))
                assert res.output is not None
                assert svc.stats.deadline_misses == 0
        run(body())


# ---------------------------------------------------------------------------
# Stall watchdog: hung-but-alive workers are terminated and recovered.
# ---------------------------------------------------------------------------

class TestStallWatchdog:
    def test_stalled_worker_is_recovered(self):
        async def body():
            cfg = ResilienceConfig(
                stall_timeout_ms=300.0, watchdog_interval_ms=30.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                res = await svc.submit(_req(chaos_stall_attempts=(0,)))
                assert res.attempts == 2
                assert svc.stats.stalls_detected == 1
                assert svc.stats.worker_failures == 1
                assert svc.stats.retries == 1
                assert svc.stats.respawns == 1
                # Byte-identity survives the stall recovery.
                direct = execute_request(_req())
                np.testing.assert_array_equal(res.output, direct.output)
        run(body())

    def test_reply_queues_are_private_per_worker(self):
        # The watchdog SIGTERMs hung workers; a process killed mid-put
        # dies holding its reply queue's write lock.  The queues must
        # therefore be per worker (and replaced on respawn) -- one
        # shared reply queue would let a single kill wedge the fleet.
        async def body():
            cfg = ResilienceConfig(
                stall_timeout_ms=500.0, watchdog_interval_ms=30.0)
            async with PoolService(workers=3, resilience=cfg) as svc:
                before = {h.slot: h.outbox for h in svc.workers}
                assert len(set(map(id, before.values()))) == 3
                res = await svc.submit(_req(chaos_stall_attempts=(0,)))
                assert res.attempts >= 2
                after = {h.slot: h.outbox for h in svc.workers}
                replaced = [
                    slot for slot in before
                    if after[slot] is not before[slot]
                ]
                # Every respawn (>= 1; a loaded host may age a retry
                # past the timeout too) replaced the slot's queue.
                assert len(replaced) == svc.stats.respawns >= 1
        run(body())

    def test_stall_counts_against_retry_budget(self):
        async def body():
            cfg = ResilienceConfig(
                stall_timeout_ms=200.0, watchdog_interval_ms=30.0)
            async with PoolService(
                workers=2, resilience=cfg,
                retry=RetryPolicy(max_attempts=2, quarantine_after=10),
            ) as svc:
                from repro.errors import WorkerFailure
                with pytest.raises(WorkerFailure):
                    await svc.submit(_req(chaos_stall_attempts=(0, 1)))
                assert svc.stats.stalls_detected == 2
        run(body())

    def test_dropped_reply_is_recovered_by_watchdog(self):
        async def body():
            cfg = ResilienceConfig(
                stall_timeout_ms=300.0, watchdog_interval_ms=30.0)
            async with PoolService(workers=1, resilience=cfg) as svc:
                # The worker executes but the reply vanishes: from the
                # service's view the dispatch aged out, so the watchdog
                # terminates the worker and the retry completes.
                res = await svc.submit(_req(chaos_drop_reply=(0,)))
                assert res.attempts == 2
                assert res.output is not None
        run(body())


# ---------------------------------------------------------------------------
# Hedged retries: first byte-identical reply wins, exactly once.
# ---------------------------------------------------------------------------

class TestHedging:
    def test_hedge_wins_over_dropped_reply(self):
        async def body():
            cfg = ResilienceConfig(
                hedge_after_ms=150.0, watchdog_interval_ms=30.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                res = await svc.submit(_req(chaos_drop_reply=(0,)))
                assert res.hedged
                assert res.attempts == 2
                assert svc.stats.hedges == 1
                assert svc.stats.hedge_wins == 1
                direct = execute_request(_req())
                np.testing.assert_array_equal(res.output, direct.output)
        run(body())

    def test_hedge_loser_is_discarded_exactly_once(self):
        async def body():
            cfg = ResilienceConfig(
                hedge_after_ms=100.0, watchdog_interval_ms=30.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                # Both legs eventually reply (the slow primary after
                # ~600ms); only one resolution must happen and the
                # loser's reply must release its window slot.
                res = await svc.submit(_req(chaos_slow_ms=600.0,
                                            chaos_slow_attempts=(0,)))
                assert res.hedged
                assert svc.stats.hedge_wins == 1
                # Let the loser's reply drain, then verify the ledger.
                await asyncio.sleep(1.0)
                assert svc.backlog()[1] == 0
                assert all(h.inflight == 0 for h in svc.workers)
                assert svc.stats.completed == 1
        run(body())

    def test_quantile_hedging_needs_samples(self):
        async def body():
            cfg = ResilienceConfig(
                hedge_quantile=0.5, hedge_min_samples=4,
                watchdog_interval_ms=20.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                # Below min samples: no hedging even for a slow request.
                res = await svc.submit(_req(chaos_slow_ms=300.0))
                assert not res.hedged
                for seed in range(4):
                    await svc.submit(_req(seed=seed))
                # Tracker warm: a request far beyond p50 gets hedged.
                res = await svc.submit(_req(
                    seed=9, chaos_slow_ms=800.0, chaos_slow_attempts=(0,)))
                assert res.hedged
        run(body())

    def test_hedged_leg_crash_does_not_requeue(self):
        async def body():
            # Primary leg stalls then is crashed via the watchdog while
            # the hedge leg completes: the request must resolve exactly
            # once with the hedge's result, not retry a third time.
            cfg = ResilienceConfig(
                hedge_after_ms=100.0, stall_timeout_ms=400.0,
                watchdog_interval_ms=30.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                res = await svc.submit(_req(chaos_stall_attempts=(0,)))
                assert res.hedged
                assert res.attempts == 2
                await asyncio.sleep(0.8)  # let the stall termination land
                assert svc.stats.completed == 1
                assert svc.stats.retries == 0  # hedge covered the death
        run(body())


# ---------------------------------------------------------------------------
# Circuit breakers: failing slots leave placement, then recover.
# ---------------------------------------------------------------------------

class TestCircuitBreakers:
    def test_breaker_opens_on_worker_deaths(self):
        async def body():
            cfg = ResilienceConfig(
                breaker_failure_threshold=0.5, breaker_min_volume=1,
                breaker_open_ms=60_000.0)
            async with PoolService(
                workers=2, resilience=cfg,
                retry=RetryPolicy(max_attempts=4, quarantine_after=10),
            ) as svc:
                res = await svc.submit(_req(chaos_crash_attempts=(0,)))
                assert res.output is not None
                assert svc.stats.breaker_opens >= 1
                opened = [s for s, br in svc.breakers.items()
                          if br.state == "open"]
                assert len(opened) == 1
                # Placement now avoids the open slot.
                for seed in range(3):
                    r = await svc.submit(_req(seed=seed + 10))
                    assert r.worker not in opened
        run(body())

    def test_all_open_fast_fails_submission(self):
        async def body():
            cfg = ResilienceConfig(
                breaker_failure_threshold=0.5, breaker_min_volume=1,
                breaker_open_ms=60_000.0)
            async with PoolService(workers=2, resilience=cfg) as svc:
                for br in svc.breakers.values():
                    br.trip()
                with pytest.raises(CircuitOpenError) as ei:
                    await svc.submit(_req())
                assert ei.value.retry_after > 0
                assert svc.stats.rejected_circuit == 1
        run(body())

    def test_half_open_probe_closes_breaker(self):
        async def body():
            cfg = ResilienceConfig(
                breaker_failure_threshold=0.5, breaker_min_volume=1,
                breaker_open_ms=100.0)
            async with PoolService(workers=1, resilience=cfg) as svc:
                svc.breakers[0].trip()
                await asyncio.sleep(0.15)  # past breaker_open_ms
                res = await svc.submit(_req())
                assert res.output is not None
                assert svc.breakers[0].state == "closed"
        run(body())


# ---------------------------------------------------------------------------
# Load shedding and graceful degradation.
# ---------------------------------------------------------------------------

class TestShedding:
    def test_low_priority_is_shed_for_high(self):
        async def body():
            cfg = ResilienceConfig(shed_low_priority=True)
            quotas = {
                "gold": TenantQuota(max_pending=32, priority=10),
                "bronze": TenantQuota(max_pending=32, priority=0),
            }
            async with PoolService(
                workers=1, max_inflight_per_worker=1, queue_limit=3,
                quotas=quotas, resilience=cfg,
            ) as svc:
                # Fill the queue with bronze work behind a slow request
                # (distinct impls = distinct geometry keys, so no
                # coalescing affinity bypasses the dispatch window).
                impls = ("im2col", "standard", "expansion")
                bronze = [
                    asyncio.ensure_future(svc.submit(_req(
                        seed=i, tenant="bronze", impl=impls[i],
                        chaos_slow_ms=400.0 if i == 0 else 0.0)))
                    for i in range(3)
                ]
                await asyncio.sleep(0.1)
                # Queue is full; a gold arrival sheds the newest bronze.
                gold = await svc.submit(_req(seed=9, tenant="gold"))
                assert gold.output is not None
                assert svc.stats.shed == 1
                outcomes = await asyncio.gather(
                    *bronze, return_exceptions=True)
                shed = [e for e in outcomes
                        if isinstance(e, AdmissionError)]
                assert len(shed) == 1
                assert shed[0].retry_after > 0
                assert shed[0].limit == 3
        run(body())

    def test_equal_priority_is_rejected_not_shed(self):
        async def body():
            cfg = ResilienceConfig(shed_low_priority=True)
            async with PoolService(
                workers=1, max_inflight_per_worker=1, queue_limit=2,
                resilience=cfg,
            ) as svc:
                futs = [
                    asyncio.ensure_future(svc.submit(_req(
                        seed=i, chaos_slow_ms=300.0 if i == 0 else 0.0)))
                    for i in range(2)
                ]
                await asyncio.sleep(0.1)
                with pytest.raises(AdmissionError) as ei:
                    await svc.submit(_req(seed=9))
                assert ei.value.queue_depth == 2
                assert svc.stats.shed == 0
                await asyncio.gather(*futs)
        run(body())

    def test_degradation_under_pressure(self):
        async def body():
            cfg = ResilienceConfig(degrade_at=0.0)  # degrade always
            async with PoolService(workers=1, resilience=cfg) as svc:
                res = await svc.submit(_req(execute="jit", plan="autotuned"))
                assert res.degraded == (
                    "execute:jit->numeric", "plan:autotuned->default")
                assert svc.stats.degraded == 1
                # Degradation is answer-preserving.
                direct = execute_request(_req())
                np.testing.assert_array_equal(res.output, direct.output)
        run(body())

    def test_no_degradation_below_threshold(self):
        async def body():
            cfg = ResilienceConfig(degrade_at=0.9)
            async with PoolService(
                workers=1, queue_limit=64, resilience=cfg,
            ) as svc:
                res = await svc.submit(_req(execute="jit"))
                assert res.degraded == ()
                assert svc.stats.degraded == 0
        run(body())

    def test_structured_quota_rejection(self):
        async def body():
            async with PoolService(
                workers=1, max_inflight_per_worker=1,
                quotas={"t": TenantQuota(max_pending=1)},
            ) as svc:
                fut = asyncio.ensure_future(svc.submit(_req(
                    tenant="t", chaos_slow_ms=300.0)))
                await asyncio.sleep(0.1)
                with pytest.raises(QuotaExceededError) as ei:
                    await svc.submit(_req(seed=1, tenant="t"))
                assert ei.value.tenant == "t"
                assert ei.value.pending == 1
                assert ei.value.limit == 1
                assert ei.value.retry_after > 0
                await fut
        run(body())


# ---------------------------------------------------------------------------
# Defaults-off invariant and lifecycle.
# ---------------------------------------------------------------------------

class TestDefaultsOff:
    def test_no_watchdog_without_resilience_or_deadline(self):
        async def body():
            async with PoolService(workers=1) as svc:
                await svc.submit(_req())
                assert svc._watchdog is None
        run(body())

    def test_watchdog_starts_lazily_on_first_deadline(self):
        async def body():
            async with PoolService(workers=1) as svc:
                await svc.submit(_req())
                assert svc._watchdog is None
                await svc.submit(_req(seed=1, deadline_ms=30_000.0))
                assert svc._watchdog is not None
        run(body())

    def test_empty_config_behaves_like_none(self):
        async def body():
            async with PoolService(
                workers=1, resilience=ResilienceConfig(),
            ) as svc:
                res = await svc.submit(_req())
                assert not res.hedged and res.degraded == ()
                s = svc.stats
                assert (s.hedges, s.shed, s.degraded,
                        s.stalls_detected, s.breaker_opens) == (0,) * 5
                assert svc.breakers is None
        run(body())

    def test_configurable_poll_and_shutdown(self):
        async def body():
            svc = PoolService(
                workers=1, poll_interval=0.005, shutdown_timeout=2.0)
            assert svc.poll_interval == 0.005
            assert svc.shutdown_timeout == 2.0
            async with svc:
                res = await svc.submit(_req())
                assert res.output is not None
        run(body())

    def test_poll_interval_validation(self):
        with pytest.raises(ServeError):
            PoolService(poll_interval=0.0)
        with pytest.raises(ServeError):
            PoolService(shutdown_timeout=0.0)


class TestCloseNoDrain:
    def test_close_fails_queued_and_inflight_promptly(self):
        async def body():
            async with PoolService(
                workers=1, max_inflight_per_worker=1,
            ) as svc:
                futs = [
                    asyncio.ensure_future(svc.submit(_req(
                        seed=i, chaos_slow_ms=500.0 if i == 0 else 0.0)))
                    for i in range(4)
                ]
                await asyncio.sleep(0.1)  # one in flight, three queued
                t0 = asyncio.get_running_loop().time()
                await svc.close(drain=False)
                elapsed = asyncio.get_running_loop().time() - t0
                outcomes = await asyncio.gather(
                    *futs, return_exceptions=True)
                assert all(isinstance(o, ServeError) for o in outcomes)
                assert "closed before completion" in str(outcomes[0])
                # Prompt: bounded by shutdown joins, not by the slow
                # request's sleep-through-the-queue completion.
                assert elapsed < 10.0
                assert svc.backlog()[0] == 0
        run(body())


class TestChurnWithBreaker:
    def test_fair_rotation_under_tenant_churn_with_open_breaker(self):
        async def body():
            cfg = ResilienceConfig(
                breaker_failure_threshold=0.5, breaker_min_volume=1,
                breaker_open_ms=60_000.0)
            async with PoolService(
                workers=2, max_inflight_per_worker=2, resilience=cfg,
            ) as svc:
                svc.breakers[0].trip()  # half the fleet held open
                # Churning tenants: interleaved arrivals, disjoint names.
                res = await asyncio.gather(*[
                    svc.submit(_req(seed=i, tenant=f"t{i % 5}"))
                    for i in range(20)
                ])
                assert all(r.output is not None for r in res)
                # Everything ran on the unbroken slot...
                assert {r.worker for r in res} == {1}
                # ...and every tenant was serviced.
                assert {r.tenant for r in res} == {f"t{i}" for i in range(5)}
        run(body())
