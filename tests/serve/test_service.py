"""PoolService integration: identity, admission, recovery, coalescing.

These tests drive real worker processes.  Every ``await`` is wrapped in
a generous timeout so a service bug fails the test instead of hanging
the suite.
"""

from __future__ import annotations

import asyncio
import pickle

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    QuotaExceededError,
    ServeError,
    WorkerFailure,
)
from repro.ops import PoolSpec
from repro.ops.reference import maxpool_argmax_ref
from repro.serve import (
    CRASH_EXIT_CODE,
    PoolRequest,
    PoolService,
    TenantQuota,
    execute_request,
    serve_burst,
)
from repro.sim import RetryPolicy
from repro.workloads import make_gradient, make_input

SPEC = PoolSpec.square(3, 2)
TIMEOUT = 60.0


def run(coro):
    """Drive one async test body with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def _x(seed=0, ih=16, iw=16, c=32):
    return make_input(ih, iw, c, seed=seed)


# ---------------------------------------------------------------------------
# Byte-identity: served == direct, for every implementation.
# ---------------------------------------------------------------------------

def _forward_requests():
    reqs = []
    for impl in ("standard", "im2col", "expansion", "xysplit"):
        reqs.append(PoolRequest(
            kind="maxpool", x=_x(seed=1), spec=SPEC, impl=impl,
        ))
    reqs.append(PoolRequest(
        kind="maxpool", x=_x(seed=2), spec=SPEC, impl="im2col",
        with_mask=True,
    ))
    for impl in ("standard", "im2col"):
        reqs.append(PoolRequest(
            kind="avgpool", x=_x(seed=3), spec=SPEC, impl=impl,
        ))
    return reqs


def _backward_requests():
    ih = iw = 16
    x = _x(seed=4, ih=ih, iw=iw)
    mask = maxpool_argmax_ref(x, SPEC)
    oh, ow = SPEC.with_image(ih, iw).out_hw()
    grad = make_gradient(x.shape[1], oh, ow, seed=5)
    reqs = []
    for impl in ("standard", "col2im"):
        reqs.append(PoolRequest(
            kind="maxpool_backward", x=grad, spec=SPEC, impl=impl,
            mask=mask, ih=ih, iw=iw,
        ))
        reqs.append(PoolRequest(
            kind="avgpool_backward", x=grad, spec=SPEC, impl=impl,
            ih=ih, iw=iw,
        ))
    return reqs


class TestByteIdentity:
    def test_every_impl_forward_and_backward(self):
        """The service's answer for every registered implementation is
        byte-identical to calling :mod:`repro.ops.api` directly --
        outputs, masks, and cycle counts."""
        requests = _forward_requests() + _backward_requests()
        direct = [execute_request(r) for r in requests]

        async def go():
            async with PoolService(workers=2) as svc:
                return await serve_burst(svc, requests)

        served = run(go())
        assert len(served) == len(direct)
        for req, got, want in zip(requests, served, direct):
            label = f"{req.kind}/{req.impl}"
            assert np.array_equal(got.output, want.output), label
            if want.mask is None:
                assert got.mask is None, label
            else:
                assert np.array_equal(got.mask, want.mask), label
            assert got.cycles == want.cycles, label

    def test_execute_modes_match_direct(self):
        reqs = [
            PoolRequest(kind="maxpool", x=_x(seed=6), spec=SPEC,
                        execute=mode)
            for mode in ("numeric", "cycles", "jit")
        ]
        direct = [execute_request(r) for r in reqs]

        async def go():
            async with PoolService(workers=1) as svc:
                return await serve_burst(svc, reqs)

        served = run(go())
        for req, got, want in zip(reqs, served, direct):
            assert got.cycles == want.cycles, req.execute
            if want.output is None:
                assert got.output is None
            else:
                assert np.array_equal(got.output, want.output), req.execute

    def test_responses_pickle(self):
        async def go():
            async with PoolService(workers=1) as svc:
                return await svc.maxpool(_x(), SPEC)

        res = run(go())
        clone = pickle.loads(pickle.dumps(res))
        assert np.array_equal(clone.output, res.output)
        assert clone.cycles == res.cycles

    def test_reading_plan_geometry_leaves_the_envelope_unchanged(self):
        async def go():
            async with PoolService(workers=1) as svc:
                return await svc.maxpool(_x(), SPEC)

        res = run(go())
        before = pickle.dumps(res)
        plan = res.result.plan
        # The worker lowered and ran this plan: it still pickles like
        # a fresh one, so no geometry travelled with it.
        fresh = type(plan).from_json(plan.to_json())
        assert pickle.dumps(plan) == pickle.dumps(fresh)
        assert plan.tiles and plan.tensors
        assert pickle.dumps(res) == before

    def test_traces_only_when_requested(self):
        async def go():
            async with PoolService(workers=1) as svc:
                slim = await svc.maxpool(_x(), SPEC)
                full = await svc.maxpool(_x(), SPEC, collect_trace=True)
                return slim, full

        slim, full = run(go())
        assert all(
            not t.trace.records for t in slim.result.chip.per_tile
        )
        assert any(t.trace.records for t in full.result.chip.per_tile)


# ---------------------------------------------------------------------------
# Admission control and tenancy.
# ---------------------------------------------------------------------------

class TestAdmission:
    def test_queue_limit_backpressure(self):
        async def go():
            async with PoolService(workers=1, queue_limit=4) as svc:
                reqs = [
                    PoolRequest(kind="maxpool", x=_x(seed=i), spec=SPEC)
                    for i in range(8)
                ]
                results = await asyncio.gather(
                    *(svc.submit(r) for r in reqs), return_exceptions=True
                )
                return results, svc.stats

        results, stats = run(go())
        rejected = [r for r in results if isinstance(r, AdmissionError)]
        accepted = [r for r in results if not isinstance(r, Exception)]
        assert len(rejected) == 4
        assert len(accepted) == 4
        assert stats.rejected_queue_full == 4
        assert stats.completed == 4

    def test_tenant_quota(self):
        async def go():
            quotas = {"greedy": TenantQuota(max_pending=2)}
            async with PoolService(
                workers=1, quotas=quotas, queue_limit=64
            ) as svc:
                greedy = [
                    PoolRequest(kind="maxpool", x=_x(seed=i), spec=SPEC,
                                tenant="greedy")
                    for i in range(5)
                ]
                polite = PoolRequest(
                    kind="maxpool", x=_x(seed=9), spec=SPEC, tenant="polite"
                )
                results = await asyncio.gather(
                    *(svc.submit(r) for r in greedy), svc.submit(polite),
                    return_exceptions=True,
                )
                return results, svc.stats

        results, stats = run(go())
        over = [r for r in results if isinstance(r, QuotaExceededError)]
        assert len(over) == 3  # greedy admitted 2 of 5
        assert stats.rejected_quota == 3
        # the other tenant was unaffected by greedy's rejections
        assert not isinstance(results[-1], Exception)
        assert stats.completed == 3

    def test_submit_before_start_and_after_close(self):
        svc = PoolService(workers=1)
        req = PoolRequest(kind="maxpool", x=_x(), spec=SPEC)

        async def not_started():
            await svc.submit(req)

        with pytest.raises(ServeError):
            run(not_started())

        async def closed():
            async with PoolService(workers=1) as s:
                pass
            await s.submit(req)

        with pytest.raises(ServeError):
            run(closed())

    def test_constructor_validation(self):
        with pytest.raises(ServeError):
            PoolService(workers=0)
        with pytest.raises(ServeError):
            PoolService(queue_limit=0)
        with pytest.raises(ServeError):
            PoolService(max_inflight_per_worker=0)

    def test_mixed_tenant_burst_all_complete(self):
        async def go():
            async with PoolService(workers=2, queue_limit=64) as svc:
                reqs = [
                    PoolRequest(
                        kind="maxpool", x=_x(seed=i % 3), spec=SPEC,
                        tenant=f"tenant{i % 4}",
                    )
                    for i in range(12)
                ]
                out = await serve_burst(svc, reqs)
                return out, svc.stats

        out, stats = run(go())
        assert len(out) == 12
        assert stats.completed == 12 and stats.failed == 0
        assert {r.tenant for r in out} == {f"tenant{i}" for i in range(4)}


# ---------------------------------------------------------------------------
# Coalescing.
# ---------------------------------------------------------------------------

class TestCoalescing:
    def test_same_geometry_shares_a_worker(self):
        async def go():
            async with PoolService(workers=4) as svc:
                reqs = [
                    PoolRequest(kind="maxpool", x=_x(seed=i), spec=SPEC)
                    for i in range(8)
                ]
                out = []
                for r in reqs:  # sequential: affinity is deterministic
                    out.append(await svc.submit(r))
                return out, svc.coalescer.hit_rate, svc.coalescer.hits

        out, hit_rate, hits = run(go())
        workers = {r.worker for r in out}
        assert len(workers) == 1  # all eight landed on the warm worker
        assert out[0].coalesced is False
        assert all(r.coalesced for r in out[1:])
        assert hits == 7
        assert hit_rate == pytest.approx(7 / 8)

    def test_distinct_geometries_spread(self):
        async def go():
            async with PoolService(workers=2) as svc:
                # concurrent: the second key sees worker 0 busy and
                # spreads to worker 1 under least-loaded placement
                return await asyncio.gather(
                    svc.maxpool(_x(seed=0), SPEC),
                    svc.maxpool(_x(seed=0, ih=20, iw=20), SPEC),
                )

        a, b = run(go())
        assert a.worker != b.worker

    def test_worker_caches_get_warm(self):
        async def go():
            async with PoolService(workers=2) as svc:
                for i in range(4):
                    await svc.maxpool(_x(seed=i), SPEC)
                return await svc.worker_cache_stats()

        stats = run(go())
        warm = [s for s in stats.values() if s["hits"] > 0]
        assert warm, stats  # repeated geometry produced real cache hits
        cold = [s for s in stats.values() if s["entries"] == 0]
        assert cold, stats  # the other worker never saw the geometry


# ---------------------------------------------------------------------------
# Crash recovery.
# ---------------------------------------------------------------------------

class TestCrashRecovery:
    def test_chaos_crash_is_retried(self):
        async def go():
            async with PoolService(workers=2) as svc:
                req = PoolRequest(
                    kind="maxpool", x=_x(seed=1), spec=SPEC,
                    chaos_crash_attempts=(0,),
                )
                res = await svc.submit(req)
                return res, svc.stats

        res, stats = run(go())
        assert res.attempts == 2
        assert stats.worker_failures == 1
        assert stats.retries == 1
        assert stats.respawns == 1
        assert stats.completed == 1
        # and the retried answer is still byte-identical to direct
        direct = execute_request(
            PoolRequest(kind="maxpool", x=_x(seed=1), spec=SPEC)
        )
        assert np.array_equal(res.output, direct.output)
        assert res.cycles == direct.cycles

    def test_retry_budget_exhaustion(self):
        async def go():
            async with PoolService(
                workers=2, retry=RetryPolicy(max_attempts=2),
            ) as svc:
                req = PoolRequest(
                    kind="maxpool", x=_x(seed=1), spec=SPEC,
                    chaos_crash_attempts=(0, 1),
                )
                with pytest.raises(WorkerFailure):
                    await svc.submit(req)
                return svc.stats

        stats = run(go())
        assert stats.failed == 1
        assert stats.worker_failures == 2

    def test_bystanders_survive_a_crash(self):
        """Requests sharing the fleet with a crashing one all complete,
        and their outputs stay byte-identical to direct execution."""
        async def go():
            async with PoolService(workers=2, queue_limit=64) as svc:
                chaos = PoolRequest(
                    kind="maxpool", x=_x(seed=0), spec=SPEC,
                    chaos_crash_attempts=(0,),
                )
                bystanders = [
                    PoolRequest(kind="maxpool", x=_x(seed=i), spec=SPEC)
                    for i in range(1, 7)
                ]
                results = await asyncio.gather(
                    svc.submit(chaos), *(svc.submit(b) for b in bystanders)
                )
                return results, svc.stats

        results, stats = run(go())
        assert stats.completed == 7 and stats.failed == 0
        direct = execute_request(
            PoolRequest(kind="maxpool", x=_x(seed=3), spec=SPEC)
        )
        for res in results:
            assert res.output is not None
        assert np.array_equal(results[3].output, direct.output)

    def test_crash_worker_hook_and_exit_code(self):
        async def go():
            async with PoolService(workers=2) as svc:
                victim = svc.workers[0]
                svc.crash_worker(0)
                victim.process.join(timeout=10)
                exitcode = victim.process.exitcode
                # wait for the collector to notice and the respawn to land
                for _ in range(200):
                    if svc.stats.respawns >= 1:
                        break
                    await asyncio.sleep(0.05)
                res = await svc.maxpool(_x(), SPEC)
                return exitcode, svc.stats, svc.workers[0].generation, res

        exitcode, stats, generation, res = run(go())
        assert exitcode == CRASH_EXIT_CODE
        assert stats.worker_failures == 1
        assert stats.respawns == 1
        assert generation == 1
        assert res.output is not None

    def test_quarantine_after_repeated_failures(self):
        async def go():
            async with PoolService(
                workers=2, retry=RetryPolicy(quarantine_after=2),
            ) as svc:
                for expected in (1, 2):
                    svc.crash_worker(0)
                    for _ in range(200):
                        if svc.stats.worker_failures >= expected and (
                            svc.workers[0].quarantined
                            or svc.workers[0].alive
                        ):
                            break
                        await asyncio.sleep(0.05)
                res = await svc.maxpool(_x(), SPEC)
                return svc.stats, res

        stats, res = run(go())
        assert stats.worker_failures == 2
        assert 0 in stats.quarantined
        assert stats.respawns == 1  # first crash respawned, second didn't
        assert res.worker == 1  # served by the surviving healthy worker

    def test_all_quarantined_forces_a_respawn(self):
        """With every slot quarantined the service degrades instead of
        deadlocking: the least-failed slot is respawned anyway."""
        async def go():
            async with PoolService(
                workers=1, retry=RetryPolicy(quarantine_after=1),
            ) as svc:
                svc.crash_worker(0)
                for _ in range(200):
                    if svc.stats.forced_respawns >= 1:
                        break
                    await asyncio.sleep(0.05)
                res = await svc.maxpool(_x(), SPEC)
                return svc.stats, res

        stats, res = run(go())
        assert stats.forced_respawns == 1
        assert res.output is not None
