"""Serving-layer resilience SLOs: goodput and tail latency under faults.

Drives the same mixed burst through :class:`repro.serve.PoolService`
twice -- once clean, once with a seeded fault mix (worker crashes,
tail-latency stragglers, dropped replies) against a hedging + stall
watchdog config -- and exports ``BENCH_serve_chaos.json`` at the repo
root: p50/p99 end-to-end latency and goodput with and without faults,
the hedge win rate, the overload shed rate of a priority-tiered burst,
the integrity counters of a corrupt-core burst under dual-execution
auditing, and the recovery time after a hung-but-alive worker stall.
Every
faulty-burst response is still checked byte-identical to a direct
:mod:`repro.ops.api` call: resilience must never trade correctness
for availability.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.errors import AdmissionError
from repro.ops import PoolSpec
from repro.serve import (
    IntegrityConfig,
    PoolRequest,
    PoolService,
    ResilienceConfig,
    TenantQuota,
    execute_request,
)
from repro.sim import RetryPolicy
from repro.workloads import make_input

from conftest import record_cycles, run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPORT = REPO_ROOT / "BENCH_serve_chaos.json"

SPEC = PoolSpec.square(3, 2)
WORKERS = 3
#: Distinct pooling geometries in the burst (different input extents).
EXTENTS = (16, 18, 20)
#: Requests per geometry per burst.
REPEATS = 8
TIMEOUT = 300.0

#: The fault mix applied to the faulty burst, cycled by request index.
#: ``None`` entries stay clean so goodput under faults is meaningful.
FAULTS = (None, None, None, "slow", None, "crash", None, "drop")

RESILIENCE = ResilienceConfig(
    stall_timeout_ms=1500.0,
    watchdog_interval_ms=50.0,
    hedge_after_ms=250.0,
)


def _requests(faulty: bool) -> list[PoolRequest]:
    reqs = []
    for rep in range(REPEATS):
        for gi, ext in enumerate(EXTENTS):
            idx = rep * len(EXTENTS) + gi
            kw: dict = {}
            fault = FAULTS[idx % len(FAULTS)] if faulty else None
            if fault == "slow":
                kw = dict(chaos_slow_ms=400.0, chaos_slow_attempts=(0,))
            elif fault == "crash":
                kw = dict(chaos_crash_attempts=(0,))
            elif fault == "drop":
                kw = dict(chaos_drop_reply=(0,))
            reqs.append(PoolRequest(
                kind="maxpool",
                x=make_input(ext, ext, 32, seed=rep),
                spec=SPEC,
                tenant=f"tenant{idx % 3}",
                **kw,
            ))
    return reqs


def _strip(r: PoolRequest) -> PoolRequest:
    import dataclasses
    return dataclasses.replace(
        r, chaos_crash_attempts=(), chaos_slow_ms=0.0,
        chaos_slow_attempts=(), chaos_drop_reply=(),
    )


async def _burst(requests: list[PoolRequest]) -> dict:
    async with PoolService(
        workers=WORKERS,
        queue_limit=len(requests) + 8,
        resilience=RESILIENCE,
        retry=RetryPolicy(max_attempts=6, quarantine_after=32),
    ) as svc:
        t0 = time.perf_counter()
        responses = await asyncio.gather(
            *(svc.submit(r) for r in requests)
        )
        wall = time.perf_counter() - t0
        latencies_ms = sorted(r.latency * 1e3 for r in responses)
        n = len(latencies_ms)
        stats = svc.stats
        return {
            "requests": n,
            "wall_seconds": round(wall, 4),
            "goodput_req_per_s": round(stats.completed / wall, 2),
            "p50_ms": round(statistics.median(latencies_ms), 3),
            "p99_ms": round(latencies_ms[min(n - 1, int(n * 0.99))], 3),
            "max_ms": round(latencies_ms[-1], 3),
            "hedges": stats.hedges,
            "hedge_wins": stats.hedge_wins,
            "hedge_win_rate": round(
                stats.hedge_wins / stats.hedges, 4
            ) if stats.hedges else 0.0,
            "worker_failures": stats.worker_failures,
            "stalls_detected": stats.stalls_detected,
            "retries": stats.retries,
            "responses": responses,
        }


async def _shed_scenario() -> dict:
    """Priority-tiered overload: low-priority work yields to high."""
    quotas = {
        "gold": TenantQuota(max_pending=64, priority=10),
        "bronze": TenantQuota(max_pending=64, priority=0),
    }
    cfg = ResilienceConfig(shed_low_priority=True, retry_after_ms=50.0)
    async with PoolService(
        workers=1, max_inflight_per_worker=1, queue_limit=6,
        quotas=quotas, resilience=cfg,
    ) as svc:
        # Saturate the queue with bronze work behind a slow head
        # (distinct impls defeat the coalescing window bypass), then
        # land a wave of gold arrivals that must shed bronze.
        impls = ("im2col", "standard", "expansion", "xysplit")
        bronze = [
            asyncio.ensure_future(svc.submit(PoolRequest(
                kind="maxpool", x=make_input(16, 16, 32, seed=i),
                spec=SPEC, impl=impls[i % len(impls)], tenant="bronze",
                chaos_slow_ms=300.0 if i == 0 else 0.0,
            )))
            for i in range(6)
        ]
        await asyncio.sleep(0.1)
        gold_ok = 0
        for i in range(4):
            try:
                await svc.submit(PoolRequest(
                    kind="maxpool",
                    x=make_input(22, 22, 32, seed=100 + i),
                    spec=SPEC, tenant="gold",
                ))
                gold_ok += 1
            except AdmissionError:
                pass
        outcomes = await asyncio.gather(*bronze, return_exceptions=True)
        shed = [
            e for e in outcomes
            if isinstance(e, AdmissionError) and e.retry_after is not None
        ]
        submitted = svc.stats.submitted
        return {
            "bronze_submitted": len(bronze),
            "gold_completed": gold_ok,
            "shed": svc.stats.shed,
            "shed_rate": round(svc.stats.shed / submitted, 4),
            "retry_after_hints": len(shed),
        }


async def _recovery_scenario() -> dict:
    """Wall-clock from a stall to the recovered byte-identical reply."""
    cfg = ResilienceConfig(
        stall_timeout_ms=600.0, watchdog_interval_ms=40.0)
    async with PoolService(workers=2, resilience=cfg) as svc:
        req = PoolRequest(
            kind="maxpool", x=make_input(16, 16, 32, seed=7), spec=SPEC,
            chaos_stall_attempts=(0,),
        )
        t0 = time.perf_counter()
        res = await svc.submit(req)
        recovery_s = time.perf_counter() - t0
        direct = execute_request(_strip(req))
        assert np.array_equal(res.output, direct.output)
        assert res.attempts == 2
        return {
            "stall_timeout_ms": cfg.stall_timeout_ms,
            "recovery_ms": round(recovery_s * 1e3, 3),
            "stalls_detected": svc.stats.stalls_detected,
            "respawns": svc.stats.respawns,
        }


async def _integrity_scenario() -> dict:
    """Corrupt-core burst under integrity checking: the new counters.

    Worker 0 flips one output bit per reply (pre-fingerprint, so only
    dual-execution audits can see it); the burst is submitted
    sequentially so the corrupt slot is guaranteed traffic before its
    conviction.  Exported as the ``integrity`` section so the chaos
    SLO file tracks detection alongside goodput.
    """
    reqs = [
        PoolRequest(
            kind="maxpool",
            x=make_input(ext, ext, 32, seed=rep),
            spec=SPEC,
            tenant=f"tenant{rep % 3}",
            chaos_corrupt_output=(0,),
        )
        for rep in range(4) for ext in EXTENTS
    ]
    async with PoolService(
        workers=WORKERS,
        queue_limit=len(reqs) + 8,
        retry=RetryPolicy(max_attempts=6, quarantine_after=2),
        integrity=IntegrityConfig(audit_rate=1.0),
    ) as svc:
        responses = [await svc.submit(r) for r in reqs]
        for _ in range(200):
            if svc.backlog() == (0, 0):
                break
            await asyncio.sleep(0.02)
        stats = svc.stats
        return {
            "requests": len(reqs),
            "served_by_corrupt_slot":
                sum(r.worker == 0 for r in responses),
            "audits_run": stats.audits_run,
            "audit_mismatches": stats.audit_mismatches,
            "kat_probes": stats.kat_probes,
            "fingerprint_failures": stats.fingerprint_failures,
            "corrupt_workers_quarantined":
                stats.corrupt_workers_quarantined,
            "quarantined": list(stats.quarantined),
            "incidents": len(svc.integrity_errors),
        }


class TestServeChaos:
    def test_slos_and_export(self, benchmark):
        clean_reqs = _requests(faulty=False)
        faulty_reqs = _requests(faulty=True)
        direct = {
            ext: execute_request(PoolRequest(
                kind="maxpool", x=make_input(ext, ext, 32, seed=0),
                spec=SPEC,
            ))
            for ext in EXTENTS
        }

        clean = asyncio.run(
            asyncio.wait_for(_burst(clean_reqs), TIMEOUT))
        faulty = asyncio.run(
            asyncio.wait_for(_burst(faulty_reqs), TIMEOUT))

        # Correctness gate: every faulty-burst response byte-identical
        # to a direct, chaos-free call on the same request.
        for req, res in zip(faulty_reqs, faulty.pop("responses")):
            d = execute_request(_strip(req))
            assert np.array_equal(res.output, d.output), req.x.shape
            assert res.cycles == d.cycles
        clean.pop("responses")

        # Every injected fault class actually fired and was survived.
        assert faulty["worker_failures"] > 0, faulty
        assert faulty["hedges"] > 0, faulty
        assert faulty["hedge_wins"] > 0, faulty
        # The clean burst saw none of it.
        assert clean["worker_failures"] == 0, clean
        assert clean["stalls_detected"] == 0, clean

        shed = asyncio.run(asyncio.wait_for(_shed_scenario(), TIMEOUT))
        assert shed["shed"] > 0, shed
        assert shed["gold_completed"] > 0, shed

        integrity = asyncio.run(
            asyncio.wait_for(_integrity_scenario(), TIMEOUT))
        assert integrity["served_by_corrupt_slot"] >= 1, integrity
        assert (integrity["audit_mismatches"]
                >= integrity["served_by_corrupt_slot"]), integrity
        assert integrity["quarantined"] == [0], integrity

        recovery = asyncio.run(
            asyncio.wait_for(_recovery_scenario(), TIMEOUT))
        assert recovery["stalls_detected"] == 1, recovery
        # Recovery is bounded: stall timeout + watchdog period +
        # respawn + re-execution, far below any retry storm.
        assert recovery["recovery_ms"] < 10_000.0, recovery

        # wall-clock of record: the faulty burst (the scenario the
        # resilience machinery exists for)
        run_once(
            benchmark,
            lambda: asyncio.run(asyncio.wait_for(
                _burst(faulty_reqs), TIMEOUT
            )),
        )
        record_cycles(
            benchmark,
            request_cycles=direct[EXTENTS[0]].cycles,
            faulty_goodput_x100=int(faulty["goodput_req_per_s"] * 100),
        )

        payload = {
            "workload": {
                "kind": "maxpool",
                "impl": "im2col",
                "kernel": [SPEC.kh, SPEC.kw],
                "stride": [SPEC.sh, SPEC.sw],
                "extents": list(EXTENTS),
                "c": 32,
                "requests": len(clean_reqs),
                "workers": WORKERS,
            },
            "fault_mix": {
                "cycle": [f or "clean" for f in FAULTS],
                "slow_ms": 400.0,
                "hedge_after_ms": RESILIENCE.hedge_after_ms,
                "stall_timeout_ms": RESILIENCE.stall_timeout_ms,
            },
            "host_cores": os.cpu_count(),
            "baseline": clean,
            "faulty": faulty,
            "shed": shed,
            "integrity": integrity,
            "recovery": recovery,
            "contract": (
                "faulty-burst responses byte-identical to direct "
                "repro.ops.api calls; goodput counts completed "
                "requests only; hedge_win_rate = hedge_wins/hedges; "
                "shed_rate = shed/submitted of the priority-tiered "
                "overload scenario; recovery_ms is submit-to-response "
                "wall clock across one stall detection + respawn + "
                "retry"
            ),
        }
        EXPORT.write_text(json.dumps(payload, indent=2) + "\n")
