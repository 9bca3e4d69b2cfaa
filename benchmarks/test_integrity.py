"""Integrity SLOs: detection rate, audit overhead, false positives.

Drives seeded bursts through :class:`repro.serve.PoolService` with
:class:`repro.serve.IntegrityConfig` active and exports
``BENCH_integrity.json`` at the repo root:

* **detection**: a corrupt-core burst (worker 0 flips one output bit
  per reply, pre-fingerprint) at ``audit_rate=1.0`` -- every response
  served by the corrupt slot must trigger an audit mismatch and the
  slot must end convicted and quarantined (``detection_rate == 1.0``);
* **false positives**: the same burst with no corruption -- zero
  fingerprint failures, zero audit mismatches, zero incidents;
* **overhead**: audit work amplification (``audits_run / completed``)
  and wall-clock ratio versus the fingerprint-only burst at sampled
  audit rates; the work overhead at ``audit_rate=0.05`` must stay
  within the 15% budget.

The audit sampler is a deterministic hash of (seed, request id), so
the sampled-rate rows are reproducible run to run.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.ops import PoolSpec
from repro.serve import (
    IntegrityConfig,
    PoolRequest,
    PoolService,
    execute_request,
)
from repro.sim import RetryPolicy
from repro.workloads import make_input

from conftest import record_cycles, run_once

REPO_ROOT = Path(__file__).resolve().parent.parent
EXPORT = REPO_ROOT / "BENCH_integrity.json"

SPEC = PoolSpec.square(3, 2)
WORKERS = 3
EXTENTS = (16, 18, 20)
REPEATS = 8
#: The overhead burst is longer so the sampled audit rates actually
#: sample: at 60 requests the deterministic sampler draws audits at
#: every non-zero rate row (24 would draw none below rate 0.10).
OVERHEAD_REPEATS = 20
TIMEOUT = 300.0
#: Work-amplification budget at the recommended sampling rate.
OVERHEAD_BUDGET = 0.15
AUDIT_RATES = (0.0, 0.01, 0.05, 0.10)

RETRY = RetryPolicy(max_attempts=6, quarantine_after=2)


def _requests(corrupt: bool, repeats: int = REPEATS) -> list[PoolRequest]:
    reqs = []
    for rep in range(repeats):
        for ext in EXTENTS:
            kw: dict = {}
            if corrupt:
                kw["chaos_corrupt_output"] = (0,)
            reqs.append(PoolRequest(
                kind="maxpool",
                x=make_input(ext, ext, 32, seed=rep),
                spec=SPEC,
                tenant=f"tenant{rep % 3}",
                **kw,
            ))
    return reqs


async def _burst(requests, integrity: IntegrityConfig) -> dict:
    async with PoolService(
        workers=WORKERS,
        queue_limit=len(requests) + 8,
        retry=RETRY,
        integrity=integrity,
    ) as svc:
        t0 = time.perf_counter()
        responses = []
        # Sequential submission: placement ties break to slot 0, so a
        # corrupt worker 0 is guaranteed traffic before conviction.
        for r in requests:
            responses.append(await svc.submit(r))
        # Drain outstanding audit / tie-break probes before reading
        # the counters (probes resolve or hit probe_timeout_ms).
        for _ in range(200):
            if svc.backlog() == (0, 0):
                break
            await asyncio.sleep(0.02)
        wall = time.perf_counter() - t0
        stats = svc.stats
        return {
            "requests": len(requests),
            "wall_seconds": round(wall, 4),
            "completed": stats.completed,
            "audits_run": stats.audits_run,
            "audit_mismatches": stats.audit_mismatches,
            "fingerprint_failures": stats.fingerprint_failures,
            "corrupt_workers_quarantined":
                stats.corrupt_workers_quarantined,
            "quarantined": list(stats.quarantined),
            "incidents": [
                {"slot": e.slot, "divergence": e.divergence}
                for e in svc.integrity_errors
            ],
            "responses": responses,
        }


class TestIntegrity:
    def test_slos_and_export(self, benchmark):
        clean_reqs = _requests(corrupt=False)
        corrupt_reqs = _requests(corrupt=True)
        direct = {
            ext: execute_request(PoolRequest(
                kind="maxpool", x=make_input(ext, ext, 32, seed=0),
                spec=SPEC,
            ))
            for ext in EXTENTS
        }

        # -- detection: corrupt core under full auditing ----------------
        detect = asyncio.run(asyncio.wait_for(
            _burst(corrupt_reqs, IntegrityConfig(audit_rate=1.0)),
            TIMEOUT,
        ))
        responses = detect.pop("responses")
        served_by_corrupt = sum(r.worker == 0 for r in responses)
        assert served_by_corrupt >= 1, "corrupt slot never got traffic"
        # 100% detection: every corruptly-served response produced an
        # audit mismatch (mismatches can exceed it when an audit leg of
        # a clean response lands on the corrupt worker -- also a true
        # positive).
        assert detect["audit_mismatches"] >= served_by_corrupt, detect
        assert any(i["slot"] == 0 for i in detect["incidents"]), detect
        assert 0 in detect["quarantined"], detect
        detect["served_by_corrupt_slot"] = served_by_corrupt
        detect["detection_rate"] = round(
            min(detect["audit_mismatches"], served_by_corrupt)
            / served_by_corrupt, 4,
        )
        assert detect["detection_rate"] == 1.0, detect

        # -- false positives: same machinery, clean fleet ---------------
        clean = asyncio.run(asyncio.wait_for(
            _burst(clean_reqs, IntegrityConfig(audit_rate=1.0)),
            TIMEOUT,
        ))
        for req, res in zip(clean_reqs, clean.pop("responses")):
            d = execute_request(req)
            assert np.array_equal(res.output, d.output), req.x.shape
            assert res.cycles == d.cycles
        false_positives = (
            clean["audit_mismatches"] + clean["fingerprint_failures"]
            + len(clean["incidents"])
        )
        assert false_positives == 0, clean
        clean["false_positives"] = false_positives

        # -- overhead: audit amplification across sampled rates ---------
        overhead_reqs = _requests(corrupt=False, repeats=OVERHEAD_REPEATS)
        rows = []
        baseline_wall = None
        for rate in AUDIT_RATES:
            row = asyncio.run(asyncio.wait_for(
                _burst(overhead_reqs, IntegrityConfig(audit_rate=rate)),
                TIMEOUT,
            ))
            row.pop("responses")
            if rate == 0.0:
                baseline_wall = row["wall_seconds"]
            work_overhead = row["audits_run"] / row["completed"]
            rows.append({
                "audit_rate": rate,
                "audits_run": row["audits_run"],
                "completed": row["completed"],
                "work_overhead": round(work_overhead, 4),
                "wall_seconds": row["wall_seconds"],
                "wall_ratio_vs_rate0": round(
                    row["wall_seconds"] / baseline_wall, 4,
                ),
            })
            if rate == 0.05:
                assert work_overhead <= OVERHEAD_BUDGET, rows[-1]

        # wall-clock of record: the detection burst (the scenario the
        # integrity machinery exists for)
        run_once(
            benchmark,
            lambda: asyncio.run(asyncio.wait_for(
                _burst(corrupt_reqs, IntegrityConfig(audit_rate=1.0)),
                TIMEOUT,
            )),
        )
        record_cycles(
            benchmark,
            request_cycles=direct[EXTENTS[0]].cycles,
            detection_rate_x100=int(detect["detection_rate"] * 100),
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
            "host_cores": os.cpu_count(),
            "detection": detect,
            "clean": clean,
            "audit_overhead": rows,
            "overhead_budget": OVERHEAD_BUDGET,
            "contract": (
                "detection burst: worker 0 flips one output bit per "
                "reply pre-fingerprint; detection_rate = corrupt-served "
                "responses whose audits mismatched / corrupt-served "
                "responses (must be 1.0); false_positives counts audit "
                "mismatches + fingerprint failures + incidents on a "
                "clean fleet (must be 0); work_overhead = audits_run / "
                "completed at the sampled audit_rate, budget 0.15 at "
                "rate 0.05; wall ratios are host-noise-prone and "
                "recorded unasserted"
            ),
        }
        EXPORT.write_text(json.dumps(payload, indent=2) + "\n")
