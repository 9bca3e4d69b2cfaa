"""End-to-end integrity: fingerprints, audits, tie-breaks, KAT probes.

Unit tests cover the loop-free pieces (config validation, the
deterministic audit sampler, audit-twin construction, KAT payloads and
goldens, the chaos bit-flipper) synchronously; the integration tests
drive real worker fleets through every detection path -- transit
corruption absorbed by fingerprint re-verification, a corrupt core
convicted by dual-execution audit + tie-break, and an idle-fleet
corrupt core convicted by known-answer probes -- plus the defaults-off
contract: without an :class:`IntegrityConfig`, requests, responses and
stats are byte-identical to the pre-integrity service.
"""

from __future__ import annotations

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest

from repro.errors import IntegrityError, ServeError
from repro.ops import PoolSpec
from repro.serve import (
    KAT_GEOMETRIES,
    IntegrityConfig,
    IntegrityController,
    PoolRequest,
    PoolResponse,
    PoolService,
    ResilienceConfig,
    audit_twin,
    execute_request,
    kat_request,
)
from repro.serve.integrity import INTERNAL_TENANT
from repro.serve.workers import corrupt_result
from repro.sim import RetryPolicy
from repro.sim.fingerprint import fingerprint_result
from repro.workloads import make_input

SPEC = PoolSpec.square(3, 2)
TIMEOUT = 60.0
RETRY = RetryPolicy(max_attempts=6, quarantine_after=2)


def run(coro):
    """Drive one async test body with a hang guard."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def _x(seed=0, ih=16, iw=16, c=32):
    return make_input(ih, iw, c, seed=seed)


def _req(seed=0, **kw):
    return PoolRequest(kind="maxpool", x=_x(seed=seed), spec=SPEC, **kw)


async def _drain(svc, rounds=200):
    """Wait for outstanding dispatches and probes to settle."""
    for _ in range(rounds):
        if svc.backlog() == (0, 0):
            return
        await asyncio.sleep(0.02)


# ---------------------------------------------------------------------------
# Config and pure decision logic.
# ---------------------------------------------------------------------------

class TestIntegrityConfig:
    def test_defaults(self):
        cfg = IntegrityConfig()
        assert cfg.fingerprint
        assert not cfg.audit_enabled
        assert not cfg.kat_enabled

    @pytest.mark.parametrize("kw", [
        {"audit_rate": -0.1},
        {"audit_rate": 1.5},
        {"kat_interval_ms": 0.0},
        {"kat_interval_ms": -5.0},
        {"probe_timeout_ms": 0.0},
        {"max_recorded_errors": 0},
        {"kat_chaos_corrupt_output": (-1,)},
    ])
    def test_validation(self, kw):
        with pytest.raises(ServeError):
            IntegrityConfig(**kw)

    def test_audit_needs_two_workers(self):
        with pytest.raises(ServeError, match="worker"):
            PoolService(
                workers=1, integrity=IntegrityConfig(audit_rate=0.5)
            )


class TestAuditSampler:
    def _controller(self, **kw):
        from repro.config import ASCEND910
        return IntegrityController(IntegrityConfig(**kw), ASCEND910)

    def test_deterministic_and_rate_bounded(self):
        c = self._controller(audit_rate=0.25)
        picks = [c.should_audit(i) for i in range(400)]
        assert picks == [c.should_audit(i) for i in range(400)]
        rate = sum(picks) / len(picks)
        assert 0.1 < rate < 0.4

    def test_extremes(self):
        never = self._controller(audit_rate=0.0)
        always = self._controller(audit_rate=1.0)
        assert not any(never.should_audit(i) for i in range(100))
        assert all(always.should_audit(i) for i in range(100))

    def test_seed_shifts_the_sample(self):
        a = self._controller(audit_rate=0.25, seed=0)
        b = self._controller(audit_rate=0.25, seed=1)
        assert [a.should_audit(i) for i in range(400)] != [
            b.should_audit(i) for i in range(400)
        ]


class TestAuditTwin:
    def test_strips_schedule_chaos_keeps_corruption(self):
        req = _req(
            deadline_ms=100.0,
            collect_trace=True,
            chaos_crash_attempts=(0,),
            chaos_stall_attempts=(1,),
            chaos_slow_ms=50.0,
            chaos_slow_attempts=(0,),
            chaos_drop_reply=(2,),
            chaos_corrupt_output=(0,),
            chaos_corrupt_payload=(1,),
        )
        twin = audit_twin(req)
        assert twin.tenant == INTERNAL_TENANT
        assert twin.deadline_ms is None
        assert not twin.collect_trace
        assert twin.fingerprint
        assert twin.chaos_crash_attempts == ()
        assert twin.chaos_stall_attempts == ()
        assert twin.chaos_slow_ms == 0.0
        assert twin.chaos_drop_reply == ()
        # Worker-keyed corruption survives: a corrupt worker must
        # corrupt the audit leg too, or drills could not tie-break.
        assert twin.chaos_corrupt_output == (0,)
        assert twin.chaos_corrupt_payload == (1,)
        # Payload untouched.
        assert twin.x is req.x
        assert twin.spec == req.spec


class TestKnownAnswers:
    def test_kat_payloads_are_deterministic(self):
        for idx in range(len(KAT_GEOMETRIES)):
            a, b = kat_request(idx), kat_request(idx)
            assert a.tenant == INTERNAL_TENANT
            assert a.fingerprint
            assert a.x.tobytes() == b.x.tobytes()
        # Rotation wraps.
        assert kat_request(len(KAT_GEOMETRIES)).x.tobytes() == \
            kat_request(0).x.tobytes()

    def test_goldens_cached_and_worker_identical(self):
        from repro.config import ASCEND910
        ctl = IntegrityController(IntegrityConfig(), ASCEND910)
        fp = ctl.golden(0)
        assert ctl.golden(0) == fp  # cached
        direct = execute_request(kat_request(0), ASCEND910)
        assert fingerprint_result(direct.detach()) == fp

    def test_rotation(self):
        from repro.config import ASCEND910
        ctl = IntegrityController(IntegrityConfig(), ASCEND910)
        seen = [ctl.next_kat()[0] for _ in range(2 * len(KAT_GEOMETRIES))]
        assert seen == list(range(len(KAT_GEOMETRIES))) * 2


class TestCorruptResult:
    def test_flips_one_bit_deterministically(self):
        res = execute_request(_req()).detach()
        a = corrupt_result(res, 0, 0, "output")
        b = corrupt_result(res, 0, 0, "output")
        assert a.output.tobytes() == b.output.tobytes()
        diff = (a.output.view(np.uint16)
                ^ res.output.view(np.uint16)).reshape(-1)
        assert np.count_nonzero(diff) == 1
        assert bin(int(diff[diff != 0][0])).count("1") == 1

    def test_stage_and_coordinates_salt_the_position(self):
        res = execute_request(_req()).detach()
        out = corrupt_result(res, 0, 0, "output").output.tobytes()
        assert corrupt_result(res, 0, 0, "payload").output.tobytes() != out
        assert corrupt_result(res, 1, 0, "output").output.tobytes() != out

    def test_cycles_only_result_unchanged(self):
        res = execute_request(_req()).detach()
        bare = dataclasses.replace(res, output=None, mask=None)
        assert corrupt_result(bare, 0, 0, "output") is bare


# ---------------------------------------------------------------------------
# Defaults off: the pre-integrity service is byte-identical.
# ---------------------------------------------------------------------------

class TestDefaultsOff:
    def test_no_config_means_no_integrity_surface(self):
        async def body():
            async with PoolService(workers=1) as svc:
                res = await svc.submit(_req())
                assert res.fingerprint is None
                assert res.fingerprint_ok is None
                assert not res.audited
                direct = execute_request(_req())
                assert np.array_equal(res.output, direct.output)
                assert res.cycles == direct.cycles
                d = svc.stats.to_dict()
                for key in ("audits_run", "audit_mismatches",
                            "kat_probes", "corrupt_workers_quarantined",
                            "fingerprint_failures"):
                    assert key not in d
        run(body())

    def test_stats_dict_gains_counters_with_config(self):
        async def body():
            async with PoolService(
                workers=1, integrity=IntegrityConfig()
            ) as svc:
                await svc.submit(_req())
                d = svc.stats.to_dict()
                assert d["audits_run"] == 0
                assert d["fingerprint_failures"] == 0
        run(body())

    def test_internal_tenant_rejected_at_submit(self):
        async def body():
            async with PoolService(workers=1) as svc:
                with pytest.raises(ServeError, match="reserved"):
                    await svc.submit(_req(tenant=INTERNAL_TENANT))
        run(body())


# ---------------------------------------------------------------------------
# Fingerprint verification: transit corruption never reaches the caller.
# ---------------------------------------------------------------------------

class TestFingerprintVerification:
    def test_clean_response_carries_verified_fingerprint(self):
        async def body():
            async with PoolService(
                workers=1, integrity=IntegrityConfig()
            ) as svc:
                res = await svc.submit(_req())
                assert res.fingerprint_ok is True
                assert res.fingerprint == fingerprint_result(res.result)
        run(body())

    def test_payload_corruption_retried_and_quarantined(self):
        async def body():
            async with PoolService(
                workers=2, retry=RETRY, integrity=IntegrityConfig()
            ) as svc:
                direct = execute_request(_req())
                for seed in range(4):
                    res = await svc.submit(_req(
                        seed=0, chaos_corrupt_payload=(0,)))
                    # Corrupt bytes never served; retried elsewhere.
                    assert res.worker != 0
                    assert res.output.tobytes() == direct.output.tobytes()
                s = svc.stats
                assert s.fingerprint_failures >= RETRY.quarantine_after
                assert s.quarantined == (0,)
                assert s.corrupt_workers_quarantined == 1
                assert s.retries >= s.fingerprint_failures
        run(body())

    def test_every_worker_corrupt_exhausts_retries(self):
        async def body():
            async with PoolService(
                workers=2,
                retry=RetryPolicy(max_attempts=3, quarantine_after=8),
                integrity=IntegrityConfig(),
            ) as svc:
                with pytest.raises(IntegrityError) as ei:
                    await svc.submit(_req(chaos_corrupt_payload=(0, 1)))
                assert ei.value.slot in (0, 1)
                assert ei.value.request is not None
                assert svc.stats.failed == 1
        run(body())

    def test_stale_corrupt_reply_still_charges_the_worker(self):
        # A hedge winner resolves the request; the loser's corrupt
        # reply arrives *stale* -- its (worker, attempt) tag no longer
        # matches an outstanding dispatch -- and must still count
        # against the corrupt slot.
        async def body():
            async with PoolService(
                workers=2,
                retry=RETRY,
                resilience=ResilienceConfig(hedge_after_ms=80.0),
                integrity=IntegrityConfig(),
            ) as svc:
                res = await svc.submit(_req(
                    chaos_slow_ms=500.0, chaos_slow_attempts=(0,),
                    chaos_corrupt_payload=(0,),
                ))
                # Hedge leg (attempt 1, other worker) wins cleanly.
                assert res.worker == 1
                assert res.fingerprint_ok is True
                await _drain(svc)
                assert svc.stats.fingerprint_failures == 1
        run(body())


# ---------------------------------------------------------------------------
# Audits: a corrupt core is convicted by re-execution + tie-break.
# ---------------------------------------------------------------------------

class TestAudits:
    def test_clean_audit_matches(self):
        async def body():
            async with PoolService(
                workers=3, retry=RETRY,
                integrity=IntegrityConfig(audit_rate=1.0),
            ) as svc:
                res = await svc.submit(_req())
                assert res.audited
                await _drain(svc)
                s = svc.stats
                assert s.audits_run == 1
                assert s.audit_mismatches == 0
                assert not svc.integrity_errors
        run(body())

    def test_corrupt_core_convicted(self):
        async def body():
            async with PoolService(
                workers=3, retry=RETRY,
                integrity=IntegrityConfig(audit_rate=1.0),
            ) as svc:
                res = await svc.submit(_req(chaos_corrupt_output=(0,)))
                # Lowest-slot tie-break: the corrupt worker serves it,
                # and the self-consistent fingerprint verifies.
                assert res.worker == 0
                assert res.fingerprint_ok is True
                await _drain(svc)
                s = svc.stats
                assert s.audit_mismatches == 1
                errs = svc.integrity_errors
                assert len(errs) == 1
                assert isinstance(errs[0], IntegrityError)
                assert errs[0].slot == 0
                assert errs[0].divergence is not None
                assert 0 in s.quarantined
                assert s.corrupt_workers_quarantined == 1
        run(body())

    def test_audit_leg_on_corrupt_worker_also_convicts_it(self):
        # The *origin* is clean; the audit re-execution lands on the
        # corrupt worker.  The tie-break must convict the auditor, not
        # the innocent origin.
        async def body():
            async with PoolService(
                workers=3, retry=RETRY,
                integrity=IntegrityConfig(audit_rate=1.0),
            ) as svc:
                res = await svc.submit(_req(chaos_corrupt_output=(1,)))
                assert res.worker == 0
                await _drain(svc)
                errs = svc.integrity_errors
                if errs:  # audit leg landed on worker 1
                    assert all(e.slot == 1 for e in errs)
                    assert 0 not in svc.stats.quarantined
        run(body())

    def test_sampling_respects_rate_zero(self):
        async def body():
            async with PoolService(
                workers=2, integrity=IntegrityConfig(audit_rate=0.0)
            ) as svc:
                res = await svc.submit(_req())
                assert not res.audited
                await _drain(svc)
                assert svc.stats.audits_run == 0
        run(body())


# ---------------------------------------------------------------------------
# KAT probes: a corrupt core is caught with no user traffic at all.
# ---------------------------------------------------------------------------

class TestKatProbes:
    def test_quiet_fleet_probed_clean(self):
        async def body():
            async with PoolService(
                workers=2, retry=RETRY,
                integrity=IntegrityConfig(kat_interval_ms=30.0),
            ) as svc:
                for _ in range(100):
                    await asyncio.sleep(0.03)
                    if svc.stats.kat_probes >= 3:
                        break
                assert svc.stats.kat_probes >= 3
                assert not svc.integrity_errors
                assert not svc.stats.quarantined
        run(body())

    def test_corrupt_core_convicted_between_requests(self):
        async def body():
            async with PoolService(
                workers=3, retry=RETRY,
                integrity=IntegrityConfig(
                    kat_interval_ms=30.0,
                    kat_chaos_corrupt_output=(1,),
                ),
            ) as svc:
                for _ in range(200):
                    await asyncio.sleep(0.03)
                    if svc.integrity_errors:
                        break
                errs = svc.integrity_errors
                assert errs and all(e.slot == 1 for e in errs)
                assert 1 in svc.stats.quarantined
                # The healthy slots keep serving.
                res = await svc.submit(_req())
                assert res.worker != 1
        run(body())


# ---------------------------------------------------------------------------
# Envelope: pickling and the integrity metadata fields.
# ---------------------------------------------------------------------------

class TestResponseEnvelope:
    def test_response_pickles_with_integrity_fields(self):
        async def body():
            async with PoolService(
                workers=2, retry=RETRY,
                integrity=IntegrityConfig(audit_rate=1.0),
            ) as svc:
                res = await svc.submit(_req())
                await _drain(svc)
                clone = pickle.loads(pickle.dumps(res))
                assert isinstance(clone, PoolResponse)
                assert clone.fingerprint == res.fingerprint
                assert clone.fingerprint_ok is True
                assert clone.audited == res.audited
                assert clone.output.tobytes() == res.output.tobytes()
                assert clone.latency == res.latency
                # detach() on the carried result stays available after
                # the worker-boundary round trip.
                detached = clone.result.detach()
                assert fingerprint_result(detached) == clone.fingerprint
        run(body())

    def test_request_pickles_with_chaos_fields(self):
        req = _req(
            fingerprint=True,
            chaos_corrupt_output=(0,),
            chaos_corrupt_payload=(1,),
        )
        clone = pickle.loads(pickle.dumps(req))
        assert clone.fingerprint
        assert clone.chaos_corrupt_output == (0,)
        assert clone.chaos_corrupt_payload == (1,)
        assert clone.x.tobytes() == req.x.tobytes()

    def test_new_fields_excluded_from_geometry_key(self):
        from repro.serve import geometry_key

        plain = _req()
        flagged = _req(
            fingerprint=True,
            chaos_corrupt_output=(0,),
            chaos_corrupt_payload=(1,),
        )
        assert geometry_key(plain) == geometry_key(flagged)
