"""Worker processes: one simulated chip + program cache per process.

Each worker is a plain ``multiprocessing`` process running
:func:`worker_main`: it pulls request messages off its private inbox,
executes them through the public :mod:`repro.ops.api` entry points
(so served results are byte-identical to direct calls by
construction), and pushes slim, picklable results onto its private
outbox.  The reply queue is deliberately *per worker* (and a plain
``SimpleQueue``, so there is no feeder thread between the worker and
the pipe): the stall watchdog terminates hung workers with SIGTERM,
and a process killed mid-write dies holding its queue's write lock.
With one shared reply queue that single poisoned semaphore would wedge
every other worker's replies forever -- a fleet-wide outage from one
kill.  A private queue dies with its worker and is replaced on
respawn, exactly like the inbox.  Because every Python process has its
own module state, each
worker automatically owns a private :data:`repro.sim.PROGRAM_CACHE` --
the coalescer's whole job (:mod:`repro.serve.batching`) is to route
same-geometry requests back to the worker whose cache is already warm.

Crash semantics are deliberately blunt: a chaos-marked request (or an
explicit crash control message) terminates the process with
``os._exit``, exactly like a seg-faulting accelerator driver -- no
exception travels back, the parent only sees the process die.  The
service layer's recovery (:mod:`repro.serve.service`) mirrors the
chip-level resilient dispatcher in :mod:`repro.sim.faults`: bounded
retry on another worker, quarantine after repeated failures, respawn.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass, field, replace as _dc_replace
from typing import TYPE_CHECKING, Any

import numpy as np

from ..config import ASCEND910, ChipConfig
from ..errors import ReproError, ServeError
from ..sim.fingerprint import fingerprint_result
from .batching import PoolRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..ops.base import PoolRunResult

#: Exit code of a chaos-crashed worker (distinguishable from clean 0).
CRASH_EXIT_CODE = 17

#: Inbox message tags.
MSG_RUN = "run"
MSG_CRASH = "crash"
MSG_STATS = "stats"


def execute_request(
    request: PoolRequest, config: ChipConfig = ASCEND910
) -> "PoolRunResult":
    """Run one request through the public operator API.

    The single execution path shared by worker processes and the
    serve tests' byte-identity oracle: whatever this returns *is* what
    a direct :mod:`repro.ops.api` call returns, because it is one.
    """
    from ..ops import api

    common = dict(
        config=config,
        collect_trace=request.collect_trace,
        execute=request.execute,
        model=request.model,
        plan=request.plan,
    )
    if request.kind == "maxpool":
        return api.maxpool(
            request.x, request.spec, impl=request.impl,
            with_mask=request.with_mask, **common,
        )
    if request.kind == "avgpool":
        return api.avgpool(request.x, request.spec, impl=request.impl, **common)
    if request.kind == "maxpool_backward":
        return api.maxpool_backward(
            request.mask, request.x, request.spec, request.ih, request.iw,
            impl=request.impl, **common,
        )
    if request.kind == "avgpool_backward":
        return api.avgpool_backward(
            request.x, request.spec, request.ih, request.iw,
            impl=request.impl, **common,
        )
    raise ServeError(f"unknown request kind {request.kind!r}")


def _flip_one_bit(arr: np.ndarray, salt: bytes) -> np.ndarray:
    """A copy of ``arr`` with one deterministically-chosen bit flipped.

    The byte and bit positions derive from a CRC-32 of ``salt`` (the
    worker/attempt coordinates plus a stage tag), so a chaos run
    replays bit-identically under the same placement -- the same
    determinism contract as :class:`repro.sim.faults.BitFlip`.
    """
    out = np.ascontiguousarray(arr).copy()
    raw = out.view(np.uint8).reshape(-1)
    raw[zlib.crc32(salt) % raw.size] ^= np.uint8(
        1 << (zlib.crc32(salt + b"/bit") % 8)
    )
    return out


def corrupt_result(
    result: "PoolRunResult", worker_id: int, attempt: int, stage: str
) -> "PoolRunResult":
    """Chaos hook: a copy of ``result`` with one flipped bit.

    Flips the output tensor when present, else the mask; a cycles-only
    result (no arrays) is returned unchanged -- there is nothing to
    corrupt.  ``stage`` salts the position so output- and
    payload-stage corruptions of the same dispatch differ.
    """
    salt = b"corrupt/%s/%d/%d" % (stage.encode("ascii"), worker_id, attempt)
    if result.output is not None:
        return _dc_replace(result, output=_flip_one_bit(result.output, salt))
    if result.mask is not None:
        return _dc_replace(result, mask=_flip_one_bit(result.mask, salt))
    return result


def cache_snapshot() -> dict[str, int]:
    """This process's shared-program-cache counters (for observability)."""
    from ..sim import PROGRAM_CACHE

    s = PROGRAM_CACHE.stats
    return {
        "entries": len(PROGRAM_CACHE),
        "hits": s.hits,
        "misses": s.misses,
        "jit_hits": s.jit_hits,
        "jit_misses": s.jit_misses,
        "summary_fallbacks": s.summary_fallbacks,
    }


def worker_main(
    worker_id: int, inbox: Any, outbox: Any, config: ChipConfig
) -> None:
    """The worker process loop (module-level so ``spawn`` can pickle it).

    Replies carry ``(tag, req_id, worker_id, attempt, payload...)`` so
    the service can discard stale messages after a retry reassigned
    the request.  Library errors travel back by name+message (the
    exception classes all pickle, but name+message is version-proof
    and enough to re-raise a :class:`~repro.errors.ServeError`).
    """
    from ..sim import PROGRAM_CACHE

    # Under the fork start method the child inherits whatever the parent
    # process had cached; start from a clean slate so every worker's
    # cache holds exactly what *its* requests warmed (the counters
    # reported by cache_snapshot are meaningless otherwise).
    PROGRAM_CACHE.clear()
    while True:
        msg = inbox.get()
        if msg is None:
            return
        tag = msg[0]
        if tag == MSG_CRASH:
            os._exit(CRASH_EXIT_CODE)
        if tag == MSG_STATS:
            outbox.put((MSG_STATS, msg[1], worker_id, cache_snapshot()))
            continue
        _, req_id, attempt, request = msg
        if attempt in request.chaos_crash_attempts:
            os._exit(CRASH_EXIT_CODE)
        if attempt in request.chaos_stall_attempts:
            # Hang forever, alive: the process keeps existing (liveness
            # checks stay green) but never replies and never reads its
            # inbox again -- exactly the fault class only the service's
            # stall watchdog can see.  SIGTERM (the watchdog's remedy)
            # still terminates the wait.
            threading.Event().wait()
        if request.chaos_slow_ms > 0 and (
            not request.chaos_slow_attempts
            or attempt in request.chaos_slow_attempts
        ):
            time.sleep(request.chaos_slow_ms / 1e3)
        try:
            result = execute_request(request, config)
            if not request.collect_trace:
                result = result.detach()
            # Silent-corruption chaos hooks (see PoolRequest): a corrupt
            # *core* flips a bit before the fingerprint is taken (the
            # reply stays self-consistent; only audits/KAT probes can
            # see it), a corrupt *transport* flips one after (caught by
            # the service-side fingerprint re-verification).
            if worker_id in request.chaos_corrupt_output:
                result = corrupt_result(result, worker_id, attempt, "output")
            fp = fingerprint_result(result) if request.fingerprint else None
            if worker_id in request.chaos_corrupt_payload:
                result = corrupt_result(result, worker_id, attempt, "payload")
            if attempt in request.chaos_drop_reply:
                continue  # executed, but the reply vanishes
            outbox.put(("ok", req_id, worker_id, attempt, result, fp))
        except ReproError as exc:
            outbox.put(
                ("err", req_id, worker_id, attempt,
                 type(exc).__name__, str(exc))
            )
        except Exception as exc:  # pragma: no cover - defensive
            outbox.put(
                ("err", req_id, worker_id, attempt,
                 type(exc).__name__, str(exc))
            )


@dataclass
class WorkerHandle:
    """Service-side view of one worker slot.

    A *slot* is stable across respawns (slot 2 dying and being
    respawned yields a fresh process in slot 2 with a bumped
    ``generation``); ``failures`` accumulates across generations and
    drives quarantine, mirroring
    :attr:`repro.sim.faults.RetryPolicy.quarantine_after`.
    """

    slot: int
    process: Any
    inbox: Any
    outbox: Any
    generation: int = 0
    alive: bool = True
    quarantined: bool = False
    #: Set by the stall watchdog after it terminated a hung-but-alive
    #: body; cleared by the respawn (the fresh handle starts False).
    suspected_stalled: bool = False
    failures: int = 0
    inflight: int = 0
    served: int = 0

    @property
    def healthy(self) -> bool:
        return (
            self.alive and not self.quarantined
            and not self.suspected_stalled
        )

    def send(self, msg: Any) -> None:
        if not self.alive:
            raise ServeError(f"worker slot {self.slot} is not alive")
        self.inbox.put(msg)

    def terminate(self) -> None:
        """SIGTERM the body; one that is already reaped is not an error."""
        try:
            self.process.terminate()
        except (OSError, ValueError):  # already gone / process closed
            pass

    def retire_inbox(self) -> None:
        """Release the inbox of a dead (or shut-down) worker.

        ``cancel_join_thread`` first: the inbox pipe may still hold
        request payloads nobody will ever read, and without it the
        queue's feeder thread is *joined at interpreter exit* -- which
        blocks forever on the full, readerless pipe and hangs the
        whole process at shutdown.
        """
        try:
            self.inbox.cancel_join_thread()
            self.inbox.close()
        except (OSError, ValueError):  # already closed/torn down
            pass

    def retire_outbox(self) -> None:
        """Release the reply queue of a dead (or shut-down) worker.

        Safe only once nobody is selecting on its reader anymore (the
        collector thread has been joined, or the handle has been
        replaced and the collector re-snapshotted).  ``SimpleQueue``
        has no feeder thread, so this is just closing two pipe ends.
        """
        try:
            self.outbox.close()
        except (OSError, ValueError):  # already closed/torn down
            pass


def spawn_worker(
    ctx: Any,
    slot: int,
    config: ChipConfig,
    generation: int = 0,
) -> WorkerHandle:
    """Start one worker process and return its handle.

    Each (re)spawn gets a *fresh* inbox and a *fresh* reply queue: the
    old queues may hold messages for the dead generation -- or lock
    state poisoned by a process killed mid-write -- and fresh ones
    guarantee the new process starts from a clean mailbox either way.
    """
    inbox = ctx.Queue()
    outbox = ctx.SimpleQueue()
    process = ctx.Process(
        target=worker_main,
        args=(slot, inbox, outbox, config),
        daemon=True,
        name=f"repro-serve-worker-{slot}",
    )
    process.start()
    return WorkerHandle(
        slot=slot, process=process, inbox=inbox, outbox=outbox,
        generation=generation,
    )
