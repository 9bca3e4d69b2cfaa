"""Deterministic fault injection and the resilience vocabulary.

The paper's evaluation assumes every AI Core executes its tile program
flawlessly; a production fleet does not.  Real accelerator deployments
see stalled cores, transient scratch-pad corruption and cycle-budget
overruns -- and GEMM-based lowering pipelines are notoriously sensitive
to silent layout corruption (the im2col indirection layers of
arXiv:2110.03901 / arXiv:2209.09434 stress exactly this data-movement
integrity).  This module supplies the *failure model* half of the
fault-tolerant execution stack; :mod:`repro.sim.chip` supplies the
recovery half (retry, reassignment, quarantine, degradation).

Everything here is **seeded and deterministic**: a :class:`FaultPlan`
is a frozen value object, :meth:`FaultPlan.generate` is a pure function
of its seed, and injection decisions depend only on
``(tile, core, attempt)`` -- so a chaos run replays bit-identically
under the same seed, which is what lets the differential fuzzer's
chaos route (``python -m repro.validate --chaos``) assert recovered
outputs equal the fault-free run.

Fault kinds
-----------

* :class:`Stall`    -- a core loses ``cycles`` extra cycles on a tile
  (transient contention); never fails the tile, only slows it.
* :class:`Crash`    -- the core dies mid-program at an instruction
  index, raising :class:`~repro.errors.CoreFailure`; partial global-
  memory effects are rolled back by the chip before the retry.
* :class:`BitFlip`  -- transient UB/L1 corruption: one bit of one
  scratch-pad element flips at an instruction boundary.  ``detected``
  flips model parity/ECC-checked memories and raise
  :class:`~repro.errors.CoreFailure` at the corruption point;
  undetected flips propagate silently and exist so tests can show the
  reference oracle catches them.
* :class:`Deadline` -- a cycle budget: the tile's makespan under the
  active :class:`~repro.sim.scheduler.ExecutionModel` (plus any
  injected stall) must stay within ``budget`` or the attempt fails
  with :class:`~repro.errors.DeadlineExceeded`.

Each fault names the flat work-item index it targets (``tile``), and
optionally the core it is bound to (``core=None`` fires anywhere) and
the retry ``attempts`` it fires on (``None`` = every attempt; the
default ``(0,)`` models a transient that a retry clears).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Union

import numpy as np

from ..errors import CoreFailure, FaultInjectionError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isa.program import Program
    from .aicore import AICore


# ---------------------------------------------------------------------------
# Fault kinds.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stall:
    """A core loses ``cycles`` extra cycles executing a tile."""

    tile: int
    cycles: int
    core: int | None = None
    attempts: tuple[int, ...] | None = (0,)


@dataclass(frozen=True)
class Crash:
    """The core dies before executing instruction ``at_instruction``.

    Indices beyond the program's length fire after its last
    instruction (the core crashed while retiring the tile).
    """

    tile: int
    at_instruction: int = 0
    core: int | None = None
    attempts: tuple[int, ...] | None = (0,)


@dataclass(frozen=True)
class BitFlip:
    """One bit of one scratch-pad element flips mid-program.

    ``offset`` is reduced modulo the buffer's element count and ``bit``
    modulo the element width, so one plan is valid on any chip
    configuration.  ``detected=True`` (the default) models ECC/parity
    memories: the corruption is applied *and* the core raises
    :class:`~repro.errors.CoreFailure` at the same instruction
    boundary, giving the dispatch layer a clean retry point.
    """

    tile: int
    buffer: str = "UB"
    offset: int = 0
    bit: int = 0
    at_instruction: int = 0
    detected: bool = True
    core: int | None = None
    attempts: tuple[int, ...] | None = (0,)


@dataclass(frozen=True)
class Deadline:
    """Cycle budget for a tile: makespan above ``budget`` fails it."""

    tile: int
    budget: int
    core: int | None = None
    attempts: tuple[int, ...] | None = (0,)


Fault = Union[Stall, Crash, BitFlip, Deadline]

#: Fault kinds whose firing *fails* the attempt (Stall only slows it;
#: Deadline fails only when the budget is actually exceeded).
FAILING_KINDS = (Crash, BitFlip)


def _validate_fault(f: Fault) -> None:
    if f.tile < 0:
        raise FaultInjectionError(f"fault targets negative tile {f.tile}: {f}")
    if f.core is not None and f.core < 0:
        raise FaultInjectionError(f"fault targets negative core {f.core}: {f}")
    if f.attempts is not None:
        if not f.attempts:
            raise FaultInjectionError(
                f"fault has an empty attempts tuple (it can never fire); "
                f"use attempts=None to fire on every attempt: {f}"
            )
        if any(a < 0 for a in f.attempts):
            raise FaultInjectionError(f"fault names a negative attempt: {f}")
    if isinstance(f, Stall) and f.cycles <= 0:
        raise FaultInjectionError(f"stall must cost at least one cycle: {f}")
    if isinstance(f, Crash) and f.at_instruction < 0:
        raise FaultInjectionError(f"crash index must be >= 0: {f}")
    if isinstance(f, BitFlip):
        if f.at_instruction < 0:
            raise FaultInjectionError(f"bit-flip index must be >= 0: {f}")
        if f.offset < 0 or f.bit < 0:
            raise FaultInjectionError(
                f"bit-flip offset/bit must be >= 0: {f}"
            )
        if not f.buffer:
            raise FaultInjectionError(f"bit-flip names no buffer: {f}")
    if isinstance(f, Deadline) and f.budget <= 0:
        raise FaultInjectionError(f"deadline budget must be positive: {f}")


# ---------------------------------------------------------------------------
# The plan: a frozen, seeded value object.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of faults to inject into one chip run.

    Validated eagerly: a malformed plan raises
    :class:`~repro.errors.FaultInjectionError` at construction, never
    mid-run.  Plans compare by value, so the chaos determinism contract
    (same seed => same plan) is a plain ``==``.
    """

    faults: tuple[Fault, ...] = ()
    #: Provenance when built by :meth:`generate`; purely informational.
    seed: int | None = None

    def __post_init__(self) -> None:
        for f in self.faults:
            _validate_fault(f)

    def __len__(self) -> int:
        return len(self.faults)

    @property
    def can_fail(self) -> bool:
        """Whether any fault can fail an attempt (vs. only slow it)."""
        return any(
            isinstance(f, FAILING_KINDS) or isinstance(f, Deadline)
            for f in self.faults
        )

    @property
    def silent_only(self) -> bool:
        """Whether every fault is an *undetected* :class:`BitFlip`.

        Silent-only plans never fail an attempt, need no retry point and
        no global-memory rollback, so they are the one fault shape that
        composes with ``execute="jit"``: the chip applies them to the
        kernel's output tensors after the fused kernel runs
        (:func:`apply_silent_flips_to_gm`) instead of at an
        instruction boundary the JIT does not have.
        """
        return all(
            isinstance(f, BitFlip) and not f.detected for f in self.faults
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        num_tiles: int,
        num_cores: int | None = None,
        rate: float = 0.35,
    ) -> "FaultPlan":
        """A seeded random plan over ``num_tiles`` work items.

        Deterministic per ``seed`` (uses its own :class:`random.Random`;
        never global state).  Every generated fault is *recoverable by
        construction* under the default :class:`RetryPolicy`: faults
        fire on attempts 0 (and sometimes 1) only, so the bounded retry
        always has a clean attempt left.  ``num_cores`` optionally pins
        a fraction of faults to a concrete core, exercising the
        reassignment path (a core-bound fault cannot follow the tile to
        its new core).
        """
        if num_tiles < 0:
            raise FaultInjectionError("num_tiles must be >= 0")
        if not 0.0 <= rate <= 1.0:
            raise FaultInjectionError("rate must be in [0, 1]")
        rng = random.Random(seed)
        faults: list[Fault] = []
        for t in range(num_tiles):
            if rng.random() >= rate:
                continue
            attempts: tuple[int, ...] = (
                (0,) if rng.random() < 0.7 else (0, 1)
            )
            core: int | None = None
            if num_cores and rng.random() < 0.25:
                core = rng.randrange(num_cores)
                # A core-bound transient must fire on first contact:
                # later attempts may run elsewhere.
                attempts = (0,)
            kind = rng.choice(("stall", "crash", "bitflip", "deadline"))
            if kind == "stall":
                faults.append(
                    Stall(t, cycles=rng.randrange(16, 4096), core=core,
                          attempts=attempts)
                )
            elif kind == "crash":
                faults.append(
                    Crash(t, at_instruction=rng.randrange(0, 48), core=core,
                          attempts=attempts)
                )
            elif kind == "bitflip":
                faults.append(
                    BitFlip(
                        t,
                        buffer="UB",
                        offset=rng.randrange(0, 4096),
                        bit=rng.randrange(0, 16),
                        at_instruction=rng.randrange(0, 48),
                        core=core,
                        attempts=attempts,
                    )
                )
            else:
                faults.append(
                    Deadline(t, budget=rng.randrange(1, 2048), core=core,
                             attempts=attempts)
                )
        return cls(faults=tuple(faults), seed=seed)


# ---------------------------------------------------------------------------
# The injector: plan -> per-attempt injections.
# ---------------------------------------------------------------------------

_UINT_FOR_ITEMSIZE = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


@dataclass(frozen=True)
class Injection:
    """The faults that fire on one ``(tile, core, attempt)`` execution.

    Built by :class:`FaultInjector`; consumed by
    :meth:`repro.sim.aicore.AICore.run` (crash/bit-flip, numeric mode)
    and by the chip's resilient dispatch (stall/deadline accounting and
    cycles-mode faulting).
    """

    tile: int
    core: int
    attempt: int
    stall: int = 0
    crash_at: int | None = None
    bitflips: tuple[BitFlip, ...] = ()
    deadline: int | None = None

    @property
    def can_fail(self) -> bool:
        """Whether this injection can fail the attempt (and therefore
        whether partial global-memory effects need a rollback plan)."""
        return (
            self.crash_at is not None
            or self.deadline is not None
            or any(b.detected for b in self.bitflips)
        )

    # -- numeric-mode execution hook -----------------------------------
    def run(self, core: "AICore", program: "Program") -> None:
        """Execute ``program`` on ``core`` with this injection applied.

        The instruction-by-instruction data pass of
        :meth:`AICore.run`, with fault sites visited at every
        instruction boundary (including one past the last instruction,
        where out-of-range fault indices land).
        """
        n = len(program.instructions)
        for idx, instr in enumerate(program.instructions):
            self._fire(core, idx, n, program)
            instr.execute(core)
        self._fire(core, n, n, program)

    def _fire(
        self, core: "AICore", idx: int, n: int, program: "Program"
    ) -> None:
        for b in self.bitflips:
            if min(b.at_instruction, n) != idx:
                continue
            self._apply_flip(core, b)
            if b.detected:
                raise CoreFailure(
                    f"core {self.core}: detected bit flip in {b.buffer!r} "
                    f"(element {b.offset}, bit {b.bit}) at instruction "
                    f"{idx}/{n} of {program.name!r} (attempt {self.attempt})"
                )
        if self.crash_at is not None and min(self.crash_at, n) == idx:
            raise CoreFailure(
                f"core {self.core} crashed at instruction {idx}/{n} of "
                f"{program.name!r} (attempt {self.attempt})"
            )

    @staticmethod
    def _apply_flip(core: "AICore", b: BitFlip) -> None:
        buf = core.buffers.get(b.buffer)
        if buf is None:
            raise FaultInjectionError(
                f"bit-flip targets unknown scratch buffer {b.buffer!r}; "
                f"this core has {sorted(core.buffers)}"
            )
        itemsize = buf.data.dtype.itemsize
        raw = buf.data.view(_UINT_FOR_ITEMSIZE[itemsize])
        raw[b.offset % raw.size] ^= raw.dtype.type(1) << (
            b.bit % (8 * itemsize)
        )


class FaultInjector:
    """Runtime view of a :class:`FaultPlan`: answers, for every
    ``(tile, core, attempt)``, which faults fire.

    Stateless per query (all decisions are pure functions of the plan
    and the coordinates), so one injector can be shared across replays
    and both replays see identical faults.
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultInjectionError(
                f"expected a FaultPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        self._by_tile: dict[int, list[Fault]] = {}
        for f in plan.faults:
            self._by_tile.setdefault(f.tile, []).append(f)

    def injection(
        self, tile: int, core: int, attempt: int
    ) -> Injection | None:
        """The :class:`Injection` for one execution, or ``None`` when no
        fault matches (the overwhelmingly common case)."""
        matches = [
            f
            for f in self._by_tile.get(tile, ())
            if (f.core is None or f.core == core)
            and (f.attempts is None or attempt in f.attempts)
        ]
        if not matches:
            return None
        stall = sum(f.cycles for f in matches if isinstance(f, Stall))
        crashes = [
            f.at_instruction for f in matches if isinstance(f, Crash)
        ]
        flips = tuple(f for f in matches if isinstance(f, BitFlip))
        budgets = [f.budget for f in matches if isinstance(f, Deadline)]
        return Injection(
            tile=tile,
            core=core,
            attempt=attempt,
            stall=stall,
            crash_at=min(crashes) if crashes else None,
            bitflips=flips,
            deadline=min(budgets) if budgets else None,
        )


def written_gm_tensors(program: "Program", gm) -> list[str]:
    """Sorted names of the global-memory tensors ``program`` writes.

    Every ``instr.writes()`` buffer that ``gm`` holds (global memory
    refuses scratch-pad names) -- what a failed attempt's rollback
    snapshots.
    """
    return sorted({
        r.buffer
        for instr in program.instructions
        for r in instr.writes()
        if r.buffer in gm.tensors
    })


def apply_silent_flips_to_gm(
    gm,
    program: "Program",
    injection: Injection,
    deltas: "Mapping[str, int] | None" = None,
) -> None:
    """Apply an injection's silent bit flips to a tile's *outputs*.

    The JIT path for silent-only plans: a fused kernel has no
    per-instruction boundaries, so an undetected scratch-pad flip is
    modelled by its observable effect instead -- one bit of one element
    the tile wrote to global memory, flipped after the tile's kernel
    call.  Targeting is deterministic: the elements ``program`` writes
    to each global-memory tensor (its ``instr.writes()`` regions, tensors
    in name order), at the tile's ``deltas``, are concatenated into one
    flat index space; ``offset`` picks the element modulo its total size and
    ``bit`` the bit modulo the element width, mirroring the scratch-pad
    rule so one plan is valid for any geometry.  A flip therefore never
    lands in another tile's window, where that tile's store could
    overwrite it.

    Raises :class:`~repro.errors.FaultInjectionError` if the injection
    carries anything but silent flips (the caller should have routed
    those through the resilient dispatch) or the program writes no
    global memory.
    """
    if injection.can_fail or injection.stall:
        raise FaultInjectionError(
            "apply_silent_flips_to_gm handles undetected bit flips only; "
            f"this injection carries stall={injection.stall} "
            f"crash_at={injection.crash_at} deadline={injection.deadline} "
            f"detected_flips="
            f"{[b for b in injection.bitflips if b.detected]}"
        )
    spans: dict[str, list[np.ndarray]] = {}
    for instr in program.instructions:
        for r in instr.writes():
            if r.buffer in gm.tensors:
                spans.setdefault(r.buffer, []).append(
                    np.arange(r.start, r.stop)
                )
    targets = [
        (
            gm.tensors[nm],
            np.unique(np.concatenate(spans[nm]))
            + (deltas.get(nm, 0) if deltas else 0),
        )
        for nm in sorted(spans)
    ]
    total = sum(idx.size for _, idx in targets)
    if not total:
        raise FaultInjectionError(
            f"silent bit-flip targets program {program.name!r} which "
            f"writes no global-memory elements"
        )
    for b in injection.bitflips:
        pos = b.offset % total
        for t, idx in targets:
            if pos < idx.size:
                raw = t.view(_UINT_FOR_ITEMSIZE[t.dtype.itemsize])
                raw[idx[pos]] ^= raw.dtype.type(1) << (
                    b.bit % (8 * t.dtype.itemsize)
                )
                break
            pos -= idx.size


# ---------------------------------------------------------------------------
# Recovery vocabulary: policy, ledger, report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential cycle-cost backoff.

    ``max_attempts`` caps total tries per tile; every retry charges
    ``backoff_cycles * backoff_factor**(attempt-1)`` cycles to the core
    that re-runs the tile (accounted in
    :attr:`ResilienceReport.backoff_cycles` and the chip's per-core
    totals).  A core is quarantined -- excluded from new assignments --
    after ``quarantine_after`` failures.  Under the pipelined timing
    model, retry attempt ``degrade_model_after`` and later fall back to
    the serial model (see :class:`DegradationEvent`); numeric outputs
    are model-independent, so degradation never changes results.
    """

    max_attempts: int = 4
    backoff_cycles: int = 64
    backoff_factor: int = 2
    quarantine_after: int = 3
    degrade_model_after: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultInjectionError("max_attempts must be >= 1")
        if self.backoff_cycles < 0 or self.backoff_factor < 1:
            raise FaultInjectionError(
                "backoff must be non-negative with factor >= 1"
            )
        if self.quarantine_after < 1:
            raise FaultInjectionError("quarantine_after must be >= 1")
        if self.degrade_model_after < 1:
            raise FaultInjectionError("degrade_model_after must be >= 1")

    def backoff(self, attempt: int) -> int:
        """Backoff cycles charged before retry attempt ``attempt``."""
        if attempt < 1:
            return 0
        return self.backoff_cycles * self.backoff_factor ** (attempt - 1)


class CoverageLedger:
    """Audit that every output tile completes **exactly once**.

    The resilient dispatcher records each work item's successful
    completion; a second completion (double write) raises immediately,
    and :meth:`audit` raises on gaps (a tile that never completed) or
    unknown indices.  The ledger is the guarantee-by-audit that retry
    and reassignment, however tangled, neither dropped nor duplicated a
    tile's output.
    """

    def __init__(self) -> None:
        self._completed: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._completed)

    def record(self, tile: int, attempt: int = 0) -> None:
        prior = self._completed.get(tile)
        if prior is not None:
            raise SimulationError(
                f"tile-coverage audit: tile {tile} completed twice "
                f"(attempts {prior} and {attempt}); outputs must be "
                "written exactly once"
            )
        self._completed[tile] = attempt

    def audit(self, expected: int) -> None:
        missing = [t for t in range(expected) if t not in self._completed]
        unknown = sorted(
            t for t in self._completed if not 0 <= t < expected
        )
        if missing or unknown:
            raise SimulationError(
                f"tile-coverage audit failed: expected tiles 0..{expected - 1}"
                f", missing {missing}, unknown {unknown}"
            )


@dataclass(frozen=True)
class FailureRecord:
    """One failed execution attempt, as recorded by the dispatcher."""

    tile: int
    core: int
    attempt: int
    error: str
    message: str


@dataclass(frozen=True)
class DegradationEvent:
    """One graceful-degradation decision taken instead of aborting.

    ``kind`` is ``"cached-to-fresh"`` (a cached summary visibly
    mismatched its program, so the tile re-ran with fresh accounting)
    or ``"pipelined-to-serial"`` (repeated failures under the pipelined
    model; the retry fell back to serial timing).
    """

    kind: str
    tile: int
    detail: str = ""


@dataclass(frozen=True)
class ResilienceReport:
    """Structured account of everything the resilience layer did.

    Attached to :class:`~repro.sim.chip.ChipRunResult` whenever a
    :class:`FaultPlan` or :class:`RetryPolicy` was supplied; ``None``
    on the historical fast path.  Compares by value, so the chaos
    determinism contract (same seed => same report) is a plain ``==``.
    """

    #: Number of faults in the active plan (0 for a bare RetryPolicy).
    plan_faults: int = 0
    #: Total execution attempts, including the successful ones.
    attempts: int = 0
    #: Attempts beyond the first, summed over tiles.
    retries: int = 0
    #: Times a tile moved to a different core than planned.
    reassignments: int = 0
    #: Injected stall cycles actually paid.
    stall_cycles: int = 0
    #: Retry backoff cycles actually paid.
    backoff_cycles: int = 0
    #: Cores quarantined after repeated failures, in quarantine order.
    quarantined_cores: tuple[int, ...] = ()
    failures: tuple[FailureRecord, ...] = ()
    degradations: tuple[DegradationEvent, ...] = ()

    @property
    def extra_cycles(self) -> int:
        """Cycles the run paid that a fault-free run would not have."""
        return self.stall_cycles + self.backoff_cycles

    @property
    def clean(self) -> bool:
        """Whether the run needed no recovery at all."""
        return (
            self.retries == 0
            and self.reassignments == 0
            and self.extra_cycles == 0
            and not self.quarantined_cores
            and not self.failures
            and not self.degradations
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (for ``--json`` exports and benches)."""
        return {
            "plan_faults": self.plan_faults,
            "attempts": self.attempts,
            "retries": self.retries,
            "reassignments": self.reassignments,
            "stall_cycles": self.stall_cycles,
            "backoff_cycles": self.backoff_cycles,
            "extra_cycles": self.extra_cycles,
            "quarantined_cores": list(self.quarantined_cores),
            "failures": [
                {
                    "tile": f.tile,
                    "core": f.core,
                    "attempt": f.attempt,
                    "error": f.error,
                    "message": f.message,
                }
                for f in self.failures
            ],
            "degradations": [
                {"kind": d.kind, "tile": d.tile, "detail": d.detail}
                for d in self.degradations
            ],
        }


def resolve_injector(
    faults: "FaultPlan | FaultInjector | None",
) -> FaultInjector | None:
    """Normalise the ``faults`` argument of the chip entry points."""
    if faults is None:
        return None
    if isinstance(faults, FaultInjector):
        return faults
    return FaultInjector(faults)
