"""ISA-level memory sanitizer: shadow state, poison, and race auditing.

The paper pushes scratch-pad management onto software -- "more
complexity is placed upon the application's code" (Section III-A) -- so
every kernel-builder bug (overlapping allocations, reads of stale UB
data left by the previous tile, operand strides running past a region,
hazard regions that fail to cover what ``execute()`` touches) silently
produces wrong cycles or wrong numerics.  This module is the missing
correctness tool: an MSan/TSan-style strict execution mode, opt-in via
``sanitize=`` on :meth:`repro.sim.aicore.AICore.run` and the chip /
ops / validate layers, and **zero-cost when disabled**.

Per scratch-pad buffer the sanitizer keeps a byte-per-element *shadow
state* array:

* ``POISONED`` -- never allocated by any program on this core;
* ``FREED``    -- allocated by a *previous* program on this core and
  not by the current one (reading it is the classic
  stale-data-from-the-previous-tile bug that zero-init masks);
* ``UNINIT``   -- allocated by the current program but never written;
* ``INIT``     -- written by the current program.

On :meth:`Sanitizer.begin_program` the buffer contents are poison-filled
with :data:`POISON_VALUE` (a finite, fp16-exact sentinel far outside the
test data range -- deliberately *not* NaN so arithmetic stays
deterministic), so any read the shadow state flags also visibly corrupts
the numerics instead of hiding behind :class:`ScratchBuffer`'s zero
init.

Every instruction is then checked on four axes:

1. **bounds** -- each operand's precise element set (derived from
   :meth:`repro.isa.operand.VectorOperand.element_indices` with the
   instruction's mask, or from DMA/fractal lengths) must fall inside a
   single live allocation of the right buffer (live regions come from
   the program's allocation manifest recorded by
   :meth:`repro.tik.builder.KernelBuilder.alloc`);
2. **init** -- reads of ``UNINIT`` / ``FREED`` / ``POISONED`` scratch
   elements raise, classified as ``uninit-read`` / ``stale-read`` /
   ``poison-read``;
3. **region soundness** -- the bytes ``execute()`` *actually* mutated
   (observed by snapshot-diffing every scratch buffer the instruction
   viewed) must be a subset of the regions
   :meth:`repro.isa.instruction.Instruction.writes` declared, proving
   the :class:`repro.sim.scheduler.PipelinedModel` hazard regions are
   genuinely conservative;
4. **race audit** -- :func:`audit_races` re-checks the issue/retire
   timeline from the timed :class:`repro.sim.trace.Trace` for
   overlapping-in-time accesses to overlapping regions, independently
   of the scoreboard that produced the schedule.

Violations raise :class:`repro.errors.SanitizerError` naming the
program, instruction index, opcode, operand and offending byte range;
with ``halt=False`` they are collected into the
:class:`SanitizerReport` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..config import SCRATCH_PADS
from ..dtypes import FRACTAL_ROWS, VECTOR_BYTES_PER_REPEAT
from ..errors import SanitizerError
from ..isa.cube import Mmad
from ..isa.instruction import Instruction, Region
from ..isa.operand import MemRef
from ..isa.scu import Col2ImStore, Im2ColLoad, _plane_indices

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isa.program import Program
    from .aicore import AICore
    from .trace import Trace

__all__ = [
    "POISON_VALUE",
    "SanitizerViolation",
    "BufferCoverage",
    "SanitizerReport",
    "Sanitizer",
    "audit_races",
    "resolve_sanitizer",
]

#: Poison sentinel written into every scratch-pad element on
#: ``begin_program``.  Finite and exactly representable in fp16 (and
#: fp32), far outside the [-8, 8) range fuzzed inputs use, and *not*
#: NaN: a stale read corrupts results deterministically and visibly
#: instead of poisoning comparisons themselves.
POISON_VALUE = -20000.0

# Shadow states (one uint8 per element).
_POISONED = np.uint8(0)
_FREED = np.uint8(1)
_UNINIT = np.uint8(2)
_INIT = np.uint8(3)

#: Violation kind raised for reads of each non-INIT shadow state.
_READ_KIND = {
    int(_POISONED): "poison-read",
    int(_FREED): "stale-read",
    int(_UNINIT): "uninit-read",
}


@dataclass(frozen=True)
class SanitizerViolation:
    """One detected memory-safety violation.

    ``instruction`` is the index into the program (``-1`` for
    program-level findings such as races reported against a pair);
    ``start_byte``/``stop_byte`` is the offending half-open byte range
    within ``buffer``.  ``message`` is the full human-readable
    diagnostic (also the text of the :class:`SanitizerError` raised in
    halting mode).
    """

    kind: str
    program: str
    instruction: int
    opcode: str
    operand: str
    buffer: str
    start_byte: int
    stop_byte: int
    message: str


@dataclass(frozen=True)
class BufferCoverage:
    """Shadow-coverage statistics for one scratch-pad buffer.

    ``declared_bytes`` is the manifest footprint (bytes inside live
    allocations), ``high_water_bytes`` the furthest allocated byte --
    the pair the tiling planner's footprint model is audited against.
    ``initialized_bytes``/``touched_bytes`` say how much of the
    declared footprint the program actually wrote (per the shadow
    state) and how much ``execute()`` observably mutated.
    """

    buffer: str
    capacity_bytes: int
    declared_bytes: int
    high_water_bytes: int
    initialized_bytes: int
    touched_bytes: int


@dataclass
class SanitizerReport:
    """Everything one sanitized run observed.

    Attached to :class:`repro.sim.aicore.RunResult` /
    :class:`repro.sim.chip.ChipRunResult` (and surfaced as
    ``PoolRunResult.sanitizer``).  ``violations`` is empty for a clean
    run; ``coverage`` aggregates per-buffer shadow statistics over
    every program checked (bytes are maxima across programs, so the
    numbers describe the heaviest tile).
    """

    programs: int = 0
    checked_instructions: int = 0
    violations: list[SanitizerViolation] = field(default_factory=list)
    coverage: dict[str, BufferCoverage] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        """True when no violation was recorded."""
        return not self.violations

    def merge(self, other: "SanitizerReport") -> "SanitizerReport":
        """Fold ``other`` into this report (per-core reports are merged
        into one chip-level report this way); returns ``self``."""
        self.programs += other.programs
        self.checked_instructions += other.checked_instructions
        self.violations.extend(other.violations)
        for name, cov in other.coverage.items():
            mine = self.coverage.get(name)
            if mine is None:
                self.coverage[name] = cov
            else:
                self.coverage[name] = BufferCoverage(
                    buffer=name,
                    capacity_bytes=cov.capacity_bytes,
                    declared_bytes=max(
                        mine.declared_bytes, cov.declared_bytes
                    ),
                    high_water_bytes=max(
                        mine.high_water_bytes, cov.high_water_bytes
                    ),
                    initialized_bytes=max(
                        mine.initialized_bytes, cov.initialized_bytes
                    ),
                    touched_bytes=max(
                        mine.touched_bytes, cov.touched_bytes
                    ),
                )
        return self


class _SanitizedContext:
    """ExecutionContext wrapper observing which buffers an instruction
    views, snapshotting scratch buffers lazily on first view so the
    sanitizer can diff actual writes against declared regions."""

    __slots__ = ("_core", "snapshots")

    def __init__(self, core: "AICore") -> None:
        self._core = core
        self.snapshots: dict[str, np.ndarray] = {}

    def view(self, buffer: str) -> np.ndarray:
        """Forward to the core, snapshotting scratch buffers once."""
        arr = self._core.view(buffer)
        if buffer in SCRATCH_PADS and buffer not in self.snapshots:
            self.snapshots[buffer] = arr.copy()
        return arr


@dataclass(frozen=True)
class _Access:
    """One operand's precise element set: either a contiguous span
    (``indices is None``) or an explicit flat index array, both
    relative to the buffer."""

    operand: str
    buffer: str
    is_read: bool
    is_write: bool
    start: int
    stop: int
    indices: np.ndarray | None = None


def _precise_accesses(instr: Instruction) -> list[_Access]:
    """The exact element sets ``instr.execute()`` reads and writes.

    Special-cases the SCU gather/scatter instructions (whose MemRef
    regions over-approximate the touched elements); every other
    instruction is handled by the same per-class operand table that
    powers :meth:`Instruction.reads`/``writes`` -- MemRef operands are
    contiguous spans, VectorOperand operands enumerate
    :meth:`~repro.isa.operand.VectorOperand.element_indices` under the
    instruction's mask.
    """
    if isinstance(instr, Im2ColLoad):
        dt = instr.src.dtype
        c1_extent = instr.src.size // (
            instr.params.ih * instr.params.iw * dt.c0
        )
        gathered: list[np.ndarray] = []
        for c1, xk, yk, patch in instr._positions():
            idx, valid = _plane_indices(
                instr.params, dt, c1, c1_extent, xk, yk, patch, FRACTAL_ROWS
            )
            gathered.append(idx[valid].reshape(-1))
        src_idx = (
            instr.src.offset + np.concatenate(gathered)
            if gathered
            else np.empty(0, dtype=np.int64)
        )
        fractal = FRACTAL_ROWS * dt.c0
        return [
            _Access(
                "src", instr.src.buffer, True, False,
                instr.src.offset, instr.src.end, src_idx,
            ),
            _Access(
                "dst", instr.dst.buffer, False, True,
                instr.dst.offset,
                instr.dst.offset + instr.repeat * fractal,
            ),
        ]
    if isinstance(instr, Col2ImStore):
        dt = instr.src.dtype
        c1_extent = instr.dst.size // (
            instr.params.ih * instr.params.iw * dt.c0
        )
        rows = instr.repeat * FRACTAL_ROWS
        idx, valid = _plane_indices(
            instr.params, dt, instr.c1, c1_extent, instr.xk, instr.yk,
            instr.first_patch, rows,
        )
        dst_idx = instr.dst.offset + idx[valid].reshape(-1)
        # Source rows whose patch is beyond the grid (or in the padding
        # halo) are gathered but *discarded*; only valid rows' contents
        # matter, so only they must be initialized.
        valid_rows = np.flatnonzero(valid)
        src_idx = (
            instr.src.offset
            + (valid_rows[:, None] * dt.c0 + np.arange(dt.c0)[None, :])
        ).reshape(-1)
        return [
            _Access(
                "src", instr.src.buffer, True, False,
                instr.src.offset, instr.src.offset + rows * dt.c0,
                src_idx,
            ),
            _Access(
                "dst", instr.dst.buffer, True, True,
                instr.dst.offset, instr.dst.end, dst_idx,
            ),
        ]
    if isinstance(instr, Mmad):
        fr = FRACTAL_ROWS * FRACTAL_ROWS
        return [
            _Access(
                "a", instr.a.buffer, True, False,
                instr.a.offset, instr.a.offset + instr.repeat * fr,
            ),
            _Access(
                "b", instr.b.buffer, True, False,
                instr.b.offset, instr.b.offset + instr.repeat * fr,
            ),
            _Access(
                "c", instr.c.buffer, not instr.init, True,
                instr.c.offset, instr.c.offset + fr,
            ),
        ]
    # Generic path: the class operand table behind reads()/writes(),
    # with mask-precise indices for vector operands.
    repeat = int(getattr(instr, "repeat", 1))
    mask = getattr(instr, "mask", None)
    rmw = instr.rmw_fields()
    out: list[_Access] = []
    for name, v, is_write in instr.operands():
        is_read = not is_write or name in rmw
        if isinstance(v, MemRef):
            out.append(
                _Access(name, v.buffer, is_read, is_write, v.offset, v.end)
            )
            continue
        dt = v.ref.dtype
        if mask is not None:
            lanes = mask.lanes(dt)
        else:  # pragma: no cover - no maskless vector op ships today
            lanes = np.arange(
                VECTOR_BYTES_PER_REPEAT // dt.itemsize, dtype=np.int64
            )
        idx = v.element_indices(repeat, lanes).reshape(-1)
        lo = int(idx.min()) if idx.size else v.ref.offset
        hi = int(idx.max()) + 1 if idx.size else v.ref.offset
        out.append(
            _Access(name, v.ref.buffer, is_read, is_write, lo, hi, idx)
        )
    return out


def _fmt_bytes(itemsize: int, start: int, stop: int) -> str:
    return f"bytes [{start * itemsize}, {stop * itemsize})"


class Sanitizer:
    """Strict-mode shadow-state checker for one core's execution.

    One instance tracks one core; keep it alive across tiles (the chip
    dispatcher does) so a previous tile's allocations (its program's
    :attr:`~repro.isa.program.Program.allocations`) are remembered as
    ``FREED`` when the next program begins, and stale reads get the
    precise ``stale-read`` diagnosis rather than the generic poison
    one.

    ``halt=True`` (the default) raises :class:`SanitizerError` at the
    first violation; ``halt=False`` records violations into
    :attr:`report` and keeps executing (used by the mutation tests to
    count what a corrupted kernel trips).
    """

    def __init__(self, config, halt: bool = True) -> None:
        self.config = config
        self.halt = halt
        self.report = SanitizerReport()
        #: buffer name -> uint8 shadow array (lazily sized on first use).
        self._shadow: dict[str, np.ndarray] = {}
        #: buffer name -> list[MemRef] live this program.
        self._live: dict[str, list[tuple[str, MemRef]]] = {}
        self._program_name = ""
        self._touched: dict[str, int] = {}

    # -- lifecycle ------------------------------------------------------
    def begin_program(self, core: "AICore", program: "Program") -> None:
        """Arm the sanitizer for one program on ``core``.

        Transitions every element allocated by the previous program to
        ``FREED``, poison-fills the scratch buffers with
        :data:`POISON_VALUE`, then marks the new program's manifest
        allocations ``UNINIT``.  A program with an *empty* manifest
        (hand-built, no :class:`~repro.tik.builder.KernelBuilder`)
        falls back to a single whole-buffer live region per buffer;
        with a non-empty manifest, a buffer the manifest does not
        mention has **no** live regions -- the builder allocated
        everything the kernel may touch, so any access is out of
        bounds.
        """
        self._program_name = program.name
        self._live = {}
        self._touched = {}
        manifest = program.allocations
        for name, buf in core.buffers.items():
            shadow = self._shadow.get(name)
            if shadow is None:
                shadow = np.full(buf.capacity_elems, _POISONED, np.uint8)
                self._shadow[name] = shadow
            else:
                shadow[shadow >= _UNINIT] = _FREED
            buf.poison(POISON_VALUE)
            refs = manifest.get(name)
            if refs:
                self._live[name] = sorted(
                    refs.items(), key=lambda kv: kv[1].offset
                )
                for _, ref in refs.items():
                    # FREED bytes stay FREED inside the new allocation:
                    # they are just as unwritten as UNINIT ones, but a
                    # read deserves the precise stale-read diagnosis
                    # (the previous tile's data is sitting there).
                    region = shadow[ref.offset : ref.end]
                    region[region == _POISONED] = _UNINIT
            elif not manifest:
                whole = MemRef(name, 0, buf.capacity_elems, buf.dtype)
                self._live[name] = [("<whole-buffer>", whole)]
                shadow[shadow == _POISONED] = _UNINIT
            else:
                self._live[name] = []
        self.report.programs += 1

    def end_program(self, core: "AICore", program: "Program") -> None:
        """Record per-buffer coverage statistics for the finished
        program into :attr:`report` (maxima across programs)."""
        for name, buf in core.buffers.items():
            shadow = self._shadow[name]
            itemsize = buf.dtype.itemsize
            declared = sum(
                ref.size for _, ref in self._live.get(name, ())
            )
            high_water = max(
                (ref.end for _, ref in self._live.get(name, ())), default=0
            )
            cov = BufferCoverage(
                buffer=name,
                capacity_bytes=buf.spec.capacity_bytes,
                declared_bytes=declared * itemsize,
                high_water_bytes=high_water * itemsize,
                initialized_bytes=int((shadow == _INIT).sum()) * itemsize,
                touched_bytes=self._touched.get(name, 0) * itemsize,
            )
            prev = self.report.coverage.get(name)
            if prev is None:
                self.report.coverage[name] = cov
            else:
                self.report.coverage[name] = BufferCoverage(
                    buffer=name,
                    capacity_bytes=cov.capacity_bytes,
                    declared_bytes=max(
                        prev.declared_bytes, cov.declared_bytes
                    ),
                    high_water_bytes=max(
                        prev.high_water_bytes, cov.high_water_bytes
                    ),
                    initialized_bytes=max(
                        prev.initialized_bytes, cov.initialized_bytes
                    ),
                    touched_bytes=max(
                        prev.touched_bytes, cov.touched_bytes
                    ),
                )

    # -- violation plumbing ---------------------------------------------
    def _violate(
        self,
        kind: str,
        idx: int,
        instr: Instruction | None,
        operand: str,
        buffer: str,
        itemsize: int,
        start: int,
        stop: int,
        detail: str,
    ) -> None:
        opcode = instr.opcode if instr is not None else ""
        where = (
            f"program {self._program_name!r}, instruction {idx}"
            + (f" ({opcode})" if opcode else "")
            + (f", operand {operand!r}" if operand else "")
        )
        msg = (
            f"{kind}: {where}: {buffer} "
            f"{_fmt_bytes(itemsize, start, stop)}: {detail}"
        )
        v = SanitizerViolation(
            kind=kind,
            program=self._program_name,
            instruction=idx,
            opcode=opcode,
            operand=operand,
            buffer=buffer,
            start_byte=start * itemsize,
            stop_byte=stop * itemsize,
            message=msg,
        )
        self.report.violations.append(v)
        if self.halt:
            raise SanitizerError(msg)

    # -- per-instruction checking ---------------------------------------
    def run_instruction(
        self,
        core: "AICore",
        program: "Program",
        idx: int,
        instr: Instruction,
    ) -> None:
        """Check, execute and shadow-update one instruction.

        Performs the bounds and init checks *before* ``execute()``
        (the corrupted state never materialises in halting mode), runs
        the instruction under a snapshotting context, then diffs the
        snapshots against the declared write regions and updates the
        shadow state.
        """
        accesses = _precise_accesses(instr)
        for acc in accesses:
            self._check_access(core, idx, instr, acc)
        ctx = _SanitizedContext(core)
        instr.execute(ctx)
        self._check_observed(core, idx, instr, ctx, accesses)
        for acc in accesses:
            if acc.is_write and acc.buffer in self._shadow:
                shadow = self._shadow[acc.buffer]
                if acc.indices is not None:
                    shadow[acc.indices] = _INIT
                else:
                    shadow[acc.start : acc.stop] = _INIT
        self.report.checked_instructions += 1

    def _check_access(
        self, core: "AICore", idx: int, instr: Instruction, acc: _Access
    ) -> None:
        if acc.buffer in SCRATCH_PADS:
            itemsize = core.buffers[acc.buffer].dtype.itemsize
            in_bounds = self._check_bounds(idx, instr, acc, itemsize)
            # Init state is only meaningful for in-bounds accesses; in
            # non-halting mode an out-of-bounds index set could escape
            # the shadow array itself.
            if in_bounds and acc.is_read:
                self._check_init(idx, instr, acc, itemsize)
        else:
            # Global memory: no allocator regions to honour, but the
            # operand must stay inside the tensor.  The view starts at
            # the tile's delta; the report names tensor positions.
            arr = core.view(acc.buffer)
            if acc.start < 0 or acc.stop > arr.size:
                d = core.delta(acc.buffer)
                self._violate(
                    "bounds", idx, instr, acc.operand, acc.buffer,
                    arr.dtype.itemsize, acc.start + d, acc.stop + d,
                    f"operand escapes global tensor of "
                    f"{(arr.size + d) * arr.dtype.itemsize} bytes",
                )

    def _check_bounds(
        self, idx: int, instr: Instruction, acc: _Access, itemsize: int
    ) -> bool:
        """Every accessed element must fall inside *one* live region.

        Returns whether the access was in bounds (always ``True`` in
        halting mode, which raises instead).
        """
        regions = self._live.get(acc.buffer, [])
        home = None
        home_name = ""
        for name, ref in regions:
            if ref.offset <= acc.start < ref.end:
                home, home_name = ref, name
                break
        if home is None or acc.stop > home.end:
            live = ", ".join(
                f"{name}=[{ref.offset * itemsize}, {ref.end * itemsize})"
                for name, ref in regions
            )
            self._violate(
                "bounds", idx, instr, acc.operand, acc.buffer, itemsize,
                acc.start, acc.stop,
                "access outside any single live allocation"
                + (f"; live regions: {live}" if live else "; none live"),
            )
            return False
        if acc.indices is not None and acc.indices.size:
            lo = int(acc.indices.min())
            hi = int(acc.indices.max()) + 1
            if lo < home.offset or hi > home.end:
                self._violate(
                    "bounds", idx, instr, acc.operand, acc.buffer,
                    itemsize, lo, hi,
                    f"strided elements escape live allocation "
                    f"{home_name!r}="
                    f"[{home.offset * itemsize}, {home.end * itemsize})",
                )
                return False
        return True

    def _check_init(
        self, idx: int, instr: Instruction, acc: _Access, itemsize: int
    ) -> None:
        shadow = self._shadow[acc.buffer]
        if acc.indices is not None:
            states = shadow[acc.indices]
            bad = states < _INIT
            if not bad.any():
                return
            worst = int(states[bad].min())
            bad_idx = acc.indices[bad]
            lo, hi = int(bad_idx.min()), int(bad_idx.max()) + 1
        else:
            states = shadow[acc.start : acc.stop]
            bad = states < _INIT
            if not bad.any():
                return
            worst = int(states[bad].min())
            rel = np.flatnonzero(bad)
            lo = acc.start + int(rel.min())
            hi = acc.start + int(rel.max()) + 1
        kind = _READ_KIND[worst]
        detail = {
            "uninit-read": "read of never-written scratch-pad elements",
            "stale-read": (
                "read of data freed by a previous tile's allocator reset "
                "(stale contents that zero-init used to mask)"
            ),
            "poison-read": "read of never-allocated scratch-pad elements",
        }[kind]
        self._violate(
            kind, idx, instr, acc.operand, acc.buffer, itemsize, lo, hi,
            detail,
        )

    def _check_observed(
        self,
        core: "AICore",
        idx: int,
        instr: Instruction,
        ctx: _SanitizedContext,
        accesses: list[_Access],
    ) -> None:
        """Observed writes (snapshot diff) must be declared writes."""
        declared = [r for r in instr.writes()]
        for name, snap in ctx.snapshots.items():
            arr = core.buffers[name].data
            diff = np.flatnonzero(snap != arr)
            if diff.size:
                self._touched[name] = self._touched.get(name, 0) + int(
                    diff.size
                )
            covered = np.zeros(diff.shape, dtype=bool)
            for r in declared:
                if r.buffer == name:
                    covered |= (diff >= r.start) & (diff < r.stop)
            stray = diff[~covered]
            if stray.size:
                lo, hi = int(stray.min()), int(stray.max()) + 1
                self._violate(
                    "undeclared-write", idx, instr, "", name,
                    core.buffers[name].dtype.itemsize, lo, hi,
                    f"execute() mutated {stray.size} element(s) outside "
                    f"the regions writes() declared -- the pipelined "
                    f"hazard regions would not cover this store",
                )

    # -- race auditing ---------------------------------------------------
    def audit(self, program: "Program", trace: "Trace") -> None:
        """Run :func:`audit_races` and fold the findings into the
        report (raising in halting mode)."""
        for v in audit_races(program, trace):
            v = replace(v, program=program.name)
            self.report.violations.append(v)
            if self.halt:
                raise SanitizerError(v.message)


def audit_races(program: "Program", trace: "Trace") -> list[SanitizerViolation]:
    """Re-check a timed schedule for races, independently of the
    scoreboard that produced it.

    Two instructions *race* when their ``[issue, retire)`` intervals
    overlap in time and their conservative operand regions conflict
    (write/write or write/read on overlapping element spans).  Under
    the serial model no intervals overlap, so the audit is trivially
    clean; under the pipelined model a finding proves the scoreboard
    ordered two conflicting accesses only by luck.  Same-unit time
    overlap is reported as ``unit-overlap`` -- units are in-order
    serial timelines, so it can never legally happen.

    Returns the violations found (empty for a clean schedule); records
    must carry issue/retire times (traces built through an
    :class:`repro.sim.scheduler.ExecutionModel` do).
    """
    records = trace.records
    if any(r.issue_at is None or r.retire_at is None for r in records):
        raise SanitizerError(
            "race audit needs a timed trace (issue/retire per record); "
            "build it through an ExecutionModel"
        )
    instrs = program.instructions
    if len(records) != len(instrs):
        raise SanitizerError(
            f"race audit: trace has {len(records)} records but program "
            f"{program.name!r} has {len(instrs)} instructions"
        )
    order = sorted(range(len(records)), key=lambda i: records[i].issue_at)
    active: list[int] = []
    out: list[SanitizerViolation] = []
    reads = [instrs[i].reads() for i in range(len(instrs))]
    writes = [instrs[i].writes() for i in range(len(instrs))]
    for i in order:
        ri = records[i]
        active = [j for j in active if records[j].retire_at > ri.issue_at]
        for j in active:
            rj = records[j]
            if ri.unit == rj.unit:
                out.append(
                    _race_violation(
                        "unit-overlap", program, i, j, ri, rj,
                        Region(ri.unit, 0, 0),
                        f"two {ri.unit!r}-unit instructions overlap in "
                        f"time; unit timelines are serial",
                    )
                )
                continue
            conflict = _first_conflict(
                writes[i], writes[j]
            ) or _first_conflict(
                writes[i], reads[j]
            ) or _first_conflict(
                reads[i], writes[j]
            )
            if conflict is not None:
                out.append(
                    _race_violation(
                        "race", program, i, j, ri, rj, conflict,
                        "overlapping-in-time accesses to overlapping "
                        "regions across units; the scoreboard ordered "
                        "these only by luck",
                    )
                )
        active.append(i)
    return out


def _first_conflict(
    a: Iterable[Region], b: Iterable[Region]
) -> Region | None:
    """The first region of ``a`` overlapping any region of ``b``."""
    bl = list(b)
    for ra in a:
        for rb in bl:
            if ra.overlaps(rb):
                return Region(
                    ra.buffer, max(ra.start, rb.start), min(ra.stop, rb.stop)
                )
    return None


def _race_violation(
    kind: str,
    program: "Program",
    i: int,
    j: int,
    ri,
    rj,
    region: Region,
    detail: str,
) -> SanitizerViolation:
    msg = (
        f"{kind}: program {program.name!r}, instructions {j} "
        f"({rj.opcode}, [{rj.issue_at}, {rj.retire_at})) and {i} "
        f"({ri.opcode}, [{ri.issue_at}, {ri.retire_at})): "
        f"{region.buffer} elements [{region.start}, {region.stop}): "
        f"{detail}"
    )
    return SanitizerViolation(
        kind=kind,
        program=program.name,
        instruction=i,
        opcode=ri.opcode,
        operand="",
        buffer=region.buffer,
        start_byte=region.start,
        stop_byte=region.stop,
        message=msg,
    )


def resolve_sanitizer(
    sanitize: "bool | Sanitizer | None", config
) -> "Sanitizer | None":
    """Normalise a ``sanitize=`` argument: falsy -> ``None`` (strict
    mode off, zero cost), ``True`` -> a fresh halting
    :class:`Sanitizer`, an instance -> itself (kept across tiles for
    cross-tile stale-read tracking)."""
    if not sanitize:
        return None
    if isinstance(sanitize, Sanitizer):
        return sanitize
    return Sanitizer(config)
