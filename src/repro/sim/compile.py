"""Program-to-NumPy JIT: lowered programs as fused batch kernels.

The numeric interpreter (:meth:`repro.sim.aicore.AICore.run` with
``execute="numeric"``) walks a :class:`~repro.isa.program.Program` one
instruction at a time, recomputing gather/scatter index arrays and
bounds checks on every call.  For a Table-1-scale pooling workload that
Python-side dispatch dominates the run -- the cycles-only analytic mode
is dramatically faster precisely because it skips it.

This module removes the dispatch without changing a single output bit:
:func:`compile_program` walks the instruction list *once*, asks each
instruction to emit its data effect into a :class:`CompileContext`
(precomputed index arrays, à la fancy-indexing im2col), fuses adjacent
compatible effects into batched array expressions, and returns a
:class:`CompiledKernel` -- a callable applying the whole program's data
effect to the scratch-pads and global memory in a handful of NumPy
calls.

Design constraints, in order:

* **Bit identity.**  Every emitted step reproduces the interpreter's
  NumPy statements exactly (same gathers, same scatter statements, same
  accumulation order), so ``python -m repro.validate --jit`` can assert
  byte-equal outputs.  Fusions are only performed when provably
  order-insensitive: elementwise groups require disjoint writes and no
  read-after-write, ``vmax``/``vmin`` repeat chains collapse through
  ``ufunc.reduce`` (exact -- no rounding, order-independent), Col2Im
  groups concatenate their ``np.add.at`` index streams (preserving
  per-element accumulation order), Im2Col groups must write contiguous
  destination segments, and DMA groups must form clean arithmetic
  progressions with disjoint destination rows.  Anything else stays a
  standalone step.

* **Position independence.**  One kernel serves every tile of its
  program: each call resolves a global-memory tensor as the core's view
  starting at the tile's delta (:meth:`repro.sim.aicore.AICore.view`),
  so the index arrays computed once against the base program address
  any slice and row window, and a kernel cached under the
  position-independent :func:`~repro.sim.progcache.plan_key` runs them
  all.  Escape checks run against those views and name absolute
  indices.

* **Touch only what is used.**  The kernel records, per scratch-pad,
  the extent its steps address, and each call reserves just that much
  of the core's store (:meth:`repro.sim.buffers.ScratchBuffer.reserve`)
  instead of the whole capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import SCRATCH_PADS
from ..dtypes import FRACTAL_ROWS
from ..errors import IsaError, SimulationError
from ..isa.operand import MemRef
from ..isa.program import Program

__all__ = [
    "CompileContext",
    "CompiledKernel",
    "KernelStats",
    "compile_program",
]

#: A compiled step: ``step(resolved)`` where ``resolved`` maps buffer
#: name -> flat array (a global-memory tensor from the tile's delta on).
Step = Callable[[dict], None]

#: One element span a record addresses: ``(buffer, lo, hi)``, inclusive;
#: ``hi < lo`` for an empty index set.
Span = tuple[str, int, int]


# ---------------------------------------------------------------------------
# records -- one per compiled instruction, fused into steps by _fuse()


class _Record:
    kind = ""

    def spans(self) -> list[Span]:
        """Every element span this record reads or writes."""
        raise NotImplementedError


def _idx(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def _span(buf: str, ix: np.ndarray) -> Span:
    return (buf, int(ix.min()), int(ix.max())) if ix.size else (buf, 0, -1)


def _region(ref: MemRef, size: int | None = None) -> Span:
    return ref.buffer, ref.offset, ref.offset + (size or ref.size) - 1


class _Ew(_Record):
    """One gather-compute-scatter vector statement."""

    kind = "ew"

    def __init__(self, key, func, dst_ref, dst_idx, sources) -> None:
        self.key = key
        self.func = func
        self.dst_ref = dst_ref
        self.dst_idx = _idx(dst_idx)
        self.sources = [(ref, _idx(ix)) for ref, ix in sources]
        # Only records whose own scatter indices are unique may fuse:
        # concatenating them keeps every write disjoint.
        self.unique = bool(
            len(np.unique(self.dst_idx)) == self.dst_idx.size
        )

    def spans(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_idx)] + [
            _span(r.buffer, ix) for r, ix in self.sources
        ]


class _Seq(_Record):
    """A sequential-repeat vector statement (later repeats observe
    earlier writes); replays the interpreter's per-repeat loop."""

    kind = "seq"

    def __init__(self, func, dst_ref, dst_idx, sources) -> None:
        self.func = func
        self.dst_ref = dst_ref
        self.dst_idx = _idx(dst_idx)
        self.sources = [(ref, _idx(ix)) for ref, ix in sources]

    spans = _Ew.spans


class _Reduce(_Record):
    """A vmax/vmin repeat chain rewritten as one ``ufunc.reduce``."""

    kind = "reduce"

    def __init__(self, op, func, dst_ref, dst_row, src_ref, src_idx):
        self.op = op
        self.func = func
        self.dst_ref = dst_ref
        self.dst_row = _idx(dst_row)
        self.src_ref = src_ref
        self.src_idx = _idx(src_idx)

    def spans(self) -> list[Span]:
        return [
            _span(self.dst_ref.buffer, self.dst_row),
            _span(self.src_ref.buffer, self.src_idx),
        ]


class _Fill(_Record):
    kind = "fill"

    def __init__(self, dst_ref, dst_idx, value) -> None:
        self.dst_ref = dst_ref
        self.dst_idx = _idx(dst_idx)
        self.value = value

    def spans(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_idx)]


class _Im2col(_Record):
    """One Im2Col issue: a masked gather into a contiguous fractal run."""

    kind = "im2col"

    def __init__(self, src_ref, dst_ref, idx, valid, pad, start, stop):
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.idx = _idx(idx)
        self.valid = np.ascontiguousarray(valid, dtype=bool)
        self.pad = pad
        self.dst_start = start
        self.dst_stop = stop

    def spans(self) -> list[Span]:
        return [
            _span(self.src_ref.buffer, self.idx),
            (self.dst_ref.buffer, self.dst_start, self.dst_stop - 1),
        ]


class _Col2im(_Record):
    """One Col2Im issue: a valid-filtered gather + ``np.add.at``."""

    kind = "col2im"

    def __init__(self, src_ref, dst_ref, src_idx, dst_idx) -> None:
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.src_idx = _idx(src_idx)
        self.dst_idx = _idx(dst_idx)

    def spans(self) -> list[Span]:
        return [
            _span(self.src_ref.buffer, self.src_idx),
            _span(self.dst_ref.buffer, self.dst_idx),
        ]


class _Copy(_Record):
    kind = "copy"

    def __init__(self, src_ref, dst_ref, accumulate) -> None:
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.accumulate = accumulate

    def spans(self) -> list[Span]:
        return [_region(self.src_ref), _region(self.dst_ref)]


class _Mmad(_Record):
    kind = "mmad"

    def __init__(self, instr) -> None:
        self.instr = instr

    def spans(self) -> list[Span]:
        i = self.instr
        fr = FRACTAL_ROWS * FRACTAL_ROWS
        return [
            _region(i.a, i.repeat * fr),
            _region(i.b, i.repeat * fr),
            _region(i.c, fr),
        ]


# ---------------------------------------------------------------------------
# compile context -- the emit API instructions' compile() hooks call


class CompileContext:
    """Collects one record per compiled instruction.

    Instructions emit buffer-relative index arrays computed from their
    operands; a global-memory tensor is resolved at call time as a view
    from the tile's delta on, so one compile serves every tile.
    """

    def __init__(self) -> None:
        self.records: list[_Record] = []

    # -- emit API (called from Instruction.compile) --------------------
    def emit_elementwise(
        self,
        key,
        func: Callable,
        dst_ref: MemRef,
        dst_idx: np.ndarray,
        sources: Sequence[tuple[MemRef, np.ndarray]],
    ) -> None:
        """One ``dst[dst_idx] = func(*gathered sources)`` statement.

        ``key`` discriminates fusable statements (op plus any captured
        immediates): adjacent same-key records with disjoint writes and
        no read-after-write merge into one batched statement.
        """
        self.records.append(_Ew(key, func, dst_ref, dst_idx, sources))

    def emit_sequential(
        self,
        func: Callable,
        dst_ref: MemRef,
        dst_idx: np.ndarray,
        sources: Sequence[tuple[MemRef, np.ndarray]],
    ) -> None:
        """A per-repeat loop whose later repeats observe earlier writes
        (index arrays shaped ``(repeat, lanes)``).  Never fused."""
        self.records.append(_Seq(func, dst_ref, dst_idx, sources))

    def emit_reduction(
        self,
        op: str,
        func,
        dst_ref: MemRef,
        dst_row: np.ndarray,
        src_ref: MemRef,
        src_idx: np.ndarray,
    ) -> None:
        """An accumulating vmax/vmin chain: ``dst[row] = func(dst[row],
        func.reduce(src[src_idx], axis=0))`` -- exact because max/min
        are order-independent and rounding-free."""
        self.records.append(
            _Reduce(op, func, dst_ref, dst_row, src_ref, src_idx)
        )

    def emit_fill(self, dst_ref: MemRef, dst_idx, value) -> None:
        """``dst[dst_idx] = value``; adjacent same-value fills merge
        unconditionally (the scatter order is irrelevant)."""
        self.records.append(_Fill(dst_ref, dst_idx, value))

    def emit_im2col(
        self, src_ref, dst_ref, idx, valid, pad, dst_start, dst_stop
    ) -> None:
        """A masked patch gather writing ``[dst_start, dst_stop)``;
        adjacent issues with contiguous destinations merge."""
        self.records.append(
            _Im2col(src_ref, dst_ref, idx, valid, pad, dst_start, dst_stop)
        )

    def emit_col2im(self, src_ref, dst_ref, src_idx, dst_idx) -> None:
        """A valid-filtered accumulate-scatter (``np.add.at``);
        adjacent issues concatenate their index streams, preserving
        per-element accumulation order."""
        self.records.append(_Col2im(src_ref, dst_ref, src_idx, dst_idx))

    def emit_copy(self, src_ref: MemRef, dst_ref: MemRef, accumulate):
        """A contiguous region copy (or accumulate-DMA add); adjacent
        row-strided copies forming an arithmetic progression merge into
        one batched gather/scatter."""
        self.records.append(_Copy(src_ref, dst_ref, accumulate))

    def emit_mmad(self, instr) -> None:
        """A fractal multiply-accumulate chain (float32 accumulator)."""
        self.records.append(_Mmad(instr))


# ---------------------------------------------------------------------------
# fusion


class _WriteSet:
    """Sorted per-buffer element-index sets a fusion group has written;
    membership tests gate read-after-write / write-after-write."""

    def __init__(self) -> None:
        self._by_buf: dict[str, np.ndarray] = {}

    def add(self, buffer: str, idx: np.ndarray) -> None:
        arr = np.unique(idx.reshape(-1))
        prev = self._by_buf.get(buffer)
        self._by_buf[buffer] = (
            arr if prev is None else np.union1d(prev, arr)
        )

    def intersects(self, buffer: str, idx: np.ndarray) -> bool:
        prev = self._by_buf.get(buffer)
        if prev is None or prev.size == 0:
            return False
        flat = idx.reshape(-1)
        pos = np.minimum(
            np.searchsorted(prev, flat), prev.size - 1
        )
        return bool(np.any(prev[pos] == flat))


def _ew_joins(first: _Ew, cand: _Record, ws: _WriteSet) -> bool:
    if not isinstance(cand, _Ew) or cand.key != first.key:
        return False
    if not cand.unique or cand.dst_ref.buffer != first.dst_ref.buffer:
        return False
    if len(cand.sources) != len(first.sources) or any(
        cr.buffer != fr.buffer
        for (cr, _), (fr, _) in zip(cand.sources, first.sources)
    ):
        return False
    # RAW: the candidate must not read anything the group wrote (its
    # gather would happen before the group's scatter in the fused step).
    for ref, ix in cand.sources:
        if ws.intersects(ref.buffer, ix):
            return False
    # WAW: later writes must not overwrite earlier ones.
    return not ws.intersects(cand.dst_ref.buffer, cand.dst_idx)


def _fill_joins(first: _Fill, cand: _Record) -> bool:
    return (
        isinstance(cand, _Fill)
        and cand.dst_ref.buffer == first.dst_ref.buffer
        and cand.value == first.value
        and cand.value.dtype == first.value.dtype
    )


def _im2col_joins(first: _Im2col, cand: _Record, stop: int) -> bool:
    return (
        isinstance(cand, _Im2col)
        and cand.src_ref.buffer == first.src_ref.buffer
        and cand.dst_ref.buffer == first.dst_ref.buffer
        and cand.src_ref.buffer != cand.dst_ref.buffer
        and cand.pad == first.pad
        and cand.pad.dtype == first.pad.dtype
        and cand.dst_start == stop
    )


def _col2im_joins(first: _Col2im, cand: _Record, ws: _WriteSet) -> bool:
    if not isinstance(cand, _Col2im):
        return False
    if (
        cand.src_ref.buffer != first.src_ref.buffer
        or cand.dst_ref.buffer != first.dst_ref.buffer
    ):
        return False
    # RAW only: accumulation order is preserved by concatenation
    # (np.add.at processes indices in array order), so overlapping
    # destinations (WAW) are exact; reading freshly-accumulated data
    # is not.
    return not ws.intersects(cand.src_ref.buffer, cand.src_idx)


def _fuse(records: list[_Record]) -> list[list[_Record]]:
    groups: list[list[_Record]] = []
    i, n = 0, len(records)
    while i < n:
        first = records[i]
        group = [first]
        j = i + 1
        if first.kind == "ew" and first.unique:
            ws = _WriteSet()
            ws.add(first.dst_ref.buffer, first.dst_idx)
            while j < n and _ew_joins(first, records[j], ws):
                ws.add(records[j].dst_ref.buffer, records[j].dst_idx)
                group.append(records[j])
                j += 1
        elif first.kind == "fill":
            while j < n and _fill_joins(first, records[j]):
                group.append(records[j])
                j += 1
        elif first.kind == "im2col":
            stop = first.dst_stop
            while j < n and _im2col_joins(first, records[j], stop):
                stop = records[j].dst_stop
                group.append(records[j])
                j += 1
        elif first.kind == "col2im":
            ws = _WriteSet()
            ws.add(first.dst_ref.buffer, first.dst_idx)
            while j < n and _col2im_joins(first, records[j], ws):
                ws.add(records[j].dst_ref.buffer, records[j].dst_idx)
                group.append(records[j])
                j += 1
        elif first.kind == "copy":
            n_el = first.src_ref.size
            ss = ds = None
            prev = first
            while j < n:
                cand = records[j]
                if not (
                    isinstance(cand, _Copy)
                    and cand.src_ref.buffer == first.src_ref.buffer
                    and cand.dst_ref.buffer == first.dst_ref.buffer
                    and cand.src_ref.buffer != cand.dst_ref.buffer
                    and cand.accumulate == first.accumulate
                    and cand.src_ref.size == n_el
                ):
                    break
                cs = cand.src_ref.offset - prev.src_ref.offset
                cd = cand.dst_ref.offset - prev.dst_ref.offset
                if ss is None:
                    # The second member defines the progression; its
                    # destination stride must keep rows disjoint (the
                    # batched scatter writes each element exactly once).
                    if abs(cd) < n_el:
                        break
                    ss, ds = cs, cd
                elif (cs, cd) != (ss, ds):
                    break
                group.append(cand)
                prev = cand
                j += 1
        groups.append(group)
        i = j
    return groups


# ---------------------------------------------------------------------------
# step construction


def _gm_checks(group: list[_Record]) -> tuple[Span, ...]:
    """One bound check per global-memory buffer a step addresses.

    Scratch-pads need none: each call reserves them to the kernel's
    extent, which covers every span.
    """
    merged: dict[str, tuple[int, int]] = {}
    for rec in group:
        for buf, lo, hi in rec.spans():
            if buf in SCRATCH_PADS or hi < lo:
                continue
            cur = merged.get(buf)
            merged[buf] = (
                (lo, hi) if cur is None else (min(cur[0], lo), max(cur[1], hi))
            )
    return tuple((b, lo, hi) for b, (lo, hi) in merged.items())


class _Escape(Exception):
    """A step's index span leaves its view; :class:`CompiledKernel`
    re-raises it as :class:`~repro.errors.IsaError` naming absolute
    indices."""

    def __init__(self, buffer: str, lo: int, hi: int, size: int) -> None:
        super().__init__(buffer, lo, hi, size)
        self.buffer, self.lo, self.hi, self.size = buffer, lo, hi, size


def _check(resolved: dict, checks: tuple) -> None:
    for buf, lo, hi in checks:
        size = resolved[buf].size
        if lo < 0 or hi >= size:
            raise _Escape(buf, lo, hi, size)


def _ew_step(group: list[_Ew]) -> Step:
    first = group[0]
    func = first.func
    dst_buf = first.dst_ref.buffer
    if len(group) == 1:
        d_idx = first.dst_idx
        srcs = [(ref.buffer, ix) for ref, ix in first.sources]
    else:
        d_idx = np.concatenate([g.dst_idx for g in group])
        srcs = [
            (
                ref.buffer,
                np.concatenate([g.sources[k][1] for g in group]),
            )
            for k, (ref, _) in enumerate(first.sources)
        ]
    checks = _gm_checks(group)

    def step(resolved):
        _check(resolved, checks)
        resolved[dst_buf][d_idx] = func(*[resolved[b][ix] for b, ix in srcs])

    return step


def _seq_step(rec: _Seq) -> Step:
    dst_buf = rec.dst_ref.buffer
    src = [(ref.buffer, ix) for ref, ix in rec.sources]
    checks = _gm_checks([rec])

    def step(resolved):
        _check(resolved, checks)
        d_arr = resolved[dst_buf]
        gathered = [(resolved[b], ix) for b, ix in src]
        func = rec.func
        for r in range(rec.dst_idx.shape[0]):
            d_arr[rec.dst_idx[r]] = func(*[a[ix[r]] for a, ix in gathered])

    return step


def _reduce_step(rec: _Reduce) -> Step:
    dst_buf = rec.dst_ref.buffer
    src_buf = rec.src_ref.buffer
    checks = _gm_checks([rec])

    def step(resolved):
        _check(resolved, checks)
        d_arr = resolved[dst_buf]
        m = rec.func.reduce(resolved[src_buf][rec.src_idx], axis=0)
        d_arr[rec.dst_row] = rec.func(d_arr[rec.dst_row], m)

    return step


def _fill_step(group: list[_Fill]) -> Step:
    first = group[0]
    dst_buf = first.dst_ref.buffer
    d_idx = (
        first.dst_idx
        if len(group) == 1
        else np.concatenate([g.dst_idx for g in group])
    )
    value = first.value
    checks = _gm_checks(group)

    def step(resolved):
        _check(resolved, checks)
        resolved[dst_buf][d_idx] = value

    return step


def _im2col_step(group: list[_Im2col]) -> Step:
    first = group[0]
    src_buf = first.src_ref.buffer
    dst_buf = first.dst_ref.buffer
    if len(group) == 1:
        idx, valid = first.idx, first.valid
    else:
        idx = np.concatenate([g.idx for g in group])
        valid = np.concatenate([g.valid for g in group])
    invalid = ~valid
    pad = first.pad
    start, stop = first.dst_start, group[-1].dst_stop
    checks = _gm_checks(group)

    def step(resolved):
        _check(resolved, checks)
        rows = resolved[src_buf][idx]
        rows[invalid] = pad
        resolved[dst_buf][start:stop] = rows.reshape(-1)

    return step


def _col2im_step(group: list[_Col2im]) -> Step:
    first = group[0]
    src_buf = first.src_ref.buffer
    dst_buf = first.dst_ref.buffer
    if len(group) == 1:
        s_idx, d_idx = first.src_idx, first.dst_idx
    else:
        s_idx = np.concatenate([g.src_idx for g in group])
        d_idx = np.concatenate([g.dst_idx for g in group])
    checks = _gm_checks(group)

    def step(resolved):
        _check(resolved, checks)
        np.add.at(resolved[dst_buf], d_idx, resolved[src_buf][s_idx])

    return step


def _copy_step(group: list[_Copy]) -> Step:
    first = group[0]
    src_buf = first.src_ref.buffer
    dst_buf = first.dst_ref.buffer
    acc = first.accumulate
    n_el = first.src_ref.size
    if len(group) == 1:
        s0, d0 = first.src_ref.offset, first.dst_ref.offset
        s1, d1 = s0 + n_el, d0 + n_el

        def step(resolved):
            s_arr = resolved[src_buf]
            d_arr = resolved[dst_buf]
            if s1 > s_arr.size or d1 > d_arr.size:
                raise IsaError("DataMove region escapes buffer")
            if acc:
                d_arr[d0:d1] += s_arr[s0:s1]
            else:
                d_arr[d0:d1] = s_arr[s0:s1]

        return step

    lane = np.arange(n_el, dtype=np.int64)
    s_idx = (
        np.array([g.src_ref.offset for g in group], dtype=np.int64)[:, None]
        + lane
    ).reshape(-1)
    d_idx = (
        np.array([g.dst_ref.offset for g in group], dtype=np.int64)[:, None]
        + lane
    ).reshape(-1)
    checks = _gm_checks(group)

    def step(resolved):
        _check(resolved, checks)
        vals = resolved[src_buf][s_idx]
        if acc:
            # Destination rows are disjoint (fusion requires it), so the
            # buffered fancy-index add touches each element exactly once.
            resolved[dst_buf][d_idx] += vals
        else:
            resolved[dst_buf][d_idx] = vals

    return step


def _mmad_step(rec: _Mmad) -> Step:
    instr = rec.instr
    fr = FRACTAL_ROWS * FRACTAL_ROWS
    a_buf, a_off = instr.a.buffer, instr.a.offset
    b_buf, b_off = instr.b.buffer, instr.b.offset
    c_buf, c_off = instr.c.buffer, instr.c.offset
    repeat, init = instr.repeat, instr.init

    def step(resolved):
        a_arr = resolved[a_buf]
        b_arr = resolved[b_buf]
        out = resolved[c_buf][c_off : c_off + fr].reshape(
            FRACTAL_ROWS, FRACTAL_ROWS
        )
        acc = (
            np.zeros((FRACTAL_ROWS, FRACTAL_ROWS), dtype=np.float32)
            if init
            else out.astype(np.float32)
        )
        for r in range(repeat):
            a = a_arr[a_off + r * fr : a_off + (r + 1) * fr]
            b = b_arr[b_off + r * fr : b_off + (r + 1) * fr]
            acc += a.reshape(FRACTAL_ROWS, FRACTAL_ROWS).astype(
                np.float32
            ) @ b.reshape(FRACTAL_ROWS, FRACTAL_ROWS).astype(np.float32)
        out[:] = acc.astype(out.dtype)

    return step


def _make_step(group: list[_Record]) -> Step:
    kind = group[0].kind
    if kind == "ew":
        return _ew_step(group)
    if kind == "seq":
        return _seq_step(group[0])
    if kind == "reduce":
        return _reduce_step(group[0])
    if kind == "fill":
        return _fill_step(group)
    if kind == "im2col":
        return _im2col_step(group)
    if kind == "col2im":
        return _col2im_step(group)
    if kind == "copy":
        return _copy_step(group)
    return _mmad_step(group[0])


# ---------------------------------------------------------------------------
# the kernel


@dataclass(frozen=True)
class KernelStats:
    """Compile-time shape of one kernel, exposed for tests/benchmarks."""

    #: Instructions in the compiled program.
    instructions: int
    #: Fused steps the kernel executes per call.
    steps: int


class CompiledKernel:
    """The whole program's data effect as a list of batched steps.

    Call with ``kernel(core, program)`` where ``program`` is the program
    it was compiled from; ``core`` serves each global-memory tensor from
    the running tile's delta on (:meth:`repro.sim.aicore.AICore.view`),
    and the kernel asks it for that delta only to name absolute indices
    when a step escapes a tensor.
    """

    def __init__(
        self,
        program_name: str,
        instructions: int,
        steps: tuple[Step, ...],
        extents: dict[str, int | None],
        stats: KernelStats,
    ) -> None:
        self.program_name = program_name
        self.instructions = instructions
        self.steps = steps
        #: Buffer name -> elements the steps address: a scratch-pad's
        #: extent, ``None`` for a global-memory tensor.
        self.extents = extents
        self.stats = stats

    def __call__(self, ctx, program: Program) -> None:
        if len(program.instructions) != self.instructions:
            raise SimulationError(
                f"compiled kernel mismatch for program "
                f"{program.name!r}: kernel covers {self.instructions} "
                f"instructions, program has {len(program.instructions)}"
            )
        if self.program_name and program.name != self.program_name:
            raise SimulationError(
                f"compiled kernel mismatch: kernel was built for "
                f"{self.program_name!r}, not {program.name!r}"
            )
        resolved = {b: ctx.view(b, n) for b, n in self.extents.items()}
        try:
            for step in self.steps:
                step(resolved)
        except _Escape as esc:
            d = ctx.delta(esc.buffer)
            raise IsaError(
                f"jit: element indices [{esc.lo + d}, {esc.hi + d}] "
                f"escape buffer {esc.buffer!r} of size {esc.size + d}"
            ) from None


def compile_program(program: Program) -> CompiledKernel:
    """Translate ``program`` into a :class:`CompiledKernel`.

    Every instruction emits batched records, which are then fused.  The
    result is bit-identical to the interpreter for every input
    (differentially enforced by ``python -m repro.validate --jit``).
    Raises :class:`~repro.errors.CompileError` for an instruction whose
    class does not implement ``compile()``.
    """
    ctx = CompileContext()
    for instr in program.instructions:
        instr.compile(ctx)
    extents: dict[str, int | None] = {}
    for rec in ctx.records:
        for buf, _, hi in rec.spans():
            if buf in SCRATCH_PADS:
                extents[buf] = max(extents.get(buf) or 0, hi + 1)
            else:
                extents[buf] = None
    steps = tuple(_make_step(g) for g in _fuse(ctx.records))
    return CompiledKernel(
        program_name=program.name,
        instructions=len(program.instructions),
        steps=steps,
        extents=dict(sorted(extents.items())),
        stats=KernelStats(
            instructions=len(program.instructions), steps=len(steps)
        ),
    )
