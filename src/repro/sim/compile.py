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
  results exactly (same elements, same rounding, same accumulation
  order, same NaN payloads), so ``python -m repro.validate --jit`` can
  assert byte-equal outputs.  Fusions are only performed when provably
  order-insensitive: elementwise groups require disjoint writes and no
  read-after-write, ``vmax``/``vmin`` repeat chains collapse through
  ``ufunc.reduce`` (exact -- no rounding, order-independent), Col2Im
  groups concatenate their ``np.add.at`` index streams (preserving
  per-element accumulation order), Im2Col groups must write contiguous
  destination segments, and DMA groups must form clean arithmetic
  progressions with disjoint destination rows.  Anything else stays a
  standalone step.

* **Tile batches.**  One kernel serves every tile of its program (a
  kernel is cached under the position-independent
  :func:`~repro.sim.progcache.plan_key`), and one call runs a whole
  batch of them: each step runs once, over every scratch-pad as rows
  of a ``(tiles, extent)`` stack (``S[:, idx]`` with the base index
  arrays) and every global-memory index array shifted by the batch's
  per-tile delta column (``deltas[:, None] + idx``, computed per call).
  The chip is the only caller
  (:meth:`repro.sim.chip.Chip.run_tile_groups`; ``AICore.run`` refuses
  ``execute="jit"``): it owns the stacks, a row per core
  (:class:`~repro.sim.buffers.ScratchStack`), and hands a batch on
  consecutive cores their rows as views, so nothing is stacked or
  copied back.  It keeps a batch exact: at most one tile per core, and
  tiles share a batch only where the kernel's global-memory hazards
  allow (:meth:`CompiledKernel.admits`).  Accumulating writes add tile
  by tile, each element's additions in index order (in rounds of
  distinct indices where indices repeat), as per-tile runs add them.  A
  Cube ``mmad`` keeps its per-tile float32 loop and a
  sequential repeat its per-repeat loop.  One escape check per
  global-memory tensor runs before any step, at the batch's smallest
  and largest delta, and names the first escaping tile's absolute
  indices.  A work item that brings no kernel has its program
  compiled once per chip run.

* **The slice rule.**  An index array that is one contiguous run
  becomes a slice at compile time, so a step over it reads and writes
  views instead of gathering and scattering; equal runs of at least
  ``_MIN_RUN`` elements, and global-memory runs at each tile's delta,
  move as whole rows of an overlapping-window view.  Batching removes
  the per-tile dispatch, the slice rule the per-element index work.

* **fp16 values, float32 arithmetic.**  Stacks hold
  :func:`~repro.dtypes.jit_dtype` data, float32 for fp16 kernels, and
  global memory stays fp16.  Every fp16 value is exact in float32, so
  copies, fills, the Im2Col gather, ``vmax``/``vmin`` and compares run
  unrounded, while each arithmetic step rounds once
  (:func:`~repro.dtypes.half_op`: correctly rounded, because binary32
  has at least 2 * 11 + 2 significand bits).  A call widens each
  global-memory tensor it reads and never writes once, over the
  batch's reach (:attr:`CompiledKernel.widened`); a store into global
  memory rounds by assignment, and an accumulating one runs the
  interpreter's own fp16 statement.

* **Touch only what is used.**  The kernel records, per scratch-pad,
  the extent its steps address, and the chip's stacks grow only that
  wide instead of to the whole capacity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..config import SCRATCH_PADS
from ..dtypes import FRACTAL_ROWS, half_op, jit_dtype, to_half
from ..errors import IsaError, SimulationError
from ..isa.operand import MemRef
from ..isa.program import Program

__all__ = [
    "CompileContext",
    "CompiledKernel",
    "KernelStats",
    "compile_program",
]

#: A compiled step: ``step(bufs, cols)`` runs once for a batch of
#: tiles.  ``bufs`` maps a scratch-pad to its ``(tiles, extent)`` stack
#: and a global-memory tensor to its flat array (or the widened copy a
#: call reads, see :meth:`CompiledKernel.__call__`); ``cols`` maps each
#: tensor to the batch's delta column (one delta per tile) in it.
Step = Callable[[dict, dict], None]

#: One element span a record addresses: ``(buffer, lo, hi)``, inclusive;
#: ``hi < lo`` for an empty index set.
Span = tuple[str, int, int]


# ---------------------------------------------------------------------------
# records -- one per compiled instruction, fused into steps by _fuse()


class _Record:
    kind = ""

    def writes(self) -> list[Span]:
        """Every element span this record writes."""
        raise NotImplementedError

    def reads(self) -> list[Span]:
        """Every element span this record reads, except an accumulating
        destination (its step adds tile by tile, in index order)."""
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

    def writes(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_idx)]

    def reads(self) -> list[Span]:
        return [_span(r.buffer, ix) for r, ix in self.sources]


class _Seq(_Record):
    """A sequential-repeat vector statement (later repeats observe
    earlier writes); replays the interpreter's per-repeat loop."""

    kind = "seq"

    def __init__(self, func, dst_ref, dst_idx, sources) -> None:
        self.func = func
        self.dst_ref = dst_ref
        self.dst_idx = _idx(dst_idx)
        self.sources = [(ref, _idx(ix)) for ref, ix in sources]

    writes = _Ew.writes
    reads = _Ew.reads


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

    def writes(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_row)]

    def reads(self) -> list[Span]:
        return self.writes() + [_span(self.src_ref.buffer, self.src_idx)]


class _Fill(_Record):
    kind = "fill"

    def __init__(self, dst_ref, dst_idx, value) -> None:
        self.dst_ref = dst_ref
        self.dst_idx = _idx(dst_idx)
        self.value = value

    def writes(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_idx)]

    def reads(self) -> list[Span]:
        return []


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

    def writes(self) -> list[Span]:
        return [(self.dst_ref.buffer, self.dst_start, self.dst_stop - 1)]

    def reads(self) -> list[Span]:
        return [_span(self.src_ref.buffer, self.idx)]


class _Col2im(_Record):
    """One Col2Im issue: a valid-filtered gather + ``np.add.at``."""

    kind = "col2im"

    def __init__(self, src_ref, dst_ref, src_idx, dst_idx) -> None:
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.src_idx = _idx(src_idx)
        self.dst_idx = _idx(dst_idx)

    def writes(self) -> list[Span]:
        return [_span(self.dst_ref.buffer, self.dst_idx)]

    def reads(self) -> list[Span]:
        return [_span(self.src_ref.buffer, self.src_idx)]


class _Copy(_Record):
    kind = "copy"

    def __init__(self, src_ref, dst_ref, accumulate) -> None:
        self.src_ref = src_ref
        self.dst_ref = dst_ref
        self.accumulate = accumulate

    def writes(self) -> list[Span]:
        return [_region(self.dst_ref)]

    def reads(self) -> list[Span]:
        return [_region(self.src_ref)]


class _Mmad(_Record):
    kind = "mmad"

    def __init__(self, instr) -> None:
        self.instr = instr

    def writes(self) -> list[Span]:
        return [_region(self.instr.c, FRACTAL_ROWS * FRACTAL_ROWS)]

    def reads(self) -> list[Span]:
        i = self.instr
        fr = FRACTAL_ROWS * FRACTAL_ROWS
        acc = [] if i.init else self.writes()
        return [_region(i.a, i.repeat * fr), _region(i.b, i.repeat * fr)] + acc


# ---------------------------------------------------------------------------
# compile context -- the emit API instructions' compile() hooks call


class CompileContext:
    """Collects one record per compiled instruction.

    Instructions emit buffer-relative index arrays computed from their
    operands; a global-memory index array gets each tile's delta added
    at call time, so one compile serves every tile of a batch.
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
    """Per-buffer boolean masks of the element indices a fusion group
    has written; membership tests gate read-after-write /
    write-after-write.  Adding a record and testing one cost time
    linear in its own indices, not in the group's."""

    def __init__(self) -> None:
        self._by_buf: dict[str, np.ndarray] = {}

    def add(self, buffer: str, idx: np.ndarray) -> None:
        flat = idx.reshape(-1)
        if not flat.size:
            return
        mask = self._by_buf.get(buffer)
        top = int(flat.max()) + 1
        if mask is None or mask.size < top:
            grown = np.zeros(
                top if mask is None else max(top, 2 * mask.size), bool
            )
            if mask is not None:
                grown[: mask.size] = mask
            self._by_buf[buffer] = mask = grown
        mask[flat] = True

    def intersects(self, buffer: str, idx: np.ndarray) -> bool:
        mask = self._by_buf.get(buffer)
        if mask is None:
            return False
        flat = idx.reshape(-1)
        return bool(mask[flat[flat < mask.size]].any())


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


#: Shorter runs of an index array move faster element by element.
_MIN_RUN = 32


def _runs(ix: np.ndarray) -> tuple[np.ndarray, int] | None:
    """``(starts, n)`` when ``ix`` is one contiguous ascending run, or
    several disjoint ones of ``n >= _MIN_RUN`` elements each; else
    ``None``."""
    if not ix.size:
        return None
    if ix[-1] - ix[0] == ix.size - 1 and (
        ix.size < 3 or bool((ix[1:] - ix[:-1] == 1).all())
    ):
        return ix[:1], ix.size
    if ix.size < 2 * _MIN_RUN:
        return None
    cut = np.flatnonzero(np.diff(ix) != 1) + 1
    n = ix.size // (cut.size + 1)
    if cut.size and (n < _MIN_RUN or ix.size % n or not np.array_equal(
        cut, np.arange(n, ix.size, n)
    )):
        return None
    starts = ix[::n]
    if cut.size and np.diff(np.sort(starts)).min() < n:
        return None
    return starts, n


def _windows(arr: np.ndarray, n: int) -> np.ndarray:
    """Every ``n``-element window along the last axis of contiguous
    ``arr`` (a flat tensor or a ``(tiles, extent)`` stack): index ``d``
    of the new second-to-last axis is ``arr[..., d:d + n]``, a view."""
    *lead, size = arr.shape
    step = arr.itemsize
    return np.ndarray(
        (*lead, size - n + 1, n), arr.dtype, arr, 0,
        (*arr.strides[:-1], step, step),
    )


class _At:
    """Where one operand's elements sit in a batch of tiles.

    A scratch-pad operand addresses columns of the ``(tiles, extent)``
    stack; a global-memory operand addresses the flat tensor at each
    tile's delta (``cols`` holds the batch's delta column).  An index
    array made of contiguous runs (:func:`_runs`) moves whole runs, as
    rows of :func:`_windows`, instead of single elements, and one run
    of a scratch-pad is a slice, so a step reads it as a view.  Values
    come and go as ``(tiles, n)`` arrays, tile-major.
    """

    __slots__ = ("buf", "gm", "idx", "starts", "n", "unique", "rounds")

    def __init__(self, buf: str, idx: np.ndarray, add: bool = False):
        flat = _idx(idx).reshape(-1)
        self.buf = buf
        self.gm = buf not in SCRATCH_PADS
        self.idx, self.starts, self.n = flat, None, 0
        runs = _runs(flat)
        if runs is not None:
            starts, n = runs
            if len(starts) == 1 and not self.gm:
                self.idx = slice(int(starts[0]), int(starts[0]) + n)
            else:
                self.idx, self.starts, self.n = None, starts, n
        # Whether a tile's indices repeat no element; only an
        # accumulating destination (``add``) asks.
        self.unique = runs is not None or (
            add and len(np.unique(flat)) == flat.size
        )
        # An accumulating scratch-pad destination whose indices repeat
        # adds in rounds of distinct indices, each element's additions
        # in index order (see :meth:`add`).
        self.rounds = (
            _rounds(flat) if add and not (self.unique or self.gm) else ()
        )

    def _at(self, bufs: dict, cols: dict):
        """``(array, key)``: ``array[key]`` is the operand, shaped
        ``(tiles, runs, n)`` for runs, else ``(tiles, elements)``."""
        arr = bufs[self.buf]
        if self.starts is not None:
            arr = _windows(arr, self.n)
            if self.gm:
                return arr, cols[self.buf][:, None] + self.starts
            return arr, (slice(None), self.starts)
        if self.gm:
            return arr, cols[self.buf][:, None] + self.idx
        return arr, (slice(None), self.idx)

    def get(self, bufs: dict, cols: dict) -> np.ndarray:
        """The values, widened like the stacks (a tensor the kernel
        also writes is read from global memory); a view of the stack
        for one scratch-pad run."""
        arr, key = self._at(bufs, cols)
        vals = arr[key]
        if self.gm:
            vals = vals.astype(jit_dtype(vals.dtype), copy=False)
        return vals if self.starts is None else vals.reshape(len(vals), -1)

    def take(self, bufs: dict, cols: dict) -> np.ndarray:
        """The values as a fresh array, safe to modify or to add into
        the buffer they came from."""
        vals = self.get(bufs, cols)
        return vals.copy() if isinstance(self.idx, slice) else vals

    def put(self, bufs: dict, cols: dict, vals) -> None:
        """Store ``vals``; where tile windows overlap, the later tile's
        values land last (NumPy assigns through an integer index in
        index order, and the index is tile-major)."""
        arr, key = self._at(bufs, cols)
        if self.starts is not None and np.ndim(vals):
            vals = vals.reshape(len(vals), len(self.starts), self.n)
        arr[key] = _narrowed(vals, arr.dtype) if self.gm else vals

    def add(self, bufs: dict, cols: dict, vals: np.ndarray, acc,
            at: bool) -> None:
        """Accumulate ``vals`` tile by tile, each element's additions in
        index order, as consecutive per-tile runs would.

        On a stack, ``acc(old, vals)`` is one addition, rounded as the
        interpreter rounds it (:func:`_accumulator`).  Global memory
        runs the interpreter's own statement in its dtype: ``np.add.at``
        with ``at`` (Col2Im), else ``+=`` (an accumulating DataMove).
        """
        arr, key = self._at(bufs, cols)
        if self.starts is not None:
            vals = vals.reshape(len(vals), len(self.starts), self.n)
        if not self.gm:
            if self.unique:
                # Stack rows are disjoint and a row repeats no element.
                arr[key] = acc(arr[key], vals)
            for pos, ix in self.rounds:
                arr[:, ix] = acc(arr[:, ix], vals[:, pos])
            return
        # Tile windows may overlap: add them in tile order.
        vals = _narrowed(vals, arr.dtype)
        for k, v in zip(key, vals):
            if at:
                np.add.at(arr, k, v)
            else:
                arr[k] += v


def _narrowed(vals, dtype: np.dtype):
    """``vals`` for a store into global memory of ``dtype``: fp16
    values held in float32 narrow exactly (:func:`~repro.dtypes.to_half`);
    anything else is cast by the assignment."""
    if dtype == np.float16 and getattr(vals, "dtype", None) == np.float32:
        return to_half(vals)
    return vals


def _rounds(flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """``flat`` split into rounds of distinct indices: round ``k`` holds
    every element's ``k``-th occurrence, as ``(positions in flat,
    indices)``."""
    order = np.argsort(flat, kind="stable")
    ranked = flat[order]
    starts = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1]])
    rank = np.arange(flat.size) - np.repeat(
        starts, np.diff(np.r_[starts, flat.size])
    )
    rounds = []
    for k in range(int(rank.max()) + 1 if flat.size else 0):
        pos = np.sort(order[rank == k])
        rounds.append((pos, flat[pos]))
    return rounds


def _accumulator(ref: MemRef, at: bool):
    """One accumulating addition into ``ref``'s buffer on a stack: for
    fp16 data, float32 rounded once per addition, keeping the NaN the
    interpreter's statement keeps where both are NaN (the destination's
    for ``np.add.at``, the source's for ``+=``)."""
    if ref.dtype.np_dtype == np.float16:
        return half_op(np.add, nan_from=0 if at else 1)
    return np.add


def _stacked(group: list, get) -> np.ndarray:
    """One index array for a fused group: its members' concatenated."""
    return get(group[0]) if len(group) == 1 else np.concatenate(
        [get(g) for g in group]
    )


def _ew_step(group: list[_Ew]) -> Step:
    first = group[0]
    func = first.func
    dst = _At(first.dst_ref.buffer, _stacked(group, lambda g: g.dst_idx))
    srcs = [
        _At(ref.buffer, _stacked(group, lambda g, k=k: g.sources[k][1]))
        for k, (ref, _) in enumerate(first.sources)
    ]

    def step(bufs, cols):
        dst.put(bufs, cols, func(*[s.get(bufs, cols) for s in srcs]))

    return step


def _seq_step(rec: _Seq) -> Step:
    func = rec.func
    rows = [
        (
            _At(rec.dst_ref.buffer, rec.dst_idx[r]),
            [_At(ref.buffer, ix[r]) for ref, ix in rec.sources],
        )
        for r in range(rec.dst_idx.shape[0])
    ]

    def step(bufs, cols):
        for dst, srcs in rows:
            dst.put(bufs, cols, func(*[s.get(bufs, cols) for s in srcs]))

    return step


def _reduce_step(rec: _Reduce) -> Step:
    func = rec.func
    dst = _At(rec.dst_ref.buffer, rec.dst_row)
    src = _At(rec.src_ref.buffer, rec.src_idx)
    shape = rec.src_idx.shape

    def step(bufs, cols):
        rows = src.get(bufs, cols)
        m = func.reduce(rows.reshape(len(rows), *shape), axis=1)
        dst.put(bufs, cols, func(dst.get(bufs, cols), m))

    return step


def _fill_step(group: list[_Fill]) -> Step:
    dst = _At(group[0].dst_ref.buffer, _stacked(group, lambda g: g.dst_idx))
    value = group[0].value

    def step(bufs, cols):
        dst.put(bufs, cols, value)

    return step


def _im2col_step(group: list[_Im2col]) -> Step:
    first = group[0]
    idx = _stacked(group, lambda g: g.idx)
    invalid = ~_stacked(group, lambda g: g.valid)
    src = _At(first.src_ref.buffer, idx)
    dst = _At(
        first.dst_ref.buffer,
        np.arange(first.dst_start, group[-1].dst_stop, dtype=np.int64),
    )
    shape = idx.shape
    pad = first.pad

    def step(bufs, cols):
        rows = src.take(bufs, cols)
        tiles = len(rows)
        rows = rows.reshape(tiles, *shape)
        rows[:, invalid] = pad
        dst.put(bufs, cols, rows.reshape(tiles, -1))

    return step


def _move(
    src: _At, dst: _At, ref: MemRef | None = None, at: bool = False
) -> Step:
    """A copy, or with the destination's ``ref`` an accumulating one
    that adds as ``np.add.at`` (``at``) or ``+=`` does (:meth:`_At.add`).
    """
    if ref is not None:
        acc = _accumulator(ref, at)

        def step(bufs, cols):
            dst.add(bufs, cols, src.take(bufs, cols), acc, at)

    else:

        def step(bufs, cols):
            dst.put(bufs, cols, src.get(bufs, cols))

    return step


def _col2im_step(group: list[_Col2im]) -> Step:
    first = group[0]
    return _move(
        _At(first.src_ref.buffer, _stacked(group, lambda g: g.src_idx)),
        _At(first.dst_ref.buffer, _stacked(group, lambda g: g.dst_idx),
            add=True),
        first.dst_ref,
        at=True,
    )


def _copy_step(group: list[_Copy]) -> Step:
    """A region copy, or a fused progression of them: each region is a
    run, so whole regions move."""
    first = group[0]
    lane = np.arange(first.src_ref.size, dtype=np.int64)

    def at(refs: list[MemRef], add: bool = False) -> _At:
        starts = np.array([r.offset for r in refs], dtype=np.int64)
        return _At(refs[0].buffer, starts[:, None] + lane, add)

    return _move(
        at([g.src_ref for g in group]),
        at([g.dst_ref for g in group], first.accumulate),
        first.dst_ref if first.accumulate else None,
    )


def _mmad_step(rec: _Mmad) -> Step:
    """Keeps a per-tile float32 loop: a batched ``matmul`` may sum in
    another order."""
    instr = rec.instr
    fr = FRACTAL_ROWS * FRACTAL_ROWS
    square = (FRACTAL_ROWS, FRACTAL_ROWS)

    def region(ref: MemRef, n: int) -> _At:
        return _At(ref.buffer, np.arange(ref.offset, ref.offset + n))

    a = region(instr.a, instr.repeat * fr)
    b = region(instr.b, instr.repeat * fr)
    c = region(instr.c, fr)
    repeat, init = instr.repeat, instr.init

    def step(bufs, cols):
        a_rows, b_rows = a.get(bufs, cols), b.get(bufs, cols)
        c_rows = c.get(bufs, cols)
        out = np.empty(c_rows.shape, instr.c.dtype.np_dtype)
        for t in range(len(c_rows)):
            acc = (
                np.zeros(square, dtype=np.float32)
                if init
                else c_rows[t].reshape(square).astype(np.float32)
            )
            for r in range(repeat):
                part = slice(r * fr, (r + 1) * fr)
                acc += a_rows[t, part].reshape(square).astype(
                    np.float32
                ) @ b_rows[t, part].reshape(square).astype(np.float32)
            out[t] = acc.astype(out.dtype).reshape(-1)
        c.put(bufs, cols, out)

    return step


_STEPS = {
    "ew": _ew_step,
    "seq": lambda group: _seq_step(group[0]),
    "reduce": lambda group: _reduce_step(group[0]),
    "fill": _fill_step,
    "im2col": _im2col_step,
    "col2im": _col2im_step,
    "copy": _copy_step,
    "mmad": lambda group: _mmad_step(group[0]),
}


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

    Call with ``kernel(stores, program, gm, deltas)``: ``program`` is
    the program it was compiled from, and tile ``i`` of the batch runs
    on row ``i`` of every scratch-pad stack in ``stores`` with its
    global-memory tensors at ``deltas[i]`` (tensor name -> element
    offset; ``None`` for none).  Each step runs once for the whole
    batch.  The caller keeps the batch exact: at most one tile per
    core, and only tiles whose global-memory hazards allow it
    (:meth:`admits`).
    """

    def __init__(
        self,
        program_name: str,
        steps: tuple[Step, ...],
        extents: dict[str, int | None],
        reach: dict[str, tuple[int, int]],
        guarded: tuple[str, ...],
        widened: frozenset[str],
        stats: KernelStats,
    ) -> None:
        self.program_name = program_name
        self.steps = steps
        #: Buffer name -> elements the steps address: a scratch-pad's
        #: extent, ``None`` for a global-memory tensor.
        self.extents = extents
        #: Global-memory tensor -> ``(lo, hi)``, the inclusive element
        #: span the steps address relative to a tile's delta.
        self.reach = reach
        #: Written global-memory tensors whose tile windows must be
        #: disjoint within a batch: written by more than one step, or
        #: read by any step.
        self.guarded = guarded
        #: Global-memory tensors the steps read and never write: a call
        #: widens each once, over the batch's reach.
        self.widened = widened
        self.stats = stats

    def admits(self, batch: list, deltas) -> bool:
        """Whether a tile at ``deltas`` may join tiles at ``batch`` (their
        delta maps) without reordering a global-memory hazard: its span
        on each guarded tensor is disjoint from every other tile's."""
        for name in self.guarded:
            lo, hi = self.reach[name]
            d = deltas.get(name, 0) if deltas else 0
            for other in batch:
                e = other.get(name, 0) if other else 0
                if abs(d - e) <= hi - lo:
                    return False
        return True

    def __call__(self, stores: dict, program: Program, gm, deltas: list):
        """Run a batch of ``len(deltas)`` tiles.

        ``stores`` maps each scratch-pad the kernel addresses to a
        ``(tiles, n)`` array, ``n`` at least its :attr:`extents` entry,
        of :func:`~repro.dtypes.jit_dtype` data: the steps compute on
        it in place.  Global memory keeps its own dtype.
        """
        if len(program.instructions) != self.stats.instructions:
            raise SimulationError(
                f"compiled kernel mismatch for program "
                f"{program.name!r}: kernel covers {self.stats.instructions} "
                f"instructions, program has {len(program.instructions)}"
            )
        if self.program_name and program.name != self.program_name:
            raise SimulationError(
                f"compiled kernel mismatch: kernel was built for "
                f"{self.program_name!r}, not {program.name!r}"
            )
        bufs: dict[str, np.ndarray] = dict(stores)
        cols: dict[str, np.ndarray] = {}
        for name, (lo, hi) in self.reach.items():
            if gm is None:
                raise SimulationError(
                    f"jit kernel {self.program_name!r} addresses "
                    f"{name!r} but no global memory is attached"
                )
            arr = gm.view(name)
            col = np.array(
                [d.get(name, 0) if d else 0 for d in deltas], dtype=np.int64
            )
            bad = (col + lo < 0) | (col + hi >= arr.size)
            if bad.any():
                d = int(col[bad.argmax()])
                raise IsaError(
                    f"jit: element indices [{lo + d}, {hi + d}] "
                    f"escape buffer {name!r} of size {arr.size}"
                )
            if name in self.widened:
                base = int(col.min()) + lo
                arr = arr[base : int(col.max()) + hi + 1].astype(
                    jit_dtype(arr.dtype)
                )
                col = col - base
            bufs[name] = arr
            cols[name] = col
        for step in self.steps:
            step(bufs, cols)


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
    groups = _fuse(ctx.records)
    extents: dict[str, int | None] = {}
    reach: dict[str, tuple[int, int]] = {}
    # A global-memory tensor written in exactly one step and read in
    # none runs exactly for any batch; any other written tensor needs
    # disjoint tile windows.
    writers: dict[str, int] = {}
    read: set[str] = set()
    for group in groups:
        written: set[str] = set()
        for rec in group:
            reads, writes = rec.reads(), rec.writes()
            read.update(buf for buf, _, _ in reads)
            written.update(buf for buf, _, _ in writes)
            for buf, lo, hi in reads + writes:
                if buf in SCRATCH_PADS:
                    extents[buf] = max(extents.get(buf) or 0, hi + 1)
                    continue
                extents[buf] = None
                if hi >= lo:
                    cur = reach.get(buf, (lo, hi))
                    reach[buf] = (min(cur[0], lo), max(cur[1], hi))
        for buf in written:
            writers[buf] = writers.get(buf, 0) + 1
    guarded = tuple(sorted(
        buf for buf, n in writers.items()
        if buf in reach and (n > 1 or buf in read)
    ))
    widened = frozenset(buf for buf in reach if buf in read) - writers.keys()
    steps = tuple(_STEPS[g[0].kind](g) for g in groups)
    return CompiledKernel(
        program_name=program.name,
        steps=steps,
        extents=dict(sorted(extents.items())),
        reach=dict(sorted(reach.items())),
        guarded=guarded,
        widened=widened,
        stats=KernelStats(
            instructions=len(program.instructions), steps=len(steps)
        ),
    )
