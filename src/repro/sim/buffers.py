"""Scratch-pad buffers and their allocator.

"The private buffers of the AI Core (L0A, L0B, L0C, L1, and Unified
Buffer) are organized as scratch-pad memories ... Data movement between
these buffers must be explicitly managed by the application"
(Section III-A).  There is no hardware management: a kernel builder
*allocates* regions out of each buffer and the allocator enforces the
capacity and alignment the real hardware would silently require.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import BufferSpec
from ..dtypes import DType, jit_dtype
from ..errors import AlignmentError, CapacityError, IsaError, SimulationError
from ..isa.operand import MemRef


@dataclass
class ScratchBuffer:
    """One scratch-pad memory with NumPy-backed contents.

    The interpreter's store is typed with the chip's element dtype;
    kernels in this reproduction are single-dtype (fp16), matching the
    paper.  Storage grows on demand: :meth:`reserve` extends a
    zero-filled store to the extent asked and keeps its prefix, and
    :attr:`data` reserves the whole capacity.  Cycles-mode runs touch
    no store; the interpreter, the sanitizer and fault injection read
    :attr:`data`.

    On a chip that runs JIT kernels the store is instead a row of the
    chip's :class:`ScratchStack` for this scratch-pad, holding
    :func:`~repro.dtypes.jit_dtype` data (float32 for fp16), only as
    wide as the kernels address; :attr:`data` then reads it back as a
    read-only copy in the element dtype.  Observably the store still
    starts zeroed and is never cleared behind a kernel's back.
    """

    spec: BufferSpec
    dtype: DType
    _store: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The JIT stack whose row ``_row`` is the store, once bound.
    _stack: "ScratchStack | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _row: int = field(default=0, init=False, repr=False, compare=False)

    def reserve(self, extent: int) -> np.ndarray:
        """The store, grown zero-filled to at least ``extent`` elements.

        Raises :class:`~repro.errors.IsaError` for an extent past the
        buffer's capacity, and :class:`~repro.errors.SimulationError`
        once the store is a JIT stack row.
        """
        store = self._store
        if store is not None and store.size >= extent:
            return store
        if self._stack is not None:
            raise SimulationError(
                f"{self.name}: the store is a JIT stack row; the "
                "interpreter does not run on a chip after its JIT run"
            )
        self.check_extent(extent)
        grown = np.zeros(extent, dtype=self.dtype.np_dtype)
        if store is not None:
            grown[: store.size] = store
        self._store = grown
        return grown

    def check_extent(self, extent: int) -> None:
        """Raise :class:`~repro.errors.IsaError` for an extent past the
        buffer's capacity."""
        if extent > self.capacity_elems:
            raise IsaError(
                f"{self.name}: extent of {extent} elements escapes "
                f"capacity {self.capacity_elems}"
            )

    def bind(self, stack: "ScratchStack", row: int) -> None:
        """Make row ``row`` of ``stack`` the store, carrying over what
        the store held."""
        if self._store is not None:
            stack.array[row, : self._store.size] = self._store
            self._store = None
        self._stack, self._row = stack, row

    @property
    def data(self) -> np.ndarray:
        """The whole store, at full capacity; a read-only copy in the
        element dtype once the store is a JIT stack row."""
        if self._stack is None:
            return self.reserve(self.capacity_elems)
        row = self._stack.array[self._row]
        out = np.zeros(self.capacity_elems, self.dtype.np_dtype)
        out[: row.size] = row
        out.flags.writeable = False
        return out

    @property
    def allocated(self) -> bool:
        """Whether any storage exists yet."""
        return self._store is not None or self._stack is not None

    @property
    def extent(self) -> int:
        """Elements of storage that exist (0 before the first use)."""
        if self._stack is not None:
            return self._stack.array.shape[1]
        return 0 if self._store is None else self._store.size

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def capacity_elems(self) -> int:
        return self.spec.capacity_bytes // self.dtype.itemsize

    def clear(self) -> None:
        if self._stack is not None:
            self._stack.array[self._row].fill(0)
        elif self._store is not None:  # storage not yet grown reads as zeros
            self._store.fill(0)

    def poison(self, value: float) -> None:
        """Fill the whole backing store with a sentinel value.

        Used by the sanitizer's strict mode at the start of every
        program: zero is a *plausible* pooling value, so zero-init can
        mask reads of never-written scratch-pad data.  A poison
        sentinel (a finite, fp16-exact value far outside the test data
        range -- see :data:`repro.sim.sanitizer.POISON_VALUE`) makes
        stale or uninitialized reads corrupt the numerics visibly and
        lets the shadow state attribute the corruption to the offending
        read.
        """
        self.data.fill(value)


class ScratchStack:
    """One scratch-pad of every core of a JIT chip, as one array.

    :attr:`array` is ``(cores, extent)`` of
    :func:`~repro.dtypes.jit_dtype` data, and row ``i`` is core ``i``'s
    store (:meth:`ScratchBuffer.bind`).  A kernel call on a batch of
    consecutive cores computes on ``array[lo:hi]``, a view, so no store
    is stacked or copied back.  Rows exist only for the cores a chip
    run uses and columns only as far as its kernels address: both grow
    zero-filled, keeping what the stores held.
    """

    def __init__(self, buffers: list[ScratchBuffer]) -> None:
        #: Each core's buffer of this scratch-pad, by core id.
        self.buffers = buffers
        self.array = np.zeros((0, 0), jit_dtype(buffers[0].dtype.np_dtype))

    def reserve(self, rows: int, extent: int) -> np.ndarray:
        """:attr:`array`, grown to at least ``rows`` cores and
        ``extent`` elements.

        Raises :class:`~repro.errors.IsaError` for an extent past the
        buffer's capacity.
        """
        have_rows, have = self.array.shape
        if rows <= have_rows and extent <= have:
            return self.array
        fresh = self.buffers[have_rows:rows]
        extent = max([extent, have] + [buf.extent for buf in fresh])
        self.buffers[0].check_extent(extent)
        grown = np.zeros((max(rows, have_rows), extent), self.array.dtype)
        grown[:have_rows, :have] = self.array
        self.array = grown
        for row, buf in enumerate(fresh, have_rows):
            buf.bind(self, row)
        return grown


@dataclass
class Allocator:
    """Bump allocator for one scratch-pad buffer.

    Works off the buffer *specification* only -- kernel builders allocate
    regions without needing a backing store, since the produced
    :class:`MemRef` regions are valid on any core (all cores share the
    same buffer geometry).  Raises :class:`CapacityError` when the buffer
    would overflow.  ``high_water_bytes`` is what the tiling planner's
    footprint model is validated against in tests.
    """

    spec: BufferSpec
    dtype: DType
    _next: int = 0
    high_water_bytes: int = 0
    _live: dict[str, MemRef] = field(default_factory=dict, repr=False)

    @property
    def capacity_elems(self) -> int:
        return self.spec.capacity_bytes // self.dtype.itemsize

    def alloc(self, size_elems: int, name: str = "") -> MemRef:
        """Allocate ``size_elems`` elements, aligned to the buffer's
        alignment requirement."""
        if size_elems <= 0:
            raise CapacityError(
                f"{self.spec.name}: non-positive allocation size "
                f"{size_elems}"
                + (f" (allocating {name!r})" if name else "")
                + "; allocations must request at least one element"
            )
        dt = self.dtype
        align_elems = self.spec.alignment // dt.itemsize
        if align_elems == 0:
            raise AlignmentError(
                f"{self.spec.name}: alignment {self.spec.alignment} "
                f"finer than element size {dt.itemsize}"
                + (f" (allocating {name!r})" if name else "")
            )
        start = -(-self._next // align_elems) * align_elems
        end = start + size_elems
        if end > self.capacity_elems:
            raise CapacityError(
                f"{self.spec.name} overflow: need {end * dt.itemsize} B "
                f"(allocating {name or size_elems}) but capacity is "
                f"{self.spec.capacity_bytes} B"
            )
        self._next = end
        self.high_water_bytes = max(self.high_water_bytes, end * dt.itemsize)
        ref = MemRef(self.spec.name, start, size_elems, dt)
        key = name or f"alloc{len(self._live)}"
        if key in self._live:
            serial = sum(1 for k in self._live if k.split("#")[0] == key)
            key = f"{key}#{serial}"
        self._live[key] = ref
        return ref

    def live_regions(self) -> dict[str, MemRef]:
        """Name -> :class:`MemRef` of every allocation since the last
        :meth:`reset`.

        Unnamed allocations get ``allocN`` keys and repeated names get
        ``#K`` suffixes, so the mapping is lossless.  The sanitizer uses
        this to know which bytes of a scratch-pad are *live* (operands
        must stay inside a live region) and tests use it to audit the
        tiling planner's footprint model against what kernels actually
        allocate.
        """
        return dict(self._live)

    def reset(self) -> None:
        """Free everything (a new tile reuses the whole buffer)."""
        self._next = 0
        self._live.clear()

    @property
    def used_bytes(self) -> int:
        return self._next * self.dtype.itemsize

    @property
    def free_bytes(self) -> int:
        return self.spec.capacity_bytes - self.used_bytes
