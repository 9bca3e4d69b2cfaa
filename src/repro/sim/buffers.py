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
from ..dtypes import DType
from ..errors import AlignmentError, CapacityError, IsaError
from ..isa.operand import MemRef


@dataclass
class ScratchBuffer:
    """One scratch-pad memory with NumPy-backed contents.

    The backing store is typed with the kernel's element dtype; kernels
    in this reproduction are single-dtype (fp16), matching the paper.

    Storage grows on demand: :meth:`reserve` extends a zero-filled
    store to the extent asked and keeps its prefix, and :attr:`data`
    reserves the whole capacity.  Cycles-mode runs touch no store; a
    JIT kernel reserves only the extent it computed at compile time
    (a few KiB of a 256 KiB ``UB``); the interpreter, the sanitizer
    and fault injection read :attr:`data`.  Observably the store still
    starts zeroed and is never cleared behind a kernel's back.
    """

    spec: BufferSpec
    dtype: DType
    _store: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def reserve(self, extent: int) -> np.ndarray:
        """The store, grown zero-filled to at least ``extent`` elements.

        Raises :class:`~repro.errors.IsaError` for an extent past the
        buffer's capacity.
        """
        store = self._store
        if store is not None and store.size >= extent:
            return store
        if extent > self.capacity_elems:
            raise IsaError(
                f"{self.name}: extent of {extent} elements escapes "
                f"capacity {self.capacity_elems}"
            )
        grown = np.zeros(extent, dtype=self.dtype.np_dtype)
        if store is not None:
            grown[: store.size] = store
        self._store = grown
        return grown

    @property
    def data(self) -> np.ndarray:
        """The whole store, at full capacity."""
        return self.reserve(self.capacity_elems)

    @property
    def allocated(self) -> bool:
        """Whether any storage exists yet."""
        return self._store is not None

    @property
    def extent(self) -> int:
        """Elements of storage that exist (0 before the first use)."""
        return 0 if self._store is None else self._store.size

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def capacity_elems(self) -> int:
        return self.spec.capacity_bytes // self.dtype.itemsize

    def clear(self) -> None:
        if self._store is not None:  # storage not yet grown reads as zeros
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
