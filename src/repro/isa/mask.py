"""The 128-bit vector mask register.

"It uses a 128-bit mask register in which every bit represents one
element of a vector instruction that may be processed or not"
(Section III-A).  For float16 the 128 bits cover 8 blocks of 16 lanes;
a standard-TVM pooling kernel typically sets only the low 16 bits
(one ``C0`` group), which is the inefficiency the paper attacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..dtypes import VECTOR_MASK_BITS, DType
from ..errors import MaskError


@dataclass(frozen=True, slots=True)
class Mask:
    """An immutable vector mask.

    ``bits`` is the raw 128-bit value; bit *i* enables lane *i* of the
    repeat body (lane = block * lanes_per_block + offset for fp16).
    """

    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int):
            raise MaskError(f"mask bits must be an int, got {type(self.bits)}")
        if self.bits <= 0:
            raise MaskError("mask must enable at least one lane")
        if self.bits >> VECTOR_MASK_BITS:
            raise MaskError(
                f"mask wider than {VECTOR_MASK_BITS} bits: {self.bits:#x}"
            )

    @classmethod
    def full(cls) -> "Mask":
        """All 128 lanes enabled -- the saturated case the paper targets."""
        return cls((1 << VECTOR_MASK_BITS) - 1)

    @classmethod
    def first(cls, lanes: int) -> "Mask":
        """Enable the first ``lanes`` lanes (e.g. ``first(16)`` = one C0)."""
        if not 0 < lanes <= VECTOR_MASK_BITS:
            raise MaskError(f"lane count {lanes} out of range 1..128")
        return cls((1 << lanes) - 1)

    @classmethod
    def for_elements(cls, count: int, dtype: DType) -> "Mask":
        """Mask covering ``count`` elements of ``dtype`` in one repeat."""
        if not 0 < count <= dtype.lanes_per_repeat:
            raise MaskError(
                f"{count} elements of {dtype.name} do not fit one repeat "
                f"({dtype.lanes_per_repeat} lanes)"
            )
        return _element_mask(count, dtype.lanes_per_repeat)

    @property
    def popcount(self) -> int:
        """Number of enabled lanes."""
        return self.bits.bit_count()

    def lanes(self, dtype: DType) -> np.ndarray:
        """Indices of enabled element lanes for ``dtype`` within a repeat."""
        return _lanes_cached(self.bits, dtype.lanes_per_repeat)

    def utilization(self, dtype: DType) -> float:
        """Fraction of the datapath this mask keeps busy (0..1]."""
        return len(self.lanes(dtype)) / dtype.lanes_per_repeat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mask({self.popcount}/{VECTOR_MASK_BITS} lanes)"


@lru_cache(maxsize=256)
def _element_mask(count: int, lanes_per_repeat: int) -> Mask:
    """The mask enabling the first ``count`` element lanes.

    For fp32 each lane spans 2 mask bits; the simulator only needs
    lane-granular masks, so positions are scaled to bits.  One shared
    (immutable) instance per pattern: lowering emits a mask per vector
    instruction, and cached programs hold hundreds of thousands.
    """
    scale = VECTOR_MASK_BITS // lanes_per_repeat
    bits = 0
    for lane in range(count):
        bits |= 1 << (lane * scale)
    return Mask(bits)


@lru_cache(maxsize=512)
def _lanes_cached(bits: int, lanes_per_repeat: int) -> np.ndarray:
    """Enabled lane positions for a mask value; cached because kernels
    reuse a handful of mask patterns across thousands of instructions."""
    scale = VECTOR_MASK_BITS // lanes_per_repeat
    positions = [
        i // scale
        for i in range(VECTOR_MASK_BITS)
        if bits >> i & 1 and i % scale == 0
    ]
    arr = np.asarray(positions, dtype=np.int64)
    arr.setflags(write=False)
    return arr
