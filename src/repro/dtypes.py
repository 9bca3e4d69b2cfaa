"""Data-type descriptors for the simulated DaVinci architecture.

DaVinci's fractal memory layout fixes the innermost ``C0`` dimension so
that one *data-fractal* (16 rows of ``C0`` elements) always holds 4096
bits of data (Section III-B of the paper).  For ``float16`` this gives
``C0 = 16``; for ``uint8`` it gives ``C0 = 32``.

The paper's evaluation uses ``float16`` exclusively; this module also
carries the other types the hardware supports so layout code can be
exercised against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayoutError

#: Bits of payload in one data-fractal (16 x C0 elements).
FRACTAL_BITS = 4096

#: Rows in a data-fractal -- also the number of patches an Im2Col load
#: selects per issued fractal (Section III-C, task (iii)).
FRACTAL_ROWS = 16

#: Bytes in one vector-unit block; the 128-bit mask covers 8 blocks of
#: 16 fp16 lanes (Section III-A).
BLOCK_BYTES = 32

#: Width of the vector mask register in lanes-of-smallest-granularity.
VECTOR_MASK_BITS = 128

#: Bytes processed by one vector repeat iteration (8 blocks).
VECTOR_BYTES_PER_REPEAT = 256


@dataclass(frozen=True)
class DType:
    """Description of an element type as seen by the simulated hardware.

    Attributes
    ----------
    name:
        Canonical lower-case name (``"float16"``...).
    np_dtype:
        The NumPy dtype used to store simulated buffer contents.
    itemsize:
        Bytes per element.
    c0:
        Length of the fractal ``C0`` dimension for this type, chosen so
        that ``FRACTAL_ROWS * c0 * itemsize * 8 == FRACTAL_BITS``.
    """

    name: str
    np_dtype: np.dtype
    itemsize: int
    c0: int

    def __post_init__(self) -> None:
        if FRACTAL_ROWS * self.c0 * self.itemsize * 8 != FRACTAL_BITS:
            raise LayoutError(
                f"dtype {self.name}: C0={self.c0} does not yield a "
                f"{FRACTAL_BITS}-bit fractal"
            )

    @property
    def lanes_per_block(self) -> int:
        """Elements held by one 32-byte vector block."""
        return BLOCK_BYTES // self.itemsize

    @property
    def lanes_per_repeat(self) -> int:
        """Elements processed by one vector repeat (8 blocks)."""
        return VECTOR_BYTES_PER_REPEAT // self.itemsize

    @property
    def min_value(self) -> float:
        """Most negative finite value; used to seed max reductions."""
        if np.issubdtype(self.np_dtype, np.floating):
            return float(np.finfo(self.np_dtype).min)
        return int(np.iinfo(self.np_dtype).min)

    @property
    def max_value(self) -> float:
        if np.issubdtype(self.np_dtype, np.floating):
            return float(np.finfo(self.np_dtype).max)
        return int(np.iinfo(self.np_dtype).max)

    def fractal_bytes(self) -> int:
        """Bytes in one data-fractal of this type (always 512)."""
        return FRACTAL_ROWS * self.c0 * self.itemsize


FLOAT16 = DType("float16", np.dtype(np.float16), 2, 16)
FLOAT32 = DType("float32", np.dtype(np.float32), 4, 8)
UINT8 = DType("uint8", np.dtype(np.uint8), 1, 32)
INT8 = DType("int8", np.dtype(np.int8), 1, 32)

_BY_NAME = {d.name: d for d in (FLOAT16, FLOAT32, UINT8, INT8)}


def dtype_by_name(name: str) -> DType:
    """Look up a :class:`DType` by its canonical name.

    Raises :class:`LayoutError` for unknown names.
    """
    try:
        return _BY_NAME[name]
    except KeyError:
        raise LayoutError(f"unknown dtype name {name!r}") from None


def dtype_of(array: np.ndarray) -> DType:
    """Return the :class:`DType` descriptor matching a NumPy array."""
    for d in _BY_NAME.values():
        if d.np_dtype == array.dtype:
            return d
    raise LayoutError(f"unsupported array dtype {array.dtype}")


# ---------------------------------------------------------------------------
# fp16 arithmetic on float32 operands
#
# Every fp16 value is exact in binary32, so data can stay float32 while
# keeping fp16 values.  Max, min, compare and copy of such values are
# exact; add, subtract, multiply and divide computed in float32 and
# rounded once to fp16 are correctly rounded, because binary32's 24
# significand bits are at least 2 * 11 + 2 (S. A. Figueroa, "When is
# double rounding innocuous?", ACM SIGNUM Newsletter 30(3), 1995).

_F32 = np.dtype(np.float32)
#: Smallest normal fp16 magnitude; fp16 spaces everything below it
#: 2**-24 apart, which is float32's spacing on [0.5, 1).
_HALF_TINY = 0x38800000
_HALF_MAGIC = np.float32(0.5)
#: Magnitudes from 65520 (the midpoint past fp16's largest finite
#: value), infinities and NaNs.
_HALF_OVER = 0x477FF000
_HALF_SCALE = np.float32(2.0**-112)


def jit_dtype(np_dtype) -> np.dtype:
    """The dtype JIT kernels keep ``np_dtype`` data in: float32 for
    float16 (see :func:`round_to_half`), any other dtype itself."""
    np_dtype = np.dtype(np_dtype)
    return _F32 if np_dtype == np.float16 else np_dtype


def round_to_half(x: np.ndarray) -> np.ndarray:
    """Float32 ``x`` rounded onto the fp16 grid, as a new float32 array.

    Bit-identical to ``x.astype(np.float16).astype(np.float32)``: round
    to nearest even, overflow to infinity, fp16 subnormals, signed
    zeros, and a NaN's payload cut to fp16's 10 bits (kept nonzero).
    It rounds the bit pattern as an integer (drop 13 bits, nearest
    even) and handles subnormals by a magic add, at about a third of
    the cost of the two conversions.
    """
    return _round_in_place(x.copy())


def _round_in_place(x: np.ndarray, nans=None) -> np.ndarray:
    """:func:`round_to_half` into ``x`` itself.  ``nans``, for
    :func:`half_op`, is ``(a, b, keep)``: where operands ``a`` and
    ``b`` are both NaN, the result is ``keep``'s NaN, quieted."""
    u = x.view(np.uint32)
    mag = u & 0x7FFFFFFF
    over = mag >= _HALF_OVER
    big = u[over] if over.any() else None
    bit = u >> 13
    bit &= 1
    bit += 0x0FFF
    u += bit
    u &= 0xFFFFE000  # a finite value's sign bit survives the carry
    if big is not None:
        cut = big & 0xFFFFE000
        # Past 65520 -> infinity; a NaN keeps its top payload bits.
        cut[(cut & 0x7FFFFF) == 0] |= 0x2000
        u[over] = np.where(
            mag[over] > 0x7F800000, cut, (big & 0x80000000) | 0x7F800000
        )
        if nans is not None:
            a, b, keep = nans
            both = np.isnan(a) & np.isnan(b)
            if both.any():
                kept = np.broadcast_to(
                    np.asarray(keep, np.float32), x.shape
                ).view(np.uint32)
                np.copyto(u, (kept | 0x00400000) & 0xFFFFE000, where=both)
    # Nonzero magnitudes below the smallest normal (zero wraps round).
    mag -= 1
    tiny = mag < _HALF_TINY - 1
    if tiny.any():
        mag += 1
        small = mag.view(np.float32)
        with np.errstate(invalid="ignore"):  # signalling NaNs, unused
            small += _HALF_MAGIC
        small -= _HALF_MAGIC
        mag |= u & 0x80000000
        np.copyto(u, mag, where=tiny)
    return x


def to_half(x: np.ndarray) -> np.ndarray:
    """Float32 ``x`` holding fp16 values, as float16.

    For such values (:func:`round_to_half` results, widened fp16, NaN
    payloads included) bit-identical to ``x.astype(np.float16)``, at
    about a third of its cost: scaling by 2**-112 moves fp16's exponent
    range, subnormals included, onto the bottom of float32's, where the
    top 16 bits below the sign are the fp16 pattern.  Other values are
    truncated, not rounded.
    """
    u = x.view(np.uint32)
    scaled = np.abs(x)
    with np.errstate(invalid="ignore"):  # signalling NaNs, fixed below
        scaled *= _HALF_SCALE
    h = scaled.view(np.uint32)
    h >>= 13
    special = h >= 0x3FC00  # infinities and NaNs, payloads unscaled
    if special.any():
        h[special] = ((u[special] >> 13) & 0x3FF) | 0x7C00
    sign = u >> 16
    sign &= 0x8000
    h |= sign
    return h.astype(np.uint16).view(np.float16)


def half_op(op, nan_from: int | None = None):
    """The fp16 ufunc ``op`` on float32 operands holding fp16 values:
    computed in float32 and rounded once (:func:`round_to_half`).

    Where both operands are NaN, float32 and fp16 loops may return
    different operands' payloads.  ``nan_from`` names the operand (0 or
    1) whose quieted NaN the fp16 operation returns there; ``None``
    leaves float32's choice, for an ``op`` whose choice agrees.
    """

    def rounded(a, b):
        r = op(a, b)
        if nan_from is None:
            return _round_in_place(r)
        return _round_in_place(r, (a, b, (a, b)[nan_from]))

    return rounded
