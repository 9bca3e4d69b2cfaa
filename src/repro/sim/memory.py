"""Simulated global memory (DDR / HBM / L2).

"From the AI Core's perspective, all shared memories (DDR, HBM, and L2)
are considered global memory" (Section III-A).  Tensors live here as
flat, named fp16 (or other dtype) arrays; kernels address them through
:class:`repro.isa.operand.MemRef` with the tensor name as the buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SCRATCH_PADS
from ..dtypes import DType, dtype_of
from ..errors import SimulationError
from ..isa.operand import MemRef


@dataclass
class GlobalMemory:
    """A name -> flat-array map standing in for DDR/HBM/L2."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, array: np.ndarray) -> MemRef:
        """Register a tensor (any shape); returns a MemRef spanning it.

        The stored array is a flat *copy* so later mutation of the
        caller's array cannot silently change simulated memory.  A
        scratch-pad name (``UB``, ``L1``, ...) is refused: an AI Core
        resolves it to its own buffer, so the tensor would be unreachable.
        """
        if name in SCRATCH_PADS:
            raise SimulationError(
                f"tensor name {name!r} is a scratch-pad buffer name"
            )
        if name in self.tensors:
            raise SimulationError(f"tensor {name!r} already in global memory")
        flat = np.ascontiguousarray(array).reshape(-1).copy()
        self.tensors[name] = flat
        return MemRef(name, 0, flat.size, dtype_of(flat))

    def zeros(self, name: str, size: int, dtype: DType) -> MemRef:
        """Allocate a zero-filled output tensor."""
        return self.add(name, np.zeros(size, dtype=dtype.np_dtype))

    def view(self, name: str) -> np.ndarray:
        try:
            return self.tensors[name]
        except KeyError:
            raise SimulationError(
                f"no tensor {name!r} in global memory"
            ) from None

    def read(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """Copy a tensor out, reshaped; for inspecting kernel results."""
        flat = self.view(name)
        expected = int(np.prod(shape))
        if expected != flat.size:
            raise SimulationError(
                f"tensor {name!r} has {flat.size} elements, cannot view as "
                f"{shape}"
            )
        return flat.reshape(shape).copy()

    def __contains__(self, name: str) -> bool:
        return name in self.tensors
