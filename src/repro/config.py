"""Chip configuration and instruction cost model.

The defaults describe an Ascend-910-like chip (Section III of the paper):
32 AI Cores, scratch-pad buffer capacities taken from the DaVinci Hot
Chips presentation, and a per-instruction cycle cost model whose
constants were calibrated so the reproduced Figure 7 speedups land in the
paper's reported band (see EXPERIMENTS.md for the calibration record).

The cost model intentionally charges a whole repeat iteration regardless
of how many mask lanes are set: a vector instruction that enables only 16
of 128 lanes wastes 7/8 of the datapath.  This single property is what
makes the paper's standard-vs-Im2col comparison come out the way it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of the simulated units.

    All values are in cycles of the 100 MHz on-chip clock the paper's
    hardware counters report.
    """

    #: Fixed cost of issuing any vector/SCU instruction: fetch, decode,
    #: scalar-unit address generation and the synchronisation barrier that
    #: surrounds non-repeated instructions in lowered CCE C loops.
    issue_cycles: int = 4

    #: Cycles per vector repeat iteration (one 256-byte vector).
    vector_repeat_cycles: int = 1

    #: Cycles for the SCU to gather and emit one Im2Col fractal: 16
    #: patch rows scattered across L1 banks, roughly one 32-byte line
    #: every other cycle.  Calibrated against the paper's Figure 7a
    #: speedup (see EXPERIMENTS.md).
    im2col_fractal_cycles: int = 8

    #: Cycles for one Col2Im fractal: gather, add, scatter back within
    #: the Unified Buffer.  Calibrated against Figure 7c.
    col2im_fractal_cycles: int = 7

    #: Fixed latency of a DMA (MTE) transfer between global memory and a
    #: scratch-pad buffer.
    dma_latency_cycles: int = 32

    #: DMA bandwidth in bytes per cycle (global memory <-> L1/UB).
    dma_bytes_per_cycle: int = 128

    #: Bandwidth of on-chip buffer-to-buffer moves (L1 <-> UB plain copy).
    local_bytes_per_cycle: int = 256

    #: Per-iteration cost of a scalar loop that the lowering could not
    #: remove (loop counter update + branch on the Scalar Unit).
    loop_cycles: int = 1

    #: Cube unit: cycles per data-fractal pair multiply-accumulate.
    cube_mmad_cycles: int = 1

    #: One-time cost of launching a tile on an AI Core (block dispatch).
    tile_launch_cycles: int = 64


@dataclass(frozen=True)
class BufferSpec:
    """Capacity and alignment of one scratch-pad buffer."""

    name: str
    capacity_bytes: int
    alignment: int = 32


@dataclass(frozen=True)
class ChipConfig:
    """Static description of the simulated chip.

    The buffer sizes follow the published Ascend 910 AI Core numbers:
    L1 = 1 MiB, L0A = L0B = 64 KiB, L0C = 256 KiB, Unified Buffer =
    256 KiB.  ``num_cores`` is 32 as in the paper's evaluation.
    """

    num_cores: int = 32
    frequency_mhz: int = 100
    cost: CostModel = field(default_factory=CostModel)

    l1_bytes: int = 1024 * 1024
    l0a_bytes: int = 64 * 1024
    l0b_bytes: int = 64 * 1024
    l0c_bytes: int = 256 * 1024
    ub_bytes: int = 256 * 1024

    #: Maximum value of the hardware repeat field on vector and SCU
    #: instructions; larger loops must issue multiple instructions.
    max_repeat: int = 255

    def buffer_specs(self) -> dict[str, BufferSpec]:
        """Scratch-pad buffer table keyed by buffer name."""
        return {
            "L1": BufferSpec("L1", self.l1_bytes),
            "L0A": BufferSpec("L0A", self.l0a_bytes, alignment=512),
            "L0B": BufferSpec("L0B", self.l0b_bytes, alignment=512),
            "L0C": BufferSpec("L0C", self.l0c_bytes, alignment=512),
            "UB": BufferSpec("UB", self.ub_bytes),
        }

    def with_cost(self, **kwargs) -> "ChipConfig":
        """Return a copy with some cost-model constants replaced.

        Used by the ablation benchmarks to sweep calibration constants.
        """
        return replace(self, cost=replace(self.cost, **kwargs))


#: The configuration used throughout the reproduction unless overridden.
ASCEND910 = ChipConfig()

#: A single-core configuration for the Figure 8 experiments, which pin
#: N = C1 = 1 so that only one AI Core is exercised.
ASCEND910_SINGLE_CORE = replace(ASCEND910, num_cores=1)

#: Names of the scratch-pad buffers, the same for every configuration
#: (only their capacities vary).  Any other buffer an instruction names
#: is a global-memory tensor, and global memory refuses these names.
SCRATCH_PADS = frozenset(ASCEND910.buffer_specs())
