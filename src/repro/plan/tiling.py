"""Row-chunk tiling of pooling workloads.

A tile covers a contiguous range of *output* rows ``[oh0, oh1)`` of one
``(N, C1)`` slice.  The input rows it needs are derived from the pooling
geometry; global padding that falls inside the tile's row window becomes
the tile's local padding.  Implementations provide a
:class:`Footprint` describing the scratch-pad bytes a tile of given
geometry needs, and the planner binary-searches the largest chunk whose
every tile fits.

Invariant
---------

The planner's binary search is sound because footprints are *monotone*
in the chunk size: a tile covering more output rows loads at least as
many input rows, so every buffer requirement is non-decreasing in
``chunk``.  :func:`plan_chunk` therefore

1. probes ``chunk=1`` first -- if even single-output-row tiles overflow
   a scratch-pad it raises :class:`~repro.errors.TilingError` (the
   workload would need column tiling, which the paper's kernels do not
   use); this also establishes the search invariant that ``lo`` always
   fits;
2. binary-searches the largest fitting chunk in ``[1, oh]`` -- at the
   boundary where *exactly one* chunk size fits, that size is ``1`` and
   the probe already proved it legal, so the search degenerates
   correctly instead of dropping to an untested candidate;
3. optionally shrinks the winner so each slice yields at least
   ``min_tiles`` tiles (multi-core occupancy), which can only shrink --
   a smaller chunk always still fits by monotonicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import ChipConfig
from ..dtypes import DType
from ..errors import LayoutError, TilingError
from ..isa.scu import Im2ColParams

#: Maps a tile geometry to required bytes per buffer, e.g.
#: ``{"UB": 131072, "L1": 65536}``.
Footprint = Callable[[Im2ColParams, DType], dict[str, int]]


@dataclass(frozen=True)
class TileGeom:
    """One tile: global coordinates plus the tile-local Im2Col geometry."""

    #: Output row range (global patch-grid coordinates).
    oh0: int
    oh1: int
    #: Input row range (global, unpadded image coordinates).
    ih0: int
    ih1: int
    #: Tile-local geometry: ``ih`` is the loaded row count and the
    #: paddings are the parts of the global halo this tile sees.
    params: Im2ColParams

    @property
    def out_rows(self) -> int:
        return self.oh1 - self.oh0

    @property
    def in_rows(self) -> int:
        return self.ih1 - self.ih0


def _tile_for_chunk(
    full: Im2ColParams, oh0: int, oh1: int
) -> TileGeom:
    """Geometry of the tile covering output rows [oh0, oh1)."""
    # Rows needed in padded coordinates: [oh0*Sh, (oh1-1)*Sh + Kh).
    top_padded = oh0 * full.sh
    bot_padded = (oh1 - 1) * full.sh + full.kh
    ih0 = max(0, top_padded - full.pt)
    ih1 = min(full.ih, bot_padded - full.pt)
    if ih1 <= ih0:
        raise TilingError(
            f"tile [{oh0}, {oh1}) lies entirely in the padding halo"
        )
    tile_pt = max(0, full.pt - top_padded)
    tile_pb = max(0, bot_padded - full.pt - full.ih)
    params = Im2ColParams(
        ih=ih1 - ih0,
        iw=full.iw,
        kh=full.kh,
        kw=full.kw,
        sh=full.sh,
        sw=full.sw,
        pt=tile_pt,
        pb=tile_pb,
        pl=full.pl,
        pr=full.pr,
    )
    got = params.out_hw()
    if got[0] != oh1 - oh0:
        raise TilingError(
            f"tile geometry inconsistency: expected {oh1 - oh0} output "
            f"rows, geometry gives {got[0]}"
        )
    return TileGeom(oh0=oh0, oh1=oh1, ih0=ih0, ih1=ih1, params=params)


def _tiles_of_chunk(full: Im2ColParams, chunk: int) -> list[TileGeom]:
    oh, _ = full.out_hw()
    return [
        _tile_for_chunk(full, oh0, min(oh0 + chunk, oh))
        for oh0 in range(0, oh, chunk)
    ]


def tiles_for_chunk(full: Im2ColParams, chunk: int) -> list[TileGeom]:
    """The tiles of an explicit row-chunk size, in output-row order.

    The lowering stage (:mod:`repro.plan.planner`) realizes an
    :class:`~repro.plan.planner.ExecutionPlan`'s chosen ``chunk`` through
    this function; the autotuner enumerates candidate chunks with it.
    Raises :class:`~repro.errors.TilingError` for chunks that produce an
    inconsistent tile geometry (e.g. a tile entirely inside the padding
    halo) -- it does *not* check scratch-pad capacity, which is the
    planner's (or the searcher's) job.
    """
    if chunk < 1:
        raise TilingError(f"row chunk must be >= 1, got {chunk}")
    return _tiles_of_chunk(full, chunk)


def _fits(
    tiles: list[TileGeom],
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
) -> bool:
    specs = config.buffer_specs()
    for tile in tiles:
        need = footprint(tile.params, dtype)
        for buffer, nbytes in need.items():
            if buffer not in specs:
                raise TilingError(f"footprint names unknown buffer {buffer!r}")
            if nbytes > specs[buffer].capacity_bytes:
                return False
    return True


def chunk_fits(
    full: Im2ColParams,
    chunk: int,
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
) -> bool:
    """Whether every tile of ``chunk`` fits the scratch-pad buffers.

    The autotuner's legality filter: candidate chunks that overflow (or
    cannot even form a consistent tiling) are excluded from the search
    space rather than raising mid-search.
    """
    try:
        return _fits(tiles_for_chunk(full, chunk), footprint, config, dtype)
    except TilingError:
        return False


def plan_chunk(
    full: Im2ColParams,
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
    min_tiles: int = 1,
) -> int:
    """The heuristic row-chunk size (see the module-docstring invariant).

    The chunk is the largest that fits the scratch-pads, then shrunk (if
    needed) so each ``(N, C1)`` slice yields at least ``min_tiles``
    tiles.  This is the *decision* half of :func:`plan_row_chunks`,
    exposed so the planning stage (:mod:`repro.plan.planner`) can record
    the choice in an :class:`~repro.plan.planner.ExecutionPlan` and the
    autotuner can compare the heuristic against searched alternatives.
    """
    oh, _ = full.out_hw()
    lo, hi = 1, oh  # invariant: lo always fits if anything does
    if not _fits(_tiles_of_chunk(full, 1), footprint, config, dtype):
        raise TilingError(
            "even single-output-row tiles exceed the scratch-pad "
            "capacity; the workload needs column tiling"
        )
    best = 1
    while lo <= hi:
        mid = (lo + hi) // 2
        if _fits(_tiles_of_chunk(full, mid), footprint, config, dtype):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    if min_tiles > 1:
        # Floor division guarantees at least min(min_tiles, oh) tiles.
        parallel_chunk = max(1, oh // min(min_tiles, oh))
        best = min(best, parallel_chunk)
    return best


def plan_row_chunks(
    full: Im2ColParams,
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
    min_tiles: int = 1,
) -> list[TileGeom]:
    """Row tiling whose every tile fits the buffers.

    The chunk is the largest that fits the scratch-pads
    (:func:`plan_chunk`), then shrunk (if needed) so each ``(N, C1)``
    slice yields at least ``min_tiles`` tiles -- AKG "parallelizes the
    outer loops between the AI Cores" (Section IV-A), and when ``N*C1``
    alone cannot occupy the chip the row dimension is split further so
    idle cores get work.  Both compared implementations receive the same
    policy, so the comparison is never skewed by one side's larger
    footprint buying it extra parallelism for free.

    Returns the tiles in output-row order; a single tile covering the
    whole grid when neither capacity nor parallelism needs a split.
    Raises :class:`TilingError` when even single-row tiles overflow (the
    workload would need column tiling, which the paper's kernels do not
    use).
    """
    return _tiles_of_chunk(
        full, plan_chunk(full, footprint, config, dtype, min_tiles)
    )


def tiling_threshold(
    make_params: Callable[[int], Im2ColParams],
    footprint: Footprint,
    config: ChipConfig,
    dtype: DType,
    max_size: int = 4096,
) -> int:
    """Largest ``size`` whose whole image fits untiled (Figure 8 x-range).

    ``make_params(size)`` builds the geometry of a ``size x size`` input.
    Monotone in ``size``, so binary search.
    """

    def fits(size: int) -> bool:
        try:
            params = make_params(size)
        except LayoutError:
            return False
        need = footprint(params, dtype)
        specs = config.buffer_specs()
        return all(
            nbytes <= specs[buffer].capacity_bytes
            for buffer, nbytes in need.items()
        )

    # Skip sizes too small for the kernel geometry (make_params raises).
    lo = 1
    while lo <= max_size and not fits(lo):
        lo += 1
    if lo > max_size:
        raise TilingError("no input size fits untiled")
    hi = max_size
    best = lo
    while lo <= hi:
        mid = (lo + hi) // 2
        if fits(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best
