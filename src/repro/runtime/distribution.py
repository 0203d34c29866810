"""HPF BLOCK distribution index arithmetic.

Follows the HPF standard: ``BLOCK`` over extent ``n`` and ``p`` processors
uses block size ``ceil(n/p)``; processor ``j`` owns global (1-based)
indices ``j*b+1 .. min((j+1)*b, n)``.  Layouts with empty blocks are
rejected (they would break torus adjacency for circular shifts).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.errors import MachineError
from repro.ir.types import Distribution
from repro.machine.topology import ProcessorGrid


@dataclass(frozen=True)
class BlockDim:
    """One BLOCK-distributed dimension."""

    extent: int
    nprocs: int

    def __post_init__(self) -> None:
        if self.extent < 1 or self.nprocs < 1:
            raise MachineError(
                f"bad BLOCK dimension: extent={self.extent}, "
                f"nprocs={self.nprocs}")
        if (self.nprocs - 1) * self.block >= self.extent:
            raise MachineError(
                f"BLOCK({self.extent}) over {self.nprocs} processors "
                f"leaves processor {self.nprocs - 1} empty")

    @property
    def block(self) -> int:
        return math.ceil(self.extent / self.nprocs)

    def owner_range(self, j: int) -> tuple[int, int]:
        """Global 1-based inclusive index range owned by processor ``j``."""
        lo = j * self.block + 1
        hi = min((j + 1) * self.block, self.extent)
        return lo, hi

    def local_extent(self, j: int) -> int:
        lo, hi = self.owner_range(j)
        return hi - lo + 1

    def owner_of(self, g: int) -> int:
        """Owning processor of global index ``g`` (1-based)."""
        if not (1 <= g <= self.extent):
            raise MachineError(f"global index {g} out of 1..{self.extent}")
        return (g - 1) // self.block

    def to_local(self, g: int, j: int) -> int:
        """0-based local index of global ``g`` on processor ``j``."""
        lo, hi = self.owner_range(j)
        if not (lo <= g <= hi):
            raise MachineError(f"index {g} not owned by processor {j}")
        return g - lo

    @property
    def min_local_extent(self) -> int:
        return min(self.local_extent(j) for j in range(self.nprocs))


@dataclass(frozen=True)
class Layout:
    """Mapping of one array onto the processor grid.

    Array dimensions distributed BLOCK are assigned to grid dimensions in
    order; the number of BLOCK dimensions must equal the grid rank (the
    paper's kernels are 2-D (BLOCK,BLOCK) on a 2-D grid).  Collapsed
    (``*``) dimensions are whole on every PE.
    """

    shape: tuple[int, ...]
    dist: Distribution
    grid: ProcessorGrid

    def __post_init__(self) -> None:
        if len(self.dist.dims) != len(self.shape):
            raise MachineError(
                f"distribution rank {len(self.dist.dims)} vs array rank "
                f"{len(self.shape)}")
        ndist = len(self.dist.distributed_dims)
        if ndist != self.grid.ndim:
            raise MachineError(
                f"array has {ndist} BLOCK dimensions but the machine grid "
                f"is {self.grid} — shape the grid to match (e.g. grid=(4,) "
                f"for (BLOCK,*))")

    # -- dimension mapping ---------------------------------------------------
    @cached_property
    def grid_dim_of(self) -> dict[int, int]:
        """array dim (0-based) -> grid dim, for BLOCK dims only."""
        return {ad: gd for gd, ad in enumerate(self.dist.distributed_dims)}

    @cached_property
    def block_dims(self) -> dict[int, BlockDim]:
        return {
            ad: BlockDim(self.shape[ad], self.grid.shape[gd])
            for ad, gd in self.grid_dim_of.items()
        }

    def is_distributed(self, array_dim: int) -> bool:
        return array_dim in self.grid_dim_of

    # -- per-PE geometry -----------------------------------------------------
    @cached_property
    def _owned_boxes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        boxes = []
        for rank in self.grid.ranks():
            coords = self.grid.coords(rank)
            box = []
            for ad in range(len(self.shape)):
                if ad in self.grid_dim_of:
                    j = coords[self.grid_dim_of[ad]]
                    box.append(self.block_dims[ad].owner_range(j))
                else:
                    box.append((1, self.shape[ad]))
            boxes.append(tuple(box))
        return tuple(boxes)

    @cached_property
    def _local_shapes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(hi - lo + 1 for lo, hi in box)
                     for box in self._owned_boxes)

    @cached_property
    def owned_slices(self) -> tuple[tuple[slice, ...], ...]:
        """Per rank, its owned block as slices of the global array."""
        return tuple(tuple(slice(lo - 1, hi) for lo, hi in box)
                     for box in self._owned_boxes)

    def owned_box(self, rank: int) -> tuple[tuple[int, int], ...]:
        """Global 1-based inclusive (lo, hi) per array dim owned by ``rank``."""
        return self._owned_boxes[rank]

    def local_shape(self, rank: int) -> tuple[int, ...]:
        return self._local_shapes[rank]

    def owner_rank(self, gidx: tuple[int, ...]) -> int:
        """Rank owning a global (1-based) element."""
        coords = [0] * self.grid.ndim
        for ad, gd in self.grid_dim_of.items():
            coords[gd] = self.block_dims[ad].owner_of(gidx[ad])
        return self.grid.rank(tuple(coords))

    def max_shift(self, array_dim: int) -> int:
        """Largest |shift| supported along ``array_dim`` such that a
        shifted slab comes wholly from the adjacent block."""
        if not self.is_distributed(array_dim):
            return self.shape[array_dim]
        return self.block_dims[array_dim].min_local_extent

    @cached_property
    def _neighbor_tables(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return {}

    def neighbor(self, rank: int, array_dim: int, direction: int) -> int:
        """Torus neighbor of ``rank`` along an array dimension."""
        key = (array_dim, direction)
        table = self._neighbor_tables.get(key)
        if table is None:
            gd = self.grid_dim_of[array_dim]
            table = tuple(self.grid.neighbor(r, gd, direction)
                          for r in self.grid.ranks())
            self._neighbor_tables[key] = table
        return table[rank]


@lru_cache(maxsize=1024)
def cached_layout(shape: tuple[int, ...], dist: Distribution,
                  grid: ProcessorGrid) -> Layout:
    """Canonical Layout instance per (shape, distribution, grid).

    Layouts are immutable and their per-PE geometry is memoized on the
    instance, so executors that materialise the same arrays repeatedly
    should share one instance rather than recompute the geometry."""
    return Layout(shape, dist, grid)
