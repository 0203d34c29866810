"""Distributed arrays with overlap (ghost) areas.

Each PE stores a padded local block: the owned subgrid plus ``halo[d] =
(lo, hi)`` extra planes per dimension.  Overlap areas receive data moved
by :func:`repro.runtime.overlap.overlap_shift`; offset references
(``U<+1,-1>``) read straight into them, which is how the offset-array
optimization eliminates intraprocessor copying (paper section 3.1,
exploiting the overlap areas of Gerndt [11]).

Convention: Fortran global index ``g`` (1-based) along dim ``d`` maps to
NumPy axis ``d`` index ``halo[d][0] + (g - owned_lo)`` in the padded
local array.

The blocks share one buffer, the *arena*: a ``(*grid, *cell)`` array,
each PE's block the leading sub-box of its cell, so data motion is one
array operation over all PEs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import prod

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.machine.machine import Machine
from repro.runtime.distribution import Layout

Halo = tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
def _footprint(layout: Layout, halo: Halo, dtype: np.dtype) -> tuple:
    """Per PE, the padded block's bytes (what the memory manager charges,
    never the cell's) and its index in the arena; the cell shape last."""
    shapes = [tuple(n + lo + hi for n, (lo, hi) in zip(local, halo))
              for local in map(layout.local_shape, layout.grid.ranks())]
    nbytes = np.array(list(map(prod, shapes)), np.int64) * dtype.itemsize
    nbytes.flags.writeable = False      # every allocation shares it
    blocks = tuple((*layout.grid.coords(pe), *(slice(0, n) for n in shape))
                   for pe, shape in enumerate(shapes))
    return nbytes, blocks, tuple(map(max, zip(*shapes)))


@lru_cache(maxsize=1024)
def _classes(layout: Layout, halo: Halo) -> tuple:
    """The owned blocks in classes of one shape (along a BLOCK dim the
    full blocks, then a short last one): per class, its interiors in the
    arena, and the global window with the reshape and transpose that lay
    it out alike."""
    options = []    # per dim: (grid slice | None, blocks, extent, start)
    for d, n in enumerate(layout.shape):
        bd = layout.block_dims.get(d)
        b, p = (bd.block, bd.nprocs) if bd else (n, 1)
        runs = [(0, p, b)] if n == p * b else \
            [(0, p - 1, b), (p - 1, 1, n - (p - 1) * b)]
        options.append([(slice(j, j + c) if bd else None, c, m, j * b)
                        for j, c, m in runs])
    classes = []
    for choice in product(*options):
        split, counts, extents = [], [], []
        for grid, count, n, _ in choice:
            if grid:
                counts.append(len(split))
                split.append(count)
            extents.append(len(split))
            split.append(n)
        interiors = tuple(slice(lo, lo + n)
                          for (lo, _), (_, _, n, _) in zip(halo, choice))
        classes.append((
            tuple(grid for grid, *_ in choice if grid) + interiors,
            tuple(slice(start, start + count * n)
                  for _, count, n, start in choice),
            tuple(split), tuple(counts + extents)))
    return tuple(classes)


def allocate_distributed(machine: Machine, name: str, layout: Layout,
                         dtype, halo: Halo | None) -> tuple:
    """What allocating a distributed array costs, for every placement:
    validate ``halo`` against the layout, compute the per-PE padded
    shapes and charge their bytes to the memory manager (so a too-big
    allocation raises :class:`SimulatedOutOfMemoryError` exactly as a
    real node would fail).  Returns ``(dtype, halo, footprint)`` (see
    :func:`_footprint`); the caller only adds storage."""
    rank = len(layout.shape)
    halo = halo or tuple((0, 0) for _ in range(rank))
    if len(halo) != rank:
        raise MachineError(f"halo rank mismatch for {name}")
    for d, (lo, hi) in enumerate(halo):
        limit = layout.max_shift(d)
        if max(lo, hi) > limit:
            raise MachineError(
                f"{name}: halo {max(lo, hi)} along dim {d + 1} "
                f"exceeds the minimum local extent {limit}; "
                f"use a smaller shift or fewer processors")
    dtype = np.dtype(dtype)
    footprint = _footprint(layout, halo, dtype)
    machine.memory.allocate_all(name, footprint[0])
    return dtype, halo, footprint


@dataclass
class DArray:
    """A BLOCK-distributed array materialised on a machine: one padded
    block per PE, each the leading sub-box of its cell of one arena."""

    name: str
    layout: Layout
    dtype: np.dtype
    halo: Halo
    #: the arena, ``(*grid, *cell)``
    data: np.ndarray
    #: per PE, its padded block's index in ``data``
    blocks: tuple
    #: what the executor keys this buffer's schedules on
    key: object = field(default=None, repr=False, compare=False)
    #: that buffer's ``(address, bytes)``, for native region tables
    arena: tuple[int, int] = field(default=(0, 0), repr=False,
                                   compare=False)

    # -- construction ------------------------------------------------------
    @staticmethod
    def create(machine: Machine, name: str, layout: Layout,
               dtype: np.dtype, halo: Halo | None = None) -> "DArray":
        dtype, halo, (_, blocks, cell) = allocate_distributed(
            machine, name, layout, dtype, halo)
        data = np.zeros((*layout.grid.shape, *cell), dtype=dtype)
        return DArray(name, layout, dtype, halo, data, blocks,
                      arena=(data.ctypes.data, data.nbytes))

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.data, self.locals = np.zeros(0, dtype=self.dtype), []

    @cached_property
    def locals(self) -> list[np.ndarray]:
        """Every PE's padded block as a view, made on first use."""
        return [self.data[index] for index in self.blocks]

    # -- views ---------------------------------------------------------------
    def padded(self, pe: int) -> np.ndarray:
        try:
            return self.locals[pe]
        except IndexError:
            raise ExecutionError(
                f"{self.name}: no local block for PE {pe}") from None

    def interior(self, pe: int) -> np.ndarray:
        """View of the owned subgrid (no overlap area)."""
        return self.padded(pe)[self.interior_slices(pe)]

    def interior_slices(self, pe: int) -> tuple[slice, ...]:
        padded = self.padded(pe)
        return tuple(slice(lo, padded.shape[d] - hi)
                     for d, (lo, hi) in enumerate(self.halo))

    # -- global <-> local ------------------------------------------------------
    def scatter(self, global_array: np.ndarray) -> None:
        """Distribute a global array's values into the local interiors."""
        if tuple(global_array.shape) != self.layout.shape:
            raise MachineError(
                f"{self.name}: scatter shape {global_array.shape} != "
                f"declared {self.layout.shape}")
        for cells, window, split, axes in _classes(self.layout, self.halo):
            self.data[cells] = global_array[window].reshape(split) \
                .transpose(axes)

    def gather(self) -> np.ndarray:
        """Assemble the global array from the local interiors."""
        out = np.empty(self.layout.shape, dtype=self.dtype)
        for cells, window, split, axes in _classes(self.layout, self.halo):
            out[window].reshape(split).transpose(axes)[...] = self.data[cells]
        return out

    # -- data motion: what a placement adds to the shared charge walks ------
    def fill_overlap(self, shift) -> None:
        """The data half of an ``OverlapShift``: on every PE, fill the
        ``sign``-side overlap slab of dim ``d`` (depth ``s``, widened by
        ``ext[k]`` overlap cells in the other dims) from the neighboring
        block — block to block, no network — or with ``boundary`` past
        the global edge.  The slabs come from the layout, never from the
        blocks: derived once, they are kept on the shift as flat arena
        indices.  No cell is both a destination (an overlap cell along
        ``d``) and a source (an owned one), so one gather and scatter is
        the slab-by-slab copy in rank order."""
        moves = shift.moves.get(DArray)
        if moves is None:
            moves = shift.moves[DArray] = self._moves(shift)
        dst, src, edge = moves
        flat = self.data.reshape(-1)
        flat[dst] = flat.take(src)
        if shift.boundary is not None:
            flat[edge] = shift.boundary

    def _moves(self, shift) -> tuple:
        """Every PE's slab as ``(destinations, their sources, boundary
        cells)``; no sender past the global edge of an end-off shift."""
        d, s, sign, ext = shift.d, shift.s, shift.sign, shift.ext
        layout = self.layout
        halo_lo = self.halo[d][0]
        distributed = layout.is_distributed(d)
        n_global = layout.shape[d]

        cell = self.data.shape[-len(self.halo):]
        in_cell: dict = {}      # a slab's ranges -> its indices in a cell

        def slab(pe: int, along_d: slice) -> np.ndarray:    # C order
            local = layout.local_shape(pe)
            key = tuple((along_d.start, along_d.stop) if k == d else
                        (self.halo[k][0] - ext[k][0],
                         self.halo[k][0] + local[k] + ext[k][1])
                        for k in range(len(local)))
            if key not in in_cell:
                in_cell[key] = np.ravel_multi_index(
                    np.ix_(*(range(*r) for r in key)), cell).ravel()
            return pe * prod(cell) + in_cell[key]

        dst, src, edge = [], [], []
        for pe in layout.grid.ranks():
            n_local = layout.local_shape(pe)[d]
            to = slab(pe, slice(halo_lo + n_local, halo_lo + n_local + s)
                      if sign > 0 else slice(halo_lo - s, halo_lo))
            # a collapsed dimension is whole on every PE: each one is at
            # both global edges and wraps onto itself
            box_lo, box_hi = layout.owned_box(pe)[d]
            at_edge = (box_hi == n_global) if sign > 0 else (box_lo == 1)
            if shift.boundary is not None and at_edge:
                edge.append(to)
                continue
            sender = layout.neighbor(pe, d, sign) if distributed else pe
            sender_n = layout.local_shape(sender)[d]
            dst.append(to)
            src.append(slab(sender, slice(halo_lo, halo_lo + s) if sign > 0
                            else slice(halo_lo + sender_n - s,
                                       halo_lo + sender_n)))
        return tuple(np.concatenate(cells or [np.zeros(0, np.intp)])
                     for cells in (dst, src, edge))

    def assign_interior(self, other: "DArray", shift: int, d: int) -> None:
        """``self(i) = other(i + shift)`` along dim ``d`` over the owned
        subgrid of every PE (a nonzero shift reads into ``other``'s
        overlap area); PEs whose block is empty are skipped."""
        for pe in self.layout.grid.ranks():
            if prod(self.layout.local_shape(pe)):
                src = list(other.interior_slices(pe))
                src[d] = slice(src[d].start + shift, src[d].stop + shift)
                self.interior(pe)[...] = other.padded(pe)[tuple(src)]

    # -- geometry helpers ----------------------------------------------------
    def owned_box(self, pe: int) -> tuple[tuple[int, int], ...]:
        return self.layout.owned_box(pe)

    def origin(self, pe: int) -> tuple[int, ...]:
        """Global index of the first interior cell of ``padded(pe)``."""
        return tuple(lo for lo, _ in self.layout.owned_box(pe))

    def local_index_of(self, pe: int, gidx: tuple[int, ...]) -> tuple[int, ...]:
        """Padded-array index of a *globally owned* element on this PE."""
        box = self.owned_box(pe)
        out = []
        for d, ((lo, hi), g) in enumerate(zip(box, gidx)):
            if not (lo <= g <= hi):
                raise ExecutionError(
                    f"{self.name}: global index {gidx} not owned by PE {pe}")
            out.append(self.halo[d][0] + (g - lo))
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.layout.shape)

    def __str__(self) -> str:
        return (f"DArray({self.name}, shape={self.layout.shape}, "
                f"halo={self.halo})")
