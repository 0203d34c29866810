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
array operation over all PEs.  The slab backends lay the same arena out
on a one-PE grid: one cell, the global padded array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product
from math import prod

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.machine.machine import Machine
from repro.machine.topology import ProcessorGrid
from repro.runtime.distribution import Layout, cached_layout

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


def _runs(layout: Layout, d: int, window: tuple[int, int]) -> list:
    """The blocks along dim ``d`` that meet the global ``window`` (0-based
    ``(start, stop)``), as runs of one extent: each a grid slice (``None``
    on a collapsed dim), its block count, the extent of each block's part,
    where the run starts in the global array and in each block's
    interior.  Whole blocks run together; a block cut by the window, or
    the short last one, runs alone."""
    n = layout.shape[d]
    bd = layout.block_dims.get(d)
    b, p = (bd.block, bd.nprocs) if bd else (n, 1)
    runs = []
    for j in range(p):
        lo, hi = max(j * b, window[0]), min((j + 1) * b, n, window[1])
        if lo >= hi:
            continue
        if runs and hi - lo == b == runs[-1][2]:
            runs[-1][1] += 1
        else:
            runs.append([j, 1, hi - lo, lo, lo - j * b])
    return [(slice(j, j + c) if bd else None, c, m, g, at)
            for j, c, m, g, at in runs]


@lru_cache(maxsize=1024)
def _classes(layout: Layout, halo: Halo, window: tuple | None = None
             ) -> tuple:
    """The owned blocks' parts in ``window`` (per dim a global 0-based
    ``(start, stop)``; the whole array by default) in classes of one
    shape: per class, its interiors' cells in the arena, and the global
    window with the reshape and transpose that lay it out alike."""
    window = window or tuple((0, n) for n in layout.shape)
    classes = []
    for choice in product(*(_runs(layout, d, w)
                            for d, w in enumerate(window))):
        split, counts, extents = [], [], []
        for grid, count, n, _, _ in choice:
            if grid:
                counts.append(len(split))
                split.append(count)
            extents.append(len(split))
            split.append(n)
        interiors = tuple(slice(lo + at, lo + at + n)
                          for (lo, _), (_, _, n, _, at) in zip(halo, choice))
        classes.append((
            tuple(grid for grid, *_ in choice if grid) + interiors,
            tuple(slice(start, start + count * n)
                  for _, count, n, start, _ in choice),
            tuple(split), tuple(counts + extents)))
    return tuple(classes)


@lru_cache(maxsize=1024)
def _margins(layout: Layout, halo: Halo, cell: tuple) -> tuple:
    """Arena indices that together cover every cell outside the blocks'
    interiors: per dim, its low overlap planes and, per run of one block
    extent, all past the interior (high planes and a short cell's
    padding)."""
    ndim = layout.grid.ndim
    margins = []
    for d, n in enumerate(layout.shape):
        lo, axis = halo[d][0], ndim + d
        if lo:
            margins.append((slice(None),) * axis + (slice(0, lo),))
        for grid, _, m, _, _ in _runs(layout, d, (0, n)):
            if lo + m < cell[d]:
                index = [slice(None)] * axis + [slice(lo + m, None)]
                if grid:
                    index[layout.grid_dim_of[d]] = grid
                margins.append(tuple(index))
    return tuple(margins)


def _live(shape: tuple, dead: tuple) -> list:
    """The cells of ``shape`` outside the box ``dead`` (0-based ``(start,
    stop)`` per dim) as at most 2·rank disjoint windows."""
    windows, inner = [], []
    for d, ((lo, hi), n) in enumerate(zip(dead, shape)):
        rest = tuple((0, m) for m in shape[d + 1:])
        windows += [(*inner, part, *rest)
                    for part in ((0, lo), (hi, n)) if part[0] < part[1]]
        inner.append((lo, hi))
    return windows


def allocate_distributed(machine: Machine, name: str, layout: Layout,
                         dtype, halo: Halo | None) -> tuple:
    """What allocating a distributed array costs, for every storage:
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


def _one_pe(layout: Layout) -> Layout:
    """``layout`` on a one-PE grid: its one block is the global array."""
    return cached_layout(layout.shape, layout.dist,
                         ProcessorGrid((1,) * layout.grid.ndim))


@dataclass
class DArray:
    """A BLOCK-distributed array materialised on a machine: one padded
    block per PE, each the leading sub-box of its cell of one arena.

    The arena is laid out by the array's layout (a cell per PE) or, for
    the *slab*, by the same layout on a one-PE grid: one cell, the global
    padded array, that every PE's :meth:`padded` and :meth:`origin` map
    to, with overlap planes only past the global edges — exact for every
    plan the compiler emits, where the shifts that fill an offset read
    dominate it, so a PE's block-boundary overlap cells equal its
    neighbour's interior.  Memory is charged from the real layout."""

    name: str
    layout: Layout
    dtype: np.dtype
    halo: Halo
    #: the arena, ``(*cells.grid.shape, *cell)``
    data: np.ndarray
    #: per cell, its padded block's index in ``data``
    blocks: tuple
    #: the arena is one cell, the slab
    slab: bool = False
    #: what the executor keys this buffer's schedules on
    key: object = field(default=None, repr=False, compare=False)
    #: that buffer's ``(address, bytes)``, for native region tables
    arena: tuple[int, int] = field(default=(0, 0), repr=False,
                                   compare=False)

    # -- construction ------------------------------------------------------
    @staticmethod
    def create(machine: Machine, name: str, layout: Layout,
               dtype: np.dtype, halo: Halo | None = None,
               slab: bool = False, initial: np.ndarray | None = None,
               dead: tuple | None = None) -> "DArray":
        """A zeroed array, or one whose interiors hold ``initial`` but for
        the global box ``dead`` (0-based ``(start, stop)`` per dim): cells
        the program writes before it reads them, left as the allocator
        gave them.  Every other cell is written once."""
        dtype, halo, _ = allocate_distributed(machine, name, layout,
                                              dtype, halo)
        cells = _one_pe(layout) if slab else layout
        _, blocks, cell = _footprint(cells, halo, dtype)
        shape = (*cells.grid.shape, *cell)
        data = np.zeros(shape, dtype) if initial is None else \
            np.empty(shape, dtype)
        da = DArray(name, layout, dtype, halo, data, blocks, slab,
                    arena=(data.ctypes.data, data.nbytes))
        if initial is not None:
            for index in _margins(cells, halo, cell):
                data[index] = 0
            da.scatter(initial, dead)
        return da

    def like(self, machine: Machine, name: str, halo: Halo) -> "DArray":
        """A new array of this one's layout, dtype and storage."""
        return DArray.create(machine, name, self.layout, self.dtype, halo,
                             self.slab)

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.data, self.locals = np.zeros(0, dtype=self.dtype), []

    @property
    def cells(self) -> Layout:
        """The layout the arena is laid out by."""
        return _one_pe(self.layout) if self.slab else self.layout

    @cached_property
    def locals(self) -> list[np.ndarray]:
        """Every cell's padded block as a view, made on first use."""
        return [self.data[index] for index in self.blocks]

    # -- views ---------------------------------------------------------------
    def _cell(self, pe: int) -> int:
        """The cell PE ``pe``'s padded block is in."""
        if not 0 <= pe < self.layout.grid.size:
            raise ExecutionError(f"{self.name}: no local block for PE {pe}")
        return 0 if self.slab else pe

    def padded(self, pe: int) -> np.ndarray:
        return self.locals[self._cell(pe)]

    def interior(self, pe: int) -> np.ndarray:
        """View of the owned subgrid (no overlap area)."""
        return self.padded(pe)[self.interior_slices(pe)]

    def interior_slices(self, pe: int) -> tuple[slice, ...]:
        padded = self.padded(pe)
        return tuple(slice(lo, padded.shape[d] - hi)
                     for d, (lo, hi) in enumerate(self.halo))

    # -- global <-> local ------------------------------------------------------
    def scatter(self, global_array: np.ndarray,
                dead: tuple | None = None) -> None:
        """Distribute a global array's values into the local interiors,
        but for the box ``dead`` (see :meth:`create`)."""
        if tuple(global_array.shape) != self.layout.shape:
            raise MachineError(
                f"{self.name}: scatter shape {global_array.shape} != "
                f"declared {self.layout.shape}")
        for window in [None] if dead is None else \
                _live(self.layout.shape, dead):
            for cells, part, split, axes in _classes(self.cells, self.halo,
                                                     window):
                self.data[cells] = global_array[part].reshape(split) \
                    .transpose(axes)

    def gather(self) -> np.ndarray:
        """Assemble the global array from the local interiors.  One cell
        (the slab) holds the global array: its interior is handed over as
        a view, not copied — gathering is the executor's last read before
        :meth:`free`, which only drops the reference."""
        if len(self.blocks) == 1:
            return self.interior(0)
        out = np.empty(self.layout.shape, dtype=self.dtype)
        for cells, window, split, axes in _classes(self.cells, self.halo):
            out[window].reshape(split).transpose(axes)[...] = self.data[cells]
        return out

    # -- data motion: what a storage adds to the shared charge walks --------
    def fill_overlap(self, shift) -> None:
        """The data half of an ``OverlapShift``: in every cell, fill the
        ``sign``-side overlap slab of dim ``d`` (depth ``s``, widened by
        ``ext[k]`` overlap cells in the other dims) from the neighboring
        block — block to block, no network — or with ``boundary`` past
        the global edge: :meth:`moves` applied as one gather and
        scatter."""
        dst, src, edge = self.moves(shift)
        flat = self.data.reshape(-1)
        flat[dst] = flat.take(src)
        if shift.boundary is not None:
            flat[edge] = shift.boundary

    def moves(self, shift) -> tuple:
        """Every cell's slab as flat arena indices ``(destinations, their
        sources, boundary cells)``, int64; no sender past the global edge
        of an end-off shift.  The slabs come from the layout, never from
        the blocks: derived once per storage, they are kept on the shift.
        No cell is both a destination (an overlap cell along ``d``) and a
        source (an owned one), so any order of the copies is the
        slab-by-slab copy in rank order."""
        found = shift.moves.get(self.slab)
        if found is not None:
            return found
        d, s, sign, ext = shift.d, shift.s, shift.sign, shift.ext
        layout = self.cells
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
        found = shift.moves[self.slab] = tuple(
            np.concatenate([*cells, np.zeros(0, np.int64)], dtype=np.int64)
            for cells in (dst, src, edge))
        return found

    def assign_interior(self, other: "DArray", shift: int, d: int) -> None:
        """``self(i) = other(i + shift)`` along dim ``d`` over the owned
        subgrid of every cell (a nonzero shift reads into ``other``'s
        overlap area); empty blocks are skipped."""
        for pe in self.cells.grid.ranks():
            if prod(self.cells.local_shape(pe)):
                src = list(other.interior_slices(pe))
                src[d] = slice(src[d].start + shift, src[d].stop + shift)
                self.interior(pe)[...] = other.padded(pe)[tuple(src)]

    # -- geometry helpers ----------------------------------------------------
    def owned_box(self, pe: int) -> tuple[tuple[int, int], ...]:
        return self.layout.owned_box(pe)

    def origin(self, pe: int) -> tuple[int, ...]:
        """Global index of the first interior cell of ``padded(pe)``."""
        return tuple(lo for lo, _ in self.cells.owned_box(self._cell(pe)))

    def local_index_of(self, pe: int, gidx: tuple[int, ...]) -> tuple[int, ...]:
        """Padded-array index of a *globally owned* element on this PE."""
        box = self.owned_box(pe)
        out = []
        for d, ((lo, hi), g, first) in enumerate(
                zip(box, gidx, self.origin(pe))):
            if not (lo <= g <= hi):
                raise ExecutionError(
                    f"{self.name}: global index {gidx} not owned by PE {pe}")
            out.append(self.halo[d][0] + (g - first))
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.layout.shape)

    def __str__(self) -> str:
        return (f"DArray({self.name}, shape={self.layout.shape}, "
                f"halo={self.halo})")
