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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from math import prod

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.machine.machine import Machine
from repro.runtime.distribution import Layout

Halo = tuple[tuple[int, int], ...]


def allocate_distributed(machine: Machine, name: str, layout: Layout,
                         dtype, halo: Halo | None
                         ) -> tuple[np.dtype, Halo, list[tuple[int, ...]]]:
    """What allocating a distributed array costs, for every placement:
    validate ``halo`` against the layout, compute the per-PE padded
    shapes and charge them to the memory manager (so a too-big
    allocation raises :class:`SimulatedOutOfMemoryError` exactly as a
    real node would fail).  Returns ``(dtype, halo, shapes)``; the
    caller only adds storage."""
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
    shapes = [tuple(n + lo + hi
                    for n, (lo, hi) in zip(layout.local_shape(pe), halo))
              for pe in machine.topology.ranks()]
    machine.memory.allocate_all(
        name, [prod(s) * dtype.itemsize for s in shapes])
    return dtype, halo, shapes


@dataclass
class DArray:
    """A BLOCK-distributed array materialised on a machine: one padded
    block per PE."""

    name: str
    layout: Layout
    dtype: np.dtype
    halo: Halo
    locals: list[np.ndarray]
    #: what the executor keys this buffer's schedules on
    key: object = field(default=None, repr=False, compare=False)

    # -- construction ------------------------------------------------------
    @staticmethod
    def create(machine: Machine, name: str, layout: Layout,
               dtype: np.dtype, halo: Halo | None = None) -> "DArray":
        dtype, halo, shapes = allocate_distributed(
            machine, name, layout, dtype, halo)
        return DArray(name, layout, dtype, halo,
                      [np.zeros(s, dtype=dtype) for s in shapes])

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.locals = []

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
        for pe, src in enumerate(self.layout.owned_slices):
            self.interior(pe)[...] = global_array[src]

    def gather(self) -> np.ndarray:
        """Assemble the global array from the local interiors."""
        out = np.zeros(self.layout.shape, dtype=self.dtype)
        for pe, dst in enumerate(self.layout.owned_slices):
            out[dst] = self.interior(pe)
        return out

    # -- data motion: what a placement adds to the shared charge walks ------
    def fill_overlap(self, shift) -> None:
        """The data half of an ``OverlapShift``: on every PE, fill the
        ``sign``-side overlap slab of dim ``d`` (depth ``s``, widened by
        ``ext[k]`` overlap cells in the other dims) from the neighboring
        block — block to block, no network — or with ``boundary`` past
        the global edge.  The slab pairs come from the layout, never
        from the blocks: derived once, they are kept on the shift."""
        moves = shift.moves.get(DArray)
        if moves is None:
            moves = shift.moves[DArray] = list(self._slab_pairs(shift))
        for pe, dst, sender, src in moves:
            if sender is None:
                self.locals[pe][dst] = shift.boundary
            else:
                self.locals[pe][dst] = self.locals[sender][src]

    def _slab_pairs(self, shift):
        """``(pe, dst slices, sender | None, src slices)`` per PE; no
        sender past the global edge of an end-off shift."""
        d, s, sign, ext = shift.d, shift.s, shift.sign, shift.ext
        layout = self.layout
        halo_lo = self.halo[d][0]
        distributed = layout.is_distributed(d)
        n_global = layout.shape[d]

        def slab(pe: int, along_d: slice) -> tuple[slice, ...]:
            local = layout.local_shape(pe)
            return tuple(
                along_d if k == d else
                slice(self.halo[k][0] - ext[k][0],
                      self.halo[k][0] + local[k] + ext[k][1])
                for k in range(len(local)))

        for pe in layout.grid.ranks():
            n_local = layout.local_shape(pe)[d]
            dst = slab(pe, slice(halo_lo + n_local, halo_lo + n_local + s)
                       if sign > 0 else slice(halo_lo - s, halo_lo))
            # a collapsed dimension is whole on every PE: each one is at
            # both global edges and wraps onto itself
            box_lo, box_hi = layout.owned_box(pe)[d]
            at_edge = (box_hi == n_global) if sign > 0 else (box_lo == 1)
            if shift.boundary is not None and at_edge:
                yield pe, dst, None, None
                continue
            sender = layout.neighbor(pe, d, sign) if distributed else pe
            sender_n = layout.local_shape(sender)[d]
            src = slab(sender, slice(halo_lo, halo_lo + s) if sign > 0
                       else slice(halo_lo + sender_n - s,
                                  halo_lo + sender_n))
            yield pe, dst, sender, src

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
