"""Full ``CSHIFT``/``EOSHIFT``: both data-movement components.

This is what a naive backend (CM Fortran / xlhpf style, paper Figure 4)
executes for every shift intrinsic: the interprocessor slab exchange
*plus* an intraprocessor copy of the entire local subgrid into the
destination array.  The offset-array optimization exists to delete the
second component; keeping this routine lets the O0 baseline and the
ablation experiments execute the unoptimized program faithfully.

The exchange goes through a private per-PE communication buffer (a
padded copy of the local block), never through the source array's
overlap area: a runtime shift must not clobber overlap data that offset
references elsewhere still read (and the naive path's source arrays
need no overlap areas at all).  The buffer's extra copy is charged to
the cost model — it is part of what made library CSHIFTs expensive.

One :class:`FullShift` serves every storage: the scratch buffer is made
``like`` the source, the two whole-subgrid copies go through the
arrays' ``assign_interior``, and their charges are walked once.
"""

from __future__ import annotations

from math import prod

from repro.errors import ExecutionError
from repro.machine.machine import Machine
from repro.machine.network import Charges
from repro.runtime.darray import DArray
from repro.runtime.overlap import OverlapShift


def _charge_subgrid_copies(charges: Charges, arr: DArray) -> None:
    """One whole-subgrid intraprocessor copy on every PE, rank order."""
    itemsize = arr.dtype.itemsize
    for pe in arr.layout.grid.ranks():
        nelems = prod(arr.layout.local_shape(pe))
        if nelems:
            charges.charge_copy(pe, nelems, itemsize)


class FullShift:
    """``dst = CSHIFT/EOSHIFT(src, shift, dim[, boundary])``, walked."""

    def __init__(self, dst: DArray, src: DArray, shift: int, dim: int,
                 boundary: float | None, charges: Charges) -> None:
        if dst.layout.shape != src.layout.shape:
            raise ExecutionError(
                f"shift shape mismatch: {dst.name} vs {src.name}")
        self.shift, self.d = shift, dim - 1
        s = abs(shift)
        # the runtime's communication buffer: a transient padded copy of
        # ``src`` with just enough overlap for the shift
        self.halo = tuple(
            (0, 0) if k != self.d else ((0, s) if shift > 0 else (s, 0))
            for k in range(src.rank))
        self.buffer = f"__shiftbuf_{src.name}__"
        self.charges = charges
        _charge_subgrid_copies(charges, src)
        self.exchange = OverlapShift(self.buffer, src.layout, src.dtype,
                                     self.halo, shift, dim, charges,
                                     boundary=boundary)
        _charge_subgrid_copies(charges, src)

    def apply(self, machine: Machine, dst: DArray, src: DArray) -> None:
        """Move the data through a fresh buffer; replay the charges."""
        scratch = src.like(machine, self.buffer, self.halo)
        try:
            scratch.assign_interior(src, 0, self.d)
            scratch.fill_overlap(self.exchange)
            dst.assign_interior(scratch, self.shift, self.d)
            machine.network.replay(self.charges)
        finally:
            scratch.free(machine)


def full_cshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                dim: int) -> None:
    """``dst = CSHIFT(src, shift, dim)`` with explicit buffering and
    intraprocessor copying — the costs the offset-array optimization
    eliminates."""
    FullShift(dst, src, shift, dim, None,
              Charges(machine.cost_model)).apply(machine, dst, src)


def full_eoshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                 dim: int, boundary: float = 0.0) -> None:
    """``dst = EOSHIFT(src, shift, dim, boundary)`` (end-off shift)."""
    FullShift(dst, src, shift, dim, boundary,
              Charges(machine.cost_model)).apply(machine, dst, src)
