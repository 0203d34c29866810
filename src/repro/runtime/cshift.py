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

One ``_full_shift`` serves every placement: the scratch buffer is an
array of the source's own type, the two whole-subgrid copies go through
the arrays' ``assign_interior``, and their charges are walked once here.
"""

from __future__ import annotations

from math import prod

from repro.errors import ExecutionError
from repro.machine.machine import Machine
from repro.runtime.darray import DArray
from repro.runtime.overlap import overlap_shift


def _charge_subgrid_copies(machine: Machine, arr: DArray) -> None:
    """One whole-subgrid intraprocessor copy on every PE, rank order."""
    itemsize = arr.dtype.itemsize
    for pe in arr.layout.grid.ranks():
        nelems = prod(arr.layout.local_shape(pe))
        if nelems:
            machine.charge_copy(pe, nelems, itemsize)


def _full_shift(machine: Machine, dst: DArray, src: DArray, shift: int,
                dim: int, boundary: float | None) -> None:
    if dst.layout.shape != src.layout.shape:
        raise ExecutionError(
            f"shift shape mismatch: {dst.name} vs {src.name}")
    d = dim - 1
    s = abs(shift)
    # the runtime's communication buffer: a transient padded copy of
    # ``src`` with just enough overlap for the shift
    halo = tuple((0, 0) if k != d else ((0, s) if shift > 0 else (s, 0))
                 for k in range(src.rank))
    scratch = type(src).create(machine, f"__shiftbuf_{src.name}__",
                               src.layout, src.dtype, halo)
    try:
        scratch.assign_interior(src, 0, d)
        _charge_subgrid_copies(machine, src)
        overlap_shift(machine, scratch, shift, dim, boundary=boundary)
        dst.assign_interior(scratch, shift, d)
        _charge_subgrid_copies(machine, src)
    finally:
        scratch.free(machine)


def full_cshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                dim: int) -> None:
    """``dst = CSHIFT(src, shift, dim)`` with explicit buffering and
    intraprocessor copying — the costs the offset-array optimization
    eliminates."""
    _full_shift(machine, dst, src, shift, dim, boundary=None)


def full_eoshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                 dim: int, boundary: float = 0.0) -> None:
    """``dst = EOSHIFT(src, shift, dim, boundary)`` (end-off shift)."""
    _full_shift(machine, dst, src, shift, dim, boundary=boundary)
