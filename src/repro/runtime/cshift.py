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
The process-parallel backend runs it unchanged while each worker moves
only its own PEs' blocks:

* ``scratch_factory`` substitutes the scratch buffer's allocator (the
  parallel backend allocates it in shared memory);
* ``move`` gates the per-PE copies; the charge calls still run for
  every PE, and the machine's ownership gate
  (:meth:`Machine.set_ownership`) decides whether each one charges;
* ``sync`` is invoked at the phase boundaries where cross-PE reads
  begin or end (after copy-in, after the exchange, before the scratch
  buffer is freed) — the parallel backend plugs its worker barrier in
  here, other backends leave it as a no-op.
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
                dim: int, boundary: float | None, *,
                scratch_factory=None, move=None, sync=None) -> None:
    if dst.layout.shape != src.layout.shape:
        raise ExecutionError(
            f"shift shape mismatch: {dst.name} vs {src.name}")
    d = dim - 1
    s = abs(shift)
    sync = sync or (lambda: None)
    # the runtime's communication buffer: a transient padded copy of
    # ``src`` with just enough overlap for the shift
    halo = tuple((0, 0) if k != d else ((0, s) if shift > 0 else (s, 0))
                 for k in range(src.rank))
    create = scratch_factory or type(src).create
    scratch = create(machine, f"__shiftbuf_{src.name}__", src.layout,
                     src.dtype, halo)
    try:
        scratch.assign_interior(src, 0, d, move)
        _charge_subgrid_copies(machine, src)
        sync()  # copy-in done everywhere before neighbors read the buffer
        overlap_shift(machine, scratch, shift, dim, boundary=boundary,
                      move=move)
        sync()  # exchange done; copy-out reads only this PE's buffer
        dst.assign_interior(scratch, shift, d, move)
        _charge_subgrid_copies(machine, src)
    finally:
        sync()  # nobody may still be reading the buffer when it dies
        scratch.free(machine)


def full_cshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                dim: int, *, scratch_factory=None, move=None,
                sync=None) -> None:
    """``dst = CSHIFT(src, shift, dim)`` with explicit buffering and
    intraprocessor copying — the costs the offset-array optimization
    eliminates."""
    _full_shift(machine, dst, src, shift, dim, boundary=None,
                scratch_factory=scratch_factory, move=move, sync=sync)


def full_eoshift(machine: Machine, dst: DArray, src: DArray, shift: int,
                 dim: int, boundary: float = 0.0, *,
                 scratch_factory=None, move=None, sync=None) -> None:
    """``dst = EOSHIFT(src, shift, dim, boundary)`` (end-off shift)."""
    _full_shift(machine, dst, src, shift, dim, boundary=boundary,
                scratch_factory=scratch_factory, move=move, sync=sync)
