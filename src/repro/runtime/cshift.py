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

Like :mod:`repro.runtime.overlap`, the copy loops separate charging
from moving so the process-parallel backend can run the shared code
unchanged while each worker moves only its own PEs' blocks:

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

import numpy as np

from repro.errors import ExecutionError
from repro.machine.machine import Machine
from repro.runtime.darray import DArray
from repro.runtime.overlap import overlap_shift


def _noop_sync() -> None:
    return None


def _scratch_like(machine: Machine, src: DArray, shift: int,
                  dim0: int, *, scratch_factory=None,
                  move=None) -> DArray:
    """A transient padded copy of ``src`` with just enough overlap for
    the shift; models the runtime's communication buffer."""
    s = abs(shift)
    halo = tuple((0, 0) if k != dim0 else
                 ((0, s) if shift > 0 else (s, 0))
                 for k in range(src.rank))
    create = scratch_factory or DArray.create
    scratch = create(machine, f"__shiftbuf_{src.name}__",
                     src.layout, src.dtype, halo)
    itemsize = np.dtype(src.dtype).itemsize
    for pe in src.layout.grid.ranks():
        nelems = prod(src.layout.local_shape(pe))
        if nelems == 0:
            continue
        if move is None or move(pe):
            scratch.interior(pe)[...] = src.interior(pe)
        machine.charge_copy(pe, nelems, itemsize)
    return scratch


def _shifted_interior(buf: DArray, pe: int, shift: int,
                      dim0: int) -> np.ndarray:
    """View of ``buf``'s padded block displaced by ``shift`` along
    ``dim0`` — the source values of ``dst(i) = src(i + shift)``."""
    padded = buf.padded(pe)
    idx = []
    for k in range(buf.rank):
        lo, hi = buf.halo[k]
        n_local = padded.shape[k] - lo - hi
        if k == dim0:
            start = lo + shift
            stop = lo + n_local + shift
            if start < 0 or stop > padded.shape[k]:
                raise ExecutionError(
                    f"{buf.name}: buffer too small for shift {shift:+d} "
                    f"along dim {dim0 + 1}")
            idx.append(slice(start, stop))
        else:
            idx.append(slice(lo, lo + n_local))
    return padded[tuple(idx)]


def _full_shift(machine: Machine, dst: DArray, src: DArray, shift: int,
                dim: int, boundary: float | None, *,
                scratch_factory=None, move=None, sync=None) -> None:
    if dst.layout.shape != src.layout.shape:
        raise ExecutionError(
            f"shift shape mismatch: {dst.name} vs {src.name}")
    d = dim - 1
    sync = sync or _noop_sync
    scratch = _scratch_like(machine, src, shift, d,
                            scratch_factory=scratch_factory, move=move)
    try:
        sync()  # copy-in done everywhere before neighbors read the buffer
        overlap_shift(machine, scratch, shift, dim, boundary=boundary,
                      move=move)
        sync()  # exchange done; copy-out reads only this PE's buffer
        itemsize = np.dtype(src.dtype).itemsize
        for pe in src.layout.grid.ranks():
            nelems = prod(src.layout.local_shape(pe))
            if nelems == 0:
                continue
            if move is None or move(pe):
                block = _shifted_interior(scratch, pe, shift, d)
                dst.interior(pe)[...] = block
            machine.charge_copy(pe, nelems, itemsize)
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
