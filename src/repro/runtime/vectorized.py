"""Vectorized execution backend: whole-array NumPy slab operations.

The per-PE executor (:mod:`repro.runtime.executor`) dispatches every
plan op through a Python loop over PEs, moving data between per-PE
padded blocks.  That is the faithful SPMD picture, but the Python-level
looping dominates wall-clock time on large grids.  This backend executes
the *same plans* over a single global padded array per distributed
array, so each op — halo exchange, offset-reference read, loop nest —
is one batch of NumPy slab operations regardless of the PE count.

Why this is exact: in every plan the compiler emits (and the coverage
verifier admits), each offset reference is dominated by the
``OVERLAP_SHIFT`` calls that fill the overlap cells it reads, with no
intervening redefinition of the base array.  At the moment of the read,
a PE's interior-block-boundary overlap cells therefore equal the
neighboring PE's *current* interior values — which is exactly what a
read through a single global array sees.  Only the overlap cells beyond
the global edges carry distinct data (wrapped or boundary-filled), so
the global representation keeps halo planes only there.

Cost accounting is replicated, not re-derived: every op walks the same
per-PE rank-order charge sequence as the per-PE executor — same message
count, same byte counts (including RSD-widened slabs and elided at-edge
EOSHIFT messages), same copy and loop-point charges, same per-PE memory
allocations — so cost reports are identical between backends and the
paper-figure reproductions are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.plan import FullShiftOp, LoopNestOp, OverlapShiftOp
from repro.ir.rsd import RSD
from repro.machine.machine import Machine
from repro.machine.network import comm_tag
from repro.passes.memopt import scaled_to_points
from repro.runtime.distribution import Layout, cached_layout
from repro.runtime.executor import _Exec
from repro.runtime.overlap import _effective_rsd

Halo = tuple[tuple[int, int], ...]


@dataclass
class VArray:
    """A distributed array held as one global padded ndarray.

    Global index ``g`` (1-based) along dim ``d`` maps to
    ``halo[d][0] + (g - 1)``.  Halo planes exist only past the global
    edges; interior block boundaries need none (see module docstring).
    Memory is charged per PE with exactly the padded-block sizes the
    per-PE representation would allocate.
    """

    name: str
    layout: Layout
    dtype: np.dtype
    halo: Halo
    data: np.ndarray

    @staticmethod
    def create(machine: Machine, name: str, layout: Layout,
               dtype: np.dtype, halo: Halo | None = None) -> "VArray":
        rank = len(layout.shape)
        halo = halo or tuple((0, 0) for _ in range(rank))
        if len(halo) != rank:
            raise MachineError(f"halo rank mismatch for {name}")
        for d, (lo, hi) in enumerate(halo):
            limit = layout.max_shift(d)
            if max(lo, hi) > limit:
                raise MachineError(
                    f"{name}: halo {max(lo, hi)} along dim {d + 1} exceeds "
                    f"the minimum local extent {limit}; use a smaller shift "
                    f"or fewer processors")
        dtype = np.dtype(dtype)
        nbytes = []
        for pe in machine.topology.ranks():
            local = layout.local_shape(pe)
            nbytes.append(prod(n + lo + hi
                               for n, (lo, hi) in zip(local, halo))
                          * dtype.itemsize)
        machine.memory.allocate_all(name, nbytes)
        shape = tuple(n + lo + hi
                      for n, (lo, hi) in zip(layout.shape, halo))
        return VArray(name, layout, dtype, halo,
                      np.zeros(shape, dtype=dtype))

    def free(self, machine: Machine) -> None:
        machine.memory.free_all(self.name)
        self.data = np.zeros(0, dtype=self.dtype)

    # -- views ---------------------------------------------------------------
    def padded(self, pe: int) -> np.ndarray:
        """The global padded array; every "PE" sees the same storage."""
        return self.data

    def interior_slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, lo + n)
                     for (lo, _), n in zip(self.halo, self.layout.shape))

    @property
    def interior(self) -> np.ndarray:
        return self.data[self.interior_slices()]

    def scatter(self, global_array: np.ndarray) -> None:
        if tuple(global_array.shape) != self.layout.shape:
            raise MachineError(
                f"{self.name}: scatter shape {global_array.shape} != "
                f"declared {self.layout.shape}")
        self.interior[...] = global_array

    def gather(self) -> np.ndarray:
        """The global array.  Without halo planes this hands over the
        buffer itself instead of a copy: gathering is the executor's last
        read before :meth:`free`, which only drops the reference."""
        if not any(lo or hi for lo, hi in self.halo):
            return self.data
        return self.interior.copy()

    def owned_box(self, pe: int) -> tuple[tuple[int, int], ...]:
        return self.layout.owned_box(pe)

    @property
    def rank(self) -> int:
        return len(self.layout.shape)


def _ext_slice(va: VArray, k: int, ext_lo: int, ext_hi: int) -> slice:
    """Global-coordinate slice of dim ``k``: the whole interior extended
    by ``ext_lo``/``ext_hi`` halo planes."""
    halo_lo, halo_hi = va.halo[k]
    if ext_lo > halo_lo or ext_hi > halo_hi:
        raise ExecutionError(
            f"{va.name}: RSD extension ({ext_lo},{ext_hi}) exceeds halo "
            f"({halo_lo},{halo_hi}) in dim {k + 1}")
    n = va.layout.shape[k]
    return slice(halo_lo - ext_lo, halo_lo + n + ext_hi)


def vec_overlap_shift(machine: Machine, va: VArray, shift: int, dim: int,
                      rsd: RSD | None = None,
                      base_offsets: tuple[int, ...] | None = None,
                      boundary: float | None = None) -> None:
    """:func:`repro.runtime.overlap.overlap_shift` on the global
    representation: one slab copy for the data, plus the per-PE charge
    walk that prices exactly the messages/copies the per-PE executor
    performs."""
    if shift == 0:
        raise ExecutionError("overlap_shift with zero shift")
    d = dim - 1
    if not (0 <= d < va.rank):
        raise ExecutionError(
            f"{va.name}: shift dim {dim} out of range (rank {va.rank})")
    s = abs(shift)
    sign = 1 if shift > 0 else -1
    halo_lo, halo_hi = va.halo[d]
    if (sign > 0 and halo_hi < s) or (sign < 0 and halo_lo < s):
        raise ExecutionError(
            f"{va.name}: overlap area too small for shift {shift:+d} along "
            f"dim {dim} (halo={va.halo[d]})")
    eff = _effective_rsd(va, d, rsd, base_offsets)
    if eff.rank != va.rank or eff.shift_dim != d:
        raise ExecutionError(
            f"{va.name}: RSD {eff} incompatible with shift dim {dim}")

    layout = va.layout
    n_global = layout.shape[d]
    data = va.data

    # -- data: fill the global edge halo slab on the sign side ---------------
    dst_idx: list[slice] = []
    src_idx: list[slice] = []
    for k in range(va.rank):
        if k == d:
            if sign > 0:
                dst_idx.append(slice(halo_lo + n_global,
                                     halo_lo + n_global + s))
                src_idx.append(slice(halo_lo, halo_lo + s))
            else:
                dst_idx.append(slice(halo_lo - s, halo_lo))
                src_idx.append(slice(halo_lo + n_global - s,
                                     halo_lo + n_global))
        else:
            rd = eff.dims[k]
            assert rd is not None
            sl = _ext_slice(va, k, rd.lo, rd.hi)
            dst_idx.append(sl)
            src_idx.append(sl)
    if boundary is not None:
        # every global-edge halo cell is past the domain end: boundary
        data[tuple(dst_idx)] = boundary
    else:
        # circular wrap from the opposite edge; the orthogonal extension
        # reads through already-filled halo planes — the corner pickup
        data[tuple(dst_idx)] = data[tuple(src_idx)]

    # -- cost: the per-PE executor's charge sequence, in rank order ----------
    itemsize = data.itemsize
    tag = comm_tag(va.name, dim, shift, widened=not eff.is_trivial)
    ext = tuple((eff.dims[k].lo, eff.dims[k].hi) if k != d else (0, 0)
                for k in range(va.rank))
    elems_of: dict[tuple[int, ...], int] = {}

    def ortho_elems(pe: int) -> int:
        local = layout.local_shape(pe)
        elems = elems_of.get(local)
        if elems is None:
            elems = s * prod(local[k] + ext[k][0] + ext[k][1]
                             for k in range(va.rank) if k != d)
            elems_of[local] = elems
        return elems

    if not layout.is_distributed(d):
        for pe in layout.grid.ranks():
            nelems = ortho_elems(pe)
            if nelems:  # degenerate empty slabs are elided, not charged
                machine.charge_copy(pe, nelems, itemsize)
        return
    neighbor = layout.neighbor
    owned_box = layout.owned_box
    transfers: list[tuple[int, int, int]] = []
    for pe in layout.grid.ranks():
        box_lo, box_hi = owned_box(pe)[d]
        at_edge = (box_hi == n_global) if sign > 0 else (box_lo == 1)
        if boundary is not None and at_edge:
            continue  # boundary fill, no message
        sender = neighbor(pe, d, sign)
        nelems = ortho_elems(sender)
        if nelems == 0:
            continue  # empty slab: the network rejects zero-size sends
        transfers.append((sender, pe, nelems))
    machine.network.record_batch(transfers, itemsize, tag=tag)


def vec_full_shift(machine: Machine, dst: VArray, src: VArray,
                   shift: int, dim: int,
                   boundary: float | None) -> None:
    """Full CSHIFT/EOSHIFT through a scratch communication buffer, with
    the same allocation, copy, and message charges as
    :mod:`repro.runtime.cshift`."""
    if dst.layout.shape != src.layout.shape:
        raise ExecutionError(
            f"shift shape mismatch: {dst.name} vs {src.name}")
    d = dim - 1
    s = abs(shift)
    halo = tuple((0, 0) if k != d else
                 ((0, s) if shift > 0 else (s, 0))
                 for k in range(src.rank))
    scratch = VArray.create(machine, f"__shiftbuf_{src.name}__",
                            src.layout, src.dtype, halo)
    try:
        scratch.interior[...] = src.interior
        for pe in src.layout.grid.ranks():
            nelems = prod(src.layout.local_shape(pe))
            if nelems:
                machine.charge_copy(pe, nelems, scratch.data.itemsize)
        vec_overlap_shift(machine, scratch, shift, dim, boundary=boundary)
        lo = scratch.halo[d][0]
        n = scratch.layout.shape[d]
        start, stop = lo + shift, lo + n + shift
        if start < 0 or stop > scratch.data.shape[d]:
            raise ExecutionError(
                f"{scratch.name}: buffer too small for shift {shift:+d} "
                f"along dim {d + 1}")
        idx = tuple(slice(start, stop) if k == d
                    else scratch.interior_slices()[k]
                    for k in range(scratch.rank))
        dst.interior[...] = scratch.data[idx]
        for pe in src.layout.grid.ranks():
            nelems = prod(src.layout.local_shape(pe))
            if nelems:
                machine.charge_copy(pe, nelems, scratch.data.itemsize)
    finally:
        scratch.free(machine)


class VectorizedExec(_Exec):
    """Executor running each plan op as global slab operations.

    Scalar evaluation, reductions (which keep the per-PE partial fold
    order bit-for-bit), op dispatch, tracing, and the cost-charging
    helpers are inherited; only array storage, data movement, and nest
    execution are overridden.
    """

    backend_label = "vectorized"
    nest_kind = "slab"

    # -- array lifecycle -----------------------------------------------------
    def materialize(self, name: str,
                    initial: np.ndarray | None = None) -> None:
        decl = self.plan.arrays[name]
        layout = cached_layout(decl.shape, decl.distribution,
                               self.machine.topology)
        va = VArray.create(self.machine, name, layout, decl.dtype,
                           decl.halo)
        if initial is not None:
            va.scatter(np.asarray(initial))
        self.darrays[name] = va  # type: ignore[assignment]

    def release(self, name: str) -> None:
        va = self.darrays.pop(name, None)
        if va is None:
            raise ExecutionError(f"DEALLOCATE of unallocated {name}")
        va.free(self.machine)

    # -- data movement -------------------------------------------------------
    def do_overlap_shift(self, op: OverlapShiftOp) -> None:
        vec_overlap_shift(self.machine, self.darray(op.array),
                          op.shift, op.dim, rsd=op.rsd,
                          base_offsets=op.base_offsets,
                          boundary=op.boundary)

    def do_full_shift(self, op: FullShiftOp) -> None:
        vec_full_shift(self.machine, self.darray(op.dst),
                       self.darray(op.src), op.shift, op.dim,
                       op.boundary)

    # -- loop nests ----------------------------------------------------------
    def _local_slices(self, va, pe, box, offsets):
        # global frame: owned_lo is 1 for every dimension
        slices = []
        for d, ((lo, hi), off) in enumerate(zip(box, offsets)):
            halo_lo = va.halo[d][0]
            start = halo_lo + (lo - 1) + off
            stop = start + (hi - lo + 1)
            if start < 0 or stop > va.data.shape[d]:
                raise ExecutionError(
                    f"{va.name}: offset {off} along dim {d + 1} escapes "
                    f"the overlap area (halo={va.halo[d]})")
            slices.append(slice(start, stop))
        return tuple(slices)

    def _nest_tape(self, op: LoopNestOp):
        """Whole-box execution requires that no statement read, at a
        nonzero offset, an array assigned earlier in the same nest — the
        per-PE executor would see stale overlap data there while the
        global array sees fresh values.  The compiler's fusion legality
        and the coverage verifier guarantee this for pipeline output;
        hand-built plans that violate it are rejected."""
        tape = super()._nest_tape(op)
        if tape.stale_read is not None:
            raise ExecutionError(
                f"vectorized backend: nest reads {tape.stale_read} "
                f"after assigning {tape.stale_read.name} in the same "
                f"nest; run with backend='perpe'")
        return tape

    def run_nest(self, op: LoopNestOp) -> None:
        self._nest_tape(op)  # legality, also when a native kernel runs it
        space = tuple((self.bound(lo), self.bound(hi))
                      for lo, hi in op.space)
        if all(lo <= hi for lo, hi in space):
            self._exec_nest_box(op, list(space), 0)
        scaled: dict[int, object] = {}
        for pe in self.machine.topology.ranks():
            box = self._nest_box(op, space, pe)
            if box is None:
                continue
            points = prod(hi - lo + 1 for lo, hi in box)
            stats = scaled.get(points)
            if stats is None:
                stats = scaled_to_points(op.stats, points)
                scaled[points] = stats
            self.machine.charge_loop(pe, stats, self.overhead)

    def run_overlapped(self, op) -> None:
        report = self.machine.report
        before = list(report.pe_times)
        self.run_ops(op.comm_ops)
        comm_delta = [t1 - t0 for t0, t1 in zip(before, report.pe_times)]

        nest = op.nest
        self._nest_tape(nest)
        space = tuple((self.bound(lo), self.bound(hi))
                      for lo, hi in nest.space)
        if all(lo <= hi for lo, hi in space):
            self._exec_nest_box(nest, list(space), 0)
        # charge interior/boundary splits per PE exactly as the per-PE
        # executor does, then credit the comm-hidden interior time
        shrink = self._nest_reach(nest)
        scaled: dict[int, object] = {}

        def stats_for(pts: int):
            st = scaled.get(pts)
            if st is None:
                st = scaled_to_points(nest.stats, pts)
                scaled[pts] = st
            return st

        for pe in self.machine.topology.ranks():
            box = self._nest_box(nest, space, pe)
            if box is None:
                continue
            interior, strips = self._split_interior(box, pe, nest, shrink)
            t_interior = 0.0
            for region in ([interior] if interior else []):
                pts = prod(hi - lo + 1 for lo, hi in region)
                stats = stats_for(pts)
                t_interior = self.machine.cost_model.loop_time(
                    stats, self.overhead)
                self.machine.charge_loop(pe, stats, self.overhead)
            for region in strips:
                pts = prod(hi - lo + 1 for lo, hi in region)
                if pts:
                    self.machine.charge_loop(pe, stats_for(pts),
                                             self.overhead)
            hidden = min(comm_delta[pe], t_interior)
            report.pe_times[pe] -= hidden


# registers under its public name; see repro.runtime.backends
from repro.runtime.backends import register_backend  # noqa: E402

register_backend("vectorized", VectorizedExec)
