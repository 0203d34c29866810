"""``OVERLAP_SHIFT``: the interprocessor component of a circular shift.

``overlap_shift(machine, U, shift=s, dim=d)`` fills the overlap area of
``U`` on the ``sign(s)`` side of dimension ``d`` with the values a
``CSHIFT(U, s, d)`` destination would have needed from the neighboring
PE — and nothing else.  No intraprocessor data moves; downstream code
reads through offset references (paper section 3.1).

The optional RSD widens the transferred slab in the non-shifted
dimensions so the message also carries overlap cells filled by earlier
(lower-dimension) shifts — the corner pickup of Figures 9/10.  When the
shift's *source* is itself an offset array (``OVERLAP_CSHIFT(U<+1,0>,
SHIFT=-1, DIM=2)`` in Figure 13), the equivalent slab widening is derived
from the base offsets.

An :class:`OverlapShift` is *validated and walked once*, then applied:
the array's ``fill_overlap`` moves the data as one gather and scatter of
arena indices (a cell per PE, or the global slab's edge planes) and the
count-only walk's charges replay — slab extents come from the layout,
never from the data, so every storage charges the identical rank-order
sequence.

Degenerate zero-width slabs (possible only through hand-built layouts
today — BLOCK layouts reject empty blocks at construction — but
legitimately producible by future distribution kinds) are elided by the
walk: ``Charges.record_batch`` rejects zero-size messages by contract.
"""

from __future__ import annotations

from math import prod

from repro.errors import ExecutionError
from repro.ir.rsd import RSD
from repro.machine.machine import Machine
from repro.machine.network import Charges, comm_tag
from repro.runtime.darray import DArray


class OverlapShift:
    """One ``OVERLAP_SHIFT``, validated and walked into ``charges``; each
    storage keeps the arena indices it moves in ``moves``."""

    def __init__(self, name: str, layout, dtype, halo, shift: int,
                 dim: int, charges: Charges, rsd: RSD | None = None,
                 base_offsets: tuple[int, ...] | None = None,
                 boundary: float | None = None) -> None:
        if shift == 0:
            raise ExecutionError("overlap_shift with zero shift")
        rank = len(layout.shape)
        d = dim - 1
        if not (0 <= d < rank):
            raise ExecutionError(
                f"{name}: shift dim {dim} out of range (rank {rank})")
        s = abs(shift)
        sign = 1 if shift > 0 else -1
        halo_lo, halo_hi = halo[d]
        if (sign > 0 and halo_hi < s) or (sign < 0 and halo_lo < s):
            raise ExecutionError(
                f"{name}: overlap area too small for shift {shift:+d} "
                f"along dim {dim} (halo={halo[d]})")
        try:
            eff = RSD.slab(rsd, base_offsets, rank, d)
        except ValueError as exc:
            raise ExecutionError(f"{name}: {exc}") from None
        ext = tuple((eff.dims[k].lo, eff.dims[k].hi) if k != d else (0, 0)
                    for k in range(rank))
        for k, (ext_lo, ext_hi) in enumerate(ext):
            if ext_lo > halo[k][0] or ext_hi > halo[k][1]:
                raise ExecutionError(
                    f"{name}: RSD extension ({ext_lo},{ext_hi}) exceeds "
                    f"halo {halo[k]} in dim {k + 1}")
        self.d, self.s, self.sign, self.ext = d, s, sign, ext
        self.boundary = boundary
        self.moves: dict[bool, tuple] = {}
        self.charges = charges

        # -- the charge walk: counts only, in rank order ---------------------
        itemsize = dtype.itemsize
        elems_of: dict[tuple[int, ...], int] = {}

        def slab_elems(pe: int) -> int:
            local = layout.local_shape(pe)
            elems = elems_of.get(local)
            if elems is None:
                elems = elems_of[local] = s * prod(
                    local[k] + ext[k][0] + ext[k][1]
                    for k in range(rank) if k != d)
            return elems

        if not layout.is_distributed(d):
            # collapsed dimension: the "interprocessor" component is a
            # purely local circular wrap of the slab
            for pe in layout.grid.ranks():
                nelems = slab_elems(pe)
                if nelems:  # degenerate empty slabs are elided, not charged
                    charges.charge_copy(pe, nelems, itemsize)
            return
        n_global = layout.shape[d]
        transfers: list[tuple[int, int, int]] = []
        for pe in layout.grid.ranks():
            # EOSHIFT: a PE at the global edge fills its slab with the
            # boundary value, no message needed
            box_lo, box_hi = layout.owned_box(pe)[d]
            at_edge = (box_hi == n_global) if sign > 0 else (box_lo == 1)
            if boundary is not None and at_edge:
                continue
            sender = layout.neighbor(pe, d, sign)
            nelems = slab_elems(sender)
            if nelems:  # empty slab: the network rejects zero-size messages
                transfers.append((sender, pe, nelems))
        charges.record_batch(
            transfers, itemsize,
            tag=comm_tag(name, dim, shift, widened=not eff.is_trivial))

    def apply(self, machine: Machine, da: DArray) -> None:
        """Move ``da``'s data, then replay the charges."""
        da.fill_overlap(self)
        machine.network.replay(self.charges)


def overlap_shift(machine: Machine, da: DArray, shift: int, dim: int,
                  rsd: RSD | None = None,
                  base_offsets: tuple[int, ...] | None = None,
                  boundary: float | None = None) -> None:
    """Fill overlap areas of ``da`` for a shift of ``shift`` along the
    1-based dimension ``dim``.

    ``boundary`` switches from circular (CSHIFT) to end-off (EOSHIFT)
    semantics: overlap cells beyond the global array edge are filled with
    the boundary value instead of wrapped data.

    A positive ``shift`` serves reads ``U(i + shift)`` and therefore fills
    the *high*-side overlap area; negative fills the low side.  One
    message per PE is charged (self-messages on 1-wide grid dimensions are
    priced as local copies by the network).
    """
    OverlapShift(da.name, da.layout, da.dtype, da.halo, shift, dim,
                 Charges(machine.cost_model), rsd, base_offsets,
                 boundary).apply(machine, da)
