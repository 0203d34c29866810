"""Vectorized execution backend: whole-array NumPy slab operations.

The per-PE executor (:mod:`repro.runtime.executor`) keeps one padded
block per PE and moves data between them in a Python loop over PEs.
That is the faithful SPMD picture, but the Python-level looping
dominates wall-clock time on large grids.  This backend executes the
*same plans* through the *same skeleton* over a different placement: a
single global padded array per distributed array (:class:`VArray`), so
each op's data motion — halo exchange, offset-reference read, loop nest
— is one batch of NumPy slab operations regardless of the PE count.

Why this is exact: in every plan the compiler emits (and the coverage
verifier admits), each offset reference is dominated by the
``OVERLAP_SHIFT`` calls that fill the overlap cells it reads, with no
intervening redefinition of the base array.  At the moment of the read,
a PE's interior-block-boundary overlap cells therefore equal the
neighboring PE's *current* interior values — which is exactly what a
read through a single global array sees.  Only the overlap cells beyond
the global edges carry distinct data (wrapped or boundary-filled), so
the global representation keeps halo planes only there.

Cost accounting is not this module's business: what an op costs, and in
which rank order it is charged, lives once per op in ``overlap.py``,
``cshift.py``, ``executor.py`` and ``darray.py`` and never reads array
data — so cost reports, message logs and peak memory are identical
between placements by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ExecutionError, MachineError
from repro.machine.machine import Machine
from repro.plan import LoopNestOp
from repro.runtime.darray import Halo, allocate_distributed
from repro.runtime.distribution import Layout
from repro.runtime.executor import _Exec


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
        dtype, halo, _ = allocate_distributed(machine, name, layout,
                                              dtype, halo)
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

    def origin(self, pe: int) -> tuple[int, ...]:
        """Global index of the first interior cell: 1 in every dim."""
        return (1,) * len(self.halo)

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

    # -- data motion (``move`` is for placements split across workers) -------
    def fill_overlap(self, d: int, s: int, sign: int,
                     ext: tuple[tuple[int, int], ...],
                     boundary: float | None = None, move=None) -> None:
        """The data half of ``OVERLAP_SHIFT`` on the global slab: fill
        the ``sign``-side global-edge halo planes of dim ``d`` — block
        boundaries inside the array need nothing."""
        halo_lo = self.halo[d][0]
        n = self.layout.shape[d]
        dst = [slice(lo - ext_lo, lo + nk + ext_hi)
               for (lo, _), nk, (ext_lo, ext_hi) in zip(
                   self.halo, self.layout.shape, ext)]
        src = list(dst)
        if sign > 0:
            dst[d] = slice(halo_lo + n, halo_lo + n + s)
            src[d] = slice(halo_lo, halo_lo + s)
        else:
            dst[d] = slice(halo_lo - s, halo_lo)
            src[d] = slice(halo_lo + n - s, halo_lo + n)
        if boundary is not None:
            # every global-edge halo cell is past the domain end
            self.data[tuple(dst)] = boundary
        else:
            # circular wrap from the opposite edge; the orthogonal
            # extension reads through already-filled halo planes — the
            # corner pickup
            self.data[tuple(dst)] = self.data[tuple(src)]

    def assign_interior(self, other: "VArray", shift: int, d: int,
                        move=None) -> None:
        """``self(i) = other(i + shift)`` along dim ``d`` over the whole
        interior (a nonzero shift reads into ``other``'s halo planes)."""
        src = list(other.interior_slices())
        src[d] = slice(src[d].start + shift, src[d].stop + shift)
        self.interior[...] = other.data[tuple(src)]


class VectorizedExec(_Exec):
    """The per-PE skeleton over the global-slab placement.

    Everything is inherited — op dispatch, shifts, reductions (which
    keep the per-PE partial fold order bit-for-bit), every charge walk —
    except how a nest is evaluated: once over the whole iteration space
    instead of once per PE box.
    """

    backend_label = "vectorized"
    array_type = VArray

    def _nest_tape(self, op: LoopNestOp):
        """Whole-space execution requires that no statement read, at a
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

    def _eval_nest(self, op: LoopNestOp, space, regions) -> None:
        self._nest_tape(op)  # legality, whichever evaluator runs it
        if all(lo <= hi for lo, hi in space):
            self._exec_nest_box(op, list(space), 0)


# registers under its public name; see repro.runtime.backends
from repro.runtime.backends import register_backend  # noqa: E402

register_backend("vectorized", VectorizedExec)
