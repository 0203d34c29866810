"""Per-PE memory accounting.

Each PE has a private heap of configurable capacity.  Array allocations
charge it; exceeding capacity raises
:class:`~repro.errors.SimulatedOutOfMemoryError`.  This reproduces the
Figure 11 behaviour where the single-statement 9-point CSHIFT stencil
(12 compiler temporaries) exhausts SP-2 node memory at problem sizes the
3-temporary Problem 9 formulation still handles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError, SimulatedOutOfMemoryError


@dataclass
class _Heap:
    capacity: int
    in_use: int = 0
    peak: int = 0
    blocks: dict[str, int] = field(default_factory=dict)


@dataclass
class MemoryManager:
    """Tracks named allocations on every PE.

    ``capacity`` is bytes per PE; ``None`` means unlimited (the default
    for correctness tests; Figure 11 sets a finite capacity).
    """

    npes: int
    capacity: int | None = None

    def __post_init__(self) -> None:
        cap = self.capacity if self.capacity is not None else 1 << 62
        self._heaps = [_Heap(cap) for _ in range(self.npes)]

    def allocate(self, pe: int, name: str, nbytes: int) -> None:
        heap = self._heaps[pe]
        if name in heap.blocks:
            raise MachineError(f"PE {pe}: double allocation of {name}")
        if heap.in_use + nbytes > heap.capacity:
            raise SimulatedOutOfMemoryError(
                pe, nbytes, heap.in_use, heap.capacity)
        heap.blocks[name] = nbytes
        heap.in_use += nbytes
        heap.peak = max(heap.peak, heap.in_use)

    def free(self, pe: int, name: str) -> None:
        heap = self._heaps[pe]
        nbytes = heap.blocks.pop(name, None)
        if nbytes is None:
            raise MachineError(f"PE {pe}: free of unallocated {name}")
        heap.in_use -= nbytes

    def allocate_all(self, name: str, nbytes_per_pe: list[int]) -> None:
        """Allocate one named block on every PE (distributed array)."""
        done = []
        try:
            for pe, nbytes in enumerate(nbytes_per_pe):
                self.allocate(pe, name, nbytes)
                done.append(pe)
        except SimulatedOutOfMemoryError:
            for pe in done:
                self.free(pe, name)
            raise

    def free_all(self, name: str) -> None:
        for pe in range(self.npes):
            if name in self._heaps[pe].blocks:
                self.free(pe, name)

    def in_use(self, pe: int) -> int:
        return self._heaps[pe].in_use

    def peak(self, pe: int) -> int:
        return self._heaps[pe].peak

    @property
    def peak_per_pe(self) -> int:
        return max(h.peak for h in self._heaps)

    def live_blocks(self, pe: int) -> dict[str, int]:
        return dict(self._heaps[pe].blocks)
