"""Per-PE memory accounting.

Each PE has a private heap of configurable capacity.  Array allocations
charge it; exceeding capacity raises
:class:`~repro.errors.SimulatedOutOfMemoryError`.  This reproduces the
Figure 11 behaviour where the single-statement 9-point CSHIFT stencil
(12 compiler temporaries) exhausts SP-2 node memory at problem sizes the
3-temporary Problem 9 formulation still handles.

The heaps are int64 vectors indexed by rank and a block is its byte
vector (0: not on that PE): one vector operation allocates or frees it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import MachineError, SimulatedOutOfMemoryError


class MemoryManager:
    """Tracks named allocations on every PE.

    ``capacity`` is bytes per PE; ``None`` means unlimited (the default
    for correctness tests; Figure 11 sets a finite capacity).
    """

    def __init__(self, npes: int, capacity: int | None = None) -> None:
        self.npes = npes
        self.capacity = capacity if capacity is not None else 1 << 62
        self._in_use = np.zeros(npes, dtype=np.int64)
        self._peak = np.zeros(npes, dtype=np.int64)
        #: name -> bytes per PE, never written in place (shared)
        self._blocks: dict[str, np.ndarray] = {}

    def allocate_all(self, name: str, nbytes_per_pe) -> None:
        """One named block on every PE with bytes, all or nothing: the
        lowest rank that cannot take its block raises what a rank-order
        loop would, and nothing is allocated."""
        nbytes = np.asarray(nbytes_per_pe, dtype=np.int64)
        held = self._blocks.get(name)
        if held is not None:
            clash = np.flatnonzero((held != 0) & (nbytes != 0))
            if clash.size:
                raise MachineError(
                    f"PE {clash[0]}: double allocation of {name}")
        after = self._in_use + nbytes
        over = np.flatnonzero(after > self.capacity)
        if over.size:
            pe = int(over[0])
            raise SimulatedOutOfMemoryError(
                pe, int(nbytes[pe]), int(self._in_use[pe]), self.capacity)
        self._in_use = after
        np.maximum(self._peak, after, out=self._peak)
        self._blocks[name] = nbytes if held is None else held + nbytes

    def allocate(self, pe: int, name: str, nbytes: int) -> None:
        """One block on one PE."""
        vector = np.zeros(self.npes, dtype=np.int64)
        vector[pe] = nbytes
        self.allocate_all(name, vector)

    def free_all(self, name: str) -> None:
        nbytes = self._blocks.pop(name, None)
        if nbytes is not None:
            self._in_use = self._in_use - nbytes

    def free(self, pe: int, name: str) -> None:
        held = self._blocks.get(name)
        if held is None or not held[pe]:
            raise MachineError(f"PE {pe}: free of unallocated {name}")
        self._in_use[pe] -= held[pe]
        rest = self._blocks[name] = held.copy()
        rest[pe] = 0
        if not rest.any():
            del self._blocks[name]

    def in_use(self, pe: int) -> int:
        return int(self._in_use[pe])

    def peak(self, pe: int) -> int:
        return int(self._peak[pe])

    @property
    def peak_per_pe(self) -> int:
        return int(self._peak.max())

    def live_blocks(self, pe: int) -> dict[str, int]:
        return {name: int(nbytes[pe])
                for name, nbytes in self._blocks.items() if nbytes[pe]}
