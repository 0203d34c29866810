"""The :class:`Machine` facade tying together grid, network, and memory."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.cost_model import CostModel, CostReport, SP2_COST_MODEL
from repro.machine.memory import MemoryManager
from repro.machine.network import Network
from repro.machine.topology import ProcessorGrid


@dataclass
class Machine:
    """A simulated distributed-memory machine.

    Parameters
    ----------
    grid:
        Processor grid shape, e.g. ``(2, 2)`` for the paper's 4-processor
        SP-2 runs.
    cost_model:
        Machine constants; defaults to :data:`SP2_COST_MODEL`.
    memory_per_pe:
        Heap capacity per PE in bytes, or ``None`` for unlimited.
    keep_message_log:
        Retain individual message records (handy in tests; experiments
        with millions of messages can turn it off).
    """

    grid: tuple[int, ...] = (2, 2)
    cost_model: CostModel = field(default_factory=lambda: SP2_COST_MODEL)
    memory_per_pe: int | None = None
    keep_message_log: bool = True

    def __post_init__(self) -> None:
        self.topology = ProcessorGrid(tuple(self.grid))
        self.reset()

    def reset(self) -> None:
        """Fresh cost report, message log, and heaps (keeps the grid)."""
        self.report = CostReport()
        self.report.ensure_pes(self.topology.size)
        self.memory = MemoryManager(self.topology.size, self.memory_per_pe)
        self.network = Network(self.cost_model, self.report,
                               keep_log=self.keep_message_log)

    @property
    def npes(self) -> int:
        return self.topology.size

    def fingerprint(self) -> str:
        """Canonical string identifying the machine configuration (grid
        shape, cost constants, heap capacity) for plan-cache keys —
        plans are machine-independent today, but callers that record
        results per machine key on this to stay honest if that ever
        changes."""
        return (f"grid={tuple(self.grid)};mem={self.memory_per_pe};"
                f"cost={sorted(vars(self.cost_model).items())}")

    def __str__(self) -> str:
        return f"Machine(grid={self.topology}, npes={self.npes})"
