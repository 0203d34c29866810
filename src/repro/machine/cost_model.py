"""Analytic cost model for the simulated machine.

The reproduction cannot time a 1997 IBM SP-2, so modelled execution time
is computed from first principles with SP-2-class constants:

* interprocessor messages cost ``alpha + beta * nbytes`` (MPL/MPI linear
  model; SP-2 latency tens of microseconds, bandwidth tens of MB/s);
* intraprocessor shift copies stream whole subgrids through memory;
* subgrid loop nests are memory bound (paper section 2.2): time is
  dominated by loads that miss cache vs. loads satisfied from cache or
  registers.  The compiler's memory-optimization pass reports how many
  references per point remain memory loads after scalar replacement and
  unroll-and-jam; the model prices them.

Absolute numbers are not the point — the *structure* is: which
optimization removes which term.  ``hpf_overhead_factor`` models the
interpretive subgrid-loop overhead of early HPF compilers (the paper
measured xlhpf 10x slower than hand-written F77+MPI before any of its
optimizations; Figure 11 vs Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


@dataclass(frozen=True)
class LoopStats:
    """Per-point memory behaviour of one subgrid loop nest.

    Produced by codegen + the memory-optimization pass; consumed by
    :meth:`CostModel.loop_time`.
    """

    points: int                 # iteration-space points executed by this PE
    statements: int = 1         # fused statement count (loop overhead)
    mem_loads: float = 0.0      # per-point loads that go to memory
    cached_loads: float = 0.0   # per-point loads from cache/registers
    stores: float = 0.0         # per-point stores
    flops: float = 0.0          # per-point arithmetic operations

    def scaled(self, factor: float) -> "LoopStats":
        return replace(self, mem_loads=self.mem_loads * factor)


@dataclass(frozen=True)
class CostModel:
    """Machine constants (seconds / bytes / elements)."""

    #: per-message software overhead (s) — HPF-era shift communication:
    #: MPL latency plus runtime buffer packing/synchronization
    alpha: float = 300e-6
    #: per-byte transfer time (s/B) — ~25 MB/s sustained through the
    #: runtime (the raw SP-2 switch did ~35 MB/s)
    beta: float = 1.0 / 25e6
    #: per-element intraprocessor copy cost (s).  A library CSHIFT makes
    #: two whole-subgrid copies (into the communication buffer and out to
    #: the destination), each read+write through memory; the pair then
    #: costs ~2.5 memory accesses per element, matching the measured
    #: weight of the offset-array optimization's first step
    copy_elem: float = 30e-9
    #: per-element memory load (cache-miss dominated streaming) (s)
    mem_load: float = 24e-9
    #: per-element cached/register load (s)
    cached_load: float = 4e-9
    #: per-element store (s)
    store: float = 10e-9
    #: per arithmetic operation (s)
    flop: float = 4e-9
    #: per-iteration-point loop bookkeeping per statement (s)
    loop_overhead: float = 2e-9
    #: multiplier applied to loop time for the xlhpf-like baseline's
    #: interpretive subgrid loops and run-time alignment checks.
    #: Calibrated so the baseline is ~10x slower than the naive
    #: Fortran77+MPI translation, the gap the paper measured between
    #: Figure 11 (xlhpf, 4.77 s) and Figure 17 ("original", 0.475 s).
    hpf_overhead_factor: float = 18.0

    # -- primitive costs ----------------------------------------------------
    def msg_time(self, nbytes: int) -> float:
        """One point-to-point message of ``nbytes``."""
        return self.alpha + self.beta * nbytes

    def copy_time(self, nelems: int, elem_size: int) -> float:
        """Intraprocessor move of ``nelems`` elements (both components of a
        CSHIFT move whole subgrids; the offset-array optimization exists to
        delete this term)."""
        scale = elem_size / 4.0
        return nelems * self.copy_elem * scale

    def loop_time(self, stats: LoopStats,
                  overhead_factor: float = 1.0) -> float:
        """A subgrid loop nest, from its per-point memory profile."""
        per_point = (stats.mem_loads * self.mem_load
                     + stats.cached_loads * self.cached_load
                     + stats.stores * self.store
                     + stats.flops * self.flop
                     + stats.statements * self.loop_overhead)
        return stats.points * per_point * overhead_factor


#: Default SP-2-class constants used by all experiments.
SP2_COST_MODEL = CostModel()


#: The cost report's per-PE rows, in the order of :attr:`CostReport.rows`.
PE_ROWS = ("pe_times", "pe_comm_times", "pe_copy_times", "pe_mem_loads",
           "pe_cached_loads", "pe_stores", "pe_flops")


@dataclass(eq=False)
class CostReport:
    """Accumulated modelled costs of one program execution.

    Times are per-PE; :attr:`modelled_time` is the max over PEs of each
    PE's accumulated time (BSP-style: PEs run the same SPMD program).

    The per-PE rows are one float64 array (a row per name of
    :data:`PE_ROWS`, a column per PE) that only ``Network.replay``
    writes.  Each name reads its row back as a list, and the float
    aggregates sum those lists in PE order on every backend.
    """

    rows: np.ndarray = field(
        default_factory=lambda: np.zeros((len(PE_ROWS), 0)))
    messages: int = 0
    message_bytes: int = 0
    copies: int = 0
    copy_elements: int = 0
    loop_points: int = 0

    pe_times, pe_comm_times, pe_copy_times, pe_mem_loads, \
        pe_cached_loads, pe_stores, pe_flops = (
            property(lambda self, i=i: self.rows[i].tolist())
            for i in range(len(PE_ROWS)))

    def ensure_pes(self, npes: int) -> None:
        """Widen the rows to ``npes`` PEs (new PEs start at +0.0)."""
        grow = npes - self.rows.shape[1]
        if grow > 0:
            self.rows = np.pad(self.rows, ((0, 0), (0, grow)))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CostReport) and \
            self._state() == other._state()

    def _state(self) -> tuple:
        return (self.rows.tolist(), self.messages, self.message_bytes,
                self.copies, self.copy_elements, self.loop_points)

    @property
    def mem_loads(self) -> float:
        return sum(self.pe_mem_loads)

    @property
    def cached_loads(self) -> float:
        return sum(self.pe_cached_loads)

    @property
    def stores(self) -> float:
        return sum(self.pe_stores)

    @property
    def flops(self) -> float:
        return sum(self.pe_flops)

    @property
    def modelled_time(self) -> float:
        return max(self.pe_times, default=0.0)

    @property
    def comm_time_fraction(self) -> float:
        """Fraction of the critical PE's time spent communicating."""
        times = self.pe_times
        if not times or max(times) == 0:
            return 0.0
        critical = times.index(max(times))
        return self.pe_comm_times[critical] / times[critical]

    def summary(self) -> dict[str, float]:
        return {
            "modelled_time_s": self.modelled_time,
            "messages": float(self.messages),
            "message_bytes": float(self.message_bytes),
            "copies": float(self.copies),
            "copy_elements": float(self.copy_elements),
            "mem_loads": self.mem_loads,
            "cached_loads": self.cached_loads,
            "stores": self.stores,
            "flops": self.flops,
        }
