"""Message-passing network of the simulated machine.

Every charge is priced once, into a :class:`Charges` recording a charge
walk fills, and reaches the cost report and message log only through
:meth:`Network.replay` — which adds the same addends to the same per-PE
rows in the same order on every run.  The network never sees payload
bytes — arrays move their own data (the simulator is sequentially
consistent; modelled time lives in the cost report, not in wall-clock
ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.cost_model import CostModel, CostReport, LoopStats

#: Tag classes of every point-to-point message, in the order the
#: communication profiler reports them:
#:
#: * ``halo`` — plain ``OVERLAP_SHIFT`` slab exchange (trivial RSD): the
#:   face of a block moving to the neighboring PE's overlap area.
#: * ``rsd`` — an ``OVERLAP_SHIFT`` whose slab was *widened* by an RSD or
#:   by base offsets: the message also carries overlap cells filled by
#:   earlier shifts (the paper's corner pickup, Figures 9/10).
#: * ``bufshift`` — the buffered exchange of a full ``CSHIFT``/``EOSHIFT``
#:   through a scratch communication buffer: the unconverted-shift path
#:   (compensating copies and the naive O0 translation) whose
#:   intraprocessor components the offset-array optimization deletes.
#: * ``allreduce`` — the butterfly rounds of a reduction collective
#:   (SUM/MAXVAL/MINVAL): ``ceil(log2 P)`` 8-byte exchanges per PE that
#:   combine per-PE partials into the globally agreed scalar.
TAG_CLASSES = ("halo", "rsd", "bufshift", "allreduce")

#: Name prefix of scratch communication buffers; messages on these
#: arrays classify as ``bufshift`` regardless of their slab shape.
SHIFT_BUFFER_PREFIX = "__shiftbuf_"


def comm_tag(array: str, dim: int, shift: int, *,
             widened: bool = False) -> str:
    """The canonical message tag for a slab exchange.

    Both executors MUST build tags through this function — the tag
    taxonomy is part of the backend-equivalence contract, and the
    communication profiler's per-class matrix split keys on the class
    prefix.
    """
    if array.startswith(SHIFT_BUFFER_PREFIX):
        kind = "bufshift"
    elif widened:
        kind = "rsd"
    else:
        kind = "halo"
    return f"{kind}:{array}:d{dim}:{shift:+d}"


def tag_class(tag: str) -> str:
    """Tag class of a message tag (``other`` for untagged/foreign tags)."""
    head, _, _ = tag.partition(":")
    return head if head in TAG_CLASSES else "other"


def allreduce_tag(op: str) -> str:
    """The canonical message tag for one reduction collective."""
    return f"allreduce:{op}"


def butterfly_partner(pe: int, rnd: int, npes: int) -> int:
    """PE ``pe``'s exchange partner in round ``rnd`` of a recursive-
    doubling butterfly over ``npes`` ranks.

    For the power-of-two case this is the classic ``pe XOR 2^rnd``; when
    the XOR partner falls off the end of a non-power-of-two rank count
    the exchange wraps cyclically.  The partner is never ``pe`` itself:
    every round has ``0 < 2^rnd < npes``.
    """
    step = 1 << rnd
    partner = pe ^ step
    if partner >= npes:
        partner = (pe + step) % npes
    return partner


@dataclass(frozen=True)
class MessageRecord:
    """One logged point-to-point message; its position in the log is
    its position in the machine-global message order."""

    src: int
    dst: int
    nbytes: int
    tag: str

    def __str__(self) -> str:
        return f"{self.src}->{self.dst} {self.nbytes}B [{self.tag}]"


class Charges:
    """What a charge walk costs, recorded once and replayed verbatim:
    per report row each PE's addends in charge order (rows are
    independent accumulators), and the integer counters as totals.
    Built by one walk, then only read, by every run of its op."""

    def __init__(self, model: CostModel) -> None:
        self.model = model
        #: report row name -> ([pe, ...], [addend, ...])
        self.rows: dict[str, tuple[list[int], list[float]]] = {}
        self.records: list[MessageRecord] = []      # in log order
        self.npes = 0
        self.messages = self.message_bytes = 0
        self.copies = self.copy_elements = self.loop_points = 0

    def _add(self, row: str, pe: int, value: float) -> None:
        pes, values = self.rows.setdefault(row, ([], []))
        pes.append(pe)
        values.append(value)
        self.npes = max(self.npes, pe + 1)

    def charge_loop(self, pe: int, stats: LoopStats,
                    overhead_factor: float = 1.0) -> None:
        """A subgrid loop of ``stats.points`` points on ``pe``."""
        self._add("pe_times", pe, self.model.loop_time(stats, overhead_factor))
        self.loop_points += stats.points
        for row, per_point in (("pe_mem_loads", stats.mem_loads),
                               ("pe_cached_loads", stats.cached_loads),
                               ("pe_stores", stats.stores),
                               ("pe_flops", stats.flops)):
            self._add(row, pe, per_point * stats.points)

    def charge_copy(self, pe: int, nelems: int, elem_size: int) -> None:
        """An intraprocessor move of ``nelems`` elements on ``pe``."""
        t = self.model.copy_time(nelems, elem_size)
        self._add("pe_times", pe, t)
        self._add("pe_copy_times", pe, t)
        self.copies += 1
        self.copy_elements += nelems

    def record_batch(self, transfers: "list[tuple[int, int, int]]",
                     itemsize: int, tag: str = "") -> None:
        """``(src, dst, nelems)`` transfers in order, each charged to its
        sender and logged.

        Self-sends are legal — on a 1-wide grid dimension a circular
        shift wraps onto the same PE — and are priced as local copies,
        not messages (no NIC involvement, matching what MPI
        implementations do for self-communication via memcpy).
        Zero-size transfers are rejected: the caller elides them.
        """
        for src, dst, nelems in transfers:
            if nelems == 0:
                raise MachineError("zero-size message; caller should "
                                   "elide it")
            if src == dst:
                self.charge_copy(src, nelems, itemsize)
                continue
            nbytes = int(nelems) * int(itemsize)
            t = self.model.msg_time(nbytes)
            self._add("pe_times", src, t)
            self._add("pe_comm_times", src, t)
            self.records.append(MessageRecord(src, dst, nbytes, tag))
            self.messages += 1
            self.message_bytes += nbytes

    def allreduce(self, pe: int, npes: int, nbytes: int = 8,
                  tag: str = "allreduce:SUM") -> None:
        """PE ``pe``'s share of one reduction collective.

        Models a recursive-doubling butterfly: ``ceil(log2 npes)``
        rounds, one ``nbytes`` exchange with a distinct partner per
        round, each priced as an ordinary point-to-point message on the
        sender.  Walks record it once per PE in rank order so every
        backend charges the identical per-PE addend sequence.
        """
        rounds = (npes - 1).bit_length() if npes > 1 else 0
        elems = max(1, nbytes // 8)
        self.record_batch([(pe, butterfly_partner(pe, rnd, npes), elems)
                           for rnd in range(rounds)], 8, tag)


@dataclass
class Network:
    """Replays recorded charges onto the cost report and message log."""

    cost_model: CostModel
    report: CostReport
    log: list[MessageRecord] = field(default_factory=list)
    keep_log: bool = True

    def replay(self, charges: Charges) -> None:
        """Apply a recording — the one way a charge reaches the report:
        each row's addends in their recorded order, then the counters
        and the log."""
        report = self.report
        report.ensure_pes(charges.npes)
        for name, (pes, values) in charges.rows.items():
            row = getattr(report, name)
            for pe, value in zip(pes, values):
                row[pe] += value
        report.messages += charges.messages
        report.message_bytes += charges.message_bytes
        report.copies += charges.copies
        report.copy_elements += charges.copy_elements
        report.loop_points += charges.loop_points
        if self.keep_log:
            self.log.extend(charges.records)

    @property
    def message_count(self) -> int:
        return self.report.messages

    def messages_with_tag(self, prefix: str) -> list[MessageRecord]:
        return [m for m in self.log if m.tag.startswith(prefix)]
