"""Message-passing network of the simulated machine.

Every interprocessor transfer is accounted for here: the shift runtimes
charge a whole exchange through :meth:`Network.record_batch`, reduction
collectives one message at a time through :meth:`Network.record`; each
records a :class:`MessageRecord` and charges the cost model.  The
network never sees payload bytes — arrays move their own data (the
simulator is sequentially consistent; modelled time lives in the cost
report, not in wall-clock ordering).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.cost_model import CostModel, CostReport

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


@dataclass
class Network:
    """Records messages and charges their cost to the sending PE."""

    cost_model: CostModel
    report: CostReport
    log: list[MessageRecord] = field(default_factory=list)
    keep_log: bool = True

    def record(self, src: int, dst: int, nelems: int, itemsize: int,
               tag: str = "") -> None:
        """Charge and log one transfer of ``nelems`` elements from PE
        ``src`` to PE ``dst``.

        Self-sends are legal — on a 1-wide grid dimension a circular shift
        wraps onto the same PE — and are priced as local copies, not
        messages (no NIC involvement, matching what MPI implementations
        do for self-communication via memcpy).  Zero-size transfers are
        rejected: the caller elides them.
        """
        if nelems == 0:
            raise MachineError("zero-size message; caller should elide it")
        if src == dst:
            self.report.add_copy(src, nelems, itemsize, self.cost_model)
            return
        nbytes = int(nelems) * int(itemsize)
        if self.keep_log:
            self.log.append(MessageRecord(src, dst, nbytes, tag))
        self.report.add_message(src, nbytes, self.cost_model)

    def record_batch(self, transfers: list[tuple[int, int, int]],
                     itemsize: int, tag: str = "") -> None:
        """:meth:`record` over many ``(src, dst, nelems)`` transfers.

        Bitwise-identical accounting to calling :meth:`record` once per
        transfer in list order — each PE's time accumulates the same
        addends in the same order — with the loop constants (cost-model
        lookups, report attribute access) hoisted out of the per-PE loop.
        """
        report = self.report
        report.ensure_pes(1 + max((t[0] for t in transfers), default=-1))
        pe_times = report.pe_times
        pe_comm = report.pe_comm_times
        log = self.log if self.keep_log else None
        msg_t: dict[int, float] = {}
        nmsgs = 0
        total_bytes = 0
        for src, dst, nelems in transfers:
            if nelems == 0:
                raise MachineError("zero-size message; caller should "
                                   "elide it")
            if src == dst:
                report.add_copy(src, nelems, itemsize, self.cost_model)
                continue
            nbytes = nelems * itemsize
            t = msg_t.get(nbytes)
            if t is None:
                t = self.cost_model.msg_time(nbytes)
                msg_t[nbytes] = t
            if log is not None:
                log.append(MessageRecord(src, dst, nbytes, tag))
            pe_times[src] += t
            pe_comm[src] += t
            nmsgs += 1
            total_bytes += nbytes
        report.messages += nmsgs
        report.message_bytes += total_bytes

    def allreduce(self, pe: int, npes: int, nbytes: int = 8,
                  tag: str = "allreduce:SUM") -> None:
        """Charge and log PE ``pe``'s share of one reduction collective.

        Models a recursive-doubling butterfly: ``ceil(log2 npes)``
        rounds, one ``nbytes`` exchange with a distinct partner per
        round, each priced as an ordinary point-to-point message on the
        sender.  Executors call this once per PE in rank order so every
        backend charges the identical per-PE addend sequence.
        """
        rounds = (npes - 1).bit_length() if npes > 1 else 0
        elems = max(1, nbytes // 8)
        for rnd in range(rounds):
            self.record(pe, butterfly_partner(pe, rnd, npes), elems, 8,
                        tag)

    @property
    def message_count(self) -> int:
        return self.report.messages

    def messages_with_tag(self, prefix: str) -> list[MessageRecord]:
        return [m for m in self.log if m.tag.startswith(prefix)]
