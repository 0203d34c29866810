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

import numpy as np

from repro.errors import MachineError
from repro.machine.cost_model import PE_ROWS, CostModel, CostReport, LoopStats

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

#: Layers one ``np.add.reduce`` of a several-trip replay stacks at most,
#: so a loop of any trip count replays in ``(65, 7, npes)`` float64s.
REPLAY_LAYERS = 64


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
        self._layers: np.ndarray | None = None
        self._sums: tuple[list[float], ...] | None = None

    def layers(self) -> np.ndarray:
        """The addends as dense layers, ``(depth, len(PE_ROWS), npes)``:
        layer ``k`` holds each PE's ``k``-th addend of every row, +0.0
        where it has none.  Adding them in order to rows that start at
        +0.0 is the recorded fold, bit for bit: such a row is never -0.0
        (a sum is -0.0 only when both operands are), and +0.0 leaves any
        other value as it is.  Compiled once per schedule."""
        if self._layers is None:
            at, values = [], []
            for r, name in enumerate(PE_ROWS):
                pes, addends = self.rows.get(name, ((), ()))
                depth = [0] * self.npes
                for pe in pes:
                    at.append((depth[pe], r, pe))
                    depth[pe] += 1
                values += addends
            k, r, pe = np.array(at, dtype=np.intp).reshape(-1, 3).T
            layers = np.zeros((k.max(initial=-1) + 1, len(PE_ROWS), self.npes))
            layers[k, r, pe] = values
            self._layers = layers
        return self._layers

    def pe_sums(self) -> tuple[list[float], ...]:
        """The ``pe_times``, ``pe_comm_times`` and ``pe_copy_times``
        rows' per-PE sums of their addends, in recorded order: what a
        profile credits the op.  Summed on first use and kept, so once
        per schedule."""
        if self._sums is None:
            sums = np.zeros((3, self.npes))
            for layer in self.layers():
                sums += layer[:3]
            self._sums = tuple(sums.tolist())
        return self._sums

    @classmethod
    def merged(cls, model: CostModel, members: list) -> "Charges":
        """One recording of ``members`` in order: per row, each PE's
        addends concatenated (rows are independent accumulators, so
        replaying it is replaying the members one by one, bit for bit),
        the records concatenated and the counters summed."""
        out = cls(model)
        for c in members:
            for row, (pes, values) in c.rows.items():
                into = out.rows.setdefault(row, ([], []))
                into[0].extend(pes)
                into[1].extend(values)
            out.records += c.records
            out.npes = max(out.npes, c.npes)
            out.messages += c.messages
            out.message_bytes += c.message_bytes
            out.copies += c.copies
            out.copy_elements += c.copy_elements
            out.loop_points += c.loop_points
        return out

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

    def credit(self, pe: int, seconds: float) -> None:
        """``seconds`` of ``pe``'s time hidden behind its messages (an
        overlapped region's credit): a negated ``pe_times`` addend."""
        self._add("pe_times", pe, -seconds)

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
    #: a profiled run's :class:`repro.obs.profile.ProfileCollector`,
    #: handed every recording replayed
    observer: object | None = None

    def replay(self, charges: Charges, trips: int = 1) -> None:
        """Apply a recording ``trips`` times in a row — the one way a
        charge reaches the report: its dense layers in order, one
        in-place add each (every row sees its addends in recorded
        order; several trips are ``np.add.reduce`` over the rows and
        the layers repeated, which adds them in the same order, at most
        :data:`REPLAY_LAYERS` layers per reduce — one trip's few adds
        are cheaper in place), then the counters and the log; then show
        it to the observer, if any."""
        report = self.report
        report.ensure_pes(charges.npes)
        rows = report.rows[:, :charges.npes]
        layers = charges.layers()
        if trips == 1:
            for layer in layers:
                rows += layer
        elif len(layers):
            per = max(1, REPLAY_LAYERS // len(layers))
            for done in range(0, trips, per):
                np.add.reduce(np.concatenate(
                    (rows[None], *[layers] * min(per, trips - done))),
                    axis=0, out=rows)
        report.messages += charges.messages * trips
        report.message_bytes += charges.message_bytes * trips
        report.copies += charges.copies * trips
        report.copy_elements += charges.copy_elements * trips
        report.loop_points += charges.loop_points * trips
        if self.keep_log:
            self.log.extend(charges.records * trips)
        if self.observer is not None:
            for _ in range(trips):
                self.observer.charge(charges)

    @property
    def message_count(self) -> int:
        return self.report.messages

    def messages_with_tag(self, prefix: str) -> list[MessageRecord]:
        return [m for m in self.log if m.tag.startswith(prefix)]
