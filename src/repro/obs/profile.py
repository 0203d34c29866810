"""Communication profiler: who sends what to whom, and when.

The tracer (:mod:`repro.obs.tracer`) answers *how long* each stage took;
this module answers the paper's structural questions — *where bytes
move*.  A :class:`ProfileCollector` rides along with the executor's op
dispatch (both backends share the hook, so profiles are part of the
backend-equivalence contract), and :class:`CommProfile` condenses the
collected samples plus the :class:`~repro.machine.network.Network`
message log into three artifacts:

* a per-PE-pair **communication matrix** (messages and bytes), split by
  tag class (``halo`` / ``rsd`` / ``bufshift`` / ``allreduce``, see
  :data:`repro.machine.network.TAG_CLASSES`) — which shifts got unioned,
  which corners rode along via RSDs, which messages are the naive
  buffered path, and the butterfly rounds of each reduction collective;
* a phase-attributed per-PE **timeline** (``comm`` / ``copy`` /
  ``compute`` slices in modelled time, one lane per PE) built from each
  op's own per-PE charges;
* a **cost-model validation table**: modelled per-op time against the
  measured wall-clock of executing that op in the simulator, with a
  scale-normalized error statistic.

Caveats, stated once: the matrix covers logged point-to-point messages
(self-sends are priced as local copies and carry no message record;
reduction collectives log one record per butterfly round through
:meth:`~repro.machine.network.Network.allreduce`, identically on every
backend), and an :class:`~repro.plan.OverlappedOp`'s
communication-hiding credit can shrink its compute slice to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import MachineError
from repro.machine.network import TAG_CLASSES, tag_class

#: Matrix classes reported, in order: the tag taxonomy plus a catch-all.
MATRIX_CLASSES = TAG_CLASSES + ("other",)

#: Timeline phases, in the order slices are laid out within one op.
PHASES = ("comm", "copy", "compute")


@dataclass
class OpSample:
    """Attribution record of one executed plan op.

    ``pe_time``/``pe_comm``/``pe_copy`` are **self** per-PE modelled
    seconds: the per-PE sums of the charges the op replayed itself (a
    container op — DO loop, IF, overlapped region — owns only the cost
    it charges directly, plus an overlapped region's hiding credit).
    ``wall_self`` is the self wall-clock of dispatching the op in the
    simulator.
    """

    index: int
    parent: int          # index of the enclosing sample, -1 at top level
    depth: int
    name: str
    detail: str
    wall_incl: float = 0.0
    wall_self: float = 0.0
    #: wall-clock offset of the op's start relative to the collector's
    #: first sample — the clock worker tracks share
    t_start: float = 0.0
    pe_time: list[float] = field(default_factory=list)
    pe_comm: list[float] = field(default_factory=list)
    pe_copy: list[float] = field(default_factory=list)
    messages: int = 0    # self logged point-to-point messages
    msg_bytes: int = 0
    finish_order: int = -1

    @property
    def modelled_self(self) -> float:
        """BSP-style self time: the slowest PE's share of this op."""
        return max(self.pe_time, default=0.0)


class ProfileCollector:
    """Collects per-op attribution samples during one execution.

    The executor calls :meth:`begin`/:meth:`end` around every op
    dispatch (including recursive dispatch inside loop bodies), and the
    network hands over every recording it replays (:meth:`charge`),
    credited to the innermost open op — so each sample's cost is its
    own, and nested container ops never double-count their children.
    """

    def __init__(self, machine,
                 clock=time.perf_counter) -> None:
        if not machine.network.keep_log:
            raise MachineError(
                "profiling needs the network message log; construct the "
                "Machine with keep_message_log=True")
        self.machine = machine
        self._clock = clock
        self.samples: list[OpSample] = []
        #: open samples, innermost last, with their start times
        self._stack: list[tuple[OpSample, float]] = []
        self._finished = 0
        self.wall_start: float | None = None
        self.wall_end: float = 0.0
        #: measured per-worker tracks, published by the ``parallel``
        #: backend at the end of its run (see :class:`CommProfile`)
        self.worker_tracks: list[dict] | None = None

    def begin(self, name: str, attrs: dict) -> OpSample:
        now = self._clock()
        if self.wall_start is None:
            self.wall_start = now
        npes = self.machine.npes
        sample = OpSample(index=len(self.samples),
                          parent=self._stack[-1][0].index
                          if self._stack else -1,
                          depth=len(self._stack), name=name,
                          detail=" ".join(f"{k}={v}"
                                          for k, v in attrs.items()),
                          t_start=now - self.wall_start,
                          pe_time=[0.0] * npes, pe_comm=[0.0] * npes,
                          pe_copy=[0.0] * npes)
        self.samples.append(sample)
        self._stack.append((sample, now))
        return sample

    def charge(self, charges) -> None:
        """Credit one replayed :class:`~repro.machine.network.Charges`
        to the innermost open op (every charge is made inside one)."""
        sample = self._stack[-1][0]
        for own, sums in zip((sample.pe_time, sample.pe_comm,
                              sample.pe_copy), charges.pe_sums()):
            for pe, value in enumerate(sums):
                own[pe] += value
        sample.messages += charges.messages
        sample.msg_bytes += charges.message_bytes

    def end(self, sample: OpSample) -> None:
        now = self._clock()
        self.wall_end = now
        popped, t0 = self._stack.pop()
        assert popped is sample, "unbalanced profiler begin/end"
        sample.wall_incl = now - t0
        # its children subtracted their inclusive time as they ended
        sample.wall_self += sample.wall_incl
        if self._stack:
            self._stack[-1][0].wall_self -= sample.wall_incl
        sample.finish_order = self._finished
        self._finished += 1

    @property
    def current(self) -> "OpSample | None":
        """The innermost op being dispatched right now."""
        return self._stack[-1][0] if self._stack else None

    @property
    def wall_total(self) -> float:
        if self.wall_start is None:
            return 0.0
        return self.wall_end - self.wall_start


def _empty_matrix(npes: int) -> dict[str, list[list[int]]]:
    return {"messages": [[0] * npes for _ in range(npes)],
            "bytes": [[0] * npes for _ in range(npes)]}


@dataclass
class CommProfile:
    """The condensed communication profile of one execution.

    ``matrix[cls]["messages"][src][dst]`` counts point-to-point messages
    of one tag class; ``timeline[pe]`` is a list of phase slices in
    modelled seconds; ``validation`` holds the per-op modelled-vs-wall
    rows and the summary error statistic.  Pure-Python values
    throughout, so :meth:`to_dict` round-trips losslessly through JSON
    (see :mod:`repro.obs.export`).
    """

    grid: tuple[int, ...]
    npes: int
    backend: str
    matrix: dict[str, dict[str, list[list[int]]]]
    timeline: list[list[dict]]
    validation: dict
    totals: dict
    kernel: str | None = None
    level: str | None = None
    #: measured per-worker wall-clock tracks, present only for the
    #: ``parallel`` backend: ``[{"worker", "wall_s", "events": [{"op",
    #: "name", "depth", "t0", "t1"}]}]`` — one event per nest (worker 0,
    #: the calling thread) or stripe that worker ran, seconds since the
    #: run's first op; ``wall_s`` is their sum
    worker_tracks: list[dict] | None = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_run(cls, machine, collector: ProfileCollector, *,
                 backend: str, kernel: str | None = None,
                 level: str | None = None) -> "CommProfile":
        npes = machine.npes
        matrix = {c: _empty_matrix(npes) for c in MATRIX_CLASSES}
        for rec in machine.network.log:
            m = matrix[tag_class(rec.tag)]
            m["messages"][rec.src][rec.dst] += 1
            m["bytes"][rec.src][rec.dst] += rec.nbytes

        timeline: list[list[dict]] = [[] for _ in range(npes)]
        cursor = [0.0] * npes
        ordered = sorted(collector.samples, key=lambda s: s.finish_order)
        for sample in ordered:
            for pe in range(npes):
                own = sample.pe_time[pe]
                comm = sample.pe_comm[pe]
                copy = sample.pe_copy[pe]
                # a residue within rounding of the op's own time (its
                # addends summed per row in another order) is no compute
                compute = own - comm - copy
                if compute <= own * 1e-12:
                    compute = 0.0
                for phase, dur in (("comm", comm), ("copy", copy),
                                   ("compute", compute)):
                    t0, t1 = cursor[pe], cursor[pe] + dur
                    if t1 <= t0:  # zero, negative, or below float ulp
                        continue
                    timeline[pe].append({
                        "t0": t0, "t1": t1, "phase": phase,
                        "op": sample.index, "name": sample.name})
                    cursor[pe] = t1

        rows = []
        for sample in collector.samples:
            modelled = sample.modelled_self
            if modelled <= 0.0 and sample.wall_self <= 0.0:
                continue
            rows.append({"op": sample.index, "name": sample.name,
                         "detail": sample.detail,
                         "modelled_s": modelled,
                         "wall_s": max(0.0, sample.wall_self),
                         "messages": sample.messages,
                         "bytes": sample.msg_bytes})
        sum_modelled = sum(r["modelled_s"] for r in rows)
        sum_wall = sum(r["wall_s"] for r in rows)
        if sum_modelled > 0:
            scale = sum_wall / sum_modelled
            abs_err = sum(abs(r["modelled_s"] * scale - r["wall_s"])
                          for r in rows)
            mape = (abs_err / sum_wall * 100.0) if sum_wall > 0 else 0.0
        else:
            # A comm-free plan models zero seconds: no scale exists, and
            # any scaled-error statistic would be meaningless.  Report
            # both as absent rather than a silently bogus 0.0.
            scale = None
            mape = None
        validation = {
            "rows": rows,
            "scale_wall_per_modelled": scale,
            "mape_pct": mape,
        }

        report = machine.report
        totals = {
            "messages": report.messages,
            "message_bytes": report.message_bytes,
            "copies": report.copies,
            "copy_elements": report.copy_elements,
            "modelled_time_s": report.modelled_time,
            "wall_s": collector.wall_total,
            "messages_by_class": {
                c: sum(map(sum, matrix[c]["messages"]))
                for c in MATRIX_CLASSES},
            "bytes_by_class": {
                c: sum(map(sum, matrix[c]["bytes"]))
                for c in MATRIX_CLASSES},
        }
        return cls(grid=tuple(machine.grid), npes=npes, backend=backend,
                   matrix=matrix, timeline=timeline,
                   validation=validation, totals=totals, kernel=kernel,
                   level=level, worker_tracks=collector.worker_tracks)

    # -- queries -------------------------------------------------------------
    def pair_matrix(self, cls_name: str | None = None,
                    key: str = "messages") -> list[list[int]]:
        """One npes x npes matrix; ``cls_name=None`` sums all classes."""
        if cls_name is not None:
            return [row[:] for row in self.matrix[cls_name][key]]
        out = [[0] * self.npes for _ in range(self.npes)]
        for c in MATRIX_CLASSES:
            for s in range(self.npes):
                for d in range(self.npes):
                    out[s][d] += self.matrix[c][key][s][d]
        return out

    def phase_seconds(self, pe: int) -> dict[str, float]:
        """Total modelled seconds per phase on one PE's timeline."""
        out = {p: 0.0 for p in PHASES}
        for seg in self.timeline[pe]:
            out[seg["phase"]] += seg["t1"] - seg["t0"]
        return out

    # -- (de)serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "grid": list(self.grid), "npes": self.npes,
            "backend": self.backend, "kernel": self.kernel,
            "level": self.level, "matrix": self.matrix,
            "timeline": self.timeline, "validation": self.validation,
            "totals": self.totals,
        }
        # only the parallel backend produces tracks; omitting the key
        # otherwise keeps serialized profiles (and goldens) unchanged
        if self.worker_tracks is not None:
            out["worker_tracks"] = self.worker_tracks
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CommProfile":
        return cls(grid=tuple(data["grid"]), npes=data["npes"],
                   backend=data["backend"], matrix=data["matrix"],
                   timeline=data["timeline"],
                   validation=data["validation"], totals=data["totals"],
                   kernel=data.get("kernel"), level=data.get("level"),
                   worker_tracks=data.get("worker_tracks"))
