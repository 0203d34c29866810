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
  op's per-PE cost-report deltas;
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

    ``pe_time``/``pe_comm``/``pe_copy`` are **self** per-PE modelled-time
    deltas: the op's inclusive cost-report delta minus its children's
    (container ops — DO loops, IFs, overlapped regions — own only the
    cost they charge directly).  ``wall_self`` is the self wall-clock of
    dispatching the op in the simulator.
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


class _Frame:
    """Open-sample bookkeeping on the collector's stack."""

    __slots__ = ("sample", "t0", "pe_time0", "pe_comm0", "pe_copy0",
                 "messages0", "bytes0", "child_wall", "child_pe_time",
                 "child_pe_comm", "child_pe_copy", "child_messages",
                 "child_bytes")

    def __init__(self, sample: OpSample, t0: float, report) -> None:
        self.sample = sample
        self.t0 = t0
        self.pe_time0 = list(report.pe_times)
        self.pe_comm0 = list(report.pe_comm_times)
        self.pe_copy0 = list(report.pe_copy_times)
        self.messages0 = report.messages
        self.bytes0 = report.message_bytes
        self.child_wall = 0.0
        self.child_pe_time = [0.0] * len(self.pe_time0)
        self.child_pe_comm = [0.0] * len(self.pe_time0)
        self.child_pe_copy = [0.0] * len(self.pe_time0)
        self.child_messages = 0
        self.child_bytes = 0


class ProfileCollector:
    """Collects per-op attribution samples during one execution.

    The executor calls :meth:`begin`/:meth:`end` around every op
    dispatch (including recursive dispatch inside loop bodies); the
    collector snapshots the machine's cost report and derives self
    deltas, so nested container ops never double-count their children.
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
        self._stack: list[_Frame] = []
        self._finished = 0
        self.wall_start: float | None = None
        self.wall_end: float = 0.0

    def begin(self, name: str, attrs: dict) -> _Frame:
        now = self._clock()
        if self.wall_start is None:
            self.wall_start = now
        detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        sample = OpSample(index=len(self.samples),
                          parent=self._stack[-1].sample.index
                          if self._stack else -1,
                          depth=len(self._stack), name=name, detail=detail)
        self.samples.append(sample)
        frame = _Frame(sample, now, self.machine.report)
        self._stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        now = self._clock()
        self.wall_end = now
        popped = self._stack.pop()
        assert popped is frame, "unbalanced profiler begin/end"
        report = self.machine.report
        sample = frame.sample
        npes = len(report.pe_times)

        def deltas(now_vals, before, child):
            # PEs appearing mid-run (ensure_pes growth) start at 0
            return [now_vals[pe]
                    - (before[pe] if pe < len(before) else 0.0)
                    - (child[pe] if pe < len(child) else 0.0)
                    for pe in range(npes)]

        sample.wall_incl = now - frame.t0
        sample.wall_self = sample.wall_incl - frame.child_wall
        sample.t_start = frame.t0 - (self.wall_start
                                     if self.wall_start is not None
                                     else frame.t0)
        sample.pe_time = deltas(report.pe_times, frame.pe_time0,
                                frame.child_pe_time)
        sample.pe_comm = deltas(report.pe_comm_times, frame.pe_comm0,
                                frame.child_pe_comm)
        sample.pe_copy = deltas(report.pe_copy_times, frame.pe_copy0,
                                frame.child_pe_copy)
        msgs_incl = report.messages - frame.messages0
        bytes_incl = report.message_bytes - frame.bytes0
        sample.messages = msgs_incl - frame.child_messages
        sample.msg_bytes = bytes_incl - frame.child_bytes
        sample.finish_order = self._finished
        self._finished += 1

        if self._stack:
            parent = self._stack[-1]
            parent.child_wall += sample.wall_incl
            for pe in range(npes):
                if pe >= len(parent.child_pe_time):
                    parent.child_pe_time.append(0.0)
                    parent.child_pe_comm.append(0.0)
                    parent.child_pe_copy.append(0.0)
                parent.child_pe_time[pe] += \
                    report.pe_times[pe] - \
                    (frame.pe_time0[pe] if pe < len(frame.pe_time0)
                     else 0.0)
                parent.child_pe_comm[pe] += \
                    report.pe_comm_times[pe] - \
                    (frame.pe_comm0[pe] if pe < len(frame.pe_comm0)
                     else 0.0)
                parent.child_pe_copy[pe] += \
                    report.pe_copy_times[pe] - \
                    (frame.pe_copy0[pe] if pe < len(frame.pe_copy0)
                     else 0.0)
            parent.child_messages += msgs_incl
            parent.child_bytes += bytes_incl

    @property
    def current(self) -> "OpSample | None":
        """The innermost op being dispatched right now."""
        return self._stack[-1].sample if self._stack else None

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
                if pe >= len(sample.pe_time):
                    continue
                comm = sample.pe_comm[pe]
                copy = sample.pe_copy[pe]
                compute = max(0.0,
                              sample.pe_time[pe] - comm - copy)
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
                   level=level,
                   worker_tracks=getattr(collector, "worker_tracks",
                                         None))

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
