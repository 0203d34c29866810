"""Communication profiler: who sends what to whom, and when.

The tracer (:mod:`repro.obs.tracer`) answers *how long* each stage took;
this module answers the paper's structural questions — *where bytes
move*.  A profiled run's ``op`` spans are its one op stack: a
:class:`ProfileCollector` on the :class:`~repro.machine.network.Network`
credits each replayed recording to the open op span, and
:class:`CommProfile` condenses credits, spans and message log into:

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
:meth:`~repro.machine.network.Charges.allreduce`), and an
:class:`~repro.plan.OverlappedOp`'s communication-hiding credit can
shrink its compute slice to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineError
from repro.machine.network import TAG_CLASSES, tag_class

#: Matrix classes reported, in order: the tag taxonomy plus a catch-all.
MATRIX_CLASSES = TAG_CLASSES + ("other",)

#: Timeline phases, in the order slices are laid out within one op.
PHASES = ("comm", "copy", "compute")


class ProfileCollector:
    """The network observer of one profiled run: every recording
    :meth:`~repro.machine.network.Network.replay` applies is credited
    to the innermost open span of ``tracer`` — the op that replayed it —
    so container ops never double-count their children."""

    def __init__(self, machine, tracer) -> None:
        if not machine.network.keep_log:
            raise MachineError(
                "profiling needs the network message log; construct the "
                "Machine with keep_message_log=True")
        self.npes = machine.npes
        self.tracer = tracer
        #: ``id`` of an op span -> what it replayed itself: per-PE
        #: ``pe_times`` / ``pe_comm_times`` / ``pe_copy_times`` sums,
        #: then its logged messages and their bytes
        self.credits: dict[int, list] = {}

    def charge(self, charges) -> None:
        """Credit one replayed :class:`~repro.machine.network.Charges`
        to the innermost open span (every charge is made inside an op)."""
        key = id(self.tracer.current)
        credit = self.credits.get(key)
        if credit is None:
            credit = self.credits[key] = [
                [0.0] * self.npes for _ in range(3)] + [0, 0]
        for own, sums in zip(credit, charges.pe_sums()):
            for pe, value in enumerate(sums):
                own[pe] += value
        credit[3] += charges.messages
        credit[4] += charges.message_bytes


def _op_tree(run) -> tuple[list[list], list[int]]:
    """The ``op`` spans under ``run`` (an ``execute`` span; its other
    children hold none): ``[span, depth, self wall seconds]`` in
    preorder — an op's index is its position — and the indices in
    postorder, the order the ops finished.  Depth counts op ancestors;
    self wall time is the span's duration minus its nearest op
    descendants'."""
    ops: list[list] = []
    finished: list[int] = []

    def visit(span, depth: int, parent: "int | None") -> None:
        for child in span.children:
            if child.kind != "op":
                continue
            index = len(ops)
            ops.append([child, depth, child.duration])
            if parent is not None:
                ops[parent][2] -= child.duration
            visit(child, depth + 1, index)
            finished.append(index)

    visit(run, 0, None)
    return ops, finished


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
    #: run started; ``wall_s`` is their sum
    worker_tracks: list[dict] | None = None

    # -- construction --------------------------------------------------------
    @classmethod
    def from_run(cls, machine, collector: ProfileCollector, run,
                 worker_tracks: "list[dict] | None" = None, *,
                 backend: str, kernel: str | None = None,
                 level: str | None = None) -> "CommProfile":
        """Condense the run whose ``execute`` span is ``run``.
        ``worker_tracks``, from the ``parallel`` backend, carry their
        events as ``(op span, t0, t1)``."""
        npes = machine.npes
        matrix = {c: {key: [[0] * npes for _ in range(npes)]
                      for key in ("messages", "bytes")}
                  for c in MATRIX_CLASSES}
        for rec in machine.network.log:
            m = matrix[tag_class(rec.tag)]
            m["messages"][rec.src][rec.dst] += 1
            m["bytes"][rec.src][rec.dst] += rec.nbytes

        ops, finished = _op_tree(run)
        zero = [[0.0] * npes] * 3 + [0, 0]
        credits = [collector.credits.get(id(span), zero)
                   for span, _, _ in ops]
        timeline: list[list[dict]] = [[] for _ in range(npes)]
        cursor = [0.0] * npes
        for index in finished:
            name = ops[index][0].name
            pe_time, pe_comm, pe_copy, _, _ = credits[index]
            for pe in range(npes):
                own, comm, copy = pe_time[pe], pe_comm[pe], pe_copy[pe]
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
                        "op": index, "name": name})
                    cursor[pe] = t1

        rows = []
        for index, (span, _, wall) in enumerate(ops):
            pe_time, _, _, messages, nbytes = credits[index]
            # BSP-style self time: the slowest PE's share of this op
            modelled = max(pe_time, default=0.0)
            if modelled <= 0.0 and wall <= 0.0:
                continue
            rows.append({"op": index, "name": span.name,
                         "detail": " ".join(f"{k}={v}"
                                            for k, v in span.attrs.items()),
                         "modelled_s": modelled, "wall_s": max(0.0, wall),
                         "messages": messages, "bytes": nbytes})
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
            scale = mape = None
        validation = {"rows": rows, "scale_wall_per_modelled": scale,
                      "mape_pct": mape}

        report = machine.report
        totals = {
            "messages": report.messages,
            "message_bytes": report.message_bytes,
            "copies": report.copies,
            "copy_elements": report.copy_elements,
            "modelled_time_s": report.modelled_time,
            # the first op's start to the last op's end
            "wall_s": ops[finished[-1]][0].t_end - ops[0][0].t_start
            if ops else 0.0,
            "messages_by_class": {
                c: sum(map(sum, matrix[c]["messages"]))
                for c in MATRIX_CLASSES},
            "bytes_by_class": {
                c: sum(map(sum, matrix[c]["bytes"]))
                for c in MATRIX_CLASSES},
        }
        if worker_tracks is not None:
            at = {id(span): (index, depth)
                  for index, (span, depth, _) in enumerate(ops)}
            worker_tracks = [
                {**track, "events": [
                    {"op": at[id(span)][0], "name": span.name,
                     "depth": at[id(span)][1], "t0": t0, "t1": t1}
                    for span, t0, t1 in track["events"]]}
                for track in worker_tracks]
        return cls(grid=tuple(machine.grid), npes=npes, backend=backend,
                   matrix=matrix, timeline=timeline,
                   validation=validation, totals=totals, kernel=kernel,
                   level=level, worker_tracks=worker_tracks)

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
