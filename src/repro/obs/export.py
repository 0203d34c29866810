"""Exporters for communication profiles, traces, and metrics.

Three machine-readable formats leave the repo from here:

* **Chrome Trace Event JSON** (:func:`chrome_trace`), loadable in
  Perfetto / ``chrome://tracing``: one track (thread) per PE carrying the
  profile's modelled-time phase slices, plus a separate process track
  with the tracer's wall-clock spans (compile passes, and the run's op
  spans the profile was read from) when a
  :class:`~repro.obs.tracer.Tracer` is supplied.  Modelled time and wall
  time run on different clocks, so they live in different ``pid``
  tracks rather than sharing a timeline.  Export degrades gracefully:
  an op-less profile (zero iterations, comm-free plans) yields valid
  metadata-only tracks, missing timeline rows or worker-event fields
  are tolerated, and durations are clamped non-negative.
* **profile.json** (:func:`profile_to_json` / :func:`profile_from_json`),
  the versioned serialization of a :class:`~repro.obs.profile.CommProfile`
  (header :data:`PROFILE_SCHEMA`).  ``from(to(p))`` is an exact
  round-trip: profiles contain only ints, floats, strings, lists, and
  dicts, and ``json`` preserves all of them losslessly.
* **metrics** (:func:`metrics_to_json` and :func:`prometheus_text`),
  the versioned JSON document of a
  :class:`~repro.obs.metrics.MetricsRegistry` and its Prometheus text
  exposition (``# HELP`` / ``# TYPE`` / sample lines, histogram
  ``_bucket``/``_sum``/``_count`` expansion with cumulative ``le``
  buckets).
"""

from __future__ import annotations

import json
import math

from repro.machine.topology import ProcessorGrid
from repro.obs.metrics import Histogram, format_labels
from repro.obs.profile import CommProfile
from repro.obs.tracer import Tracer

#: Header object of every profile.json document.
PROFILE_SCHEMA = {"type": "comm_profile", "version": 1}

#: Versions :func:`profile_from_json` understands.
_READABLE_PROFILE_VERSIONS = (1,)

#: Chrome-trace process ids: the tracer's spans (wall clock) vs
#: execution timeline (modelled clock) vs measured per-worker wall clock
#: (present only for the ``parallel`` backend).
WALL_PID = 0
EXEC_PID = 1
WORKERS_PID = 2


def _sec_to_us(t: float) -> float:
    return t * 1e6


def chrome_trace(profile: CommProfile,
                 tracer: "Tracer | None" = None) -> dict:
    """Chrome Trace Event representation of a profile.

    Returns the JSON-object format (``{"traceEvents": [...]}``) with
    complete (``ph: "X"``) events.  Timestamps are microseconds;
    execution events use the profile's modelled clock starting at 0,
    span events (if ``tracer`` given) use wall clock rebased to the
    earliest span.
    """
    events: list[dict] = []
    grid = ProcessorGrid(tuple(profile.grid))

    events.append({"name": "process_name", "ph": "M", "pid": EXEC_PID,
                   "tid": 0,
                   "args": {"name": f"execution (modelled time, "
                                    f"{profile.backend} backend)"}})
    timeline = profile.timeline or []
    for pe in range(profile.npes):
        coords = "x".join(str(c) for c in grid.coords(pe))
        events.append({"name": "thread_name", "ph": "M", "pid": EXEC_PID,
                       "tid": pe, "args": {"name": f"PE {pe} ({coords})"}})
        # a deserialized or op-less profile may carry fewer timeline
        # rows than PEs; missing rows are empty tracks, not errors
        for seg in (timeline[pe] if pe < len(timeline) else []):
            events.append({
                "name": seg.get("name", "?"),
                "cat": seg.get("phase", "?"), "ph": "X",
                "pid": EXEC_PID, "tid": pe,
                "ts": _sec_to_us(seg.get("t0", 0.0)),
                "dur": _sec_to_us(max(0.0, seg.get("t1", 0.0)
                                      - seg.get("t0", 0.0))),
                "args": {"phase": seg.get("phase", "?"),
                         "op": seg.get("op", -1)},
            })

    if profile.worker_tracks:
        events.append({"name": "process_name", "ph": "M",
                       "pid": WORKERS_PID, "tid": 0,
                       "args": {"name": "workers (measured wall time)"}})
        for track in profile.worker_tracks:
            wid = track.get("worker", 0)
            # profiles written by the process design named owned PEs
            pes = ",".join(str(p) for p in track.get("pes", []))
            events.append({"name": "thread_name", "ph": "M",
                           "pid": WORKERS_PID, "tid": wid,
                           "args": {"name": f"worker {wid}" + (
                               f" (PEs {pes})" if pes else "")}})
            for ev in track.get("events", []):
                events.append({
                    "name": ev.get("name", "?"), "cat": "worker-wall",
                    "ph": "X", "pid": WORKERS_PID, "tid": wid,
                    "ts": _sec_to_us(ev.get("t0", 0.0)),
                    "dur": _sec_to_us(max(0.0, ev.get("t1", 0.0)
                                          - ev.get("t0", 0.0))),
                    "args": {"op": ev.get("op", -1),
                             "depth": ev.get("depth", 0)},
                })

    if tracer is not None and tracer.roots:
        events.append({"name": "process_name", "ph": "M",
                       "pid": WALL_PID, "tid": 0,
                       "args": {"name": "wall time"}})
        events.append({"name": "thread_name", "ph": "M",
                       "pid": WALL_PID, "tid": 0,
                       "args": {"name": "spans"}})
        t0 = min(span.t_start for span in tracer.spans())
        for span, sid, _parent in tracer.iter_with_ids():
            args: dict[str, object] = {"id": sid, **span.attrs}
            events.append({
                "name": span.name, "cat": span.kind or "span", "ph": "X",
                "pid": WALL_PID, "tid": 0,
                "ts": _sec_to_us(span.t_start - t0),
                "dur": _sec_to_us(max(0.0, span.duration)),
                "args": args,
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro-comm-profile-chrome",
            "grid": list(profile.grid),
            "backend": profile.backend,
            "kernel": profile.kernel,
            "level": profile.level,
        },
    }


def write_chrome_trace(profile: CommProfile, path: str,
                       tracer: "Tracer | None" = None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(profile, tracer), fh, sort_keys=True)
        fh.write("\n")


def profile_to_json(profile: CommProfile) -> str:
    """Serialize a profile to its versioned JSON document."""
    doc = dict(PROFILE_SCHEMA)
    doc["profile"] = profile.to_dict()
    return json.dumps(doc, sort_keys=True) + "\n"


def profile_from_json(text: str) -> CommProfile:
    """Parse a profile.json document (exact inverse of
    :func:`profile_to_json`)."""
    doc = json.loads(text)
    kind = doc.get("type") if isinstance(doc, dict) else type(doc).__name__
    if kind != PROFILE_SCHEMA["type"]:
        raise ValueError(f"not a comm_profile document: type={kind!r}")
    if doc.get("version") not in _READABLE_PROFILE_VERSIONS:
        raise ValueError(
            f"unsupported comm_profile version {doc.get('version')!r}")
    return CommProfile.from_dict(doc["profile"])


def write_profile(profile: CommProfile, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(profile_to_json(profile))


def read_profile(path: str) -> CommProfile:
    with open(path) as fh:
        return profile_from_json(fh.read())


# ---------------------------------------------------------------------------
# metrics: versioned JSON + Prometheus text exposition
# ---------------------------------------------------------------------------

def metrics_to_json(registry) -> str:
    """Serialize a :class:`~repro.obs.metrics.MetricsRegistry` to its
    versioned JSON document."""
    return json.dumps(registry.to_dict(), sort_keys=True) + "\n"


def write_metrics(registry, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(metrics_to_json(registry))


def _prom_value(value: float) -> str:
    """Prometheus sample-value rendering: full float precision,
    ``+Inf``/``-Inf``/``NaN`` spelled the Prometheus way."""
    v = float(value)
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if math.isnan(v):
        return "NaN"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _prom_escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(key, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    return format_labels(tuple(key) + tuple(extra))


def prometheus_text(registry) -> str:
    """Prometheus text exposition (format version 0.0.4) of every
    registered metric.

    Counters and gauges emit one sample line per label set; histograms
    expand to cumulative ``_bucket{le=...}`` lines plus ``_sum`` and
    ``_count``.
    """
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} "
                         f"{_prom_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for key, state in metric.samples():
                cumulative = 0
                for bound, count in zip(metric.buckets,
                                        state["counts"]):
                    cumulative += count
                    labels = _prom_labels(
                        key, (("le", _prom_value(bound)),))
                    lines.append(f"{metric.name}_bucket{labels} "
                                 f"{cumulative}")
                cumulative += state["counts"][-1]
                labels = _prom_labels(key, (("le", "+Inf"),))
                lines.append(f"{metric.name}_bucket{labels} "
                             f"{cumulative}")
                base = format_labels(key)
                lines.append(f"{metric.name}_sum{base} "
                             f"{_prom_value(state['sum'])}")
                lines.append(f"{metric.name}_count{base} "
                             f"{state['count']}")
        else:
            for key, value in metric.samples():
                lines.append(f"{metric.name}{format_labels(key)} "
                             f"{_prom_value(value)}")
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(registry, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(prometheus_text(registry))
