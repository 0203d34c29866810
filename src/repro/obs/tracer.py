"""Structured tracing for the compiler and the executor.

A :class:`Tracer` produces a forest of hierarchical :class:`Span`\\ s
(compile -> each pass -> codegen; execute -> each plan op), each carrying
wall-clock timings and free-form attributes.  Spans measure time; what
an op *costs* is read off the charges it replays, by the communication
profiler (:mod:`repro.obs.profile`).  Traces export as JSONL (one event
per line, see :data:`TRACE_SCHEMA`) and round-trip back via
:meth:`Tracer.from_jsonl`; :meth:`Tracer.summary` renders a
human-readable tree.

Tracing is strictly opt-in: every instrumented entry point defaults to
:data:`NULL_TRACER`, whose ``span()`` returns a shared no-op context
manager and whose ``enabled`` flag lets hot paths (the plan executor's op
loop) skip span bookkeeping.  A traced run executes the untraced run's
program and differs from it only by the spans it files and the clock
stamps a native segment's driver takes to time them.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterator

#: JSONL schema, line by line:
#:
#: * first line: ``{"type": "trace", "version": 3}``
#: * every other line: ``{"type": "span", "id": str, "parent": str|null,
#:   "name": str, "kind": str, "start": float, "end": float, "dur": float,
#:   "attrs": {...}}``
#:
#: Span ids are *stable*: ``parent-path + "/" + name + "#" + ordinal``,
#: where the ordinal counts earlier same-named siblings (e.g.
#: ``compile#0/pass:normalize#0``, ``execute#0/overlap_shift#2``).  Two
#: runs of the same program produce the same ids, so exported traces and
#: profiles diff cleanly; an id changes only when the tree around it
#: does.  Spans are emitted depth-first preorder — a parent always
#: precedes its children, so a stream consumer can rebuild the tree in
#: one pass.  Version-1 (integer preorder ids) and version-2 traces are
#: still read; their spans' ``"counters"`` are folded into the attrs.
TRACE_SCHEMA = {"type": "trace", "version": 3}

#: Trace versions :meth:`Tracer.from_jsonl` understands.
_READABLE_VERSIONS = (1, 2, 3)


@dataclass
class Span:
    """One timed region with free-form attributes."""

    name: str
    kind: str = ""
    attrs: dict[str, object] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    t_start: float = 0.0
    t_end: float = 0.0

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent inside the span."""
        return max(0.0, self.t_end - self.t_start)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span":
        """First descendant (or self) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        raise KeyError(f"no span named {name!r} under {self.name!r}")


class _SpanCtx:
    """Context manager opening/closing one span on a tracer's stack."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        tr = self._tracer
        if tr._stack:
            tr._stack[-1].children.append(self._span)
        else:
            tr.roots.append(self._span)
        tr._stack.append(self._span)
        self._span.t_start = tr._clock()
        return self._span

    def __exit__(self, *exc) -> bool:
        self._span.t_end = self._tracer._clock()
        self._tracer._stack.pop()
        return False


class Tracer:
    """Collects a forest of spans; see the module docstring."""

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    # -- recording -----------------------------------------------------------
    def span(self, name: str, /, kind: str = "", **attrs) -> _SpanCtx:
        """Open a child span of the current span (or a new root).

        The span name is positional-only: ``name`` is also a legitimate
        attribute (a ``scalar_assign`` op carries ``attrs["name"]``)."""
        return _SpanCtx(self, Span(name=name, kind=kind, attrs=attrs))

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    # -- queries -------------------------------------------------------------
    def spans(self) -> Iterator[Span]:
        """All recorded spans, depth-first preorder across roots."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> Span:
        """First span with the given name anywhere in the forest."""
        for span in self.spans():
            if span.name == name:
                return span
        raise KeyError(f"no span named {name!r}")

    # -- JSONL export / import ----------------------------------------------
    def iter_with_ids(self) -> Iterator[tuple[Span, str, "str | None"]]:
        """Depth-first ``(span, stable_id, parent_id)`` triples.

        The stable id is the parent's id plus ``/name#ordinal`` (ordinal
        = number of earlier same-named siblings), so identical trees get
        identical ids regardless of wall-clock timings.
        """
        def walk(spans: list[Span], parent_id: "str | None"):
            seen: dict[str, int] = {}
            for span in spans:
                ordinal = seen.get(span.name, 0)
                seen[span.name] = ordinal + 1
                sid = f"{span.name}#{ordinal}" if parent_id is None else \
                    f"{parent_id}/{span.name}#{ordinal}"
                yield span, sid, parent_id
                yield from walk(span.children, sid)

        yield from walk(self.roots, None)

    def events(self) -> list[dict]:
        """Flat event list: header plus one record per span."""
        out: list[dict] = [dict(TRACE_SCHEMA)]
        for span, sid, parent in self.iter_with_ids():
            out.append({
                "type": "span", "id": sid, "parent": parent,
                "name": span.name, "kind": span.kind,
                "start": span.t_start, "end": span.t_end,
                "dur": span.duration,
                "attrs": span.attrs,
            })
        return out

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(e, sort_keys=True)
                         for e in self.events()) + "\n"

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_jsonl())

    @classmethod
    def from_jsonl(cls, text: str) -> "Tracer":
        """Rebuild a (closed) trace forest from JSONL text; a malformed
        line raises :class:`ValueError` naming its line number."""
        tracer = cls()
        by_id: dict[object, Span] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
                if not isinstance(event, dict):
                    raise TypeError(f"{type(event).__name__}, not an object")
                if event.get("type") == "trace":
                    if event.get("version") not in _READABLE_VERSIONS:
                        raise ValueError(f"unsupported trace version "
                                         f"{event.get('version')}")
                    continue
                if event.get("type") != "span":
                    continue
                # a v1/v2 span's counters are attributes now
                attrs = {**event.get("attrs", {}), **event.get("counters", {})}
                parent = event.get("parent")
                span = Span(name=event["name"], kind=event.get("kind", ""),
                            attrs=attrs, t_start=float(event["start"]),
                            t_end=float(event["end"]))
                (tracer.roots if parent is None
                 else by_id[parent].children).append(span)
                by_id[event["id"]] = span
            except (KeyError, TypeError, ValueError) as exc:
                why = (f"no {exc} (a span needs an id, a name, a start, an "
                       f"end, and a parent that an earlier line defined)"
                       if isinstance(exc, KeyError) else
                       # a JSON error's line and column count this line
                       f"{exc.msg} at column {exc.colno}"
                       if isinstance(exc, json.JSONDecodeError) else exc)
                raise ValueError(f"line {lineno}: {why}") from None
        return tracer

    # -- rendering -----------------------------------------------------------
    def summary(self) -> str:
        """Human-readable tree: durations and attrs."""
        lines: list[str] = []

        def fmt(span: Span, indent: int) -> None:
            pad = "  " * indent
            attrs = " ".join(f"{k}={v}" for k, v in span.attrs.items())
            line = f"{pad}{span.name}  [{span.duration * 1e3:.3f} ms]"
            if attrs:
                line += f"  {attrs}"
            lines.append(line)
            for child in span.children:
                fmt(child, indent + 1)

        for root in self.roots:
            fmt(root, 0)
        return "\n".join(lines)


class _NullSpan:
    """Shared do-nothing span/context-manager for the disabled tracer."""

    __slots__ = ()
    name = kind = ""
    #: read-only: a write not guarded by ``tracer.enabled`` raises here
    #: instead of leaking into every other untraced span
    attrs = MappingProxyType({})
    children: tuple = ()
    t_start = t_end = 0.0
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer(Tracer):
    """Disabled tracer: records nothing, allocates nothing per call.

    ``span()`` hands back one shared context manager, and ``enabled`` is
    ``False`` so instrumented hot loops can skip span bookkeeping
    entirely — the zero-overhead-by-default contract.
    """

    enabled = False

    def span(self, name: str, /, kind: str = "", **attrs) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN


#: Module-level disabled tracer; instrumented entry points use this when
#: the caller passes ``tracer=None``.
NULL_TRACER = NullTracer()


def coalesce(tracer: "Tracer | None") -> Tracer:
    """The given tracer, or the shared no-op tracer."""
    return tracer if tracer is not None else NULL_TRACER
