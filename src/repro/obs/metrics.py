"""Process-wide metrics registry: counters, gauges, histograms.

The obs layer's third leg next to the tracer (wall-clock spans) and the
comm profiler (modelled-time attribution): a labeled metric registry
every subsystem publishes into — compiler phase timings, plan and
native-kernel cache events, native kernel builds, per-backend nest wall
clock, and the parallel backend's worker and stripe series.

Design contract (mirrors :class:`~repro.obs.tracer.NullTracer`):

* **Zero overhead when disabled.**  The process default is
  :data:`NULL_REGISTRY`, whose ``enabled`` flag is ``False`` and whose
  metric handles are one shared no-op object.  Instrumented hot paths
  check ``registry.enabled`` once (or cache a handle of ``None``) and
  skip all bookkeeping; nothing allocates, nothing locks.
* **Deterministic vs wall-clock split.**  Every metric is tagged
  ``deterministic`` (its value is a pure function of the program, not
  of the clock) and, stronger, ``invariant`` (deterministic *and*
  required to be bitwise-identical across all execution backends —
  the modelled/count series :func:`repro.testing.
  backend_equivalence_check` compares).  Wall-clock series are
  ``deterministic=False`` and never participate in equivalence.
* **Versioned export.**  :meth:`MetricsRegistry.to_dict` emits the
  :data:`METRICS_SCHEMA` JSON document; :func:`registry_from_dict` is
  its exact inverse.  The Prometheus text exposition lives in
  :mod:`repro.obs.export`.

* **Context-scoped installs.**  :func:`use_registry` — the one way to
  install a registry — scopes it through a
  :class:`contextvars.ContextVar`, so concurrent asyncio tasks and
  threads (the service's request handlers) each see their own
  registry and can never cross-publish series.  Contexts without an
  install see :data:`NULL_REGISTRY`::

    from repro.obs import metrics
    with metrics.use_registry() as reg:
        compiled = compile_hpf(src, bindings={"N": 64}, cache=True)
        compiled.run(machine)
    print(reg.to_dict())
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

#: Header object of every metrics JSON document.
METRICS_SCHEMA = {"type": "metrics", "version": 1}

#: Versions :func:`registry_from_dict` understands.
_READABLE_METRICS_VERSIONS = (1,)

#: Default histogram buckets for wall-clock seconds (upper bounds; a
#: +Inf bucket is always implicit).
TIME_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

LabelKey = tuple[tuple[str, str], ...]


def label_key(labels: dict) -> LabelKey:
    """Canonical, hashable form of a label set (sorted name order)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_labels(key: LabelKey) -> str:
    """Prometheus-style rendering of a canonical label key."""
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class Metric:
    """One named metric family; per-label-set values live inside it."""

    kind = "untyped"

    def __init__(self, name: str, help: str, deterministic: bool,
                 invariant: bool, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self.deterministic = deterministic
        self.invariant = invariant
        self._lock = lock
        self._values: dict[LabelKey, object] = {}

    def samples(self) -> list[tuple[LabelKey, object]]:
        """``(label_key, value)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._values.items())

    def value(self, **labels) -> object | None:
        """The current value under one exact label set (``None`` if the
        series was never touched)."""
        with self._lock:
            return self._values.get(label_key(labels))


class Counter(Metric):
    """Monotonically increasing sum."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels) -> None:
        if value < 0:
            raise ValueError(
                f"counter {self.name} cannot decrease (inc {value})")
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge(Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._values[label_key(labels)] = float(value)

    def inc(self, value: float = 1.0, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value


class Histogram(Metric):
    """Fixed-bucket histogram: per-bucket counts plus sum and count.

    ``buckets`` are finite, strictly increasing upper bounds; the
    implicit +Inf bucket catches the rest.  Values per label set are
    ``{"counts": [...], "sum": float, "count": int}`` with
    *non-cumulative* per-bucket counts (exporters cumulate).
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, deterministic: bool,
                 invariant: bool, lock: threading.Lock,
                 buckets: tuple[float, ...]) -> None:
        super().__init__(name, help, deterministic, invariant, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2
                             in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name} buckets must be non-empty and "
                f"strictly increasing, got {buckets!r}")
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        key = label_key(labels)
        with self._lock:
            state = self._values.get(key)
            if state is None:
                state = {"counts": [0] * (len(self.buckets) + 1),
                         "sum": 0.0, "count": 0}
                self._values[key] = state
            idx = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            state["counts"][idx] += 1
            state["sum"] += float(value)
            state["count"] += 1


_METRIC_CLASSES = {"counter": Counter, "gauge": Gauge,
                   "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe labeled metric registry.

    Registration is idempotent: asking for an existing name returns the
    existing family (the first registration's help text and flags win),
    but a kind or bucket mismatch is a caller bug and raises.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    # -- registration -------------------------------------------------------
    def counter(self, name: str, help: str = "",
                deterministic: bool = True,
                invariant: bool = False) -> Counter:
        return self._register(Counter, name, help, deterministic,
                              invariant)

    def gauge(self, name: str, help: str = "",
              deterministic: bool = True,
              invariant: bool = False) -> Gauge:
        return self._register(Gauge, name, help, deterministic,
                              invariant)

    def histogram(self, name: str,
                  buckets: tuple[float, ...] = TIME_BUCKETS,
                  help: str = "", deterministic: bool = True,
                  invariant: bool = False) -> Histogram:
        metric = self._register(Histogram, name, help, deterministic,
                                invariant, buckets=buckets)
        if metric.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"metric {name} re-registered with different buckets: "
                f"{metric.buckets!r} vs {tuple(buckets)!r}")
        return metric

    def _register(self, cls, name, help, deterministic, invariant,
                  **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name} already registered as "
                        f"{existing.kind}, not {cls.kind}")
                return existing
            metric = cls(name, help, deterministic, invariant,
                         threading.Lock(), **kwargs)
            self._metrics[name] = metric
            return metric

    # -- introspection ------------------------------------------------------
    def metrics(self) -> list[Metric]:
        """Registered families sorted by name."""
        with self._lock:
            return [self._metrics[n] for n in sorted(self._metrics)]

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- export -------------------------------------------------------------
    def to_dict(self) -> dict:
        """The versioned :data:`METRICS_SCHEMA` document (plain JSON
        types only)."""
        doc = dict(METRICS_SCHEMA)
        out = []
        for metric in self.metrics():
            entry: dict = {
                "name": metric.name, "kind": metric.kind,
                "help": metric.help,
                "deterministic": metric.deterministic,
                "invariant": metric.invariant,
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            samples = []
            for key, value in metric.samples():
                sample: dict = {"labels": {k: v for k, v in key}}
                if isinstance(metric, Histogram):
                    sample["counts"] = list(value["counts"])
                    sample["sum"] = value["sum"]
                    sample["count"] = value["count"]
                else:
                    sample["value"] = value
                samples.append(sample)
            entry["samples"] = samples
            out.append(entry)
        doc["metrics"] = out
        return doc

    def invariant_snapshot(self) -> dict[str, dict[str, object]]:
        """Every backend-invariant series, keyed ``name -> rendered
        labels -> value`` — the object the equivalence suite compares
        bitwise across backends."""
        snap: dict[str, dict[str, object]] = {}
        for metric in self.metrics():
            if not metric.invariant:
                continue
            series: dict[str, object] = {}
            for key, value in metric.samples():
                if isinstance(metric, Histogram):
                    series[format_labels(key)] = (
                        tuple(value["counts"]), value["sum"],
                        value["count"])
                else:
                    series[format_labels(key)] = value
            snap[metric.name] = series
        return snap


def registry_from_dict(doc: dict) -> MetricsRegistry:
    """Rebuild a registry from its :meth:`MetricsRegistry.to_dict`
    document (exact inverse: ``rebuilt.to_dict() == doc``)."""
    if doc.get("type") != METRICS_SCHEMA["type"]:
        raise ValueError(
            f"not a metrics document: type={doc.get('type')!r}")
    if doc.get("version") not in _READABLE_METRICS_VERSIONS:
        raise ValueError(
            f"unsupported metrics version {doc.get('version')!r}")
    reg = MetricsRegistry()
    for entry in doc.get("metrics", []):
        kind = entry.get("kind")
        if kind == "histogram":
            metric = reg.histogram(entry["name"],
                                   buckets=tuple(entry["buckets"]),
                                   help=entry.get("help", ""),
                                   deterministic=entry["deterministic"],
                                   invariant=entry["invariant"])
        elif kind in _METRIC_CLASSES:
            metric = reg._register(_METRIC_CLASSES[kind], entry["name"],
                                   entry.get("help", ""),
                                   entry["deterministic"],
                                   entry["invariant"])
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        for sample in entry.get("samples", []):
            key = label_key(sample.get("labels", {}))
            if kind == "histogram":
                metric._values[key] = {
                    "counts": list(sample["counts"]),
                    "sum": sample["sum"], "count": sample["count"]}
            else:
                metric._values[key] = sample["value"]
    return reg


# ---------------------------------------------------------------------------
# the null registry (zero-overhead default)
# ---------------------------------------------------------------------------

class _NullMetric:
    """Shared do-nothing metric handle (every kind's API)."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """Do-nothing registry installed by default.

    ``enabled`` is ``False`` so instrumented hot loops skip their
    bookkeeping entirely; every registration returns the single shared
    no-op metric, so even unconditional call sites stay allocation-free.
    """

    enabled = False

    def counter(self, name: str, help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str, help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def histogram(self, name: str, buckets=TIME_BUCKETS,
                  help: str = "", **kwargs) -> _NullMetric:
        return _NULL_METRIC

    def metrics(self) -> list:
        return []

    def get(self, name: str) -> None:
        return None

    def clear(self) -> None:
        pass

    def to_dict(self) -> dict:
        doc = dict(METRICS_SCHEMA)
        doc["metrics"] = []
        return doc

    def invariant_snapshot(self) -> dict:
        return {}


#: What contexts without an install see: metrics are opt-in.
NULL_REGISTRY = NullRegistry()

#: Context-local registry scope: a ``ContextVar`` confines an install to
#: the current asyncio task or thread, so concurrent requests' registries
#: are invisible to each other (a module global would cross-publish).
_ACTIVE_VAR: "ContextVar[MetricsRegistry | NullRegistry]" = \
    ContextVar("repro_metrics_registry", default=NULL_REGISTRY)


def get_registry() -> "MetricsRegistry | NullRegistry":
    """The registry installed in the current context (never ``None``)."""
    return _ACTIVE_VAR.get()


@contextmanager
def use_registry(registry: "MetricsRegistry | None" = None):
    """Scoped install: a fresh :class:`MetricsRegistry` (or the given
    one) for the block, the previous registry restored after.

    The scope is context-local (:mod:`contextvars`): other asyncio
    tasks and threads never observe it, so concurrent scopes cannot
    cross-publish each other's series.
    """
    reg = registry if registry is not None else MetricsRegistry()
    token = _ACTIVE_VAR.set(reg)
    try:
        yield reg
    finally:
        _ACTIVE_VAR.reset(token)


# ---------------------------------------------------------------------------
# shared cache statistics
# ---------------------------------------------------------------------------

#: ``CacheStats.record`` event name -> counter field.
CACHE_EVENT_FIELDS = {
    "hit": "hits",
    "miss": "misses",
    "invalidation": "invalidations",
    "eviction": "evictions",
    "pruned": "pruned",
    "tmp_swept": "tmp_swept",
}


@dataclass
class CacheStats:
    """Shared counters of every cache layer (plan memory/disk, kernel
    memory/disk).

    ``label`` names the cache for the metrics registry; bumping through
    :meth:`record` both updates the local field and publishes a
    ``repro_cache_events_total{cache=...,event=...}`` increment when a
    live registry is installed.  :meth:`snapshot` is the one shared
    schema every cache exposes — identical keys everywhere.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    pruned: int = 0
    tmp_swept: int = 0
    label: str = ""

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def record(self, event: str, n: int = 1) -> None:
        """Count ``n`` occurrences of ``event`` (a
        :data:`CACHE_EVENT_FIELDS` key) and publish to the installed
        registry."""
        if not n:
            return
        field = CACHE_EVENT_FIELDS[event]
        setattr(self, field, getattr(self, field) + n)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_cache_events_total",
                help="Cache events by cache layer and event kind.",
            ).inc(n, cache=self.label or "unlabeled", event=event)

    def as_dict(self) -> dict[str, float]:
        return {**{name: float(getattr(self, name))
                   for name in CACHE_EVENT_FIELDS.values()},
                "hit_rate": self.hit_rate}

    def snapshot(self) -> dict[str, object]:
        """The unified cache-stats snapshot: ``{"cache": label}`` plus
        the :meth:`as_dict` counters — same keys for every cache
        layer."""
        return {"cache": self.label or "unlabeled", **self.as_dict()}
