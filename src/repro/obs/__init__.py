"""Observability: tracing, metrics, and communication profiling.

See :mod:`repro.obs.tracer` for the span model (time and attributes)
and the JSONL schema, :mod:`repro.obs.profile` for the communication
profiler (per-PE comm matrices, phase timelines, cost-model validation;
each op's cost read off the charges it replays),
:mod:`repro.obs.metrics` for the labeled metrics registry (counters,
gauges, histograms; null by default), :mod:`repro.obs.ledger` for the
per-machine JSONL run ledger, and :mod:`repro.obs.export` for the
Chrome-trace, profile.json, metrics JSON, and Prometheus exporters.
A run's costs live on its reports, its times on its spans, and the
registry counts across runs.
README sections "Tracing and metrics", "Profiling", and "Metrics &
run ledger" cover usage.
"""

from repro.obs.export import (  # noqa: F401
    PROFILE_SCHEMA, chrome_trace, metrics_to_json, profile_from_json,
    profile_to_json, prometheus_text, read_profile, write_chrome_trace,
    write_metrics, write_profile, write_prometheus,
)
from repro.obs.ledger import LEDGER_SCHEMA, RunLedger  # noqa: F401
from repro.obs.metrics import (  # noqa: F401
    CacheStats, Counter, Gauge, Histogram, METRICS_SCHEMA,
    MetricsRegistry, NULL_REGISTRY, NullRegistry, TIME_BUCKETS,
    get_registry, use_registry,
)
from repro.obs.profile import (  # noqa: F401
    CommProfile, MATRIX_CLASSES, PHASES, ProfileCollector,
)
from repro.obs.tracer import (  # noqa: F401
    NULL_TRACER, NullTracer, Span, TRACE_SCHEMA, Tracer, coalesce,
)
