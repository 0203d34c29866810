"""Request handlers and shared service state.

One :class:`ServiceState` per server holds the pieces every request
shares: its :mod:`repro.store` tiers (the tiered plan cache — in-memory
LRU over an optional machine-agnostic disk tier — the per-user native
kernel directory of :mod:`repro.runtime.native`, and the plan documents
``GET /plan/<key>`` serves), the
:class:`~repro.service.coalescer.Coalescer` that folds identical
in-flight compilations onto one future, the bounded
:class:`~repro.service.pool.WorkerPool`, the service-wide
:class:`~repro.obs.metrics.MetricsRegistry` that ``GET /metrics``
exposes, and the optional :class:`~repro.obs.ledger.RunLedger`.

Isolation contract: each job runs on a pool thread under its *own*
context-local metrics registry (``use_registry``), so concurrent jobs
never interleave series and the per-run metrics document a ``/run``
response embeds describes exactly that run.  The service-wide registry
receives only the ``repro_service_*`` series, published directly
through handles — plus cache-counter gauges refreshed from each
cache's own thread-safe :class:`~repro.obs.metrics.CacheStats` at
scrape time.

Handlers return :class:`Response` objects; the HTTP framing lives in
:mod:`repro.service.app`.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.job import CompileJob, RunJob, plan_document, report_doc
from repro.service.coalescer import Coalescer
from repro.service.pool import WorkerPool
from repro.service.schemas import (
    JobError, SERVICE_SCHEMA, parse_compile_job, parse_run_job,
)

#: Fingerprint ledger records carry for machine-less (compile-only)
#: requests.
COMPILE_FINGERPRINT = "service:compile"

#: Plan documents kept addressable via ``GET /plan/<key>`` (each is
#: stored under both its cache key and its content sha).
MAX_PLAN_DOCS = 256


@dataclass
class Response:
    """One HTTP response, ready for framing."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict = field(default_factory=dict)

    @classmethod
    def json(cls, doc: dict, status: int = 200,
             **headers) -> "Response":
        doc = {"schema": dict(SERVICE_SCHEMA), **doc}
        return cls(status=status, headers=headers,
                   body=(json.dumps(doc, sort_keys=True) + "\n")
                   .encode())

    @classmethod
    def error(cls, status: int, message: str, **headers) -> "Response":
        return cls.json({"kind": "error", "error": message},
                        status=status, **headers)


class ServiceState:
    """Everything one server instance shares across requests."""

    def __init__(self, cache_dir: "str | None" = None,
                 ledger_path: "str | None" = None,
                 pool: "WorkerPool | None" = None,
                 plan_cache_size: int = 128) -> None:
        from repro.compiler import (
            PersistentPlanCache, PlanCache, TieredPlanCache,
        )
        from repro.obs import RunLedger
        from repro.obs.metrics import MetricsRegistry
        from repro.runtime.native import kernel_store
        from repro.store import MemoryStore

        memory, disk = PlanCache(plan_cache_size), None
        #: every cache tier this server reads or fills, by what it
        #: holds; /healthz, /metrics and /cache/evict walk this one list
        #: (/cache/evict leaves the per-user native kernel directory to
        #: the other processes that share it)
        self.stores = {"plans": [memory], "native": [kernel_store()]}
        if cache_dir:
            # machine-agnostic on purpose: the service caches symbolic
            # plans, and both tiers must derive identical keys
            disk = PersistentPlanCache(Path(cache_dir) / "plans",
                                       machine_fingerprint="")
            self.stores["plans"].append(disk)
        self.plan_cache = TieredPlanCache(memory, disk)
        self.ledger = RunLedger(ledger_path) if ledger_path else None
        self.coalescer = Coalescer()
        self.pool = pool or WorkerPool()
        #: dropped with the plans, but not a reported tier
        self.plan_docs = MemoryStore(MAX_PLAN_DOCS, label="plan-docs")

        self.registry = MetricsRegistry()
        self.requests_total = self.registry.counter(
            "repro_service_requests_total",
            help="Requests served, by route, method, and status.")
        self.coalesced_total = self.registry.counter(
            "repro_service_coalesced_total",
            help="Compilations by coalescing role: a leader ran the "
                 "compiler, a follower reused an in-flight leader's "
                 "future.")
        self.rejected_total = self.registry.counter(
            "repro_service_rejected_total",
            help="Jobs shed by admission control (HTTP 429).")
        self.inflight = self.registry.gauge(
            "repro_service_inflight_requests",
            help="Requests currently being handled.")
        self.job_seconds = self.registry.histogram(
            "repro_service_job_seconds",
            help="Wall-clock seconds per job, by kind.")
        self.cache_events = self.registry.gauge(
            "repro_service_cache_events",
            help="Cumulative cache counters (hits, misses, ...), by "
                 "cache label; refreshed at scrape time.")

    # -- cache stats --------------------------------------------------------
    def cache_stats(self) -> dict[str, dict[str, float]]:
        """Counter snapshots of every cache tier, by label."""
        return {s.stats.label: s.stats.as_dict()
                for tiers in self.stores.values() for s in tiers}

    def refresh_cache_gauges(self) -> None:
        for label, snapshot in self.cache_stats().items():
            for event, value in snapshot.items():
                self.cache_events.set(value, cache=label, event=event)

    def close(self) -> None:
        self.pool.shutdown()


# -- shared compile path ----------------------------------------------------

def _compile_sync(state: ServiceState, job: CompileJob):
    """Pool-thread compilation under a private metrics context."""
    from repro.obs import metrics as obs_metrics

    with obs_metrics.use_registry():
        compiled = job.compile(cache=state.plan_cache)
    return (compiled, *plan_document(compiled))


async def _compile_shared(state: ServiceState, job: CompileJob):
    """Compile once per identical in-flight request.

    The coalesce key is the plan-cache key, so the dedup horizon is
    exactly the cache's: requests that would hit the same cache entry
    share the same leader.  Returns
    ``(key, compiled, plan_key, coalesced)``.
    """
    key = job.cache_key(state.plan_cache)

    async def factory():
        return await state.pool.submit(
            lambda: _compile_sync(state, job))

    (compiled, text, plan_key), coalesced = \
        await state.coalescer.run(key, factory)
    state.coalesced_total.inc(
        role="follower" if coalesced else "leader")
    for alias in (key, plan_key):
        state.plan_docs.put(alias, text)
    return key, compiled, plan_key, coalesced


# -- handlers ---------------------------------------------------------------

async def handle_compile(state: ServiceState, doc: object) -> Response:
    job = parse_compile_job(doc)
    key, compiled, plan_key, coalesced = \
        await _compile_shared(state, job)
    out = {
        "kind": "compile", "key": key, "plan_key": plan_key,
        "coalesced": coalesced, "kernel": job.kernel,
        "report": report_doc(compiled), "plan_url": f"/plan/{key}",
    }
    if job.include_plan:
        out["plan"] = json.loads(state.plan_docs.get(key))
    if state.ledger is not None:
        state.ledger.append(
            fingerprint=COMPILE_FINGERPRINT, plan_key=plan_key,
            backend="", factors={"level": job.level},
            extra={"route": "/compile", "kernel": job.kernel or "",
                   "coalesced": coalesced})
    return Response.json(out)


def _run_sync(state: ServiceState, job: RunJob, compiled,
              plan_key: str):
    """Pool-thread execution: the job's own
    :meth:`~repro.job.RunJob.execute` under a private metrics registry,
    then the ledger append."""
    from repro.obs import metrics as obs_metrics

    machine = job.machine.build()
    with obs_metrics.use_registry() as registry:
        result = job.execute(compiled, machine)
    if state.ledger is not None:
        job.ledger_append(state.ledger, machine, plan_key,
                          registry.to_dict(), route="/run",
                          kernel=job.compile.kernel or "")
    return result, registry


def _array_doc(arr, mode: str) -> dict:
    import numpy as np

    entry = {"shape": list(arr.shape), "dtype": str(arr.dtype),
             "checksum": float(np.abs(arr).sum())}
    if mode in ("digest", "full"):
        entry["sha256"] = hashlib.sha256(arr.tobytes()).hexdigest()
    if mode == "full":
        entry["data"] = base64.b64encode(arr.tobytes()).decode()
    return entry


async def handle_run(state: ServiceState, doc: object) -> Response:
    job = parse_run_job(doc)
    key, compiled, plan_key, coalesced = \
        await _compile_shared(state, job.compile)
    result, registry = await state.pool.submit(
        lambda: _run_sync(state, job, compiled, plan_key))
    out = {
        "kind": "run", "key": key, "plan_key": plan_key,
        "coalesced": coalesced, "kernel": job.compile.kernel,
        "backend": job.backend, "iterations": job.iterations,
        "seed": job.seed, "report": report_doc(compiled),
        "summary": result.summary(),
        "scalars": {k: float(v)
                    for k, v in sorted(result.scalars.items())},
        "metrics": registry.to_dict(), "plan_url": f"/plan/{key}",
    }
    if job.arrays != "none":
        out["arrays"] = {name: _array_doc(arr, job.arrays)
                         for name, arr in sorted(result.arrays.items())}
    if job.profile and result.profile is not None:
        from repro.obs import profile_to_json
        out["profile"] = json.loads(profile_to_json(result.profile))
    return Response.json(out)


async def handle_plan(state: ServiceState, key: str) -> Response:
    text = state.plan_docs.get(key)
    if text is None:
        return Response.error(
            404, f"no plan under key {key!r}; compile it first")
    # the exact bytes of plan_to_json — the PLAN_SCHEMA_VERSION'd
    # document, reused verbatim
    return Response(body=text.encode())


async def handle_metrics(state: ServiceState) -> Response:
    from repro.obs import prometheus_text
    state.refresh_cache_gauges()
    return Response(
        body=prometheus_text(state.registry).encode(),
        content_type="text/plain; version=0.0.4; charset=utf-8")


async def handle_healthz(state: ServiceState) -> Response:
    return Response.json({
        "kind": "healthz", "status": "ok",
        "pending_jobs": state.pool.pending,
        "max_pending": state.pool.max_pending,
        "inflight_compiles": len(state.coalescer),
        "coalesced": {"leaders": state.coalescer.leaders,
                      "followers": state.coalescer.followers},
        "caches": state.cache_stats(),
        # explicit None test: an empty RunLedger is falsy (__len__)
        "ledger": str(state.ledger.path)
        if state.ledger is not None else None,
    })


async def handle_cache_warm(state: ServiceState, doc: object) -> Response:
    if isinstance(doc, dict) and "jobs" in doc:
        if set(doc) != {"jobs"} or not isinstance(doc["jobs"], list):
            raise JobError("warm body must be a job object or "
                           "{'jobs': [job, ...]}")
        jobs = doc["jobs"]
    else:
        jobs = [doc]
    warmed = []
    for raw in jobs:
        job = parse_compile_job(raw)
        key, _, plan_key, coalesced = await _compile_shared(state, job)
        warmed.append({"key": key, "plan_key": plan_key,
                       "kernel": job.kernel, "coalesced": coalesced})
    return Response.json({"kind": "cache-warm", "warmed": warmed})


async def handle_cache_evict(state: ServiceState,
                             doc: object) -> Response:
    if not isinstance(doc, dict) or \
            ("key" in doc) == (doc.get("all") is True) or \
            not set(doc) <= {"key", "all"}:
        raise JobError(
            "evict body must be {'key': <cache key>} or {'all': true}")
    key = doc.get("key")
    if "key" in doc:
        from repro.store import check_key
        try:
            check_key(key)
        except ValueError as exc:
            raise JobError(f"field 'key': {exc}") from None
    state.plan_docs.invalidate(key)
    counts = {s.stats.label: s.invalidate(key)
              for s in state.stores["plans"]}
    return Response.json({"kind": "cache-evict", "dropped": {
        "plans": sum(counts.values()), "tiers": counts}})
