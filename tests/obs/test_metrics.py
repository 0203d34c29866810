"""Metrics-registry tests: counter/gauge/histogram semantics, the
zero-overhead null default, scoped installation, JSON and Prometheus
exports, the invariant snapshot, and the shared CacheStats schema."""

import json
import threading

import pytest

from repro.obs import metrics as m
from repro.obs.export import (
    metrics_from_json, metrics_to_json, prometheus_text,
)
from repro.obs.metrics import (
    CacheStats, MetricsRegistry, NULL_REGISTRY, format_labels,
    label_key, registry_from_dict, use_registry,
)


class TestCounter:
    def test_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labeled_series_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("events_total")
        c.inc(kind="a")
        c.inc(3, kind="b")
        assert c.value(kind="a") == 1.0
        assert c.value(kind="b") == 3.0
        assert c.value(kind="c") is None

    def test_negative_inc_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="cannot decrease"):
            reg.counter("x_total").inc(-1)

    def test_label_order_canonical(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(b="2", a="1") == 2.0
        assert len(c.samples()) == 1


class TestGauge:
    def test_set_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("temp")
        g.set(1.0)
        g.set(-7.5)
        assert g.value() == -7.5

    def test_inc_allows_negative(self):
        reg = MetricsRegistry()
        g = reg.gauge("delta")
        g.inc(2)
        g.inc(-5)
        assert g.value() == -3.0


class TestHistogram:
    def test_bucketing(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        state = h.value()
        assert state["counts"] == [1, 2, 1]  # <=0.1, <=1.0, +Inf
        assert state["count"] == 4
        assert state["sum"] == pytest.approx(6.05)

    def test_boundary_is_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0,))
        h.observe(1.0)
        assert h.value()["counts"] == [1, 0]

    def test_bad_buckets_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            reg.histogram("h2", buckets=())

    def test_reregister_same_buckets_ok_mismatch_raises(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("h", buckets=(1.0, 2.0))
        assert reg.histogram("h", buckets=(1.0, 2.0)) is h1
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("h", buckets=(1.0, 3.0))


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        a = reg.counter("c", help="first")
        b = reg.counter("c", help="ignored")
        assert a is b
        assert a.help == "first"

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_metrics_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.gauge("aa")
        assert [x.name for x in reg.metrics()] == ["aa", "zz"]

    def test_thread_safety(self):
        reg = MetricsRegistry()
        c = reg.counter("n")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 4000.0


class TestNullRegistry:
    def test_disabled_and_noop(self):
        assert NULL_REGISTRY.enabled is False
        h = NULL_REGISTRY.histogram("x")
        h.observe(1.0, a="b")
        NULL_REGISTRY.counter("y").inc(5)
        NULL_REGISTRY.gauge("z").set(2)
        assert NULL_REGISTRY.metrics() == []
        assert NULL_REGISTRY.to_dict()["metrics"] == []
        assert NULL_REGISTRY.invariant_snapshot() == {}

    def test_shared_handle(self):
        # all registrations return one shared object: no allocation in
        # instrumented hot paths when metrics are off
        assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.gauge("b")

    def test_default_active(self):
        assert m.get_registry() is NULL_REGISTRY


class TestUseRegistry:
    def test_installs_and_restores(self):
        before = m.get_registry()
        with use_registry() as reg:
            assert m.get_registry() is reg
            assert reg.enabled
        assert m.get_registry() is before

    def test_restores_on_exception(self):
        before = m.get_registry()
        with pytest.raises(RuntimeError):
            with use_registry():
                raise RuntimeError("boom")
        assert m.get_registry() is before

    def test_explicit_registry(self):
        mine = MetricsRegistry()
        with use_registry(mine) as reg:
            assert reg is mine


class TestContextScoping:
    """Regression suite for the module-global ``_ACTIVE`` bug: one
    task/thread's ``use_registry()`` used to swap the registry for every
    other in-flight task, cross-publishing concurrent requests'
    series."""

    def test_two_task_divergence(self):
        """Two interleaved asyncio tasks each keep their own registry.

        Pre-fix this failed: task B's install leaked into task A across
        the ``await``, so A's second increment landed in B's registry.
        """
        import asyncio

        async def request(name: str, release: asyncio.Event,
                          ready: asyncio.Event) -> MetricsRegistry:
            with use_registry() as reg:
                m.get_registry().counter("req_ops").inc(task=name)
                ready.set()
                await release.wait()  # the other task installs here
                m.get_registry().counter("req_ops").inc(task=name)
            return reg

        async def scenario():
            release_a = asyncio.Event()
            ready_a = asyncio.Event()
            release_b = asyncio.Event()
            ready_b = asyncio.Event()
            task_a = asyncio.ensure_future(
                request("a", release_a, ready_a))
            await ready_a.wait()
            task_b = asyncio.ensure_future(
                request("b", release_b, ready_b))
            await ready_b.wait()
            release_a.set()
            release_b.set()
            return await asyncio.gather(task_a, task_b)

        reg_a, reg_b = asyncio.run(scenario())
        assert reg_a is not reg_b
        ops_a = reg_a.get("req_ops")
        ops_b = reg_b.get("req_ops")
        assert ops_a.value(task="a") == 2.0
        assert ops_a.value(task="b") is None, \
            "task b's series leaked into task a's registry"
        assert ops_b.value(task="b") == 2.0
        assert ops_b.value(task="a") is None, \
            "task a's series leaked into task b's registry"

    def test_two_thread_divergence(self):
        """Worker-pool threads with their own scopes never cross-talk."""
        import threading

        barrier = threading.Barrier(2, timeout=10.0)
        regs: dict[str, MetricsRegistry] = {}

        def request(name: str) -> None:
            with use_registry() as reg:
                regs[name] = reg
                barrier.wait()  # both scopes now active concurrently
                m.get_registry().counter("req_ops").inc(task=name)
                barrier.wait()

        threads = [threading.Thread(target=request, args=(n,))
                   for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert regs["a"].get("req_ops").value(task="a") == 1.0
        assert regs["a"].get("req_ops").value(task="b") is None
        assert regs["b"].get("req_ops").value(task="b") == 1.0
        assert regs["b"].get("req_ops").value(task="a") is None

    def test_fresh_thread_sees_process_default(self):
        """A scope in one thread is invisible to a new thread, which
        falls back to the process default (the CLI contract)."""
        import threading

        seen = {}

        def probe():
            seen["registry"] = m.get_registry()

        with use_registry():
            t = threading.Thread(target=probe)
            t.start()
            t.join()
        assert seen["registry"] is NULL_REGISTRY

    def test_cache_stats_publish_context_local(self):
        """CacheStats.record publishes into the context-local registry,
        not a process global."""
        stats = CacheStats(label="plan-memory")
        with use_registry() as reg:
            stats.record("hit")
        events = reg.get("repro_cache_events_total")
        assert events.value(cache="plan-memory", event="hit") == 1.0


class TestJsonExport:
    def build(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", help="a counter", invariant=True)
        c.inc(2, kind="x")
        g = reg.gauge("g", deterministic=False)
        g.set(1.5, pe="0")
        h = reg.histogram("h_seconds", buckets=(0.1, 1.0),
                          deterministic=False)
        h.observe(0.05, phase="parse")
        h.observe(2.0, phase="parse")
        return reg

    def test_round_trip_exact(self):
        reg = self.build()
        doc = reg.to_dict()
        assert doc["type"] == "metrics" and doc["version"] == 1
        revived = registry_from_dict(doc)
        assert revived.to_dict() == doc
        # through the JSON text layer too
        text = metrics_to_json(reg)
        assert metrics_to_json(metrics_from_json(text)) == text
        assert json.loads(text) == doc

    def test_flags_survive(self):
        revived = registry_from_dict(self.build().to_dict())
        assert revived.get("c_total").invariant
        assert not revived.get("g").deterministic
        assert revived.get("h_seconds").buckets == (0.1, 1.0)

    def test_rejects_wrong_type_and_version(self):
        with pytest.raises(ValueError, match="not a metrics"):
            registry_from_dict({"type": "run", "version": 1})
        with pytest.raises(ValueError, match="unsupported"):
            registry_from_dict({"type": "metrics", "version": 99})


class TestPrometheusText:
    def test_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("c_total", help="help text").inc(3, kind="x")
        reg.gauge("wall", deterministic=False).set(1.5)
        h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        text = prometheus_text(reg)
        assert "# HELP c_total help text\n" in text
        assert "# TYPE c_total counter\n" in text
        assert 'c_total{kind="x"} 3\n' in text
        assert "# repro-nondeterministic wall\n" in text
        # histogram buckets are cumulative and +Inf-terminated
        assert 'lat_seconds_bucket{le="0.1"} 1\n' in text
        assert 'lat_seconds_bucket{le="1"} 2\n' in text
        assert 'lat_seconds_bucket{le="+Inf"} 2\n' in text
        assert "lat_seconds_sum 0.55\n" in text
        assert "lat_seconds_count 2\n" in text
        assert text.endswith("\n")

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(path='a"b\\c\nd')
        text = prometheus_text(reg)
        assert 'c{path="a\\"b\\\\c\\nd"} 1\n' in text


class TestInvariantSnapshot:
    def test_only_invariant_series(self):
        reg = MetricsRegistry()
        reg.counter("inv_total", invariant=True).inc(5, event="x")
        reg.counter("var_total").inc(1)
        reg.gauge("wall", deterministic=False).set(0.1)
        snap = reg.invariant_snapshot()
        assert set(snap) == {"inv_total"}
        assert snap["inv_total"] == {'{event="x"}': 5.0}

    def test_bitwise_comparable(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            reg.counter("n", invariant=True).inc(0.1 + 0.2)
        assert a.invariant_snapshot() == b.invariant_snapshot()
        b.counter("n").inc(1e-12)  # far below any rtol, still bitwise-visible
        assert a.invariant_snapshot() != b.invariant_snapshot()


class TestLabelHelpers:
    def test_label_key_sorted_strs(self):
        assert label_key({"b": 2, "a": "x"}) == (("a", "x"), ("b", "2"))

    def test_format_labels(self):
        assert format_labels(()) == ""
        assert format_labels((("a", "x"),)) == '{a="x"}'


class TestCacheStats:
    def test_record_updates_fields(self):
        stats = CacheStats(label="t")
        stats.record("hit")
        stats.record("miss", 3)
        stats.record("eviction", 0)  # no-op
        assert stats.hits == 1 and stats.misses == 3
        assert stats.evictions == 0
        assert stats.hit_rate == 0.25

    def test_unknown_event_raises(self):
        with pytest.raises(KeyError):
            CacheStats().record("explosion")

    def test_snapshot_schema_shared(self):
        snap = CacheStats(label="plan-memory").snapshot()
        assert snap["cache"] == "plan-memory"
        assert set(snap) == {"cache", "hits", "misses", "invalidations",
                             "evictions", "pruned", "tmp_swept",
                             "hit_rate"}
        assert CacheStats().snapshot()["cache"] == "unlabeled"

    def test_publishes_to_active_registry(self):
        stats = CacheStats(label="k")
        with use_registry() as reg:
            stats.record("hit", 2)
            stats.record("miss")
        c = reg.get("repro_cache_events_total")
        assert c.value(cache="k", event="hit") == 2.0
        assert c.value(cache="k", event="miss") == 1.0
        # outside the scope: counts locally, publishes nowhere
        stats.record("hit")
        assert stats.hits == 3
        assert c.value(cache="k", event="hit") == 2.0

    def test_all_cache_layers_share_schema(self):
        from repro.compiler.cache import PersistentPlanCache, PlanCache
        from repro.runtime.native import kernel_store
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            layers = [PlanCache().stats,
                      PersistentPlanCache(d).stats,
                      kernel_store().stats]
        keysets = {tuple(sorted(s.snapshot())) for s in layers}
        assert len(keysets) == 1
        assert {s.snapshot()["cache"] for s in layers} == {
            "plan-memory", "plan-disk", "native-kernels"}
