"""End-to-end service tests over real HTTP.

The server runs on a background event loop; clients are plain
``http.client`` connections, so the stdlib HTTP parser in
:mod:`repro.service.app` is exercised against a real peer.  The two
load-bearing guarantees under test:

* **One cold compilation per burst** — 32 concurrent identical
  ``/compile`` requests produce exactly one plan-cache miss (the
  cache's own counters prove it) and 32 successful responses whose
  coalescing roles sum to 32.
* **Bitwise fidelity** — a ``/run`` response's per-array sha256
  digests equal those of the same run made directly through
  :func:`repro.kernels.run_kernel`, for every backend.
"""

import asyncio
import hashlib
import http.client
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.kernels import run_kernel
from repro.obs.ledger import RunLedger
from repro.service import ReproService, WorkerPool
from repro.service.handlers import COMPILE_FINGERPRINT
from tests.conftest import (
    PARENT_CACHE, PROM_LINE, python_child, retired_kernel_file,
)

class ServiceHarness:
    """A live server on a daemon event-loop thread."""

    def __init__(self, tmp_path, **state_kwargs):
        state_kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
        state_kwargs.setdefault("ledger_path",
                                str(tmp_path / "ledger.jsonl"))
        self.tmp_path = tmp_path
        self.service = ReproService(**state_kwargs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self._call(self.service.start(port=0))
        self.port = self.service.port

    def _call(self, coro, timeout=60):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def close(self):
        self._call(self.service.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)
        self.loop.close()

    # -- client ------------------------------------------------------------
    def request(self, method, path, doc=None, timeout=120):
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=timeout)
        try:
            body = None if doc is None \
                else json.dumps(doc).encode()
            conn.request(method, path, body)
            response = conn.getresponse()
            payload = response.read()
            return response.status, dict(response.getheaders()), payload
        finally:
            conn.close()

    def json(self, method, path, doc=None, expect=200):
        status, headers, payload = self.request(method, path, doc)
        parsed = json.loads(payload)
        assert status == expect, parsed
        return parsed


@pytest.fixture
def harness(tmp_path):
    h = ServiceHarness(tmp_path)
    yield h
    h.close()


FIVE_O2 = {"kernel": "five_point", "bindings": {"N": 12},
           "level": "O2"}


class TestCompile:
    def test_compile_reports_and_schema(self, harness):
        doc = harness.json("POST", "/compile", FIVE_O2)
        assert doc["schema"] == {"type": "service", "version": 1}
        assert doc["kind"] == "compile"
        assert doc["kernel"] == "five_point"
        assert doc["report"]["level"] == "O2"
        assert doc["report"]["overlap_shifts"] == 4
        assert doc["plan_url"] == f"/plan/{doc['key']}"

    def test_plan_document_served_byte_for_byte(self, harness):
        from repro.kernels import compile_kernel
        from repro.plan import plan_to_json

        doc = harness.json("POST", "/compile", FIVE_O2)
        status, headers, payload = harness.request(
            "GET", doc["plan_url"])
        assert status == 200
        expected = plan_to_json(compile_kernel(
            "five_point", bindings={"N": 12}, level="O2"). plan)
        assert payload == expected.encode()
        # the content-sha alias resolves to the same bytes
        status, _, by_sha = harness.request(
            "GET", f"/plan/{doc['plan_key']}")
        assert status == 200 and by_sha == payload
        assert doc["plan_key"] == hashlib.sha256(payload).hexdigest()

    def test_include_plan_embeds_versioned_document(self, harness):
        doc = harness.json("POST", "/compile",
                           {**FIVE_O2, "include_plan": True})
        from repro.plan.serialize import PLAN_SCHEMA_VERSION
        assert doc["plan"]["schema"] == PLAN_SCHEMA_VERSION

    def test_unknown_plan_key_is_404(self, harness):
        doc = harness.json("GET", "/plan/notakey", expect=404)
        assert doc["kind"] == "error"

    def test_bad_job_is_400_with_diagnostic(self, harness):
        doc = harness.json("POST", "/compile",
                           {"kernel": "nope"}, expect=400)
        assert "nope" in doc["error"]

    def test_compile_error_is_400_not_500(self, harness):
        doc = harness.json("POST", "/compile",
                           {"source": "this is not hpf"}, expect=400)
        assert doc["kind"] == "error"

    def test_malformed_json_is_400(self, harness):
        status, _, payload = harness.request("POST", "/compile")
        conn = http.client.HTTPConnection("127.0.0.1", harness.port)
        conn.request("POST", "/compile", b"{not json")
        response = conn.getresponse()
        assert response.status == 400
        assert b"JSON" in response.read()
        conn.close()


class TestBadValuesAre400:
    """Well-shaped documents carrying bad values: the job's own
    validation answers 400 naming the field — on the parent commit
    every one of these was a 500."""

    @pytest.mark.parametrize("field,extra", [
        ("level", {"level": "O9"}),
        ("level", {"level": None}),
        ("preset", {"machine": {"preset": "cray"}}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": None}),
        ("iterations", {"iterations": None}),
        ("outputs", {"outputs": [1, 2]}),
        ("cse", {"cse": True}),                  # retired switches are
        ("plan_passes", {"plan_passes": True}),  # unknown fields now,
        ("jit", {"jit": "python"}),              # the compiled
        ("tile", {"tile": 8}),                   # backend's three too
        ("unroll", {"unroll": 2}),
        ("parallel, perpe, vectorized", {"backend": "compiled"}),
    ], ids=repr)
    def test_run(self, harness, field, extra):
        status, _, payload = harness.request(
            "POST", "/run", {**FIVE_O2, **extra})
        assert status == 400, payload
        assert field in json.loads(payload)["error"]

    @pytest.mark.parametrize("field,extra", [
        ("level", {"level": "O9"}),
        ("level", {"level": None}),
        ("outputs", {"outputs": [1, 2]}),
        ("cse", {"cse": False}),
        ("plan_passes", {"plan_passes": False}),
    ], ids=repr)
    def test_compile(self, harness, field, extra):
        status, _, payload = harness.request(
            "POST", "/compile", {**FIVE_O2, **extra})
        assert status == 400, payload
        assert field in json.loads(payload)["error"]


class TestCoalescing:
    def test_burst_of_32_costs_one_cold_compilation(self, harness):
        """The acceptance gate: 32 concurrent identical /compile
        requests -> exactly one compilation, proven by the plan
        cache's own counters, with all 32 responses sharing one key
        and their coalescing roles summing to 32."""
        job = {"kernel": "purdue9", "bindings": {"N": 48},
               "level": "O4"}
        n = 32
        with ThreadPoolExecutor(max_workers=n) as pool:
            docs = list(pool.map(
                lambda _: harness.json("POST", "/compile", job),
                range(n)))
        assert len({d["key"] for d in docs}) == 1
        assert len({d["plan_key"] for d in docs}) == 1

        health = harness.json("GET", "/healthz")
        memory = health["caches"]["plan-memory"]
        # one cold compilation for the whole burst: the single miss
        # (and matching disk miss) belongs to the leader; every other
        # request either coalesced onto its future or hit the cache
        assert memory["misses"] == 1.0
        assert health["caches"]["plan-disk"]["misses"] == 1.0
        leaders = health["coalesced"]["leaders"]
        followers = health["coalesced"]["followers"]
        assert leaders + followers == n
        assert memory["hits"] == leaders - 1
        # one entry materialized on disk
        plans = harness.tmp_path / "cache" / "plans"
        assert len(list(plans.glob("*.json"))) == 1

        # the roles the clients saw agree with the server's counters
        coalesced = [d["coalesced"] for d in docs]
        assert coalesced.count(True) == followers

    def test_coalesced_runs_share_compile_not_execution(self, harness):
        """Two concurrent /run of one kernel on different grids share
        the compilation key but execute separately."""
        jobs = [{"kernel": "five_point", "bindings": {"N": 12},
                 "level": "O2", "machine": {"grid": grid}}
                for grid in ([2, 2], [4, 1])]
        with ThreadPoolExecutor(max_workers=2) as pool:
            docs = list(pool.map(
                lambda j: harness.json("POST", "/run", j), jobs))
        assert docs[0]["key"] == docs[1]["key"]
        assert docs[0]["summary"]["messages"] != \
            docs[1]["summary"]["messages"]


class TestRunFidelity:
    @pytest.mark.parametrize("backend", ["perpe", "vectorized",
                                         "parallel"])
    def test_run_bitwise_identical_to_direct_run_kernel(
            self, harness, backend):
        job = {"kernel": "jacobi", "bindings": {"N": 16},
               "level": "O4", "backend": backend, "iterations": 2,
               "seed": 3}
        doc = harness.json("POST", "/run", job)
        result = run_kernel("jacobi", bindings={"N": 16},
                            level="O4", backend=backend,
                            iterations=2, seed=3)

        assert set(doc["arrays"]) == set(result.arrays)
        for name, arr in result.arrays.items():
            expected = hashlib.sha256(arr.tobytes()).hexdigest()
            assert doc["arrays"][name]["sha256"] == expected, name
        for name, value in result.scalars.items():
            assert doc["scalars"][name] == float(value)
        assert doc["summary"] == result.summary()

    def test_concurrent_parallel_runs_match_vectorized(self, tmp_path):
        """Two ``/run`` jobs with ``backend: "parallel"`` at once on two
        job threads: each thread is its run's worker 0 and both hand
        stripes to the one process-wide pool — nothing forks from the
        multi-threaded server — and both answer 200 with arrays
        byte-equal to ``vectorized``."""
        from repro.testing import forced_stripes
        harness = ServiceHarness(tmp_path, pool=WorkerPool(workers=2))
        jobs = [{"kernel": "purdue9", "bindings": {"N": 24},
                 "iterations": 3, "seed": seed, "arrays": "full"}
                for seed in (1, 2)]
        try:
            with forced_stripes(), ThreadPoolExecutor(2) as clients:
                got = list(clients.map(
                    lambda job: harness.json("POST", "/run", {
                        **job, "backend": "parallel", "workers": 3}),
                    jobs))
            for job, doc in zip(jobs, got):
                want = harness.json("POST", "/run",
                                    {**job, "backend": "vectorized"})
                assert doc["arrays"] == want["arrays"]
                assert doc["summary"] == want["summary"]
                assert doc["arrays"]["T"]["data"]
                striped = [s for s in next(
                    m for m in doc["metrics"]["metrics"]
                    if m["name"] == "repro_parallel_nests_total"
                )["samples"] if s["labels"] == {"mode": "striped"}]
                assert striped and striped[0]["value"] >= 3
        finally:
            harness.close()

    def test_full_arrays_round_trip(self, harness):
        import base64

        doc = harness.json(
            "POST", "/run", {**FIVE_O2, "arrays": "full", "seed": 5})
        direct = run_kernel("five_point", bindings={"N": 12},
                            level="O2", seed=5)
        for name, arr in direct.arrays.items():
            entry = doc["arrays"][name]
            decoded = np.frombuffer(
                base64.b64decode(entry["data"]),
                dtype=entry["dtype"]).reshape(entry["shape"])
            np.testing.assert_array_equal(decoded, arr)

    def test_run_embeds_metrics_and_profile_documents(self, harness):
        from repro.obs import profile_from_json

        doc = harness.json("POST", "/run",
                           {**FIVE_O2, "profile": True})
        # the run's own counts beside its summary (its cost)
        metrics = doc["metrics"]
        assert metrics["type"] == "metrics" and metrics["version"] == 2
        runs = {m["name"]: m["samples"] for m in metrics["metrics"]}[
            "repro_exec_runs_total"]
        assert runs == [{"labels": {"backend": "perpe"}, "value": 1.0}]
        assert doc["summary"]["messages"] > 0
        # the profile round-trips through its own reader
        profile = profile_from_json(json.dumps(doc["profile"]))
        assert profile.kernel == "five_point"


class TestAdmissionControl:
    def test_saturated_pool_returns_429_with_retry_after(self, tmp_path):
        harness = ServiceHarness(
            tmp_path, pool=WorkerPool(workers=1, max_pending=1))
        try:
            # hold the single admission slot with a gated job so the
            # saturation window is under test control, not timing
            gate = threading.Event()
            occupied = asyncio.run_coroutine_threadsafe(
                harness.service.state.pool.submit(gate.wait),
                harness.loop)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                health = harness.json("GET", "/healthz")
                if health["pending_jobs"] >= 1:
                    break
                time.sleep(0.01)
            assert health["pending_jobs"] >= 1
            try:
                status, headers, payload = harness.request(
                    "POST", "/compile",
                    {"kernel": "five_point", "bindings": {"N": 8}})
                assert status == 429
                assert int(headers["Retry-After"]) >= 1
                assert b"saturated" in payload
            finally:
                gate.set()
            occupied.result(timeout=30)
            # reads stay available under load shedding, the rejection
            # is visible in the service metrics, and capacity frees up
            _, _, scrape = harness.request("GET", "/metrics")
            assert b'repro_service_rejected_total{route="/compile"} 1' \
                in scrape
            doc = harness.json("POST", "/compile",
                               {"kernel": "five_point",
                                "bindings": {"N": 8}})
            assert doc["kind"] == "compile"
        finally:
            harness.close()


class TestObservability:
    def test_metrics_parse_under_ci_line_grammar(self, harness):
        harness.json("POST", "/run", dict(FIVE_O2))
        harness.json("POST", "/compile", dict(FIVE_O2))
        status, headers, payload = harness.request("GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        lines = payload.decode().splitlines()
        bad = [l for l in lines if l and not PROM_LINE.match(l)]
        assert not bad, bad[:5]
        text = payload.decode()
        assert 'repro_service_requests_total{method="POST",' \
            in text
        assert "repro_service_job_seconds_bucket" in text
        assert 'repro_service_cache_events{cache="plan-memory"' \
            in text

    def test_healthz_snapshot(self, harness):
        doc = harness.json("GET", "/healthz")
        assert doc["status"] == "ok"
        assert doc["pending_jobs"] == 0
        assert doc["max_pending"] >= 1
        assert set(doc["coalesced"]) == {"leaders", "followers"}
        # reported even while the ledger is empty (RunLedger is falsy
        # at len 0 — regression: `if state.ledger` hid it until the
        # first record landed)
        assert doc["ledger"] == str(harness.tmp_path / "ledger.jsonl")

    def test_every_job_lands_in_the_ledger(self, harness):
        harness.json("POST", "/compile", dict(FIVE_O2))
        harness.json("POST", "/run",
                     {**FIVE_O2, "backend": "vectorized"})
        ledger = RunLedger(harness.tmp_path / "ledger.jsonl")
        records = ledger.records()
        assert len(records) == 2
        compile_rec, run_rec = records
        assert compile_rec["fingerprint"] == COMPILE_FINGERPRINT
        assert compile_rec["extra"]["route"] == "/compile"
        assert run_rec["backend"] == "vectorized"
        assert run_rec["extra"]["kernel"] == "five_point"
        assert run_rec["plan_key"] == compile_rec["plan_key"]
        assert run_rec["metrics"]["metrics"]  # embedded metrics doc
        assert run_rec["fingerprint"].startswith("grid=")


class TestCacheEndpoints:
    def test_warm_then_evict_key_then_all(self, harness):
        warmed = harness.json("POST", "/cache/warm", {"jobs": [
            dict(FIVE_O2),
            {"kernel": "jacobi", "bindings": {"N": 12}},
        ]})
        keys = [w["key"] for w in warmed["warmed"]]
        assert len(set(keys)) == 2
        plans = harness.tmp_path / "cache" / "plans"
        assert len(list(plans.glob("*.json"))) == 2

        # a warmed plan compiles as a pure cache hit
        before = harness.json("GET", "/healthz")["caches"]
        harness.json("POST", "/compile", dict(FIVE_O2))
        after = harness.json("GET", "/healthz")["caches"]
        assert after["plan-memory"]["hits"] == \
            before["plan-memory"]["hits"] + 1
        assert after["plan-memory"]["misses"] == \
            before["plan-memory"]["misses"]

        dropped = harness.json("POST", "/cache/evict",
                               {"key": keys[0]})
        assert dropped["dropped"]["plans"] == 2  # memory + disk
        assert len(list(plans.glob("*.json"))) == 1
        harness.json("GET", f"/plan/{keys[0]}", expect=404)

        dropped = harness.json("POST", "/cache/evict", {"all": True})
        assert dropped["dropped"]["plans"] == 2
        assert not list(plans.glob("*.json"))
        harness.json("GET", f"/plan/{keys[1]}", expect=404)

    def test_evict_all_empties_every_tier(self, harness):
        """Evicting everything empties both plan tiers and reports a
        count per tier; the per-user native kernel directory is shared
        with other processes and is not this server's to empty."""
        from repro.runtime.native import kernel_store
        key = harness.json("POST", "/run", {
            **FIVE_O2, "backend": "vectorized"})["key"]
        native = sorted(f.name for f in kernel_store()._entries())
        dropped = harness.json("POST", "/cache/evict",
                               {"all": True})["dropped"]
        assert dropped == {"plans": 2, "tiers": {"plan-memory": 1,
                                                 "plan-disk": 1}}
        assert not list((harness.tmp_path / "cache" / "plans").iterdir())
        assert sorted(f.name for f in kernel_store()._entries()) == native
        # one key names a plan: the same two tiers
        assert harness.json("POST", "/run", {
            **FIVE_O2, "backend": "vectorized"})["key"] == key
        dropped = harness.json("POST", "/cache/evict",
                               {"key": key})["dropped"]
        assert dropped == {"plans": 2, "tiers": {"plan-memory": 1,
                                                 "plan-disk": 1}}

    def test_every_tier_reported_and_accumulating(self, harness):
        """/healthz and the cache gauges list exactly the tiers this
        server reads or fills: the two plan tiers and the native kernel
        directory (the kernel-source tiers went with the compiled
        backend)."""
        before = harness.json("GET", "/healthz")["caches"]
        assert set(before) == {"plan-memory", "plan-disk",
                               "native-kernels"}
        for grid in ([2, 2], [4, 1]):       # one plan, two machines
            harness.json("POST", "/run", {
                **FIVE_O2, "backend": "vectorized",
                "machine": {"grid": grid}})
        after = harness.json("GET", "/healthz")["caches"]
        assert set(after) == set(before)
        assert after["plan-memory"]["misses"] == \
            before["plan-memory"]["misses"] + 1
        assert after["plan-memory"]["hits"] == \
            before["plan-memory"]["hits"] + 1
        assert after["plan-disk"]["misses"] == 1.0
        scrape = harness.request("GET", "/metrics")[2].decode()
        assert set(re.findall(
            r'repro_service_cache_events\{cache="([^"]+)"', scrape)) \
            == set(before)
        assert 'repro_service_cache_events{cache="plan-disk",' \
            'event="misses"} 1' in scrape

    def test_cache_dir_of_an_earlier_commit(self, tmp_path):
        """A ``--cache-dir`` an earlier server filled — ``plans/`` plus
        ``kernels/<key>.py``, the retired kernel-source tier: the plan
        tier is served from disk, and ``kernels/`` is not opened, run,
        pruned or removed, by a run or by evict-all."""
        import shutil
        cache = tmp_path / "cache"
        shutil.copytree(PARENT_CACHE / "kernels", cache / "kernels")
        kernel_state = retired_kernel_file(cache)
        before = kernel_state()
        job = {**FIVE_O2, "backend": "vectorized"}
        first = ServiceHarness(tmp_path)     # an earlier server's plans/
        try:
            want = first.json("POST", "/run", job)
        finally:
            first.close()
        harness = ServiceHarness(tmp_path)
        try:
            doc = harness.json("POST", "/run", job)
            caches = harness.json("GET", "/healthz")["caches"]
            assert caches["plan-disk"]["hits"] == 1.0
            assert doc["arrays"] == want["arrays"]
            harness.json("POST", "/cache/evict", {"all": True})
        finally:
            harness.close()
        assert sorted(p.name for p in cache.iterdir()) == \
            ["kernels", "plans"]
        assert kernel_state() == before

    def test_single_job_warm_body(self, harness):
        warmed = harness.json("POST", "/cache/warm", dict(FIVE_O2))
        assert len(warmed["warmed"]) == 1

    @pytest.mark.parametrize("key", ["../x", "a/b", "", 5, None],
                             ids=repr)
    def test_evict_key_must_be_one_path_component(self, harness, key):
        """Regression: ``{"key": "../x"}`` unlinked
        ``<cache-dir>/plans/../x.json``; a non-string key was not
        rejected either."""
        harness.json("POST", "/cache/warm", dict(FIVE_O2))
        plans = harness.tmp_path / "cache" / "plans"
        sentinel = harness.tmp_path / "cache" / "x.json"
        sentinel.write_text("outside the store")
        doc = harness.json("POST", "/cache/evict", {"key": key},
                           expect=400)
        assert "'key'" in doc["error"]
        assert sentinel.exists()
        assert len(list(plans.glob("*.json"))) == 1

    def test_bad_evict_body_rejected(self, harness):
        doc = harness.json("POST", "/cache/evict", {}, expect=400)
        assert "evict" in doc["error"]
        doc = harness.json("POST", "/cache/evict",
                           {"key": "k", "all": True}, expect=400)
        assert "evict" in doc["error"]


class TestHttpFraming:
    def test_unknown_route_404(self, harness):
        doc = harness.json("GET", "/nope", expect=404)
        assert "/compile" in doc["error"]

    def test_wrong_method_405(self, harness):
        doc = harness.json("GET", "/compile", expect=405)
        assert doc["kind"] == "error"
        doc = harness.json("POST", "/metrics", {}, expect=405)
        assert doc["kind"] == "error"

    def test_malformed_request_line_400(self, harness):
        import socket

        with socket.create_connection(
                ("127.0.0.1", harness.port), timeout=10) as sock:
            sock.sendall(b"garbage\r\n\r\n")
            data = sock.recv(4096)
        assert data.startswith(b"HTTP/1.1 400 ")

    def test_responses_close_the_connection(self, harness):
        status, headers, _ = harness.request("GET", "/healthz")
        assert headers["Connection"] == "close"


SERVED_RUN_PROBE = """
import asyncio, json, sys
from repro.service import ReproService

async def served_run():
    service = ReproService(cache_dir=sys.argv[1])
    await service.start(port=0)
    reader, writer = await asyncio.open_connection("127.0.0.1",
                                                   service.port)
    body = json.dumps({"kernel": "nine_point",
                       "backend": "vectorized"}).encode()
    writer.write(b"POST /run HTTP/1.1\\r\\nConnection: close\\r\\n"
                 b"Content-Length: %d\\r\\n\\r\\n" % len(body) + body)
    reply = await reader.read()
    writer.close()
    await service.stop()
    return reply.split(b"\\r\\n", 1)[0].decode()

print(json.dumps([asyncio.run(served_run()),
                  sorted(m for m in sys.modules
                         if m.startswith("repro.codegen"))]))
"""


def test_a_served_run_never_imports_the_pinned_emitter(tmp_path):
    """A server given a cache directory used to enter the kernel-cache
    option scope on every ``/run``; now ``repro.codegen`` (kept for the
    benchmark harness alone) is never imported by one."""
    assert python_child("-c", SERVED_RUN_PROBE, str(tmp_path / "cache")) \
        == ["HTTP/1.1 200 OK", []]
