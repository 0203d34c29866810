"""Workload ``service_mix``: a live ``python -m repro serve`` child under
a closed loop of two clients (callers that wait for a reply), one request
per connection as the server requires.

Phases run in sequence against one server on a fresh cache directory
whose disk tier starts at its 512-entry bound: ``warm`` (identical
``/run``: cache hit, so framing, schema, pool hop, input generation and
the metrics document dominate), ``cold`` (never-seen source per request:
compile miss, disk put, prune, memory-tier eviction), ``pair``
(barrier-synchronised identical never-seen jobs: coalescing) and
``payload`` (``arrays: "full"`` at N=512, ~2.8 MB base64 per response:
serialisation dominates).  Writes beside reads, hits beside misses,
small beside large responses.  Two clients never reach ``max_pending``,
so 429 admission control under saturation is *not* covered.
"""

from __future__ import annotations

import base64
import hashlib
import itertools
import json
import re
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

from benchmarks.e2e.harness import (
    DISK_ENTRIES, Workload, coefficient_scalars, digest, fill_plan_dir,
    median, now, seeded_inputs,
)

CLIENTS = 2
POOL_WORKERS = 2

#: Share of the measured seconds each phase gets, in running order.  The
#: traced run adds the two probe phases that attribute ``warm``.
PHASES = {"warm": 0.35, "cold": 0.30, "pair": 0.15, "payload": 0.20}
TRACED_PHASES = {"healthz": 0.05, "compile_warm": 0.10, "warm": 0.30,
                 "cold": 0.25, "pair": 0.10, "payload": 0.20}

_BANNER = re.compile(r"listening on http://[^:]+:(\d+)")


def request(port: int, method: str, path: str, doc=None):
    """One HTTP exchange on a fresh connection.  Returns ``(status, body,
    marks)`` with ``marks`` the four instants before connect, after
    connect, after the request is written, and after the last response
    byte (the server closes the connection)."""
    data = b"" if doc is None else json.dumps(doc).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(data)}\r\n\r\n").encode()
    t0 = now()
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        t1 = now()
        sock.sendall(head + data)
        t2 = now()
        chunks = []
        while chunk := sock.recv(1 << 20):
            chunks.append(chunk)
        t3 = now()
    header, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(header.split(None, 2)[1]), body, (t0, t1, t2, t3)


class ServiceMix(Workload):
    groups = ("warm", "cold", "payload")

    def __init__(self, cfg, rec) -> None:
        super().__init__(cfg, rec)
        self.server: "subprocess.Popen | None" = None
        self.boot = 0
        self.payload_bytes = 0
        self._lock = threading.Lock()
        self.phase_wall: dict[str, float] = {}
        self.cache_delta: dict[str, dict] = {}

    # -- jobs ---------------------------------------------------------------
    def _jobs(self) -> None:
        """The job documents and, from the same jobs run in process with
        the same seed, the array digests every response must carry."""
        from repro.kernels import KERNELS, compile_kernel
        from repro.machine import Machine
        seed = self.cfg.seed
        n_small = 32 if self.cfg.quick else 128
        n_large = 128 if self.cfg.quick else 512
        common = {"backend": "vectorized", "machine": {"grid": [2, 2]},
                  "iterations": 2, "seed": seed}
        self.expected, self.job = {}, {}

        def prepare(phase: str, kernel: str, n: int, extra: dict) -> None:
            compiled = compile_kernel(kernel, bindings={"N": n})
            scalars = coefficient_scalars(compiled, seed)
            start = now()
            inputs = seeded_inputs(compiled, seed)
            self.rec.add(f"inputgen/{phase}", now() - start)
            result = compiled.run(Machine(grid=(2, 2)), inputs=inputs,
                                  scalars=scalars, iterations=2,
                                  backend="vectorized")
            self.expected[phase] = {name: digest(arr) for name, arr
                                    in result.arrays.items()}
            self.job[phase] = {**common, "bindings": {"N": n},
                               "scalars": scalars, **extra}
            if phase == "warm":
                self.summary = result.summary()

        prepare("warm", "nine_point", n_small, {"kernel": "nine_point"})
        prepare("payload", "nine_point", n_large,
                {"kernel": "nine_point", "arrays": "full"})
        # sent as source so a trailing comment makes a never-seen key
        # while the work, and so the digests, stay fixed
        prepare("cold", "twentyfive_point", n_small, {"outputs": ["DST"]})
        self.cold_source = KERNELS["twentyfive_point"].source
        self.expected["pair"] = self.expected["cold"]

    def _make(self, phase: str, index: int) -> tuple[str, str, object]:
        if phase == "healthz":
            return "GET", "/healthz", None
        if phase == "compile_warm":
            doc = {k: self.job["warm"][k] for k in ("kernel", "bindings")}
            return "POST", "/compile", doc
        if phase in ("cold", "pair"):
            tag = f"! {phase} {self.cfg.seed} {self.boot} {index}\n"
            return "POST", "/run", {**self.job["cold"],
                                    "source": self.cold_source + tag}
        return "POST", "/run", self.job[phase]

    # -- server lifecycle ---------------------------------------------------
    def setup(self) -> None:
        if not self.boot:
            self._jobs()
        self.boot += 1
        self.base = self.cfg.scratch / "service_mix"
        cache_dir = self.base / "cache"
        fill_plan_dir(cache_dir / "plans", DISK_ENTRIES,
                      f"svc-{self.cfg.seed}")
        log = self.base / "server.log"
        start = now()
        with open(log, "wb") as err:
            self.server = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--pool-workers", str(POOL_WORKERS),
                 "--cache-dir", str(cache_dir)],
                stdout=subprocess.DEVNULL, stderr=err)
        self.port = self._await_banner(log)
        status, _, _ = request(self.port, "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")
        self.rec.add("startup/boot", now() - start)
        # prime the two keys the hit phases reuse
        for phase in ("warm", "payload"):
            self._exchange(phase, 0, record=False)

    def _await_banner(self, log: Path) -> int:
        """Ephemeral port from the server's stderr banner."""
        deadline = now() + 60
        while now() < deadline:
            match = _BANNER.search(log.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.server.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError("server did not start: "
                           + log.read_text(errors="replace")[-500:])

    def teardown(self) -> None:
        server, self.server = self.server, None
        if server is not None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
        shutil.rmtree(self.cfg.scratch / "service_mix", ignore_errors=True)

    # -- one request --------------------------------------------------------
    def _exchange(self, phase: str, index: int, record: bool = True) -> None:
        rec = self.rec
        method, path, doc = self._make(phase, index)
        try:
            with rec.span("op.request", phase=phase):
                status, body, marks = request(self.port, method, path, doc)
                if rec.trace:
                    for name, a, b in zip(
                            ("client.connect", "client.send",
                             "client.await_response"), marks, marks[1:]):
                        rec.mark(name, a, b)
        except OSError as exc:
            rec.check(False, f"{phase}: {exc!r}")
            return
        if not record:
            if status != 200:
                raise RuntimeError(f"priming {phase} answered {status}: "
                                   f"{body[:300]!r}")
            return
        if rec.check(status == 200 and self._valid(phase, body),
                     f"{phase}: status {status} {body[:200]!r}"):
            rec.add(f"{phase}/request", marks[3] - marks[0])
            if phase == "payload":
                with self._lock:
                    self.payload_bytes += len(body)

    def _valid(self, phase: str, body: bytes) -> bool:
        expected = self.expected.get(phase)
        if expected is None:
            return True
        arrays = json.loads(body)["arrays"]
        if {n: a["sha256"] for n, a in arrays.items()} != expected:
            return False
        if phase == "payload":
            return all(hashlib.sha256(base64.b64decode(a["data"])).hexdigest()
                       == a["sha256"] for a in arrays.values())
        return True

    # -- phases -------------------------------------------------------------
    def _phase(self, phase: str, seconds: float) -> None:
        """Closed loop: each client sends its next request when the
        previous reply has arrived, until the phase's time is up."""
        before = self._healthz() if self.rec.trace else None
        deadline = now() + seconds
        paired = phase == "pair"
        indices = itertools.count()
        go = [True]
        barrier = threading.Barrier(
            CLIENTS, action=lambda: go.__setitem__(0, now() < deadline))

        def client() -> None:
            try:
                for index in itertools.count() if paired else indices:
                    if paired:
                        # both clients send the same never-seen job at once
                        barrier.wait(timeout=120)
                        if index and not go[0]:
                            return
                    self._exchange(phase, index)
                    if not paired and now() >= deadline:
                        return
            except threading.BrokenBarrierError:
                self.rec.check(False, f"{phase}: client barrier broke")
            except Exception as exc:
                barrier.abort()
                self.rec.check(False, f"{phase}: client died: {exc!r}")

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        start = now()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.phase_wall[phase] = self.phase_wall.get(phase, 0.0) \
            + now() - start
        if before is not None:
            after = self._healthz()
            self.cache_delta[phase] = {
                "hits": _delta(before, after, "plan-memory", "hits"),
                "misses": _delta(before, after, "plan-memory", "misses"),
                "pruned": _delta(before, after, "plan-disk", "pruned"),
                "followers": after["coalesced"]["followers"]
                - before["coalesced"]["followers"],
                "leaders": after["coalesced"]["leaders"]
                - before["coalesced"]["leaders"],
            }

    def _healthz(self) -> dict:
        return json.loads(request(self.port, "GET", "/healthz")[1])

    def measure(self, seconds: float) -> None:
        rec = self.rec
        shares = TRACED_PHASES if rec.trace else PHASES
        for phase, share in shares.items():
            if phase == "warm" and rec.trace:
                # half untraced, half traced: the client-side spans'
                # cost is the difference between the two medians
                with rec.untraced():
                    self._phase(phase, seconds * share / 2)
                rec.series["warm_untraced/request"] = \
                    list(rec.series["warm/request"])
                self._phase(phase, seconds * share / 2)
            else:
                self._phase(phase, seconds * share)
        if rec.trace:
            self._server_side()

    def _server_side(self) -> None:
        """What the server says about itself: its own handler time,
        rejected requests and resident memory."""
        from repro.service.schemas import parse_run_job
        text = request(self.port, "GET", "/metrics")[1].decode()

        def series(pattern: str) -> float:
            return sum(float(v) for v in re.findall(
                pattern + r"\S*\s+(\S+)$", text, re.MULTILINE))

        runs = series(r'^repro_service_job_seconds_count\{kind="run"')
        self.handler_run_s = series(
            r'^repro_service_job_seconds_sum\{kind="run"') / runs
        self.rejected = series(r"^repro_service_rejected_total")
        status = Path(f"/proc/{self.server.pid}/status").read_text()
        self.rss_mb = int(re.search(r"VmRSS:\s+(\d+)", status).group(1)) / 1024
        for _ in range(200):
            start = now()
            parse_run_job(self.job["warm"])
            self.rec.add("parse_job/warm", now() - start)

    # -- metrics ------------------------------------------------------------
    def _p(self, phase: str, q: float) -> "float | None":
        """Percentile of a phase's request latencies in ms."""
        seconds = self.rec.level(phase, q)
        return seconds and seconds * 1e3

    def end_to_end(self) -> "dict[str, tuple[float | None, int]]":
        p, n = self._p, self.rec.samples
        return {
            "svc_rps": (n("warm") / self.phase_wall["warm"]
                        if n("warm") else None, n("warm")),
            "svc_warm_p50_ms": (p("warm", 0.5), n("warm")),
            "svc_warm_p90_ms": (p("warm", 0.9), n("warm")),
            "svc_cold_p50_ms": (p("cold", 0.5), n("cold")),
            "svc_payload_p50_ms": (p("payload", 0.5), n("payload")),
        }

    def layers(self) -> "dict[str, float | None]":
        rec, p = self.rec, self._p
        warm, cold = self.cache_delta["warm"], self.cache_delta["cold"]
        pair = self.cache_delta["pair"]
        summary = self.summary
        return {
            "kernels.inputgen_ms": median(rec.series["inputgen/warm"]) * 1e3,
            "machine.messages": summary["messages"],
            "machine.message_bytes": summary["message_bytes"],
            "machine.copies": summary["copies"],
            "machine.modelled_s": summary["modelled_time_s"],
            "machine.peak_mem_per_pe_bytes": summary["peak_memory_per_pe"],
            "service.startup_s": median(rec.series["startup/boot"]),
            "service.healthz_p50_ms": p("healthz", 0.5),
            "service.compile_warm_p50_ms": p("compile_warm", 0.5),
            "service.run_warm_p99_ms": p("warm", 0.99),
            "service.parse_job_ms": median(rec.series["parse_job/warm"]) * 1e3,
            "service.handler_run_mean_ms": self.handler_run_s * 1e3,
            "service.cold_p90_ms": p("cold", 0.9),
            "service.pair_p50_ms": p("pair", 0.5),
            "service.coalesce_follower_frac": pair["followers"]
            / max(1, pair["followers"] + pair["leaders"]),
            "service.cache_mem_hit_rate": warm["hits"]
            / max(1, warm["hits"] + warm["misses"]),
            "service.cache_mem_hit_rate_cold": cold["hits"]
            / max(1, cold["hits"] + cold["misses"]),
            "service.cache_disk_pruned": cold["pruned"] + pair["pruned"],
            "service.rejected_429": self.rejected,
            "service.payload_mb_per_s": self.payload_bytes / 1e6
            / self.phase_wall["payload"],
            "service.rss_mb": self.rss_mb,
            "obs.trace_overhead_frac":
                median(rec.series["warm/request"][
                    len(rec.series["warm_untraced/request"]):])
                / median(rec.series["warm_untraced/request"]) - 1,
        }


def _delta(before: dict, after: dict, cache: str, field: str) -> float:
    return after["caches"][cache][field] - before["caches"][cache][field]
