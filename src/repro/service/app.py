"""The compile-and-run service: a stdlib-asyncio HTTP front door.

No third-party HTTP stack — the container deliberately ships only the
standard library, so the server speaks a minimal, sufficient subset of
HTTP/1.1 over ``asyncio.start_server``: one request per connection
(``Connection: close``), ``Content-Length`` bodies, no chunked
encoding, no pipelining.  That subset is exactly what ``curl`` and
``http.client`` produce, and it keeps the parser small enough to audit.

Routes
------
``POST /compile``      compile a job document; coalesced + cached
``POST /run``          compile (same path) then execute on the worker
                       pool; 429 + ``Retry-After`` under saturation
``GET  /plan/<key>``   the exact ``plan_to_json`` document bytes
``GET  /metrics``      Prometheus text exposition of the service
                       registry (plus cache-counter gauges)
``GET  /healthz``      liveness + queue/coalescer/cache snapshot
``POST /cache/warm``   compile job(s) into the plan cache
``POST /cache/evict``  drop one key or everything, all tiers

Error mapping: malformed HTTP or JSON and invalid job documents are
400s with a JSON error body; compiler/runtime :class:`ReproError`\\ s
are 400s too (the job is wrong, not the server); pool saturation is
429; anything else is a 500 with the traceback on the server's stderr
only.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
import traceback

from repro.errors import ReproError
from repro.service.handlers import (
    Response, ServiceState, handle_cache_evict, handle_cache_warm,
    handle_compile, handle_healthz, handle_metrics, handle_plan,
    handle_run,
)
from repro.service.pool import PoolBusy, WorkerPool
from repro.service.schemas import JobError

#: Request framing limits — far above any legitimate job document.
MAX_BODY_BYTES = 32 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
#: Seconds to send a whole request in; a client that stalls gets 408.
READ_TIMEOUT_S = 30.0

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error",
}

#: (method, path) -> handler taking (state, parsed JSON body).
_POST_ROUTES = {
    "/compile": handle_compile,
    "/run": handle_run,
    "/cache/warm": handle_cache_warm,
    "/cache/evict": handle_cache_evict,
}

_KNOWN_PATHS = set(_POST_ROUTES) | {"/metrics", "/healthz", "/plan/"}


class _BadRequest(Exception):
    """Unparseable HTTP framing; maps to 400 before routing."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader):
    """Parse one request; returns ``(method, path, body)`` or ``None``
    on a cleanly closed connection."""
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _BadRequest("malformed request line")
    method, target = parts[0].upper(), parts[1]
    headers: dict[str, str] = {}
    seen = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        seen += len(line)
        if seen > MAX_HEADER_BYTES:
            raise _BadRequest("header section too large", status=413)
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _BadRequest("malformed Content-Length") from None
    if length < 0:
        raise _BadRequest("malformed Content-Length")
    if length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    # strip any query string; the service keys everything off the body
    return method, target.split("?", 1)[0], body


def _json_body(body: bytes) -> object:
    try:
        return json.loads(body or b"null")
    except json.JSONDecodeError as exc:
        raise JobError(f"request body is not valid JSON: {exc}") \
            from None


def _route_label(path: str) -> str:
    return "/plan" if path.startswith("/plan/") else path


async def _dispatch(state: ServiceState, method: str, path: str,
                    body: bytes) -> Response:
    if path.startswith("/plan/"):
        if method != "GET":
            return Response.error(405, "plan documents are read-only",
                                  Allow="GET")
        return await handle_plan(state, path[len("/plan/"):])
    if path == "/metrics":
        if method != "GET":
            return Response.error(405, "metrics are read-only",
                                  Allow="GET")
        return await handle_metrics(state)
    if path == "/healthz":
        if method != "GET":
            return Response.error(405, "healthz is read-only",
                                  Allow="GET")
        return await handle_healthz(state)
    handler = _POST_ROUTES.get(path)
    if handler is None:
        return Response.error(
            404, f"no route {path!r}; routes: "
            f"{', '.join(sorted(_KNOWN_PATHS))}")
    if method != "POST":
        return Response.error(405, f"{path} takes POST", Allow="POST")
    return await handler(state, _json_body(body))


async def _handle(state: ServiceState, method: str, path: str,
                  body: bytes) -> Response:
    """Dispatch plus the error-to-status mapping and service metrics."""
    label = _route_label(path)
    state.inflight.inc()
    start = time.perf_counter()
    try:
        response = await _dispatch(state, method, path, body)
    except JobError as exc:
        response = Response.error(400, str(exc))
    except PoolBusy as exc:
        state.rejected_total.inc(route=label)
        response = Response.error(
            429, str(exc), **{"Retry-After": str(exc.retry_after)})
    except ReproError as exc:
        response = Response.error(400, f"{type(exc).__name__}: {exc}")
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        response = Response.error(
            500, f"internal error: {type(exc).__name__}: {exc}")
    finally:
        state.inflight.inc(-1)
    state.requests_total.inc(route=label, method=method,
                             status=str(response.status))
    if label in ("/compile", "/run") and response.status == 200:
        state.job_seconds.observe(time.perf_counter() - start,
                                  kind=label.lstrip("/"))
    return response


def _frame(response: Response) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    lines = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        "Connection: close",
    ]
    lines += [f"{name}: {value}"
              for name, value in response.headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + response.body


class ReproService:
    """One server instance: state + listener lifecycle.

    Usage::

        service = ReproService(cache_dir="cache", ledger_path="runs")
        await service.start(port=0)       # 0 = ephemeral
        ...                               # service.port is bound now
        await service.stop()
    """

    def __init__(self, state: "ServiceState | None" = None,
                 **state_kwargs) -> None:
        self.state = state if state is not None \
            else ServiceState(**state_kwargs)
        self._server: "asyncio.base_events.Server | None" = None

    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                request = await asyncio.wait_for(_read_request(reader),
                                                 READ_TIMEOUT_S)
            except _BadRequest as exc:
                response = Response.error(exc.status, str(exc))
            except asyncio.TimeoutError:
                response = Response.error(408, "request not sent in time")
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            else:
                if request is None:
                    return
                response = await _handle(self.state, *request)
            writer.write(_frame(response))
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> None:
        self._server = await asyncio.start_server(self._client, host,
                                                  port)

    @property
    def port(self) -> int:
        assert self._server is not None, "service not started"
        return self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "service not started"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.state.close()

    async def __aenter__(self) -> "ReproService":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()


def serve(host: str = "127.0.0.1", port: int = 8080,
          cache_dir: "str | None" = None,
          ledger_path: "str | None" = None,
          pool_workers: "int | None" = None,
          max_pending: "int | None" = None) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    pool = None
    if pool_workers is not None or max_pending is not None:
        pool = WorkerPool(workers=pool_workers,
                          max_pending=max_pending)
    service = ReproService(cache_dir=cache_dir,
                           ledger_path=ledger_path, pool=pool)

    async def _main() -> None:
        await service.start(host, port)
        print(f"repro service listening on "
              f"http://{host}:{service.port}",
              file=sys.stderr, flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
