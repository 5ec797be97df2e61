"""Asyncio HTTP front-end over a :class:`~repro.serving.QueryEngine`.

``repro serve`` turns a saved index into a network service.  The
design goal is the one PR 5/6 made cheap: **batched queries are the
fast path**, so the server's job is to turn a storm of independent
single-pair requests into a steady stream of ``query_batch`` calls
without losing per-request isolation.

Request flow::

    connection -> HTTP/1.1 parse -> route
        POST /query        -> admission check -> micro-batch queue
        POST /query/batch  -> admission check -> direct query_batch
        POST /query/from   -> admission check -> direct query_from
        POST /mutate       -> admission check -> engine.apply_mutations
        POST /reindex      -> rebuild-verify-swap (needs a reindexer)
        GET  /reindex      -> reindexer status
        GET  /healthz      -> state + depth (503 while draining)
        GET  /metrics      -> Prometheus text of the obs registry
        GET  /stats        -> engine + server counters as JSON

**Dynamic serving.**  When the engine fronts a
:class:`~repro.dynamic.DeltaOverlayIndex`, ``POST /mutate`` streams
edge insertions/deletions into it — mutations run on the same single
engine worker thread as query batches, so they serialize with in-flight
work and every admitted query is answered exactly for the graph state
it executes against.  A :class:`~repro.dynamic.BackgroundReindexer`
(the ``reindexer=`` parameter) adds ``/reindex``: the rebuild runs off
the engine thread, is fingerprint- and ground-truth-verified, and the
hot swap is answer-preserving — the serve-under-churn suite pins down
that zero wrong or dropped answers are observable across a swap.

The pieces, and the contracts the tests pin down:

**Micro-batching** (:class:`_MicroBatcher`).  A single-pair request
parks a future in a bounded queue.  A collector task sends the queue,
up to ``batch_max_size`` pairs, as one ``query_batch`` call the moment
the engine is idle, and awaits that call before sending the next: pairs
that arrive while a call runs wait in the queue and leave together in
the next call.  An idle server therefore answers a lone request without
any wait, and a busy one batches exactly as much as the load brings.
A positive ``batch_window_ms`` is an opt-in hold before a short batch
leaves.  Engine calls run on a dedicated single worker thread, so the
event loop keeps answering ``/healthz`` and refusing excess load while
the engine (GIL-bound or fleet-IPC-bound) works, and engine calls never
interleave.

**Backpressure.**  Admission control is a hard bound on *pending*
queries (queued + executing).  A request that would exceed
``max_queue_depth`` is refused immediately with HTTP 429
``{"error": "overloaded"}`` — the server sheds load at the door
instead of queueing unboundedly.  Batch/one-to-many requests count
each contained query against the same bound.

**Failure isolation.**  A ``query_batch`` call that raises fails only
the requests in that batch (HTTP 500, counted in
``serving.server.batch_failures``); the collector keeps serving the
next batch.  Malformed requests (bad JSON, wrong shapes, out-of-range
vertices) are rejected with structured HTTP 400 errors before they
reach the engine, so one bad client cannot poison a batch.

**Graceful drain.**  ``close()`` (and SIGTERM/SIGINT under
:func:`serve_forever`) moves the server to ``draining``: the listener
closes, new query requests get HTTP 503 ``{"error": "draining"}``,
already-admitted requests run to completion (bounded by
``drain_timeout_s``), and only then does the run's audit record go to
disk — ``artifact.json`` plus an ``eval_history.jsonl`` line (see
:mod:`repro.serving.audit`).  Zero admitted requests are dropped in a
clean drain.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
import uuid
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigurationError, GraphError
from repro.obs.metrics import LatencyHistogram
from repro.obs.registry import MetricsRegistry, registry as default_registry
import repro.serving.audit as audit
from repro.serving.errors import ServingError

#: Server lifecycle states, in order.
STATE_IDLE = "idle"
STATE_SERVING = "serving"
STATE_DRAINING = "draining"
STATE_STOPPED = "stopped"

#: Registry metric names the server records under (all labeled
#: ``server=<id>``; request metrics additionally ``endpoint=``).
REQUEST_LATENCY_METRIC = "serving.server.request_latency"
REQUESTS_METRIC = "serving.server.requests"
REJECTED_METRIC = "serving.server.rejected"
BATCHES_METRIC = "serving.server.batches"
BATCH_FAILURES_METRIC = "serving.server.batch_failures"
QUEUE_DEPTH_METRIC = "serving.server.queue_depth"

#: Rejection reasons (the ``rejected`` counter keys / error codes).
REASON_OVERLOADED = "overloaded"
REASON_DRAINING = "draining"
REASON_BAD_REQUEST = "bad_request"

#: HTTP status text for the codes the server emits.
_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Hard cap on request bodies (a million-pair batch is a config error).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: StreamReader buffer limit (headers + readuntil).
_READER_LIMIT = 1 << 20

#: Distinguishes servers sharing one metrics registry.
_SERVER_IDS = itertools.count()


@dataclass
class ServerConfig:
    """Knobs of one :class:`DistanceServer`.

    ``port=0`` binds an ephemeral port (the bound port is available as
    ``server.port`` after ``start()``).  A micro-batch of at most
    ``batch_max_size`` pairs leaves as soon as the engine is idle;
    ``batch_window_ms=0`` (the default) adds no wait, while a positive
    value is an opt-in hold before a short batch leaves (``close()``
    cuts a running hold short).  ``max_queue_depth`` bounds *pending*
    queries (queued + executing) — the backpressure threshold.
    ``drain_timeout_s`` bounds how long ``close()`` waits for admitted
    work.  ``audit_dir`` is where ``artifact.json`` /
    ``eval_history.jsonl`` land on shutdown (``None`` disables the audit
    record).  A value the server cannot honour raises
    :class:`~repro.exceptions.ConfigurationError`.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batch_window_ms: float = 0.0
    batch_max_size: int = 64
    max_queue_depth: int = 1024
    drain_timeout_s: float = 10.0
    audit_dir: str | None = None

    def __post_init__(self) -> None:
        for name in ("batch_max_size", "max_queue_depth"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {value!r}"
                )
        # Infinity would hold a batch, or a drain, forever, and the
        # audit record (strict JSON) cannot encode it; NaN fails every
        # comparison.  Both are refused with the negatives.
        for name in ("batch_window_ms", "drain_timeout_s"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not 0 <= value < math.inf
            ):
                raise ConfigurationError(
                    f"{name} must be a finite number >= 0, got {value!r}"
                )

    def as_dict(self) -> dict:
        """Audit-record view of the resolved configuration."""
        return {
            "host": self.host,
            "port": self.port,
            "batch_window_ms": float(self.batch_window_ms),
            "batch_max_size": self.batch_max_size,
            "max_queue_depth": self.max_queue_depth,
            "drain_timeout_s": float(self.drain_timeout_s),
        }


class _Refused(Exception):
    """Admission control said no (maps to 429/503)."""

    def __init__(self, reason: str, status: int, detail: str) -> None:
        super().__init__(detail)
        self.reason = reason
        self.status = status
        self.detail = detail


class _BadRequest(Exception):
    """Structured 400: the request never reaches the engine."""

    def __init__(self, detail: str) -> None:
        super().__init__(detail)
        self.detail = detail


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: dict = field(default_factory=dict)
    body: bytes = b""
    keep_alive: bool = True


class _MicroBatcher:
    """Idle-engine aggregation of single-pair requests.

    Each submitted pair gets a future that resolves to ``("ok",
    value)`` or ``("error", detail)`` — batch failures are delivered as
    values, not exceptions, so an abandoned request (client gone) never
    leaves an unretrieved-exception warning behind.
    """

    def __init__(self, server: "DistanceServer") -> None:
        self._server = server
        self._queue: deque = deque()
        self._wake = asyncio.Event()
        self._stop = asyncio.Event()
        self._task: asyncio.Task | None = None
        #: Queued + executing queries (the backpressure quantity, also
        #: counting direct batch/one-to-many admissions).
        self.pending = 0

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._collect_loop())

    def submit(self, s: int, t: int) -> asyncio.Future:
        """Admit one pair, or raise :class:`_Refused`."""
        self._server._check_admission(1)
        future = asyncio.get_running_loop().create_future()
        self._queue.append((s, t, future))
        self.pending += 1
        self._server._queue_gauge.set(self.pending)
        self._wake.set()
        return future

    def reserve(self, count: int) -> None:
        """Count a direct batch's queries against the admission bound."""
        self._server._check_admission(count)
        self.pending += count
        self._server._queue_gauge.set(self.pending)

    def release(self, count: int) -> None:
        self.pending -= count
        self._server._queue_gauge.set(self.pending)

    async def _collect_loop(self) -> None:
        window = self._server.config.batch_window_ms / 1e3
        max_size = self._server.config.batch_max_size
        while True:
            if not self._queue:
                if self._stop.is_set():
                    break
                self._wake.clear()
                await self._wake.wait()
                continue
            # No micro-batch is in flight here.  An opt-in window holds
            # a short batch first; a draining server skips or cuts it.
            short = len(self._queue) < max_size
            if window > 0 and short and not self._stop.is_set():
                try:
                    await asyncio.wait_for(self._stop.wait(), window)
                except asyncio.TimeoutError:
                    pass
            batch = [
                self._queue.popleft()
                for _ in range(min(len(self._queue), max_size))
            ]
            # One batch in flight at a time: what arrives meanwhile
            # queues up and leaves together in the next call.
            await self._execute(batch)

    async def _execute(self, batch: list) -> None:
        server = self._server
        pairs = [(s, t) for s, t, _ in batch]
        try:
            values = await server._run_in_engine(server.engine.query_batch, pairs)
        except Exception as exc:  # noqa: BLE001 - isolated to this batch
            server.batch_failures += 1
            server._failures_counter.inc()
            detail = f"{type(exc).__name__}: {exc}"
            for _, _, future in batch:
                if not future.done():
                    future.set_result(("error", detail))
        else:
            server.batches += 1
            server.batched_queries += len(batch)
            server.max_batch_size = max(server.max_batch_size, len(batch))
            server._batches_counter.inc()
            for (_, _, future), value in zip(batch, values):
                if not future.done():
                    future.set_result(("ok", value))
        finally:
            self.release(len(batch))

    async def drain(self) -> None:
        """Flush the queue, including the batch in flight."""
        self._stop.set()
        self._wake.set()
        if self._task is not None:
            await self._task


class DistanceServer:
    """The asyncio serving front-end.

    Parameters
    ----------
    engine:
        Anything answering the :class:`~repro.serving.QueryEngine`
        batch protocol (``query_batch(pairs)`` and
        ``query_from(s, targets)``) — a ``QueryEngine`` or a
        :class:`~repro.serving.ServingFleet`.  Calls run on one
        dedicated worker thread, never concurrently.
    n:
        Vertex-id bound; out-of-range ids are rejected with HTTP 400
        *before* batching, so one bad id cannot fail a shared batch.
    config:
        A :class:`ServerConfig` (defaults throughout when ``None``).
    snapshot_path / fingerprint:
        Recorded in ``/healthz`` and the audit record; ``fingerprint``
        is the SHA-256 snapshot digest
        (:func:`repro.serving.audit.fingerprint_sha256`).
    registry:
        Metrics registry for counters/histograms (process-wide default
        — which is also what ``GET /metrics`` renders).
    reindexer:
        Optional :class:`~repro.dynamic.BackgroundReindexer` over the
        engine's overlay; enables the ``/reindex`` routes and, after
        every ``/mutate``, an auto-threshold check.
    """

    def __init__(
        self,
        engine,
        n: int,
        config: ServerConfig | None = None,
        *,
        snapshot_path=None,
        fingerprint: str | None = None,
        registry: MetricsRegistry | None = None,
        reindexer=None,
    ) -> None:
        for required in ("query_batch", "query_from"):
            if not callable(getattr(engine, required, None)):
                raise ConfigurationError(
                    f"server engine {type(engine).__name__} has no "
                    f"{required}() — wrap the index in a QueryEngine"
                )
        self.engine = engine
        self.n = n
        self.config = config if config is not None else ServerConfig()
        self.snapshot_path = str(snapshot_path) if snapshot_path else None
        self.fingerprint = fingerprint
        self.reindexer = reindexer
        self.mutations_applied = 0
        self.metrics_registry = (
            registry if registry is not None else default_registry()
        )
        self.server_id = next(_SERVER_IDS)
        self.run_id = uuid.uuid4().hex
        self.state = STATE_IDLE
        self.port: int | None = None

        # Authoritative plain counters (the audit record reads these);
        # registry metrics mirror them for /metrics scrapes.
        self.request_counts: Counter[str] = Counter()
        self.rejected_counts: Counter[str] = Counter()
        self.queries_answered = 0
        self.batches = 0
        self.batched_queries = 0
        self.max_batch_size = 0
        self.batch_failures = 0
        #: Every engine call (micro-batches, direct batches, mutations)
        #: and the seconds the worker thread spent inside them; only
        #: that one thread writes them.
        self.engine_calls = 0
        self.engine_busy_s = 0.0

        self._latency: dict[str, LatencyHistogram] = {}
        self._batches_counter = self.metrics_registry.counter(
            BATCHES_METRIC, server=self.server_id
        )
        self._failures_counter = self.metrics_registry.counter(
            BATCH_FAILURES_METRIC, server=self.server_id
        )
        self._queue_gauge = self.metrics_registry.gauge(
            QUEUE_DEPTH_METRIC, server=self.server_id
        )

        self._batcher = _MicroBatcher(self)
        self._executor: ThreadPoolExecutor | None = None
        self._asyncio_server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._inflight_requests = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._started_wall = 0.0
        self._started_mono = 0.0
        self._drain_report: dict | None = None
        self.artifact_path: Path | None = None
        self.eval_history_path: Path | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "DistanceServer":
        """Bind the listener and start the micro-batch collector."""
        if self.state != STATE_IDLE:
            raise ServingError(f"cannot start a server in state {self.state!r}")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-serve-{self.server_id}"
        )
        self._batcher.start()
        self._asyncio_server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=_READER_LIMIT,
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        self._started_wall = time.time()
        self._started_mono = time.monotonic()
        self.state = STATE_SERVING
        return self

    async def close(self) -> dict:
        """Graceful drain, audit write, teardown.  Idempotent.

        Returns the drain report: ``{"clean": bool,
        "inflight_at_close": int}``.  ``clean`` is ``False`` only when
        admitted work failed to finish within ``drain_timeout_s``.
        """
        if self.state in (STATE_DRAINING, STATE_STOPPED):
            return self._drain_report or {"clean": True, "inflight_at_close": 0}
        inflight_at_close = self._inflight_requests + self._batcher.pending
        self.state = STATE_DRAINING
        if self._asyncio_server is not None:
            self._asyncio_server.close()
        clean = True
        try:
            await asyncio.wait_for(
                self._batcher.drain(), timeout=self.config.drain_timeout_s
            )
            if self._inflight_requests:
                await asyncio.wait_for(
                    self._idle.wait(), timeout=self.config.drain_timeout_s
                )
        except asyncio.TimeoutError:
            clean = False
        self._drain_report = {
            "clean": clean,
            "inflight_at_close": inflight_at_close,
        }
        finished_wall = time.time()
        if self.config.audit_dir is not None:
            document = self.build_artifact(finished_at=finished_wall)
            self.artifact_path = audit.write_artifact(
                document, self.config.audit_dir
            )
            self.eval_history_path = audit.append_eval_entry(
                self.build_eval_entry(finished_at=finished_wall),
                self.config.audit_dir,
            )
        for writer in list(self._connections):
            writer.close()
        if self.reindexer is not None:
            # Stop the rebuild thread off the event loop; a mid-build
            # cycle finishes (its swap is answer-neutral) before join.
            await asyncio.get_running_loop().run_in_executor(
                None, self.reindexer.stop
            )
        if self._asyncio_server is not None:
            await self._asyncio_server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
        self.state = STATE_STOPPED
        return self._drain_report

    async def __aenter__(self) -> "DistanceServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` once started."""
        if self.port is None:
            raise ServingError("server is not started")
        return (self.config.host, self.port)

    # ------------------------------------------------------------------
    # Admission + engine execution
    # ------------------------------------------------------------------

    def _check_admission(self, count: int) -> None:
        if self.state != STATE_SERVING:
            raise _Refused(
                REASON_DRAINING, 503, "server is draining; request refused"
            )
        if self._batcher.pending + count > self.config.max_queue_depth:
            raise _Refused(
                REASON_OVERLOADED,
                429,
                f"admission queue full "
                f"({self._batcher.pending}/{self.config.max_queue_depth} pending)",
            )

    async def _run_in_engine(self, fn, *args):
        """Run one engine call on the dedicated worker thread."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, self._timed, fn, args)

    def _timed(self, fn, args):
        """Worker-thread side of :meth:`_run_in_engine`: count and time."""
        started = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.engine_busy_s += time.perf_counter() - started
            self.engine_calls += 1

    def _check_vertex(self, value, name: str):
        if isinstance(value, bool) or not isinstance(value, int):
            raise _BadRequest(f"{name!r} must be an integer vertex id")
        if not 0 <= value < self.n:
            raise _BadRequest(
                f"{name}={value} out of range for a graph with n={self.n}"
            )
        return value

    # ------------------------------------------------------------------
    # HTTP layer
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self._count_rejection(REASON_BAD_REQUEST)
                    await self._write_response(
                        writer,
                        400,
                        {"error": REASON_BAD_REQUEST, "detail": exc.detail},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                self._inflight_requests += 1
                self._idle.clear()
                try:
                    status, payload, content_type = await self._dispatch(request)
                    await self._write_response(
                        writer,
                        status,
                        payload,
                        content_type=content_type,
                        keep_alive=request.keep_alive,
                    )
                finally:
                    self._inflight_requests -= 1
                    if not self._inflight_requests:
                        self._idle.set()
                if not request.keep_alive:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> _HttpRequest | None:
        """Parse one HTTP/1.1 request; ``None`` on clean EOF."""
        try:
            blob = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise _BadRequest("truncated request head") from exc
        except asyncio.LimitOverrunError as exc:
            raise _BadRequest("request head too large") from exc
        head = blob.decode("latin-1").split("\r\n")
        parts = head[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise _BadRequest(f"malformed request line {head[0]!r}")
        method, target, version = parts
        headers: dict[str, str] = {}
        for line in head[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        connection = headers.get("connection", "").lower()
        keep_alive = connection != "close" and (
            version != "HTTP/1.0" or connection == "keep-alive"
        )
        body = b""
        if "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError as exc:
                raise _BadRequest("non-numeric Content-Length") from exc
            if length < 0:
                raise _BadRequest("negative Content-Length")
            if length > MAX_BODY_BYTES:
                raise _BadRequest(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte cap"
                )
            body = await reader.readexactly(length)
        return _HttpRequest(
            method=method,
            path=target.split("?", 1)[0],
            headers=headers,
            body=body,
            keep_alive=keep_alive,
        )

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        *,
        content_type: str = "application/json",
        keep_alive: bool = True,
    ) -> None:
        if isinstance(payload, (dict, list)):
            body = json.dumps(payload, allow_nan=False).encode("utf-8")
        else:
            body = str(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(self, request: _HttpRequest):
        """Route one request; returns ``(status, payload, content_type)``."""
        route = (request.method, request.path)
        endpoint = {
            ("POST", "/query"): "query",
            ("POST", "/query/batch"): "query_batch",
            ("POST", "/query/from"): "query_from",
            ("POST", "/mutate"): "mutate",
            ("POST", "/reindex"): "reindex",
            ("GET", "/reindex"): "reindex_status",
            ("GET", "/healthz"): "healthz",
            ("GET", "/metrics"): "metrics",
            ("GET", "/stats"): "stats",
        }.get(route)
        if endpoint is None:
            known_paths = {"/query", "/query/batch", "/query/from",
                           "/mutate", "/reindex",
                           "/healthz", "/metrics", "/stats"}
            if request.path in known_paths:
                return (
                    405,
                    {"error": "method_not_allowed", "detail":
                     f"{request.method} not supported on {request.path}"},
                    "application/json",
                )
            return (
                404,
                {"error": "not_found", "detail": f"no route {request.path}"},
                "application/json",
            )
        started = time.perf_counter()
        self.request_counts[endpoint] += 1
        self.metrics_registry.counter(
            REQUESTS_METRIC, server=self.server_id, endpoint=endpoint
        ).inc()
        try:
            if endpoint == "healthz":
                result = self._handle_healthz()
            elif endpoint == "metrics":
                result = (200, self.metrics_registry.render_prometheus(),
                          "text/plain; version=0.0.4")
            elif endpoint == "stats":
                result = (200, self.stats_snapshot(), "application/json")
            elif endpoint == "mutate":
                result = await self._handle_mutate(request.body)
            elif endpoint == "reindex":
                result = await self._handle_reindex(request.body)
            elif endpoint == "reindex_status":
                result = self._handle_reindex_status()
            else:
                result = await self._handle_query(endpoint, request.body)
        except _BadRequest as exc:
            self._count_rejection(REASON_BAD_REQUEST)
            result = (
                400,
                {"error": REASON_BAD_REQUEST, "detail": exc.detail},
                "application/json",
            )
        except _Refused as exc:
            self._count_rejection(exc.reason)
            result = (
                exc.status,
                {"error": exc.reason, "detail": exc.detail},
                "application/json",
            )
        except Exception as exc:  # noqa: BLE001 - a request never kills the server
            result = (
                500,
                {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                "application/json",
            )
        histogram = self._latency.get(endpoint)
        if histogram is None:
            histogram = self._latency[endpoint] = self.metrics_registry.histogram(
                REQUEST_LATENCY_METRIC, server=self.server_id, endpoint=endpoint
            )
        histogram.record(time.perf_counter() - started)
        return result

    def _count_rejection(self, reason: str) -> None:
        self.rejected_counts[reason] += 1
        self.metrics_registry.counter(
            REJECTED_METRIC, server=self.server_id, reason=reason
        ).inc()

    def _handle_healthz(self):
        healthy = self.state == STATE_SERVING
        payload = {
            "status": "ok" if healthy else self.state,
            "state": self.state,
            "run_id": self.run_id,
            "uptime_s": round(time.monotonic() - self._started_mono, 3),
            "queue_depth": self._batcher.pending,
            "max_queue_depth": self.config.max_queue_depth,
            "n": self.n,
            "snapshot_sha256": self.fingerprint,
        }
        mutable = getattr(self.engine, "mutable_index", None)
        if mutable is not None:
            payload["dynamic"] = {
                "mutation_epoch": mutable.mutation_epoch,
                "patch_size": mutable.patch_size,
                "swap_count": mutable.swap_count,
            }
        return (200 if healthy else 503, payload, "application/json")

    async def _handle_query(self, endpoint: str, body: bytes):
        document = self._parse_json_object(body)
        if endpoint == "query":
            s = self._check_vertex(document.get("s"), "s")
            t = self._check_vertex(document.get("t"), "t")
            future = self._batcher.submit(s, t)
            status, value = await future
            if status != "ok":
                return (
                    500,
                    {"error": "internal", "detail": value},
                    "application/json",
                )
            self.queries_answered += 1
            return (
                200,
                {"distance": audit.encode_weight(value)},
                "application/json",
            )
        if endpoint == "query_batch":
            pairs_field = document.get("pairs")
            if not isinstance(pairs_field, list):
                raise _BadRequest("'pairs' must be a list of [s, t] pairs")
            pairs = []
            for index, pair in enumerate(pairs_field):
                if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                    raise _BadRequest(
                        f"pairs[{index}] is not a two-element [s, t] pair"
                    )
                pairs.append(
                    (
                        self._check_vertex(pair[0], f"pairs[{index}][0]"),
                        self._check_vertex(pair[1], f"pairs[{index}][1]"),
                    )
                )
            return await self._direct(
                len(pairs), self.engine.query_batch, pairs
            )
        # query_from
        s = self._check_vertex(document.get("s"), "s")
        targets_field = document.get("targets")
        if not isinstance(targets_field, list):
            raise _BadRequest("'targets' must be a list of vertex ids")
        targets = [
            self._check_vertex(t, f"targets[{index}]")
            for index, t in enumerate(targets_field)
        ]
        return await self._direct(
            len(targets), self.engine.query_from, s, targets
        )

    async def _direct(self, count: int, fn, *args):
        """Admit + run a direct (non-micro-batched) engine call."""
        self._batcher.reserve(count)
        try:
            values = await self._run_in_engine(fn, *args)
        except Exception as exc:  # noqa: BLE001 - isolated to this request
            self.batch_failures += 1
            self._failures_counter.inc()
            return (
                500,
                {"error": "internal", "detail": f"{type(exc).__name__}: {exc}"},
                "application/json",
            )
        finally:
            self._batcher.release(count)
        self.queries_answered += len(values)
        return (
            200,
            {
                "distances": [audit.encode_weight(v) for v in values],
                "count": len(values),
            },
            "application/json",
        )

    # ------------------------------------------------------------------
    # Dynamic-graph endpoints
    # ------------------------------------------------------------------

    async def _handle_mutate(self, body: bytes):
        """``POST /mutate``: stream edge mutations into the overlay.

        Body shape: ``{"ops": [{"op": "add", "u": 1, "v": 2, "w": 1},
        {"op": "remove", "u": 3, "v": 4}, ...]}``.  Mutations execute on
        the engine worker thread, serialized with query batches.  A
        data-dependent failure mid-stream (removing an absent edge)
        returns 400 with the prefix ops already applied — the response
        says so, and every applied op is still answered exactly.
        """
        document = self._parse_json_object(body)
        ops_field = document.get("ops")
        if not isinstance(ops_field, list):
            raise _BadRequest("'ops' must be a list of mutation objects")
        ops = []
        for index, item in enumerate(ops_field):
            if not isinstance(item, dict):
                raise _BadRequest(f"ops[{index}] is not a mutation object")
            kind = item.get("op")
            if kind not in ("add", "remove"):
                raise _BadRequest(
                    f"ops[{index}].op must be 'add' or 'remove', "
                    f"got {item.get('op')!r}"
                )
            u = self._check_vertex(item.get("u"), f"ops[{index}].u")
            v = self._check_vertex(item.get("v"), f"ops[{index}].v")
            weight = None
            if kind == "add":
                weight = item.get("w", 1)
                if isinstance(weight, bool) or not isinstance(
                    weight, (int, float)
                ):
                    raise _BadRequest(f"ops[{index}].w must be a number")
            ops.append((kind, u, v, weight))
        apply_mutations = getattr(self.engine, "apply_mutations", None)
        if apply_mutations is None:
            raise _BadRequest(
                f"engine {type(self.engine).__name__} does not accept "
                f"mutations"
            )
        self._batcher.reserve(len(ops))
        try:
            applied = await self._run_in_engine(apply_mutations, ops)
        except (GraphError, ConfigurationError) as exc:
            raise _BadRequest(
                f"mutation stream rejected (a prefix may already be "
                f"applied): {exc}"
            ) from exc
        finally:
            self._batcher.release(len(ops))
        self.mutations_applied += applied
        payload = {"applied": applied, "requested": len(ops)}
        mutable = getattr(self.engine, "mutable_index", None)
        if mutable is not None:
            payload["mutation_epoch"] = mutable.mutation_epoch
            payload["patch_size"] = mutable.patch_size
        if self.reindexer is not None:
            payload["reindex_triggered"] = self.reindexer.maybe_trigger()
        return (200, payload, "application/json")

    async def _handle_reindex(self, body: bytes):
        """``POST /reindex``: rebuild-verify-swap, sync or async.

        With ``{"wait": true}`` the cycle runs to completion on the
        default executor (off the engine thread — queries keep flowing)
        and returns its result; otherwise the background reindexer
        thread is nudged and the call returns immediately.
        """
        reindexer = self._require_reindexer()
        document = self._parse_json_object(body) if body else {}
        wait = document.get("wait", False)
        if not isinstance(wait, bool):
            raise _BadRequest("'wait' must be a boolean")
        force = document.get("force", False)
        if not isinstance(force, bool):
            raise _BadRequest("'force' must be a boolean")
        if wait:
            loop = asyncio.get_running_loop()
            result = await loop.run_in_executor(
                None, lambda: reindexer.rebuild_once(force=force)
            )
            return (200, {"result": result.summary()}, "application/json")
        reindexer.request_rebuild()
        return (
            200,
            {"requested": True, "status": reindexer.status()},
            "application/json",
        )

    def _handle_reindex_status(self):
        """``GET /reindex``: the reindexer's status document."""
        return (200, self._require_reindexer().status(), "application/json")

    def _require_reindexer(self):
        if self.reindexer is None:
            raise _BadRequest(
                "server has no background reindexer (start with --dynamic)"
            )
        return self.reindexer

    @staticmethod
    def _parse_json_object(body: bytes) -> dict:
        if not body:
            raise _BadRequest("empty request body (expected a JSON object)")
        try:
            document = json.loads(body)
        except json.JSONDecodeError as exc:
            raise _BadRequest(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise _BadRequest("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------
    # Introspection + audit
    # ------------------------------------------------------------------

    def stats_snapshot(self) -> dict:
        """Server counters plus the engine's own snapshot (when it has one)."""
        snapshot = {
            "run_id": self.run_id,
            "state": self.state,
            "requests": dict(self.request_counts),
            "rejected": dict(self.rejected_counts),
            "queries_answered": self.queries_answered,
            "queue_depth": self._batcher.pending,
            "batches": self.batches,
            "batched_queries": self.batched_queries,
            "batch_failures": self.batch_failures,
            "mean_batch_size": self._mean_batch_size(),
            "max_batch_size": self.max_batch_size,
            "engine_calls": self.engine_calls,
            "engine_busy_s": round(self.engine_busy_s, 6),
            "latency": {
                endpoint: histogram.snapshot()
                for endpoint, histogram in self._latency.items()
                if histogram.count
            },
        }
        if self.mutations_applied:
            snapshot["mutations_applied"] = self.mutations_applied
        if self.reindexer is not None:
            snapshot["reindex"] = self.reindexer.status()
        engine_stats = getattr(self.engine, "stats_snapshot", None)
        if callable(engine_stats):
            snapshot["engine"] = engine_stats()
        return snapshot

    def _mean_batch_size(self) -> float:
        if not self.batches:
            return 0.0
        return round(self.batched_queries / self.batches, 3)

    def _query_latency(self) -> LatencyHistogram:
        """All query endpoints' latency folded into one histogram."""
        merged = LatencyHistogram()
        for endpoint in ("query", "query_batch", "query_from"):
            histogram = self._latency.get(endpoint)
            if histogram is not None:
                merged.merge(histogram)
        return merged

    def build_artifact(self, *, finished_at: float | None = None) -> dict:
        """The run's ``artifact.json`` document (schema-valid by contract)."""
        finished = finished_at if finished_at is not None else time.time()
        drain = self._drain_report or {
            "clean": False,
            "inflight_at_close": self._inflight_requests + self._batcher.pending,
        }
        return audit.validate_artifact(
            {
                "schema": audit.ARTIFACT_SCHEMA_NAME,
                "schema_version": audit.SCHEMA_VERSION,
                "run_id": self.run_id,
                "started_at": audit.utc_timestamp(self._started_wall),
                "finished_at": audit.utc_timestamp(finished),
                "duration_s": round(max(finished - self._started_wall, 0.0), 3),
                "snapshot": {
                    "path": self.snapshot_path,
                    "sha256": self.fingerprint,
                    "n": self.n,
                    "engine": type(self.engine).__name__,
                },
                "config": self.config.as_dict() | {"port": self.port or 0},
                "counters": {
                    "requests": dict(self.request_counts),
                    "queries_answered": self.queries_answered,
                    "rejected": dict(self.rejected_counts),
                    "batches": self.batches,
                    "batched_queries": self.batched_queries,
                    "batch_failures": self.batch_failures,
                },
                "batching": {
                    "mean_batch_size": self._mean_batch_size(),
                    "max_batch_size": self.max_batch_size,
                },
                "latency": {
                    endpoint: audit.latency_summary(histogram)
                    for endpoint, histogram in sorted(self._latency.items())
                },
                "drain": drain,
            }
        )

    def build_eval_entry(self, *, finished_at: float | None = None) -> dict:
        """The run's ``eval_history.jsonl`` line (schema-valid by contract)."""
        finished = finished_at if finished_at is not None else time.time()
        duration = max(finished - self._started_wall, 1e-9)
        summary = audit.latency_summary(self._query_latency())
        return audit.validate_eval_entry(
            {
                "schema": audit.EVAL_SCHEMA_NAME,
                "schema_version": audit.SCHEMA_VERSION,
                "timestamp": audit.utc_timestamp(finished),
                "run_id": self.run_id,
                "duration_s": round(duration, 3),
                "requests": sum(self.request_counts.values()),
                "queries_answered": self.queries_answered,
                "rps": round(self.queries_answered / duration, 3),
                "p50_us": summary["p50_us"],
                "p99_us": summary["p99_us"],
                "p999_us": summary["p999_us"],
            }
        )


async def serve_forever(
    server: DistanceServer,
    *,
    install_signals: bool = True,
    ready=None,
    stop_event: asyncio.Event | None = None,
) -> dict:
    """Run ``server`` until SIGTERM/SIGINT, then drain gracefully.

    ``ready`` (when given) is called with the started server — the CLI
    uses it to print the bound address.  ``stop_event`` lets callers
    (and tests) request the same graceful shutdown a signal would.
    Returns the drain report from :meth:`DistanceServer.close`.
    """
    import signal

    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    installed: list = []
    await server.start()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                continue  # platform without loop signal support
            installed.append(signum)
    if ready is not None:
        ready(server)
    try:
        await stop.wait()
        # Handlers stay installed through the drain: a repeated SIGTERM
        # while close() is writing the audit record must stay a no-op
        # (stop is already set), not revert to the default disposition
        # and kill the process mid-write.
        report = await server.close()
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
    return report


__all__ = [
    "BATCHES_METRIC",
    "BATCH_FAILURES_METRIC",
    "DistanceServer",
    "MAX_BODY_BYTES",
    "QUEUE_DEPTH_METRIC",
    "REASON_BAD_REQUEST",
    "REASON_DRAINING",
    "REASON_OVERLOADED",
    "REJECTED_METRIC",
    "REQUESTS_METRIC",
    "REQUEST_LATENCY_METRIC",
    "STATE_DRAINING",
    "STATE_IDLE",
    "STATE_SERVING",
    "STATE_STOPPED",
    "ServerConfig",
    "serve_forever",
]
