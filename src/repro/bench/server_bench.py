"""Server benchmark: sustained RPS + tail latency through the HTTP front-end.

``repro server-bench`` is the load generator for
:class:`~repro.serving.server.DistanceServer`: it builds (or accepts)
a CT-Index, starts the server in-process, and replays a random-pair
workload as concurrent single-pair ``POST /query`` requests over N
keep-alive client connections — the shape that exercises the
micro-batcher, since every request arrives independently and leaves
as part of a shared ``query_batch`` call.

Measurement discipline matches the other BENCH artifacts:

* **identity first** — every answer the server returns is compared to
  a direct :class:`~repro.serving.QueryEngine` replay of the same
  workload; any mismatch raises and *nothing is recorded*;
* **audit second** — the server's shutdown ``artifact.json`` must
  validate against the checked-in schema and its snapshot SHA-256 must
  match the served index's own digest;
* only then does one schema-1 entry (client-side p50/p99/p999, RPS,
  server-side batching shape) append to ``BENCH_serve.json``.

Latency is measured client-side (request write to response parse), so
the recorded percentiles include any wait for the engine — the latency
a network caller actually observes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import time
import zlib
from pathlib import Path

from repro.bench.datasets import load_dataset
from repro.bench.workloads import random_pairs
from repro.core.ct_index import CTIndex
from repro.exceptions import ReproError
from repro.graphs.graph import Graph
from repro.obs.metrics import LatencyHistogram
from repro.serving.audit import (
    fingerprint_sha256,
    latency_summary,
    read_eval_history,
    validate_artifact,
)
from repro.serving.client import ServeClient
from repro.serving.engine import QueryEngine
from repro.serving.server import DistanceServer, ServerConfig

#: Default artifact path, relative to the working directory.
BENCH_SERVE_PATH = "BENCH_serve.json"

#: Version of the ``BENCH_serve.json`` document this module writes.
BENCH_SERVE_SCHEMA = 1

#: Requests in the replayed workload.
DEFAULT_REQUEST_COUNT = 2000

#: Concurrent keep-alive client connections.
DEFAULT_CONCURRENCY = 8


@dataclasses.dataclass
class ServerBenchResult:
    """One load-generator run against an in-process server."""

    name: str
    n: int
    m: int
    bandwidth: int
    requests: int
    concurrency: int
    batch_window_ms: float
    duration_s: float
    rps: float
    latency: dict
    batches: int
    mean_batch_size: float
    max_batch_size: int
    artifact: dict
    verified: bool
    artifact_valid: bool

    def entry(self) -> dict:
        """JSON-ready record for ``BENCH_serve.json`` (schema 1)."""
        return {
            "schema": BENCH_SERVE_SCHEMA,
            "dataset": self.name,
            "n": self.n,
            "m": self.m,
            "bandwidth": self.bandwidth,
            "requests": self.requests,
            "concurrency": self.concurrency,
            "batch_window_ms": self.batch_window_ms,
            "duration_s": round(self.duration_s, 4),
            "rps": round(self.rps, 1),
            "p50_us": self.latency["p50_us"],
            "p99_us": self.latency["p99_us"],
            "p999_us": self.latency["p999_us"],
            "mean_us": self.latency["mean_us"],
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 2),
            "max_batch_size": self.max_batch_size,
            "answers_verified": self.verified,
            "artifact_valid": self.artifact_valid,
        }

    def row(self) -> dict:
        """Flat row for table rendering."""
        return {
            "dataset": self.name,
            "requests": self.requests,
            "conc": self.concurrency,
            "rps": round(self.rps, 1),
            "p50_us": round(self.latency["p50_us"], 1),
            "p99_us": round(self.latency["p99_us"], 1),
            "p999_us": round(self.latency["p999_us"], 1),
            "mean_batch": round(self.mean_batch_size, 2),
            "verified": self.verified,
        }


async def _drive_load(
    server: DistanceServer,
    pairs: list,
    concurrency: int,
    histogram: LatencyHistogram,
) -> tuple[list, float]:
    """Replay ``pairs`` through ``concurrency`` clients; answers in order."""
    host, port = server.address
    answers: list = [None] * len(pairs)
    clients = [ServeClient(host, port) for _ in range(concurrency)]

    async def worker(client: ServeClient, offset: int) -> None:
        async with client:
            for index in range(offset, len(pairs), concurrency):
                s, t = pairs[index]
                started = time.perf_counter()
                answers[index] = await client.query(s, t)
                histogram.record(time.perf_counter() - started)

    started = time.perf_counter()
    await asyncio.gather(
        *(worker(client, offset) for offset, client in enumerate(clients))
    )
    elapsed = time.perf_counter() - started
    return answers, elapsed


def server_bench_result(
    graph: Graph,
    bandwidth: int,
    *,
    name: str = "graph",
    requests: int = DEFAULT_REQUEST_COUNT,
    concurrency: int = DEFAULT_CONCURRENCY,
    batch_window_ms: float = ServerConfig.batch_window_ms,
    kernel: str | None = None,
    audit_dir=None,
) -> ServerBenchResult:
    """Measure one graph; raises :class:`ReproError` on any divergence.

    ``audit_dir`` (when given) keeps the run's ``artifact.json`` /
    ``eval_history.jsonl`` around after the bench — the CI smoke uses
    it to upload the audit record as a workflow artifact.
    """
    import tempfile

    index = CTIndex.build(graph, bandwidth, backend="flat", kernel=kernel or "auto")
    digest = fingerprint_sha256(index)
    workload = random_pairs(graph, requests, seed=zlib.crc32(name.encode()))
    pairs = list(workload.pairs)
    expected = QueryEngine(index).query_batch(pairs)
    histogram = LatencyHistogram()

    async def run(directory: str):
        config = ServerConfig(
            port=0,
            batch_window_ms=batch_window_ms,
            batch_max_size=max(concurrency * 4, 16),
            max_queue_depth=max(concurrency * 64, 256),
            audit_dir=directory,
        )
        server = DistanceServer(
            QueryEngine(index),
            n=graph.n,
            config=config,
            fingerprint=digest,
        )
        async with server:
            answers, elapsed = await _drive_load(
                server, pairs, concurrency, histogram
            )
            batches = server.batches
            batched = server.batched_queries
            max_batch = server.max_batch_size
        artifact = json.loads(server.artifact_path.read_text(encoding="utf-8"))
        history = read_eval_history(server.eval_history_path)
        return answers, elapsed, batches, batched, max_batch, artifact, history

    if audit_dir is not None:
        outcome = asyncio.run(run(str(audit_dir)))
    else:
        with tempfile.TemporaryDirectory(prefix="repro-server-bench-") as tmp:
            outcome = asyncio.run(run(tmp))
    answers, elapsed, batches, batched, max_batch, artifact, history = outcome

    diverging = sum(a != b for a, b in zip(answers, expected))
    if diverging:
        raise ReproError(
            f"served answers diverge from direct QueryEngine on {name!r}: "
            f"{diverging} of {len(pairs)} differ — refusing to record "
            f"throughput for a wrong server"
        )
    validate_artifact(artifact)
    if artifact["snapshot"]["sha256"] != digest:
        raise ReproError(
            f"audit record fingerprints a different index "
            f"({artifact['snapshot']['sha256']!r} != {digest!r})"
        )
    if not history:
        raise ReproError("server wrote no eval_history.jsonl entry")

    return ServerBenchResult(
        name=name,
        n=graph.n,
        m=graph.m,
        bandwidth=bandwidth,
        requests=len(pairs),
        concurrency=concurrency,
        batch_window_ms=batch_window_ms,
        duration_s=elapsed,
        rps=len(pairs) / (elapsed or 1e-9),
        latency=latency_summary(histogram),
        batches=batches,
        mean_batch_size=(batched / batches) if batches else 0.0,
        max_batch_size=max_batch,
        artifact=artifact,
        verified=True,
        artifact_valid=True,
    )


def record_server_entry(result: ServerBenchResult, path=BENCH_SERVE_PATH) -> dict:
    """Append ``result`` to the ``BENCH_serve.json`` history document.

    Same contract as the other BENCH artifacts: the document is
    ``{"schema": 1, "entries": [...]}``, a missing or corrupt file
    starts a fresh history, and the appended entry is returned.
    """
    path = Path(path)
    document: dict = {"schema": BENCH_SERVE_SCHEMA, "entries": []}
    if path.exists():
        try:
            loaded = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(loaded, dict) and isinstance(loaded.get("entries"), list):
                document = loaded
                document["schema"] = BENCH_SERVE_SCHEMA
        except (OSError, json.JSONDecodeError):
            pass
    entry = result.entry()
    entry["recorded_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    document["entries"].append(entry)
    path.write_text(
        json.dumps(document, indent=2, allow_nan=False) + "\n", encoding="utf-8"
    )
    return entry


def run_server_bench(
    names=("fb",),
    *,
    bandwidth: int = 20,
    requests: int = DEFAULT_REQUEST_COUNT,
    concurrency: int = DEFAULT_CONCURRENCY,
    output=BENCH_SERVE_PATH,
) -> list[ServerBenchResult]:
    """Dataset-registry driver: one verified entry per name."""
    results = []
    for name in names:
        result = server_bench_result(
            load_dataset(name),
            bandwidth,
            name=name,
            requests=requests,
            concurrency=concurrency,
        )
        if output is not None:
            record_server_entry(result, output)
        results.append(result)
    return results


__all__ = [
    "BENCH_SERVE_PATH",
    "BENCH_SERVE_SCHEMA",
    "DEFAULT_CONCURRENCY",
    "DEFAULT_REQUEST_COUNT",
    "ServerBenchResult",
    "record_server_entry",
    "run_server_bench",
    "server_bench_result",
]
