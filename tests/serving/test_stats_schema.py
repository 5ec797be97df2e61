"""Regression: ``stats_snapshot()`` keeps its shape on the shared registry.

The engine's histograms migrated from private ``repro.serving.metrics``
instances onto the process-wide :mod:`repro.obs` registry; downstream
consumers (``serve-bench``, monitoring glue) read the snapshot document,
so its key structure is a compatibility contract.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.core.ct_index import CTIndex
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.obs.registry import MetricsRegistry
from repro.serving import DistanceServer, ServeClient, ServerConfig
from repro.serving.engine import (
    CASE_LATENCY_METRIC,
    REQUEST_LATENCY_METRIC,
    QueryEngine,
)
from repro.serving.metrics import BUCKET_EDGES, LatencyHistogram


@pytest.fixture(scope="module")
def index():
    cfg = CorePeripheryConfig(core_size=30, community_count=5, fringe_size=100)
    graph = core_periphery_graph(cfg, seed=13)
    return CTIndex.build(graph, 4)


class TestSnapshotSchema:
    def test_top_level_keys_and_types(self, index):
        engine = QueryEngine(index, cache_capacity=64)
        engine.query(0, 50)
        engine.query_batch([(1, 2), (3, 4)])
        engine.query_from(0, [5, 6])
        snap = engine.stats_snapshot()
        assert set(snap) == {"requests", "queries", "latency", "cases", "pair_cache", "index"}
        assert snap["requests"] == {"single": 1, "batch_pairs": 1, "batch_from": 1}
        assert snap["queries"] == 5
        assert set(snap["latency"]) == {"single", "batch_pairs", "batch_from"}
        for histogram in snap["latency"].values():
            assert {"count", "mean_us", "min_us", "max_us", "p50_us", "p95_us", "p99_us", "buckets"} <= set(histogram)
        for case_snapshot in snap["cases"].values():
            assert case_snapshot["count"] >= 1
        assert set(snap["pair_cache"]) == {"hits", "misses", "hit_rate", "capacity", "invalidations"}
        assert snap["index"]["method"].startswith("CT")
        assert {"case_counts", "core_probes", "extension_cache"} <= set(snap["index"])

    def test_index_block_reports_the_resolved_kernel(self, index):
        # Regression: the ``kernel`` field joined the index block when
        # the vectorized kernels landed; serve-bench and monitoring glue
        # read it to attribute latency numbers to one code path.
        snap = QueryEngine(index).stats_snapshot()
        assert snap["index"]["kernel"] in ("numpy", "python")
        assert snap["index"]["kernel"] == index.kernel

    def test_kernel_field_follows_the_engine_kernel_argument(self, index):
        engine = QueryEngine(index, kernel="python")
        snap = engine.stats_snapshot()
        assert snap["index"]["kernel"] == "python"

    def test_kernel_field_defaults_to_python_for_plain_indexes(self, index):
        from repro.caching import CachedDistanceIndex

        wrapped = QueryEngine(CachedDistanceIndex(index, capacity=8))
        assert wrapped.stats_snapshot()["index"]["kernel"] == "python"

    def test_empty_engine_snapshot_shape(self, index):
        snap = QueryEngine(index).stats_snapshot()
        assert snap["requests"] == {}
        assert snap["queries"] == 0
        assert snap["latency"] == {}
        assert "cases" not in snap
        assert "pair_cache" not in snap
        assert snap["index"]["method"].startswith("CT")

    def test_histograms_live_in_the_registry(self, index):
        registry = MetricsRegistry()
        engine = QueryEngine(index, registry=registry)
        engine.query(0, 30)
        assert REQUEST_LATENCY_METRIC in registry
        assert CASE_LATENCY_METRIC in registry
        single = registry.histogram(
            REQUEST_LATENCY_METRIC, engine=engine.engine_id, kind="single"
        )
        assert single is engine.request_histograms["single"]
        assert single.count == 1

    def test_two_engines_share_a_registry_without_clashing(self, index):
        registry = MetricsRegistry()
        first = QueryEngine(index, registry=registry)
        second = QueryEngine(index, registry=registry)
        first.query(0, 10)
        assert first.request_histograms["single"].count == 1
        assert second.request_histograms["single"].count == 0

    def test_reset_stats_preserves_registry_identity(self, index):
        registry = MetricsRegistry()
        engine = QueryEngine(index, registry=registry)
        engine.query(0, 10)
        handle = engine.request_histograms["single"]
        engine.reset_stats()
        assert engine.request_histograms["single"] is handle
        assert handle.count == 0
        assert engine.stats_snapshot()["queries"] == 0

    def test_serving_metrics_shim_reexports_the_primitives(self):
        from repro.obs import metrics as obs_metrics

        assert LatencyHistogram is obs_metrics.LatencyHistogram
        assert BUCKET_EDGES is obs_metrics.BUCKET_EDGES


class TestServerStats:
    """``DistanceServer.stats_snapshot()`` / ``GET /stats`` batching fields."""

    def test_batching_and_engine_fields_over_the_wire(self, index):
        async def main():
            server = DistanceServer(
                QueryEngine(index),
                n=index.graph.n,
                config=ServerConfig(port=0),
                registry=MetricsRegistry(),
            )
            async with server:
                host, port = server.address
                async with ServeClient(host, port) as client:
                    before = await client.stats()
                    await client.query(0, 50)
                    await client.query_batch([(1, 2), (3, 4)])
                    after = await client.stats()
            return before, after

        before, after = asyncio.run(main())
        for key in ("engine_calls", "engine_busy_s", "mean_batch_size", "max_batch_size"):
            assert key in before and key in after
        assert before["engine_calls"] == 0
        assert before["engine_busy_s"] == 0.0
        assert before["mean_batch_size"] == 0.0
        assert before["max_batch_size"] == 0
        # One micro-batch of one pair, plus one direct batch call.
        assert after["batches"] == 1
        assert after["engine_calls"] == 2
        assert after["mean_batch_size"] == 1.0
        assert after["max_batch_size"] == 1
        assert 0.0 < after["engine_busy_s"] < math.inf
