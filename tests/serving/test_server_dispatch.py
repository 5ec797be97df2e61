"""The micro-batcher's dispatch contract, checked by event order alone.

A single-pair request goes to the engine as soon as the engine is idle;
pairs that arrive while a call runs wait and leave together in the next
call, split at ``batch_max_size``; and the engine never runs two calls
at once.  Every test holds the engine on a gate and asserts what
reached it and in which order, never how long anything took — the
waits below only bound how long a broken server can hang the suite.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.core.ct_index import CTIndex
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.obs.registry import MetricsRegistry
from repro.serving import DistanceServer, QueryEngine, ServeClient, ServerConfig


@pytest.fixture(scope="module")
def setup():
    cfg = CorePeripheryConfig(core_size=25, community_count=4, fringe_size=75)
    graph = core_periphery_graph(cfg, seed=41)
    index = CTIndex.build(graph, 5, backend="flat")
    return graph, index


class RecordingGateEngine:
    """Engine that logs every call on entry, then waits for the gate.

    ``calls`` holds ``(kind, payload)`` in entry order; ``max_active``
    is the most calls ever inside the engine at once.
    """

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.calls: list = []
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def _enter(self, kind, payload):
        with self._lock:
            self.calls.append((kind, payload))
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        assert self.gate.wait(timeout=30), "test never opened the gate"

    def _leave(self):
        with self._lock:
            self.active -= 1

    def query_batch(self, pairs):
        self._enter("query_batch", list(pairs))
        try:
            return self.inner.query_batch(pairs)
        finally:
            self._leave()

    def query_from(self, s, targets):
        self._enter("query_from", (s, list(targets)))
        try:
            return self.inner.query_from(s, targets)
        finally:
            self._leave()


def make_server(engine, graph, **config_kwargs):
    return DistanceServer(
        engine,
        n=graph.n,
        config=ServerConfig(port=0, **config_kwargs),
        registry=MetricsRegistry(),
    )


async def until(predicate, what: str) -> None:
    """Yield to the loop until ``predicate()`` holds (bounded)."""
    for _ in range(3000):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"never reached: {what}")


async def one_query(host, port, s, t):
    async with ServeClient(host, port) as client:
        return await client.query(s, t)


def batch_sizes(engine):
    return [len(payload) for kind, payload in engine.calls if kind == "query_batch"]


class TestDispatch:
    def test_default_window_is_zero(self):
        assert ServerConfig().batch_window_ms == 0.0

    def test_lone_query_reaches_the_engine_on_its_own(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))

        async def main():
            server = make_server(engine, graph)
            async with server:
                host, port = server.address
                pending = asyncio.ensure_future(one_query(host, port, 0, 7))
                # Nothing else is sent: the one pair must still arrive.
                await until(lambda: engine.calls, "the engine saw the query")
                calls = list(engine.calls)
                engine.gate.set()
                answer = await pending
                stats = server.stats_snapshot()
            return calls, answer, stats

        calls, answer, stats = asyncio.run(main())
        assert calls == [("query_batch", [(0, 7)])]
        assert answer == QueryEngine(index).query(0, 7)
        assert stats["batches"] == 1
        assert stats["engine_calls"] == 1

    def test_arrivals_during_a_call_leave_together(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))
        waiting = [(1, t) for t in range(2, 9)]

        async def main():
            server = make_server(engine, graph)
            async with server:
                host, port = server.address
                first = asyncio.ensure_future(one_query(host, port, 0, 1))
                await until(lambda: engine.calls, "the first call entered")
                rest = [
                    asyncio.ensure_future(one_query(host, port, s, t))
                    for s, t in waiting
                ]
                await until(
                    lambda: server._batcher.pending == 1 + len(waiting),
                    "every waiting pair was admitted",
                )
                engine.gate.set()
                answers = await asyncio.gather(first, *rest)
            return answers

        answers = asyncio.run(main())
        assert batch_sizes(engine) == [1, len(waiting)]
        assert engine.calls[0] == ("query_batch", [(0, 1)])
        assert sorted(engine.calls[1][1]) == waiting
        assert answers == QueryEngine(index).query_batch([(0, 1)] + waiting)

    def test_a_long_queue_splits_at_batch_max_size(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))
        waiting = [(2, t) for t in range(10)]

        async def main():
            server = make_server(engine, graph, batch_max_size=4)
            async with server:
                host, port = server.address
                first = asyncio.ensure_future(one_query(host, port, 0, 1))
                await until(lambda: engine.calls, "the first call entered")
                rest = [
                    asyncio.ensure_future(one_query(host, port, s, t))
                    for s, t in waiting
                ]
                await until(
                    lambda: server._batcher.pending == 1 + len(waiting),
                    "every waiting pair was admitted",
                )
                engine.gate.set()
                await asyncio.gather(first, *rest)
                stats = server.stats_snapshot()
            return stats

        stats = asyncio.run(main())
        assert batch_sizes(engine) == [1, 4, 4, 2]
        assert sorted(p for _, batch in engine.calls[1:] for p in batch) == waiting
        assert stats["max_batch_size"] == 4
        assert stats["mean_batch_size"] == round(11 / 4, 3)

    def test_engine_never_runs_two_calls_at_once(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))
        singles = [(3, t) for t in range(5)]
        pairs = [(4, t) for t in range(6)]
        targets = list(range(0, graph.n, 9))

        async def main():
            server = make_server(engine, graph, batch_max_size=2)
            async with server:
                host, port = server.address

                async def batch():
                    async with ServeClient(host, port) as client:
                        return await client.query_batch(pairs)

                async def from_source():
                    async with ServeClient(host, port) as client:
                        return await client.query_from(5, targets)

                tasks = [asyncio.ensure_future(batch())]
                tasks += [
                    asyncio.ensure_future(one_query(host, port, s, t))
                    for s, t in singles
                ]
                tasks.append(asyncio.ensure_future(from_source()))
                total = len(pairs) + len(singles) + len(targets)
                await until(
                    lambda: server._batcher.pending == total,
                    "every request was admitted",
                )
                engine.gate.set()
                results = await asyncio.gather(*tasks)
                stats = server.stats_snapshot()
            return results, stats

        results, stats = asyncio.run(main())
        direct = QueryEngine(index)
        assert results[0] == direct.query_batch(pairs)
        assert results[1:-1] == direct.query_batch(singles)
        assert results[-1] == direct.query_from(5, targets)
        assert engine.max_active == 1
        assert stats["engine_calls"] == len(engine.calls)
        assert {kind for kind, _ in engine.calls} == {"query_batch", "query_from"}


class TestCloseFlushes:
    def test_pairs_queued_behind_a_call_are_flushed(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))
        waiting = [(6, t) for t in range(3)]

        async def main():
            server = make_server(engine, graph)
            await server.start()
            host, port = server.address
            first = asyncio.ensure_future(one_query(host, port, 0, 1))
            await until(lambda: engine.calls, "the first call entered")
            rest = [
                asyncio.ensure_future(one_query(host, port, s, t))
                for s, t in waiting
            ]
            await until(
                lambda: server._batcher.pending == 1 + len(waiting),
                "every waiting pair was admitted",
            )
            closing = asyncio.ensure_future(server.close())
            engine.gate.set()
            report = await closing
            answers = await asyncio.gather(first, *rest)
            return report, answers

        report, answers = asyncio.run(main())
        assert report["clean"] is True
        assert batch_sizes(engine) == [1, len(waiting)]
        assert answers == QueryEngine(index).query_batch([(0, 1)] + waiting)

    def test_close_cuts_an_opt_in_hold_short(self, setup):
        graph, index = setup
        engine = RecordingGateEngine(QueryEngine(index))
        engine.gate.set()
        queued = [(7, t) for t in range(3)]

        async def main():
            # An hour-long hold: only close() can send this batch before
            # the drain timeout would report an unclean drain.
            server = make_server(engine, graph, batch_window_ms=3_600_000.0)
            await server.start()
            host, port = server.address
            tasks = [
                asyncio.ensure_future(one_query(host, port, s, t))
                for s, t in queued
            ]
            await until(
                lambda: server._batcher.pending == len(queued),
                "every pair was admitted",
            )
            calls_before_close = list(engine.calls)
            report = await server.close()
            answers = await asyncio.gather(*tasks)
            return calls_before_close, report, answers

        calls_before_close, report, answers = asyncio.run(main())
        assert calls_before_close == []
        assert report["clean"] is True
        assert batch_sizes(engine) == [len(queued)]
        assert answers == QueryEngine(index).query_batch(queued)
