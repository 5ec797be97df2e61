"""The serving stage's client: one process, ``CONNECTIONS`` keep-alive connections.

Three phases send single-pair ``POST /query`` requests:

* a warm-up at the open-loop rate, discarded;
* an open loop at a fixed rate.  Each request is timed from the moment
  it was due, so a stall also delays the requests queued behind it, and
  the generator's own lateness is kept as a validity check;
* a closed loop: each connection sends its next request as soon as the
  previous answer arrives.

Then the gate pairs go over the same connections.
"""

from __future__ import annotations

import asyncio
import time

from perfbench.workloads import CONNECTIONS, OPEN_LOOP_RPS, pairs

# A request record is a tuple: due, enqueued, sent, received (monotonic
# ns), s, t, and the decoded answer (None when the request failed).


async def _ask(client, s: int, t: int):
    from repro.serving.client import ServeResponseError

    try:
        return await client.query(s, t)
    except (ServeResponseError, OSError, EOFError, asyncio.TimeoutError):
        return None


async def open_loop(clients, rate: float, work) -> list[tuple]:
    """Send ``work`` at ``rate`` per second, whatever the answers' pace."""
    queue: asyncio.Queue = asyncio.Queue()
    records: list[tuple] = []

    async def worker(client) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            due, enqueued, (s, t) = item
            sent = time.monotonic_ns()
            answer = await _ask(client, s, t)
            records.append((due, enqueued, sent, time.monotonic_ns(), s, t, answer))

    tasks = [asyncio.create_task(worker(client)) for client in clients]
    interval = 1e9 / rate
    start = time.monotonic_ns() + 1_000_000
    for i, pair in enumerate(work):
        due = start + int(i * interval)
        delay = (due - time.monotonic_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        queue.put_nowait((due, time.monotonic_ns(), pair))
    for _ in tasks:
        queue.put_nowait(None)
    await asyncio.gather(*tasks)
    return records


async def closed_loop(clients, duration: float, rng, n: int):
    records: list[tuple] = []
    deadline = time.monotonic_ns() + int(duration * 1e9)

    async def worker(client) -> None:
        while time.monotonic_ns() < deadline:
            s, t = rng.randrange(n), rng.randrange(n)
            sent = time.monotonic_ns()
            answer = await _ask(client, s, t)
            records.append((sent, sent, sent, time.monotonic_ns(), s, t, answer))

    started = time.monotonic_ns()
    await asyncio.gather(*(worker(client) for client in clients))
    return records, (time.monotonic_ns() - started) / 1e9


async def answer_all(clients, work) -> list:
    answers = [None] * len(work)

    async def worker(offset: int, client) -> None:
        for i in range(offset, len(work), len(clients)):
            answers[i] = await _ask(client, *work[i])

    await asyncio.gather(*(worker(i, client) for i, client in enumerate(clients)))
    return answers


async def drive(port: int, plan, rng, n: int, gate) -> dict:
    """Run every phase against ``127.0.0.1:port``; returns raw records."""
    from repro.serving.client import ServeClient

    clients = [ServeClient("127.0.0.1", port) for _ in range(CONNECTIONS)]
    try:
        for client in clients:
            await client.connect()
        warm = pairs(rng, n, max(1, int(OPEN_LOOP_RPS * plan.warmup_s)))
        warmup = await open_loop(clients, OPEN_LOOP_RPS, warm)
        timed = pairs(rng, n, max(1, int(OPEN_LOOP_RPS * plan.open_s)))
        opened = await open_loop(clients, OPEN_LOOP_RPS, timed)
        closed, closed_s = await closed_loop(clients, plan.closed_s, rng, n)
        gate_answers = await answer_all(clients, gate)
    finally:
        for client in clients:
            await client.close()
    return {
        "warmup": warmup,
        "open": opened,
        "closed": closed,
        "closed_s": closed_s,
        "gate": gate_answers,
    }


def windows(records, size: int) -> list[list[tuple]]:
    """``records`` in due-time order, cut into equal windows of about
    ``size`` requests (at least one window)."""
    ordered = sorted(records)
    count = max(1, len(ordered) // size)
    return [
        ordered[i * len(ordered) // count:(i + 1) * len(ordered) // count]
        for i in range(count)
    ]


def join_engine_calls(requests, calls) -> list[tuple]:
    """Match each request to the engine call that answered it.

    Returns ``(request, call)`` pairs; a request matches the call that
    holds its pair and lies inside its send/receive interval.
    """
    by_pair: dict[tuple[int, int], list] = {}
    for call in calls:
        for s, t in call[2]:
            by_pair.setdefault((s, t), []).append(call)
    joined = []
    for record in requests:
        sent, received = record[2], record[3]
        for call in by_pair.get((record[4], record[5]), ()):
            if sent <= call[0] and call[1] <= received:
                joined.append((record, call))
                break
    return joined
