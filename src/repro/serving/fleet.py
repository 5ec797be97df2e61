"""Multi-process serving fleet over one memory-mapped snapshot.

One process can only exploit one core, and a CT-Index is read-only at
serving time — the natural scale-out is N worker processes each
mapping the *same* binary snapshot with ``mmap=True``.  The mapped
label pages are shared through the OS page cache, so N workers cost
roughly one index of resident memory plus N small interpreter heaps,
not N full copies (the measurement ``repro fleet-bench`` records).

Topology:

* The parent (:class:`ServingFleet`) maps the snapshot too — cheaply,
  thanks to the lazy mapped load — and acts as the request router.
* Each worker (:func:`_worker_main`, spawn-picklable) maps the
  snapshot, wraps it in a :class:`~repro.serving.engine.QueryEngine`,
  and serves a request loop over its own ``multiprocessing`` request
  queue; answers come back on that worker's own response queue tagged
  with request ids.  Response channels are deliberately *not* shared:
  a worker SIGKILLed while its queue feeder thread holds a shared
  write lock would leave the lock acquired forever and silence every
  surviving writer.  With one queue per worker, a wedged channel can
  only belong to a dead worker — which the liveness check in
  :meth:`ServingFleet._collect` turns into a :class:`FleetError`
  instead of a hang.
* Routing is **affinity only**: every worker holds the full index and
  can answer any pair, but sources from the same tree of the forest
  are steered to the same worker so its extension-label LRU and pair
  cache stay hot.  Trees are assigned to workers with the same LPT
  balancing the parallel builder uses
  (:func:`repro.parallel.chunking.balanced_tasks`, one task per
  worker), weighted by tree size; core sources round-robin.

Workers shut down gracefully: :meth:`ServingFleet.shutdown` (also run
by the context manager) sends each worker a shutdown message, waits
for the acknowledgement, and joins the process — ``terminate`` is the
last resort for a worker that stopped draining its queue.

Identity is verifiable end to end: :meth:`ServingFleet.fingerprints`
asks every worker for the SHA-256 of its
:func:`~repro.core.serialization.index_fingerprint` and compares it to
the parent's own digest, so a fleet can prove all workers serve the
same index the parent routed for.  ``repro fleet-bench`` records no
throughput row until that check and a full answer-identity replay
against single-process serving both pass.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import queue as queue_module
import time
from pathlib import Path

from repro.exceptions import ConfigurationError
from repro.serving.errors import ServingError

#: How long (seconds) the parent waits for a worker to map the
#: snapshot and report ready before declaring the start failed.
START_TIMEOUT = 60.0

#: How long the parent waits for a shutdown acknowledgement before
#: escalating to ``terminate``.
SHUTDOWN_TIMEOUT = 10.0

#: How often (seconds) a blocked :meth:`ServingFleet._collect` checks
#: whether the worker owning the awaited request is still alive.
LIVENESS_POLL_SECONDS = 0.2


#: Sentinel for "no response yet" (a real payload may be ``None``).
_NO_RESPONSE = object()


class FleetError(ServingError):
    """A worker failed to start, answer, or verify."""


class BatchTicket:
    """An in-flight :meth:`ServingFleet.submit_batch` dispatch."""

    __slots__ = ("size", "sent")

    def __init__(self, size: int, sent: list) -> None:
        self.size = size
        self.sent = sent


def _resident_kb() -> int:
    """This process's resident set size in KiB (Linux ``/proc``; 0 if unknown)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _fingerprint_digest(index) -> str:
    """SHA-256 hex digest of the index's canonical fingerprint."""
    from repro.core.serialization import index_fingerprint

    return hashlib.sha256(index_fingerprint(index)).hexdigest()


def _worker_main(
    worker_id: int,
    snapshot_path: str,
    kernel: str | None,
    cache_capacity: int | None,
    requests,
    responses,
) -> None:
    """One fleet worker: map the snapshot, serve the request loop.

    Module-level (not a closure) so the spawn start method can pickle
    it.  Every response is ``(worker_id, req_id, status, payload)``
    with ``status`` ``"ok"`` or ``"error"``; the loop never lets an
    exception escape a request — the error text is the payload and the
    loop keeps serving.
    """
    from repro.serving.engine import QueryEngine
    from repro.storage.binary import load_ct_index_binary

    try:
        index = load_ct_index_binary(snapshot_path, mmap=True)
        engine = QueryEngine(index, kernel=kernel, cache_capacity=cache_capacity)
    except Exception as exc:  # noqa: BLE001 - report, parent raises
        responses.put((worker_id, "_ready", "error", repr(exc)))
        return
    responses.put((worker_id, "_ready", "ok", os.getpid()))
    while True:
        message = requests.get()
        kind, req_id = message[0], message[1]
        if kind == "shutdown":
            responses.put((worker_id, req_id, "ok", None))
            return
        try:
            if kind == "query":
                payload = engine.query(message[2], message[3])
            elif kind == "batch":
                payload = engine.query_batch(message[2])
            elif kind == "from":
                payload = engine.query_from(message[2], message[3])
            elif kind == "stats":
                payload = engine.stats_snapshot()
            elif kind == "fingerprint":
                payload = _fingerprint_digest(index)
            elif kind == "rss":
                payload = _resident_kb()
            else:
                raise FleetError(f"unknown fleet request kind {kind!r}")
        except Exception as exc:  # noqa: BLE001 - serialized to parent
            responses.put((worker_id, req_id, "error", repr(exc)))
        else:
            responses.put((worker_id, req_id, "ok", payload))


class ServingFleet:
    """Route distance queries across N snapshot-mapping worker processes.

    Parameters
    ----------
    snapshot_path:
        A binary snapshot (``repro.save(..., format="binary")``).
        Every worker maps it with ``mmap=True``.
    workers:
        Process count (>= 1).
    kernel:
        Forwarded to each worker's :class:`QueryEngine` (``"numpy"`` /
        ``"python"`` / ``"auto"``; ``None`` keeps the index default).
    cache_capacity:
        Per-worker pair-cache capacity (``None`` serves uncached).

    The fleet is a context manager::

        with ServingFleet("index.bin", workers=4) as fleet:
            fleet.verify()
            fleet.query_batch(pairs)
    """

    def __init__(
        self,
        snapshot_path,
        workers: int = 2,
        *,
        kernel: str | None = None,
        cache_capacity: int | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(
                f"fleet worker count must be positive, got {workers}"
            )
        from repro.storage.binary import load_ct_index_binary

        self.snapshot_path = Path(snapshot_path)
        self.workers = workers
        self.kernel = kernel
        self.cache_capacity = cache_capacity
        # The parent maps the snapshot for routing metadata only (the
        # lazy mapped load makes this near-free) and never answers
        # queries itself.
        self._index = load_ct_index_binary(self.snapshot_path, mmap=True)
        self._route = _TreeRouter(self._index, workers)
        self._req_ids = itertools.count()
        self._pending: dict[int, tuple[int, str, object]] = {}
        #: req_id -> worker id, for liveness checks while waiting.
        self._owner: dict[int, int] = {}
        self._closed = False

        ctx = multiprocessing.get_context("spawn")
        # One response queue per worker (see the module docstring): a
        # shared queue's write lock outlives a worker killed mid-write
        # and would wedge every surviving worker's answers.
        self._responses = [ctx.Queue() for _ in range(workers)]
        self._requests = [ctx.Queue() for _ in range(workers)]
        self._processes = [
            ctx.Process(
                target=_worker_main,
                args=(
                    i,
                    str(self.snapshot_path),
                    kernel,
                    cache_capacity,
                    self._requests[i],
                    self._responses[i],
                ),
                daemon=True,
            )
            for i in range(workers)
        ]
        for process in self._processes:
            process.start()
        try:
            deadline = time.monotonic() + START_TIMEOUT
            for i in range(workers):
                while True:
                    try:
                        worker_id, req_id, status, payload = self._responses[i].get(
                            timeout=LIVENESS_POLL_SECONDS
                        )
                        break
                    except queue_module.Empty:
                        if not self._processes[i].is_alive():
                            raise FleetError(
                                f"fleet worker {i} died during startup "
                                f"(exit code {self._processes[i].exitcode})"
                            ) from None
                        if time.monotonic() >= deadline:
                            raise FleetError(
                                f"fleet worker {i} failed to report ready "
                                f"within {START_TIMEOUT:.0f}s"
                            ) from None
                if req_id != "_ready":  # pragma: no cover - protocol guard
                    raise FleetError(f"unexpected pre-ready message {req_id!r}")
                if status != "ok":
                    raise FleetError(f"fleet worker {worker_id} failed to start: {payload}")
        except Exception:
            self._kill()
            raise

    # ------------------------------------------------------------------
    # Query entry points
    # ------------------------------------------------------------------

    def query(self, s: int, t: int):
        """One pair, answered by the worker owning ``s``'s tree."""
        worker = self._route.worker_for(s)
        return self._collect(self._send(worker, "query", s, t))

    def query_batch(self, pairs) -> list:
        """A pairwise batch, sharded by source affinity.

        Pairs are grouped by their source's worker and each group is
        sent as one sub-batch, so the groups run concurrently across
        the fleet; answers come back in input order.
        """
        return self.gather(self.submit_batch(pairs))

    def submit_batch(self, pairs) -> "BatchTicket":
        """Dispatch a batch without waiting (pipelined serving).

        The pairs are sharded and enqueued to their affinity workers
        immediately; the returned ticket is redeemed with
        :meth:`gather`.  Submitting several batches before gathering
        the first keeps every worker busy across batch boundaries —
        the shape a loaded server (and ``repro fleet-bench``) runs.
        """
        pairs = list(pairs)
        groups: dict[int, list[int]] = {}
        for i, (s, _) in enumerate(pairs):
            groups.setdefault(self._route.worker_for(s), []).append(i)
        sent = [
            (self._send(worker, "batch", [pairs[i] for i in indices]), indices)
            for worker, indices in groups.items()
        ]
        return BatchTicket(len(pairs), sent)

    def gather(self, ticket: "BatchTicket") -> list:
        """Answers for a :meth:`submit_batch` ticket, in input order."""
        results: list = [None] * ticket.size
        for req_id, indices in ticket.sent:
            values = self._collect(req_id)
            for i, value in zip(indices, values):
                results[i] = value
        return results

    def query_from(self, s: int, targets) -> list:
        """One-to-many from ``s``, answered by ``s``'s affinity worker."""
        worker = self._route.worker_for(s)
        return self._collect(self._send(worker, "from", s, list(targets)))

    # ------------------------------------------------------------------
    # Introspection and verification
    # ------------------------------------------------------------------

    def stats(self) -> list[dict]:
        """Each worker's ``QueryEngine.stats_snapshot()``, by worker id."""
        return self._broadcast("stats")

    def resident_kb(self) -> list[int]:
        """Each worker's resident set size in KiB (plus see ``_resident_kb``)."""
        return self._broadcast("rss")

    def fingerprints(self) -> list[str]:
        """Each worker's index-fingerprint digest, by worker id."""
        return self._broadcast("fingerprint")

    def verify(self) -> str:
        """Check every worker serves the parent's exact index.

        Returns the common digest; raises :class:`FleetError` naming
        the first divergent worker otherwise.
        """
        expected = _fingerprint_digest(self._index)
        for worker_id, digest in enumerate(self.fingerprints()):
            if digest != expected:
                raise FleetError(
                    f"fleet worker {worker_id} serves a different index "
                    f"(fingerprint {digest[:12]}… != parent {expected[:12]}…)"
                )
        return expected

    @property
    def index(self):
        """The parent's own (routing) index."""
        return self._index

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Gracefully stop every worker (idempotent).

        Each worker gets a shutdown message and acknowledges it before
        the parent joins the process; a worker that fails to
        acknowledge within ``SHUTDOWN_TIMEOUT`` seconds is terminated.
        """
        if self._closed:
            return
        self._closed = True
        acks = []
        for worker in range(self.workers):
            if self._processes[worker].is_alive():
                acks.append(self._send(worker, "shutdown"))
        for req_id in acks:
            try:
                self._collect(req_id, timeout=SHUTDOWN_TIMEOUT)
            except FleetError:
                pass  # escalation below
        for process in self._processes:
            process.join(timeout=SHUTDOWN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=SHUTDOWN_TIMEOUT)
        for queue in (*self._requests, *self._responses):
            queue.close()

    def _kill(self) -> None:
        """Hard-stop every worker (failed start path)."""
        self._closed = True
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=SHUTDOWN_TIMEOUT)

    def __enter__(self) -> "ServingFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # Wire protocol
    # ------------------------------------------------------------------

    def _send(self, worker: int, kind: str, *payload) -> int:
        if self._closed and kind != "shutdown":
            raise FleetError("fleet is shut down")
        req_id = next(self._req_ids)
        self._owner[req_id] = worker
        self._requests[worker].put((kind, req_id, *payload))
        return req_id

    def _collect(self, req_id: int, *, timeout: float | None = None):
        """The payload for ``req_id``, parking out-of-order answers.

        The wait reads the owning worker's response queue — each
        worker has its own, so a sibling's death can never block this
        request's channel.  Never hangs on a dead worker either: the
        wait polls in ``LIVENESS_POLL_SECONDS`` slices and, when the
        queue runs dry, checks that the owner is still alive — a
        worker that died mid-request raises a :class:`FleetError`
        naming it (and its exit code) instead of blocking forever.
        """
        if req_id in self._pending:
            _, status, payload = self._pending.pop(req_id)
            self._owner.pop(req_id, None)
            return self._finish(status, payload)
        deadline = None if timeout is None else time.monotonic() + timeout
        owner = self._owner.get(req_id)
        if owner is None:
            # Never dispatched (or already delivered): there is no
            # queue to wait on, so the explicit timeout is the only
            # legitimate wait.
            if deadline is None:
                raise FleetError(f"unknown fleet request {req_id}")
            while time.monotonic() < deadline:
                time.sleep(LIVENESS_POLL_SECONDS)
                if req_id in self._pending:  # pragma: no cover - race guard
                    _, status, payload = self._pending.pop(req_id)
                    return self._finish(status, payload)
            raise FleetError(f"timed out waiting for fleet response {req_id}")
        while True:
            try:
                worker_id, got_id, status, payload = self._responses[owner].get(
                    timeout=LIVENESS_POLL_SECONDS
                )
            except queue_module.Empty:
                found = self._check_waiter(req_id)
                if found is not _NO_RESPONSE:
                    return found
                if deadline is not None and time.monotonic() >= deadline:
                    self._owner.pop(req_id, None)
                    raise FleetError(
                        f"timed out waiting for fleet response {req_id}"
                    )
                continue
            self._owner.pop(got_id, None)
            if got_id == req_id:
                return self._finish(status, payload)
            self._pending[got_id] = (worker_id, status, payload)

    def _check_waiter(self, req_id: int):
        """Liveness check for a dry response queue.

        Returns the finished payload if the awaited response raced in
        during a final drain; raises :class:`FleetError` when the
        owning worker is dead; returns :data:`_NO_RESPONSE` to keep
        waiting (the payload itself may legitimately be ``None``).
        """
        owner = self._owner.get(req_id)
        if owner is None or self._processes[owner].is_alive():
            return _NO_RESPONSE
        # The worker is dead — drain anything it managed to send before
        # dying (its answer may have raced with the liveness check).
        while True:
            try:
                worker_id, got_id, status, payload = self._responses[owner].get_nowait()
            except queue_module.Empty:
                break
            self._owner.pop(got_id, None)
            if got_id == req_id:
                return self._finish(status, payload)
            self._pending[got_id] = (worker_id, status, payload)
        self._owner.pop(req_id, None)
        exitcode = self._processes[owner].exitcode
        raise FleetError(
            f"fleet worker {owner} died (exit code {exitcode}) with "
            f"request {req_id} outstanding"
        )

    @staticmethod
    def _finish(status: str, payload):
        if status != "ok":
            raise FleetError(f"fleet worker request failed: {payload}")
        return payload

    def _broadcast(self, kind: str) -> list:
        req_ids = [self._send(worker, kind) for worker in range(self.workers)]
        return [self._collect(req_id) for req_id in req_ids]


class _TreeRouter:
    """Source node -> worker id, by tree affinity.

    Forest trees are LPT-assigned to workers weighted by member count
    (one task per worker); core sources — which have no tree — cycle
    round-robin so no single worker absorbs all core traffic.
    """

    __slots__ = (
        "_n",
        "_workers",
        "_representative",
        "_position",
        "_root",
        "_root_to_worker",
        "_rr",
    )

    def __init__(self, index, workers: int) -> None:
        from repro.parallel.chunking import balanced_tasks

        decomposition = index.tree_index.decomposition
        self._n = index.graph.n
        self._workers = workers
        self._representative = index.reduction.representative
        self._position = decomposition.position
        self._root = decomposition.root
        sized = [
            (root, len(members))
            for root, members in sorted(decomposition.tree_members().items())
        ]
        tasks = balanced_tasks(sized, workers, tasks_per_worker=1) if sized else []
        self._root_to_worker = {
            root: task_index % workers
            for task_index, task in enumerate(tasks)
            for root in task
        }
        self._rr = itertools.count()

    def worker_for(self, s: int) -> int:
        if not 0 <= s < self._n:
            # Let the worker's engine raise the library's own range
            # error; routing just needs somewhere deterministic.
            return 0
        representative = self._representative[s]
        position = self._position[representative]
        if position is None:
            return next(self._rr) % self._workers
        return self._root_to_worker[self._root[position]]


__all__ = [
    "BatchTicket",
    "FleetError",
    "ServingFleet",
    "SHUTDOWN_TIMEOUT",
    "START_TIMEOUT",
]
