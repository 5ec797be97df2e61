"""Shared-memory construction engine (experimental tier).

The PR 2 parallel path predates the flat backend and the vectorized PSL
kernel: it spins a fresh process pool per level, pickles a full label
snapshot into every worker, and runs the per-vertex dict rounds.  This
module replaces that plumbing for NumPy builds with one persistent,
spawn-safe worker pool per build and ``multiprocessing.shared_memory``
blocks for every large input, so ``workers=N`` finally composes with
``kernel="numpy"`` and ``backend="flat"``:

* **PSL rounds** — the committed CSR label arrays and each round's
  frontier live in shared blocks; each worker runs the *existing*
  chunked scratch kernel (:func:`repro.kernels.psl_rounds._run_round`)
  over a contiguous destination-vertex range of the shared adjacency and
  returns only its compact accepted-key delta.  Candidate generation,
  dedup, and pruning for a vertex range are exactly the global
  computation restricted to that range (each round reads only labels of
  strictly earlier rounds), and sorted composite keys are owner-major,
  so concatenating the per-range deltas in ascending range order
  reproduces the serial round's sorted accepted set — the parent then
  commits through the very same :func:`~repro.kernels.psl_rounds.
  commit_level` the serial loop uses.  ``index_fingerprint()`` is
  byte-identical to the serial path for every worker count by
  construction.

* **Forest fan-out** — the decomposition's bag arrays (elimination
  order, bag CSR with wedge weights, node positions) go into shared
  blocks once instead of pickling the decomposition object into each
  worker; workers rebuild the decomposition from them with the same
  derivation the parent ran and call the same
  :func:`repro.core.construction.compute_tree_labels`, keeping the LPT
  task balancing of :func:`repro.parallel.forest.forest_tasks`.

Shared blocks are named ``repro_shm_<pid>_<seq>`` and always unlinked by
the creating parent (``try/finally``), so a build — successful, failed,
or killed mid-round — leaves nothing in ``/dev/shm`` (CI asserts this).
Workers attach without resource-tracker registration: before Python
3.13, attaching registers the segment with the *child's* tracker, which
unlinks it when the child exits — yanking live state out from under the
parent (python/cpython#82300).  :func:`_attach` passes ``track=False``
where available and suppresses the registration call otherwise.
"""

from __future__ import annotations

import os
import queue
import time
import traceback
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.exceptions import IndexConstructionError
from repro.kernels.psl_rounds import (
    _INF,
    _Scratch,
    _run_round,
    build_csr_adjacency,
    commit_level,
    edge_owners,
    init_label_state,
    record_round_stats,
)
from repro.obs.tracing import span as obs_span, tracing_enabled
from repro.parallel.pool import pool_context

#: Prefix of every shared-memory block this engine creates; the CI leak
#: check greps ``/dev/shm`` for it after the scale job.
SHM_PREFIX = "repro_shm"

#: Per-worker result-poll interval; short enough that a SIGKILLed
#: worker is noticed promptly (lesson from the PR 7 fleet hangs).
_POLL_SECONDS = 0.2

#: Default ceiling on how long the parent waits for one fan-out.
_COLLECT_TIMEOUT = 600.0

#: Monotone per-process sequence for block names and build ids.
_SEQ = 0


def _next_seq() -> int:
    global _SEQ
    _SEQ += 1
    return _SEQ


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker registration.

    The creating parent owns unlink; a tracked attach would let the
    first exiting worker's resource tracker unlink blocks the build is
    still using (fixed upstream by ``track=`` in Python 3.13).  Before
    3.13 the registration call is suppressed outright rather than
    undone after the fact: under ``fork`` the tracker process is shared
    with the parent, so a child-side ``unregister`` would strip the
    *parent's* registration and leave the tracker complaining when the
    parent later unlinks for real.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register


class ShmArena:
    """Parent-side owner of a build's shared blocks.

    Every block is created here and unlinked in :meth:`close`; callers
    wrap a build phase in ``try/finally arena.close()`` so no segment
    survives the phase whatever happens inside it.
    """

    def __init__(self) -> None:
        self._blocks: dict[str, shared_memory.SharedMemory] = {}

    def create(self, nbytes: int) -> shared_memory.SharedMemory:
        """A fresh zero-filled block of at least ``nbytes`` bytes."""
        while True:
            name = f"{SHM_PREFIX}_{os.getpid()}_{_next_seq()}"
            try:
                shm = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, int(nbytes))
                )
            except FileExistsError:  # pragma: no cover - seq collision
                continue
            self._blocks[shm.name] = shm
            return shm

    def put(self, arr: np.ndarray) -> tuple[str, str, int]:
        """Copy ``arr`` into a fresh block; returns its slot spec.

        A spec is ``(block_name, dtype_str, length)`` — everything a
        worker needs to rebuild the view with :meth:`WorkerAttachments.view`.
        """
        arr = np.ascontiguousarray(arr)
        shm = self.create(arr.nbytes)
        np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size)[:] = arr
        return (shm.name, arr.dtype.str, int(arr.size))

    def release(self, name: str) -> None:
        """Close and unlink one block (channel growth drops the old one)."""
        shm = self._blocks.pop(name, None)
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:  # pragma: no cover - exported view still alive
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def close(self) -> None:
        """Unlink every block this arena still owns."""
        for name in list(self._blocks):
            self.release(name)


class _Channel:
    """One logical growing array slot backed by an arena block.

    Re-publishing a round's labels or frontier reuses the block while
    the array fits and regrows geometrically when it does not, so the
    steady state is one memcpy per round, zero allocations.
    """

    def __init__(self, arena: ShmArena, dtype: np.dtype) -> None:
        self._arena = arena
        self._dtype = np.dtype(dtype)
        self._shm: shared_memory.SharedMemory | None = None
        self._capacity = 0

    def put(self, arr: np.ndarray) -> tuple[str, str, int]:
        arr = np.ascontiguousarray(arr, dtype=self._dtype)
        if arr.size > self._capacity:
            if self._shm is not None:
                self._arena.release(self._shm.name)
            self._capacity = max(int(arr.size * 3 // 2) + 1, 1024)
            self._shm = self._arena.create(self._capacity * self._dtype.itemsize)
        assert self._shm is not None
        np.frombuffer(self._shm.buf, dtype=self._dtype, count=arr.size)[:] = arr
        return (self._shm.name, self._dtype.str, int(arr.size))


class WorkerAttachments:
    """Worker-side cache of attached blocks, keyed by block name."""

    def __init__(self) -> None:
        self._attached: dict[str, shared_memory.SharedMemory] = {}

    def view(self, spec: tuple[str, str, int]) -> np.ndarray:
        name, dtype_str, length = spec
        shm = self._attached.get(name)
        if shm is None:
            shm = _attach(name)
            self._attached[name] = shm
        return np.frombuffer(shm.buf, dtype=np.dtype(dtype_str), count=length)

    def prune(self, active: set[str]) -> None:
        """Drop attachments to blocks the current task no longer names.

        Called at task start, before any view of this task exists, so
        the previous task's views have been garbage-collected and the
        underlying mmaps can close.
        """
        for name in list(self._attached):
            if name not in active:
                shm = self._attached.pop(name)
                try:
                    shm.close()
                except BufferError:  # pragma: no cover - view still alive
                    self._attached[name] = shm

    def close(self) -> None:
        self.prune(set())


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------


def _psl_round_task(atts: WorkerAttachments, state: dict, payload: dict) -> dict:
    """One round's gather + prune over this worker's vertex range."""
    slots = payload["slots"]
    atts.prune({spec[0] for spec in slots.values()})
    views = {slot: atts.view(spec) for slot, spec in slots.items()}

    n = payload["n"]
    if state.get("psl_build") != payload["build_id"]:
        state["psl_build"] = payload["build_id"]
        state["psl_owners"] = {}
        state["psl_scratch"] = _Scratch()
        state["psl_dist_buf"] = np.full(n, _INF, dtype=np.int64)

    lo, hi = payload["lo"], payload["hi"]
    adj_indptr = views["adj_indptr"]
    owners = state["psl_owners"].get((lo, hi))
    if owners is None:
        owners = edge_owners(adj_indptr, lo, hi)
        state["psl_owners"][(lo, hi)] = owners

    e0, e1 = int(adj_indptr[lo]), int(adj_indptr[hi])
    started = time.perf_counter()
    accepted = _run_round(
        np.int64(n),
        views["adj"][e0:e1],
        owners,
        views["rank"],
        views["order"],
        views["lab_keys"],
        views["lab_dists"],
        views["lab_indptr"],
        views["fr_indptr"],
        views["fr_hubs"],
        state["psl_dist_buf"],
        state["psl_scratch"],
        payload["level"],
    )
    return {
        "accepted": accepted.tobytes(),
        "kernel_s": time.perf_counter() - started,
    }


def _forest_view(atts: WorkerAttachments, state: dict, payload: dict):
    """Rebuild (or reuse) this build's decomposition from the shared bags.

    The worker adopts the parent's bag arrays and derives parents,
    roots and interfaces with the same
    :meth:`~repro.treedec.core_tree.CoreTreeDecomposition.from_elimination`
    the parent ran, so :func:`repro.core.construction.compute_tree_labels`
    runs on the same values as the serial sweep — which keeps the forest
    half byte-identical.  The worker's elimination carries the bags
    only: no graph and no core rows, which forest labels never read.
    """
    from repro.treedec.core_tree import CoreTreeDecomposition
    from repro.treedec.elimination import EliminationResult

    if state.get("forest_build") == payload["build_id"]:
        return state["forest_view"]
    arrays = {slot: atts.view(spec).tolist() for slot, spec in payload["slots"].items()}
    elimination = EliminationResult(
        graph=None,
        order=arrays["order"],
        offsets=arrays["offsets"],
        neighbors=arrays["neighbors"],
        local=arrays["local"],
        position=[p if p >= 0 else None for p in arrays["position"]],
        core_nodes=[],
        core_counts=[],
        core_targets=[],
        core_weights=[],
        bandwidth=None,
    )
    view = CoreTreeDecomposition.from_elimination(elimination)
    state["forest_build"] = payload["build_id"]
    state["forest_view"] = view
    return view


def _forest_task(atts: WorkerAttachments, state: dict, payload: dict) -> dict:
    """Label one balanced group of whole trees."""
    from repro.core.construction import compute_tree_labels

    atts.prune({spec[0] for spec in payload["slots"].values()})
    view = _forest_view(atts, state, payload)
    positions = atts.view(payload["positions"]).tolist()
    labels: dict[int, dict] = {}
    compute_tree_labels(view, positions, labels)
    return {"labels": labels}


def _worker_main(worker_index: int, task_q, result_q) -> None:
    """Persistent worker loop: serve PSL-round and forest tasks until told to stop."""
    import resource

    atts = WorkerAttachments()
    state: dict = {}
    try:
        while True:
            kind, payload = task_q.get()
            if kind == "shutdown":
                break
            try:
                if kind == "psl_round":
                    result = _psl_round_task(atts, state, payload)
                elif kind == "forest":
                    result = _forest_task(atts, state, payload)
                else:
                    raise IndexConstructionError(f"unknown shm task kind {kind!r}")
                result_q.put(("ok", worker_index, payload["task_id"], result))
            except BaseException as exc:
                result_q.put(
                    (
                        "error",
                        worker_index,
                        payload.get("task_id"),
                        repr(exc),
                        traceback.format_exc(),
                    )
                )
    finally:
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            result_q.put(("exit", worker_index, {"maxrss_kb": int(maxrss_kb)}))
        except Exception:  # pragma: no cover - queue torn down already
            pass
        atts.close()


# ----------------------------------------------------------------------
# Parent-side pool
# ----------------------------------------------------------------------


class ShmBuildPool:
    """A persistent worker pool shared by one build's fan-outs.

    Created once per build (``construct`` owns the lifecycle), reused by
    every PSL round and the forest fan-out — no per-round process spawn,
    no snapshot pickling.  Each worker has its own task queue; results
    come back on one shared queue polled with a short timeout plus
    liveness checks, so a worker killed mid-round surfaces as an
    :class:`~repro.exceptions.IndexConstructionError` instead of a hang.
    On shutdown every worker reports its ``ru_maxrss``, which feeds the
    child-aware peak-RSS accounting of :mod:`repro.bench.memory`.
    """

    def __init__(self, workers: int, *, context=None) -> None:
        if workers < 1:
            raise IndexConstructionError(
                f"shm pool needs at least one worker, got {workers}"
            )
        ctx = context if context is not None else pool_context()
        self.workers = workers
        self.start_method = ctx.get_start_method()
        self.exit_reports: list[dict] = []
        self._closed = False
        self._result_q = ctx.Queue()
        self._task_qs = [ctx.Queue() for _ in range(workers)]
        self._procs = []
        for i in range(workers):
            proc = ctx.Process(
                target=_worker_main,
                args=(i, self._task_qs[i], self._result_q),
                daemon=True,
                name=f"repro-shm-worker-{i}",
            )
            proc.start()
            self._procs.append(proc)

    def submit(self, worker_index: int, kind: str, payload: dict) -> None:
        """Enqueue one task on a specific worker's queue."""
        self._task_qs[worker_index].put((kind, payload))

    def _check_alive(self) -> None:
        for i, proc in enumerate(self._procs):
            if not proc.is_alive():
                raise IndexConstructionError(
                    f"shm worker {i} died mid-build (exit code {proc.exitcode})"
                )

    def collect(self, expected: int, *, timeout: float = _COLLECT_TIMEOUT) -> dict:
        """Gather ``expected`` task results, keyed by ``task_id``.

        Raises :class:`IndexConstructionError` when a worker reports an
        error, dies, or the deadline passes — never hangs on a silent
        worker death.
        """
        results: dict = {}
        deadline = time.monotonic() + timeout
        while len(results) < expected:
            try:
                message = self._result_q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                self._check_alive()
                if time.monotonic() > deadline:
                    raise IndexConstructionError(
                        f"shm pool timed out waiting for {expected - len(results)} "
                        f"of {expected} task results"
                    )
                continue
            kind = message[0]
            if kind == "ok":
                results[message[2]] = message[3]
            elif kind == "error":
                _, worker_index, _, summary, trace = message
                raise IndexConstructionError(
                    f"shm worker {worker_index} failed: {summary}\n{trace}"
                )
            elif kind == "exit":  # pragma: no cover - defensive
                raise IndexConstructionError(
                    f"shm worker {message[1]} exited mid-build"
                )
        return results

    def shutdown(self, *, timeout: float = 10.0) -> list[dict]:
        """Stop every worker, gather exit reports, and record child RSS.

        Idempotent and tolerant of already-dead workers (a failed build
        shuts the pool down after the error surfaced).  Returns the exit
        reports, each ``{"worker": i, "maxrss_kb": ...}``.
        """
        if self._closed:
            return self.exit_reports
        self._closed = True
        for i, proc in enumerate(self._procs):
            if proc.is_alive():
                try:
                    self._task_qs[i].put(("shutdown", {}))
                except Exception:  # pragma: no cover - queue torn down
                    pass
        pending = set(range(self.workers))
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            try:
                message = self._result_q.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                pending = {i for i in pending if self._procs[i].is_alive()}
                continue
            if message[0] == "exit":
                worker_index = message[1]
                if worker_index in pending:
                    pending.discard(worker_index)
                    self.exit_reports.append(
                        {"worker": worker_index, **message[2]}
                    )
            # stale ok/error results from an aborted round are dropped
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=2.0)
        for q in (*self._task_qs, self._result_q):
            q.cancel_join_thread()
            q.close()
        from repro.bench.memory import record_child_peak_rss

        for report in self.exit_reports:
            record_child_peak_rss(report.get("maxrss_kb", 0))
        return self.exit_reports

    def __enter__(self) -> "ShmBuildPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# PSL round fan-out
# ----------------------------------------------------------------------


def _edge_balanced_ranges(adj_indptr: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Contiguous destination-vertex ranges of near-equal edge mass.

    Fixed once per build; deterministic in the graph and worker count
    (the *output* is range-independent anyway, this only balances work).
    """
    n = adj_indptr.size - 1
    parts = max(1, min(parts, n))
    total = int(adj_indptr[-1])
    bounds = [0]
    for k in range(1, parts):
        target = (total * k) // parts
        b = int(np.searchsorted(adj_indptr, target, side="left"))
        b = max(b, bounds[-1] + 1)
        b = min(b, n - (parts - k))
        bounds.append(b)
    bounds.append(n)
    return [
        (bounds[i], bounds[i + 1])
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]


def run_shm_rounds(
    graph,
    rank: list[int],
    order: list[int],
    *,
    pool: ShmBuildPool,
    budget,
    budget_exempt: frozenset[int],
    stats_out: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Run every PSL round fanned out over ``pool``; returns the CSR state.

    Same contract as
    :func:`repro.kernels.psl_rounds.run_numpy_rounds_csr` — identical
    committed labels, identical budget charge order — with each round's
    candidate generation partitioned by destination-vertex range across
    the pool's workers.
    """
    n = graph.n
    adj_indptr, adj = build_csr_adjacency(graph)
    rank_arr = np.asarray(rank, dtype=np.int64)
    order_arr = np.asarray(order, dtype=np.int64)
    lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs = init_label_state(rank_arr)

    ranges = _edge_balanced_ranges(adj_indptr, pool.workers)
    build_id = f"{os.getpid()}_{_next_seq()}"
    arena = ShmArena()
    try:
        static = {
            "adj_indptr": arena.put(adj_indptr),
            "adj": arena.put(adj),
            "rank": arena.put(rank_arr),
            "order": arena.put(order_arr),
        }
        channels = {
            slot: _Channel(arena, np.int64)
            for slot in ("lab_keys", "lab_dists", "lab_indptr", "fr_indptr", "fr_hubs")
        }
        level = 0
        while True:
            level += 1
            slots = dict(static)
            slots["lab_keys"] = channels["lab_keys"].put(lab_keys)
            slots["lab_dists"] = channels["lab_dists"].put(lab_dists)
            slots["lab_indptr"] = channels["lab_indptr"].put(lab_indptr)
            slots["fr_indptr"] = channels["fr_indptr"].put(fr_indptr)
            slots["fr_hubs"] = channels["fr_hubs"].put(fr_hubs)
            with obs_span(
                "labeling.psl.level", level=level, workers=len(ranges)
            ) as level_span:
                for task_id, (lo, hi) in enumerate(ranges):
                    pool.submit(
                        task_id % pool.workers,
                        "psl_round",
                        {
                            "task_id": task_id,
                            "build_id": build_id,
                            "n": n,
                            "level": level,
                            "lo": lo,
                            "hi": hi,
                            "slots": slots,
                        },
                    )
                results = pool.collect(len(ranges))
                # Ascending-range concatenation of owner-major sorted keys
                # is globally sorted: the serial accepted set, exactly.
                parts = [
                    np.frombuffer(results[t]["accepted"], dtype=np.int64)
                    for t in range(len(ranges))
                ]
                accepted = np.concatenate(parts)
                kernel_seconds = max(
                    results[t]["kernel_s"] for t in range(len(ranges))
                )
                if tracing_enabled():
                    level_span.set(
                        additions=int(accepted.size),
                        worker_kernel_s=[
                            round(results[t]["kernel_s"], 4)
                            for t in range(len(ranges))
                        ],
                    )
            if accepted.size == 0:
                record_round_stats(stats_out, level, kernel_seconds, 0.0, 0)
                break
            merge_started = time.perf_counter()
            lab_keys, lab_dists, lab_indptr, fr_indptr, fr_hubs = commit_level(
                n,
                lab_keys,
                lab_dists,
                accepted,
                level,
                budget=budget,
                budget_exempt=budget_exempt,
            )
            record_round_stats(
                stats_out,
                level,
                kernel_seconds,
                time.perf_counter() - merge_started,
                int(accepted.size),
            )
    finally:
        arena.close()
    return lab_keys, lab_dists, lab_indptr, level


# ----------------------------------------------------------------------
# Forest fan-out
# ----------------------------------------------------------------------


def _pack_forest(decomposition) -> dict[str, np.ndarray]:
    """The decomposition's bag arrays, as the shared blocks workers adopt.

    Integer wedge weights stay ``int64`` so workers recover exact Python
    ints; any fractional weight switches the weight array to ``float64``
    (where the serial labels are floats too).
    """
    elimination = decomposition.elimination
    local = np.asarray(elimination.local)
    if local.dtype.kind not in "iu":
        local = local.astype(np.float64)
    return {
        "order": np.asarray(elimination.order, dtype=np.int64),
        "offsets": np.asarray(elimination.offsets, dtype=np.int64),
        "neighbors": np.asarray(elimination.neighbors, dtype=np.int64),
        "local": local,
        "position": np.asarray(
            [-1 if p is None else p for p in elimination.position], dtype=np.int64
        ),
    }


def parallel_tree_labels_shm(decomposition, *, pool: ShmBuildPool) -> list[dict]:
    """All forest labels via the shared pool — zero pickled inputs.

    Same output as :func:`repro.parallel.forest.parallel_tree_labels`
    (the boundary-sized label list in position order); the decomposition
    travels as shared arrays instead of a pickled object, and the tasks
    keep the LPT whole-tree balancing.
    """
    from repro.parallel.forest import forest_tasks

    boundary = decomposition.boundary
    labels: list[dict] = [{} for _ in range(boundary)]
    tasks = forest_tasks(decomposition, pool.workers)
    if not tasks:
        return labels

    build_id = f"{os.getpid()}_{_next_seq()}"
    arena = ShmArena()
    try:
        slots = {name: arena.put(arr) for name, arr in _pack_forest(decomposition).items()}
        # Tasks come heaviest-first from forest_tasks; assigning each to
        # the least-loaded worker queue is LPT over the fixed queues.
        loads = [0] * pool.workers
        with obs_span(
            "parallel.forest_fanout", tasks=len(tasks), workers=pool.workers, shm=True
        ):
            for task_id, positions in enumerate(tasks):
                worker_index = min(range(pool.workers), key=lambda i: loads[i])
                loads[worker_index] += len(positions)
                pool.submit(
                    worker_index,
                    "forest",
                    {
                        "task_id": task_id,
                        "build_id": build_id,
                        "slots": slots,
                        "positions": arena.put(
                            np.asarray(positions, dtype=np.int64)
                        ),
                    },
                )
            results = pool.collect(len(tasks))
        for task_id in range(len(tasks)):
            for pos, label in results[task_id]["labels"].items():
                labels[pos] = label
    finally:
        arena.close()
    return labels


__all__ = [
    "SHM_PREFIX",
    "ShmArena",
    "ShmBuildPool",
    "WorkerAttachments",
    "parallel_tree_labels_shm",
    "run_shm_rounds",
]
