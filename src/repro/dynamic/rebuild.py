"""Background re-indexing for :class:`~repro.dynamic.DeltaOverlayIndex`.

The overlay keeps answers exact while its patch grows, but every patched
query pays for touched-vertex searches.  :class:`BackgroundReindexer`
drains the patch: it snapshots the current graph, rebuilds a fresh
CT-Index through :mod:`repro.parallel` workers, **verifies** the result
(canonical :func:`~repro.core.serialization.index_fingerprint`, plus a
deterministic sample of answers checked against BFS/Dijkstra ground
truth on the snapshot graph), and only then hot-swaps it under the live
overlay — replaying any mutations that landed mid-build.  A serving
process keeps answering, correctly, across the whole cycle.
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
import zlib
from dataclasses import dataclass, field

from repro.core.config import BuildConfig, resolve_build_config
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.dynamic.overlay import DeltaOverlayIndex
from repro.exceptions import ConfigurationError, DynamicUpdateError, ReproError
from repro.graphs.traversal import single_source_distances


@dataclass(frozen=True)
class RebuildResult:
    """Outcome of one :meth:`BackgroundReindexer.rebuild_once` cycle."""

    swapped: bool
    reason: str
    seq: int = 0
    replayed_ops: int = 0
    fingerprint_sha256: str = ""
    build_seconds: float = 0.0
    verified_pairs: int = 0
    n: int = 0
    m: int = 0

    def summary(self) -> dict:
        """Plain-data form for status endpoints and audit records."""
        return {
            "swapped": self.swapped,
            "reason": self.reason,
            "seq": self.seq,
            "replayed_ops": self.replayed_ops,
            "fingerprint_sha256": self.fingerprint_sha256,
            "build_seconds": round(self.build_seconds, 6),
            "verified_pairs": self.verified_pairs,
            "n": self.n,
            "m": self.m,
        }


@dataclass
class _ReindexerState:
    """Mutable counters shared between the worker thread and observers."""

    rebuilds_completed: int = 0
    rebuilds_skipped: int = 0
    rebuild_errors: int = 0
    last_result: RebuildResult | None = None
    last_error: str | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    done: threading.Condition = field(init=False)

    def __post_init__(self) -> None:
        self.done = threading.Condition(self.lock)


class BackgroundReindexer:
    """Rebuild-verify-swap driver over one overlay.

    Use it synchronously (:meth:`rebuild_once`) or as a daemon thread
    (:meth:`start` / :meth:`request_rebuild` / :meth:`stop`) that wakes
    on demand — or automatically once the overlay's pending-mutation
    count reaches ``auto_threshold``.

    Parameters
    ----------
    overlay:
        The live :class:`DeltaOverlayIndex` to drain.
    bandwidth:
        CT-Index bandwidth for rebuilds; defaults to the current base's
        ``bandwidth`` (required when the base does not carry one).
    workers:
        Forwarded to :meth:`CTIndex.build` (``None`` serial, ``0`` one
        worker per CPU — see :mod:`repro.parallel`).
    backend:
        Label storage for rebuilt indexes; defaults to the current
        base's ``storage_backend``.  Rebuilds also keep the base's
        kernel request and ``extension_cache_size``.
    verify_samples:
        Number of deterministically sampled ``(s, t)`` pairs checked
        against ground truth before a swap is allowed (0 disables the
        sample check; the fingerprint is always recorded).
    expected_fingerprint:
        Optional SHA-256 hex digest every rebuild must match (useful
        when an out-of-band build of the same snapshot is the
        authority); mismatch aborts the swap.
    auto_threshold:
        When set, :meth:`maybe_trigger` (and the background loop)
        request a rebuild once ``pending_since_swap`` reaches it.
    """

    def __init__(
        self,
        overlay: DeltaOverlayIndex,
        *,
        bandwidth: int | None = None,
        workers: int | None = None,
        backend: str | None = None,
        verify_samples: int = 48,
        expected_fingerprint: str | None = None,
        auto_threshold: int | None = None,
        poll_interval: float = 0.05,
    ) -> None:
        if bandwidth is None:
            bandwidth = getattr(overlay.base, "bandwidth", None)
        if bandwidth is None:
            raise ConfigurationError(
                "bandwidth= is required when the overlay's base index "
                "does not expose one"
            )
        if verify_samples < 0:
            raise ConfigurationError(
                f"verify_samples must be non-negative, got {verify_samples}"
            )
        if auto_threshold is not None and auto_threshold < 1:
            raise ConfigurationError(
                f"auto_threshold must be positive, got {auto_threshold}"
            )
        base = overlay.base
        self.overlay = overlay
        #: Every rebuild's configuration, resolved (and checked) once here.
        self.config = resolve_build_config(
            bandwidth,
            None,
            {
                "workers": workers,
                "backend": backend
                or getattr(base, "storage_backend", BuildConfig.backend),
                "kernel": getattr(base, "kernel_request", BuildConfig.kernel),
                "extension_cache_size": getattr(
                    base, "extension_cache_size", BuildConfig.extension_cache_size
                ),
            },
        )
        self.verify_samples = verify_samples
        self.expected_fingerprint = expected_fingerprint
        self.auto_threshold = auto_threshold
        self.poll_interval = poll_interval
        self._state = _ReindexerState()
        self._wake = threading.Event()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def bandwidth(self) -> int:
        """The CT-Index bandwidth every rebuild uses."""
        return self.config.bandwidth

    # ------------------------------------------------------------------
    # Synchronous cycle
    # ------------------------------------------------------------------

    def rebuild_once(self, *, force: bool = False) -> RebuildResult:
        """Snapshot, rebuild, verify, swap — one full cycle.

        With an empty patch (and no ``force``) the cycle is skipped:
        the base already answers for the current graph.  Raises
        :class:`~repro.exceptions.DynamicUpdateError` when verification
        fails — the overlay is left untouched in that case.
        """
        overlay = self.overlay
        if not force and overlay.patch_size == 0:
            result = RebuildResult(swapped=False, reason="empty_patch")
            self._record(result)
            return result
        snap = overlay.snapshot()
        started = time.perf_counter()
        new_index = CTIndex.build(snap.graph, config=self.config)
        build_seconds = time.perf_counter() - started
        fingerprint = index_fingerprint(new_index)
        sha = hashlib.sha256(fingerprint).hexdigest()
        if (
            self.expected_fingerprint is not None
            and sha != self.expected_fingerprint
        ):
            raise DynamicUpdateError(
                f"rebuild fingerprint {sha[:12]}… does not match the "
                f"expected {self.expected_fingerprint[:12]}…; swap aborted"
            )
        verified = self._verify_answers(new_index, snap.graph, fingerprint)
        replayed = overlay.swap_base(new_index, snap)
        result = RebuildResult(
            swapped=True,
            reason="swapped",
            seq=snap.seq,
            replayed_ops=replayed,
            fingerprint_sha256=sha,
            build_seconds=build_seconds,
            verified_pairs=verified,
            n=snap.graph.n,
            m=snap.graph.m,
        )
        self._record(result)
        return result

    def _verify_answers(self, index: CTIndex, graph, fingerprint: bytes) -> int:
        """Check a deterministic pair sample against ground truth.

        The RNG is seeded from the fingerprint itself, so reruns of the
        same build verify the same pairs — a failing sample is a
        reproducible counterexample, not a flake.
        """
        if self.verify_samples == 0 or graph.n == 0:
            return 0
        rng = random.Random(zlib.crc32(fingerprint))
        pairs = [
            (rng.randrange(graph.n), rng.randrange(graph.n))
            for _ in range(self.verify_samples)
        ]
        truth_cache: dict[int, list] = {}
        for s, t in pairs:
            truth = truth_cache.get(s)
            if truth is None:
                truth = truth_cache[s] = single_source_distances(graph, s)
            got = index.distance(s, t)
            if got != truth[t]:
                raise DynamicUpdateError(
                    f"rebuild verification failed: distance({s}, {t}) = "
                    f"{got!r}, ground truth {truth[t]!r}; swap aborted"
                )
        return len(pairs)

    # ------------------------------------------------------------------
    # Background thread
    # ------------------------------------------------------------------

    def start(self) -> "BackgroundReindexer":
        """Launch the daemon worker thread (idempotent); returns self."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-reindexer", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Signal the worker to exit and join it."""
        self._stop.set()
        self._wake.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
            self._thread = None

    def request_rebuild(self) -> None:
        """Ask the worker thread for a cycle at its next wakeup."""
        self._wake.set()

    def maybe_trigger(self) -> bool:
        """Request a rebuild when the auto threshold is reached."""
        if self._auto_due():
            self.request_rebuild()
            return True
        return False

    def wait_for_cycle(self, baseline: int, timeout: float = 30.0) -> bool:
        """Block until the completed+skipped cycle count exceeds
        ``baseline`` (pair with :meth:`cycles` before the trigger)."""
        deadline = time.monotonic() + timeout
        with self._state.done:
            while self.cycles() <= baseline:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._state.done.wait(remaining)
        return True

    def cycles(self) -> int:
        """Total cycles recorded so far (swaps, skips, and errors)."""
        state = self._state
        return (
            state.rebuilds_completed
            + state.rebuilds_skipped
            + state.rebuild_errors
        )

    def status(self) -> dict:
        """Plain-data snapshot for stats endpoints."""
        state = self._state
        with state.lock:
            last = state.last_result
            return {
                "running": self._thread is not None and self._thread.is_alive(),
                "auto_threshold": self.auto_threshold,
                "rebuilds_completed": state.rebuilds_completed,
                "rebuilds_skipped": state.rebuilds_skipped,
                "rebuild_errors": state.rebuild_errors,
                "pending_since_swap": self.overlay.overlay_stats()[
                    "pending_since_swap"
                ],
                "last_result": None if last is None else last.summary(),
                "last_error": state.last_error,
            }

    def _auto_due(self) -> bool:
        if self.auto_threshold is None:
            return False
        return (
            self.overlay.overlay_stats()["pending_since_swap"]
            >= self.auto_threshold
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            triggered = self._wake.wait(self.poll_interval)
            if self._stop.is_set():
                return
            if not triggered and not self._auto_due():
                continue
            self._wake.clear()
            try:
                self.rebuild_once()
            except ReproError as exc:
                with self._state.done:
                    self._state.rebuild_errors += 1
                    self._state.last_error = f"{type(exc).__name__}: {exc}"
                    self._state.done.notify_all()

    def _record(self, result: RebuildResult) -> None:
        with self._state.done:
            if result.swapped:
                self._state.rebuilds_completed += 1
            else:
                self._state.rebuilds_skipped += 1
            self._state.last_result = result
            self._state.last_error = None
            self._state.done.notify_all()


__all__ = ["BackgroundReindexer", "RebuildResult"]
