"""Shared interface and size model for every distance index in the library.

All indexes answer :meth:`DistanceIndex.distance` exactly and report
their size through a common model so the paper's size comparisons are
apples-to-apples: one stored label entry costs
:data:`BYTES_PER_ENTRY` = 8 bytes (a 4-byte hub id plus a 4-byte
distance, mirroring the C++ layout of the original implementation).
"""

from __future__ import annotations

import abc
import dataclasses
from collections.abc import Iterable

from repro.graphs.graph import Weight

#: Modeled bytes per stored (hub, distance) entry.
BYTES_PER_ENTRY = 8


@dataclasses.dataclass(frozen=True)
class IndexStats:
    """Size/time summary of a built index, used by the bench harness."""

    method: str
    entries: int
    bytes: int
    build_seconds: float
    extra: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def megabytes(self) -> float:
        """Modeled size in MB (10^6 bytes, as in the paper's figures)."""
        return self.bytes / 1e6

    def as_row(self) -> dict[str, object]:
        """Flatten for table rendering."""
        row: dict[str, object] = {
            "method": self.method,
            "entries": self.entries,
            "size_mb": round(self.megabytes, 3),
            "build_seconds": round(self.build_seconds, 4),
        }
        row.update(self.extra)
        return row


class DistanceIndex(abc.ABC):
    """An exact shortest-distance oracle over a fixed graph."""

    #: Human-readable method name ("PLL", "CT-20", ...); subclasses override.
    method_name = "index"

    #: Wall-clock seconds spent building; set by the build functions.
    build_seconds: float = 0.0

    @abc.abstractmethod
    def distance(self, s: int, t: int) -> Weight:
        """Exact distance between ``s`` and ``t`` (INF when disconnected)."""

    def distances_from(self, s: int, targets: Iterable[int]) -> list[Weight]:
        """One-to-many batch: distances from ``s`` to every target.

        The default implementation loops over :meth:`distance`; indexes
        with per-source state to share (e.g. :class:`~repro.core.ct_index.
        CTIndex`'s extension operation) and wrappers that intercept the
        batch (e.g. :class:`~repro.caching.CachedDistanceIndex`) override
        it.  Results align positionally with ``targets``.
        """
        distance = self.distance
        return [distance(s, t) for t in targets]

    def distances_batch(self, pairs: Iterable[tuple[int, int]]) -> list[Weight]:
        """Pairwise batch: one distance per ``(s, t)`` pair, in order.

        Default loops over :meth:`distance`; subclasses may exploit
        structure in the pair stream (shared sources, cached state).
        """
        distance = self.distance
        return [distance(s, t) for s, t in pairs]

    @abc.abstractmethod
    def size_entries(self) -> int:
        """Number of stored label entries."""

    def size_bytes(self) -> int:
        """Modeled index size in bytes."""
        return BYTES_PER_ENTRY * self.size_entries()

    def stats(self) -> IndexStats:
        """Bundle size and build time into an :class:`IndexStats`."""
        return IndexStats(
            method=self.method_name,
            entries=self.size_entries(),
            bytes=self.size_bytes(),
            build_seconds=self.build_seconds,
        )


#: Storage backends selectable on the build entry points.
LABEL_BACKENDS = ("dict", "flat")

#: Hub-label construction schedules: PLL's pruned searches or PSL's
#: rounds.  Both build the same canonical labels.
HUB_BUILDERS = ("pll", "psl")


def validate_backend(backend: str) -> str:
    """Check a ``backend=`` argument, returning it unchanged.

    Raises :class:`~repro.exceptions.IndexConstructionError` on anything
    but ``"dict"`` (mutable per-node lists / dicts) or ``"flat"`` (the
    CSR arrays of :mod:`repro.storage`).
    """
    if backend not in LABEL_BACKENDS:
        from repro.exceptions import IndexConstructionError

        raise IndexConstructionError(
            f"unknown storage backend {backend!r}; expected 'dict' or 'flat'"
        )
    return backend


class HubLabelBackendMixin:
    """Backend and kernel switching for indexes holding one hub store.

    Mixed into :class:`~repro.labeling.pll.PrunedLandmarkLabeling` and
    :class:`~repro.labeling.psl.ParallelShortestPathLabeling`: both keep
    every query reading through ``self.labels``, so converting the store
    in place converts the index.

    The mixin also resolves the query kernel (:mod:`repro.kernels`):
    queries go through :meth:`_query_labels` / the batch overrides,
    which dispatch to a vectorized
    :class:`~repro.kernels.label_kernels.NumpyLabelKernel` when the
    resolved kernel is ``"numpy"`` and to the store's scalar ``query``
    otherwise.  The resolved kernel is cached keyed on the label store's
    identity, so ``compact()`` / ``to_dict_backend()`` invalidate it for
    free.
    """

    #: Requested query kernel; instances override via :meth:`set_kernel`.
    _kernel_request = "auto"

    @property
    def storage_backend(self) -> str:
        """``"dict"`` or ``"flat"`` — how the labels are stored now."""
        return getattr(self.labels, "storage_backend", "dict")

    def compact(self):
        """Pack the labels into the CSR flat backend; returns ``self``."""
        from repro.storage.flat_labels import FlatLabelStore

        self.labels = FlatLabelStore.from_store(self.labels)
        return self

    def to_dict_backend(self):
        """Unpack the labels into the mutable dict backend; returns ``self``.

        An explicit ``kernel="numpy"`` request is demoted to ``"auto"``
        — the numpy kernel cannot read dict labels.
        """
        from repro.storage.flat_labels import FlatLabelStore

        if isinstance(self.labels, FlatLabelStore):
            self.labels = self.labels.to_hub_labeling()
        if self._kernel_request == "numpy":
            self._kernel_request = "auto"
        return self

    # -- Query kernels --------------------------------------------------

    @property
    def kernel(self) -> str:
        """The resolved query kernel: ``"numpy"`` or ``"python"``."""
        return "numpy" if self._label_kernel() is not None else "python"

    def set_kernel(self, kernel: str = "auto"):
        """Select the query kernel (``"auto"`` | ``"numpy"`` | ``"python"``).

        An explicit ``"numpy"`` that cannot be honoured (NumPy missing,
        dict backend) raises :class:`~repro.exceptions.
        ConfigurationError` immediately.  Returns ``self``.
        """
        from repro.kernels import resolve_kernel

        resolve_kernel(kernel, flat=self.storage_backend == "flat")
        self._kernel_request = kernel
        self.__dict__.pop("_kernel_cache", None)
        return self

    def _label_kernel(self):
        """The NumpyLabelKernel to query through, or None (python)."""
        cached = self.__dict__.get("_kernel_cache")
        if cached is not None and cached[0] is self.labels:
            return cached[1]
        from repro.kernels import resolve_kernel

        resolved = resolve_kernel(
            self._kernel_request, flat=self.storage_backend == "flat"
        )
        if resolved == "numpy":
            from repro.kernels.label_kernels import NumpyLabelKernel

            kernel = NumpyLabelKernel(self.labels)
        else:
            kernel = None
        self.__dict__["_kernel_cache"] = (self.labels, kernel)
        return kernel

    def _query_labels(self, s: int, t: int) -> Weight:
        """One 2-hop query through the resolved kernel."""
        from repro.kernels import record_kernel_queries

        kernel = self._label_kernel()
        if kernel is not None:
            record_kernel_queries("numpy")
            return kernel.query(s, t)
        record_kernel_queries("python")
        return self.labels.query(s, t)

    def distances_from(self, s: int, targets: Iterable[int]) -> list[Weight]:
        """One-to-many batch; vectorized under the numpy kernel."""
        kernel = self._label_kernel()
        if kernel is None:
            return super().distances_from(s, targets)
        from repro.kernels import record_kernel_queries

        targets = list(targets)
        record_kernel_queries("numpy", len(targets))
        return kernel.query_from(s, targets)

    def distances_batch(self, pairs: Iterable[tuple[int, int]]) -> list[Weight]:
        """Pairwise batch; grouped by source under the numpy kernel."""
        kernel = self._label_kernel()
        if kernel is None:
            return super().distances_batch(pairs)
        from repro.kernels import record_kernel_queries

        pairs = list(pairs)
        record_kernel_queries("numpy", len(pairs))
        return kernel.query_batch(pairs)


@dataclasses.dataclass
class MemoryBudget:
    """Construction-time size guard reproducing the paper's "OM" outcome.

    The budget tracks modeled entries; :meth:`charge` raises
    :class:`~repro.exceptions.OverMemoryError` as soon as the modeled
    byte size would exceed ``limit_bytes``.  ``limit_bytes=None`` means
    unlimited (every charge succeeds).
    """

    limit_bytes: int | None = None
    charged_entries: int = 0

    def charge(self, entries: int = 1) -> None:
        """Account for ``entries`` new label entries."""
        self.charged_entries += entries
        if self.limit_bytes is None:
            return
        modeled = self.charged_entries * BYTES_PER_ENTRY
        if modeled > self.limit_bytes:
            from repro.exceptions import OverMemoryError

            raise OverMemoryError(
                f"modeled index size {modeled} bytes exceeds the "
                f"{self.limit_bytes}-byte budget",
                modeled_bytes=modeled,
                limit_bytes=self.limit_bytes,
            )

    @classmethod
    def unlimited(cls) -> "MemoryBudget":
        """A budget that never triggers."""
        return cls(limit_bytes=None)

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "MemoryBudget":
        """Budget of ``megabytes`` × 10^6 bytes."""
        return cls(limit_bytes=int(megabytes * 1e6))
