"""Buffer-backed array views over a memory-mapped snapshot.

The binary snapshot stores every label array as raw little-endian
machine words.  When :func:`repro.storage.binary.load_ct_index_binary`
is called with ``mmap=True`` it maps the file read-only and hands the
big CSR sections out as :class:`MappedArray` views instead of copied
``array.array`` objects: the bytes on disk *are* the in-memory
representation, the page cache is shared between every process mapping
the same snapshot, and ``np.frombuffer`` in :mod:`repro.kernels.views`
sees the mapped pages directly.

:class:`MappedArray` implements the slice of the ``array.array`` API
the flat stores and the snapshot writer actually use (``typecode``,
``itemsize``, ``len``, indexing/slicing, iteration, ``count``,
``tobytes``), so :class:`~repro.storage.flat_labels.FlatLabelStore` and
:class:`~repro.storage.flat_tree.FlatTreeLabelStore` adopt the views
without knowing they are mapped.  Views are read-only by construction
(``mmap.ACCESS_READ`` — a write raises ``TypeError`` at the memoryview
layer), which preserves the stores' immutability contract.

Lifetime: a :class:`MappedSnapshot` owns the ``mmap`` object.  Every
exported memoryview keeps the map alive (CPython memoryviews hold a
reference to their exporter), so dropping the index drops the mapping;
an explicit :meth:`MappedSnapshot.close` is only possible once no view
is left.  The file on disk must not be truncated or rewritten in place
while any process maps it — replace snapshots atomically (write to a
temporary name, then ``rename``), which leaves existing maps reading
the old inode.  Full format-level rules live in ``docs/formats.md``.
"""

from __future__ import annotations

import mmap
import os
from pathlib import Path

from repro.exceptions import SerializationError
from repro.graphs.graph import Graph


class MappedArray:
    """Read-only, ``array.array``-compatible view over mapped bytes.

    Wraps a ``memoryview`` cast to ``typecode``; indexing, slicing and
    iteration go straight to the mapped pages — no element is ever
    copied into process-private memory until something materializes it
    (``list(...)``, ``tobytes()``, a numpy ``astype``).
    """

    __slots__ = ("raw", "typecode", "itemsize")

    def __init__(self, view: memoryview, typecode: str) -> None:
        try:
            cast = view.cast(typecode)
        except (TypeError, ValueError) as exc:
            raise SerializationError(
                f"cannot view mapped section as {typecode!r} items: {exc}"
            ) from exc
        #: The typed memoryview itself — ``np.frombuffer`` consumes it.
        self.raw = cast
        self.typecode = typecode
        self.itemsize = cast.itemsize

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, index):
        return self.raw[index]

    def __iter__(self):
        return iter(self.raw)

    def count(self, value) -> int:
        """Occurrences of ``value`` (mirrors ``array.count``)."""
        total = 0
        for item in self.raw:
            if item == value:
                total += 1
        return total

    def tobytes(self) -> bytes:
        """A private-memory copy of the raw little-endian items."""
        return self.raw.tobytes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MappedArray(typecode={self.typecode!r}, len={len(self)})"


class LazyGraph(Graph):
    """A :class:`~repro.graphs.graph.Graph` that decodes on first touch.

    The mapped loader knows a graph section's node count from its
    header without paging in (or tuple-decoding) the edge arrays, and
    the query path only ever asks a loaded index's graphs for ``n`` —
    so in ``mmap=True`` mode the heavyweight adjacency decode is
    deferred until something actually walks the topology (``edges()``,
    ``save``, ``index_fingerprint``).  The deferral is invisible:
    ``LazyGraph`` *is* a ``Graph``; any access to the adjacency (or to
    ``m`` / ``unweighted``, which require scanning the section) runs
    the decode thunk once and behaves identically from then on.
    """

    __slots__ = ("_thunk",)

    _DEFERRED = ("_m", "_indptr", "_indices", "_weights", "_unweighted")

    def __init__(self, n: int, thunk) -> None:
        # Deliberately skips Graph.__init__: only the node count is
        # known eagerly; the remaining slots stay unset so their first
        # read routes through __getattr__ and materializes.
        self._n = n
        self._thunk = thunk

    def __getattr__(self, name: str):
        if name in LazyGraph._DEFERRED:
            self._materialize()
            return object.__getattribute__(self, name)
        return Graph.__getattr__(self, name)

    def _materialize(self) -> None:
        thunk = self._thunk
        if thunk is None:  # pragma: no cover - defensive; slots set below
            raise SerializationError("lazy graph lost its decode thunk")
        full = thunk()
        if full.n != self._n:
            raise SerializationError(
                f"graph section decodes to {full.n} nodes but its header "
                f"promised {self._n}"
            )
        for name in LazyGraph._DEFERRED:
            setattr(self, name, object.__getattribute__(full, name))
        self._thunk = None

    @property
    def materialized(self) -> bool:
        """True once the adjacency has been decoded."""
        return self._thunk is None


class MappedSnapshot:
    """An open, CRC-verified memory-mapping of one snapshot file.

    Created by the binary loader; reachable from the loaded index as
    ``index.snapshot_source`` so callers can see where the bytes live
    and how large the mapping is.  The mapping is read-only and shared:
    N processes (or N indexes in one process) mapping the same path
    share one set of physical pages through the OS page cache.
    """

    __slots__ = ("path", "size", "_map", "_closed")

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError as exc:
            raise SerializationError(
                f"cannot open index file {path} for mapping: {exc}"
            ) from exc
        try:
            self.size = os.fstat(fd).st_size
            if self.size == 0:
                raise SerializationError(
                    f"{path} is too short to be a CT-Index snapshot"
                )
            self._map = mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise SerializationError(
                f"cannot map index file {path}: {exc}"
            ) from exc
        finally:
            # The mapping survives the descriptor; close it either way.
            os.close(fd)
        self._closed = False

    def view(self) -> memoryview:
        """A byte-format memoryview over the whole mapped file."""
        if self._closed:
            raise SerializationError(
                f"snapshot mapping of {self.path} is closed"
            )
        return memoryview(self._map)

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has succeeded."""
        return self._closed

    def close(self) -> None:
        """Unmap the file.

        Only possible once nothing references the mapped pages any
        more — while a loaded index still holds views, CPython raises
        ``BufferError``, which is surfaced as a
        :class:`~repro.exceptions.SerializationError` naming the path.
        Dropping the index (and any numpy views derived from it) is the
        usual way to release a mapping; explicit ``close`` exists for
        deterministic teardown in long-lived servers.
        """
        if self._closed:
            return
        try:
            self._map.close()
        except BufferError as exc:
            raise SerializationError(
                f"cannot close snapshot mapping of {self.path}: label views "
                f"still reference the mapped pages ({exc})"
            ) from exc
        self._closed = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{self.size} bytes"
        return f"MappedSnapshot({str(self.path)!r}, {state})"


__all__ = ["LazyGraph", "MappedArray", "MappedSnapshot"]
