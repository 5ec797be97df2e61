"""Versioned binary snapshots of built CT-Indexes (format version 5).

The JSON document of :mod:`repro.core.serialization` stays the
inspectable interchange format; this module adds the fast path: label
arrays written as raw little-endian machine words behind a checksummed
section table, so loading is ``array.frombytes`` instead of parsing
millions of JSON tokens.

Layout (full field-level description in ``docs/formats.md``)::

    header   8s magic ("RCTINDEX")  u32 version (5)  u32 section count
    table    per section: 12s name  u64 offset  u64 length  u32 crc32
    payload  concatenated section bodies

Sections: ``meta`` (small JSON: format tag, version, bandwidth, build
seconds), ``graph`` (original graph), ``reduction`` (twin maps),
``elim`` (MDE bags + the core graph's rows), ``treelabels`` (CSR tree
labels), ``core`` (vertex order + CSR 2-hop labels).  Every typed
array is prefixed with its typecode, item size and count; every
section's CRC-32 is verified before a single byte is decoded, so
truncated or bit-flipped snapshots raise
:class:`~repro.exceptions.SerializationError` instead of unpacking
garbage.

Version 4 writes every integer array with the *narrowest sufficient*
typecode of its signedness family (``b/h/i/q`` or ``B/H/I/Q``) instead
of fixed 8-byte words — on real graphs this roughly halves the
treelabels/core sections, which are almost entirely small distances and
node ids.  The loader reads versions 3 (always 8-byte/4-byte arrays)
and 4 alike: the typecode prefix already tells it the layout.

Version 5 stores each piece of the index once.  v3/v4 also embedded
the reduced graph in ``reduction``, and ``core_originals`` plus the
core graph in ``core``; all three follow from other sections, so v5
drops them, and drops ``originals`` too when it is each twin class's
smallest member (which both reduction paths produce).  The loader
derives ``originals`` at load and both graphs on first use
(:func:`_derived_graph`): the reduced graph is the subgraph of
``graph`` induced on the class keepers, the core graph comes from the
``elim`` core rows.  It checks what the dropped copies used to pin —
the twin maps against each other, the core label count against the
core — so a crafted file still raises
:class:`~repro.exceptions.SerializationError`.  v3 and v4 snapshots
load through the same decoder, reading their embedded copies.

Loading defaults to the flat backend — the on-disk CSR arrays *are* the
in-memory representation — but ``backend="dict"`` unpacks into the
mutable dict layout.

``mmap=True`` goes one step further: the file is memory-mapped
read-only, every section's CRC is verified once against the mapped
pages, and the big CSR sections (``treelabels``, ``core``, and the
``elim`` arrays) are adopted as
:class:`~repro.storage.mapped.MappedArray` views instead of copies —
the decomposition and the flat stores then read, and
:func:`repro.kernels.views.as_ndarray` wraps, the file's own pages.
N processes mapping one snapshot share a single resident copy through
the page cache (the ``repro.serving.fleet`` deployment shape).  See
``docs/formats.md`` for the view-vs-decode split and file-lifetime
rules.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Union

from repro.exceptions import DecompositionError, ReproError, SerializationError
from repro.graphs.graph import INF, Graph, Weight, int64_array, pack_weights
from repro.obs.tracing import span as obs_span, tracing_enabled
from repro.graphs.reductions import (
    TWIN_KIND_CODES,
    EquivalenceReduction,
    TwinKinds,
    first_members,
)
from repro.storage.flat_labels import FlatLabelStore
from repro.storage.flat_tree import INF_SENTINEL, FlatTreeLabelStore
from repro.storage.mapped import LazyGraph, MappedArray, MappedSnapshot

PathLike = Union[str, os.PathLike]

#: First 8 bytes of every binary snapshot.
MAGIC = b"RCTINDEX"

#: Version written by :func:`save_ct_index_binary`.  Version 3 was the
#: first binary format (versions 1-2 are the JSON documents of
#: :mod:`repro.core.serialization`); version 4 narrows integer arrays
#: to their smallest sufficient typecode; version 5 stops storing the
#: pieces the loader can derive (the reduced graph, the core graph and
#: ``core_originals``, and ``originals`` when it is derivable too).
BINARY_FORMAT_VERSION = 5

#: Header versions :func:`load_ct_index_binary` accepts.
SUPPORTED_BINARY_VERSIONS = frozenset({3, 4, 5})

_HEADER = struct.Struct("<8sII")
_SECTION = struct.Struct("<12sQQI")
_SECTION_NAMES = ("meta", "graph", "reduction", "elim", "treelabels", "core")

#: Typecode families a snapshot array may use.  v3 only ever wrote
#: ``q``/``I``/``B``/``d``; v4 narrows within the same signedness
#: family, so loaders accept the whole family wherever an integer
#: array is expected.
_SIGNED_INT_CODES = "bhiq"
_UNSIGNED_INT_CODES = "BHIQ"
_INT_CODES = _SIGNED_INT_CODES + _UNSIGNED_INT_CODES
#: Distance arrays: a signed integer family (with the -1 INF sentinel)
#: or float64.
_DIST_CODES = _SIGNED_INT_CODES + "d"
#: Hub-rank arrays: unsigned (v3 wrote 'I'; v4 narrows to B/H).
_RANK_CODES = "BHI"

#: The bytes a twin-kind code array may hold (reduction section).
_TWIN_CODE_BYTES = bytes(sorted(TWIN_KIND_CODES.values()))


# ----------------------------------------------------------------------
# Primitive writers / readers
# ----------------------------------------------------------------------


def _little_endian(values: array) -> array:
    """A little-endian copy of ``values`` (no-op on LE machines)."""
    if sys.byteorder == "big":  # pragma: no cover - no BE hardware in CI
        values = array(values.typecode, values)
        values.byteswap()
    return values


def _put_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def _put_array(buf: bytearray, values: array) -> None:
    """Typecode byte + item size byte + u64 count + raw LE items."""
    buf += values.typecode.encode("ascii")
    buf.append(values.itemsize)
    _put_u64(buf, len(values))
    buf += _little_endian(values).tobytes()


def _narrowed(values: array) -> array:
    """``values`` recoded to the narrowest typecode of its family.

    Integer arrays only — floats and empty arrays come back unchanged.
    Signed arrays stay signed (the -1 INF sentinel survives), unsigned
    stay unsigned.  With NumPy the bounds and the recoding run as array
    operations.
    """
    if values.typecode not in _INT_CODES or not len(values):
        return values
    from repro.kernels import numpy_available

    view = None
    if numpy_available():
        import numpy as np

        view = np.frombuffer(getattr(values, "raw", values), dtype=values.typecode)
        lo, hi = int(view.min()), int(view.max())
    else:
        lo, hi = min(values), max(values)
    signed = values.typecode in _SIGNED_INT_CODES
    for code in _SIGNED_INT_CODES if signed else _UNSIGNED_INT_CODES:
        bits = array(code).itemsize * 8
        if signed:
            fits = -(1 << (bits - 1)) <= lo and hi < 1 << (bits - 1)
        else:
            fits = hi < 1 << bits
        if fits:
            if code == values.typecode:
                return values
            if view is None:
                return array(code, values)
            narrow = array(code)
            narrow.frombytes(view.astype(code).tobytes())
            return narrow
    return values  # pragma: no cover - 'q'/'Q' always fit


def _put_narrow(buf: bytearray, values: array) -> None:
    """:func:`_put_array` of the narrowest recoding (the v4 writer path)."""
    _put_array(buf, _narrowed(values))


def _put_blob(buf: bytearray, payload: bytes) -> None:
    _put_u64(buf, len(payload))
    buf += payload


class _Cursor:
    """Bounds-checked reader over one section's payload.

    ``data`` is ``bytes`` (copying load) or a ``memoryview`` over the
    mapped file.  With ``zero_copy=True`` (mmap mode, little-endian
    hosts) :meth:`typed_array` wraps the payload bytes in a
    :class:`~repro.storage.mapped.MappedArray` view instead of copying
    them into a private ``array.array``.
    """

    __slots__ = ("name", "data", "pos", "zero_copy")

    def __init__(self, name: str, data, *, zero_copy: bool = False) -> None:
        self.name = name
        self.data = data
        self.pos = 0
        self.zero_copy = zero_copy

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if count < 0 or end > len(self.data):
            raise SerializationError(
                f"section {self.name!r} is truncated "
                f"(needed {count} bytes at offset {self.pos})"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def typed_array(self, expected_typecode: str | None = None):
        typecode = bytes(self._take(1)).decode("ascii", "replace")
        itemsize = self._take(1)[0]
        count = self.u64()
        try:
            out = array(typecode)
        except ValueError as exc:
            raise SerializationError(
                f"section {self.name!r} holds an array of unknown "
                f"typecode {typecode!r}"
            ) from exc
        if expected_typecode is not None and typecode not in expected_typecode:
            raise SerializationError(
                f"section {self.name!r} holds a {typecode!r} array where "
                f"one of {expected_typecode!r} was expected"
            )
        if out.itemsize != itemsize:
            raise SerializationError(
                f"section {self.name!r} was written with {itemsize}-byte "
                f"{typecode!r} items; this platform uses {out.itemsize}-byte items"
            )
        chunk = self._take(count * itemsize)
        if self.zero_copy:
            return MappedArray(chunk, typecode)
        out.frombytes(chunk)
        return _little_endian(out)

    def skip_typed_array(self) -> None:
        """Advance past one typed array without decoding (or paging) it."""
        self._take(1)
        itemsize = self._take(1)[0]
        count = self.u64()
        if itemsize == 0:
            raise SerializationError(
                f"section {self.name!r} holds an array of zero-byte items"
            )
        self._take(count * itemsize)

    def blob(self) -> bytes:
        return self._take(self.u64())

    def done(self) -> None:
        if self.pos != len(self.data):
            raise SerializationError(
                f"section {self.name!r} has {len(self.data) - self.pos} "
                f"trailing bytes"
            )


def _weights_to_array(values: list[Weight]) -> array:
    """Distances (possibly ``INF``) as ``'q'`` with -1 sentinel, else ``'d'``."""
    if all(isinstance(value, int) or value == INF for value in values):
        return array(
            "q", (INF_SENTINEL if value == INF else value for value in values)
        )
    return array("d", values)


def _weights_from_array(packed: array) -> list[Weight]:
    """Invert :func:`_weights_to_array`; reject sub-sentinel garbage."""
    return list(_adopt_weights(packed))


def _adopt_weights(packed):
    """:func:`_weights_from_array` that keeps ``packed`` when it decodes as-is.

    Integer arrays without ``INF`` entries (and float arrays) already
    hold the weights; only an array with ``-1`` sentinels is decoded.
    """
    if packed.typecode in _SIGNED_INT_CODES:
        lowest = min(packed, default=0)
        if lowest >= 0:  # common case: no INF entries, no decode loop
            return packed
        if lowest < INF_SENTINEL:
            raise SerializationError(
                f"negative distance {lowest} in integer weight array"
            )
        return [INF if value == INF_SENTINEL else value for value in packed]
    return packed


# ----------------------------------------------------------------------
# Graph packing
# ----------------------------------------------------------------------


def _put_graph(buf: bytearray, graph: Graph) -> None:
    """``n`` then the ``u < v`` edge arrays, in :meth:`Graph.edges` order."""
    from repro.kernels import numpy_available

    _put_u64(buf, graph.n)
    if not numpy_available():
        us: list[int] = []
        vs: list[int] = []
        ws: list[Weight] = []
        for u, v, w in graph.edges():
            us.append(u)
            vs.append(v)
            ws.append(w)
        _put_narrow(buf, array("q", us))
        _put_narrow(buf, array("q", vs))
        _put_narrow(buf, _weights_to_array(ws))
        return
    import numpy as np

    from repro.kernels.graph_arrays import upper_triangle

    us, vs, positions = upper_triangle(graph)
    _put_narrow(buf, int64_array(us))
    _put_narrow(buf, int64_array(vs))
    weights = graph.weights
    if weights is None:
        _put_narrow(buf, int64_array(np.ones(positions.size, dtype=np.int64)))
    elif isinstance(weights, array) and weights.typecode == "q":
        _put_narrow(buf, int64_array(np.frombuffer(weights, dtype=np.int64)[positions]))
    else:
        picked = positions.tolist()
        _put_narrow(buf, _weights_to_array([weights[p] for p in picked]))


def _read_graph(cursor: _Cursor) -> Graph:
    n = cursor.u64()
    us = cursor.typed_array(_INT_CODES)
    vs = cursor.typed_array(_INT_CODES)
    packed_ws = cursor.typed_array(_DIST_CODES)
    if n > 1 << 40:
        raise SerializationError(
            f"section {cursor.name!r} claims an implausible node count {n}"
        )
    if not len(us) == len(vs) == len(packed_ws):
        raise SerializationError(
            f"section {cursor.name!r} holds ragged edge arrays"
        )
    from repro.kernels import numpy_available

    if numpy_available():
        return _assemble_graph_numpy(cursor.name, n, us, vs, packed_ws)
    ws = _weights_from_array(packed_ws)
    # The writer dumps an already-normalized graph (each edge once), so
    # adjacency is assembled directly instead of re-deduplicating through
    # GraphBuilder — that difference is most of the binary loader's win
    # over JSON.  Every simple-graph invariant is enforced here against
    # the CRC-verified arrays — bounds and weights in bulk (C-speed
    # min/max), self-loops in the assembly loop, duplicates per sorted
    # row — so the graph is adopted through the trusted constructor
    # without a second per-element validation pass.
    if len(us) and not (
        0 <= min(us) and max(us) < n and 0 <= min(vs) and max(vs) < n
    ):
        raise SerializationError(
            f"section {cursor.name!r} holds an edge endpoint outside 0..{n - 1}"
        )
    if len(ws) and min(ws) <= 0:
        raise SerializationError(
            f"section {cursor.name!r} holds a non-positive edge weight"
        )
    unweighted = ws.count(1) == len(ws)
    adjacency: list[list[tuple[int, Weight]]] = [[] for _ in range(n)]
    for u, v, w in zip(us, vs, ws):
        if u == v:
            raise SerializationError(
                f"section {cursor.name!r} holds a self-loop on node {u}"
            )
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    adj_ids: list[tuple[int, ...]] = []
    adj_weights: list[tuple[Weight, ...]] = []
    for v, row in enumerate(adjacency):
        if not row:
            adj_ids.append(())
            adj_weights.append(())
            continue
        row.sort()
        ids, row_weights = zip(*row)
        if len(set(ids)) != len(ids):
            raise SerializationError(
                f"section {cursor.name!r} holds parallel edges at node {v}"
            )
        adj_ids.append(ids)
        adj_weights.append(row_weights)
    return Graph._from_trusted_rows(n, adj_ids, adj_weights, unweighted=unweighted)


def _assemble_graph_numpy(name: str, n: int, us, vs, packed_ws) -> Graph:
    """Vectorized :func:`_read_graph` body (same checks, same graph).

    Sorting, bounds/loop/duplicate detection, and the CSR split all run
    as array reductions, which is most of the snapshot decode on real
    graphs.  ``us``/``vs``/``packed_ws`` may be ``array.array`` copies
    or :class:`~repro.storage.mapped.MappedArray` views — both expose a
    buffer.
    """
    import numpy as np

    u = np.frombuffer(getattr(us, "raw", us), dtype=np.dtype(us.typecode))
    v = np.frombuffer(getattr(vs, "raw", vs), dtype=np.dtype(vs.typecode))
    w = np.frombuffer(getattr(packed_ws, "raw", packed_ws), dtype=np.dtype(packed_ws.typecode))
    u = u.astype(np.int64, copy=False)
    v = v.astype(np.int64, copy=False)
    m = len(u)
    if m and not (
        0 <= int(u.min()) and int(u.max()) < n and 0 <= int(v.min()) and int(v.max()) < n
    ):
        raise SerializationError(
            f"section {name!r} holds an edge endpoint outside 0..{n - 1}"
        )
    integral = w.dtype.kind in "iu"
    has_inf = False
    if m:
        if integral:
            if int(w.min()) < INF_SENTINEL:
                raise SerializationError(
                    f"negative distance {int(w.min())} in integer weight array"
                )
            has_inf = bool((w == INF_SENTINEL).any())
            if bool(((w <= 0) & (w != INF_SENTINEL)).any()):
                raise SerializationError(
                    f"section {name!r} holds a non-positive edge weight"
                )
        elif bool((w <= 0).any()):
            raise SerializationError(
                f"section {name!r} holds a non-positive edge weight"
            )
        loops = np.nonzero(u == v)[0]
        if loops.size:
            raise SerializationError(
                f"section {name!r} holds a self-loop on node {int(u[loops[0]])}"
            )
    unweighted = bool((w == 1).all())
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    if m:
        dup = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        hits = np.nonzero(dup)[0]
        if hits.size:
            raise SerializationError(
                f"section {name!r} holds parallel edges at node {int(src[hits[0]])}"
            )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    weights = None
    if not unweighted:
        wt = np.concatenate([w, w])[order].tolist()
        if has_inf:
            wt = [INF if value == INF_SENTINEL else value for value in wt]
        weights = pack_weights(wt)
    return Graph._from_csr(n, indptr, dst, weights, unweighted=unweighted)


def _skip_graph(cursor: _Cursor) -> tuple[int, object]:
    """Advance ``cursor`` past one graph blob without decoding it.

    Returns ``(n, span)`` where ``span`` is the undecoded payload slice
    — header-only bounds checks, no edge array is paged in or
    tuple-decoded.  Feeds :func:`_lazy_graph`.
    """
    start = cursor.pos
    n = cursor.u64()
    for _ in range(3):
        cursor.skip_typed_array()
    return n, cursor.data[start : cursor.pos]


def _lazy_graph(name: str, n: int, span) -> LazyGraph:
    """A :class:`~repro.storage.mapped.LazyGraph` decoding ``span`` on demand.

    The mapped load path defers every graph section this way: queries
    only ask the loaded graphs for ``n``, so adjacency decode — the
    bulk of snapshot decode time — moves off the start-up path
    entirely and runs (once) only if something walks the topology.
    """
    if n > 1 << 40:
        raise SerializationError(
            f"section {name!r} claims an implausible node count {n}"
        )

    def thunk() -> Graph:
        cursor = _Cursor(name, span)
        graph = _read_graph(cursor)
        cursor.done()
        return graph

    return LazyGraph(n, thunk)


def _derived_graph(path: Path, name: str, n: int, derive) -> LazyGraph:
    """A :class:`~repro.storage.mapped.LazyGraph` built by ``derive()``.

    A v5 snapshot stores neither the reduced nor the core graph; each
    is rebuilt from the sections that define it, on first touch.  A
    malformed section surfaces then as :class:`SerializationError`.
    """

    def thunk() -> Graph:
        try:
            return derive()
        except (KeyError, IndexError, ValueError, ReproError) as exc:
            raise SerializationError(
                f"cannot derive the {name} graph of {path}: {exc!r}"
            ) from exc

    return LazyGraph(n, thunk)


# ----------------------------------------------------------------------
# Saving
# ----------------------------------------------------------------------


def save_ct_index_binary(index, path: PathLike) -> None:
    """Write ``index`` to ``path`` as a v5 binary snapshot.

    Works on either storage backend (dict-backed labels are packed on
    the way out); the snapshot itself is backend-agnostic, like the JSON
    document.
    """
    sections: dict[str, bytes] = {}

    meta = {
        "format": "repro-ct-index",
        "version": BINARY_FORMAT_VERSION,
        "bandwidth": index.bandwidth,
        "build_seconds": index.build_seconds,
    }
    sections["meta"] = json.dumps(meta, sort_keys=True).encode("utf-8")

    buf = bytearray()
    _put_graph(buf, index.graph)
    sections["graph"] = bytes(buf)

    reduction = index.reduction
    originals = reduction.originals
    if first_members(reduction.representative) == originals:
        originals = []  # the loader derives it: each class's first member
    buf = bytearray()
    _put_narrow(buf, array("q", reduction.representative))
    _put_narrow(buf, array("q", originals))
    _put_array(buf, reduction.twin_kind.codes)
    sections["reduction"] = bytes(buf)

    elimination = index.decomposition.elimination
    buf = bytearray()
    _put_narrow(buf, array("q", elimination.order))
    _put_narrow(buf, array("q", elimination.bag_sizes()))
    _put_narrow(buf, array("q", elimination.neighbors))
    _put_narrow(buf, _weights_to_array(elimination.local))
    _put_narrow(buf, array("q", elimination.core_nodes))
    _put_narrow(buf, array("q", elimination.core_counts))
    _put_narrow(buf, array("q", elimination.core_targets))
    _put_narrow(buf, _weights_to_array(elimination.core_weights))
    sections["elim"] = bytes(buf)

    tree_store = FlatTreeLabelStore.from_labels(index.tree_index.labels)
    offsets, targets, dists = tree_store.csr_arrays()
    buf = bytearray()
    _put_narrow(buf, offsets)
    _put_narrow(buf, targets)
    _put_narrow(buf, dists)
    sections["treelabels"] = bytes(buf)

    core_store = FlatLabelStore.from_store(index.core_index.labels)
    order, offsets, hub_ranks, hub_dists = core_store.csr_arrays()
    buf = bytearray()
    _put_narrow(buf, order)
    _put_narrow(buf, offsets)
    _put_narrow(buf, hub_ranks)
    _put_narrow(buf, hub_dists)
    sections["core"] = bytes(buf)

    table_bytes = _HEADER.size + _SECTION.size * len(_SECTION_NAMES)
    offset = table_bytes
    table = bytearray(_HEADER.pack(MAGIC, BINARY_FORMAT_VERSION, len(_SECTION_NAMES)))
    body = bytearray()
    for name in _SECTION_NAMES:
        payload = sections[name]
        table += _SECTION.pack(
            name.encode("ascii"), offset, len(payload), zlib.crc32(payload)
        )
        body += payload
        offset += len(payload)
    Path(path).write_bytes(bytes(table + body))


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------


def is_binary_snapshot(path: PathLike) -> bool:
    """True when ``path`` starts with the binary snapshot magic."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) == MAGIC
    except OSError:
        return False


def _read_sections(
    path: Path, *, use_mmap: bool = False
) -> tuple[int, dict[str, bytes], MappedSnapshot | None]:
    """Parse, validate, and CRC-check the section table of ``path``.

    Returns ``(version, sections, source)``.  In the copying mode
    (``use_mmap=False``) the whole file is read into private memory and
    section payloads are ``bytes``; with ``use_mmap=True`` the file is
    memory-mapped read-only, payloads are ``memoryview`` windows into
    the map, and ``source`` is the :class:`MappedSnapshot` keeping it
    alive.  Either way every section's CRC-32 is verified here, before
    a single byte is decoded — and the table itself is rejected when it
    repeats a section name or when two sections' byte ranges overlap
    (a crafted table could otherwise alias one payload under two names
    or smuggle a second copy of a section past the reader).
    """
    source: MappedSnapshot | None = None
    if use_mmap:
        source = MappedSnapshot(path)
        data = source.view()
    else:
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise SerializationError(f"cannot read index file {path}: {exc}") from exc
    if len(data) < _HEADER.size:
        raise SerializationError(f"{path} is too short to be a CT-Index snapshot")
    magic, version, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SerializationError(f"{path} is not a CT-Index binary snapshot (bad magic)")
    if version not in SUPPORTED_BINARY_VERSIONS:
        raise SerializationError(
            f"unsupported binary snapshot version {version} in {path}; "
            f"this build reads versions {sorted(SUPPORTED_BINARY_VERSIONS)}"
        )
    table_end = _HEADER.size + _SECTION.size * count
    if count > 1024 or table_end > len(data):
        raise SerializationError(f"corrupt section table in {path}")
    entries: list[tuple[str, int, int, int]] = []
    for i in range(count):
        raw_name, offset, length, crc = _SECTION.unpack_from(
            data, _HEADER.size + _SECTION.size * i
        )
        name = raw_name.rstrip(b"\x00").decode("ascii", "replace")
        end = offset + length
        if offset < table_end or end > len(data):
            raise SerializationError(
                f"section {name!r} of {path} is truncated or out of bounds"
            )
        entries.append((name, offset, length, crc))
    names = [name for name, _, _, _ in entries]
    if len(set(names)) != len(names):
        duplicate = next(name for name in names if names.count(name) > 1)
        raise SerializationError(
            f"section table of {path} repeats section {duplicate!r}"
        )
    spans = sorted((offset, offset + length, name) for name, offset, length, _ in entries)
    for (_, prev_end, prev_name), (next_start, _, next_name) in zip(spans, spans[1:]):
        if next_start < prev_end:
            raise SerializationError(
                f"sections {prev_name!r} and {next_name!r} of {path} overlap"
            )
    sections: dict[str, bytes] = {}
    for name, offset, length, crc in entries:
        payload = data[offset : offset + length]
        if zlib.crc32(payload) != crc:
            raise SerializationError(
                f"checksum mismatch in section {name!r} of {path}"
            )
        sections[name] = payload
    missing = [name for name in _SECTION_NAMES if name not in sections]
    if missing:
        raise SerializationError(
            f"{path} is missing snapshot sections: {', '.join(missing)}"
        )
    return version, sections, source


def load_ct_index_binary(path: PathLike, *, backend: str = "flat", mmap: bool = False):
    """Reload a CT-Index written by :func:`save_ct_index_binary`.

    ``backend`` selects the label storage of the loaded index:
    ``"flat"`` (default — the arrays are adopted as-is) or ``"dict"``
    (unpacked into the mutable layout).

    ``mmap=True`` maps the file read-only instead of copying it: the
    CSR label sections become buffer-backed views over the mapped
    pages (zero resident duplication across processes mapping the same
    snapshot, no per-entry decode on the start-up path).  Every
    section's CRC is still verified at open; the returned index keeps
    the mapping alive through ``index.snapshot_source``.  Requires the
    flat backend — the dict layout is private memory by construction.
    """
    if backend not in ("dict", "flat"):
        raise SerializationError(
            f"unknown storage backend {backend!r}; expected 'dict' or 'flat'"
        )
    if mmap and backend != "flat":
        raise SerializationError(
            f"mmap=True requires backend='flat' (the {backend!r} layout "
            f"copies every entry into private memory, defeating the map)"
        )
    path = Path(path)
    with obs_span("storage.binary_load", backend=backend, mapped=mmap) as load_span:
        version, sections, source = _read_sections(path, use_mmap=mmap)
        if tracing_enabled():
            load_span.set(bytes=sum(len(body) for body in sections.values()))
        try:
            return _decode_snapshot(path, sections, backend, version, source=source)
        except SerializationError:
            raise
        except (
            KeyError,
            TypeError,
            ValueError,
            IndexError,
            AttributeError,
            OverflowError,
            struct.error,
            ReproError,
        ) as exc:
            # One library error for any malformed payload, mirroring the
            # JSON loader's contract.
            raise SerializationError(
                f"corrupt CT-Index snapshot in {path}: {exc!r}"
            ) from exc


def _class_maps(
    path: Path, n: int, stored_representative, stored_originals
) -> tuple[list[int], list[int]]:
    """``(representative, originals)`` of the reduction section, checked.

    Every ``representative[v]`` must name one of the ``k`` classes, and
    ``representative[originals[i]]`` must be ``i``: the invariants the
    stored reduced graph used to pin.  ``originals`` must also ascend,
    so the reduced graph derived as the subgraph induced on the keepers
    numbers them as ``representative`` does.  An empty ``originals``
    array means the writer left it out; it is then each class's first
    member, and the classes must be numbered in that order.
    """
    if len(stored_representative) != n:
        raise SerializationError(
            f"reduction section of {path} maps {len(stored_representative)} "
            f"nodes for a {n}-node graph"
        )
    representative = stored_representative.tolist()
    if not len(stored_originals):
        originals = first_members(representative)
        if originals is None:
            raise SerializationError(
                f"reduction section of {path} stores no originals and does "
                f"not number its twin classes in order of their smallest members"
            )
        return representative, originals
    originals = stored_originals.tolist()
    k = len(originals)
    if n and not (0 <= min(representative) and max(representative) < k):
        raise SerializationError(
            f"reduction section of {path} maps a node to a class outside 0..{k - 1}"
        )
    if any(
        not 0 <= keeper < n or representative[keeper] != i
        for i, keeper in enumerate(originals)
    ):
        raise SerializationError(f"representative and originals of {path} disagree")
    if any(a >= b for a, b in zip(originals, originals[1:])):
        raise SerializationError(f"originals of {path} do not ascend")
    return representative, originals


def _decode_snapshot(
    path: Path,
    sections: dict[str, bytes],
    backend: str,
    version: int,
    *,
    source: MappedSnapshot | None = None,
):
    from repro.core.construction import TreeIndex
    from repro.core.ct_index import CTIndex
    from repro.labeling.pll import PrunedLandmarkLabeling
    from repro.treedec.core_tree import CoreTreeDecomposition
    from repro.treedec.elimination import EliminationResult

    # Zero-copy adoption needs the on-disk byte order to be the native
    # one; on big-endian hosts a mapped load still works (the map was
    # CRC-verified) but label arrays are decoded via the copying path.
    zero_copy = source is not None and sys.byteorder == "little"

    try:
        meta = json.loads(bytes(sections["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt meta section in {path}: {exc}"
        ) from exc
    if meta.get("format") != "repro-ct-index":
        raise SerializationError(f"{path} is not a CT-Index snapshot")
    if meta.get("version") != version:
        raise SerializationError(
            f"meta section claims version {meta.get('version')!r} but the "
            f"header of {path} says {version}"
        )
    bandwidth = meta["bandwidth"]
    if not isinstance(bandwidth, int) or bandwidth < 0:
        raise SerializationError(f"invalid bandwidth {bandwidth!r} in {path}")

    cursor = _Cursor("graph", sections["graph"])
    if zero_copy:
        n_graph, graph_span = _skip_graph(cursor)
        graph = _lazy_graph("graph", n_graph, graph_span)
    else:
        graph = _read_graph(cursor)
    cursor.done()

    # v3/v4 embed the reduced graph; v5 derives it from ``graph``.
    legacy = version < 5
    cursor = _Cursor("reduction", sections["reduction"])
    if legacy and zero_copy:
        n_reduced, reduced_span = _skip_graph(cursor)
        reduced = _lazy_graph("reduction", n_reduced, reduced_span)
    elif legacy:
        reduced = _read_graph(cursor)
    stored_representative = cursor.typed_array(_INT_CODES)
    stored_originals = cursor.typed_array(_INT_CODES)
    twin_codes = cursor.typed_array("B")
    cursor.done()
    representative, originals = _class_maps(
        path, graph.n, stored_representative, stored_originals
    )
    if len(twin_codes) != graph.n or twin_codes.tobytes().translate(
        None, _TWIN_CODE_BYTES
    ):
        raise SerializationError(f"corrupt twin-kind codes in {path}")
    if legacy:
        if reduced.n != len(originals):
            raise SerializationError(
                f"reduced graph of {path} has {reduced.n} nodes for "
                f"{len(originals)} twin classes"
            )
    elif len(originals) == graph.n:
        # n checked classes of one node each, numbered by ascending
        # keeper: the identity reduction (weighted graphs).
        reduced = graph
    else:
        reduced = _derived_graph(
            path,
            "reduced",
            len(originals),
            lambda: graph.induced_subgraph(originals)[0],
        )
    reduction = EquivalenceReduction(
        original=graph,
        reduced=reduced,
        representative=representative,
        originals=originals,
        twin_kind=TwinKinds(twin_codes),
    )

    # The elim arrays are adopted as they are (views over the map when
    # zero-copy); only the per-position structure the queries read —
    # position, parent, root, depth, interfaces — is derived here.
    cursor = _Cursor("elim", sections["elim"], zero_copy=zero_copy)
    order = cursor.typed_array(_INT_CODES)
    counts = cursor.typed_array(_INT_CODES)
    neighbors = cursor.typed_array(_INT_CODES)
    local = _adopt_weights(cursor.typed_array(_DIST_CODES))
    core_nodes = list(cursor.typed_array(_INT_CODES))
    core_counts = cursor.typed_array(_INT_CODES)
    core_targets = cursor.typed_array(_INT_CODES)
    core_weights = _adopt_weights(cursor.typed_array(_DIST_CODES))
    cursor.done()
    try:
        elimination = EliminationResult.from_arrays(
            reduced,
            bandwidth,
            order=order,
            counts=counts,
            neighbors=neighbors,
            local=local,
            core_nodes=core_nodes,
            core_counts=core_counts,
            core_targets=core_targets,
            core_weights=core_weights,
        )
        decomposition = CoreTreeDecomposition.from_elimination(elimination)
    except DecompositionError as exc:
        raise SerializationError(f"corrupt elim section in {path}: {exc}") from exc

    cursor = _Cursor("treelabels", sections["treelabels"], zero_copy=zero_copy)
    tree_offsets = cursor.typed_array(_INT_CODES)
    tree_targets = cursor.typed_array(_INT_CODES)
    tree_dists = cursor.typed_array(_DIST_CODES)
    cursor.done()
    # The mapped path adopts CRC-verified views as-is; the per-entry
    # monotonicity scan would touch (and page in) every label at open,
    # defeating the instant-start-up contract.
    tree_store = FlatTreeLabelStore(
        tree_offsets, tree_targets, tree_dists, validate=not zero_copy
    )
    if len(tree_store) != decomposition.boundary:
        raise SerializationError(
            f"{path} stores {len(tree_store)} tree labels for a boundary "
            f"of {decomposition.boundary}"
        )
    tree_labels = tree_store if backend == "flat" else tree_store.to_dicts()
    tree_index = TreeIndex(decomposition, tree_labels)

    cursor = _Cursor("core", sections["core"], zero_copy=zero_copy)
    if legacy:
        core_originals = list(cursor.typed_array(_INT_CODES))
    order = cursor.typed_array(_INT_CODES)
    offsets = cursor.typed_array(_INT_CODES)
    hub_ranks = cursor.typed_array(_RANK_CODES)
    hub_dists = cursor.typed_array(_DIST_CODES)
    if legacy and zero_copy:
        n_core, core_span = _skip_graph(cursor)
        core_graph = _lazy_graph("core", n_core, core_span)
    elif legacy:
        core_graph = _read_graph(cursor)
    else:
        # v5: the core is G_{λ+1}, stored once in the elim section.
        core_originals = elimination.core_nodes
        core_graph = _derived_graph(
            path, "core", len(core_originals), lambda: elimination.core_graph()[0]
        )
    cursor.done()
    if zero_copy:
        store = FlatLabelStore.adopt_arrays(order, offsets, hub_ranks, hub_dists)
    else:
        if hub_dists.typecode in _SIGNED_INT_CODES and any(d < 0 for d in hub_dists):
            raise SerializationError(f"negative core label distance in {path}")
        store = FlatLabelStore.from_arrays(order, offsets, hub_ranks, hub_dists)
    if store.n != core_graph.n or store.n != len(core_originals):
        raise SerializationError(
            f"core section of {path} is internally inconsistent "
            f"({store.n} labeled nodes, {core_graph.n} core-graph nodes, "
            f"{len(core_originals)} core nodes)"
        )
    labels = store if backend == "flat" else store.to_hub_labeling()
    core_index = PrunedLandmarkLabeling(core_graph, labels, list(order))
    compact = {orig: i for i, orig in enumerate(core_originals)}

    index = CTIndex(
        graph=graph,
        bandwidth=bandwidth,
        reduction=reduction,
        tree_index=tree_index,
        core_index=core_index,
        core_originals=core_originals,
        core_compact=compact,
    )
    index.build_seconds = float(meta.get("build_seconds", 0.0))
    index.snapshot_source = source
    return index
