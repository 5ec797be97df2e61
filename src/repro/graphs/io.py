"""Edge-list file input/output.

The on-disk format mirrors the widely used whitespace-separated edge-list
layout of SNAP / Network Repository / KONECT downloads: one edge per line
(``u v`` or ``u v w``), with ``#`` and ``%`` comment lines ignored.  Node
ids in a file may be arbitrary non-negative integers; they are compacted
to ``0 .. n-1`` on load and the mapping is returned alongside the graph.

Two loaders share the format and, with NumPy, one array assembler that
compacts ids with ``np.unique``, deduplicates with one sort, and hands
the CSR straight to :class:`~repro.graphs.graph.Graph`:
:func:`read_edge_list` parses the whole file in bulk, while
:func:`read_edge_list_chunked` consumes it in bounded chunks of edges —
the loader the 10⁵–10⁶ scale tiers use.  Without NumPy both stream the
file into a :class:`~repro.graphs.builder.GraphBuilder`.  Both return
identical graphs for identical files.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from typing import Union

from repro.exceptions import GraphFormatError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import Graph, pack_weights

PathLike = Union[str, os.PathLike]

_COMMENT_PREFIXES = ("#", "%")

#: The ASCII bytes ``str.split()`` treats as whitespace.
_SPACE_BYTES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "

#: Default ``chunk_edges`` of :func:`read_edge_list_chunked`.
_CHUNK_EDGES = 1 << 18


def read_edge_list(path: PathLike) -> tuple[Graph, list[int]]:
    """Load an undirected graph from an edge-list file.

    Returns ``(graph, original_ids)`` where ``original_ids[i]`` is the node
    id that appeared in the file for compacted node ``i``.

    With NumPy the whole file is parsed in bulk into edge arrays; only
    when that parse rejects the input is the file re-scanned line by
    line, so malformed input raises :class:`GraphFormatError` naming
    ``path:line``.  Without NumPy the file streams through
    :func:`read_edge_list_chunked`'s pure-Python path.
    """
    from repro.kernels import numpy_available

    path = Path(path)
    if numpy_available():
        edges = _parse_bulk(path)
        if edges is not None:
            return _assemble_csr(*edges)
    return _read_chunked_python(path, _CHUNK_EDGES)


def read_edge_list_chunked(
    path: PathLike, *, chunk_edges: int = _CHUNK_EDGES
) -> tuple[Graph, list[int]]:
    """Load an edge-list file in bounded chunks of parsed edges.

    Same contract and result as :func:`read_edge_list` — identical
    graph, identical ``original_ids`` — but the file is consumed in
    chunks of at most ``chunk_edges`` edges, holding numeric arrays (or,
    without NumPy, a second streaming pass) instead of the whole parsed
    line list.  This is the loader the 10⁵–10⁶-node scale tiers use:
    peak transient memory tracks the compact edge arrays, not the text.

    Normalization matches :class:`~repro.graphs.builder.GraphBuilder`
    exactly: self-loops are dropped, duplicate edges keep the minimum
    weight, and the graph is flagged unweighted when every surviving
    edge has weight 1.

    Malformed input raises :class:`GraphFormatError` (a
    :class:`~repro.exceptions.GraphError`) naming ``path:line`` and the
    chunk index; no line is ever silently dropped.
    """
    from repro.kernels import numpy_available

    if chunk_edges < 1:
        raise GraphFormatError(f"chunk_edges must be >= 1, got {chunk_edges}")
    path = Path(path)
    if numpy_available():
        return _read_chunked_numpy(path, chunk_edges)
    return _read_chunked_python(path, chunk_edges)


def _iter_edge_chunks(path: Path, chunk_edges: int):
    """Yield ``(chunk_index, us, vs, ws)`` lists of validated edges.

    Shared by every line-by-line path so each malformed line fails with
    the same ``path:line (chunk k)`` diagnostic.
    """
    us: list[int] = []
    vs: list[int] = []
    ws: list[float] = []
    chunk_idx = 0
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                continue
            parts = stripped.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{line_no}: expected 'u v' or 'u v w', "
                    f"got {stripped!r} (chunk {chunk_idx})"
                )
            try:
                u = int(parts[0])
                v = int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{line_no}: non-integer node id (chunk {chunk_idx})"
                ) from exc
            if u < 0 or v < 0:
                raise GraphFormatError(
                    f"{path}:{line_no}: negative node id (chunk {chunk_idx})"
                )
            weight: float = 1
            if len(parts) == 3:
                try:
                    weight = _parse_weight(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{line_no}: bad weight {parts[2]!r} (chunk {chunk_idx})"
                    ) from exc
                if not math.isfinite(weight):
                    raise GraphFormatError(
                        f"{path}:{line_no}: non-finite weight {weight} "
                        f"(chunk {chunk_idx})"
                    )
                if weight <= 0:
                    raise GraphFormatError(
                        f"{path}:{line_no}: non-positive weight {weight} "
                        f"(chunk {chunk_idx})"
                    )
            us.append(u)
            vs.append(v)
            ws.append(weight)
            if len(us) >= chunk_edges:
                yield chunk_idx, us, vs, ws
                us, vs, ws = [], [], []
                chunk_idx += 1
    if us:
        yield chunk_idx, us, vs, ws


def _parse_bulk(path: Path):
    """Parse the whole file into ``(us, vs, ws)`` arrays, or ``None``.

    The text is tokenized as bytes in a few array passes: tokens are
    runs of non-whitespace bytes, lines whose first token starts with
    ``#`` or ``%`` are dropped, node ids must be plain ASCII digits
    (at most 18) and weights go through :func:`_parse_weight`.  ``ws``
    is ``None`` when no line carries a weight.  Anything else — a line
    the line scanner would reject, or one it would read differently
    (signs, non-ASCII digits or spaces, huge ids) — returns ``None``,
    and the caller re-reads the file line by line.
    """
    import numpy as np

    raw = path.read_text(encoding="utf-8").encode("utf-8")
    text = np.frombuffer(raw, dtype=np.uint8)
    space = np.zeros(256, dtype=bool)
    space[list(_SPACE_BYTES)] = True
    # Tokens start after and end before a blank (or the text's ends).
    blank = np.concatenate(([True], space[text], [True]))
    starts = np.flatnonzero(blank[:-2] & ~blank[1:-1])
    ends = np.flatnonzero(~blank[1:-1] & blank[2:]) + 1
    del blank
    line = np.searchsorted(np.flatnonzero(text == ord("\n")), starts)
    head = np.ones(starts.size, dtype=bool)
    head[1:] = line[1:] != line[:-1]
    comment = np.isin(text[starts[head]], np.frombuffer(b"#%", dtype=np.uint8))
    # Drop every token of a comment line.
    keep = ~np.repeat(comment, np.diff(np.append(np.flatnonzero(head), starts.size)))
    starts, ends, head = starts[keep], ends[keep], head[keep]
    heads = np.flatnonzero(head)
    widths = np.diff(np.append(heads, starts.size))
    if ((widths < 2) | (widths > 3)).any():
        return None

    def ids(at: np.ndarray):
        first, lens = starts[at], ends[at] - starts[at]
        longest = int(lens.max(initial=0))
        if longest > 18:
            return None
        values = np.zeros(at.size, dtype=np.int64)
        for k in range(longest):  # Horner's rule, one digit column at a time
            has = lens > k
            digit = text[first[has] + k].astype(np.int64) - ord("0")
            if ((digit < 0) | (digit > 9)).any():
                return None
            values[has] = values[has] * 10 + digit
        return values

    us, vs = ids(heads), ids(heads + 1)
    if us is None or vs is None:
        return None
    ws = None
    weighted = widths == 3
    if weighted.any():
        at = heads[weighted] + 2
        try:
            values = [
                _parse_weight(raw[lo:hi])
                for lo, hi in zip(starts[at].tolist(), ends[at].tolist())
            ]
        except ValueError:
            return None
        ws = np.ones(heads.size, dtype=np.float64)
        ws[weighted] = values
        if not bool((np.isfinite(ws) & (ws > 0)).all()):
            return None
    return us, vs, ws


def _assemble_csr(us, vs, ws) -> tuple[Graph, list[int]]:
    """The CSR graph of raw edge arrays, with GraphBuilder's normalization.

    Ids are compacted with ``np.unique``; self-loops are dropped and
    duplicates (either orientation) keep the minimum weight, found by
    one sort.  ``ws`` is a float64 array or ``None`` (every weight 1).
    """
    import numpy as np

    from repro.kernels.graph_arrays import symmetric_csr

    ids, inverse = np.unique(np.concatenate([us, vs]), return_inverse=True)
    n = int(ids.size)
    cu, cv = inverse[: us.size], inverse[us.size :]
    keep = cu != cv
    lo = np.minimum(cu[keep], cv[keep])
    hi = np.maximum(cu[keep], cv[keep])
    keys = lo * np.int64(n) + hi
    if ws is None:
        keys = np.unique(keys)
        min_w = None
    else:
        # Sort by key, then weight: the first of each run is the minimum.
        weights = ws[keep]
        order = np.lexsort((weights, keys))
        keys = keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        min_w = weights[order][first]
    indptr, indices, source = symmetric_csr(n, *np.divmod(keys, np.int64(max(n, 1))))
    unweighted = min_w is None or bool((min_w == 1).all())
    weights = None
    if not unweighted:
        flat = min_w[source].tolist()
        weights = pack_weights([int(w) if w.is_integer() else w for w in flat])
    graph = Graph._from_csr(n, indptr, indices, weights, unweighted=unweighted)
    return graph, ids.tolist()


def _read_chunked_numpy(path: Path, chunk_edges: int) -> tuple[Graph, list[int]]:
    """Chunked load: validated chunks become arrays, then one bulk assembly."""
    import numpy as np

    u_chunks: list = []
    v_chunks: list = []
    w_chunks: list = []
    for _, us, vs, ws in _iter_edge_chunks(path, chunk_edges):
        u_chunks.append(np.asarray(us, dtype=np.int64))
        v_chunks.append(np.asarray(vs, dtype=np.int64))
        w_chunks.append(np.asarray(ws, dtype=np.float64))
    if not u_chunks:
        return Graph.empty(0), []
    return _assemble_csr(
        np.concatenate(u_chunks), np.concatenate(v_chunks), np.concatenate(w_chunks)
    )


def _read_chunked_python(path: Path, chunk_edges: int) -> tuple[Graph, list[int]]:
    """Chunked load without NumPy: two streaming passes over the file.

    Pass 1 collects (and validates) the node-id universe, pass 2 feeds
    the compacted edges straight into a :class:`GraphBuilder` — at no
    point is the whole parsed edge list resident.
    """
    seen: set[int] = set()
    for _, us, vs, _ws in _iter_edge_chunks(path, chunk_edges):
        seen.update(us)
        seen.update(vs)
    original_ids = sorted(seen)
    compact = {orig: i for i, orig in enumerate(original_ids)}
    builder = GraphBuilder(len(original_ids))
    for _, us, vs, ws in _iter_edge_chunks(path, chunk_edges):
        for u, v, w in zip(us, vs, ws):
            builder.add_edge(compact[u], compact[v], w)
    return builder.build(), original_ids


def write_edge_list(graph: Graph, path: PathLike, *, header: str | None = None) -> None:
    """Write ``graph`` as a whitespace-separated edge list.

    Weights are emitted only when the graph is weighted, so unweighted
    graphs round-trip through the common two-column format.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# nodes={graph.n} edges={graph.m}\n")
        for u, v, w in graph.edges():
            if graph.unweighted:
                handle.write(f"{u} {v}\n")
            else:
                handle.write(f"{u} {v} {w}\n")


def _parse_weight(token: str) -> float:
    """Parse a weight token, preferring int when exact."""
    value = float(token)
    if value.is_integer():
        return int(value)
    return value
