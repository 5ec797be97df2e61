"""Persistent storage of built CT-Indexes.

Indexes are saved as a single JSON document (versioned, self-contained:
it embeds the reduced graph, the decomposition skeleton, the tree
labels, and the core labels), so a saved index can be reloaded and
queried without touching the original graph file.  JSON keeps the format
inspectable and avoids pickle's arbitrary-code-execution hazard.

Infinite weights (disconnected label entries store ``math.inf``) are
serialized as the string sentinel ``"inf"`` — RFC 8259 has no
``Infinity`` literal, and strict parsers reject it — and decoded back
to ``math.inf`` on load.  ``json.dump`` runs with ``allow_nan=False``
so any non-finite float that escapes the sentinel encoding fails the
save loudly instead of emitting a non-standard document.

Integral float weights are canonicalized to ints on encode (``2.0``
becomes ``2``): the flat storage backend may return ``float`` where the
dict backend holds ``int`` (a packed ``array('d')`` has no mixed types),
and the canonical form keeps :func:`index_fingerprint` — and the saved
bytes — a pure function of the index *content*, independent of which
backend stores it.

A second, binary on-disk format (version 5, magic ``RCTINDEX``) lives
in :mod:`repro.storage.binary`; :func:`load_ct_index` auto-detects it
by magic, so one loader reads both formats.  See ``docs/formats.md``.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Union

from repro.exceptions import ReproError, SerializationError
from repro.graphs.builder import GraphBuilder
from repro.graphs.graph import Graph
from repro.graphs.reductions import EquivalenceReduction, TwinKinds
from repro.labeling.hub_labels import HubLabeling
from repro.labeling.pll import PrunedLandmarkLabeling
from repro.core.construction import TreeIndex
from repro.core.ct_index import CTIndex
from repro.treedec.elimination import EliminationResult, rows_to_csr
from repro.storage.binary import (  # noqa: F401  (re-exported: one import site for persistence)
    BINARY_FORMAT_VERSION,
    is_binary_snapshot,
    load_ct_index_binary,
    save_ct_index_binary,
)

PathLike = Union[str, os.PathLike]

#: Version 2 introduced the ``"inf"`` sentinel for infinite weights.
#: Version-1 documents (plain ``Infinity`` literals, which Python's
#: lenient parser accepts) still load.
FORMAT_VERSION = 2

SUPPORTED_VERSIONS = frozenset({1, FORMAT_VERSION})


def _document_sections(index: CTIndex) -> dict:
    """Top-level document keys, in document order, each with its encoder.

    The encoders are thunks so :func:`index_fingerprint` can build and
    serialize one section at a time.
    """
    return {
        "format": lambda: "repro-ct-index",
        "version": lambda: FORMAT_VERSION,
        "bandwidth": lambda: index.bandwidth,
        "graph": lambda: _encode_graph(index.graph),
        "reduction": lambda: _encode_reduction(index.reduction),
        "elimination": lambda: _encode_elimination(index.decomposition.elimination),
        "tree_labels": lambda: [
            _encode_weight_map(label) for label in index.tree_index.labels
        ],
        "core": lambda: _encode_core(index),
    }


def index_document(index: CTIndex, *, include_timings: bool = True) -> dict:
    """The JSON-ready document describing ``index``.

    With ``include_timings=False`` the (schedule-dependent) build time
    is omitted, leaving only content that is a pure function of the
    graph and the build parameters.
    """
    document = {key: encode() for key, encode in _document_sections(index).items()}
    if include_timings:
        document["build_seconds"] = index.build_seconds
    return document


def index_fingerprint(index: CTIndex) -> bytes:
    """Canonical serialized bytes of ``index``, timing excluded.

    Two builds of the same graph with the same parameters produce equal
    fingerprints regardless of the construction schedule (serial or any
    ``workers=N``) — the determinism guarantee the differential suite
    and ``build-bench`` verify.  Keys are sorted so the fingerprint does
    not depend on document-assembly order.

    The bytes are those of ``json.dumps(index_document(index,
    include_timings=False), sort_keys=True, separators=(",", ":"))``,
    but each top-level section is built and serialized on its own, so
    peak memory is that of the largest section rather than of the
    whole document.
    """
    encode = json.JSONEncoder(
        allow_nan=False, sort_keys=True, separators=(",", ":")
    ).encode
    sections = _document_sections(index)
    parts = [
        f"{encode(key)}:{encode(sections[key]())}".encode("utf-8")
        for key in sorted(sections)
    ]
    return b"{" + b",".join(parts) + b"}"


def save_ct_index(index: CTIndex, path: PathLike) -> None:
    """Write ``index`` to ``path`` as JSON."""
    document = index_document(index)
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, allow_nan=False)


def load_ct_index(
    path: PathLike, *, backend: str | None = None, mmap: bool = False
) -> CTIndex:
    """Reload a CT-Index written by :func:`save_ct_index` or
    :func:`~repro.storage.binary.save_ct_index_binary`.

    The two on-disk formats are distinguished by the binary magic, so
    callers never pass a format flag.  ``backend`` selects the label
    storage of the loaded index (``"dict"`` or ``"flat"``); ``None``
    keeps each format's natural layout — dict for JSON documents, flat
    for binary snapshots.  ``mmap=True`` memory-maps a binary snapshot
    instead of copying it (flat backend only; see
    :func:`~repro.storage.binary.load_ct_index_binary`) and is rejected
    for JSON documents, which have no mappable layout.
    """
    if backend is not None:
        from repro.labeling.base import validate_backend

        validate_backend(backend)
    path = Path(path)
    if is_binary_snapshot(path):
        return load_ct_index_binary(path, backend=backend or "flat", mmap=mmap)
    if mmap:
        raise SerializationError(
            f"mmap=True requires a binary snapshot; {path} is a JSON "
            f"document (re-save it with format='binary' to map it)"
        )
    try:
        with path.open("r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SerializationError(f"cannot read index file {path}: {exc}") from exc
    if not isinstance(document, dict) or document.get("format") != "repro-ct-index":
        raise SerializationError(f"{path} is not a CT-Index file")
    version = document.get("version")
    # bool is an int subclass, so `True in {1, 2}` would slip through.
    if isinstance(version, bool) or version not in SUPPORTED_VERSIONS:
        raise SerializationError(
            f"unsupported index format version {version!r} in {path}: this "
            f"build reads JSON documents of versions "
            f"{sorted(SUPPORTED_VERSIONS)} and binary snapshots of version "
            f"{BINARY_FORMAT_VERSION}; a newer writer probably produced this "
            f"file"
        )

    try:
        graph = _decode_graph(document["graph"])
        reduction = _decode_reduction(document["reduction"], graph)
        elimination = _decode_elimination(document["elimination"], reduction.reduced)
        from repro.treedec.core_tree import core_tree_decomposition

        decomposition = core_tree_decomposition(
            reduction.reduced, document["bandwidth"], elimination=elimination
        )
        tree_labels = [_decode_weight_map(label) for label in document["tree_labels"]]
        tree_index = TreeIndex(decomposition, tree_labels)
        core_index, originals, compact = _decode_core(document["core"])
        index = CTIndex(
            graph=graph,
            bandwidth=document["bandwidth"],
            reduction=reduction,
            tree_index=tree_index,
            core_index=core_index,
            core_originals=originals,
            core_compact=compact,
        )
        index.build_seconds = float(document.get("build_seconds", 0.0))
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, AttributeError, ReproError) as exc:
        # Truncated or hand-edited documents surface as one library error
        # rather than leaking internal decoding exceptions.
        raise SerializationError(f"corrupt CT-Index document in {path}: {exc!r}") from exc
    if backend == "flat":
        index.compact()
    return index


# ----------------------------------------------------------------------
# Encoding helpers
# ----------------------------------------------------------------------


def _encode_weight(weight):
    """JSON-safe canonical weight.

    ``math.inf`` becomes the ``"inf"`` sentinel, and integral floats
    become ints — the flat backend's packed ``array('d')`` hands back
    ``2.0`` where the dict backend holds ``2``, and the document (hence
    the fingerprint) must not depend on the storage backend.
    """
    if weight == math.inf:
        return "inf"
    if isinstance(weight, float) and weight.is_integer():
        return int(weight)
    return weight


def _decode_weight(value):
    return math.inf if value == "inf" else value


def _encode_graph(graph: Graph) -> dict:
    return {
        "n": graph.n,
        "edges": [[u, v, _encode_weight(w)] for u, v, w in graph.edges()],
    }


def _decode_graph(payload: dict) -> Graph:
    builder = GraphBuilder(int(payload["n"]))
    for u, v, w in payload["edges"]:
        builder.add_edge(int(u), int(v), _decode_weight(w))
    return builder.build()


def _encode_reduction(reduction: EquivalenceReduction) -> dict:
    return {
        "reduced_graph": _encode_graph(reduction.reduced),
        "representative": reduction.representative,
        "originals": reduction.originals,
        "twin_kind": list(reduction.twin_kind),
    }


def _decode_reduction(payload: dict, original: Graph) -> EquivalenceReduction:
    return EquivalenceReduction(
        original=original,
        reduced=_decode_graph(payload["reduced_graph"]),
        representative=[int(v) for v in payload["representative"]],
        originals=[int(v) for v in payload["originals"]],
        twin_kind=TwinKinds.from_kinds(payload["twin_kind"]),
    )


def _encode_elimination(elimination: EliminationResult) -> dict:
    steps = []
    for pos, node in enumerate(elimination.order):
        neighbors, local = elimination.bag(pos)
        steps.append(
            {
                "node": node,
                "neighbors": list(neighbors),
                "local_distance": {
                    str(u): _encode_weight(w) for u, w in zip(neighbors, local)
                },
            }
        )
    return {
        "bandwidth": elimination.bandwidth,
        "steps": steps,
        "core_nodes": list(elimination.core_nodes),
        "core_adjacency": {
            str(v): {str(u): _encode_weight(w) for u, w in zip(targets, weights)}
            for v, targets, weights in elimination.core_rows()
        },
    }


def _bag_row(raw: dict) -> dict:
    distances = _decode_weight_map(raw["local_distance"])
    return {int(u): distances[int(u)] for u in raw["neighbors"]}


def _decode_elimination(payload: dict, graph: Graph) -> EliminationResult:
    steps = payload["steps"]
    order = [int(raw["node"]) for raw in steps]
    counts, neighbors, local = rows_to_csr(map(_bag_row, steps))
    core_nodes = [int(v) for v in payload["core_nodes"]]
    rows = {int(v): _decode_weight_map(row) for v, row in payload["core_adjacency"].items()}
    core_counts, core_targets, core_weights = rows_to_csr(rows[v] for v in core_nodes)
    return EliminationResult.from_arrays(
        graph,
        payload["bandwidth"],
        order=order,
        counts=counts,
        neighbors=neighbors,
        local=local,
        core_nodes=core_nodes,
        core_counts=core_counts,
        core_targets=core_targets,
        core_weights=core_weights,
    )


def _encode_core(index: CTIndex) -> dict:
    labels = index.core_index.labels
    per_node = []
    for v in range(labels.n):
        entries = list(labels.iter_rank_entries(v))
        per_node.append([[rank, _encode_weight(dist)] for rank, dist in entries])
    return {
        "originals": index.core_originals,
        "order": index.core_index.order,
        "labels": per_node,
        "graph": _encode_graph(index.core_index.graph),
    }


def _decode_core(payload: dict) -> tuple[PrunedLandmarkLabeling, list[int], dict[int, int]]:
    graph = _decode_graph(payload["graph"])
    order = [int(v) for v in payload["order"]]
    labels = HubLabeling(order)
    for v, entries in enumerate(payload["labels"]):
        for rank, dist in entries:
            labels.append_entry(v, int(rank), _decode_weight(dist))
    originals = [int(v) for v in payload["originals"]]
    compact = {orig: i for i, orig in enumerate(originals)}
    return PrunedLandmarkLabeling(graph, labels, order), originals, compact


def _encode_weight_map(mapping: dict) -> dict:
    return {str(k): _encode_weight(v) for k, v in mapping.items()}


def _decode_weight_map(payload: dict) -> dict:
    return {int(k): _decode_weight(v) for k, v in payload.items()}
