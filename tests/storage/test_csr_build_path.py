"""The default build path runs on the graph's CSR arrays end to end.

``repro.build`` → ``compact`` → binary ``save`` must never split the
original graph into tuple rows (the twin reduction, the snapshot
writer and every other step read its arrays), and the array writers
must produce the bytes the scalar writers produce.
"""

from __future__ import annotations

from array import array

import pytest

pytest.importorskip("numpy")

import repro
import repro.kernels as kernels
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import Graph
from repro.graphs.io import read_edge_list, write_edge_list
from repro.storage.binary import _narrowed, _put_graph


@pytest.fixture
def cp_edges(tmp_path):
    graph = core_periphery_graph(
        CorePeripheryConfig(core_size=30, community_count=6, fringe_size=600), seed=4
    )
    path = tmp_path / "cp.edges"
    write_edge_list(graph, path)
    return path


def test_original_tuple_view_never_built(cp_edges, tmp_path, monkeypatch):
    graph, _ = read_edge_list(cp_edges)
    built = []
    original = Graph._build_row_view

    def spy(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Graph, "_build_row_view", spy)
    index = repro.build(graph, 20)
    index.compact()
    repro.save(index, tmp_path / "cp.bin", format="binary")
    assert index.reduction.build_kernel == "numpy"
    assert index.reduction.removed_count > 0
    assert not any(g is graph for g in built)


def test_snapshot_bytes_match_scalar_reduction(cp_edges, tmp_path):
    graph, _ = read_edge_list(cp_edges)
    payloads = []
    for kernel in ("auto", "python"):
        index = repro.build(graph, 20, kernel=kernel)
        assert index.reduction.build_kernel == ("numpy" if kernel == "auto" else "python")
        index.build_seconds = 0.0
        path = tmp_path / f"{kernel}.bin"
        repro.save(index, path, format="binary")
        payloads.append(path.read_bytes())
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize(
    "graph",
    [
        Graph.empty(0),
        Graph.empty(3),
        gnp_graph(40, 0.2, seed=1),
        random_weighted(gnp_graph(40, 0.2, seed=1), 1, 300, seed=2),
        Graph.from_edges(4, [(0, 1, 0.5), (1, 2, 2.5), (2, 3, 1.5)]),
        Graph.from_edges(4, [(0, 1, 2), (1, 2, 2.5), (2, 3, 1)]),
        Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]),
    ],
    ids=["null", "edgeless", "unweighted", "int", "float", "mixed", "unit-float"],
)
def test_graph_section_bytes_match_scalar_writer(graph, monkeypatch):
    fast = bytearray()
    _put_graph(fast, graph)
    monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
    slow = bytearray()
    _put_graph(slow, graph)
    assert fast == slow


@pytest.mark.parametrize(
    "values",
    [
        array("q", [0, 5, 127]),
        array("q", [-1, 128]),
        array("q", [-40000, 3]),
        array("q", [1 << 40]),
        array("Q", [0, 255]),
        array("Q", [70000]),
        array("d", [1.5]),
        array("q"),
    ],
)
def test_narrowed_matches_scalar(values, monkeypatch):
    fast = _narrowed(values)
    monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
    slow = _narrowed(values)
    assert (fast.typecode, list(fast)) == (slow.typecode, list(slow))
