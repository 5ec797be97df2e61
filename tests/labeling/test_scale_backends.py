"""The scale-construction paths: vectorized PSL, hopdb, and order="is".

All three are alternative *schedules* over the same canonical label
definition, so every test here is differential: identical labels (or
identical ``index_fingerprint``) against the serial reference, or exact
distances against BFS where the decomposition itself legitimately
differs (``order="is"``).
"""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import IndexConstructionError
from repro.graphs.generators.power_law import barabasi_albert_graph
from repro.graphs.generators.primitives import cycle_graph, star_graph
from repro.graphs.generators.random_graphs import (
    connected_gnp_graph,
    gnp_graph,
    random_weighted,
)
from repro.graphs.traversal import bfs_distances
from repro.kernels import VECTORIZE_MIN_NODES
from repro.labeling.hopdb import build_hopdb
from repro.labeling.pll import build_pll
from repro.labeling.psl import build_psl

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def _same_labels(a, b):
    for v in a.graph.nodes():
        assert sorted(a.labels.label_entries(v)) == sorted(
            b.labels.label_entries(v)
        ), v


class TestVectorizedPsl:
    @needs_numpy
    @pytest.mark.parametrize("seed", range(4))
    def test_numpy_rounds_match_python_rounds(self, seed):
        g = gnp_graph(max(VECTORIZE_MIN_NODES, 80), 0.06, seed=seed)
        serial = build_psl(g, kernel="python")
        vectorized = build_psl(g, order=serial.order, kernel="numpy")
        _same_labels(serial, vectorized)

    @needs_numpy
    def test_scale_free_and_structured_shapes(self):
        for g in (
            barabasi_albert_graph(200, 3, seed=2),
            star_graph(100),
            cycle_graph(90),
        ):
            serial = build_psl(g, kernel="python")
            vectorized = build_psl(g, order=serial.order, kernel="numpy")
            _same_labels(serial, vectorized)

    @needs_numpy
    def test_auto_matches_explicit_on_large_graphs(self):
        g = gnp_graph(120, 0.05, seed=9)
        assert g.n >= VECTORIZE_MIN_NODES
        auto = build_psl(g, kernel="auto")
        explicit = build_psl(g, order=auto.order, kernel="python")
        _same_labels(auto, explicit)

    def test_auto_without_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
        g = gnp_graph(max(VECTORIZE_MIN_NODES, 70), 0.08, seed=3)
        index = build_psl(g, kernel="auto")
        truth = bfs_distances(g, 0)
        for t in g.nodes():
            assert index.distance(0, t) == truth[t]


class TestHopDoubling:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_labels_as_pll_under_same_order(self, seed):
        g = gnp_graph(30, 0.12, seed=seed)
        pll = build_pll(g)
        hop = build_hopdb(g, order=pll.order)
        _same_labels(pll, hop)

    def test_disconnected_and_structured_shapes(self):
        from repro.graphs.graph import Graph

        for g in (
            Graph.from_edges(6, [(0, 1), (2, 3), (3, 4)]),
            star_graph(12),
            cycle_graph(11),
            barabasi_albert_graph(60, 2, seed=5),
        ):
            pll = build_pll(g)
            hop = build_hopdb(g, order=pll.order)
            _same_labels(pll, hop)

    def test_weighted_rejected(self):
        g = random_weighted(gnp_graph(10, 0.3, seed=1), 2, 5, seed=2)
        with pytest.raises(IndexConstructionError):
            build_hopdb(g)

    def test_ct_core_backend_fingerprint_identity(self):
        g = connected_gnp_graph(150, 0.04, seed=7)
        reference = index_fingerprint(CTIndex.build(g, 4, core_backend="pll"))
        for core_backend in ("psl", "hopdb"):
            index = CTIndex.build(g, 4, core_backend=core_backend)
            assert index_fingerprint(index) == reference, core_backend


class TestIndependentSetOrder:
    def test_exact_distances(self):
        g = connected_gnp_graph(140, 0.045, seed=13)
        index = CTIndex.build(g, 4, order="is")
        for s in range(0, g.n, 29):
            truth = bfs_distances(g, s)
            for t in range(0, g.n, 7):
                assert index.distance(s, t) == truth[t], (s, t)

    def test_backends_agree_under_is_order(self):
        g = connected_gnp_graph(120, 0.05, seed=17)
        reference = index_fingerprint(
            CTIndex.build(g, 3, order="is", core_backend="pll")
        )
        for core_backend in ("psl", "hopdb"):
            index = CTIndex.build(g, 3, order="is", core_backend=core_backend)
            assert index_fingerprint(index) == reference, core_backend

    def test_unknown_order_rejected(self):
        g = gnp_graph(20, 0.2, seed=1)
        with pytest.raises(IndexConstructionError):
            CTIndex.build(g, 3, order="random")
