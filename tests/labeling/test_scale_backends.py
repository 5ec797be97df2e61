"""The scale-construction path: vectorized PSL.

It is an alternative *schedule* over the same canonical label
definition, so every test here is differential: identical labels (or
identical ``index_fingerprint``) against the serial reference.
"""

from __future__ import annotations

import pytest

import repro.kernels as kernels
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import IndexConstructionError
from repro.graphs.generators.power_law import barabasi_albert_graph
from repro.graphs.generators.primitives import cycle_graph, star_graph
from repro.graphs.generators.random_graphs import connected_gnp_graph, gnp_graph
from repro.graphs.traversal import bfs_distances
from repro.kernels import VECTORIZE_MIN_NODES
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

    def test_ct_core_backend_fingerprint_identity(self):
        g = connected_gnp_graph(150, 0.04, seed=7)
        reference = index_fingerprint(CTIndex.build(g, 4, core_backend="pll"))
        index = CTIndex.build(g, 4, core_backend="psl")
        assert index_fingerprint(index) == reference


class TestIndependentSetOrder:
    def test_unknown_order_rejected(self):
        g = gnp_graph(20, 0.2, seed=1)
        for order in ("random", "is"):
            with pytest.raises(IndexConstructionError):
                CTIndex.build(g, 3, order=order)
