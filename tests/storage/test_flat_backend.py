"""Backend switching on the built indexes: ``backend=``, ``compact()``,
``to_dict_backend()`` — the dict and flat stores must be observationally
identical behind every entry point."""

from __future__ import annotations

import pytest

import repro
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import IndexConstructionError
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.traversal import all_pairs_distances
from repro.labeling.base import LABEL_BACKENDS, validate_backend
from repro.labeling.pll import build_pll
from repro.labeling.psl import build_psl
from repro.storage.flat_labels import FlatLabelStore
from repro.storage.flat_tree import FlatTreeLabelStore
from repro.storage.sizing import ct_resident_label_bytes


@pytest.fixture(scope="module")
def graph():
    return gnp_graph(30, 0.15, seed=12)


@pytest.fixture(scope="module")
def truth(graph):
    return all_pairs_distances(graph)


def assert_answers(index, graph, truth):
    for s in graph.nodes():
        for t in graph.nodes():
            assert index.distance(s, t) == truth[s][t], (s, t)


class TestBackendArgument:
    def test_backends_registry(self):
        assert LABEL_BACKENDS == ("dict", "flat")
        for backend in LABEL_BACKENDS:
            assert validate_backend(backend) == backend

    @pytest.mark.parametrize("backend", ["csr", "", None, "FLAT"])
    def test_unknown_backend_rejected(self, backend):
        with pytest.raises(IndexConstructionError, match="backend"):
            validate_backend(backend)

    def test_build_rejects_unknown_backend(self, graph):
        with pytest.raises(IndexConstructionError, match="backend"):
            CTIndex.build(graph, 3, backend="csr")
        with pytest.raises(IndexConstructionError, match="backend"):
            build_pll(graph, backend="csr")

    def test_pll_flat_build(self, graph, truth):
        index = build_pll(graph, backend="flat")
        assert index.storage_backend == "flat"
        assert isinstance(index.labels, FlatLabelStore)
        assert_answers(index, graph, truth)

    def test_psl_flat_build(self, graph, truth):
        index = build_psl(graph, backend="flat")
        assert index.storage_backend == "flat"
        assert_answers(index, graph, truth)

    def test_ct_flat_build(self, graph, truth):
        index = CTIndex.build(graph, 4, backend="flat")
        assert index.storage_backend == "flat"
        assert isinstance(index.core_index.labels, FlatLabelStore)
        assert isinstance(index.tree_index.labels, FlatTreeLabelStore)
        assert_answers(index, graph, truth)

    def test_build_ct_index_passthrough(self, graph):
        index = repro.build(graph, 4, backend="flat")
        assert index.storage_backend == "flat"


class TestConversion:
    def test_compact_preserves_everything(self, graph, truth):
        index = CTIndex.build(graph, 4)
        before_print = index_fingerprint(index)
        before_entries = index.size_entries()
        index.compact()
        assert index.storage_backend == "flat"
        assert index.size_entries() == before_entries
        assert index_fingerprint(index) == before_print
        assert_answers(index, graph, truth)

    def test_round_trip_back_to_dict(self, graph, truth):
        index = CTIndex.build(graph, 4)
        fingerprint = index_fingerprint(index)
        index.compact().to_dict_backend()
        assert index.storage_backend == "dict"
        assert not isinstance(index.core_index.labels, FlatLabelStore)
        assert index_fingerprint(index) == fingerprint
        assert_answers(index, graph, truth)

    def test_compact_is_idempotent(self, graph):
        index = CTIndex.build(graph, 4, backend="flat")
        core_labels = index.core_index.labels
        index.compact()
        assert index.core_index.labels is core_labels

    def test_to_dict_backend_on_dict_is_noop(self, graph):
        index = CTIndex.build(graph, 4)
        labels = index.core_index.labels
        index.to_dict_backend()
        assert index.core_index.labels is labels

    def test_compact_weighted(self, truth):
        weighted = random_weighted(gnp_graph(20, 0.2, seed=3), 1, 9, seed=4)
        wtruth = all_pairs_distances(weighted)
        index = CTIndex.build(weighted, 3)
        fingerprint = index_fingerprint(index)
        index.compact()
        assert index_fingerprint(index) == fingerprint
        assert_answers(index, weighted, wtruth)

    def test_queries_survive_conversion_mid_stream(self, graph, truth):
        # The extension-label cache must be dropped on conversion, not
        # left pointing at the old store.
        index = CTIndex.build(graph, 4)
        pairs = [(0, graph.n - 1), (1, 2), (5, 17)]
        before = [index.distance(s, t) for s, t in pairs]
        index.compact()
        assert [index.distance(s, t) for s, t in pairs] == before
        index.to_dict_backend()
        assert [index.distance(s, t) for s, t in pairs] == before


class TestResidency:
    def test_flat_labels_are_smaller(self, graph):
        index = CTIndex.build(graph, 4)
        dict_bytes = ct_resident_label_bytes(index)
        index.compact()
        flat_bytes = ct_resident_label_bytes(index)
        assert flat_bytes["total"] < dict_bytes["total"]
        assert flat_bytes["core"] < dict_bytes["core"]
        assert set(flat_bytes) == {"core", "tree", "total"}
        assert flat_bytes["total"] == flat_bytes["core"] + flat_bytes["tree"]
