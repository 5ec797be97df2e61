"""Binary snapshot round-trips: every (save backend × load backend ×
format) combination must reproduce the same index, bit for bit by
fingerprint and answer for answer on queries."""

from __future__ import annotations

import math

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    index_fingerprint,
    is_binary_snapshot,
    load_ct_index,
    load_ct_index_binary,
    save_ct_index,
    save_ct_index_binary,
)
from repro.exceptions import IndexConstructionError, SerializationError
from repro.graphs.generators.primitives import star_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.traversal import all_pairs_distances


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    graph = gnp_graph(30, 0.15, seed=21)
    index = CTIndex.build(graph, 4)
    tmp = tmp_path_factory.mktemp("snap")
    json_path = tmp / "index.json"
    binary_path = tmp / "index.ctsnap"
    save_ct_index(index, json_path)
    save_ct_index_binary(index, binary_path)
    return graph, index, json_path, binary_path


class TestRoundTrip:
    def test_detection(self, built):
        _, _, json_path, binary_path = built
        assert is_binary_snapshot(binary_path)
        assert not is_binary_snapshot(json_path)
        assert not is_binary_snapshot(json_path.parent / "missing.ctsnap")

    def test_binary_answers_match_truth(self, built):
        graph, _, _, binary_path = built
        loaded = load_ct_index_binary(binary_path)
        truth = all_pairs_distances(graph)
        for s in graph.nodes():
            for t in graph.nodes():
                assert loaded.distance(s, t) == truth[s][t], (s, t)

    def test_fingerprint_identical_across_all_load_paths(self, built):
        _, index, json_path, binary_path = built
        fingerprints = {
            index_fingerprint(index),
            index_fingerprint(load_ct_index(json_path)),
            index_fingerprint(load_ct_index(json_path, backend="flat")),
            index_fingerprint(load_ct_index(binary_path)),
            index_fingerprint(load_ct_index_binary(binary_path, backend="dict")),
        }
        assert len(fingerprints) == 1

    def test_autodetect_routes_by_magic(self, built):
        _, _, _, binary_path = built
        # The generic loader must open the snapshot without a format flag.
        loaded = load_ct_index(binary_path)
        assert loaded.storage_backend == "flat"

    def test_load_backend_selection(self, built):
        _, _, _, binary_path = built
        assert load_ct_index_binary(binary_path).storage_backend == "flat"
        assert (
            load_ct_index_binary(binary_path, backend="dict").storage_backend
            == "dict"
        )
        assert (
            load_ct_index(binary_path, backend="dict").storage_backend == "dict"
        )

    def test_unknown_load_backend_rejected(self, built):
        _, _, json_path, binary_path = built
        with pytest.raises(SerializationError, match="backend"):
            load_ct_index_binary(binary_path, backend="csr")
        with pytest.raises(IndexConstructionError, match="backend"):
            load_ct_index(json_path, backend="csr")

    def test_save_from_flat_backend(self, built, tmp_path):
        graph, index, _, binary_path = built
        flat = CTIndex.build(graph, 4, backend="flat")
        path = tmp_path / "fromflat.ctsnap"
        save_ct_index_binary(flat, path)
        assert index_fingerprint(load_ct_index(path)) == index_fingerprint(index)

    def test_build_seconds_persisted(self, built, tmp_path):
        graph, _, _, _ = built
        index = CTIndex.build(graph, 4)
        index.build_seconds = 1.25
        path = tmp_path / "seconds.ctsnap"
        save_ct_index_binary(index, path)
        assert load_ct_index(path).build_seconds == 1.25


class TestWeightedAndSpecial:
    def test_integer_weighted_round_trip(self, tmp_path):
        graph = random_weighted(gnp_graph(18, 0.22, seed=5), 1, 7, seed=6)
        index = CTIndex.build(graph, 3)
        path = tmp_path / "intw.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert index_fingerprint(loaded) == index_fingerprint(index)
        truth = all_pairs_distances(graph)
        for t in graph.nodes():
            assert loaded.distance(0, t) == truth[0][t]

    def test_float_weighted_round_trip(self, tmp_path):
        base = random_weighted(gnp_graph(15, 0.25, seed=7), 1, 5, seed=8)
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(base.n)
        for u, v, w in base.edges():
            builder.add_edge(u, v, w + 0.5)
        graph = builder.build()
        index = CTIndex.build(graph, 3)
        path = tmp_path / "floatw.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert index_fingerprint(loaded) == index_fingerprint(index)
        truth = all_pairs_distances(graph)
        for t in graph.nodes():
            assert loaded.distance(0, t) == truth[0][t]

    def test_infinite_tree_label_round_trips(self, tmp_path):
        index = CTIndex.build(gnp_graph(20, 0.2, seed=6), 3)
        index.to_dict_backend()
        injected = None
        for pos, label in enumerate(index.tree_index.labels):
            if label:
                key = next(iter(label))
                label[key] = math.inf
                injected = (pos, key)
                break
        if injected is None:
            pytest.skip("no tree labels on this build")
        path = tmp_path / "inf.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        pos, key = injected
        assert loaded.tree_index.labels[pos][key] == math.inf

    def test_reduction_survives(self, tmp_path):
        index = CTIndex.build(star_graph(10), 2)
        path = tmp_path / "star.ctsnap"
        save_ct_index_binary(index, path)
        assert load_ct_index(path).distance(1, 2) == 2

    def test_disconnected_graph_round_trips(self, tmp_path):
        from repro.graphs.builder import GraphBuilder

        builder = GraphBuilder(6)
        builder.add_edge(0, 1)
        builder.add_edge(1, 2)
        builder.add_edge(3, 4)
        graph = builder.build()
        index = CTIndex.build(graph, 2)
        path = tmp_path / "disc.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert loaded.distance(0, 2) == 2
        assert loaded.distance(0, 3) == math.inf
        assert loaded.distance(5, 0) == math.inf

    @pytest.mark.parametrize("bandwidth", [0, 2, 6])
    def test_bandwidth_sweep(self, tmp_path, bandwidth):
        graph = gnp_graph(25, 0.15, seed=30 + bandwidth)
        index = CTIndex.build(graph, bandwidth)
        path = tmp_path / f"bw{bandwidth}.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index(path)
        assert loaded.bandwidth == bandwidth
        assert index_fingerprint(loaded) == index_fingerprint(index)


def _unit_float_weights(graph):
    """``graph`` with every weight the float ``1.0`` (still unweighted)."""
    from repro.graphs.builder import GraphBuilder

    builder = GraphBuilder(graph.n)
    for u, v, _ in graph.edges():
        builder.add_edge(u, v, 1.0)
    return builder.build()


def _true_and_false_twins():
    """Triangle 0-1-2 (0, 1 true twins) hanging off a star (5, 6 false twins)."""
    from repro.graphs.builder import GraphBuilder

    builder = GraphBuilder(7)
    builder.add_clique([0, 1, 2])
    builder.add_path([2, 3, 4])
    builder.add_edge(4, 5)
    builder.add_edge(4, 6)
    return builder.build()


def _v5_graphs():
    from repro.graphs.generators.primitives import path_graph
    from tests.differential.cases import FAST_CASES

    graphs = {case.generator: case.build_graph for case in FAST_CASES}
    graphs["unit_float"] = lambda: _unit_float_weights(
        FAST_CASES[1].build_graph()
    )
    graphs["true_and_false_twins"] = _true_and_false_twins
    graphs["no_twins"] = lambda: path_graph(9)
    return graphs


V5_GRAPHS = _v5_graphs()


class TestVersion5:
    """v5 stores neither the reduced nor the core graph, nor the class
    maps it can derive; loading must still give back the built index."""

    @pytest.mark.parametrize("use_mmap", [False, True], ids=["copy", "mmap"])
    @pytest.mark.parametrize("name", sorted(V5_GRAPHS))
    def test_loaded_fingerprint_equals_built(self, tmp_path, name, use_mmap):
        index = CTIndex.build(V5_GRAPHS[name](), 3)
        path = tmp_path / f"{name}.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index_binary(path, mmap=use_mmap)
        assert index_fingerprint(loaded) == index_fingerprint(index)
        assert loaded.reduction == index.reduction
        assert loaded.core_index.graph == index.core_index.graph
        assert loaded.core_originals == index.core_originals

    def test_cases_cover_every_reduction_shape(self):
        from repro.graphs.reductions import eliminate_equivalent_nodes

        reductions = {name: eliminate_equivalent_nodes(make()) for name, make in V5_GRAPHS.items()}
        weighted = reductions["weighted_gnp"]
        assert weighted.reduced is weighted.original  # identity reduction
        unit_float = reductions["unit_float"]
        assert unit_float.build_kernel == "python" and unit_float.removed_count > 0
        assert {"true", "false"} <= set(reductions["true_and_false_twins"].twin_kind)
        assert reductions["no_twins"].removed_count == 0
        assert reductions["core_periphery"].removed_count > 0

    def test_identity_reduction_reuses_the_graph(self, tmp_path):
        index = CTIndex.build(V5_GRAPHS["weighted_gnp"](), 3)
        path = tmp_path / "weighted.ctsnap"
        save_ct_index_binary(index, path)
        for use_mmap in (False, True):
            loaded = load_ct_index_binary(path, mmap=use_mmap)
            assert loaded.reduction.reduced is loaded.graph

    def test_sections_hold_each_piece_once(self, tmp_path):
        from repro.storage.binary import _INT_CODES, _Cursor, _read_sections

        index = CTIndex.build(V5_GRAPHS["core_periphery"](), 3)
        path = tmp_path / "cp.ctsnap"
        save_ct_index_binary(index, path)
        _, sections, _ = _read_sections(path)
        reduction = _Cursor("reduction", sections["reduction"])
        assert list(reduction.typed_array(_INT_CODES)) == index.reduction.representative
        assert len(reduction.typed_array(_INT_CODES)) == 0  # originals: derived
        assert len(reduction.typed_array("B")) == index.graph.n
        reduction.done()  # no reduced graph follows
        core = _Cursor("core", sections["core"])
        for _ in range(4):  # order, offsets, hub ranks, hub distances
            core.typed_array()
        core.done()  # neither core_originals nor a core graph

    def test_twin_kinds_stay_codes(self, tmp_path):
        from repro.graphs.reductions import TwinKinds

        index = CTIndex.build(_true_and_false_twins(), 2)
        path = tmp_path / "twins.ctsnap"
        save_ct_index_binary(index, path)
        loaded = load_ct_index_binary(path)
        assert isinstance(loaded.reduction.twin_kind, TwinKinds)
        assert loaded.reduction.twin_kind == list(index.reduction.twin_kind)
        assert loaded.distance(0, 1) == 1
        assert loaded.distance(5, 6) == 2
