"""Unit tests for the Graph type."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.graph import Graph
from repro.graphs.generators.primitives import clique_graph, path_graph


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.unweighted

    def test_from_edges_weighted(self):
        g = Graph.from_edges(3, [(0, 1, 5), (1, 2, 2)])
        assert not g.unweighted
        assert g.edge_weight(0, 1) == 5
        assert g.edge_weight(2, 1) == 2

    def test_empty(self):
        g = Graph.empty(5)
        assert g.n == 5
        assert g.m == 0
        assert g.max_degree() == 0

    def test_zero_nodes(self):
        g = Graph.empty(0)
        assert g.n == 0
        assert list(g.edges()) == []
        assert g.average_degree() == 0.0

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [], unweighted=True)

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [[(1, 1)], []], unweighted=True)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph(1, [[(0, 1)]], unweighted=True)

    def test_out_of_range_neighbor_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [[(5, 1)], []], unweighted=True)

    def test_parallel_edges_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [[(1, 1), (1, 2)], [(0, 1), (0, 2)]], unweighted=True)


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph.from_edges(5, [(0, 4), (0, 2), (0, 1)])
        assert g.neighbor_ids(0) == (1, 2, 4)

    def test_neighbor_weights_aligned(self):
        g = Graph.from_edges(3, [(0, 2, 7), (0, 1, 3)])
        assert g.neighbor_ids(0) == (1, 2)
        assert g.neighbor_weights(0) == (3, 7)

    def test_degree(self):
        g = path_graph(4)
        assert g.degree(0) == 1
        assert g.degree(1) == 2

    def test_degree_out_of_range(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.degree(3)

    def test_has_edge(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)
        assert not g.has_edge(0, 0)

    def test_edge_weight_missing_raises(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.edge_weight(0, 2)

    def test_edges_iterates_once(self):
        g = clique_graph(4)
        edges = list(g.edges())
        assert len(edges) == 6
        assert all(u < v for u, v, _ in edges)

    def test_total_weight(self):
        g = Graph.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        assert g.total_weight() == 5

    def test_max_and_average_degree(self):
        g = path_graph(5)
        assert g.max_degree() == 2
        assert g.average_degree() == pytest.approx(2 * 4 / 5)


class TestDerivedGraphs:
    def test_induced_subgraph(self):
        g = path_graph(5)
        sub, originals = g.induced_subgraph([1, 2, 3])
        assert originals == [1, 2, 3]
        assert sub.n == 3
        assert sub.m == 2
        assert sub.has_edge(0, 1)

    def test_induced_subgraph_drops_cross_edges(self):
        g = path_graph(5)
        sub, _ = g.induced_subgraph([0, 2, 4])
        assert sub.m == 0

    def test_induced_subgraph_duplicates_collapsed(self):
        g = path_graph(3)
        sub, originals = g.induced_subgraph([1, 1, 2])
        assert originals == [1, 2]
        assert sub.n == 2

    def test_relabeled_roundtrip(self):
        g = Graph.from_edges(3, [(0, 1, 2), (1, 2, 5)])
        permuted = g.relabeled([2, 0, 1])
        assert permuted.edge_weight(2, 0) == 2
        assert permuted.edge_weight(0, 1) == 5

    def test_relabeled_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(GraphError):
            g.relabeled([0, 0, 1])

    def test_with_unit_weights(self):
        g = Graph.from_edges(3, [(0, 1, 9), (1, 2, 4)])
        unit = g.with_unit_weights()
        assert unit.unweighted
        assert unit.edge_weight(0, 1) == 1
        assert unit.m == g.m


class TestDunder:
    def test_equality(self):
        a = path_graph(4)
        b = path_graph(4)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        assert path_graph(4) != path_graph(5)

    def test_repr(self):
        g = Graph.from_edges(3, [(0, 1, 2)])
        assert "weighted" in repr(g)
        assert "n=3" in repr(g)


def _csr_of_rows(graph):
    """``(indptr, indices, weights)`` rebuilt from the tuple view."""
    indptr = [0]
    indices = []
    weights = []
    for v in graph.nodes():
        indices.extend(graph.neighbor_ids(v))
        weights.extend(graph.neighbor_weights(v))
        indptr.append(len(indices))
    return indptr, indices, weights


def _constructed_graphs(tmp_path):
    """One graph from every constructor, with weights of every storage kind."""
    import pickle

    from repro.core.ct_index import CTIndex
    from repro.graphs.io import read_edge_list, write_edge_list
    from repro.storage.binary import load_ct_index_binary, save_ct_index_binary

    weighted = Graph.from_edges(5, [(0, 1, 2), (1, 2, 2.5), (2, 3, 4), (3, 4, 1)])
    graphs = {
        "init": Graph(3, [[(2, 7), (1, 3)], [(0, 3)], [(0, 7)]], unweighted=False),
        "from_edges": Graph.from_edges(5, [(0, 4), (4, 2), (2, 1)]),
        "from_edges_int": Graph.from_edges(4, [(0, 1, 5), (1, 2, 1), (3, 0, 9)]),
        "from_edges_float": Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 1.5)]),
        "from_edges_unit_float": Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)]),
        "from_edges_mixed": weighted,
        "from_edges_big_int": Graph.from_edges(3, [(0, 1, 1 << 70), (1, 2, 3)]),
        "empty": Graph.empty(4),
        "empty_zero": Graph.empty(0),
        "trusted_rows": Graph._from_trusted_rows(
            3, [(1,), (0, 2), (1,)], [(4,), (4, 6), (6,)], unweighted=False
        ),
        "csr": Graph._from_csr(3, [0, 1, 3, 4], [1, 0, 2, 1], None, unweighted=True),
        "unit_weights": weighted.with_unit_weights(),
        "induced": weighted.induced_subgraph([1, 2, 3])[0],
        "relabeled": weighted.relabeled([4, 3, 2, 1, 0]),
        "pickled": pickle.loads(pickle.dumps(weighted)),
    }
    for name, source in (("weighted", weighted), ("path", path_graph(6))):
        path = tmp_path / f"{name}.edges"
        write_edge_list(source, path)
        graphs[f"edge_list_{name}"] = read_edge_list(path)[0]
    index = CTIndex.build(clique_graph(5), 1)
    snapshot = tmp_path / "clique.bin"
    save_ct_index_binary(index, snapshot)
    graphs["snapshot"] = load_ct_index_binary(snapshot).graph
    return graphs


class TestCsrStorage:
    def test_csr_and_tuple_view_agree(self, tmp_path):
        import pickle

        for name, graph in _constructed_graphs(tmp_path).items():
            indptr, indices, weights = _csr_of_rows(graph)
            assert list(graph.indptr) == indptr, name
            assert list(graph.indices) == indices, name
            stored = [1] * len(indices) if graph.weights is None else list(graph.weights)
            assert stored == weights, name
            assert [type(w) for w in stored] == [type(w) for w in weights], name
            # A CSR-only copy (no tuple view yet) splits into the same rows.
            fresh = pickle.loads(pickle.dumps(graph))
            assert _csr_of_rows(fresh) == (indptr, indices, weights), name
            assert fresh == graph and hash(fresh) == hash(graph), name
            assert graph.m == len(indices) // 2, name
            assert [graph.degree(v) for v in graph.nodes()] == [
                len(graph.neighbor_ids(v)) for v in graph.nodes()
            ], name
            assert list(fresh.edges()) == [
                (u, v, w)
                for u in graph.nodes()
                for v, w in graph.neighbors(u)
                if u < v
            ], name

    def test_weight_storage_kinds(self):
        from array import array

        assert Graph.from_edges(3, [(0, 1), (1, 2)]).weights is None
        ints = Graph.from_edges(3, [(0, 1, 2), (1, 2, 3)]).weights
        assert isinstance(ints, array) and ints.typecode == "q"
        floats = Graph.from_edges(3, [(0, 1, 0.5), (1, 2, 3.5)]).weights
        assert isinstance(floats, array) and floats.typecode == "d"
        mixed = Graph.from_edges(3, [(0, 1, 2), (1, 2, 3.5)]).weights
        assert mixed == [2, 2, 3.5, 3.5]

    def test_equality_compares_weight_values(self):
        unit = Graph.from_edges(3, [(0, 1), (1, 2)])
        unit_float = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0)])
        heavier = Graph.from_edges(3, [(0, 1, 2), (1, 2, 1)])
        assert unit == unit_float  # 1 == 1.0, as the tuple rows compare
        assert unit != heavier

    def test_numpy_views_are_zero_copy(self):
        np = pytest.importorskip("numpy")
        from repro.kernels.graph_arrays import csr_views

        graph = path_graph(4)
        indptr, indices = csr_views(graph)
        assert indptr.tolist() == list(graph.indptr)
        assert indices.tolist() == list(graph.indices)
        assert np.shares_memory(indices, np.frombuffer(graph.indices, dtype=np.int64))
