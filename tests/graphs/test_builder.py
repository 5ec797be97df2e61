"""Unit tests for GraphBuilder normalization."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError
from repro.graphs.builder import GraphBuilder


class TestAddEdge:
    def test_basic(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        b.add_edge(1, 2, 4)
        g = b.build()
        assert g.m == 2
        assert g.edge_weight(1, 2) == 4

    def test_self_loop_dropped(self):
        b = GraphBuilder(2)
        b.add_edge(1, 1)
        assert b.dropped_self_loops == 1
        assert b.build().m == 0

    def test_parallel_edges_keep_min_weight(self):
        b = GraphBuilder(2)
        b.add_edge(0, 1, 5)
        b.add_edge(1, 0, 3)
        b.add_edge(0, 1, 9)
        assert b.merged_parallel_edges == 2
        assert b.build().edge_weight(0, 1) == 3

    def test_out_of_range_rejected(self):
        b = GraphBuilder(2)
        with pytest.raises(GraphError):
            b.add_edge(0, 2)

    def test_non_positive_weight_rejected(self):
        b = GraphBuilder(2)
        with pytest.raises(GraphError):
            b.add_edge(0, 1, 0)
        with pytest.raises(GraphError):
            b.add_edge(0, 1, -2)

    def test_negative_node_count_rejected(self):
        with pytest.raises(GraphError):
            GraphBuilder(-1)


class TestBulkHelpers:
    def test_add_edges(self):
        b = GraphBuilder(4)
        b.add_edges([(0, 1), (1, 2, 7)])
        g = b.build()
        assert g.m == 2
        assert g.edge_weight(1, 2) == 7

    def test_add_clique(self):
        b = GraphBuilder(5)
        b.add_clique([1, 2, 3, 4])
        assert b.edge_count == 6

    def test_add_clique_with_duplicates(self):
        b = GraphBuilder(3)
        b.add_clique([0, 1, 1, 2])
        assert b.edge_count == 3

    def test_add_path(self):
        b = GraphBuilder(4)
        b.add_path([3, 1, 0, 2])
        g = b.build()
        assert g.m == 3
        assert g.has_edge(3, 1)
        assert g.has_edge(0, 2)

    def test_add_path_empty(self):
        b = GraphBuilder(3)
        b.add_path([])
        assert b.edge_count == 0


class TestBuild:
    def test_unweighted_flag(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        assert b.build().unweighted

    def test_weighted_flag(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1, 2)
        assert not b.build().unweighted

    def test_edge_count_property(self):
        b = GraphBuilder(3)
        b.add_edge(0, 1)
        b.add_edge(0, 1)
        assert b.edge_count == 1


class TestNonFiniteWeights:
    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
    def test_rejected(self, weight):
        b = GraphBuilder(2)
        with pytest.raises(GraphError, match="non-finite|non-positive"):
            b.add_edge(0, 1, weight)
        assert b.edge_count == 0

    def test_nan_names_non_finite(self):
        with pytest.raises(GraphError, match="non-finite weight nan"):
            GraphBuilder(2).add_edge(0, 1, float("nan"))
