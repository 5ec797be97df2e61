"""Unit tests for CTIndex: the paper's query examples and general behavior."""

from __future__ import annotations

import pytest

import repro
from repro.core.ct_index import CTIndex
from repro.exceptions import OverMemoryError, QueryError
from repro.graphs.generators.core_periphery import CorePeripheryConfig, core_periphery_graph
from repro.graphs.generators.primitives import clique_graph, path_graph, star_graph
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.graph import INF, Graph
from repro.graphs.traversal import all_pairs_distances
from repro.labeling.base import MemoryBudget


@pytest.fixture
def paper_index(paper_graph):
    # No twin reduction so node ids map 1:1 onto the paper's.
    return CTIndex.build(paper_graph, 2, use_equivalence_reduction=False)


class TestPaperQueries:
    """Examples 8, 9, 11, 12 of Section 4.5 (nodes 0-based here)."""

    def test_example_8_case1_core_core(self, paper_index):
        # s = v11, t = v12, both core: dist = 1.
        assert paper_index.distance(10, 11) == 1
        assert paper_index.case_counts["case1"] == 1

    def test_example_9_case2_tree_core(self, paper_index):
        # s = v6 (tree), t = v11 (core): dist = 3.
        assert paper_index.distance(5, 10) == 3
        assert paper_index.case_counts["case2"] == 1

    def test_example_11_case3_cross_tree(self, paper_index):
        # s = v6 (tree T8), t = v1 (tree T4): the example reports 6 as the
        # minimum over the extended label intersection.
        assert paper_index.distance(5, 0) == 6
        assert paper_index.case_counts["case3"] == 1

    def test_example_12_case4_same_tree(self, paper_index):
        # s = v5, t = v6, same tree: d2 = 2 wins over d4 = 4.
        assert paper_index.distance(4, 5) == 2
        assert paper_index.case_counts["case4"] == 1

    def test_example_10_extension(self, paper_graph):
        # L_ext(v6) = {v10: 2, v11: 3, v12: 3}.  Figure 5's core labels
        # come from the elimination-based hub order (v12 > v11 > ...).
        index = CTIndex.build(
            paper_graph, 2, use_equivalence_reduction=False, order="elimination"
        )
        pos6 = index.decomposition.position[5]
        extended = index._extended_labels(pos6)
        by_node = {
            index.core_originals[index.core_index.order[rank]]: dist
            for rank, dist in extended.items()
        }
        readable = {node + 1: dist for node, dist in by_node.items()}
        assert readable == {10: 2, 11: 3, 12: 3}

    def test_figure_5_core_labels(self, paper_graph):
        # The core index of Figure 5, hub order v12 > v11 > v10 > v9.
        index = CTIndex.build(
            paper_graph, 2, use_equivalence_reduction=False, order="elimination"
        )
        compact = index._core_compact
        labels = index.core_index.labels
        readable = {}
        for node_1b in (9, 10, 11, 12):
            entries = labels.label_entries(compact[node_1b - 1])
            readable[node_1b] = sorted(
                (index.core_originals[hub] + 1, dist) for hub, dist in entries
            )
        assert readable == {
            9: [(9, 0), (10, 1), (11, 1), (12, 1)],
            10: [(10, 0), (11, 1), (12, 1)],
            11: [(11, 0), (12, 1)],
            12: [(12, 0)],
        }

    def test_all_pairs_exact(self, paper_graph, paper_index):
        truth = all_pairs_distances(paper_graph)
        for s in paper_graph.nodes():
            for t in paper_graph.nodes():
                assert paper_index.distance(s, t) == truth[s][t]


class TestGeneralCorrectness:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("bandwidth", [0, 2, 5, 50])
    def test_random(self, seed, bandwidth):
        g = gnp_graph(30, 0.12, seed=seed)
        index = CTIndex.build(g, bandwidth)
        truth = all_pairs_distances(g)
        for s in g.nodes():
            for t in g.nodes():
                assert index.distance(s, t) == truth[s][t]

    def test_weighted(self):
        g = random_weighted(gnp_graph(25, 0.18, seed=5), 1, 9, seed=6)
        index = CTIndex.build(g, 3)
        truth = all_pairs_distances(g)
        for s in g.nodes():
            for t in g.nodes():
                assert index.distance(s, t) == truth[s][t]

    def test_disconnected(self):
        g = Graph.from_edges(8, [(0, 1), (1, 2), (4, 5), (6, 7)])
        index = CTIndex.build(g, 2)
        assert index.distance(0, 2) == 2
        assert index.distance(0, 5) == INF
        assert index.distance(3, 3) == 0
        assert index.distance(3, 0) == INF

    def test_pure_tree_graph(self):
        g = path_graph(20)
        index = CTIndex.build(g, 2, use_equivalence_reduction=False)
        assert index.core_size == 0  # fully eliminated
        truth = all_pairs_distances(g)
        for s in range(20):
            for t in range(20):
                assert index.distance(s, t) == truth[s][t]

    def test_clique_graph(self):
        g = clique_graph(7)
        index = CTIndex.build(g, 2, use_equivalence_reduction=False)
        for s in range(7):
            for t in range(7):
                assert index.distance(s, t) == (0 if s == t else 1)

    def test_star_with_reduction(self):
        g = star_graph(10)
        index = CTIndex.build(g, 2)
        assert index.distance(1, 2) == 2
        assert index.distance(0, 5) == 1

    def test_naive_4hop_agrees(self):
        g = gnp_graph(40, 0.1, seed=7)
        index = CTIndex.build(g, 3)
        truth = all_pairs_distances(g)
        for s in range(0, 40, 3):
            for t in range(0, 40, 2):
                assert index.distance_naive_4hop(s, t) == truth[s][t]


class TestApi:
    def test_out_of_range_query(self):
        index = CTIndex.build(path_graph(4), 2)
        with pytest.raises(QueryError):
            index.distance(0, 4)
        with pytest.raises(QueryError):
            index.distance(-1, 0)

    def test_method_name_includes_bandwidth(self):
        index = CTIndex.build(path_graph(4), 7)
        assert index.method_name == "CT-7"

    def test_stats_extra_fields(self):
        g = gnp_graph(30, 0.15, seed=8)
        stats = CTIndex.build(g, 3).stats()
        assert "core_size" in stats.extra
        assert "boundary" in stats.extra
        assert stats.extra["tree_entries"] + stats.extra["core_entries"] == stats.entries

    def test_reset_counters(self):
        index = CTIndex.build(path_graph(6), 2)
        index.distance(0, 5)
        index.reset_counters()
        assert index.core_probes == 0
        assert not index.case_counts

    def test_build_ct_index_alias(self):
        g = path_graph(5)
        assert repro.build(g, 2).distance(0, 4) == 4

    def test_budget_overflow(self):
        g = gnp_graph(60, 0.25, seed=9)
        with pytest.raises(OverMemoryError):
            CTIndex.build(g, 2, budget=MemoryBudget(limit_bytes=120))

    def test_boundary_and_core_size_partition(self):
        g = gnp_graph(40, 0.15, seed=10)
        index = CTIndex.build(g, 4, use_equivalence_reduction=False)
        assert index.boundary + index.core_size == g.n


class TestBandwidthTradeOff:
    def test_size_decreases_on_core_periphery_graph(self):
        cfg = CorePeripheryConfig(
            core_size=80, core_density=0.5, community_count=10, fringe_size=300
        )
        g = core_periphery_graph(cfg, seed=11)
        size0 = CTIndex.build(g, 0).size_entries()
        size5 = CTIndex.build(g, 5).size_entries()
        assert size5 < size0

    def test_ct0_equals_psl_plus_size(self):
        from repro.labeling.psl_variants import build_psl_plus

        cfg = CorePeripheryConfig(core_size=50, community_count=5, fringe_size=150)
        g = core_periphery_graph(cfg, seed=12)
        ct0 = CTIndex.build(g, 0)
        psl_plus = build_psl_plus(g)
        assert ct0.size_entries() == psl_plus.size_entries()
