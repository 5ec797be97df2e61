"""The array twin reduction against the scalar oracle.

:func:`repro.kernels.graph_arrays.eliminate_twins` must reproduce the
scalar dict-of-tuples reduction field for field — ``representative``,
``originals``, ``twin_kind`` and the reduced graph — on every shape the
differential suite and the generators produce, and stay exact when the
row hashes collide.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings

import repro
from repro.core.serialization import index_fingerprint
from repro.graphs.builder import GraphBuilder
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.primitives import (
    clique_graph,
    complete_bipartite_graph,
    star_graph,
)
from repro.graphs.generators.random_graphs import caveman_graph
from repro.graphs.generators.rmat import rmat_graph
from repro.graphs.graph import Graph
from repro.graphs.reductions import eliminate_equivalent_nodes
from repro.kernels import graph_arrays
from tests.differential.cases import FAST_CASES, SLOW_CASES
from tests.properties.strategies import graphs


def _rows(graph: Graph) -> list:
    return [
        (graph.neighbor_ids(v), graph.neighbor_weights(v)) for v in graph.nodes()
    ]


def assert_same_reduction(graph: Graph) -> None:
    fast = eliminate_equivalent_nodes(graph, kernel="numpy")
    slow = eliminate_equivalent_nodes(graph, kernel="python")
    if graph.unweighted:
        assert fast.build_kernel == "numpy"
    assert slow.build_kernel == "python"
    assert fast.representative == slow.representative
    assert fast.originals == slow.originals
    assert fast.twin_kind == slow.twin_kind
    assert fast.reduced.n == slow.reduced.n
    assert fast.reduced.m == slow.reduced.m
    assert fast.reduced.unweighted == slow.reduced.unweighted
    assert _rows(fast.reduced) == _rows(slow.reduced)
    assert fast == slow


def _two_kinds() -> Graph:
    """False twins (star leaves) next to true twins (a triangle), and a K2."""
    builder = GraphBuilder(10)
    for leaf in (1, 2, 3):
        builder.add_edge(0, leaf)
    builder.add_clique([4, 5, 6])
    for v in (4, 5, 6):
        builder.add_edge(0, v)
    builder.add_edge(7, 8)  # each end: a singleton false class, a 2-node true class
    return builder.build()  # node 9 stays isolated


@pytest.mark.parametrize(
    "case", FAST_CASES + SLOW_CASES, ids=lambda case: case.name
)
def test_differential_families(case):
    assert_same_reduction(case.build_graph())


@pytest.mark.parametrize(
    "graph",
    [
        star_graph(12),
        clique_graph(9),
        complete_bipartite_graph(4, 7),
        caveman_graph(6, 5, 0.0, seed=1),
        caveman_graph(8, 6, 0.2, seed=2),
        core_periphery_graph(
            CorePeripheryConfig(core_size=30, community_count=6, fringe_size=400),
            seed=5,
        ),
        rmat_graph(10, 4, 3),
    ],
    ids=["star", "clique", "bipartite", "caveman", "caveman-rewired", "cp", "rmat"],
)
def test_generators(graph):
    assert_same_reduction(graph)


def test_isolated_nodes_never_fold():
    graph = Graph.from_edges(8, [(0, 1), (0, 2), (3, 4)])  # 5, 6, 7 isolated
    assert_same_reduction(graph)
    reduction = eliminate_equivalent_nodes(graph)
    assert [reduction.twin_kind[v] for v in (5, 6, 7)] == [None, None, None]


def test_false_and_true_classes_together():
    graph = _two_kinds()
    assert_same_reduction(graph)
    reduction = eliminate_equivalent_nodes(graph)
    assert [reduction.twin_kind[v] for v in (1, 2, 3)] == ["false"] * 3
    assert [reduction.twin_kind[v] for v in (4, 5, 6, 7, 8)] == ["true"] * 5


@pytest.mark.parametrize("n", [0, 1, 5])
def test_edgeless_graphs(n):
    assert_same_reduction(Graph.empty(n))


def test_unit_float_weights_take_the_scalar_path():
    # Weights of 1.0 keep their type in the reduced graph only on the
    # scalar path, so the kernel hands such graphs over.
    graph = Graph.from_edges(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert graph.unweighted and graph.weights is not None
    assert eliminate_equivalent_nodes(graph, kernel="numpy").build_kernel == "python"


@settings(max_examples=80, deadline=None)
@given(graphs(min_nodes=0, max_nodes=40))
def test_hypothesis_unweighted(graph):
    assert_same_reduction(graph)


class TestForcedCollisions:
    """Every row of a degree hashes alike; grouping must still be exact."""

    @pytest.fixture(autouse=True)
    def colliding_keys(self, monkeypatch):
        monkeypatch.setattr(
            graph_arrays, "_node_keys", lambda n, salt: np.zeros(n, dtype=np.uint64)
        )

    @pytest.mark.parametrize(
        "graph",
        [
            _two_kinds(),
            caveman_graph(6, 5, 0.1, seed=3),
            core_periphery_graph(
                CorePeripheryConfig(core_size=20, community_count=4, fringe_size=150),
                seed=9,
            ),
            rmat_graph(8, 4, 5),
        ],
        ids=["two-kinds", "caveman", "cp", "rmat"],
    )
    def test_grouping_stays_exact(self, graph):
        assert_same_reduction(graph)

    def test_collision_splits_a_group(self):
        # Nodes 0..3 have degree 2 with four different rows; 4/5 and 6/7
        # are two false-twin pairs of degree 2 as well.
        graph = Graph.from_edges(
            12,
            [(0, 8), (0, 9), (1, 9), (1, 10), (2, 10), (2, 11), (3, 8), (3, 11),
             (4, 8), (4, 10), (5, 8), (5, 10), (6, 9), (6, 11), (7, 9), (7, 11)],
        )
        assert_same_reduction(graph)
        reduction = eliminate_equivalent_nodes(graph, kernel="numpy")
        assert reduction.representative[5] == reduction.representative[4]
        assert reduction.representative[7] == reduction.representative[6]
        assert len(set(reduction.representative[:8])) == 6

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(graphs(min_nodes=0, max_nodes=30))
    def test_hypothesis_collisions(self, graph):
        assert_same_reduction(graph)


def test_rmat12_fingerprint_matches_scalar_reduction():
    graph = rmat_graph(12, 4, 12)
    fast = repro.build(graph, 20)
    assert fast.reduction.build_kernel == "numpy"
    slow = repro.build(graph, 20, kernel="python")
    assert slow.reduction.build_kernel == "python"
    assert index_fingerprint(fast) == index_fingerprint(slow)
