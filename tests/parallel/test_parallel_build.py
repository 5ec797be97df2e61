"""Parallel builds must be byte-identical to serial builds.

The determinism contract (same graph, same parameters, any worker
count ⇒ same index bytes) is what makes the multiprocess path safe to
enable by default in production: a parallel build can always be audited
against a serial one.
"""

from __future__ import annotations

import pytest

from repro.core.construction import build_tree_index
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.power_law import barabasi_albert_graph
from repro.graphs.generators.random_graphs import gnp_graph
from repro.graphs.traversal import all_pairs_distances
from repro.labeling.psl import build_psl
from repro.parallel.forest import forest_tasks
from repro.treedec.core_tree import core_tree_decomposition


@pytest.fixture(scope="module")
def cp_graph():
    cfg = CorePeripheryConfig(core_size=30, community_count=5, fringe_size=90)
    return core_periphery_graph(cfg, seed=23)


class TestParallelPSL:
    def test_labels_match_serial(self, cp_graph):
        serial = build_psl(cp_graph)
        parallel = build_psl(cp_graph, workers=2)
        assert parallel.rounds == serial.rounds
        for v in cp_graph.nodes():
            assert parallel.labels.label_entries(v) == serial.labels.label_entries(v)

    def test_answers_exact(self):
        graph = barabasi_albert_graph(60, 2, seed=9)
        index = build_psl(graph, workers=2)
        truth = all_pairs_distances(graph)
        for s in range(0, graph.n, 5):
            for t in range(graph.n):
                assert index.distance(s, t) == truth[s][t]

    def test_worker_count_does_not_matter(self, cp_graph):
        two = build_psl(cp_graph, workers=2)
        three = build_psl(cp_graph, workers=3)
        for v in cp_graph.nodes():
            assert two.labels.label_entries(v) == three.labels.label_entries(v)


class TestParallelForest:
    def test_tree_labels_match_serial(self, cp_graph):
        decomposition = core_tree_decomposition(cp_graph, 4)
        serial = build_tree_index(decomposition)
        parallel = build_tree_index(decomposition, workers=2)
        assert len(serial.labels) == len(parallel.labels)
        for pos in range(len(serial.labels)):
            # Same entries *and* same insertion order — serialization
            # preserves dict order, so order is part of byte-identity.
            assert list(serial.labels[pos].items()) == list(
                parallel.labels[pos].items()
            ), pos

    def test_tasks_cover_forest(self, cp_graph):
        decomposition = core_tree_decomposition(cp_graph, 4)
        tasks = forest_tasks(decomposition, workers=3)
        flat = sorted(pos for task in tasks for pos in task)
        assert flat == list(range(decomposition.boundary))
        # Within a task every tree's positions must be descending.
        for task in tasks:
            by_root: dict[int, list[int]] = {}
            for pos in task:
                by_root.setdefault(decomposition.root[pos], []).append(pos)
            for positions in by_root.values():
                assert positions == sorted(positions, reverse=True)


class TestParallelCTIndex:
    def test_byte_identical_index(self, cp_graph):
        serial = CTIndex.build(cp_graph, 4)
        parallel = CTIndex.build(cp_graph, 4, workers=2)
        assert index_fingerprint(parallel) == index_fingerprint(serial)

    def test_byte_identical_with_psl_core(self, cp_graph):
        serial = CTIndex.build(cp_graph, 0, core_backend="psl")
        parallel = CTIndex.build(cp_graph, 0, core_backend="psl", workers=2)
        assert index_fingerprint(parallel) == index_fingerprint(serial)

    def test_parallel_answers_exact(self):
        graph = gnp_graph(50, 0.1, seed=31)
        index = CTIndex.build(graph, 3, workers=2)
        truth = all_pairs_distances(graph)
        for s in range(graph.n):
            for t in range(graph.n):
                assert index.distance(s, t) == truth[s][t]
