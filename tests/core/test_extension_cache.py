"""Unit tests for the per-position extension-label LRU in CTIndex."""

from __future__ import annotations

import random

import pytest

import repro
from repro.core.ct_index import CTIndex
from repro.exceptions import QueryError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph
from repro.graphs.traversal import all_pairs_distances


@pytest.fixture(scope="module")
def cp_graph():
    cfg = CorePeripheryConfig(core_size=40, community_count=6, fringe_size=140)
    return core_periphery_graph(cfg, seed=17)


class TestCorrectness:
    @pytest.mark.parametrize("cache_size", [0, 2, 256])
    def test_answers_independent_of_cache_size(self, cp_graph, cache_size):
        index = CTIndex.build(
            cp_graph, 5, use_equivalence_reduction=False, extension_cache_size=cache_size
        )
        truth = all_pairs_distances(cp_graph)
        rng = random.Random(5)
        for _ in range(300):
            s = rng.randrange(cp_graph.n)
            t = rng.randrange(cp_graph.n)
            assert index.distance(s, t) == truth[s][t], (s, t)

    def test_repeat_queries_stay_exact(self, cp_graph):
        index = CTIndex.build(cp_graph, 5, use_equivalence_reduction=False)
        truth = all_pairs_distances(cp_graph)
        s, t = 1, cp_graph.n - 1
        assert [index.distance(s, t) for _ in range(5)] == [truth[s][t]] * 5


class TestCacheBehavior:
    def test_hot_queries_skip_core_probes(self, cp_graph):
        index = CTIndex.build(cp_graph, 5, use_equivalence_reduction=False)
        rng = random.Random(11)
        hot = [(rng.randrange(cp_graph.n), rng.randrange(cp_graph.n)) for _ in range(6)]
        stream = [hot[rng.randrange(len(hot))] for _ in range(300)]

        index.extension_cache_size = 0
        index.reset_counters()
        uncached_answers = [index.distance(s, t) for s, t in stream]
        uncached_probes = index.core_probes

        index.extension_cache_size = 256
        index.reset_counters()
        cached_answers = [index.distance(s, t) for s, t in stream]
        cached_probes = index.core_probes

        assert cached_answers == uncached_answers
        assert cached_probes < uncached_probes
        assert index.extension_cache_hits > 0
        assert 0.0 < index.extension_cache_hit_rate <= 1.0

    def test_disabled_cache_counts_misses_only(self, cp_graph):
        index = CTIndex.build(
            cp_graph, 5, use_equivalence_reduction=False, extension_cache_size=0
        )
        rng = random.Random(3)
        for _ in range(100):
            index.distance(rng.randrange(cp_graph.n), rng.randrange(cp_graph.n))
        assert index.extension_cache_hits == 0
        assert len(index._extension_cache) == 0

    def test_bound_is_respected(self, cp_graph):
        index = CTIndex.build(
            cp_graph, 5, use_equivalence_reduction=False, extension_cache_size=2
        )
        rng = random.Random(7)
        for _ in range(200):
            index.distance(rng.randrange(cp_graph.n), rng.randrange(cp_graph.n))
        assert len(index._extension_cache) <= 2

    def test_reset_counters_drops_cache(self, cp_graph):
        index = CTIndex.build(cp_graph, 5, use_equivalence_reduction=False)
        rng = random.Random(19)
        for _ in range(50):
            index.distance(rng.randrange(cp_graph.n), rng.randrange(cp_graph.n))
        index.reset_counters()
        assert index.extension_cache_hits == 0
        assert index.extension_cache_misses == 0
        assert len(index._extension_cache) == 0

    def test_batch_uses_cache(self, cp_graph):
        index = CTIndex.build(cp_graph, 5, use_equivalence_reduction=False)
        index.reset_counters()
        index.distances_from(0, list(cp_graph.nodes()))
        first_misses = index.extension_cache_misses
        index.distances_from(0, list(cp_graph.nodes()))
        # The second batch reuses every extension set from the first.
        assert index.extension_cache_misses == first_misses


class TestSatelliteBugfixes:
    def test_naive_4hop_validates_bounds(self, cp_graph):
        """Regression: out-of-range ids must raise QueryError, not
        IndexError/KeyError, exactly like ``distance``."""
        index = CTIndex.build(cp_graph, 5)
        for s, t in ((-1, 0), (0, -1), (cp_graph.n, 0), (0, cp_graph.n)):
            with pytest.raises(QueryError):
                index.distance_naive_4hop(s, t)
            with pytest.raises(QueryError):
                index.distance(s, t)

    def test_build_ct_index_forwards_core_kwargs(self):
        """Regression: the functional build once silently dropped the
        core order and core_backend."""
        g = gnp_graph(30, 0.15, seed=21)
        via_alias = repro.build(
            g, 3, order="elimination", core_backend="pll", extension_cache_size=7
        )
        via_method = CTIndex.build(g, 3, order="elimination", core_backend="pll")
        degree_build = CTIndex.build(g, 3, order="degree")
        assert via_alias.core_index.order == via_method.core_index.order
        if degree_build.core_index.order != via_method.core_index.order:
            # The kwarg demonstrably reached the builder.
            assert via_alias.core_index.order != degree_build.core_index.order
        assert via_alias.extension_cache_size == 7
        truth = all_pairs_distances(g)
        for s in range(0, g.n, 4):
            for t in range(g.n):
                assert via_alias.distance(s, t) == truth[s][t]

    def test_build_ct_index_psl_backend(self):
        g = gnp_graph(30, 0.15, seed=22)
        index = repro.build(g, 3, core_backend="psl")
        truth = all_pairs_distances(g)
        for t in range(g.n):
            assert index.distance(0, t) == truth[0][t]
