"""Zero-copy ``mmap=True`` snapshot loading.

A mapped load must be indistinguishable from a copying load at the
query level (fingerprint and answer identity under both kernels) while
actually deferring work: label arrays are views over the mapped file,
all three graphs (the stored original, the derived reduced and core
graphs) stay lazy until something outside the query path (e.g.
fingerprinting) forces a decode or derivation, and the core-tree
decomposition is served from the adopted elim arrays without building
step objects, core-adjacency dicts or an LCA table.
"""

from __future__ import annotations

import random

import pytest

from repro.core.ct_index import CTIndex
from repro.core.serialization import (
    index_fingerprint,
    load_ct_index,
    load_ct_index_binary,
    save_ct_index,
    save_ct_index_binary,
)
from repro.exceptions import SerializationError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.kernels import numpy_available
from repro.serving import QueryEngine
from repro.storage.mapped import LazyGraph, MappedArray, MappedSnapshot
from repro.treedec.elimination import EliminationStep
from repro.treedec.lca import ForestLCA


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    cfg = CorePeripheryConfig(core_size=30, community_count=5, fringe_size=90)
    graph = core_periphery_graph(cfg, seed=17)
    index = CTIndex.build(graph, 5, backend="flat")
    path = tmp_path_factory.mktemp("mmap") / "index.ctsnap"
    save_ct_index_binary(index, path)
    return graph, index, path


def _lazy_graphs(index):
    return [index.graph, index.reduction.reduced, index.core_index.graph]


class TestMappedIdentity:
    def test_fingerprint_matches_copy_load(self, saved):
        _, index, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        copied = load_ct_index_binary(path)
        assert (
            index_fingerprint(mapped)
            == index_fingerprint(copied)
            == index_fingerprint(index)
        )

    @pytest.mark.parametrize(
        "kernel",
        ["python"]
        + (["numpy"] if numpy_available() else []),
    )
    def test_answers_match_copy_load(self, saved, kernel):
        graph, _, path = saved
        mapped = QueryEngine(load_ct_index_binary(path, mmap=True), kernel=kernel)
        copied = QueryEngine(load_ct_index_binary(path), kernel=kernel)
        rng = random.Random(3)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(200)]
        assert mapped.query_batch(pairs) == copied.query_batch(pairs)
        for s in (0, graph.n // 2, graph.n - 1):
            assert mapped.query_from(s, range(graph.n)) == copied.query_from(
                s, range(graph.n)
            )

    def test_generic_loader_and_api_accept_mmap(self, saved):
        _, index, path = saved
        via_generic = load_ct_index(path, mmap=True)
        assert index_fingerprint(via_generic) == index_fingerprint(index)
        import repro

        via_api = repro.load(path, mmap=True)
        assert index_fingerprint(via_api) == index_fingerprint(index)


class TestLaziness:
    def test_snapshot_source_kept_alive(self, saved):
        _, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        assert isinstance(mapped.snapshot_source, MappedSnapshot)
        assert mapped.snapshot_source.size == path.stat().st_size
        # The copying load never holds a mapping.
        assert load_ct_index_binary(path).snapshot_source is None

    def test_graph_sections_start_lazy(self, saved):
        _, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        for lazy in _lazy_graphs(mapped):
            assert isinstance(lazy, LazyGraph)
            assert not lazy.materialized

    def test_queries_never_materialize_graphs(self, saved):
        graph, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        engine = QueryEngine(mapped, cache_capacity=64)
        rng = random.Random(5)
        engine.query_batch(
            [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(100)]
        )
        engine.query_from(1, range(graph.n))
        engine.query(0, graph.n - 1)
        for lazy in _lazy_graphs(mapped):
            assert not lazy.materialized

    def test_materialized_graph_matches_copy_load(self, saved):
        _, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        copied = load_ct_index_binary(path)
        lazy = mapped.graph
        # Touching adjacency forces the decode thunk exactly once.
        assert lazy.m == copied.graph.m
        assert lazy.materialized
        for v in range(lazy.n):
            assert list(lazy.neighbors(v)) == list(copied.graph.neighbors(v))

    def test_derived_graphs_match_copy_load_and_build(self, saved):
        # v5 stores neither graph: the mapped load derives both lazily,
        # from the graph and the twin maps, and from the elim section.
        _, index, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        copied = load_ct_index_binary(path)
        assert mapped.reduction.removed_count > 0
        derived = [
            (mapped.reduction.reduced, copied.reduction.reduced, index.reduction.reduced),
            (mapped.core_index.graph, copied.core_index.graph, index.core_index.graph),
        ]
        for lazy, copy, built in derived:
            assert not lazy.materialized
            assert lazy == copy == built
            assert lazy.materialized
        # Deriving the reduced graph decodes the graph it comes from.
        assert mapped.graph.materialized

    @pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
    def test_as_ndarray_views_the_mapped_file(self, saved):
        import numpy as np

        from repro.kernels.views import as_ndarray

        _, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        hub_dists = mapped.core_index.labels.csr_arrays()[3]
        dists = as_ndarray(hub_dists)
        assert isinstance(dists, np.ndarray)
        # A view over the read-only map cannot own (or copy) its buffer.
        assert not dists.flags["OWNDATA"]
        assert not dists.flags["WRITEABLE"]


class TestDecompositionStaysArrays:
    @pytest.fixture
    def constructed(self, monkeypatch):
        """Names of the decomposition objects built while the test runs."""
        built: list[str] = []
        for cls in (EliminationStep, ForestLCA):
            original = cls.__init__

            def spy(self, *args, _original=original, _name=cls.__name__, **kwargs):
                built.append(_name)
                _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        return built

    def test_elim_arrays_are_views_over_the_map(self, saved):
        _, _, path = saved
        elimination = load_ct_index_binary(path, mmap=True).decomposition.elimination
        for name in ("order", "neighbors", "local", "core_counts", "core_targets"):
            assert isinstance(getattr(elimination, name), MappedArray), name

    @pytest.mark.parametrize(
        "kernel",
        ["python"]
        + (["numpy"] if numpy_available() else []),
    )
    def test_queries_build_no_steps_core_dicts_or_lca(self, saved, constructed, kernel):
        graph, _, path = saved
        mapped = load_ct_index_binary(path, mmap=True)
        engine = QueryEngine(mapped, kernel=kernel, cache_capacity=64)
        rng = random.Random(11)
        pairs = [(rng.randrange(graph.n), rng.randrange(graph.n)) for _ in range(300)]
        engine.query_batch(pairs)
        for s, t in pairs[:100]:
            engine.query(s, t)
        engine.query_from(1, range(graph.n))
        for case in ("case1", "case2", "case3"):
            assert mapped.case_counts[case] > 0, case
        elimination = mapped.decomposition.elimination
        assert constructed == []
        assert "steps" not in vars(elimination)
        assert "core_adjacency" not in vars(elimination)

    def test_views_still_build_on_request(self, saved, constructed):
        _, index, path = saved
        elimination = load_ct_index_binary(path, mmap=True).decomposition.elimination
        built = index.decomposition.elimination
        assert elimination.steps == built.steps
        assert elimination.core_adjacency == built.core_adjacency
        assert constructed.count("EliminationStep") == 2 * elimination.boundary
        assert "ForestLCA" not in constructed


class TestRejections:
    def test_mmap_requires_flat_backend(self, saved):
        _, _, path = saved
        with pytest.raises(SerializationError, match="backend='flat'"):
            load_ct_index_binary(path, backend="dict", mmap=True)

    def test_mmap_rejects_json_documents(self, saved, tmp_path):
        _, index, _ = saved
        json_path = tmp_path / "index.json"
        save_ct_index(index, json_path)
        with pytest.raises(SerializationError, match="binary snapshot"):
            load_ct_index(json_path, mmap=True)

    def test_weighted_graph_round_trips_mapped(self, tmp_path):
        graph = random_weighted(gnp_graph(24, 0.2, seed=9), 1, 6, seed=10)
        index = CTIndex.build(graph, 4, backend="flat")
        path = tmp_path / "weighted.ctsnap"
        save_ct_index_binary(index, path)
        mapped = load_ct_index_binary(path, mmap=True)
        assert index_fingerprint(mapped) == index_fingerprint(index)
