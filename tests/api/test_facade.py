"""The stable ``repro.api`` facade: parity, round-trips, surface."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import ConfigurationError
from repro.graphs.generators.core_periphery import (
    CorePeripheryConfig,
    core_periphery_graph,
)
from repro.graphs.traversal import all_pairs_distances


@pytest.fixture(scope="module")
def setup():
    cfg = CorePeripheryConfig(
        core_size=30,
        community_count=6,
        community_size_min=4,
        community_size_max=20,
        fringe_size=120,
    )
    graph = core_periphery_graph(cfg, seed=7)
    return graph, all_pairs_distances(graph)


class TestFacadeParity:
    def test_build_matches_ctindex_build_on_both_backends(self, setup):
        graph, truth = setup
        reference = index_fingerprint(CTIndex.build(graph, 4))
        for backend in ("dict", "flat"):
            index = repro.build(graph, bandwidth=4, backend=backend)
            assert index.storage_backend == backend
            assert index_fingerprint(index) == reference
            assert repro.query(index, 0, graph.n - 1) == truth[0][graph.n - 1]

    def test_workers_do_not_change_the_fingerprint(self, setup):
        graph, _ = setup
        serial = repro.build(graph, bandwidth=4)
        parallel = repro.build(graph, bandwidth=4, workers=2)
        assert index_fingerprint(parallel) == index_fingerprint(serial)

    def test_query_shapes_agree_with_truth(self, setup):
        graph, truth = setup
        index = repro.build(graph, bandwidth=4, backend="flat")
        pairs = [(0, 5), (17, 99), (42, 42)]
        assert repro.query_batch(index, pairs) == [truth[s][t] for s, t in pairs]
        assert repro.query_from(index, 3, range(40)) == truth[3][:40]


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["dict", "flat"])
    def test_save_load_both_formats_byte_identical(self, setup, tmp_path, backend):
        graph, _ = setup
        index = repro.build(graph, bandwidth=4, backend=backend)
        reference = index_fingerprint(index)
        json_path = tmp_path / "index.json"
        bin_path = tmp_path / "index.bin"
        repro.save(index, json_path)
        repro.save(index, bin_path, format="binary")
        for path in (json_path, bin_path):
            loaded = repro.load(path)
            assert index_fingerprint(loaded) == reference
            assert repro.query(loaded, 0, 10) == repro.query(index, 0, 10)

    def test_load_honors_backend_override(self, setup, tmp_path):
        graph, _ = setup
        index = repro.build(graph, bandwidth=4)
        path = tmp_path / "index.bin"
        repro.save(index, path, format="binary")
        assert repro.load(path, backend="dict").storage_backend == "dict"
        assert repro.load(path, backend="flat").storage_backend == "flat"

    def test_unknown_format_raises_configuration_error(self, setup, tmp_path):
        graph, _ = setup
        index = repro.build(graph, bandwidth=4)
        with pytest.raises(ConfigurationError):
            repro.save(index, tmp_path / "x", format="pickle")
        # Also catchable as ValueError (the pre-facade discipline).
        with pytest.raises(ValueError):
            repro.save(index, tmp_path / "x", format="pickle")


class TestSurface:
    def test_manifest_matches_the_exported_surface(self):
        manifest_path = (
            Path(__file__).resolve().parents[2] / "docs" / "api_surface.txt"
        )
        names = [
            line.strip()
            for line in manifest_path.read_text().splitlines()
            if line.strip() and not line.startswith("#")
        ]
        assert names == sorted(repro.__all__)

    def test_facade_verbs_are_exported(self):
        for verb in ("build", "save", "load", "query", "query_batch", "query_from"):
            assert verb in repro.__all__
            assert callable(getattr(repro, verb))

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_obs_package_declares_all(self):
        import importlib

        for module_name in (
            "repro.obs",
            "repro.obs.export",
            "repro.obs.metrics",
            "repro.obs.profiling",
            "repro.obs.registry",
            "repro.obs.tracing",
            "repro.api",
        ):
            module = importlib.import_module(module_name)
            assert hasattr(module, "__all__"), module_name
            for name in module.__all__:
                assert hasattr(module, name), (module_name, name)
