"""BuildConfig: validation, round-trips, and conflict semantics."""

from __future__ import annotations

import json

import pytest

import repro
from repro.api import BuildConfig
from repro.core.ct_index import CTIndex
from repro.core.serialization import index_fingerprint
from repro.exceptions import ConfigurationError
from repro.graphs.generators.random_graphs import connected_gnp_graph


@pytest.fixture(scope="module")
def graph():
    return connected_gnp_graph(120, 0.05, seed=11)


class TestValidation:
    @pytest.mark.parametrize(
        "bad",
        [
            {"bandwidth": -1},
            {"bandwidth": "20"},
            {"bandwidth": True},
            {"workers": -2},
            {"workers": 1.5},
            {"backend": "csr"},
            {"order": "random"},
            {"core_backend": "bfs"},
            {"use_equivalence_reduction": 1},
            {"extension_cache_size": -1},
            {"kernel": "gpu"},
            # Removed construction paths must be rejected, never ignored.
            {"core_backend": "hopdb"},
            {"core_backend": "hopdb", "bandwidth": 0},
            {"order": "is"},
        ],
    )
    def test_bad_values_raise_eagerly(self, bad):
        with pytest.raises(ConfigurationError):
            BuildConfig(**bad)

    def test_defaults_are_valid_and_match_the_loose_kwargs(self):
        config = BuildConfig()
        assert config.bandwidth == 20
        assert config.backend == "dict"
        assert config.core_backend == "pll"
        assert config.kernel == "auto"

    def test_replace_revalidates(self):
        config = BuildConfig()
        assert config.replace(bandwidth=7).bandwidth == 7
        with pytest.raises(ConfigurationError):
            config.replace(backend="nope")
        with pytest.raises(ConfigurationError):
            config.replace(not_a_field=1)

    def test_frozen(self):
        with pytest.raises(Exception):
            BuildConfig().bandwidth = 3


class TestRoundTrip:
    def test_to_dict_is_canonical_and_json_ready(self):
        config = BuildConfig(bandwidth=4, backend="flat", core_backend="psl")
        doc = config.to_dict()
        assert list(doc) == [
            "bandwidth",
            "workers",
            "backend",
            "order",
            "core_backend",
            "use_equivalence_reduction",
            "extension_cache_size",
            "kernel",
        ]
        assert BuildConfig.from_dict(json.loads(json.dumps(doc))) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown BuildConfig keys"):
            BuildConfig.from_dict({"bandwidth": 4, "bandwith": 5})
        with pytest.raises(ConfigurationError, match="hopdb_order"):
            BuildConfig.from_dict({"bandwidth": 4, "hopdb_order": "degree"})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigurationError):
            BuildConfig.from_dict([("bandwidth", 4)])

    def test_partial_dict_fills_defaults(self):
        config = BuildConfig.from_dict({"bandwidth": 3})
        assert config == BuildConfig(bandwidth=3)


class TestBuildMerge:
    def test_config_spelling_equals_kwargs_spelling(self, graph):
        config = BuildConfig(bandwidth=4, backend="flat", core_backend="psl")
        by_kwargs = repro.build(graph, 4, backend="flat", core_backend="psl")
        by_config = repro.build(graph, config=config)
        by_method = CTIndex.build(graph, config=config)
        reference = index_fingerprint(by_kwargs)
        assert index_fingerprint(by_config) == reference
        assert index_fingerprint(by_method) == reference

    def test_agreeing_redundant_spellings_are_fine(self, graph):
        config = BuildConfig(bandwidth=4, backend="flat")
        index = repro.build(graph, 4, config=config, backend="flat")
        assert index.storage_backend == "flat"

    def test_conflicting_spellings_raise(self, graph):
        config = BuildConfig(bandwidth=4, backend="flat")
        with pytest.raises(ConfigurationError, match="conflict"):
            repro.build(graph, 5, config=config)
        with pytest.raises(ConfigurationError, match="conflict"):
            repro.build(graph, config=config, backend="dict")
        with pytest.raises(ConfigurationError, match="conflict"):
            CTIndex.build(graph, 5, config=config)
        with pytest.raises(ConfigurationError, match="conflict"):
            CTIndex.build(graph, config=config, core_backend="psl")

    def test_removed_kwargs_raise_type_error(self, graph):
        with pytest.raises(TypeError, match="hopdb_order"):
            repro.build(graph, 4, hopdb_order="degree")
        with pytest.raises(TypeError, match="core_order"):
            CTIndex.build(graph, 4, core_order="degree")

    def test_bandwidth_required_without_config(self, graph):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            repro.build(graph)
        with pytest.raises(ConfigurationError, match="bandwidth"):
            CTIndex.build(graph)

    def test_config_must_be_a_build_config(self, graph):
        with pytest.raises(ConfigurationError):
            repro.build(graph, config={"bandwidth": 4})

    def test_exported_from_the_facade(self):
        assert repro.BuildConfig is BuildConfig
        assert "BuildConfig" in repro.__all__

