"""Both build doors reject every bad configuration before any work.

``repro.build`` and ``CTIndex.build`` resolve their arguments through the
one :func:`~repro.core.config.resolve_build_config`, so each bad value
must raise :class:`~repro.exceptions.ConfigurationError` from either
door before a single build span (reduction, elimination, labelling)
opens.
"""

from __future__ import annotations

import pytest

import repro
from repro.core.config import BuildConfig
from repro.core.ct_index import CTIndex
from repro.exceptions import ConfigurationError
from repro.graphs.generators.random_graphs import gnp_graph
from repro.obs.tracing import capture

DOORS = [
    pytest.param(repro.build, id="repro.build"),
    pytest.param(CTIndex.build, id="CTIndex.build"),
]

BAD = [
    {"order": "bogus"},
    {"core_backend": "bfs"},
    {"workers": -2},
    {"workers": 1.5},
    {"bandwidth": "20"},
    {"backend": "csr"},
    {"bandwidth": True},
    {"bandwidth": 2.0},
    {"extension_cache_size": -1},
    {"use_equivalence_reduction": 1},
    {"kernel": "gpu"},
    {"kernel": "numpy", "backend": "dict"},
]


@pytest.fixture(scope="module")
def graph():
    return gnp_graph(80, 0.06, seed=3)


def _assert_raises_before_any_span(call):
    with capture() as tracer:
        with pytest.raises(ConfigurationError):
            call()
    assert [s.name for s in tracer.finished] == []


@pytest.mark.parametrize("door", DOORS)
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_bad_value_raises_before_any_work(door, bad, graph):
    knobs = dict(bad)
    bandwidth = knobs.pop("bandwidth", 4)
    _assert_raises_before_any_span(lambda: door(graph, bandwidth, **knobs))


@pytest.mark.parametrize("door", DOORS)
def test_kwargs_conflicting_with_config_raise(door, graph):
    # Both kwargs equal their defaults: passed still means explicit.
    config = BuildConfig(bandwidth=4, backend="flat", kernel="python")
    _assert_raises_before_any_span(
        lambda: door(graph, config=config, backend="dict", kernel="auto")
    )


@pytest.mark.parametrize("door", DOORS)
def test_good_call_opens_the_build_span(door, graph):
    with capture() as tracer:
        door(graph, 4, backend="flat", kernel="python")
    assert "ct.build" in {s.name for s in tracer.finished}
