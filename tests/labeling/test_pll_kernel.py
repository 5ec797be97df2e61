"""The vectorized PLL kernel builds the scalar builder's labels exactly.

:mod:`repro.kernels.pruned_search` replaces one pure-Python pruned
search per root with array operations.  Every test here compares the
raw label arrays of ``kernel="numpy"`` and ``kernel="python"`` builds —
hub ranks, distances *and* distance types — not just answers, plus the
CT-level ``index_fingerprint`` the differential suite gates on.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

import repro
import repro.kernels as kernels
from repro.core.serialization import index_fingerprint
from repro.exceptions import ConfigurationError, OverMemoryError
from repro.graphs.generators.primitives import (
    clique_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graphs.generators.random_graphs import gnp_graph, random_weighted
from repro.graphs.generators.rmat import rmat_graph
from repro.graphs.graph import Graph
from repro.kernels import VECTORIZE_MIN_NODES
from repro.labeling.base import MemoryBudget
from repro.labeling.pll import build_pll
from repro.labeling.psl_variants import build_psl_star
from repro.obs.tracing import capture
from tests.differential.cases import FAST_CASES
from tests.properties.strategies import graphs

needs_numpy = pytest.mark.skipif(
    not kernels.numpy_available(), reason="NumPy not installed"
)


def _labels(index):
    """Every node's ``(hub rank, distance, distance type)`` triples."""
    out = []
    for v in index.graph.nodes():
        ranks, dists = index.labels.rank_arrays(v)
        out.append([(r, d, type(d)) for r, d in zip(ranks, dists)])
    return out


def _assert_identical(graph, order=None):
    fast = build_pll(graph, order, kernel="numpy")
    slow = build_pll(graph, fast.order, kernel="python")
    assert fast.build_kernel == "numpy"
    assert slow.build_kernel == "python"
    assert _labels(fast) == _labels(slow)
    return fast


def _reweighted(graph: Graph, weight) -> Graph:
    """``graph`` with edge ``(u, v)`` re-weighted to ``weight(u, v)``."""
    adjacency = [[] for _ in graph.nodes()]
    for u, v, _ in graph.edges():
        w = weight(min(u, v), max(u, v))
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    return Graph(graph.n, adjacency, unweighted=False)


def _balanced_order(n: int) -> list[int]:
    order: list[int] = []
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if lo > hi:
            continue
        mid = (lo + hi) // 2
        order.append(mid)
        stack.extend([(mid + 1, hi), (lo, mid - 1)])
    return order


@needs_numpy
class TestLabelIdentity:
    @pytest.mark.parametrize("seed", range(4))
    def test_unweighted(self, seed):
        _assert_identical(gnp_graph(90, 0.05, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_int_weighted(self, seed):
        g = random_weighted(gnp_graph(80, 0.07, seed=seed), 1, 9, seed=seed)
        _assert_identical(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_int_weighted_with_zero_weights(self, seed):
        # Zero weights tie distances across hubs and can prune a root
        # at its own position (a higher hub at distance 0).
        g = _reweighted(
            gnp_graph(70, 0.08, seed=seed), lambda u, v: (u * 7 + v * 3 + seed) % 4
        )
        fast = _assert_identical(g)
        assert any(w == 0 for _, _, w in g.edges())
        assert fast.size_entries() > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_float_weighted(self, seed):
        g = _reweighted(
            gnp_graph(75, 0.07, seed=seed),
            lambda u, v: 0.1 * ((u * 13 + v * 5 + seed) % 17) + 0.3,
        )
        fast = _assert_identical(g)
        # Float distances stay floats; each root's own entry is the int 0
        # the scalar search starts from.
        for v in g.nodes():
            for hub, d, kind in _labels(fast)[v]:
                assert kind is (int if fast.order[hub] == v else float)

    def test_float_weighted_with_zero_weights(self):
        g = _reweighted(
            gnp_graph(70, 0.09, seed=5), lambda u, v: float((u + v) % 3) * 0.7
        )
        _assert_identical(g)

    def test_unit_float_weights_count_hops(self):
        # Weights of 1.0 make an unweighted graph; the scalar BFS then
        # records integer hop counts, and so must the kernel.
        edges = gnp_graph(80, 0.06, seed=2).edges()
        g = Graph.from_edges(80, [(u, v, 1.0) for u, v, _ in edges])
        assert g.unweighted
        fast = _assert_identical(g)
        assert all(kind is int for label in _labels(fast) for _, _, kind in label)

    def test_disconnected(self):
        g = Graph.from_edges(80, [(i, i + 1) for i in range(0, 78, 3)])
        fast = _assert_identical(g)
        assert fast.distance(0, 79) == float("inf")

    def test_single_node(self):
        fast = _assert_identical(Graph.empty(1))
        assert fast.distance(0, 0) == 0

    def test_edgeless(self):
        _assert_identical(Graph.empty(70))

    def test_edgeless_weighted(self):
        # No weights to classify: the kernel runs, with no fallback.
        g = Graph(70, [[] for _ in range(70)], unweighted=False)
        with capture() as tracer:
            _assert_identical(g)
        spans = [s for s in tracer.finished if s.name == "labeling.pll"]
        assert [s.attrs["kernel"] for s in spans] == ["numpy", "python"]
        assert all("fallback" not in s.attrs for s in spans)

    @pytest.mark.parametrize(
        "graph",
        [
            clique_graph(10),
            cycle_graph(8),
            grid_graph(5, 5),
            star_graph(40),
            path_graph(64),
        ],
        ids=["clique", "cycle", "grid", "star", "path"],
    )
    def test_structured_shapes(self, graph):
        _assert_identical(graph)

    def test_clique_labels_quadratic(self):
        assert _assert_identical(clique_graph(12)).size_entries() == 12 * 13 // 2

    def test_path_balanced_order(self):
        _assert_identical(path_graph(64), _balanced_order(64))

    def test_flat_backend(self):
        g = random_weighted(gnp_graph(80, 0.06, seed=3), 1, 5, seed=4)
        fast = build_pll(g, kernel="numpy", backend="flat")
        slow = build_pll(g, fast.order, kernel="python", backend="flat")
        assert _labels(fast) == _labels(slow)


class TestKernelSelection:
    @needs_numpy
    def test_auto_below_cutoff_stays_scalar(self):
        g = gnp_graph(VECTORIZE_MIN_NODES - 1, 0.1, seed=1)
        assert build_pll(g).build_kernel == "python"

    @needs_numpy
    def test_auto_at_cutoff_vectorizes(self):
        g = gnp_graph(VECTORIZE_MIN_NODES, 0.1, seed=1)
        assert build_pll(g).build_kernel == "numpy"

    @needs_numpy
    @pytest.mark.parametrize(
        "weight, reason",
        [
            (lambda u, v: 1.5 if (u + v) % 2 else 2, "mixed int and float weights"),
            (lambda u, v: 1 << 60, "path lengths exceed int64"),
        ],
        ids=["mixed", "huge"],
    )
    def test_unsupported_weights_fall_back_on_the_record(self, weight, reason):
        g = _reweighted(gnp_graph(70, 0.08, seed=2), weight)
        with capture() as tracer:
            index = build_pll(g, kernel="numpy")
        assert index.build_kernel == "python"
        (pll_span,) = [s for s in tracer.finished if s.name == "labeling.pll"]
        assert pll_span.attrs["kernel"] == "python"
        assert pll_span.attrs["fallback"] == reason

    def test_without_numpy_auto_builds_scalar(self, monkeypatch):
        monkeypatch.setattr(kernels, "_NUMPY_STATE", False)
        g = random_weighted(gnp_graph(80, 0.06, seed=1), 1, 9, seed=2)
        index = build_pll(g)
        assert index.build_kernel == "python"
        assert index.distance(0, 1) == build_pll(g, kernel="python").distance(0, 1)
        with pytest.raises(ConfigurationError):
            build_pll(g, kernel="numpy")


@needs_numpy
class TestBudget:
    def test_overflow_raises_mid_build(self):
        g = gnp_graph(90, 0.2, seed=1)
        budget = MemoryBudget(limit_bytes=800)
        with pytest.raises(OverMemoryError):
            build_pll(g, budget=budget, kernel="numpy")
        # Raised at the first root past the limit, not after the build.
        full = build_pll(g, kernel="python").size_entries()
        assert budget.charged_entries < full

    def test_charges_match_the_scalar_build(self):
        g = random_weighted(gnp_graph(80, 0.08, seed=4), 1, 7, seed=5)
        fast, slow = MemoryBudget.unlimited(), MemoryBudget.unlimited()
        build_pll(g, budget=fast, kernel="numpy")
        build_pll(g, budget=slow, kernel="python")
        assert fast.charged_entries == slow.charged_entries > 0

    def test_exempt_nodes_do_not_charge(self):
        g = clique_graph(VECTORIZE_MIN_NODES + 6)
        index = build_pll(
            g,
            budget=MemoryBudget(limit_bytes=1),
            budget_exempt=frozenset(g.nodes()),
            kernel="numpy",
        )
        assert index.size_entries() > 0

    def test_partial_exemption_matches_the_scalar_charges(self):
        g = gnp_graph(80, 0.1, seed=6)
        exempt = frozenset(range(0, 80, 3))
        fast, slow = MemoryBudget.unlimited(), MemoryBudget.unlimited()
        build_pll(g, budget=fast, budget_exempt=exempt, kernel="numpy")
        build_pll(g, budget=slow, budget_exempt=exempt, kernel="python")
        assert fast.charged_entries == slow.charged_entries

    def test_psl_star_exempts_its_local_minima(self, monkeypatch):
        # PSL* labels its reduced graph through build_pll with the
        # construction-only local minima exempt, so the budget charges
        # exactly the labels the final index keeps.
        g = gnp_graph(120, 0.05, seed=8)
        kept = build_psl_star(g).size_entries()
        kernels_run = []

        def numpy_pll(*args, **kwargs):
            index = build_pll(*args, kernel="numpy", **kwargs)
            kernels_run.append(index.build_kernel)
            return index

        monkeypatch.setattr("repro.labeling.psl_variants.build_pll", numpy_pll)
        index = build_psl_star(g, budget=MemoryBudget(limit_bytes=kept * 8))
        assert kernels_run == ["numpy"]
        assert index.size_entries() == kept
        with pytest.raises(OverMemoryError):
            build_psl_star(g, budget=MemoryBudget(limit_bytes=kept * 8 - 1))


@needs_numpy
class TestObservability:
    def test_pll_span_records_the_kernel(self):
        g = gnp_graph(80, 0.06, seed=2)
        with capture() as tracer:
            build_pll(g, kernel="numpy")
            build_pll(g, kernel="python")
        spans = [s for s in tracer.finished if s.name == "labeling.pll"]
        assert [s.attrs["kernel"] for s in spans] == ["numpy", "python"]
        assert all("fallback" not in s.attrs for s in spans)

    @pytest.mark.parametrize("core_backend", ["psl"])
    def test_weighted_core_fallback_is_recorded(self, core_backend):
        g = rmat_graph(10, 4, 3)
        with capture() as tracer:
            index = repro.build(g, 20, core_backend=core_backend)
        assert not index.core_index.graph.unweighted
        (core,) = [s for s in tracer.finished if s.name == "ct.core_labeling"]
        assert core.attrs["core_backend"] == core_backend
        assert core.attrs["effective_backend"] == "pll"
        assert core.attrs["fallback"] == "weighted core"
        (pll_span,) = [s for s in tracer.finished if s.name == "labeling.pll"]
        assert pll_span.attrs["kernel"] == "numpy"

    def test_unweighted_core_runs_the_requested_backend(self):
        g = rmat_graph(10, 4, 3)
        with capture() as tracer:
            repro.build(g, 0, core_backend="psl")
        (core,) = [s for s in tracer.finished if s.name == "ct.core_labeling"]
        assert core.attrs["effective_backend"] == "psl"
        assert "fallback" not in core.attrs


@needs_numpy
class TestCTFingerprint:
    @pytest.mark.parametrize("case", FAST_CASES, ids=lambda case: case.name)
    def test_differential_families(self, case):
        graph = case.build_graph()
        assert index_fingerprint(repro.build(graph, 20)) == index_fingerprint(
            repro.build(graph, 20, kernel="python")
        ), case.reproducer()

    def test_rmat_weighted_core(self):
        g = rmat_graph(12, 4, 12)
        fast = repro.build(g, 20)
        slow = repro.build(g, 20, kernel="python")
        assert not fast.core_index.graph.unweighted
        assert fast.core_index.build_kernel == "numpy"
        assert slow.core_index.build_kernel == "python"
        assert index_fingerprint(fast) == index_fingerprint(slow)


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(graph=graphs(max_nodes=40, weighted=True))
def test_property_numpy_kernel_matches_scalar(graph):
    _assert_identical(graph)
