"""Pruned Landmark Labeling (Akiba et al., [2] in the paper).

PLL fixes a vertex order and runs one *pruned* search per node in order
of importance: when the search from root ``r`` reaches ``v`` at distance
``dv`` and the labels collected so far already certify
``dist(r, v) <= dv``, the branch is pruned; otherwise ``(r, dv)`` joins
``L_v``.  The result is a minimal-ish 2-hop cover whose query is a
sorted-merge over two label arrays.

The CT core index runs PLL on the reduced graph ``G_{λ+1}``, whose
edges carry λ-local distances, on every default build.  With NumPy
installed those searches run vectorized
(:mod:`repro.kernels.pruned_search`: one array-level Bellman–Ford per
root, weighted or unweighted); the pure-Python pruned BFS and pruned
Dijkstra below stay as the scalar reference behind ``kernel="python"``
and on graphs too small for the arrays to pay off.  Both paths build
the same labels entry for entry.
"""

from __future__ import annotations

import heapq
import logging
import time
from collections import deque

from repro.graphs.graph import INF, Graph, Weight
from repro.kernels import KERNEL_AUTO, KERNEL_NUMPY, KERNEL_PYTHON, construction_kernel
from repro.labeling.base import (
    DistanceIndex,
    HubLabelBackendMixin,
    MemoryBudget,
    validate_backend,
)
from repro.labeling.hub_labels import HubLabeling
from repro.labeling.ordering import degree_order, validate_order
from repro.obs.tracing import span as obs_span, tracing_enabled

logger = logging.getLogger(__name__)


class PrunedLandmarkLabeling(HubLabelBackendMixin, DistanceIndex):
    """A built PLL index: thin façade over a hub-label store.

    ``labels`` is a :class:`HubLabeling` (dict backend) or a
    :class:`~repro.storage.flat_labels.FlatLabelStore` (flat backend);
    every query reads through the shared protocol, so the two are
    interchangeable (``compact()`` / ``to_dict_backend()`` convert).
    """

    method_name = "PLL"

    def __init__(
        self,
        graph: Graph,
        labels: HubLabeling,
        order: list[int],
        build_kernel: str = KERNEL_PYTHON,
    ) -> None:
        self.graph = graph
        self.labels = labels
        self.order = order
        #: Construction kernel that built the labels: ``"numpy"`` or
        #: ``"python"`` (``kernel`` is the query kernel).
        self.build_kernel = build_kernel

    def distance(self, s: int, t: int) -> Weight:
        """Exact distance via label intersection (kernel-dispatched)."""
        return self._query_labels(s, t)

    def size_entries(self) -> int:
        return self.labels.total_entries()

    def max_label_size(self) -> int:
        """``l`` — drives the paper's O(l) query bound."""
        return self.labels.max_label_size()


def build_pll(
    graph: Graph,
    order: list[int] | None = None,
    *,
    budget: MemoryBudget | None = None,
    budget_exempt: frozenset[int] | None = None,
    workers: int | None = None,
    backend: str = "dict",
    kernel: str = KERNEL_AUTO,
) -> PrunedLandmarkLabeling:
    """Build a PLL index on ``graph``.

    Parameters
    ----------
    graph:
        Input graph; weighted graphs use pruned Dijkstra.
    order:
        Vertex order (most important first); defaults to degree order.
    budget:
        Optional :class:`MemoryBudget`; exceeding it raises
        :class:`~repro.exceptions.OverMemoryError` mid-build.
    budget_exempt:
        Nodes whose label entries do not count against the budget —
        used by PSL*, whose local-minimum label sets exist only during
        construction and never reach the final index.
    workers:
        Accepted for signature parity with :func:`~repro.labeling.psl.
        build_psl` and :meth:`~repro.core.ct_index.CTIndex.build`; PLL's
        pruned searches are inherently sequential (each root's search
        prunes against every earlier root's finished label), so any
        value is validated and then runs the serial schedule — the
        vectorized kernel speeds up each search instead.
    backend:
        Label storage of the returned index: ``"dict"`` (mutable
        per-node lists) or ``"flat"`` (CSR arrays, packed after the
        pruned searches finish).  Both answer identically.
    kernel:
        Construction path (see :mod:`repro.kernels`): ``"numpy"`` runs
        every pruned search vectorized
        (:mod:`repro.kernels.pruned_search`), ``"python"`` the scalar
        pruned BFS / Dijkstra, and ``"auto"`` (default) vectorizes when
        NumPy is installed and the graph has at least
        :data:`~repro.kernels.VECTORIZE_MIN_NODES` nodes.  Graphs whose
        weights the kernel cannot reproduce exactly (int and float
        weights mixed, or path lengths beyond ``int64``) are built by
        the scalar path, and the ``labeling.pll`` span records why.
        Every path builds the same labels; ``index.build_kernel`` says
        which one ran.
    """
    validate_backend(backend)
    if workers is not None:
        from repro.parallel.pool import resolve_workers

        resolve_workers(workers)  # validate; PLL always runs serially
    started = time.perf_counter()
    resolved = construction_kernel(kernel, graph.n)
    with obs_span("labeling.pll", n=graph.n, m=graph.m, kernel=resolved) as pll_span:
        if order is None:
            order = degree_order(graph)
        else:
            validate_order(graph, order)
        if budget is None:
            budget = MemoryBudget.unlimited()
        if budget_exempt is None:
            budget_exempt = frozenset()
        labels = None
        if resolved == KERNEL_NUMPY:
            from repro.kernels.pruned_search import UnsupportedWeights, pruned_search_labels

            try:
                labels = HubLabeling.from_rank_lists(
                    order, *pruned_search_labels(graph, order, budget, budget_exempt)
                )
            except UnsupportedWeights as exc:
                resolved = KERNEL_PYTHON
                pll_span.set(kernel=resolved, fallback=str(exc))
        if labels is None:
            labels = HubLabeling(order)
            if graph.unweighted:
                _build_unweighted(graph, labels, order, budget, budget_exempt)
            else:
                _build_weighted(graph, labels, order, budget, budget_exempt)
        index = PrunedLandmarkLabeling(graph, labels, order, build_kernel=resolved)
        if backend == "flat":
            index.compact()
        if tracing_enabled():
            pll_span.set(entries=labels.total_entries())
    index.build_seconds = time.perf_counter() - started
    logger.debug(
        "PLL built (%s kernel): n=%d m=%d entries=%d max_label=%d in %.3fs",
        resolved,
        graph.n,
        graph.m,
        labels.total_entries(),
        labels.max_label_size(),
        index.build_seconds,
    )
    return index


def _build_unweighted(
    graph: Graph,
    labels: HubLabeling,
    order: list[int],
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> None:
    """One pruned BFS per root, in rank order (the scalar reference)."""
    dist: list[Weight] = [INF] * graph.n
    for rank, root in enumerate(order):
        root_map = labels.label_rank_map(root)
        queue: deque[int] = deque([root])
        dist[root] = 0
        visited = [root]
        while queue:
            v = queue.popleft()
            dv = dist[v]
            if labels.query_with_map(root_map, v) <= dv:
                continue  # pruned: existing labels already cover (root, v)
            labels.append_entry(v, rank, dv)
            if v not in budget_exempt:
                budget.charge()
            nd = dv + 1
            for u in graph.neighbor_ids(v):
                if dist[u] == INF:
                    dist[u] = nd
                    visited.append(u)
                    queue.append(u)
        for v in visited:
            dist[v] = INF


def _build_weighted(
    graph: Graph,
    labels: HubLabeling,
    order: list[int],
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> None:
    """One pruned Dijkstra per root, in rank order (the scalar reference)."""
    dist: list[Weight] = [INF] * graph.n
    for rank, root in enumerate(order):
        root_map = labels.label_rank_map(root)
        heap: list[tuple[Weight, int]] = [(0, root)]
        dist[root] = 0
        visited = [root]
        while heap:
            dv, v = heapq.heappop(heap)
            if dv > dist[v]:
                continue  # stale entry
            if labels.query_with_map(root_map, v) <= dv:
                continue  # pruned
            labels.append_entry(v, rank, dv)
            if v not in budget_exempt:
                budget.charge()
            for u, w in graph.neighbors(v):
                nd = dv + w
                if nd < dist[u]:
                    if dist[u] == INF:
                        visited.append(u)
                    dist[u] = nd
                    heapq.heappush(heap, (nd, u))
        for v in visited:
            dist[v] = INF
