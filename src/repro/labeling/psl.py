"""PSL — round-synchronous label propagation (Li et al., [17]).

PSL removes PLL's sequential root-by-root dependency: labels are built
*per distance level*.  Level 0 seeds every node with itself; at level
``k`` each node collects, from its neighbors' level ``k-1`` labels, the
hubs more important than itself, keeps the ones the current labels
cannot already cover at distance <= k, and commits them all at once.
On a parallel machine every node of a level is processed concurrently;
this implementation preserves the exact level-synchronous semantics
(each round's pruning only consults labels of strictly earlier rounds),
so label sets match the parallel algorithm's.  The per-level work is
factored into :func:`psl_level_additions` (pure, read-only gather) and
:func:`psl_commit_level` (synchronous commit) so the serial loop here
and the multiprocess fan-out in :mod:`repro.parallel.psl` run the same
code on the same data — which is what makes ``workers=N`` builds
byte-identical to serial ones.

PSL is defined on unweighted graphs (levels are hop counts).
"""

from __future__ import annotations

import time
from collections.abc import Iterable

import repro.obs as obs
from repro.exceptions import IndexConstructionError
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


class ParallelShortestPathLabeling(HubLabelBackendMixin, DistanceIndex):
    """A built PSL index (same query machinery and backends as PLL)."""

    method_name = "PSL"

    def __init__(
        self, graph: Graph, labels: HubLabeling, order: list[int], rounds: int
    ) -> None:
        self.graph = graph
        self.labels = labels
        self.order = order
        #: Number of propagation rounds executed (== diameter bound + 1).
        self.rounds = rounds

    def distance(self, s: int, t: int) -> Weight:
        return self._query_labels(s, t)

    def size_entries(self) -> int:
        return self.labels.total_entries()

    def max_label_size(self) -> int:
        return self.labels.max_label_size()


def psl_level_additions(
    graph: Graph,
    rank: list[int],
    order: list[int],
    label_maps: list[dict[int, int]],
    last_added: list[list[int]],
    level: int,
    nodes: Iterable[int],
) -> list[tuple[int, list[int]]]:
    """Phase 1 of one PSL round, restricted to ``nodes``.

    Gathers candidate hubs from neighbors' previous-round labels and
    prunes against the labels committed in strictly earlier rounds.
    Reads ``label_maps``/``last_added`` only — never writes — so any
    partition of the vertex set can be evaluated concurrently (this is
    the unit of work the multiprocess builder ships to its workers).

    Returns ``(v, accepted_hub_ranks)`` pairs for the nodes that gained
    labels, in ascending node order with each hub list sorted — a
    canonical form, so merged chunk results are independent of how the
    vertex set was partitioned.
    """
    additions: list[tuple[int, list[int]]] = []
    for v in nodes:
        own_rank = rank[v]
        own_map = label_maps[v]
        candidates: set[int] = set()
        for u in graph.neighbor_ids(v):
            for hub_rank in last_added[u]:
                if hub_rank < own_rank:
                    candidates.add(hub_rank)
        if not candidates:
            continue
        accepted: list[int] = []
        for hub_rank in sorted(candidates):
            if hub_rank in own_map:
                continue  # already covered at a smaller level
            hub_map = label_maps[order[hub_rank]]
            if _map_query(own_map, hub_map) <= level:
                continue  # pruned: existing 2-hop cover is as short
            accepted.append(hub_rank)
        if accepted:
            additions.append((v, accepted))
    return additions


def psl_commit_level(
    additions: list[tuple[int, list[int]]],
    label_maps: list[dict[int, int]],
    last_added: list[list[int]],
    level: int,
    *,
    budget: MemoryBudget,
    budget_exempt: frozenset[int],
) -> None:
    """Phase 2 of one PSL round: apply every node's additions at once.

    ``additions`` must be the (merged) output of
    :func:`psl_level_additions` over the whole vertex set.  Nodes absent
    from it have their ``last_added`` cleared — they contributed nothing
    this round and must not feed candidates into the next one.
    """
    for v in range(len(last_added)):
        last_added[v] = []
    for v, accepted in additions:
        last_added[v] = accepted
        own_map = label_maps[v]
        for hub_rank in accepted:
            own_map[hub_rank] = level
        if v not in budget_exempt:
            budget.charge(len(accepted))


def build_psl(
    graph: Graph,
    order: list[int] | None = None,
    *,
    budget: MemoryBudget | None = None,
    budget_exempt: frozenset[int] | None = None,
    workers: int | None = None,
    backend: str = "dict",
    kernel: str = KERNEL_AUTO,
    pool=None,
) -> ParallelShortestPathLabeling:
    """Build a PSL index on an unweighted ``graph``.

    ``budget_exempt`` nodes' label entries do not count against the
    budget (see :func:`repro.labeling.pll.build_pll`).

    ``workers`` selects the construction schedule: ``None``/``1`` runs
    the rounds in-process; ``N > 1`` evaluates each round's gather phase
    across ``N`` worker processes (``0`` means one per CPU).  Every
    schedule commits identical labels — see :mod:`repro.parallel`.

    ``backend`` selects the label storage of the returned index
    (``"dict"`` or ``"flat"``); like ``workers``, it never changes an
    answer.

    ``kernel`` selects the construction path (see :mod:`repro.kernels`):
    ``"numpy"`` runs every round vectorized over CSR frontier arrays
    (:mod:`repro.kernels.psl_rounds`), ``"python"`` the per-vertex dict
    rounds, and ``"auto"`` (default) vectorizes when NumPy is installed
    and the graph is large enough for the arrays to pay off.  The two
    switches compose: a vectorized build with ``workers > 1`` partitions
    each round's candidate generation by destination-vertex range across
    a shared-memory worker pool (:mod:`repro.parallel.shm`) — the
    persistent pool and shared label blocks replace PR 2's per-round
    snapshot pickling — while ``workers > 1`` without NumPy (or with
    ``kernel="python"``) falls back to the multiprocess python rounds of
    :mod:`repro.parallel.psl`.  Like every other kernel switch, none of
    this changes a label: all paths build fingerprint-identical indexes.

    ``pool`` (internal) lets :func:`repro.core.construction.construct`
    share one live :class:`~repro.parallel.shm.ShmBuildPool` across the
    forest and core phases; without one, a vectorized multi-worker build
    spins up its own pool for the duration of the call.
    """
    validate_backend(backend)
    if not graph.unweighted:
        raise IndexConstructionError(
            "PSL propagates labels by hop level and needs an unweighted graph; "
            "use PLL (pruned Dijkstra) for weighted graphs"
        )
    started = time.perf_counter()
    if order is None:
        order = degree_order(graph)
    else:
        validate_order(graph, order)
    if budget is None:
        budget = MemoryBudget.unlimited()
    if budget_exempt is None:
        budget_exempt = frozenset()

    from repro.parallel.pool import resolve_workers

    worker_count = resolve_workers(workers)
    # A vectorized build composes with workers > 1 through the
    # shared-memory fan-out; a python-kernel build with workers > 1
    # keeps the PR 2 multiprocess rounds.
    vectorize = construction_kernel(kernel, graph.n) == KERNEL_NUMPY

    rank = [0] * graph.n
    for r, v in enumerate(order):
        rank[v] = r

    # Level 0: every node is its own hub at distance 0.
    for v in graph.nodes():
        if v not in budget_exempt:
            budget.charge()

    with obs_span(
        "labeling.psl",
        n=graph.n,
        m=graph.m,
        workers=worker_count,
        kernel=KERNEL_NUMPY if vectorize else KERNEL_PYTHON,
    ) as psl_span:
        if vectorize:
            round_stats: dict = {}
            if worker_count > 1:
                from repro.parallel.shm import ShmBuildPool, run_shm_rounds

                if pool is not None:
                    lab_keys, lab_dists, lab_indptr, level = run_shm_rounds(
                        graph,
                        rank,
                        order,
                        pool=pool,
                        budget=budget,
                        budget_exempt=budget_exempt,
                        stats_out=round_stats,
                    )
                else:
                    with ShmBuildPool(worker_count) as own_pool:
                        lab_keys, lab_dists, lab_indptr, level = run_shm_rounds(
                            graph,
                            rank,
                            order,
                            pool=own_pool,
                            budget=budget,
                            budget_exempt=budget_exempt,
                            stats_out=round_stats,
                        )
            else:
                from repro.kernels.psl_rounds import run_numpy_rounds_csr

                lab_keys, lab_dists, lab_indptr, level = run_numpy_rounds_csr(
                    graph,
                    rank,
                    order,
                    budget=budget,
                    budget_exempt=budget_exempt,
                    stats_out=round_stats,
                )
            if backend == "flat":
                # The rounds finished in CSR shape; adopt the arrays
                # instead of replaying millions of append_entry calls.
                import numpy as np

                from repro.storage.flat_labels import FlatLabelStore

                labels = FlatLabelStore.adopt_numpy_csr(
                    order, lab_indptr, lab_keys % np.int64(graph.n), lab_dists
                )
            else:
                from repro.kernels.psl_rounds import labels_to_lists

                labels = HubLabeling.from_rank_lists(
                    order,
                    *labels_to_lists(graph.n, lab_keys, lab_dists, lab_indptr),
                )
        else:
            round_stats = {}
            # label_maps[v]: rank -> dist, the committed labels of v.
            label_maps: list[dict[int, int]] = [{rank[v]: 0} for v in graph.nodes()]
            # Hubs committed in the previous round, per node.
            last_added: list[list[int]] = [[rank[v]] for v in graph.nodes()]

            if worker_count > 1:
                from repro.parallel.psl import run_parallel_rounds

                level = run_parallel_rounds(
                    graph,
                    rank,
                    order,
                    label_maps,
                    last_added,
                    workers=worker_count,
                    budget=budget,
                    budget_exempt=budget_exempt,
                )
            else:
                level = 0
                while True:
                    level += 1
                    # Phase 1 (parallel-for over nodes): gather candidate
                    # hubs from neighbors' previous-round labels and prune
                    # against the labels committed so far (levels < current).
                    with obs_span("labeling.psl.level", level=level) as level_span:
                        additions = psl_level_additions(
                            graph,
                            rank,
                            order,
                            label_maps,
                            last_added,
                            level,
                            graph.nodes(),
                        )
                        if tracing_enabled():
                            level_span.set(
                                additions=sum(len(hubs) for _, hubs in additions)
                            )
                    if not additions:
                        break
                    # Phase 2 (synchronous commit): apply every node's
                    # additions.
                    psl_commit_level(
                        additions,
                        label_maps,
                        last_added,
                        level,
                        budget=budget,
                        budget_exempt=budget_exempt,
                    )

            labels = HubLabeling(order)
            for v in graph.nodes():
                for hub_rank in sorted(label_maps[v]):
                    labels.append_entry(v, hub_rank, label_maps[v][hub_rank])
        index = ParallelShortestPathLabeling(graph, labels, order, rounds=level)
        #: Per-round kernel/merge time split of the vectorized paths
        #: (None on the python rounds); scale-bench reports it.
        index.round_stats = round_stats or None
        index.build_kernel = KERNEL_NUMPY if vectorize else KERNEL_PYTHON
        if backend == "flat":
            index.compact()
        if tracing_enabled():
            psl_span.set(rounds=level, entries=labels.total_entries())
    if obs.enabled():
        metrics = obs.registry()
        metrics.counter("psl.builds").inc()
        metrics.counter("psl.rounds").inc(level)
    index.build_seconds = time.perf_counter() - started
    return index


def _map_query(map_a: dict[int, int], map_b: dict[int, int]) -> Weight:
    """2-hop query over two ``rank -> dist`` dicts."""
    if len(map_a) > len(map_b):
        map_a, map_b = map_b, map_a
    best: Weight = INF
    for hub_rank, da in map_a.items():
        db = map_b.get(hub_rank)
        if db is not None and da + db < best:
            best = da + db
    return best
