"""CT-Index construction — Algorithm 1 of the paper.

The pipeline:

1. bandwidth-bounded weighted MDE (lines 1-17, in
   :mod:`repro.treedec.elimination`);
2. core-tree structure: parents ``f(i)``, roots ``r(i)``, interfaces
   (lines 18-28, in :mod:`repro.treedec.core_tree`);
3. **tree-index**: λ-local distances from every forest node to its tree
   ancestors and to its tree's interface (lines 19-32, this module);
4. **core-index**: PLL on the weighted reduced graph ``G_{λ+1}``
   (line 33) — vectorized pruned searches
   (:mod:`repro.kernels.pruned_search`) when NumPy is installed, the
   scalar pruned Dijkstra otherwise.

The tree labels are computed in *reverse* elimination order, so the
recursion of Lemma 15 always reads already-final values: the λ-local
distance from ``v_i`` to a target ``u`` is either the recorded wedge
weight ``δ⁻(u)`` (when ``u ∈ N_i``) or routes through a tree neighbor
``v_j`` as ``δ⁻(v_j) + δ^T(v_j, u)``.
"""

from __future__ import annotations

import logging
import time

import repro.obs as obs
from repro.core.config import CORE_ORDERS, BuildConfig
from repro.exceptions import IndexConstructionError
from repro.graphs.graph import INF, Graph, Weight
from repro.labeling.base import MemoryBudget
from repro.labeling.ordering import degree_order
from repro.labeling.pll import PrunedLandmarkLabeling, build_pll
from repro.obs.tracing import span as obs_span
from repro.treedec.core_tree import CoreTreeDecomposition, core_tree_decomposition

logger = logging.getLogger(__name__)

#: The configuration :func:`build_core_index` falls back to.
_DEFAULTS = BuildConfig()


class TreeIndex:
    """The forest half of a CT-Index: λ-local distance labels.

    ``labels[pos]`` maps every *target* of the forest node eliminated at
    ``pos`` — its ancestors within its tree plus its tree's interface
    nodes — to the λ-local distance δ^T.  It is either the dict
    backend's ``list[dict]`` or a packed
    :class:`~repro.storage.flat_tree.FlatTreeLabelStore`; both expose
    the same mapping-per-position view.
    """

    def __init__(self, decomposition: CoreTreeDecomposition, labels) -> None:
        self.decomposition = decomposition
        self.labels = labels
        # Flat stores answer point lookups directly (one bisect) instead
        # of materializing a mapping view per probe.
        self._local_get = getattr(labels, "local_get", None)

    @property
    def storage_backend(self) -> str:
        """``"dict"`` or ``"flat"`` — how the labels are stored now."""
        return getattr(self.labels, "storage_backend", "dict")

    def size_entries(self) -> int:
        """Stored (target, distance) pairs."""
        if hasattr(self.labels, "total_entries"):
            return self.labels.total_entries()
        return sum(len(label) for label in self.labels)

    def local_distance(self, pos: int, target: int) -> Weight:
        """δ^T from the node at ``pos`` to ``target`` (0 for itself).

        ``target`` must be one of the node's stored targets (an ancestor
        in its tree, an interface node, or the node itself); anything
        else returns INF, which is safe for the min-combining callers.
        """
        if self.decomposition.node_at(pos) == target:
            return 0
        if self._local_get is not None:
            return self._local_get(pos, target, INF)
        return self.labels[pos].get(target, INF)


def compute_tree_labels(
    decomposition: CoreTreeDecomposition,
    positions,
    labels,
    *,
    budget: MemoryBudget | None = None,
) -> None:
    """Fill ``labels[pos]`` for every ``pos`` in ``positions``.

    ``positions`` must be in descending order and closed under tree
    ancestry (a position's ancestors appear before it), because the
    recursion of Lemma 15 reads ancestor labels; whole trees in reverse
    elimination order satisfy this, which is what makes the per-tree
    fan-out of :mod:`repro.parallel.forest` legal — a tree's labels
    never reference another tree.  ``labels`` may be the full
    boundary-sized list (serial build) or a per-task dict holding just
    the processed trees' positions.

    Serial and parallel builds both run *this* routine, so a forest
    label is computed by the same statements in the same order whichever
    schedule produced it — the byte-identical guarantee for the tree
    half of the index.
    """
    elimination = decomposition.elimination
    position = decomposition.position
    node_at = decomposition.node_at

    def lookup(pos_j: int, target: int) -> Weight:
        """δ^T(v_j, target), reading whichever endpoint stores the pair.

        Targets on the ancestor chain of the node being processed are
        comparable with ``v_j``: one of the two is the other's ancestor
        and therefore stores the distance (interface targets are always
        stored at ``v_j``).
        """
        node_j = node_at(pos_j)
        if node_j == target:
            return 0
        stored = labels[pos_j].get(target)
        if stored is not None:
            return stored
        pos_target = position[target]
        if pos_target is None:
            raise IndexConstructionError(
                f"interface target {target} missing from labels of position {pos_j}"
            )
        return labels[pos_target][node_j]

    offsets = elimination.offsets
    bag_neighbors = elimination.neighbors
    bag_local = elimination.local
    for pos in positions:
        lo, hi = offsets[pos], offsets[pos + 1]
        neighbors = bag_neighbors[lo:hi]
        local = bag_local[lo:hi]
        root = decomposition.root[pos]
        interface = decomposition.interface[root]

        if decomposition.parent[pos] is None:
            # Root bag: every neighbor is an interface (core) node and the
            # recorded wedge weight is already the λ-local distance
            # (Lemma 14 / line 25).
            label: dict[int, Weight] = dict(zip(neighbors, local))
        else:
            label = {}
            tree_neighbors = [
                (u, position[u], du)
                for u, du in zip(neighbors, local)
                if position[u] is not None
            ]
            # Line 29-30: targets that are direct neighbors.
            for u, best in zip(neighbors, local):
                for v_j, pos_j, d_j in tree_neighbors:
                    if v_j == u:
                        continue
                    through = d_j + lookup(pos_j, u)
                    if through < best:
                        best = through
                label[u] = best
            # Line 31-32: remaining targets (ancestors beyond N_i and the
            # rest of the interface).
            chain_targets = [node_at(p) for p in decomposition.ancestors_of(pos)]
            for u in _iter_missing(chain_targets, interface, label):
                best = INF
                for v_j, pos_j, d_j in tree_neighbors:
                    through = d_j + lookup(pos_j, u)
                    if through < best:
                        best = through
                label[u] = best
        if budget is not None:
            budget.charge(len(label))
        labels[pos] = label


def build_tree_index(
    decomposition: CoreTreeDecomposition,
    *,
    budget: MemoryBudget | None = None,
    workers: int | None = None,
    pool=None,
) -> TreeIndex:
    """Compute the λ-local distance labels (Algorithm 1, lines 19-32).

    With ``workers > 1`` the per-tree labels are computed one task per
    tree group across worker processes (Theorem 4's labels are
    independent between trees); the result is identical to the serial
    sweep.  A live :class:`~repro.parallel.shm.ShmBuildPool` passed as
    ``pool`` (internal; :func:`construct` owns its lifecycle) routes the
    fan-out through shared-memory decomposition arrays instead of the
    pickled-snapshot pool of :mod:`repro.parallel.forest`.  Budget
    accounting then happens on the merged labels in the serial charge
    order, so an over-budget build still raises
    :class:`~repro.exceptions.OverMemoryError` (after the parallel work
    rather than mid-sweep).
    """
    from repro.parallel.pool import resolve_workers

    if budget is None:
        budget = MemoryBudget.unlimited()
    boundary = decomposition.boundary
    worker_count = resolve_workers(workers)
    with obs_span(
        "ct.forest_labeling", boundary=boundary, workers=worker_count
    ) as forest_span:
        if pool is not None and boundary:
            from repro.parallel.shm import parallel_tree_labels_shm

            labels = parallel_tree_labels_shm(decomposition, pool=pool)
            for pos in range(boundary - 1, -1, -1):
                budget.charge(len(labels[pos]))
        elif worker_count > 1 and boundary:
            from repro.parallel.forest import parallel_tree_labels

            labels = parallel_tree_labels(decomposition, workers=worker_count)
            for pos in range(boundary - 1, -1, -1):
                budget.charge(len(labels[pos]))
        else:
            labels = [{} for _ in range(boundary)]
            compute_tree_labels(
                decomposition, range(boundary - 1, -1, -1), labels, budget=budget
            )
        index = TreeIndex(decomposition, labels)
        if obs.tracing_enabled():
            forest_span.set(entries=index.size_entries())
    if obs.enabled():
        obs.registry().counter("ct.forest_label_entries").inc(index.size_entries())
    return index


def _iter_missing(
    chain_targets: list[int], interface: tuple[int, ...], label: dict[int, Weight]
):
    """Targets of lines 31-32: chain ancestors and interface not yet labeled."""
    for u in chain_targets:
        if u not in label:
            yield u
    for u in interface:
        if u not in label:
            yield u


def build_core_index(
    decomposition: CoreTreeDecomposition,
    config: BuildConfig = _DEFAULTS,
    *,
    budget: MemoryBudget | None = None,
    pool=None,
) -> tuple[PrunedLandmarkLabeling, list[int], dict[int, int]]:
    """2-hop labeling on the weighted reduced core graph ``G_{λ+1}`` (line 33).

    ``config`` is already resolved (see
    :func:`~repro.core.config.resolve_build_config`); four of its knobs
    apply here.  ``config.order`` selects the hub order: ``"degree"``
    (the practical default, as in PSL) or ``"elimination"`` — the
    reverse of a continued MDE run over the core, the order behind the
    paper's Theorem 4.4 bound and the one its Figure 5 example uses.

    ``config.core_backend`` selects the construction schedule — the
    paper's line 33 says "PLL (or PSL equivalently)".  ``"psl"`` uses
    the round-synchronous propagation when the core graph is unweighted
    (d = 0, no fill-in shortcuts) and falls back to pruned-Dijkstra PLL
    on weighted cores, since its rounds count hops.  Both backends
    build the same canonical label sets, so the choice never changes a
    fingerprint.

    ``config.kernel`` selects the construction path of the PLL and PSL
    backends — vectorized (:mod:`repro.kernels.pruned_search`,
    :mod:`repro.kernels.psl_rounds`) or pure Python; see
    :func:`~repro.labeling.pll.build_pll`.  ``config.workers`` fans the
    PSL backend's rounds out over worker processes (see
    :mod:`repro.parallel`), and a live
    :class:`~repro.parallel.shm.ShmBuildPool` passed as ``pool``
    (internal) is reused for vectorized multi-worker rounds.  PLL
    ignores both — a pruned search depends on every earlier root's
    finished label, so PLL is inherently sequential.

    The ``ct.core_labeling`` span records ``effective_backend``, the
    backend that actually ran, plus ``fallback="weighted core"`` when a
    ``psl`` request fell back to PLL.

    Returns ``(core_labeling, originals, compact)``: the 2-hop index
    over the compacted core graph, the original node id per compact id,
    and the reverse map.
    """
    order = config.order or CORE_ORDERS[0]
    core_backend = config.core_backend
    with obs_span(
        "ct.core_labeling", order=order, core_backend=core_backend
    ) as core_span:
        core_graph, originals = decomposition.core_graph()
        if order == "elimination":
            from repro.treedec.elimination import minimum_degree_elimination

            continued = minimum_degree_elimination(core_graph, bandwidth=None)
            hub_order = list(reversed(continued.eliminated_order()))
        else:
            hub_order = degree_order(core_graph)
        if core_backend != "pll" and not core_graph.unweighted:
            core_span.set(effective_backend="pll", fallback="weighted core")
        else:
            core_span.set(effective_backend=core_backend)
        if core_backend == "psl" and core_graph.unweighted:
            from repro.labeling.psl import build_psl

            psl = build_psl(
                core_graph,
                hub_order,
                budget=budget,
                workers=config.workers,
                kernel=config.kernel,
                pool=pool,
            )
            labeling = PrunedLandmarkLabeling(
                core_graph, psl.labels, psl.order, build_kernel=psl.build_kernel
            )
            labeling.build_seconds = psl.build_seconds
            labeling.round_stats = psl.round_stats
        else:
            labeling = build_pll(
                core_graph, hub_order, budget=budget, kernel=config.kernel
            )
        if obs.tracing_enabled():
            core_span.set(core_n=core_graph.n, entries=labeling.size_entries())
    if obs.enabled():
        obs.registry().counter("ct.core_label_entries").inc(labeling.size_entries())
    compact = {orig: i for i, orig in enumerate(originals)}
    return labeling, originals, compact


def construct(
    graph: Graph,
    config: BuildConfig,
    *,
    budget: MemoryBudget | None = None,
) -> tuple[CoreTreeDecomposition, TreeIndex, PrunedLandmarkLabeling, list[int], dict[int, int], float]:
    """Run the full Algorithm 1 and return all the pieces plus build time.

    ``config`` is already resolved (see
    :func:`~repro.core.config.resolve_build_config`).  ``config.order``
    selects the core hub order as in :func:`build_core_index`; the
    periphery is always eliminated by bounded MDE.

    ``config.workers`` parallelizes the tree-index fan-out (and the core
    labeling when ``core_backend="psl"`` applies) and ``config.kernel``
    selects the core labeling's construction path (vectorized PLL
    searches or PSL rounds vs pure Python), without changing any label —
    the decomposition itself stays sequential, as each elimination step
    depends on the fill-in of the previous one.  When ``workers > 1``
    and NumPy is importable, one shared-memory worker pool
    (:class:`repro.parallel.shm.ShmBuildPool`) is created here and
    reused by both the forest fan-out and the vectorized PSL rounds, so
    process spawn cost is paid once per build rather than once per
    phase.
    """
    bandwidth = config.bandwidth
    started = time.perf_counter()
    if budget is None:
        budget = MemoryBudget.unlimited()
    with obs_span(
        "ct.decompose",
        n=graph.n,
        bandwidth=bandwidth,
        order=config.order or CORE_ORDERS[0],
    ):
        decomposition = core_tree_decomposition(graph, bandwidth)
    from repro.kernels import numpy_available
    from repro.parallel.pool import resolve_workers

    worker_count = resolve_workers(config.workers)
    pool = None
    if worker_count > 1 and numpy_available():
        from repro.parallel.shm import ShmBuildPool

        pool = ShmBuildPool(worker_count)
    try:
        tree_index = build_tree_index(
            decomposition, budget=budget, workers=config.workers, pool=pool
        )
        core_index, originals, compact = build_core_index(
            decomposition, config, budget=budget, pool=pool
        )
    finally:
        if pool is not None:
            pool.shutdown()
    elapsed = time.perf_counter() - started
    logger.debug(
        "CT constructed: d=%d lambda=%d core=%d h_F=%d tree_entries=%d "
        "core_entries=%d in %.3fs",
        bandwidth,
        decomposition.boundary,
        len(decomposition.core_nodes),
        decomposition.forest_height(),
        tree_index.size_entries(),
        core_index.size_entries(),
        elapsed,
    )
    return decomposition, tree_index, core_index, originals, compact, elapsed
