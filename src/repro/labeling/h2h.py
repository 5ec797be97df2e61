"""H2H — hierarchical 2-hop labeling on the full MDE decomposition ([19]).

Every node stores its *global* distance to each ancestor on the MDE tree
decomposition; a query meets at the LCA bag, which by the separator
property (Lemma 1) intersects some shortest path.  Index size is
``O(n·h)`` where ``h`` is the decomposition height — great on road
networks (small treewidth), hopeless on core-periphery graphs, which is
exactly the comparison the paper draws in Section 3.3.

Construction runs the top-down dynamic program of [19] on the weighted
MDE deliverables: ``dist(v_i, x) = min_{u ∈ N_i} δ⁻(u) + dist(u, x)``,
where the inner distance is read from whichever of ``u`` and ``x`` is
deeper on the (totally ordered) ancestor chain.  With a *complete*
elimination the recorded ``δ⁻`` weights are (n-1)-local — i.e. global —
distances, which is what makes the DP exact (Lemma 15 with λ = n).
"""

from __future__ import annotations

import time

from repro.graphs.graph import INF, Graph, Weight
from repro.labeling.base import DistanceIndex, MemoryBudget
from repro.treedec.decomposition import TreeDecomposition, decomposition_from_elimination
from repro.treedec.elimination import minimum_degree_elimination
from repro.treedec.lca import ForestLCA


class H2HIndex(DistanceIndex):
    """A built H2H index."""

    method_name = "H2H"

    def __init__(
        self,
        decomposition: TreeDecomposition,
        distance_arrays: list[dict[int, Weight]],
        lca: ForestLCA,
    ) -> None:
        self.decomposition = decomposition
        #: distance_arrays[pos] maps each ancestor node of ``order[pos]``
        #: to its exact graph distance.
        self.distance_arrays = distance_arrays
        self._lca = lca

    @property
    def graph(self) -> Graph:
        return self.decomposition.graph

    def distance(self, s: int, t: int) -> Weight:
        if s == t:
            return 0
        pos_s = self.decomposition.position[s]
        pos_t = self.decomposition.position[t]
        if not self._lca.same_tree(pos_s, pos_t):
            return INF  # different connected components
        meet = self._lca.lca(pos_s, pos_t)
        # Ancestor fast path (the paper's query case 1): answer straight
        # from the descendant's distance array.
        if meet == pos_s:
            return self.distance_arrays[pos_t][s]
        if meet == pos_t:
            return self.distance_arrays[pos_s][t]
        best: Weight = INF
        for u in self.decomposition.bags[meet]:
            left = self._node_distance(pos_s, s, u)
            right = self._node_distance(pos_t, t, u)
            if left + right < best:
                best = left + right
        return best

    def size_entries(self) -> int:
        return sum(len(array) for array in self.distance_arrays)

    def height(self) -> int:
        """Height of the underlying decomposition (the index-size driver)."""
        return self.decomposition.height()

    def _node_distance(self, pos: int, node: int, ancestor: int) -> Weight:
        if node == ancestor:
            return 0
        return self.distance_arrays[pos][ancestor]


def build_h2h(graph: Graph, *, budget: MemoryBudget | None = None) -> H2HIndex:
    """Build an H2H index over ``graph``.

    ``budget`` bounds the modeled index size (raises
    :class:`~repro.exceptions.OverMemoryError` when exceeded).
    """
    started = time.perf_counter()
    if budget is None:
        budget = MemoryBudget.unlimited()

    elimination = minimum_degree_elimination(graph, bandwidth=None)
    decomposition = decomposition_from_elimination(elimination)
    n = len(decomposition.order)
    position = decomposition.position
    lca = ForestLCA(decomposition.parent)
    distance_arrays: list[dict[int, Weight]] = [{} for _ in range(n)]

    def chain_lookup(pos_a: int, node_a: int, pos_b: int, node_b: int) -> Weight:
        """Distance between two comparable chain nodes, reading the deeper one."""
        if node_a == node_b:
            return 0
        if pos_a < pos_b:
            return distance_arrays[pos_a][node_b]
        return distance_arrays[pos_b][node_a]

    # Top-down: ancestors (higher positions) are finished before any of
    # their descendants.
    order = decomposition.order
    for pos in range(n - 1, -1, -1):
        neighbors, local = elimination.bag(pos)
        ancestors = decomposition.ancestors(pos)  # bag indexes, nearest first
        targets = [order[a] for a in ancestors]
        array = distance_arrays[pos]
        for x in targets:
            pos_x = position[x]
            best: Weight = INF
            for u, du in zip(neighbors, local):
                total = du + chain_lookup(position[u], u, pos_x, x)
                if total < best:
                    best = total
            array[x] = best
        budget.charge(len(targets))

    index = H2HIndex(decomposition, distance_arrays, lca)
    index.build_seconds = time.perf_counter() - started
    return index
