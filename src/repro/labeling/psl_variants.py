"""PSL+ and PSL* — the index-reduction baselines of Section 7.

* **PSL+** applies *equivalence relation elimination*: twin nodes (equal
  neighborhoods) are folded to one representative before labeling, and
  queries are mapped back through the reduction.
* **PSL*** additionally applies *local minimal set elimination*: a node
  ranked below all of its neighbors never needs its own label set — at
  query time the set is restored on the fly as the min-shift of its
  neighbors' labels (plus the trivial self hub).  Neighbors of such a
  node are never themselves eliminated, so restoration always reads
  stored labels.

Both variants accept a ``backend``: ``"pll"`` (pruned searches — the
default, fastest sequentially) or ``"psl"`` (round-synchronous
propagation, the paper's parallel formulation).  The label sets agree;
only construction scheduling differs.
"""

from __future__ import annotations

import time

from repro.exceptions import IndexConstructionError
from repro.graphs.graph import INF, Graph, Weight
from repro.graphs.reductions import EquivalenceReduction, eliminate_equivalent_nodes
from repro.labeling.base import HUB_BUILDERS, DistanceIndex, MemoryBudget
from repro.labeling.hub_labels import HubLabeling
from repro.labeling.pll import build_pll
from repro.labeling.psl import build_psl


class PslPlusIndex(DistanceIndex):
    """PSL with equivalence relation elimination (PSL+)."""

    method_name = "PSL+"

    def __init__(
        self,
        reduction: EquivalenceReduction,
        labels: HubLabeling,
        order: list[int],
    ) -> None:
        self.reduction = reduction
        self.labels = labels
        self.order = order

    @property
    def graph(self) -> Graph:
        """The original (unreduced) graph."""
        return self.reduction.original

    def distance(self, s: int, t: int) -> Weight:
        rs = self.reduction.representative[s]
        rt = self.reduction.representative[t]
        if rs == rt:
            return self.reduction.map_distance(s, t, 0)
        return self.labels.query(rs, rt)

    def size_entries(self) -> int:
        return self.labels.total_entries()


class PslStarIndex(DistanceIndex):
    """PSL+ plus local minimal set elimination (PSL*)."""

    method_name = "PSL*"

    def __init__(
        self,
        reduction: EquivalenceReduction,
        labels: HubLabeling,
        order: list[int],
        dropped: list[bool],
    ) -> None:
        self.reduction = reduction
        self.labels = labels
        self.order = order
        #: dropped[v] is True when reduced-node v's label set was elided.
        self.dropped = dropped

    @property
    def graph(self) -> Graph:
        """The original (unreduced) graph."""
        return self.reduction.original

    @property
    def dropped_count(self) -> int:
        """How many reduced-graph label sets were elided."""
        return sum(self.dropped)

    def distance(self, s: int, t: int) -> Weight:
        rs = self.reduction.representative[s]
        rt = self.reduction.representative[t]
        if rs == rt:
            return self.reduction.map_distance(s, t, 0)
        return self._reduced_distance(rs, rt)

    def size_entries(self) -> int:
        return self.labels.total_entries()

    def _reduced_distance(self, s: int, t: int) -> Weight:
        s_dropped = self.dropped[s]
        t_dropped = self.dropped[t]
        if not s_dropped and not t_dropped:
            return self.labels.query(s, t)
        if s_dropped and t_dropped:
            map_s = self._restore_map(s)
            map_t = self._restore_map(t)
            return _dict_query(map_s, map_t)
        if t_dropped:
            s, t = t, s
        map_s = self._restore_map(s)
        return self.labels.query_with_map(map_s, t)

    def _restore_map(self, v: int) -> dict[int, Weight]:
        """Rebuild ``L_v`` as ``rank -> dist`` from the neighbors' labels."""
        graph = self.reduction.reduced
        restored: dict[int, Weight] = {self.labels.rank_of(v): 0}
        for u, w in graph.neighbors(v):
            for hub_rank, dist in self.labels.iter_rank_entries(u):
                candidate = dist + w
                old = restored.get(hub_rank)
                if old is None or candidate < old:
                    restored[hub_rank] = candidate
        return restored


def build_psl_plus(
    graph: Graph,
    *,
    backend: str = "pll",
    budget: MemoryBudget | None = None,
    workers: int | None = None,
) -> PslPlusIndex:
    """Build PSL+ (equivalence elimination, then 2-hop labeling).

    ``workers`` is forwarded to the PSL backend (ignored by PLL, whose
    pruned searches are sequential by construction).
    """
    started = time.perf_counter()
    reduction, labels, order = _build_reduced_labels(graph, backend, budget, workers=workers)
    index = PslPlusIndex(reduction, labels, order)
    index.build_seconds = time.perf_counter() - started
    return index


def build_psl_star(
    graph: Graph,
    *,
    backend: str = "pll",
    budget: MemoryBudget | None = None,
    workers: int | None = None,
) -> PslStarIndex:
    """Build PSL* (equivalence + local minimal set elimination).

    The local-minimum set depends only on the vertex order, so it is
    computed up front and its members' (construction-only) labels are
    exempted from the memory budget — the final index never stores them,
    and neither did the paper's PSL*.
    """
    started = time.perf_counter()
    reduction, labels, order = _build_reduced_labels(
        graph, backend, budget, exempt_factory=_local_minimum_nodes, workers=workers
    )
    reduced = reduction.reduced
    dropped_set = _local_minimum_nodes(reduced, order)
    dropped = [False] * reduced.n
    for v in dropped_set:
        dropped[v] = True
        labels.drop_label(v)
    index = PslStarIndex(reduction, labels, order, dropped)
    index.build_seconds = time.perf_counter() - started
    return index


def _local_minimum_nodes(graph: Graph, order: list[int]) -> frozenset[int]:
    """Nodes ranked below every neighbor (their labels can be elided)."""
    rank = [0] * graph.n
    for r, v in enumerate(order):
        rank[v] = r
    dropped = []
    for v in graph.nodes():
        neighbors = graph.neighbor_ids(v)
        if neighbors and all(rank[v] > rank[u] for u in neighbors):
            dropped.append(v)
    return frozenset(dropped)


def _build_reduced_labels(
    graph: Graph,
    backend: str,
    budget: MemoryBudget | None,
    *,
    exempt_factory=None,
    workers: int | None = None,
) -> tuple[EquivalenceReduction, HubLabeling, list[int]]:
    if backend not in HUB_BUILDERS:
        raise IndexConstructionError(
            f"unknown backend {backend!r}; expected one of {HUB_BUILDERS}"
        )
    from repro.labeling.ordering import degree_order

    reduction = eliminate_equivalent_nodes(graph)
    reduced = reduction.reduced
    order = degree_order(reduced)
    exempt = exempt_factory(reduced, order) if exempt_factory is not None else None
    if backend == "psl" and reduced.unweighted:
        built = build_psl(
            reduced, order, budget=budget, budget_exempt=exempt, workers=workers
        )
    else:
        built = build_pll(reduced, order, budget=budget, budget_exempt=exempt)
    return reduction, built.labels, built.order


def _dict_query(map_a: dict[int, Weight], map_b: dict[int, Weight]) -> Weight:
    if len(map_a) > len(map_b):
        map_a, map_b = map_b, map_a
    best: Weight = INF
    for hub_rank, da in map_a.items():
        db = map_b.get(hub_rank)
        if db is not None and da + db < best:
            best = da + db
    return best
